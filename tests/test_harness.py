"""Tests for the Monte Carlo harness: seeding, determinism, outputs."""

import concurrent.futures
import dataclasses
import json
import xml.etree.ElementTree as ET
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewclusters import comparators, harness
from fewclusters.dgp import LinearDesign, ProbitDesign, gen_linear, generate
from fewclusters.harness import (
    ConfigError,
    ExperimentSpec,
    RejectionRow,
    RejectionTable,
    emit_csv,
    emit_svg,
    run_experiment,
    spec_from_dict,
)
from fewclusters.methods import TABLE, Inputs, Method
from fewclusters.model import (
    EstimationError,
    FewClustersError,
    MethodInapplicable,
    TooManyAssignments,
)
from fewclusters.streams import STREAMS, generator, group_streams, stream

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
DESIGN_KEYS = ("kind", "q1", "q0", "h", "beta", "theta0", "eta", "size_range")

FAST_DESIGN = LinearDesign(q1=3, q0=3, h=0, eta=(), size_range=(5, 6))


def fast_spec(**overrides):
    base = dict(
        design=FAST_DESIGN,
        sweep_param="beta",
        sweep_values=(0.0,),
        methods=("placebo",),
        replications=20,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def group_inputs(spec, sweep_index, reps, max_assignments=None):
    """The Inputs of replications ``reps`` at one sweep point, as the harness builds them."""
    value = spec.sweep_values[sweep_index]
    design = harness._apply_sweep(spec.design, spec.sweep_param, value)
    keys = [(sweep_index, rep) for rep in reps]
    cluster_rngs, streams = group_streams(spec.master_seed, keys, design.q1 + design.q0)
    setting = dataclasses.replace(harness._setting(design), max_assignments=max_assignments)
    return Inputs(
        setting, generate(design, cluster_rngs), spec.alpha, spec.master_seed, keys,
        spec.crs_pairing, spec.bootstrap_reps, streams,
    )


class TestSpecValidation:
    def test_bad_sweep_param(self):
        with pytest.raises(ConfigError, match="sweep.param"):
            fast_spec(sweep_param="gamma")

    def test_empty_sweep_values(self):
        with pytest.raises(ConfigError, match="sweep.values"):
            fast_spec(sweep_values=())

    def test_zero_replications(self):
        with pytest.raises(ConfigError, match="replications"):
            fast_spec(replications=0)

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="methods"):
            fast_spec(methods=("placebo", "meta"))

    def test_odd_q_sweep(self):
        with pytest.raises(ConfigError, match="even"):
            fast_spec(sweep_param="q", sweep_values=(4.0, 5.0))

    def test_crs_needs_balance(self):
        with pytest.raises(MethodInapplicable, match=r"crs .*\(2, 4\)"):
            fast_spec(
                design=LinearDesign(q1=2, q0=4, h=0, eta=(), size_range=(5, 6)),
                methods=("crs",),
            )

    def test_bootstrap_is_linear_only(self):
        with pytest.raises(MethodInapplicable, match="wild_bootstrap"):
            fast_spec(
                design=ProbitDesign(size_range=(30, 40)), methods=("wild_bootstrap",)
            )

    def test_im_needs_two_clusters_per_group(self):
        # a q sweep reaching q = 2 leaves one cluster per group
        with pytest.raises(MethodInapplicable, match=r"im .*\(1, 1\)"):
            fast_spec(sweep_param="q", sweep_values=(6.0, 2.0), methods=("im",))

    def test_adjusted_placebo_needs_two_clusters_per_group(self):
        design = LinearDesign(q1=1, q0=3, h=0, eta=(), size_range=(5, 6))
        with pytest.raises(MethodInapplicable, match=r"placebo .*\(1, 3\)"):
            fast_spec(design=design)
        assert fast_spec(design=design, methods=("placebo_unadjusted",))

    @pytest.mark.parametrize("method", ["placebo", "placebo_unadjusted"])
    def test_enumeration_cap_checked_at_every_sweep_point(self, method):
        # before any replication, not after every q = 6 replication has run
        message = r"sweep.values: at q = 30, all C\(30, 15\) = 155117520 placebo"
        with pytest.raises(TooManyAssignments, match=message):
            fast_spec(sweep_param="q", sweep_values=(6.0, 30.0), methods=("im", method))
        assert fast_spec(sweep_param="q", sweep_values=(6.0, 30.0), methods=("im",))

    @pytest.mark.parametrize("method", ["crs", "crs_randomized"])
    def test_sign_table_cap_checked_at_every_sweep_point(self, method):
        # 2**23 sign vectors fit under the cap of 10**7, 2**24 do not
        message = r"sweep.values: at q = 48, all 2\*\*24 = 16777216 sign vectors of 24 pairs"
        with pytest.raises(TooManyAssignments, match=message):
            fast_spec(sweep_param="q", sweep_values=(6.0, 46.0, 48.0), methods=("im", method))
        assert fast_spec(sweep_param="q", sweep_values=(6.0, 46.0), methods=("im", method))

    def test_bootstrap_weight_cap_checked_at_every_sweep_point(self):
        # a weight per cluster and draw: 12 x 833,333 fit under the cap, 14 x 833,333 do not
        message = r"sweep.values: at q = 14, 14 clusters x 833333 bootstrap_reps"
        sweep = {"sweep_param": "q", "sweep_values": (6.0, 12.0, 14.0), "bootstrap_reps": 833_333}
        with pytest.raises(TooManyAssignments, match=message):
            fast_spec(**sweep, methods=("im", "wild_bootstrap"))
        assert fast_spec(**sweep, methods=("im",))
        assert fast_spec(**{**sweep, "sweep_values": (6.0, 12.0)}, methods=("wild_bootstrap",))


class TestSeeding:
    def test_streams_distinct_across_reps(self):
        a, b, c = (stream(0, key, "data") for key in [(0, 0), (0, 1), (1, 0)])
        assert STREAMS == ("data", "pairing", "crs_u", "bootstrap", "oracle", "subsample")
        entropy = lambda s: tuple(s.generate_state(4))
        assert len({entropy(a), entropy(b), entropy(c)}) == 3

    # (master seed, key): a replication's key; the CLI's key (), the children
    # of SeedSequence(seed) itself; master seeds of two and of three 32-bit
    # words of entropy; replication indices near 10**6, and past 2**32,
    # where an index is two words
    KEYS = [
        (7, (3, 11)),
        (7, ()),
        (0, ()),
        (2**32, (0, 0)),
        (2**32 + 12345, ()),
        (2**64 + 2**40 + 3, (2, 5)),
        (101, (0, 999_999)),
        (2**33 - 1, (10, 1_000_003)),
        (7, (1, 2**32 - 8)),
        (2**40 + 1, (2**32 + 1, 2**64 + 3)),
    ]

    def test_each_stream_is_the_spawned_child(self):
        # a stream built on its own draws what the i-th of the spawned
        # children draws, and the data stream spawns the same cluster
        # streams; group_streams derives the streams of ``size`` consecutive
        # replications in one pass, and each is numpy's own, bit for bit
        q = 5
        for seed, key in self.KEYS:
            children = np.random.SeedSequence(seed, spawn_key=key).spawn(len(STREAMS))
            for name, child in zip(STREAMS, children):
                ours = stream(seed, key, name)
                assert ours.generate_state(8).tolist() == child.generate_state(8).tolist()
                assert (
                    np.random.default_rng(ours).standard_normal(3).tolist()
                    == np.random.default_rng(child).standard_normal(3).tolist()
                )
            ours, theirs = stream(seed, key, "data").spawn(3), children[0].spawn(3)
            assert [s.generate_state(4).tolist() for s in ours] == [
                s.generate_state(4).tolist() for s in theirs
            ]
            for size in (1, 16):
                keys = [(*key[:-1], key[-1] + r) for r in range(size)] if key else [()] * size
                cluster_rngs, words = group_streams(seed, keys, q)
                assert len(cluster_rngs) == words.shape[0] == size
                for k, rngs, row in zip(keys, cluster_rngs, words):
                    spawned = stream(seed, k, "data").spawn(q)
                    expected = [np.random.default_rng(child) for child in spawned]
                    expected += [np.random.default_rng(stream(seed, k, n)) for n in STREAMS[1:]]
                    derived = rngs + [generator(w) for w in row]
                    assert len(derived) == len(expected) == q + len(STREAMS) - 1
                    for a, b in zip(derived, expected):
                        assert a.bit_generator.state == b.bit_generator.state
                        assert a.standard_normal(3).tolist() == b.standard_normal(3).tolist()

    def test_streams_reproducible(self):
        a = stream(5, (2, 9), "bootstrap")
        b = stream(5, (2, 9), "bootstrap")
        assert tuple(a.generate_state(4)) == tuple(b.generate_state(4))


class TestReplicationGroups:
    @pytest.mark.parametrize("kind", ["linear", "probit"])
    def test_groups_count_as_one_replication_at_a_time(self, monkeypatch, kind):
        # a group fits its datasets in batches: the counts must not move
        if kind == "linear":
            spec = fast_spec(
                methods=("placebo", "im", "crs", "crs_randomized", "wild_bootstrap", "bch_t"),
                sweep_values=(0.0, 1.0),
                replications=37,
            )
        else:
            design = ProbitDesign(q1=3, q0=3, h=2, eta=(0.5,), size_range=(60, 80))
            spec = fast_spec(
                design=design, methods=("placebo", "im", "crs"),
                sweep_values=(0.0, 0.3), replications=37,
            )
        grouped = run_experiment(spec)
        monkeypatch.setattr(harness, "REPLICATION_GROUP", 1)
        assert run_experiment(spec) == grouped

    def test_failures_counted_per_method_and_replication(self, monkeypatch):
        # in one group, replication 5 fails in the first method and
        # replication 2 in the second: each counts as a failure of its own
        # method only, and the rate is over the replications left
        spec = fast_spec(methods=("placebo", "im"), replications=8)
        inputs = group_inputs(spec, 0, range(8))
        rejects = [result.reject for result in TABLE["oracle"].run(inputs)]
        first = [dataset.clusters[0].outcomes[0] for dataset in inputs.datasets]

        def failing_at(rep, name):
            def run(inputs):
                results = TABLE["oracle"].run(inputs)
                for j, dataset in enumerate(inputs.datasets):
                    if dataset.clusters[0].outcomes[0] == first[rep]:
                        results[j] = FewClustersError(f"{name} failed at replication {rep}")
                return results
            return Method(name, run)

        monkeypatch.setitem(TABLE, "placebo", failing_at(5, "placebo"))
        monkeypatch.setitem(TABLE, "im", failing_at(2, "im"))
        placebo, im = run_experiment(spec).rows
        for row, rep in ((placebo, 5), (im, 2)):
            assert (row.reps, row.failures) == (8, 1)
            assert row.reject_rate == (sum(rejects) - rejects[rep]) / 7

    @pytest.mark.parametrize(
        "spec",
        [
            fast_spec(
                design=LinearDesign(q1=3, q0=3, h=4, eta=(1.0,), size_range=(5, 12)),
                methods=tuple(TABLE), sweep_values=(0.5,), replications=16,
            ),
            fast_spec(
                design=ProbitDesign(q1=3, q0=3, h=2, eta=(0.5,), size_range=(20, 30)),
                methods=("placebo", "placebo_unadjusted", "im", "crs", "crs_randomized", "oracle"),
                sweep_values=(0.6,), replications=16,
            ),
        ],
        ids=["linear", "probit"],
    )
    @pytest.mark.parametrize("max_assignments", [None, 7])
    def test_group_gives_each_dataset_its_own_result(self, spec, max_assignments):
        # a group of 16 with failed fits in the middle: each dataset's result
        # or error is the one it gets in a group of its own, under its key
        inputs = group_inputs(spec, 0, range(16), max_assignments)
        failed = [isinstance(e, FewClustersError) for e in inputs.estimates]
        assert any(failed[1:-1]) and not all(failed)
        for name in spec.methods:
            grouped = TABLE[name].run(inputs)
            for j, key in enumerate(inputs.keys):
                alone = dataclasses.replace(
                    inputs, datasets=[inputs.datasets[j]], keys=[key], streams=None
                )
                [expected] = TABLE[name].run(alone)
                if isinstance(expected, FewClustersError):
                    assert type(grouped[j]) is type(expected), (name, j)
                    assert str(grouped[j]) == str(expected), (name, j)
                else:
                    assert grouped[j] == expected, (name, j)


SHIPPED_CONFIGS = sorted(
    path.name.removesuffix(".json")
    for path in (resources.files("fewclusters") / "configs").iterdir()
)


def outcome(result):
    """A method's result by its repr, or its error by type and message."""
    if isinstance(result, FewClustersError):
        return type(result).__name__, str(result)
    return repr(result)


class TestGroupIndependence:
    @pytest.mark.parametrize("name", SHIPPED_CONFIGS)
    def test_shipped_config_gives_each_replication_its_own_bits(self, name):
        # at the first and the last sweep value, a group of 16 and groups of
        # one give each replication byte-equal data and repr-equal results:
        # the group's one-pass generation, row-wise sums, sorts and counts
        # and shared critical values change no bit of any replication
        path = resources.files("fewclusters") / "configs" / f"{name}.json"
        raw = json.loads(path.read_text())
        raw["replications"] = harness.REPLICATION_GROUP
        spec = spec_from_dict(raw)
        for sweep_index in (0, len(spec.sweep_values) - 1):
            group = group_inputs(spec, sweep_index, range(harness.REPLICATION_GROUP))
            grouped = {m: list(map(outcome, TABLE[m].run(group))) for m in spec.methods}
            for rep, dataset in enumerate(group.datasets):
                alone = group_inputs(spec, sweep_index, [rep])
                [own] = alone.datasets
                assert own.ids == dataset.ids, (sweep_index, rep)
                for column in ("offsets", "outcomes", "covariates"):
                    a, b = getattr(own, column), getattr(dataset, column)
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                for m in spec.methods:
                    [expected] = TABLE[m].run(alone)
                    assert grouped[m][rep] == outcome(expected), (sweep_index, rep, m)


class TestRunExperiment:
    def test_oracle_near_nominal(self):
        # the oracle rejects with probability alpha by construction;
        # 2000 Bernoulli(0.05) draws land within 0.01 of 0.05 w.h.p.
        spec = fast_spec(methods=("oracle",), replications=2000)
        table = run_experiment(spec)
        assert abs(table.rate("oracle", 0.0) - 0.05) < 0.01

    def test_worker_count_invariance(self):
        spec = fast_spec(
            methods=("placebo", "im", "wild_bootstrap"),
            sweep_values=(0.0, 1.0),
            replications=30,
        )
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=3)
        assert serial == parallel

    def test_csv_bytes_equal_across_workers(self, tmp_path, monkeypatch):
        # one pool serves every sweep value, a task each; the CPU count is
        # pinned so that 4 workers are not capped
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        pools = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs)
                super().__init__(*args, **kwargs)

        # run_experiment imports the pool class when it starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        spec = fast_spec(
            methods=("placebo", "im", "bch_t"),
            sweep_values=(0.0, 0.5, 1.0),
            replications=7,
        )
        texts = []
        for workers in (1, 2, 4):
            emit_csv(run_experiment(spec, workers=workers), tmp_path / "t.csv")
            texts.append((tmp_path / "t.csv").read_bytes())
        assert texts[1] == texts[0] and texts[2] == texts[0]
        assert pools == [{"max_workers": 2}, {"max_workers": 4}]

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        # the pool forks all its workers at the first submit, so a large
        # --threads must not reach it; this stand-in starts no process
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        spec = fast_spec(methods=("placebo", "im"), sweep_values=(0.0, 1.0), replications=40)
        assert run_experiment(spec, workers=10**6) == run_experiment(spec)
        assert pools == [3]

    def test_estimation_error_same_across_workers(self):
        # separated probit clusters at beta = 1.5 fail some replications, the
        # first of them at cluster c02: each counts as one failure, the same
        # at 1 and 2 workers, and the rate is over the replications left
        spec = ExperimentSpec(
            ProbitDesign(q1=3, q0=3), "beta", (1.5,), ("placebo",),
            replications=20, master_seed=201,
        )
        tables = [run_experiment(spec, workers=workers) for workers in (1, 2)]
        assert tables[0] == tables[1]
        results = TABLE["placebo"].run(group_inputs(spec, 0, range(20)))
        errors = [r for r in results if isinstance(r, FewClustersError)]
        assert all(isinstance(e, EstimationError) for e in errors)
        assert errors[0].cluster_id == "c02"
        [row] = tables[0].rows
        assert row.failures == len(errors) < 20
        rejects = sum(r.reject for r in results if not isinstance(r, FewClustersError))
        assert row.reject_rate == rejects / (20 - len(errors))

    def test_power_increases_with_beta(self):
        spec = fast_spec(
            methods=("placebo",), sweep_values=(0.0, 3.0), replications=200
        )
        table = run_experiment(spec)
        assert table.rate("placebo", 3.0) > table.rate("placebo", 0.0) + 0.3

    def test_placebo_unadjusted_equal_when_balanced(self):
        # with q1 == q0 the default placebo method is the unadjusted one
        spec = fast_spec(
            methods=("placebo", "placebo_unadjusted"), replications=50
        )
        table = run_experiment(spec)
        assert table.rate("placebo", 0.0) == table.rate("placebo_unadjusted", 0.0)

    def test_pooled_fit_shared_by_bootstrap_and_t_test(self, monkeypatch):
        # one regression per dataset, fitted in batches of datasets
        calls = []
        build = comparators.pooled_regressions

        def counted(datasets):
            calls.extend(datasets)
            return build(datasets)

        both = fast_spec(methods=("wild_bootstrap", "bch_t"), replications=10)
        alone = [fast_spec(methods=(m,), replications=10) for m in both.methods]
        expected = [run_experiment(spec).rows[0] for spec in alone]
        monkeypatch.setattr(comparators, "pooled_regressions", counted)
        assert list(run_experiment(both).rows) == expected
        assert len(calls) == 10

    @pytest.mark.parametrize("method", list(TABLE))
    def test_every_table_entry_runs(self, method):
        table = run_experiment(fast_spec(methods=(method,), replications=1))
        assert [row.method for row in table.rows] == [method]


class TestEmitters:
    TABLE = RejectionTable(
        rows=(
            RejectionRow("placebo", "beta", 0.0, 0.05, 100, 1, 0),
            RejectionRow("placebo", "beta", 1.0, 0.75, 100, 1, 0),
            RejectionRow("im", "beta", 0.0, 0.01, 100, 1, 0),
            RejectionRow("im", "beta", 1.0, 0.5, 100, 1, 4),
        )
    )
    HEADER = "method,sweep_param,sweep_value,reject_rate,reps,seed,failures"

    def test_csv_shape(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(self.TABLE, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 5
        assert lines[1] == "placebo,beta,0.0,0.05,100,1,0"
        assert lines[4] == "im,beta,1.0,0.5,100,1,4"

    def test_csv_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(RejectionTable(rows=()), path)
        lines = path.read_text().strip().splitlines()
        assert lines == [self.HEADER]

    def test_csv_full_precision(self, tmp_path):
        table = RejectionTable(
            rows=(RejectionRow("placebo", "beta", 0.1, 1 / 3, 3, 0, 0),)
        )
        path = tmp_path / "prec.csv"
        emit_csv(table, path)
        value = path.read_text().strip().splitlines()[1].split(",")[3]
        assert float(value) == 1 / 3

    def test_svg_well_formed(self, tmp_path):
        path = tmp_path / "plot.svg"
        emit_svg(self.TABLE, path, alpha=0.05)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 2  # one per method

    def test_svg_leaves_out_failed_points(self, tmp_path):
        # every replication of im at beta = 1 failed: its rate is nan
        rows = list(self.TABLE.rows)
        rows[3] = dataclasses.replace(rows[3], reject_rate=float("nan"), failures=100)
        path = tmp_path / "plot.svg"
        emit_svg(RejectionTable(rows=tuple(rows)), path, alpha=0.05)
        root = ET.parse(path).getroot()
        points = [e.get("points").split() for e in root.iter() if e.tag.endswith("polyline")]
        assert sorted(map(len, points)) == [1, 2]
        assert "nan" not in path.read_text()

    def test_svg_empty_table(self, tmp_path):
        path = tmp_path / "empty.svg"
        emit_svg(RejectionTable(rows=()), path)
        assert ET.parse(path).getroot().tag.endswith("svg")


class TestSpecFromDict:
    GOOD = {
        "design": {"kind": "linear", "q1": 3, "q0": 3, "h": 0},
        "sweep": {"param": "beta", "values": [0.0, 1.0]},
        "methods": ["placebo", "im"],
        "replications": 10,
        "alpha": 0.05,
        "master_seed": 3,
    }

    def test_round_trip(self):
        spec = spec_from_dict(self.GOOD)
        assert spec.design == LinearDesign(q1=3, q0=3, h=0)
        assert spec.sweep_values == (0.0, 1.0)
        assert spec.methods == ("placebo", "im")

    def test_bad_kind(self):
        raw = {**self.GOOD, "design": {"kind": "logit"}}
        with pytest.raises(ConfigError, match="design.kind"):
            spec_from_dict(raw)

    def test_bad_replications_names_field(self):
        raw = {**self.GOOD, "replications": 0}
        with pytest.raises(ConfigError, match="replications"):
            spec_from_dict(raw)

    def test_missing_sweep(self):
        raw = {k: v for k, v in self.GOOD.items() if k != "sweep"}
        with pytest.raises(ConfigError, match="sweep"):
            spec_from_dict(raw)

    def test_bad_q1(self):
        raw = {**self.GOOD, "design": {"kind": "linear", "q1": -1}}
        with pytest.raises(ConfigError, match="design.q1"):
            spec_from_dict(raw)

    @pytest.mark.parametrize(
        "field, value, name",
        [
            ("design", {"kind": "linear", "size_range": [5]}, "design.size_range"),
            ("design", {"kind": "linear", "size_range": [9, 5]}, "design.size_range"),
            ("design", {"kind": "linear", "eta": 3}, "design.eta"),
            ("design", {"kind": "linear", "beta": "x"}, "design.beta"),
            ("design", {"kind": "linear", "h": 15}, "design.h"),
            ("design", {"kind": "linear", "q1": 0}, "q1"),
            ("alpha", "x", "alpha"),
            ("alpha", 1.5, "alpha"),
            ("bootstrap_reps", 0, "bootstrap_reps"),
            ("master_seed", -1, "master_seed"),
            ("sweep", {"param": "beta", "values": "ab"}, "sweep.values"),
            ("sweep", {"param": "q", "values": [6, 0]}, "sweep.values"),
            ("sweep", {"param": "h", "values": [1.5]}, "sweep.values"),
            ("methods", ["placebo", "placebo"], "methods"),
        ],
    )
    def test_bad_field_named(self, field, value, name):
        with pytest.raises(ConfigError, match=name):
            spec_from_dict({**self.GOOD, field: value})

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_json_gives_spec_or_library_error(self, data):
        raw = {**self.GOOD, "design": dict(self.GOOD["design"])}
        where = data.draw(st.sampled_from(("whole", "field", "design field")))
        if where == "whole":
            raw = data.draw(JSON_VALUES)
        elif where == "field":
            raw[data.draw(st.sampled_from(sorted(raw)))] = data.draw(JSON_VALUES)
        else:
            key = data.draw(st.sampled_from(DESIGN_KEYS))
            raw["design"][key] = data.draw(JSON_VALUES)
        try:
            spec = spec_from_dict(raw)
        except FewClustersError:
            return
        assert isinstance(spec, ExperimentSpec)
