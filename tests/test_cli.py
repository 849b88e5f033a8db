"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fewclusters
from fewclusters import comparators, engine, estimators
from fewclusters.cli import (
    EXIT_DATA_ERROR,
    EXIT_INAPPLICABLE,
    EXIT_OK,
    main,
    read_csv_dataset,
)
from fewclusters.dgp import LinearDesign, gen_linear
from fewclusters.harness import spec_from_dict
from fewclusters.methods import STREAMS, TABLE, stream
from fewclusters.model import DataError


def run_cli_process(*args):
    """Run ``python -m fewclusters`` (or python -c) in a fresh interpreter."""
    src = str(Path(fewclusters.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )


def write_csv(path, n_clusters=6, rows_per_cluster=4, effect=0.0, n_treated=None):
    if n_treated is None:
        n_treated = n_clusters // 2
    lines = ["cluster_id,treated,outcome"]
    value = 0.0
    for k in range(n_clusters):
        treated = 1 if k < n_treated else 0
        for i in range(rows_per_cluster):
            value += 0.7  # deterministic, strictly increasing outcomes
            y = value + (effect if treated else 0.0)
            lines.append(f"c{k},{treated},{y}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestReadCsv:
    def test_basic(self, tmp_path):
        ds = read_csv_dataset(write_csv(tmp_path / "d.csv"))
        assert ds.layout.q1 == 3 and ds.layout.q0 == 3
        assert ds.n == 24

    def test_covariate_columns(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(
            "cluster_id,treated,outcome,x1,x2\n"
            "a,1,1.0,0.1,0.2\n"
            "a,1,2.0,0.3,0.4\n"
            "b,0,3.0,0.5,0.6\n"
        )
        ds = read_csv_dataset(p)
        assert ds.clusters[0].covariate_dim == 2

    def test_unknown_column_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("cluster_id,treated,outcome,weight\na,1,1.0,2.0\nb,0,1.0,2.0\n")
        with pytest.raises(DataError, match="weight"):
            read_csv_dataset(p)

    def test_missing_required_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("cluster_id,outcome\na,1.0\n")
        with pytest.raises(DataError, match="treated"):
            read_csv_dataset(p)

    def test_non_binary_treated(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("cluster_id,treated,outcome\na,yes,1.0\n")
        with pytest.raises(DataError, match="row 2"):
            read_csv_dataset(p)

    def test_inconsistent_treatment_flag(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("cluster_id,treated,outcome\na,1,1.0\na,0,2.0\nb,0,1.0\n")
        with pytest.raises(DataError, match="inconsistent"):
            read_csv_dataset(p)

    def test_header_names_with_spaces(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(
            "cluster_id, treated, outcome, x1\n"
            "a,1,1.0,0.1\na,1,2.0,0.3\nb,0,3.0,0.5\nb,0,3.5,0.2\n"
        )
        ds = read_csv_dataset(p)
        assert [c.outcomes.tolist() for c in ds] == [[1.0, 2.0], [3.0, 3.5]]
        assert ds.clusters[1].covariate_matrix.tolist() == [[0.5], [0.2]]

    @pytest.mark.parametrize("header", ["cluster_id,treated,outcome,x1,x1",
                                        "cluster_id,treated,outcome,outcome"])
    def test_duplicate_columns_named(self, tmp_path, header):
        p = tmp_path / "d.csv"
        p.write_text(header + "\n")
        duplicate = header.rsplit(",", 1)[1]
        with pytest.raises(DataError, match=rf"duplicate columns \['{duplicate}'\]"):
            read_csv_dataset(p)

    def test_post_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text(
            "cluster_id,treated,outcome,post\n"
            "a,1,1.0,0\na,1,2.0,1\nb,0,1.0,0\nb,0,1.5,1\n"
        )
        ds = read_csv_dataset(p)
        assert list(ds.clusters[0].post) == [0.0, 1.0]


class TestTestCommand:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, json.loads(out) if out.strip().startswith("{") else None

    def test_placebo_six_clusters(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path / "d.csv", effect=50.0)
        code, report = self.run(
            capsys, "test", "--input", str(csv_path), "--unadjusted"
        )
        assert code == EXIT_OK
        assert report["method"] == "placebo"
        assert report["n_assignments"] == 20
        assert report["reject"] is True
        assert report["p_value"] == pytest.approx(1 / 20)
        assert set(report) == {
            "method",
            "estimator",
            "statistic",
            "critical_value",
            "p_value",
            "reject",
            "n_assignments",
            "warnings",
        }

    def test_four_clusters_zero_power(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path / "d.csv", n_clusters=4, effect=50.0)
        code, report = self.run(
            capsys, "test", "--input", str(csv_path), "--unadjusted"
        )
        assert code == EXIT_OK
        assert report["reject"] is False
        assert report["warnings"]  # zero-power situation is surfaced

    def test_reject_consistent_with_p_value(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path / "d.csv", effect=2.0)
        code, report = self.run(
            capsys, "test", "--input", str(csv_path), "--unadjusted"
        )
        assert code == EXIT_OK
        assert report["reject"] == (report["p_value"] <= 0.05)

    @pytest.mark.parametrize("method", ["placebo", "im"])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, capsys, method):
        # Excel's "CSV UTF-8" starts the file with the UTF-8 byte-order mark
        plain = write_csv(tmp_path / "plain.csv", effect=2.0)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        runs = [
            self.run(capsys, "test", "--input", str(p), "--method", method)
            for p in (plain, marked)
        ]
        assert runs[0][0] == EXIT_OK
        assert runs[1] == runs[0]

    def test_missing_column_exit_code(self, tmp_path, capsys):
        p = tmp_path / "d.csv"
        p.write_text("cluster_id,outcome\na,1.0\n")
        assert main(["test", "--input", str(p)]) == EXIT_DATA_ERROR

    @pytest.mark.parametrize(
        "row, cells", [("a,1,1.0,7", 4), ("a,1,1.0,7,8", 5), ("a,1", 2), ("a", 1)]
    )
    def test_row_cell_count_exit_code(self, tmp_path, capsys, row, cells):
        # a row with more cells than the header lost the extra ones silently,
        # and a one-cell row ended in a traceback
        p = tmp_path / "d.csv"
        p.write_text(f"cluster_id,treated,outcome\n{row}\nb,0,2.0\n")
        code = main(["test", "--input", str(p), "--method", "placebo_unadjusted"])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_DATA_ERROR, "")
        assert f"malformed row 2: {cells} cells, the header has 3" in err

    @pytest.mark.parametrize(
        "content",
        [
            # cp1252 bytes that are no UTF-8: an 'é' in a cluster id
            "cluster_id,treated,outcome\ncaf\xe9,1,1.0\nb,0,2.0\n".encode("cp1252"),
            # one field past the csv module's 131,072-character limit
            b"cluster_id,treated,outcome\n" + b"a" * 131_073 + b",1,1.0\nb,0,2.0\n",
        ],
        ids=["not-utf8", "oversized-field"],
    )
    def test_unreadable_csv_exit_code(self, tmp_path, capsys, content):
        # both ended in a traceback and exit 1
        p = tmp_path / "d.csv"
        p.write_bytes(content)
        code = main(["test", "--input", str(p)])
        out, err = capsys.readouterr()
        assert (code, out) == (EXIT_DATA_ERROR, "")
        assert err.startswith("error: ") and str(p) in err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["test", "--input", str(tmp_path / "nope.csv")]) == EXIT_DATA_ERROR

    def test_crs_on_did_inapplicable(self, tmp_path):
        csv_path = write_csv(tmp_path / "d.csv")
        code = main(
            ["test", "--input", str(csv_path), "--method", "crs", "--estimator", "did"]
        )
        assert code == EXIT_INAPPLICABLE

    def test_rerun_identical_output(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path / "d.csv", effect=1.0)
        argv = ["test", "--input", str(csv_path), "--unadjusted", "--seed", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_seed_spawns_one_stream_per_name(self):
        # one seed for every stream would draw crs_u's uniform from the
        # state the random pairing's permutation also starts from
        children = np.random.SeedSequence(3).spawn(len(STREAMS))
        states = [stream(3, (), name).generate_state(4).tolist() for name in STREAMS]
        assert states == [child.generate_state(4).tolist() for child in children]
        assert len({tuple(states[STREAMS.index(name)])
                    for name in ("pairing", "crs_u", "bootstrap")}) == 3

    def test_seeded_methods_read_their_spawned_streams(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path / "d.csv", n_clusters=10, effect=0.5)
        ds = read_csv_dataset(csv_path)
        # children 1, 2 and 3: child 0 is the data stream, which the CLI leaves unread
        _, pairing, crs_u, bootstrap = np.random.SeedSequence(3).spawn(4)
        pairs = comparators.pair_clusters(ds, "random", pairing)
        pair_betas = comparators.pair_beta_ols(ds, pairs)
        expected = {
            "crs_randomized": comparators.crs_sign_test(pair_betas, 0.05, True, crs_u),
            "wild_bootstrap": comparators.wild_cluster_bootstrap_test(
                ds, 0.05, seed=bootstrap
            ),
        }
        for method, result in expected.items():
            code, report = self.run(
                capsys, "test", "--input", str(csv_path), "--method", method, "--seed", "3"
            )
            assert code == EXIT_OK
            assert (report["statistic"], report["p_value"], report["reject"]) == (
                result.statistic, result.p_value, result.reject
            )

    def test_subsampled_permutations(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path / "d.csv", n_clusters=8)
        code, report = self.run(
            capsys,
            "test", "--input", str(csv_path), "--unadjusted", "--max-perms", "30",
        )
        assert code == EXIT_OK
        assert report["n_assignments"] == 31  # identity plus 30 draws

    def test_subsample_above_the_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        # the test allocates a statistic per draw before it draws, so a
        # subsample is held to the enumeration cap
        monkeypatch.setattr(engine, "ENUMERATION_CAP", 100)
        csv_path = write_csv(tmp_path / "d.csv", n_clusters=10)  # C(10, 5) = 252
        argv = ["test", "--input", str(csv_path), "--unadjusted", "--max-perms"]
        code, report = self.run(capsys, *argv, "100")
        assert (code, report["n_assignments"]) == (EXIT_OK, 101)
        assert main([*argv, "101"]) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err == "error: 101 drawn placebo assignments exceed the cap of 100\n"

    def test_other_methods_run(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path / "d.csv")
        for method in ("im", "crs", "wildboot", "bch"):
            code, report = self.run(
                capsys, "test", "--input", str(csv_path), "--method", method
            )
            assert code == EXIT_OK
            assert report["method"] == method

    @pytest.mark.parametrize("method", list(TABLE))
    def test_every_table_entry_runs(self, tmp_path, capsys, method):
        csv_path = write_csv(tmp_path / "d.csv", n_clusters=12)
        code, report = self.run(
            capsys, "test", "--input", str(csv_path), "--method", method
        )
        assert code == EXIT_OK
        assert report["method"] == method

    @pytest.mark.parametrize("method", ["crs", "crs_randomized", "oracle"])
    @pytest.mark.parametrize("side", ["less", "two"])
    def test_greater_only_methods_refuse_other_sides(
        self, tmp_path, capsys, method, side
    ):
        csv_path = write_csv(tmp_path / "d.csv")
        argv = ["test", "--input", str(csv_path), "--method", method, "--side", side]
        assert main(argv) == EXIT_INAPPLICABLE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert method in captured.err and "'greater' only" in captured.err

    @pytest.mark.parametrize(
        "method, n_clusters, treated, extra, message",
        [
            ("crs", 6, 2, [], "crs does not apply at (q1, q0) = (2, 4)"),
            ("im", 4, 1, [], "im does not apply at (q1, q0) = (1, 3)"),
            ("placebo", 4, 1, [], "placebo does not apply at (q1, q0) = (1, 3)"),
            ("wildboot", 6, 3, ["--estimator", "probit"],
             "wild_bootstrap does not apply at (q1, q0) = (3, 3)"),
        ],
    )
    def test_inapplicable_before_any_work(
        self, tmp_path, capsys, monkeypatch, method, n_clusters, treated, extra, message
    ):
        p = write_csv(tmp_path / "d.csv", n_clusters, n_treated=treated)

        def refuse(*args):
            raise AssertionError("estimated before the applicability check")

        monkeypatch.setattr(estimators, "estimate_all", refuse)
        argv = ["test", "--input", str(p), "--method", method, *extra]
        assert main(argv) == EXIT_INAPPLICABLE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("method", list(TABLE))
    @pytest.mark.parametrize(
        "flag, value",
        [("--alpha", "1.5"), ("--alpha", "0"), ("--seed", "-1"), ("--max-perms", "0")],
    )
    def test_bad_flag_value_exit_code(self, tmp_path, capsys, method, flag, value):
        # checked when the arguments are parsed, whether or not the method
        # reads the flag
        csv_path = write_csv(tmp_path / "d.csv")
        with pytest.raises(SystemExit) as exc:
            main(["test", "--input", str(csv_path), "--method", method, flag, value])
        assert exc.value.code == EXIT_DATA_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err

    def test_unadjusted_placebo_with_one_treated_cluster(self, tmp_path, capsys):
        csv_path = write_csv(tmp_path / "d.csv", n_clusters=5, n_treated=1)
        code, report = self.run(
            capsys, "test", "--input", str(csv_path), "--unadjusted"
        )
        assert code == EXIT_OK
        assert report["n_assignments"] == 5

    def test_non_finite_outcome_exit_code(self, tmp_path):
        csv_path = write_csv(tmp_path / "d.csv")
        lines = csv_path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"  # third row of cluster c0
        csv_path.write_text("\n".join(lines) + "\n")
        for method in ("placebo", "im", "crs", "wildboot", "bch"):
            proc = run_cli_process(
                "-m", "fewclusters", "test", "--input", str(csv_path), "--method", method
            )
            assert proc.returncode == EXIT_DATA_ERROR, (method, proc.stderr)
            assert "Infinity" not in proc.stdout and "NaN" not in proc.stdout
            assert "'c0': outcomes contain nan or inf" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_infinite_statistic_written_as_null(self, tmp_path, capsys):
        # every outcome equals its group's value: zero spread makes the t
        # statistic infinite, which strict JSON writes as null
        p = tmp_path / "d.csv"
        rows = [f"c{k},{int(k < 3)},{float(k < 3)}" for k in range(6) for _ in range(4)]
        p.write_text("\n".join(["cluster_id,treated,outcome", *rows]) + "\n")
        assert main(["test", "--input", str(p), "--method", "im"]) == EXIT_OK

        def refuse(token):
            raise AssertionError(f"non-standard JSON constant {token}")

        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert report["statistic"] is None
        assert report["reject"] is True


    def test_infinite_statistic_keeps_its_sign(self, tmp_path, capsys):
        # zero spread in both groups: the im t statistic is +inf when the
        # treated clusters lie above and -inf when they lie below
        reports = []
        for high in (1, 0):
            p = tmp_path / f"d{high}.csv"
            rows = [
                f"c{k},{int(k < 3)},{float((k < 3) == high)}"
                for k in range(6)
                for _ in range(4)
            ]
            p.write_text("\n".join(["cluster_id,treated,outcome", *rows]) + "\n")
            assert main(["test", "--input", str(p), "--method", "im"]) == EXIT_OK
            reports.append(json.loads(capsys.readouterr().out))
        plus, minus = reports
        assert plus["statistic"] is None and plus["statistic_nonfinite"] == "+inf"
        assert minus["statistic"] is None and minus["statistic_nonfinite"] == "-inf"
        assert "critical_value_nonfinite" not in plus
        assert plus != minus

    def test_probit_separation_names_cluster_once(self, tmp_path, capsys):
        # every outcome of c00 is positive, so its probit fit cannot solve
        rng = np.random.default_rng(3)
        rows = [
            f"c{k:02d},{int(k < 3)},{1.0 if k == 0 else rng.normal()!r}"
            for k in range(6)
            for _ in range(20)
        ]
        p = tmp_path / "d.csv"
        p.write_text("\n".join(["cluster_id,treated,outcome", *rows]) + "\n")
        argv = ["test", "--input", str(p), "--estimator", "probit"]
        assert main(argv) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert "constant binary outcome" in err
        assert err.count("'c00'") == 1

    def test_did_without_post_column_names_cluster_once(self, tmp_path, capsys):
        argv = ["test", "--input", str(write_csv(tmp_path / "d.csv")), "--estimator", "did"]
        assert main(argv) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.strip() == "error: estimation failed for cluster 'c0': no post indicator"

    def test_pair_probit_with_constant_cluster_fails(self, tmp_path, capsys):
        # c00's outcomes are all one, so its pair's moment condition has no
        # zero and crs has no estimate for that pair
        rng = np.random.default_rng(5)
        rows = [
            f"c{k:02d},{int(k < 3)},{1.0 if k == 0 else float(rng.normal() > 0)!r}"
            for k in range(6)
            for _ in range(400)
        ]
        p = tmp_path / "d.csv"
        p.write_text("\n".join(["cluster_id,treated,outcome", *rows]) + "\n")
        argv = ["test", "--input", str(p), "--method", "crs", "--estimator", "probit",
                "--pairing", "by_size"]
        assert main(argv) == EXIT_DATA_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert "cluster 'c00' paired with 'c0" in err
        assert err.strip().endswith("constant binary outcome")

    @pytest.mark.parametrize("method", ["bch", "wildboot"])
    def test_constant_outcomes_not_rejected(self, tmp_path, capsys, method):
        # every outcome 1.0: the pooled fit leaves only rounding noise, which
        # must not pass for an effect (it gave t = 2.457 and a rejection)
        rng = np.random.default_rng(0)
        p = tmp_path / "d.csv"
        rows = [
            f"c{k},{int(k < 3)},1.0,{rng.normal()!r}" for k in range(6) for _ in range(5)
        ]
        p.write_text("\n".join(["cluster_id,treated,outcome,x1", *rows]) + "\n")
        code, report = self.run(capsys, "test", "--input", str(p), "--method", method)
        assert code == EXIT_OK
        assert report["statistic"] == 0.0
        assert report["reject"] is False

    def test_crs_rank_deficient_pair(self, tmp_path, capsys):
        # at h = m - 1 the moving average is the cluster mean, so every
        # cluster's covariates are constant and each pair's fit is singular
        ds = gen_linear(LinearDesign(q1=3, q0=3, h=14, size_range=(15, 15)), 7)
        lines = ["cluster_id,treated,outcome," + ",".join(f"x{j + 1}" for j in range(5))]
        for c in ds:
            for y, row in zip(c.outcomes.tolist(), c.covariate_matrix.tolist()):
                lines.append(",".join([c.id, str(int(c.treated)), repr(y), *map(repr, row)]))
        p = tmp_path / "d.csv"
        p.write_text("\n".join(lines) + "\n")
        assert main(["test", "--input", str(p), "--method", "crs"]) == EXIT_DATA_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert "paired with 'c" in err and "rank deficient" in err

    @pytest.mark.parametrize("method", ["bch", "wildboot"])
    def test_pooled_fit_without_residual_degrees_of_freedom(self, tmp_path, capsys, method):
        # one row per cluster: n = d = 2 leaves the CRVE nothing to divide by
        p = tmp_path / "d.csv"
        p.write_text("cluster_id,treated,outcome\na,1,1.0\nb,0,2.0\n")
        assert main(["test", "--input", str(p), "--method", method]) == EXIT_DATA_ERROR
        out, err = capsys.readouterr()
        assert out == "" and "no residual" in err


class TestSimulateCommand:
    CONFIG = {
        "design": {
            "kind": "linear", "q1": 3, "q0": 3, "h": 0,
            "eta": [], "size_range": [5, 6],
        },
        "sweep": {"param": "beta", "values": [0.0, 2.0]},
        "methods": ["placebo", "im"],
        "replications": 10,
        "alpha": 0.05,
        "master_seed": 1,
    }

    def test_writes_outputs(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "rejection_table.csv").exists()
        assert (out / "rejection_beta.svg").exists()
        lines = (out / "rejection_table.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + methods x sweep values

    def test_invalid_replications_names_field(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**self.CONFIG, "replications": 0}))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path)])
        assert code == EXIT_DATA_ERROR
        assert "replications" in capsys.readouterr().err

    def test_enumeration_cap_exit_code(self, tmp_path, capsys, monkeypatch):
        # q = 30 is refused when the config is read: no replication runs
        monkeypatch.setattr(fewclusters.harness, "generate", None)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**self.CONFIG, "sweep": {"param": "q", "values": [6, 30]}}))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA_ERROR
        assert capsys.readouterr().err.startswith("error: sweep.values: at q = 30, all C(30, 15)")

    def test_inapplicable_method_exit_code(self, tmp_path, capsys):
        bad = {
            **self.CONFIG,
            "design": {**self.CONFIG["design"], "q1": 2, "q0": 4},
            "methods": ["crs"],
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(bad))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path)])
        assert code == EXIT_INAPPLICABLE

    def test_im_with_one_treated_cluster_refused_upfront(self, tmp_path, capsys):
        bad = {
            **self.CONFIG,
            "design": {**self.CONFIG["design"], "q1": 1, "q0": 3},
            "methods": ["placebo_unadjusted", "im"],
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(bad))
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        assert code == EXIT_INAPPLICABLE
        assert "im does not apply at (q1, q0) = (1, 3)" in capsys.readouterr().err
        assert not out.exists()  # refused before any replication ran

    def test_output_path_is_a_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.CONFIG))
        code = main(["simulate", "--config", str(config), "--out", str(config)])
        assert code == EXIT_DATA_ERROR
        assert "config.json" in capsys.readouterr().err

    def test_config_with_byte_order_mark(self, tmp_path, capsys):
        tables = []
        for name, mark in (("plain", ""), ("marked", "\ufeff")):
            config = tmp_path / f"{name}.json"
            config.write_text(mark + json.dumps(self.CONFIG), encoding="utf-8")
            out = tmp_path / name
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
            tables.append((out / "rejection_table.csv").read_bytes())
        assert tables[1] == tables[0]

    @pytest.mark.parametrize("output", ["rejection_table.csv", "rejection_beta.svg"])
    def test_failed_output_write_exit_code(self, tmp_path, capsys, output):
        # the sweep runs, then writing one of its files fails
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)
        code = main(["simulate", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA_ERROR
        assert err.startswith("error: ") and str(out / output) in err

    def test_unreadable_config(self, tmp_path):
        code = main(
            ["simulate", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]
        )
        assert code == EXIT_DATA_ERROR

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        # a cp1252 byte in a JSON string ended in a traceback and exit 1
        config = tmp_path / "config.json"
        text = json.dumps({**self.CONFIG, "note": "caf\xe9"}, ensure_ascii=False)
        config.write_bytes(text.encode("cp1252"))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_DATA_ERROR
        assert err.startswith("error: ") and str(config) in err
        assert not (tmp_path / "out").exists()

    def test_estimation_failure_exit_code(self, tmp_path):
        # replication data at beta = 1.5 separate the probit fit of cluster c02
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "design": {"kind": "probit", "q1": 3, "q0": 3},
            "sweep": {"param": "beta", "values": [1.5]},
            "methods": ["placebo"],
            "replications": 20,
            "master_seed": 201,
        }))
        proc = run_cli_process(
            "-m", "fewclusters", "simulate",
            "--config", str(config), "--out", str(tmp_path / "out"),
        )
        assert proc.returncode == EXIT_DATA_ERROR
        assert "'c02'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_threads_flag(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.CONFIG))
        out = tmp_path / "out"
        code = main(
            ["simulate", "--config", str(config), "--out", str(out), "--threads", "2"]
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_bad_threads_exit_code(self, tmp_path, capsys, threads):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.CONFIG))
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", threads])
        assert exc.value.code == EXIT_DATA_ERROR
        assert "argument --threads: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_cli_import_skips_scipy_stats():
    proc = run_cli_process(
        "-c", "import sys, fewclusters.cli; print('scipy.stats' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


LEAN_RUN = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = {}
import fewclusters
loaded["import fewclusters"] = scipy_modules()
import fewclusters.cli
loaded["import fewclusters.cli"] = scipy_modules()
for path, estimator in zip(sys.argv[1::2], sys.argv[2::2]):
    argv = ["test", "--input", path, "--method", "placebo", "--estimator", estimator]
    code = fewclusters.cli.main(argv)
    loaded[f"placebo {estimator} exit {code}"] = scipy_modules()
print(json.dumps(loaded))
"""


def test_placebo_run_loads_no_scipy(tmp_path):
    # scipy.special is imported only by the probit fit and the t tests
    linear = write_csv(tmp_path / "linear.csv")
    did = tmp_path / "did.csv"
    rows = [
        f"c{k},{int(k < 3)},{0.3 * k + 0.1 * i + (i >= 2) * (1 + 0.2 * k)},{int(i >= 2)}"
        for k in range(6)
        for i in range(4)
    ]
    did.write_text("\n".join(["cluster_id,treated,outcome,post", *rows]) + "\n")
    proc = run_cli_process("-c", LEAN_RUN, str(linear), "ols", str(did), "did")
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {
        "import fewclusters": [],
        "import fewclusters.cli": [],
        "placebo ols exit 0": [],
        "placebo did exit 0": [],
    }


@pytest.mark.parametrize(
    "argv", [["--method", "im"], ["--method", "bch"], ["--estimator", "probit"]]
)
def test_scipy_methods_in_a_fresh_process(tmp_path, capsys, argv):
    # these import scipy.special when they first compute; a fresh process,
    # where nothing has loaded it yet, must give the in-process report
    pattern = [0, 1, 1, 0, 1, 0, 1, 1, 0, 1]
    rows = [
        f"c{k},{int(k < 3)},{pattern[(i + k) % 10]}" for k in range(6) for i in range(7 + k)
    ]
    path = tmp_path / "binary.csv"
    path.write_text("\n".join(["cluster_id,treated,outcome", *rows]) + "\n")
    assert main(["test", "--input", str(path), *argv]) == EXIT_OK
    expected = capsys.readouterr().out
    proc = run_cli_process("-m", "fewclusters", "test", "--input", str(path), *argv)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == expected


class TestBundledConfigs:
    def test_all_configs_validate(self):
        from importlib import resources

        root = resources.files("fewclusters") / "configs"
        names = sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))
        assert len(names) == 10
        for name in names:
            raw = json.loads((root / name).read_text())
            spec = spec_from_dict(raw)
            assert spec.replications == 2000
            assert spec.alpha == 0.05
