"""Tests of the benchmark's own reference computations and checks.

Run from the root of the repository: ``python3 -m pytest perfbench -q``.
Each reference is held to hand-computed values on tiny inputs, and each
check must catch a deliberately wrong result.
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import reference  # noqa: E402

# q1 = 2 treated then 2 untreated. Observed split {0, 1}: 2.5 - 0.5 = 2.
# The six splits give unadjusted statistics 2, 0, 1, -1, 0, -2 and, with
# s2_obs = 0.5, adjusted statistics 2, 0, 0.5, -0.5, 0, -2. Only the
# observed split reaches 2, so p = 1/6 either way.
TINY = [3.0, 2.0, 0.0, 1.0]
ALPHA = 0.05


def placebo_result(p=1 / 6, reject=False, n=6):
    return SimpleNamespace(p_value=p, reject=reject, n_assignments=n)


def test_placebo_statistics_hand_values():
    combos = np.array([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    plain = reference.placebo_statistics(TINY, combos, 2, adjusted=False)
    adjusted = reference.placebo_statistics(TINY, combos, 2, adjusted=True)
    np.testing.assert_allclose(plain, [2, 0, 1, -1, 0, -2], atol=1e-15)
    np.testing.assert_allclose(adjusted, [2, 0, 0.5, -0.5, 0, -2], atol=1e-15)


@pytest.mark.parametrize("adjusted", [False, True])
def test_p_value_hand_value(adjusted):
    assert reference.placebo_p_bounds(TINY, 2, adjusted) == (1 / 6, 1 / 6, 6)


def test_exact_ties_widen_the_p_value():
    # observed 1 - 1 = 0; split {2, 3} ties at 0, splits {0, 2} and {0, 3} exceed it
    assert reference.placebo_p_bounds([2.0, 0.0, 1.0, 1.0], 2, False) == (3 / 6, 4 / 6, 6)


def test_p_value_chunks_add_up(monkeypatch):
    values = np.random.default_rng(3).standard_normal(10)
    whole = reference.placebo_p_bounds(values, 5, True)
    monkeypatch.setattr(reference, "CHUNK", 7)
    assert reference.placebo_p_bounds(values, 5, True) == whole


def test_welch_hand_value():
    # treated 1, 2, 3: mean 2, variance 1; untreated 0, 2: mean 1, variance 2
    assert reference.welch_t([1, 2, 3, 0, 2], 3) == pytest.approx(1 / math.sqrt(1 / 3 + 1))


def test_ols_intercept_hand_value():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    assert reference.ols_intercept(2.0 + 3.0 * x[:, 0], x) == pytest.approx(2.0)


def test_probit_moment_hand_values():
    y, x = np.array([1.0, 1.0, 0.0]), np.array([[1.0], [0.0], [0.0]])
    # Phi(0) = 1/2: residuals 1/2, 1/2, -1/2
    np.testing.assert_allclose(reference.probit_moment(y, x, [0.0, 0.0]), [1 / 6, 1 / 6])
    assert reference.check_probit_root("c", [0.0, 0.0], y, x)
    assert reference.check_probit_root("c", [0.0, 0.0], y[1:], np.zeros((2, 1))) == []


def test_reject_rule():
    assert reference.check_reject_rule("t", True, 0.04, ALPHA) == []
    assert reference.check_reject_rule("t", True, ALPHA, ALPHA) == []
    assert reference.check_reject_rule("t", False, 0.04, ALPHA)
    assert reference.check_reject_rule("t", True, 0.06, ALPHA)


def test_check_placebo_catches_wrong_results():
    assert reference.check_placebo("t", placebo_result(), TINY, 2, False, ALPHA) == []
    assert reference.check_placebo("t", placebo_result(reject=True), TINY, 2, False, ALPHA)
    assert reference.check_placebo("t", placebo_result(p=2 / 6), TINY, 2, False, ALPHA)
    assert reference.check_placebo("t", placebo_result(p=1 / 6 - 1e-9), TINY, 2, False, ALPHA)
    assert reference.check_placebo("t", placebo_result(n=5), TINY, 2, False, ALPHA)


def test_check_welch_and_intercept_catch_perturbation():
    values = [1.0, 2.0, 3.0, 0.0, 2.0]
    t = reference.welch_t(values, 3)
    assert reference.check_welch("t", SimpleNamespace(statistic=t), values, 3) == []
    assert reference.check_welch("t", SimpleNamespace(statistic=t * (1 + 1e-6)), values, 3)
    x = np.array([[0.0], [1.0], [2.0]])
    assert reference.check_intercept("c", 2.0, 2.0 + x[:, 0], x) == []
    assert reference.check_intercept("c", 2.0 + 1e-6, 2.0 + x[:, 0], x)


def write_tiny_csv(path):
    # untreated cluster first on purpose; y = intercept + 0.5 x exactly
    lines = ["cluster_id,treated,outcome,x1"]
    for cid, flag, a in (("u1", 0, 0.0), ("t1", 1, 3.0), ("t2", 1, 2.0), ("u2", 0, 1.0)):
        for x in (-1.0, 0.0, 2.0):
            lines.append(f"{cid},{flag},{a + 0.5 * x!r},{x!r}")
    path.write_text("\n".join(lines) + "\n")


def test_read_clusters_puts_treated_first(tmp_path):
    path = tmp_path / "d.csv"
    write_tiny_csv(path)
    ids, flags, ys, xs = reference.read_clusters(path)
    assert ids == ["t1", "t2", "u1", "u2"] and flags == [True, True, False, False]
    assert [reference.ols_intercept(y, x) for y, x in zip(ys, xs)] == pytest.approx(
        [3.0, 2.0, 0.0, 1.0]
    )


def test_check_cli_report(tmp_path):
    path = tmp_path / "d.csv"
    write_tiny_csv(path)
    good = {"statistic": 2.0, "p_value": 1 / 6, "reject": False, "n_assignments": 6}
    assert reference.check_cli_report(json.dumps(good), path, ALPHA) == []
    for wrong in ({"reject": True}, {"p_value": 2 / 6}, {"n_assignments": 5}, {"statistic": 2.1}):
        assert reference.check_cli_report(json.dumps({**good, **wrong}), path, ALPHA)
    not_strict = json.dumps({**good, "statistic": math.nan})
    assert "not strict JSON" in reference.check_cli_report(not_strict, path, ALPHA)[0]


def test_tracer_self_times():
    from replay import Tracer

    tracer = Tracer()
    tracer.spans = [
        ("rep", 0, 100, None, 0), ("a", 10, 40, 0, 0), ("b", 50, 60, 0, 0),
        ("rep", 100, 150, None, 1), ("a", 110, 130, 3, 1),
    ]
    assert tracer.self_times() == {"rep": 90, "a": 50, "b": 10}
    assert tracer.self_times(3) == {"rep": 30, "a": 20}


def test_check_replications_catches_a_flipped_decision():
    import dataclasses

    from fewclusters import ExperimentSpec, LinearDesign, run_experiment

    import run
    from replay import NullTracer

    spec = ExperimentSpec(
        design=LinearDesign(q1=3, q0=3, h=1, eta=(1.0,), size_range=(8, 10)),
        sweep_param="beta",
        sweep_values=(0.0, 2.0),
        methods=("placebo", "im", "crs", "wild_bootstrap", "bch_t"),
        replications=3,
        bootstrap_reps=19,
        master_seed=5,
    )
    table = run_experiment(spec)
    records = run.replay_pass(spec, NullTracer())
    assert run.check_replications(spec, records, table) == []

    flipped = records[-1].results["placebo"]
    records[-1].results["placebo"] = dataclasses.replace(flipped, reject=not flipped.reject)
    errors = run.check_replications(spec, records, table)
    assert any("reject=" in e for e in errors)
    assert any(e.startswith("table placebo") for e in errors)


def test_a_run_with_no_output_is_not_correct(monkeypatch):
    import fewclusters

    import run

    def fail(spec, workers=1):
        raise RuntimeError("always fails")

    monkeypatch.setattr(fewclusters, "run_experiment", fail)
    monkeypatch.setattr(run, "setup_seconds", lambda workload, seed: 1.0)
    spec = SimpleNamespace(sweep_values=(0.0,), replications=1)
    attempted, failures, errors, _, _ = run.end_to_end("mc-probit", 0, 0.0, spec)
    assert (attempted, len(failures)) == (1, 1)
    assert errors == ["no operation produced an output to check"]
