"""Acceptance suite: one test per promised behavior, with pinned tolerances.

Each test prints a single PASS/FAIL line with the measured quantities, so a
plain ``pytest -s tests/test_acceptance.py`` doubles as a report.
"""

import os
import time

import numpy as np

from fewclusters.dgp import LinearDesign, ProbitDesign, circular_ma
from fewclusters.engine import placebo_distribution, run_placebo_test
from fewclusters.harness import ExperimentSpec, emit_csv, run_experiment
from fewclusters.model import ClusterLayout, EstimateVector, TestConfig
from fewclusters.probit import probit_moment, probit_moment_jacobian

ALPHA = 0.05
BETA_GRID = tuple(round(0.15 * i, 2) for i in range(11))  # 0.0 .. 1.5


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def linear_spec(q1, q0, methods, values=(0.0,), reps=2000, seed=101, param="beta"):
    return ExperimentSpec(
        design=LinearDesign(q1=q1, q0=q0, h=10, beta=0.0),
        sweep_param=param,
        sweep_values=tuple(float(v) for v in values),
        methods=tuple(methods),
        replications=reps,
        alpha=ALPHA,
        master_seed=seed,
    )


def test_01_exact_combinatorics():
    def count(q1, q0):
        x = EstimateVector(np.zeros(q1 + q0), ClusterLayout(q1, q0))
        return placebo_distribution(x, TestConfig(adjustment="unadjusted")).size

    n33, n66 = count(3, 3), count(6, 6)
    _report(1, "exact combinatorics", n33 == 20 and n66 == 924,
            f"|Pi| = {n33} at (3,3), {n66} at (6,6); expected 20 and 924")


def test_02_p_value_decision_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        q1 = int(rng.integers(3, 6))
        layout = ClusterLayout(q1, q1)
        x = EstimateVector(rng.normal(size=layout.q), layout)
        alpha = float(rng.uniform(0.01, 0.5))
        for adjustment in ("adjusted", "unadjusted"):
            res = run_placebo_test(x, TestConfig(alpha=alpha, adjustment=adjustment))
            violations += res.reject != (res.p_value <= alpha)
    elapsed = time.perf_counter() - start
    _report(2, "reject iff p <= alpha", violations == 0 and elapsed < 10,
            f"{violations} violations over 2000 runs in {elapsed:.1f}s (budget 10s)")


def test_03_exchangeability_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    layout = ClusterLayout(3, 3)
    cfg = TestConfig(alpha=ALPHA, adjustment="unadjusted")
    draws = rng.standard_normal((100_000, 6))
    rejections = sum(
        run_placebo_test(EstimateVector(row, layout), cfg).reject for row in draws
    )
    rate = rejections / 100_000
    elapsed = time.perf_counter() - start
    ok = 0.048 <= rate <= 0.052 and elapsed < 30
    _report(3, "i.i.d. rejection exactly 1/20", ok,
            f"rate {rate:.4f} in [0.048, 0.052], {elapsed:.1f}s (budget 30s)")


def test_04_null_rejection_balanced():
    start = time.perf_counter()
    spec = linear_spec(3, 3, ("placebo", "im", "wild_bootstrap", "bch_t"), seed=101)
    table = run_experiment(spec, workers=4)
    rates = {m: table.rate(m, 0.0) for m in spec.methods}
    elapsed = time.perf_counter() - start
    bands = {
        "placebo": (0.035, 0.070),
        "im": (0.005, 0.040),
        "wild_bootstrap": (0.065, 0.105),
        "bch_t": (0.125, 0.195),
    }
    ok = elapsed < 300 and all(
        bands[m][0] <= rates[m] <= bands[m][1] for m in bands
    )
    detail = ", ".join(f"{m} {rates[m]:.4f} in {bands[m]}" for m in bands)
    _report(4, "balanced null rejection rates", ok, f"{detail}; {elapsed:.1f}s")


def test_05_unbalanced_asymmetry():
    spec_26 = linear_spec(2, 6, ("placebo",), seed=102)
    rate_26 = run_experiment(spec_26, workers=4).rate("placebo", 0.0)
    spec_62 = linear_spec(6, 2, ("placebo", "wild_bootstrap"), seed=103)
    table_62 = run_experiment(spec_62, workers=4)
    rate_62 = table_62.rate("placebo", 0.0)
    rate_wb = table_62.rate("wild_bootstrap", 0.0)
    ok = rate_26 <= 0.05 and 0.035 <= rate_62 <= 0.070 and rate_wb >= 0.07
    _report(5, "unbalanced-group size control", ok,
            f"(2,6) placebo {rate_26:.4f} <= 0.05; (6,2) placebo {rate_62:.4f} in "
            f"[0.035, 0.070], wild bootstrap {rate_wb:.4f} >= 0.07")


def test_06_zero_power_small_designs():
    spec = ExperimentSpec(
        design=LinearDesign(q1=2, q0=2, h=10),
        sweep_param="beta",
        sweep_values=(0.0, 0.75, 1.5),
        methods=("placebo",),
        replications=500,
        alpha=ALPHA,
        master_seed=106,
    )
    table = run_experiment(spec, workers=4)
    placebo_rates = [table.rate("placebo", v) for v in (0.0, 0.75, 1.5)]

    crs_spec = linear_spec(3, 3, ("crs",), reps=500, seed=107)
    crs_rate = run_experiment(crs_spec, workers=4).rate("crs", 0.0)

    ok = all(r == 0.0 for r in placebo_rates) and crs_rate == 0.0
    _report(6, "zero power below 1/alpha", ok,
            f"placebo rates at q1=q0=2: {placebo_rates} (all must be 0.0); "
            f"crs nonrandomized rate at q1=q0=3: {crs_rate} (must be 0.0)")


def test_07_power_curve():
    spec = linear_spec(3, 3, ("placebo",), values=BETA_GRID, seed=101)
    table = run_experiment(spec, workers=4)
    rates = [table.rate("placebo", v) for v in BETA_GRID]
    gain = rates[-1] - rates[0]
    max_drop = max(a - b for a, b in zip(rates, rates[1:]))
    ok = gain >= 0.30 and max_drop <= 0.04
    _report(7, "power rises along the beta grid", ok,
            f"rate(beta=1.5) - rate(beta=0) = {gain:.4f} >= 0.30; "
            f"largest adjacent drop {max_drop:.4f} <= 0.04; curve {rates}")


def test_08_probit_pipeline():
    start = time.perf_counter()
    spec = ExperimentSpec(
        design=ProbitDesign(q1=3, q0=3, h=10),
        sweep_param="beta",
        sweep_values=(0.0,),
        methods=("placebo",),
        replications=500,
        alpha=ALPHA,
        master_seed=201,
    )
    rate = run_experiment(spec, workers=4).rate("placebo", 0.0)

    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(30, 80))
        design = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y01 = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(float)
        beta = rng.normal(scale=0.5, size=3)
        jac = probit_moment_jacobian(design, y01, beta)
        step = 1e-5
        fd = np.empty_like(jac)
        for j in range(3):
            e = np.zeros(3)
            e[j] = step
            fd[:, j] = (
                probit_moment(design, y01, beta + e)
                - probit_moment(design, y01, beta - e)
            ) / (2 * step)
        scale = max(float(np.abs(jac).max()), 1e-12)
        worst = max(worst, float(np.abs(jac - fd).max()) / scale)
    elapsed = time.perf_counter() - start
    ok = 0.02 <= rate <= 0.08 and worst <= 1e-6 and elapsed < 600
    _report(8, "probit null level and exact Jacobian", ok,
            f"rejection {rate:.4f} in [0.02, 0.08]; worst Jacobian relative "
            f"error {worst:.2e} <= 1e-06; {elapsed:.1f}s (budget 600s)")


def test_09_circular_ma_autocovariance():
    start = time.perf_counter()
    m, reps = 25, 100_000
    rng = np.random.default_rng(9)
    worst = 0.0
    for h in (0, 5, 10):
        x = circular_ma(rng.standard_normal((reps, m)), h)
        xc = x - x.mean(axis=0)
        cov = xc.T @ xc / reps
        for lag in range(m):
            # average the sample covariance over all column pairs at this
            # circular lag; the analytic value counts shared noise sources
            emp = float(np.mean([cov[i, (i + lag) % m] for i in range(m)]))
            overlap = max(0, h + 1 - lag) + max(0, h + 1 - (m - lag)) if lag else h + 1
            analytic = overlap / (h + 1) ** 2
            scale = 1.0 / (h + 1)  # lag-0 variance sets the comparison scale
            worst = max(worst, abs(emp - analytic) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.05 and elapsed < 60
    _report(9, "circular moving-average covariance law", ok,
            f"worst deviation {worst:.4f} of the lag-0 variance (<= 0.05); "
            f"{elapsed:.1f}s (budget 60s)")


def test_10_thread_count_determinism(monkeypatch, tmp_path):
    # run_experiment caps its workers at the CPU count: pinned, so that all
    # eight run on any machine
    workers = 8
    monkeypatch.setattr(os, "cpu_count", lambda: workers)
    methods = ("placebo", "im", "crs", "crs_randomized", "wild_bootstrap", "bch_t")
    spec = ExperimentSpec(
        design=LinearDesign(q1=3, q0=3, h=5),
        sweep_param="beta",
        sweep_values=(0.0, 1.0),
        methods=(*methods, "oracle"),
        replications=100,
        alpha=ALPHA,
        master_seed=55,
    )
    # figure1f's design at h = 13 and 14: a 15-row cluster smoothed over 15
    # draws has covariates equal to their mean, so its fit fails
    failing = linear_spec(6, 6, methods, values=(13, 14), reps=64, seed=106, param="h")
    texts = []
    for s in (spec, failing):
        for n in (1, workers):
            emit_csv(run_experiment(s, workers=n), tmp_path / f"{n}.csv")
        texts.append([(tmp_path / f"{n}.csv").read_bytes() for n in (1, workers)])
    failures = sum(int(line.rsplit(b",", 1)[1]) for line in texts[1][0].splitlines()[1:])
    ok = all(serial == threaded for serial, threaded in texts) and failures > 0
    _report(10, "worker-count determinism", ok,
            f"1-worker and {workers}-worker CSVs {'identical' if ok else 'differ'} "
            f"(two sweeps, the second with {failures} failed method runs, compared bytewise)")
