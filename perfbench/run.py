#!/usr/bin/env python3
"""Benchmark of the fewclusters package: three workloads, checked outputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc-linear --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each was chosen):

* ``mc-linear``   repeated ``run_experiment`` over the figure1d design, 1 worker;
  its table is also checked against a 2-worker run, untimed
* ``mc-probit``   repeated ``run_experiment`` over figure2d, beta <= 0.85, 1 worker
* ``placebo-cli`` ``fewclusters test --method placebo`` in a fresh process on a
  CSV with q1 = q0 = 10 clusters (184,756 assignments)

With ``--trace 0`` the run times operations for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it replays replications with a span
around every call into the package and reports the per-layer metrics. Either
way the outputs are checked against ``reference.py`` outside the timed
region. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Spans and results are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("mc-linear", "mc-probit", "placebo-cli")
ALPHA = 0.05
LINEAR_REPS = 16  # replications per beta value in one mc-linear operation
PROBIT_REPS = 1  # replications per beta value in one mc-probit operation
PROBIT_BETA_MAX = 0.85  # figure2d's grid above this aborts (see CHANGES.md)
PROBIT_SEED = 204  # figure2d's own master seed; see README.md
SETUP_PROBES = 3
COLD_PROBES = 3


# Timed operations run serially. On a 2-vCPU machine a 2-worker pool needs
# both vCPUs at once, so any other activity on the machine slows it: a
# background loop busy half the time on one vCPU made the 2-worker sweep
# 33 % slower and left the 1-worker sweep unchanged (README.md).
TIMED_WORKERS = 1


def pool_workers(workload: str) -> int:
    """Workers of the untimed pool run; mc-linear's table is checked against it."""
    return 2 if workload == "mc-linear" else 1


# ---------------------------------------------------------------- inputs


def shipped_spec(name: str):
    from importlib import resources

    from fewclusters import harness

    text = (resources.files("fewclusters") / "configs" / name).read_text()
    return harness.spec_from_dict(json.loads(text))


def cli_design():
    """The package's default linear design (figure 1's shape) at q1 = q0 = 10."""
    from fewclusters import LinearDesign

    return LinearDesign(q1=10, q0=10)


def build_spec(workload: str, seed: int):
    """The ExperimentSpec a Monte Carlo workload runs; None for placebo-cli."""
    if workload == "mc-linear":
        spec = shipped_spec("figure1d.json")
        return dataclasses.replace(spec, replications=LINEAR_REPS, master_seed=seed)
    if workload == "mc-probit":
        spec = shipped_spec("figure2d.json")
        values = tuple(v for v in spec.sweep_values if v <= PROBIT_BETA_MAX + 1e-12)
        return dataclasses.replace(
            spec, sweep_values=values, replications=PROBIT_REPS, master_seed=PROBIT_SEED
        )
    return None


def write_csv(dataset, path: Path) -> None:
    """Write a dataset in the CLI's input format: cluster_id, treated, outcome, x1..xd."""
    d = dataset.clusters[0].covariate_dim
    lines = [",".join(["cluster_id", "treated", "outcome"] + [f"x{j + 1}" for j in range(d)])]
    for c in dataset:
        flag = "1" if c.treated else "0"
        for y, row in zip(c.outcomes.tolist(), c.covariate_matrix.tolist()):
            lines.append(",".join([c.id, flag, repr(y)] + [repr(v) for v in row]))
    path.write_text("\n".join(lines) + "\n")


def csv_path(seed: int) -> Path:
    return OUT / f"placebo-cli-{seed}.csv"


def setup(workload: str, seed: int):
    """Bring a workload to its first timed operation; returns its spec.

    Monte Carlo workloads warm every code path with one replication, since
    their operations run warm. placebo-cli writes its CSV: one dataset of
    ``cli_design``, generated by the package's own DGP from ``seed``. Its
    operations start cold by design, so nothing is warmed.
    """
    from fewclusters import gen_linear, run_experiment

    spec = build_spec(workload, seed)
    if workload == "placebo-cli":
        OUT.mkdir(exist_ok=True)
        write_csv(gen_linear(cli_design(), seed), csv_path(seed))
    else:
        warm = dataclasses.replace(spec, sweep_values=spec.sweep_values[:1], replications=1)
        run_experiment(warm, workers=TIMED_WORKERS)
    return spec


# ---------------------------------------------------------------- helpers


def run_child(argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """Run a child to completion; its result and wall seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    return proc, time.perf_counter() - t0


def cli_argv(seed: int) -> list[str]:
    return [sys.executable, "-m", "fewclusters", "test", "--input", str(csv_path(seed)),
            "--method", "placebo", "--alpha", str(ALPHA)]


def environment(workload: str) -> dict:
    """Library versions, BLAS and worker count behind a run's numbers."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "cpus": os.cpu_count(),
        "workers": TIMED_WORKERS,
        "pool_workers": pool_workers(workload),
    }


def median(values) -> float:
    return float(statistics.median(values))


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------- checks


def check_replications(spec, records, table) -> list[str]:
    """Check replayed replications, and that ``table`` tallies their decisions."""
    from collections import Counter

    import numpy as np

    from fewclusters import LinearDesign, estimate_all

    import reference

    linear = isinstance(spec.design, LinearDesign)
    errors: list[str] = []
    counts: Counter = Counter()
    for rec in records:
        label = f"beta={spec.sweep_values[rec.sweep_index]} rep={rec.rep}"
        ds = rec.dataset
        q1, q0 = ds.layout.q1, ds.layout.q0
        values = np.array([f.theta for f in rec.fits])
        for c, f in zip(ds, rec.fits):
            if linear:
                errors += reference.check_intercept(
                    f"{label} {c.id}", f.theta, c.outcomes, c.covariate_matrix
                )
            else:
                beta = np.concatenate([[f.theta], f.nuisance])
                errors += reference.check_probit_root(
                    f"{label} {c.id}", beta, c.outcomes, c.covariate_matrix
                )
        batch = estimate_all(ds, "ols_intercept" if linear else "probit").values
        if not np.array_equal(batch, values):
            errors.append(f"{label}: estimate_all differs from the per-cluster fits")
        for method, res in rec.results.items():
            counts[method, rec.sweep_index] += int(res.reject)
            where = f"{label} {method}"
            if method == "placebo":
                errors += reference.check_placebo(where, res, values, q1, q1 != q0, spec.alpha)
            elif method == "im":
                errors += reference.check_welch(where, res, values, q1)
                errors += reference.check_reject_rule(where, res.reject, res.p_value, spec.alpha)
            elif method in ("crs", "wild_bootstrap", "bch_t"):
                errors += reference.check_reject_rule(where, res.reject, res.p_value, spec.alpha)
    expected_rows = len(spec.methods) * len(spec.sweep_values)
    if len(table.rows) != expected_rows:
        errors.append(f"table has {len(table.rows)} rows, expected {expected_rows}")
    for row in table.rows:
        index = spec.sweep_values.index(row.sweep_value)
        tally = counts[row.method, index]
        if row.reps != spec.replications or row.reject_rate * row.reps != tally:
            errors.append(
                f"table {row.method} beta={row.sweep_value}: rate {row.reject_rate!r} "
                f"x {row.reps} reps, replayed rejections {tally}"
            )
    return errors


def replay_pass(spec, tracer):
    from replay import replay

    records = []
    for sweep_index in range(len(spec.sweep_values)):
        for rep in range(spec.replications):
            tracer.rep = (sweep_index, rep)
            with tracer.span("replication"):
                records.append(replay(spec, sweep_index, rep, tracer))
    return records


# ---------------------------------------------------------------- timed runs


def timed_loop(op, seconds: float):
    """Run whole operations until ``seconds`` have passed; per-op times and outputs."""
    times, outputs = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            outputs.append(op())
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(exc)
        times.append(time.perf_counter() - t0)
    return times, outputs, time.perf_counter() - start


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that only run ``setup``."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        proc, elapsed = run_child(argv)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(elapsed)
    return median(times)


def end_to_end(workload: str, seed: int, seconds: float, spec):
    from fewclusters import run_experiment

    import reference
    from replay import NullTracer

    errors: list[str] = []
    if workload == "placebo-cli":
        reps_per_op = 1

        def op():
            proc, _ = run_child(cli_argv(seed))
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return proc.stdout.strip()

        times, outputs, elapsed = timed_loop(op, seconds)
        # The CLI processes are the only children reaped so far.
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        good = [o for o in outputs if isinstance(o, str)]
        for text in sorted(set(good)):
            errors += reference.check_cli_report(text, csv_path(seed), ALPHA)
    else:
        pool = pool_workers(workload)
        reps_per_op = len(spec.sweep_values) * spec.replications
        times, outputs, elapsed = timed_loop(
            lambda: run_experiment(spec, workers=TIMED_WORKERS), seconds
        )
        peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        good = [o for o in outputs if not isinstance(o, Exception)]
        if good:
            if any(t != good[0] for t in good[1:]):
                errors.append("repeated operations gave different rejection tables")
            errors += check_replications(spec, replay_pass(spec, NullTracer()), good[0])
            if pool > 1 and run_experiment(spec, workers=pool) != good[0]:
                errors.append(f"{pool}-worker table differs from the 1-worker table")
    if not good:
        errors.append("no operation produced an output to check")
    failures = [str(o) for o in outputs if isinstance(o, Exception)]
    ok_times = [t for t, o in zip(times, outputs) if not isinstance(o, Exception)]
    metrics = {
        "op_ms_p50": metric(median(ok_times or times) * 1e3, "ms"),
        "reps_per_s": metric(reps_per_op * len(ok_times) / elapsed, "1/s"),
        "peak_rss_mb": metric(peak / 1024.0, "MB"),
        "setup_s": metric(setup_seconds(workload, seed), "s"),
    }
    return len(outputs), failures, errors, metrics, {"op_seconds": times}


# ---------------------------------------------------------------- traced runs

# Per-layer metrics and units. A layer that a workload's operation never
# calls reports 0: it is not on that workload's path.
PER_LAYER = {
    "dgp.gen_ms": "ms",
    "model.build_ms": "ms",
    "model.rows": "count",
    "estimators.fit_ms": "ms",
    "estimators.newton_iters": "count",
    "engine.test_ms": "ms",
    "engine.cold_test_ms": "ms",
    "engine.assignments": "count",
    "comparators.im_ms": "ms",
    "comparators.crs_ms": "ms",
    "comparators.wildboot_ms": "ms",
    "comparators.bch_ms": "ms",
    "harness.self_ms": "ms",
    "harness.speedup_2w": "ratio",
    "cli.import_ms": "ms",
    "cli.read_csv_ms": "ms",
}


def layer_metrics(values: dict) -> dict:
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    return {name: metric(values.get(name, 0.0), unit) for name, unit in PER_LAYER.items()}


def span_ns() -> float:
    """Cost of one empty span, to state the tracer's overhead."""
    from replay import Tracer

    probe = Tracer()
    t0 = time.perf_counter_ns()
    for _ in range(10_000):
        with probe.span("x"):
            pass
    return (time.perf_counter_ns() - t0) / 10_000


def trace_details(workload: str, seed: int, tracer, passes: int) -> dict:
    """The spans, and their overhead as a share of the traced work per pass."""
    cost = span_ns()
    pass_ns = sum(tracer.self_times().values()) / passes
    return {
        "workload": workload,
        "seed": seed,
        "passes": passes,
        "span_ns": cost,
        "overhead_pct": cost * len(tracer.spans) / passes / pass_ns * 100,
        "spans": tracer.to_json(),
    }


def traced_mc(workload: str, seed: int, seconds: float, spec):
    """Per-layer metrics of a Monte Carlo workload.

    Cycles of an untraced 1-worker ``run_experiment`` (and a 2-worker one
    on mc-linear, which checks its pool) and a traced replay of the same
    replications, until the run's time is spent. Pairing each run with the
    replay next to it keeps machine drift out of harness.self_ms.
    """
    from fewclusters import run_experiment

    from replay import ON_PATH, NullTracer, Tracer

    start = time.perf_counter()
    # An untraced pass warms the caches, so the timings below all run warm,
    # and its records are the ones checked.
    first = replay_pass(spec, NullTracer())
    reps = len(first)
    worker_counts = (1, 2) if pool_workers(workload) > 1 else (1,)
    run_s: dict[int, list[float]] = {w: [] for w in worker_counts}
    tracer = Tracer()
    self_ms, tables = [], []
    while not self_ms or time.perf_counter() - start < seconds:
        for workers in worker_counts:
            t0 = time.perf_counter()
            tables.append(run_experiment(spec, workers=workers))
            run_s[workers].append(time.perf_counter() - t0)
        mark = len(tracer.spans)
        replay_pass(spec, tracer)
        cycle_ns = tracer.self_times(mark)
        on_path_ms = sum(cycle_ns.get(name, 0) for name in ON_PATH) / reps / 1e6
        self_ms.append(run_s[1][-1] / reps * 1e3 - on_path_ms)
    errors: list[str] = []
    if any(t != tables[0] for t in tables[1:]):
        errors.append("repeated and 1-/2-worker runs gave different tables")
    errors += check_replications(spec, first, tables[0])

    n_reps = len(self_ms) * reps
    self_ns = tracer.self_times()
    values = {
        f"{name}_ms": self_ns.get(name, 0) / n_reps / 1e6 for name in ON_PATH + ("model.build",)
    }
    values.update({
        "model.rows": sum(rec.dataset.n for rec in first),
        "estimators.newton_iters": sum(f.iterations for rec in first for f in rec.fits),
        "engine.assignments": sum(rec.results["placebo"].n_assignments for rec in first),
        "harness.self_ms": median(self_ms),
    })
    if 2 in run_s:
        values["harness.speedup_2w"] = median(a / b for a, b in zip(run_s[1], run_s[2]))
    attempted = len(tables) + reps + n_reps
    return attempted, [], errors, layer_metrics(values), trace_details(
        workload, seed, tracer, len(self_ms)
    )


def cold_probe(values, q1: int) -> dict:
    """cli.import_ms and engine.cold_test_ms from one fresh interpreter."""
    proc, _ = run_child([sys.executable, str(HERE / "cold_probe.py"),
                         json.dumps(list(values)), str(q1)])
    if proc.returncode != 0:
        raise RuntimeError(f"cold probe failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout)


def traced_cli(workload: str, seed: int, seconds: float, spec):
    """Per-layer metrics of placebo-cli, along the CLI's own path.

    Each cycle runs one fresh-interpreter probe, which times
    ``import fewclusters.cli`` and the first placebo test at the CSV's
    layout, and one traced in-process pass over what ``fewclusters test``
    does before that test: read the CSV, build the clusters, fit each
    cluster's intercept.
    """
    from fewclusters import estimate_all, estimators
    from fewclusters.cli import read_csv_dataset
    from fewclusters.model import Cluster, validate_dataset

    import reference
    from replay import NullTracer, Tracer

    path = csv_path(seed)
    _, flags, ys, xs = reference.read_clusters(path)
    q1 = sum(flags)
    ref_values = [reference.ols_intercept(y, x) for y, x in zip(ys, xs)]

    def cli_pass(tracer):
        with tracer.span("cli.read_csv"):
            dataset = read_csv_dataset(path)
        arrays = [(c.id, c.treated, c.outcomes, c.covariate_matrix) for c in dataset]
        with tracer.span("model.build"):
            validate_dataset([Cluster.from_arrays(i, t, y, x) for i, t, y, x in arrays])
        fits = []
        for cluster in dataset:
            with tracer.span("estimators.fit"):
                fits.append(estimators.ols_intercept(cluster))
        return dataset, fits

    start = time.perf_counter()
    # An untraced pass warms the in-process path, and its outputs are checked.
    dataset, fits = cli_pass(NullTracer())
    tracer = Tracer()
    cold, passes = [], 0
    while len(cold) < COLD_PROBES or time.perf_counter() - start < seconds:
        cold.append(cold_probe(ref_values, q1))
        cli_pass(tracer)
        passes += 1

    errors: list[str] = []
    for c, f, y, x in zip(dataset, fits, ys, xs):
        errors += reference.check_intercept(c.id, f.theta, y, x)
    thetas = [f.theta for f in fits]
    if estimate_all(dataset, "ols_intercept").values.tolist() != thetas:
        errors.append("estimate_all differs from the per-cluster fits")
    errors += reference.check_placebo(
        "cold probe", SimpleNamespace(**cold[0]), ref_values, q1, True, ALPHA
    )
    if any((c["p_value"], c["reject"]) != (cold[0]["p_value"], cold[0]["reject"]) for c in cold):
        errors.append("cold probes disagree")

    self_ns = tracer.self_times()
    values = {
        f"{name}_ms": self_ns.get(name, 0) / passes / 1e6
        for name in ("cli.read_csv", "model.build", "estimators.fit")
    }
    values.update({
        "model.rows": dataset.n,
        "engine.cold_test_ms": median(c["cold_test_ms"] for c in cold),
        "engine.assignments": cold[0]["n_assignments"],
        "cli.import_ms": median(c["import_ms"] for c in cold),
    })
    attempted = 1 + len(cold) + passes
    return attempted, [], errors, layer_metrics(values), trace_details(
        workload, seed, tracer, passes
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "fewclusters" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'fewclusters'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Children (CLI runs, probes, pool workers) import the package from here too.
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    OUT.mkdir(exist_ok=True)

    spec = setup(args.workload, args.seed)
    if args.setup_only:
        return 0
    if not args.trace:
        run = end_to_end
    else:
        run = traced_cli if args.workload == "placebo-cli" else traced_mc
    attempted, failures, errors, metrics, details = run(
        args.workload, args.seed, args.seconds, spec
    )

    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    env = environment(args.workload)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"attempted={attempted} failed={len(failures)} correct={not errors}")
    print("  " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']:>14.4f} {m['unit']}")
    if args.trace:
        print(f"  tracing overhead: {details['span_ns'] / 1e3:.2f} us per span, "
              f"{details['overhead_pct']:.2f}% of the traced work")
        (OUT / f"trace-{tag}.json").write_text(json.dumps(details))
    for line in (failures + errors)[:20]:
        print(f"  FAIL {line}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = {**result, "environment": env, "failures": failures, "errors": errors,
              "op_seconds": details.get("op_seconds")}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
