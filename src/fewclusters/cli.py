"""Command-line interface: run tests on CSV data or run simulation sweeps.

``fewclusters test`` reads clustered data from CSV, fits per-cluster
statistics, runs the chosen inference method, and prints a JSON report.
``fewclusters simulate`` runs a Monte Carlo sweep from a JSON config and
writes a rejection table (CSV) plus a line chart (SVG).

Exit codes: 0 clean run, 2 data error, 3 method inapplicable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from . import comparators, engine, estimators, harness
from .model import (
    Cluster,
    ClusterDataset,
    DataError,
    FewClustersError,
    MethodInapplicable,
    TestConfig,
    TestResult,
    validate_dataset,
)

EXIT_OK = 0
EXIT_DATA_ERROR = 2
EXIT_INAPPLICABLE = 3

_BASE_COLUMNS = ("cluster_id", "treated", "outcome", "post")


def _parse_binary(raw: str, column: str, row_num: int) -> bool:
    value = raw.strip()
    if value not in ("0", "1"):
        raise DataError(f"row {row_num}: column {column!r} must be 0 or 1, got {raw!r}")
    return value == "1"


def read_csv_dataset(path) -> ClusterDataset:
    """Read clusters from a CSV with columns cluster_id, treated, outcome,
    optional post, and optional covariate columns x1..xd."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty CSV")
        fields = [f.strip() for f in reader.fieldnames]
        for required in ("cluster_id", "treated", "outcome"):
            if required not in fields:
                raise DataError(f"{path}: missing required column {required!r}")
        covariate_cols = [f for f in fields if f not in _BASE_COLUMNS]
        expected = [f"x{i}" for i in range(1, len(covariate_cols) + 1)]
        if sorted(covariate_cols) != sorted(expected):
            unknown = sorted(set(covariate_cols) - set(expected))
            raise DataError(
                f"{path}: unknown columns {unknown}; covariates must be named x1..xd"
            )
        covariate_cols = expected
        has_post = "post" in fields

        # cluster id -> (treated, outcomes, covariate rows, post flags)
        columns: dict[str, tuple[bool, list, list, list]] = {}
        for row_num, row in enumerate(reader, start=2):
            try:
                cid = row["cluster_id"].strip()
                treated = _parse_binary(row["treated"], "treated", row_num)
                outcome = float(row["outcome"])
                covs = tuple(float(row[c]) for c in covariate_cols)
                post = (
                    _parse_binary(row["post"], "post", row_num) if has_post else None
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{path}: malformed row {row_num}: {exc}") from exc
            if cid not in columns:
                columns[cid] = (treated, [], [], [])
            flag, outcomes, covariates, posts = columns[cid]
            if flag != treated:
                raise DataError(
                    f"{path}: cluster {cid!r} has inconsistent treated flags"
                )
            outcomes.append(outcome)
            covariates.append(covs)
            posts.append(post)
    if not columns:
        raise DataError(f"{path}: no data rows")
    return validate_dataset(
        [
            Cluster.from_arrays(cid, flag, y, x, post if has_post else None)
            for cid, (flag, y, x, post) in columns.items()
        ]
    )


_ESTIMATORS = {"ols": "ols_intercept", "did": "did_slope", "probit": "probit"}
_SIDES = {"greater": "greater", "less": "less", "two": "two_sided"}


def _run_test_method(args, dataset: ClusterDataset) -> TestResult:
    estimator = _ESTIMATORS[args.estimator]
    side = _SIDES[args.side]
    if args.method == "placebo":
        cfg = TestConfig(
            alpha=args.alpha,
            side=side,
            adjustment="unadjusted" if args.unadjusted else "adjusted",
            max_assignments=args.max_perms,
            seed=args.seed,
        )
        x = estimators.estimate_all(dataset, estimator)
        return engine.run_placebo_test(x, cfg)
    if args.method == "im":
        x = estimators.estimate_all(dataset, estimator)
        return comparators.im_t_test(x, args.alpha, side)
    if args.method == "crs":
        if args.estimator == "did":
            raise MethodInapplicable("crs supports the ols and probit estimators only")
        pairs = comparators.pair_clusters(dataset, args.pairing, args.seed)
        if args.estimator == "probit":
            betas = comparators.pair_beta_probit(dataset, pairs)
        else:
            betas = comparators.pair_beta_ols(dataset, pairs)
        return comparators.crs_sign_test(betas, args.alpha, seed=args.seed)
    if args.method == "wildboot":
        if args.estimator != "ols":
            raise MethodInapplicable(
                "the wild cluster bootstrap supports the ols estimator only"
            )
        return comparators.wild_cluster_bootstrap_test(
            dataset, args.alpha, side, seed=args.seed
        )
    if args.method == "bch":
        if args.estimator != "ols":
            raise MethodInapplicable("the t(q-1) test supports the ols estimator only")
        fit = comparators.pooled_ols_crve(dataset)
        return comparators.bch_t_test(fit, args.alpha, side)
    raise FewClustersError(f"unknown method {args.method!r}")


def cmd_test(args) -> int:
    try:
        dataset = read_csv_dataset(args.input)
        result = _run_test_method(args, dataset)
    except MethodInapplicable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (FewClustersError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    report = {
        "method": args.method,
        "estimator": args.estimator,
        "statistic": _json_number(result.statistic),
        "critical_value": _json_number(result.critical_value),
        "p_value": _json_number(result.p_value),
        "reject": result.reject,
        "n_assignments": result.n_assignments,
        "warnings": list(result.warnings),
    }
    print(json.dumps(report, allow_nan=False))
    return EXIT_OK


def _json_number(value: float):
    """The value, or None (JSON null) when it is infinite or nan, which
    strict JSON cannot write; degenerate splits give infinite statistics."""
    return value if math.isfinite(value) else None


def cmd_simulate(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    try:
        spec = harness.spec_from_dict(raw)
        harness._check_applicability(spec)
    except MethodInapplicable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except FewClustersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        table = harness.run_experiment(spec, workers=args.threads)
    except FewClustersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    csv_path = out_dir / "rejection_table.csv"
    svg_path = out_dir / f"rejection_{spec.sweep_param}.svg"
    harness.emit_csv(table, csv_path)
    harness.emit_svg(table, svg_path, alpha=spec.alpha)
    print(
        f"wrote {csv_path} and {svg_path}: {len(spec.methods)} methods x "
        f"{len(spec.sweep_values)} sweep values x {spec.replications} replications"
    )
    return EXIT_OK


def _default_threads() -> int:
    try:
        return max(1, int(os.environ.get("FEWCLUSTERS_THREADS", "1")))
    except ValueError:
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewclusters",
        description="Placebo inference on treatment effects with few clusters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run an inference method on CSV data")
    p_test.add_argument("--input", required=True, help="path to the input CSV")
    p_test.add_argument(
        "--method",
        default="placebo",
        choices=["placebo", "im", "crs", "wildboot", "bch"],
    )
    p_test.add_argument(
        "--estimator", default="ols", choices=["ols", "did", "probit"]
    )
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--side", default="greater", choices=["greater", "less", "two"])
    p_test.add_argument(
        "--unadjusted",
        action="store_true",
        help="use unadjusted placebo statistics (intended for q1 == q0)",
    )
    p_test.add_argument(
        "--max-perms",
        type=int,
        default=None,
        metavar="M",
        help="subsample M placebo assignments instead of full enumeration",
    )
    p_test.add_argument(
        "--pairing", default="random", choices=["random", "by_size"],
        help="cluster matching strategy for the crs method",
    )
    p_test.add_argument("--seed", type=int, default=0)
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo sweep from a config")
    p_sim.add_argument("--config", required=True, help="path to a JSON experiment spec")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument(
        "--threads",
        type=int,
        default=_default_threads(),
        help="worker processes (default: FEWCLUSTERS_THREADS or 1)",
    )
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
