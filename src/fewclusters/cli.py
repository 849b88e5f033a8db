"""Command-line interface: run tests on CSV data or run simulation sweeps.

``fewclusters test`` reads clustered data from CSV, fits per-cluster
statistics, runs the chosen inference method, and prints a JSON report.
``fewclusters simulate`` runs a Monte Carlo sweep from a JSON config and
writes a rejection table (CSV) plus a line chart (SVG).

Exit codes: 0 clean run, 2 data error or bad flag, 3 method inapplicable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from .methods import TABLE, Inputs, Setting
from .model import (
    ClusterDataset,
    DataError,
    FewClustersError,
    MethodInapplicable,
    stack_clusters,
    unwrap,
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
    """Read clusters from a UTF-8 CSV (a byte-order mark is skipped) with columns
    cluster_id, treated, outcome, optional post and covariates x1..xd."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return _read_rows(path, csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path}: malformed CSV: {exc}") from None


def _read_rows(path, reader) -> ClusterDataset:
    """The dataset of a CSV's rows, grouped by cluster id. Cells are read by
    their position under the header's stripped names; blank lines are no
    rows, and the first row after the header is row 2."""
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty CSV")
    fields = [f.strip() for f in header]
    duplicates = sorted({f for f in fields if fields.count(f) > 1})
    if duplicates:
        raise DataError(f"{path}: duplicate columns {duplicates}")
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
    has_post = "post" in fields
    at = fields.index
    id_at, treated_at, outcome_at = at("cluster_id"), at("treated"), at("outcome")
    covariates_at = [at(c) for c in expected]
    post_at = at("post") if has_post else None

    # cluster id -> (treated, outcomes, covariate rows, post flags)
    columns: dict[str, tuple[bool, list, list, list]] = {}
    row_num = 1
    for row in reader:
        if not row:
            continue
        row_num += 1
        if len(row) != len(fields):
            raise DataError(
                f"{path}: malformed row {row_num}: "
                f"{len(row)} cells, the header has {len(fields)}"
            )
        try:
            cid = row[id_at].strip()
            treated = _parse_binary(row[treated_at], "treated", row_num)
            outcome = float(row[outcome_at])
            covs = tuple([float(row[i]) for i in covariates_at])
            post = _parse_binary(row[post_at], "post", row_num) if has_post else None
        except ValueError as exc:
            raise DataError(f"{path}: malformed row {row_num}: {exc}") from exc
        if cid not in columns:
            columns[cid] = (treated, [], [], [])
        flag, outcomes, covariates, posts = columns[cid]
        if flag != treated:
            raise DataError(f"{path}: cluster {cid!r} has inconsistent treated flags")
        outcomes.append(outcome)
        covariates.append(covs)
        posts.append(post)
    if not columns:
        raise DataError(f"{path}: no data rows")
    flags, outcomes, covariates, posts = zip(*columns.values())
    posts = posts if has_post else [None] * len(columns)
    return stack_clusters(list(columns), flags, outcomes, covariates, posts)


_ESTIMATORS = {"ols": "ols_intercept", "did": "did_slope", "probit": "probit"}
_SIDES = {"greater": "greater", "less": "less", "two": "two_sided"}
_ALIASES = {"wildboot": "wild_bootstrap", "bch": "bch_t"}


def cmd_test(args) -> int:
    method = TABLE[_ALIASES.get(args.method, args.method)]
    try:
        dataset = read_csv_dataset(args.input)
        q1, q0 = dataset.layout.q1, dataset.layout.q0
        adjustment = "unadjusted" if args.unadjusted else "adjusted"
        setting = Setting(
            _ESTIMATORS[args.estimator], q1, q0, _SIDES[args.side], adjustment, args.max_perms
        )
        method.check(setting)  # before any estimation
        inputs = Inputs(setting, [dataset], args.alpha, args.seed, [()], args.pairing)
        result = unwrap(method.run(inputs)[0])
    except (FewClustersError, OSError) as exc:
        return _error(exc)
    report = {"method": args.method, "estimator": args.estimator}
    for key in ("statistic", "critical_value", "p_value"):
        value = getattr(result, key)
        if math.isfinite(value):
            report[key] = value
        else:
            # strict JSON has no infinity or nan: null, and the value beside it
            report[key] = None
            report[f"{key}_nonfinite"] = "nan" if math.isnan(value) else f"{value:+}"
    report["reject"] = result.reject
    report["n_assignments"] = result.n_assignments
    report["warnings"] = list(result.warnings)
    print(json.dumps(report, allow_nan=False))
    return EXIT_OK


def _error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return EXIT_INAPPLICABLE if isinstance(exc, MethodInapplicable) else EXIT_DATA_ERROR


def cmd_simulate(args) -> int:
    from . import harness  # so that a ``test`` loads neither it nor the data generators

    try:
        with open(args.config, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except UnicodeDecodeError as exc:
        print(f"error: cannot read config: {args.config}: not UTF-8 text: {exc}",
              file=sys.stderr)
        return EXIT_DATA_ERROR
    try:
        spec = harness.spec_from_dict(raw)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        table = harness.run_experiment(spec, workers=args.threads)
        csv_path = out_dir / "rejection_table.csv"
        svg_path = out_dir / f"rejection_{spec.sweep_param}.svg"
        harness.emit_csv(table, csv_path)
        harness.emit_svg(table, svg_path, alpha=spec.alpha)
    except (FewClustersError, OSError) as exc:
        return _error(exc)
    print(
        f"wrote {csv_path} and {svg_path}: {len(spec.methods)} methods x "
        f"{len(spec.sweep_values)} sweep values x {spec.replications} replications"
    )
    return EXIT_OK


def _checked(convert, ok, need: str):
    """An argparse type: ``convert`` the flag's text, then require ``ok`` of it."""

    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"need {need}, got {raw!r}")
        return value

    return parse


_ALPHA = _checked(float, lambda a: 0.0 < a < 1.0, "a number in (0, 1)")
_SEED = _checked(int, lambda n: n >= 0, "an integer >= 0")
_POSITIVE = _checked(int, lambda n: n >= 1, "an integer >= 1")


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
        choices=[*TABLE, *_ALIASES],
        help="wildboot and bch are aliases of wild_bootstrap and bch_t",
    )
    p_test.add_argument(
        "--estimator", default="ols", choices=["ols", "did", "probit"]
    )
    p_test.add_argument("--alpha", type=_ALPHA, default=0.05)
    p_test.add_argument("--side", default="greater", choices=["greater", "less", "two"])
    p_test.add_argument(
        "--unadjusted",
        action="store_true",
        help="use unadjusted placebo statistics (intended for q1 == q0)",
    )
    p_test.add_argument(
        "--max-perms",
        type=_POSITIVE,
        default=None,
        metavar="M",
        help="subsample M placebo assignments instead of full enumeration",
    )
    p_test.add_argument(
        "--pairing", default="random", choices=["random", "by_size"],
        help="cluster matching strategy for the crs method",
    )
    p_test.add_argument("--seed", type=_SEED, default=0)
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo sweep from a config")
    p_sim.add_argument("--config", required=True, help="path to a JSON experiment spec")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument(
        "--threads",
        type=_POSITIVE,
        default=1,
        help="worker processes, at most the CPU count (default: 1)",
    )
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
