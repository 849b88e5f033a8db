"""Monte Carlo harness: rejection frequencies over a design-parameter sweep.

Every replication generates one dataset that all requested methods share.
Per-replication seeds are derived from (master seed, sweep index,
replication index), so results are identical no matter how the work is
split across processes.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import comparators, engine, estimators
from .dgp import LinearDesign, ProbitDesign, gen_linear, gen_probit
from .model import (
    ClusterDataset,
    FewClustersError,
    MethodInapplicable,
    TestConfig,
)

log = logging.getLogger(__name__)

METHODS = (
    "placebo",
    "placebo_unadjusted",
    "im",
    "crs",
    "crs_randomized",
    "wild_bootstrap",
    "bch_t",
    "oracle",
)
SWEEP_PARAMS = ("beta", "h", "q")

Design = Union[LinearDesign, ProbitDesign]


class ConfigError(FewClustersError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep of one design, run with a fixed method set."""

    design: Design
    sweep_param: str
    sweep_values: tuple[float, ...]
    methods: tuple[str, ...]
    replications: int = 2000
    alpha: float = 0.05
    master_seed: int = 0
    crs_pairing: str = "random"
    bootstrap_reps: int = 199

    def __post_init__(self):
        if self.sweep_param not in SWEEP_PARAMS:
            raise ConfigError(
                f"sweep.param must be one of {SWEEP_PARAMS}, got {self.sweep_param!r}"
            )
        if len(self.sweep_values) == 0:
            raise ConfigError("sweep.values must be non-empty")
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"methods contains unknown entries {unknown}")
        if len(self.methods) == 0:
            raise ConfigError("methods must be non-empty")
        if self.crs_pairing not in ("random", "by_size"):
            raise ConfigError(
                f"crs_pairing must be 'random' or 'by_size', got {self.crs_pairing!r}"
            )


@dataclass(frozen=True)
class RejectionRow:
    method: str
    sweep_param: str
    sweep_value: float
    reject_rate: float
    reps: int
    seed: int


@dataclass(frozen=True)
class RejectionTable:
    rows: tuple[RejectionRow, ...]

    def rate(self, method: str, sweep_value: float) -> float:
        for row in self.rows:
            if row.method == method and row.sweep_value == sweep_value:
                return row.reject_rate
        raise KeyError((method, sweep_value))


def _apply_sweep(design: Design, param: str, value: float) -> Design:
    if param == "beta":
        return dataclasses.replace(design, beta=float(value))
    if param == "h":
        return dataclasses.replace(design, h=int(value))
    q = int(value)
    if q % 2 != 0:
        raise ConfigError(f"sweep.values: q sweep needs even totals, got {q}")
    return dataclasses.replace(design, q1=q // 2, q0=q // 2)


def _check_applicability(spec: ExperimentSpec) -> None:
    is_linear = isinstance(spec.design, LinearDesign)
    for value in spec.sweep_values:
        design = _apply_sweep(spec.design, spec.sweep_param, value)
        for method in spec.methods:
            if method in ("crs", "crs_randomized") and design.q1 != design.q0:
                raise MethodInapplicable(
                    f"{method} requires q1 == q0, got ({design.q1}, {design.q0})"
                )
            if method in ("wild_bootstrap", "bch_t") and not is_linear:
                raise MethodInapplicable(
                    f"{method} applies to the linear design only"
                )
            if method in ("placebo",) and min(design.q1, design.q0) < 2:
                if design.q1 != design.q0:
                    raise MethodInapplicable(
                        "adjusted placebo test needs at least two clusters per group"
                    )


def _generate(design: Design, seed) -> ClusterDataset:
    if isinstance(design, LinearDesign):
        return gen_linear(design, seed)
    return gen_probit(design, seed)


def _run_methods(
    design: Design,
    dataset: ClusterDataset,
    spec: ExperimentSpec,
    streams: dict[str, np.random.SeedSequence],
) -> dict[str, bool]:
    """Decide reject/accept for every requested method on one dataset."""
    estimator = "ols_intercept" if isinstance(design, LinearDesign) else "probit"
    alpha = spec.alpha
    rejects: dict[str, bool] = {}
    estimates = None
    pair_betas = None
    regression = None

    def cluster_estimates():
        nonlocal estimates
        if estimates is None:
            estimates = estimators.estimate_all(dataset, estimator)
        return estimates

    def matched_pair_betas():
        nonlocal pair_betas
        if pair_betas is None:
            seed = streams["pairing"] if spec.crs_pairing == "random" else None
            pairs = comparators.pair_clusters(dataset, spec.crs_pairing, seed)
            if isinstance(design, LinearDesign):
                pair_betas = comparators.pair_beta_ols(dataset, pairs)
            else:
                pair_betas = comparators.pair_beta_probit(dataset, pairs)
        return pair_betas

    def pooled_regression():
        # wild_bootstrap and bch_t share one pooled design and CRVE fit
        nonlocal regression
        if regression is None:
            regression = comparators.pooled_regression(dataset)
        return regression

    for method in spec.methods:
        if method == "placebo":
            adjustment = "unadjusted" if design.q1 == design.q0 else "adjusted"
            cfg = TestConfig(alpha=alpha, side="greater", adjustment=adjustment)
            rejects[method] = engine.run_placebo_test(cluster_estimates(), cfg).reject
        elif method == "placebo_unadjusted":
            cfg = TestConfig(alpha=alpha, side="greater", adjustment="unadjusted")
            rejects[method] = engine.run_placebo_test(cluster_estimates(), cfg).reject
        elif method == "im":
            rejects[method] = comparators.im_t_test(
                cluster_estimates(), alpha, "greater"
            ).reject
        elif method == "crs":
            rejects[method] = comparators.crs_sign_test(
                matched_pair_betas(), alpha, randomized=False
            ).reject
        elif method == "crs_randomized":
            rejects[method] = comparators.crs_sign_test(
                matched_pair_betas(), alpha, randomized=True, seed=streams["crs_u"]
            ).reject
        elif method == "wild_bootstrap":
            rejects[method] = comparators.wild_bootstrap_pooled(
                pooled_regression(),
                alpha,
                "greater",
                b_reps=spec.bootstrap_reps,
                seed=streams["bootstrap"],
            ).reject
        elif method == "bch_t":
            rejects[method] = comparators.bch_t_test(
                pooled_regression().fit, alpha, "greater"
            ).reject
        elif method == "oracle":
            u = float(np.random.default_rng(streams["oracle"]).uniform())
            rejects[method] = u < alpha
        else:  # pragma: no cover - guarded by ExperimentSpec validation
            raise ConfigError(f"unknown method {method!r}")
    return rejects


def _replication_streams(
    master_seed: int, sweep_index: int, rep: int
) -> dict[str, np.random.SeedSequence]:
    root = np.random.SeedSequence(master_seed, spawn_key=(sweep_index, rep))
    children = root.spawn(5)
    return dict(zip(("data", "pairing", "crs_u", "bootstrap", "oracle"), children))


def _run_block(
    spec: ExperimentSpec, sweep_index: int, rep_start: int, rep_stop: int
) -> dict[str, int]:
    """Reject counts per method over a contiguous range of replications."""
    design = _apply_sweep(spec.design, spec.sweep_param, spec.sweep_values[sweep_index])
    counts = {m: 0 for m in spec.methods}
    for rep in range(rep_start, rep_stop):
        streams = _replication_streams(spec.master_seed, sweep_index, rep)
        dataset = _generate(design, streams["data"])
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "sweep=%s rep=%d dataset_hash=%s",
                spec.sweep_values[sweep_index],
                rep,
                dataset.content_hash(),
            )
        for method, reject in _run_methods(design, dataset, spec, streams).items():
            counts[method] += int(reject)
    return counts


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> RejectionTable:
    """Run the full sweep and tally rejection frequencies per method.

    Deterministic given the spec's master seed, independent of the worker
    count: replication seeds depend only on (sweep index, replication
    index) and the reduction is an integer sum.
    """
    _check_applicability(spec)
    rows: list[RejectionRow] = []
    for sweep_index, value in enumerate(spec.sweep_values):
        counts = {m: 0 for m in spec.methods}
        if workers <= 1:
            blocks = [_run_block(spec, sweep_index, 0, spec.replications)]
        else:
            chunk = math.ceil(spec.replications / workers)
            ranges = [
                (start, min(start + chunk, spec.replications))
                for start in range(0, spec.replications, chunk)
            ]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                blocks = list(
                    pool.map(
                        _run_block,
                        [spec] * len(ranges),
                        [sweep_index] * len(ranges),
                        [r[0] for r in ranges],
                        [r[1] for r in ranges],
                    )
                )
        for block in blocks:
            for method, count in block.items():
                counts[method] += count
        for method in spec.methods:
            rows.append(
                RejectionRow(
                    method=method,
                    sweep_param=spec.sweep_param,
                    sweep_value=float(value),
                    reject_rate=counts[method] / spec.replications,
                    reps=spec.replications,
                    seed=spec.master_seed,
                )
            )
    return RejectionTable(rows=tuple(rows))


def emit_csv(table: RejectionTable, path) -> None:
    """Write the rejection table as CSV with a fixed header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "sweep_param", "sweep_value", "reject_rate", "reps", "seed"]
        )
        for row in table.rows:
            writer.writerow(
                [
                    row.method,
                    row.sweep_param,
                    repr(row.sweep_value),
                    repr(row.reject_rate),
                    row.reps,
                    row.seed,
                ]
            )


_SVG_COLORS = (
    "#000000",
    "#888888",
    "#d62728",
    "#1f77b4",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#17becf",
)


def emit_svg(table: RejectionTable, path, alpha: Optional[float] = 0.05) -> None:
    """Render a self-contained line chart: one polyline per method.

    A dashed horizontal marks the nominal level when ``alpha`` is given.
    """
    width, height, margin = 640, 420, 50
    methods = sorted({row.method for row in table.rows})
    values = sorted({row.sweep_value for row in table.rows})
    rates = [row.reject_rate for row in table.rows]
    sweep_param = table.rows[0].sweep_param if table.rows else ""

    x_lo = min(values, default=0.0)
    x_hi = max(values, default=1.0)
    x_span = (x_hi - x_lo) or 1.0
    y_hi = max(max(rates, default=0.0), alpha or 0.0, 0.1)

    def sx(v):
        return margin + (v - x_lo) / x_span * (width - 2 * margin)

    def sy(r):
        return height - margin - r / y_hi * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - 10}" text-anchor="middle" '
        f'font-size="13">{sweep_param}</text>',
        f'<text x="14" y="{height / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 14 {height / 2})">rejection frequency</text>',
    ]
    if alpha is not None:
        y = sy(alpha)
        parts.append(
            f'<line x1="{margin}" y1="{y}" x2="{width - margin}" y2="{y}" '
            f'stroke="grey" stroke-dasharray="5,4"/>'
        )
    for i, method in enumerate(methods):
        pts = sorted(
            (row.sweep_value, row.reject_rate)
            for row in table.rows
            if row.method == method
        )
        coords = " ".join(f"{sx(v):.2f},{sy(r):.2f}" for v, r in pts)
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * i + 10}" '
            f'font-size="11" fill="{color}">{method}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def spec_from_dict(raw: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a plain JSON-style dict.

    Raises ConfigError naming the offending field path on any problem.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    design_raw = raw.get("design")
    if not isinstance(design_raw, dict):
        raise ConfigError("design: must be an object")
    kind = design_raw.get("kind")
    if kind not in ("linear", "probit"):
        raise ConfigError(f"design.kind: must be 'linear' or 'probit', got {kind!r}")
    cls = LinearDesign if kind == "linear" else ProbitDesign
    kwargs = {}
    for key in ("q1", "q0", "h"):
        if key in design_raw:
            value = design_raw[key]
            if not isinstance(value, int) or value < 0:
                raise ConfigError(f"design.{key}: must be a non-negative integer")
            kwargs[key] = value
    for key in ("beta", "theta0"):
        if key in design_raw:
            kwargs[key] = float(design_raw[key])
    if "eta" in design_raw:
        kwargs["eta"] = tuple(float(v) for v in design_raw["eta"])
    if "size_range" in design_raw:
        lo, hi = design_raw["size_range"]
        kwargs["size_range"] = (int(lo), int(hi))
    try:
        design = cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"design: {exc}") from exc

    sweep = raw.get("sweep")
    if not isinstance(sweep, dict) or "param" not in sweep or "values" not in sweep:
        raise ConfigError("sweep: must be an object with 'param' and 'values'")
    methods = raw.get("methods")
    if not isinstance(methods, list):
        raise ConfigError("methods: must be a list")
    replications = raw.get("replications", 2000)
    if not isinstance(replications, int) or replications < 1:
        raise ConfigError("replications: must be a positive integer")
    return ExperimentSpec(
        design=design,
        sweep_param=str(sweep["param"]),
        sweep_values=tuple(float(v) for v in sweep["values"]),
        methods=tuple(str(m) for m in methods),
        replications=replications,
        alpha=float(raw.get("alpha", 0.05)),
        master_seed=int(raw.get("master_seed", 0)),
        crs_pairing=str(raw.get("crs_pairing", "random")),
        bootstrap_reps=int(raw.get("bootstrap_reps", 199)),
    )
