"""Monte Carlo harness: rejection frequencies over a design-parameter sweep.

Every replication generates one dataset that all requested methods share.
Per-replication seeds are derived from (master seed, sweep index,
replication index), so results are identical no matter how the work is
split across processes.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Union

from .dgp import LinearDesign, ProbitDesign, generate
from .methods import TABLE, Inputs, Setting
from .model import FewClustersError, TooManyAssignments
from .streams import group_streams


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
        if self.bootstrap_reps < 1:
            raise ConfigError(f"bootstrap_reps must be >= 1, got {self.bootstrap_reps}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        unknown = [m for m in self.methods if m not in TABLE]
        if unknown:
            raise ConfigError(f"methods contains unknown entries {unknown}")
        if len(self.methods) == 0:
            raise ConfigError("methods must be non-empty")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"methods contains duplicates: {list(self.methods)}")
        if self.crs_pairing not in ("random", "by_size"):
            raise ConfigError(
                f"crs_pairing must be 'random' or 'by_size', got {self.crs_pairing!r}"
            )
        # every sweep point's design and methods, before any replication runs
        for value in self.sweep_values:
            setting = _setting(_apply_sweep(self.design, self.sweep_param, value))
            try:
                for method in self.methods:
                    TABLE[method].check(setting)
            except TooManyAssignments as exc:
                at = f"sweep.values: at {self.sweep_param} = {value:g}"
                raise TooManyAssignments(f"{at}, {exc}") from None


@dataclass(frozen=True)
class RejectionRow:
    """One method at one sweep value: ``reject_rate`` is its rejects over the
    ``reps`` less ``failures`` that gave a result, nan if none did."""

    method: str
    sweep_param: str
    sweep_value: float
    reject_rate: float
    reps: int
    seed: int
    failures: int


@dataclass(frozen=True)
class RejectionTable:
    rows: tuple[RejectionRow, ...]

    def rate(self, method: str, sweep_value: float) -> float:
        for row in self.rows:
            if row.method == method and row.sweep_value == sweep_value:
                return row.reject_rate
        raise KeyError((method, sweep_value))


def _apply_sweep(design: Design, param: str, value: float) -> Design:
    """The design at one sweep point; ConfigError if it cannot generate data."""
    if param != "beta" and value != int(value):
        raise ConfigError(f"sweep.values: a {param} sweep needs integers, got {value}")
    if param == "beta":
        design = dataclasses.replace(design, beta=float(value))
    elif param == "h":
        design = dataclasses.replace(design, h=int(value))
    else:
        q = int(value)
        if q % 2 != 0 or q < 2:
            raise ConfigError(f"sweep.values: q sweep needs even totals >= 2, got {q}")
        design = dataclasses.replace(design, q1=q // 2, q0=q // 2)
    lo, hi = design.size_range
    if design.q1 < 1 or design.q0 < 1:
        raise ConfigError(f"design.q1 and q0 must be >= 1, got {design.q1, design.q0}")
    if not 1 <= lo <= hi:
        raise ConfigError(f"design.size_range: needs 1 <= lo <= hi, got ({lo}, {hi})")
    if not 0 <= design.h < lo:
        raise ConfigError(
            f"design.h: must lie in [0, {lo - 1}] below the smallest cluster "
            f"size {lo}, got {design.h}"
        )
    return design


def _setting(design: Design) -> Setting:
    """Every method tests "greater"; the placebo test is unadjusted iff q1 == q0."""
    return Setting(
        "ols_intercept" if isinstance(design, LinearDesign) else "probit",
        design.q1,
        design.q0,
        adjustment="unadjusted" if design.q1 == design.q0 else "adjusted",
    )


# a task is one group of this many replications: each fit of the group's
# datasets runs as one batch, and so does each method
REPLICATION_GROUP = 16


def _run_block(spec: ExperimentSpec, task: tuple[int, int]) -> Counter:
    """The counts (method, "rejects") and (method, "failures") over one
    replication group, ``task`` = (sweep index, its first rep).

    Each method runs once over the group. A replication's error, from its
    fit or its test, counts as a failure. The counts are those of one
    replication at a time, since each replication draws from its own streams.
    """
    sweep_index, start = task
    design = _apply_sweep(spec.design, spec.sweep_param, spec.sweep_values[sweep_index])
    stop = min(start + REPLICATION_GROUP, spec.replications)
    keys = [(sweep_index, rep) for rep in range(start, stop)]
    cluster_rngs, streams = group_streams(spec.master_seed, keys, design.q1 + design.q0)
    datasets = generate(design, cluster_rngs)
    inputs = Inputs(
        _setting(design), datasets, spec.alpha, spec.master_seed, keys, spec.crs_pairing,
        bootstrap_reps=spec.bootstrap_reps, streams=streams,
    )
    counts = Counter()
    for method in spec.methods:
        for result in TABLE[method].run(inputs):
            if isinstance(result, FewClustersError):
                counts[method, "failures"] += 1
            else:
                counts[method, "rejects"] += int(result.reject)
    return counts


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> RejectionTable:
    """Run the full sweep and tally rejection frequencies per method.

    Deterministic given the spec's master seed, independent of the worker
    count, which is capped at os.cpu_count(): replication seeds depend only
    on (sweep index, replication index) and the reduction is an integer sum.
    """
    n = spec.replications
    tasks = [
        (sweep_index, start)
        for sweep_index in range(len(spec.sweep_values))
        for start in range(0, n, REPLICATION_GROUP)
    ]
    run = functools.partial(_run_block, spec)
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        results = list(map(run, tasks))
    else:
        # imported here, so a serial run does not load the pool's modules
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, tasks))
    counts = [Counter() for _ in spec.sweep_values]
    for (sweep_index, _), task_counts in zip(tasks, results):
        counts[sweep_index].update(task_counts)
    param, seed = spec.sweep_param, spec.master_seed
    rows = []
    for i, value in enumerate(spec.sweep_values):
        for method in spec.methods:
            rejects, failures = counts[i][method, "rejects"], counts[i][method, "failures"]
            rate = rejects / (n - failures) if failures < n else math.nan
            rows.append(RejectionRow(method, param, float(value), rate, n, seed, failures))
    return RejectionTable(rows=tuple(rows))


def emit_csv(table: RejectionTable, path) -> None:
    """Write the rejection table as CSV: a header of RejectionRow's field
    names, then one line per row, each float at full precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(field.name for field in dataclasses.fields(RejectionRow))
        writer.writerows(dataclasses.astuple(row) for row in table.rows)


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

    A dashed horizontal marks the nominal level when ``alpha`` is given. A
    point whose every replication failed (rate nan) is left out.
    """
    width, height, margin = 640, 420, 50
    methods = sorted({row.method for row in table.rows})
    values = sorted({row.sweep_value for row in table.rows})
    shown = [row for row in table.rows if not math.isnan(row.reject_rate)]
    rates = [row.reject_rate for row in shown]
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
            (row.sweep_value, row.reject_rate) for row in shown if row.method == method
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


def _integer(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field}: must be an integer, got {value!r}")
    return value


def _number(value, field: str) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:
            pass
    raise ConfigError(f"{field}: must be a finite number, got {value!r}")


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{field}: must be a list")
    return value


def spec_from_dict(raw: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a plain JSON-style dict.

    Raises ConfigError naming the offending field path on any problem, or
    MethodInapplicable when a method does not apply at some sweep point.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    design_raw = raw.get("design")
    if not isinstance(design_raw, dict):
        raise ConfigError("design: must be an object")
    kind = design_raw.get("kind")
    if kind not in ("linear", "probit"):
        raise ConfigError(f"design.kind: must be 'linear' or 'probit', got {kind!r}")
    kwargs = {}
    for key in ("q1", "q0", "h"):
        if key in design_raw:
            kwargs[key] = _integer(design_raw[key], f"design.{key}")
    for key in ("beta", "theta0"):
        if key in design_raw:
            kwargs[key] = _number(design_raw[key], f"design.{key}")
    if "eta" in design_raw:
        eta = _list(design_raw["eta"], "design.eta")
        kwargs["eta"] = tuple(_number(v, "design.eta") for v in eta)
    if "size_range" in design_raw:
        sizes = _list(design_raw["size_range"], "design.size_range")
        if len(sizes) != 2:
            raise ConfigError("design.size_range: must be a list [lo, hi]")
        kwargs["size_range"] = tuple(_integer(v, "design.size_range") for v in sizes)
    design = (LinearDesign if kind == "linear" else ProbitDesign)(**kwargs)

    sweep = raw.get("sweep")
    if not isinstance(sweep, dict) or "param" not in sweep or "values" not in sweep:
        raise ConfigError("sweep: must be an object with 'param' and 'values'")
    values = _list(sweep["values"], "sweep.values")
    return ExperimentSpec(
        design=design,
        sweep_param=str(sweep["param"]),
        sweep_values=tuple(_number(v, "sweep.values") for v in values),
        methods=tuple(str(m) for m in _list(raw.get("methods"), "methods")),
        replications=_integer(raw.get("replications", 2000), "replications"),
        alpha=_number(raw.get("alpha", 0.05), "alpha"),
        master_seed=_integer(raw.get("master_seed", 0), "master_seed"),
        crs_pairing=str(raw.get("crs_pairing", "random")),
        bootstrap_reps=_integer(raw.get("bootstrap_reps", 199), "bootstrap_reps"),
    )
