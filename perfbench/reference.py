"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from the paper's definitions with numpy and scipy
alone. Nothing imports ``fewclusters``, so a fault in the program cannot hide
inside its own check. Each ``check_*`` function returns a list of mismatch
messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np
from scipy import special
from scipy import stats as sps

# Relative slack when comparing a placebo statistic with the observed one:
# the program and this module sum in different orders, so near-ties may
# differ in the last bits.
TIE_RTOL = 1e-9
CHUNK = 1 << 15


def placebo_statistics(values, combos, q1: int, adjusted: bool) -> np.ndarray:
    """Placebo statistic for each row of ``combos`` (treated indices).

    The first row of the full enumeration is the identity (0..q1-1), whose
    statistic is the plain comparison of means in both modes.
    """
    v = np.asarray(values, dtype=float)
    q0 = v.shape[0] - q1
    treated = v[combos]
    keep = np.ones((combos.shape[0], v.shape[0]), dtype=bool)
    np.put_along_axis(keep, combos, False, axis=1)
    untreated = np.broadcast_to(v, keep.shape)[keep].reshape(-1, q0)
    diff = treated.mean(axis=1) - untreated.mean(axis=1)
    if not adjusted:
        return diff
    s2 = treated.var(axis=1, ddof=1) / q1 + untreated.var(axis=1, ddof=1) / q0
    t_id, u_id = v[:q1], v[q1:]
    s2_obs = t_id.var(ddof=1) / q1 + u_id.var(ddof=1) / q0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = diff * np.sqrt(s2_obs / s2)
    zero = s2 == 0.0
    out[zero] = np.where(diff[zero] == 0.0, 0.0, np.sign(diff[zero]) * np.inf)
    return out


def placebo_p_bounds(values, q1: int, adjusted: bool) -> tuple[float, float, int]:
    """Brute-force p-value of the one-sided placebo test over all C(q, q1) splits.

    The p-value is the share of assignments whose statistic is at least the
    observed one; the observed assignment always counts. Assignments are
    enumerated in chunks. A statistic within ``TIE_RTOL`` of the observed
    one may fall either way in floating point, so it widens the answer to
    ``(p_low, p_high, n)``; without such near-ties ``p_low == p_high``.
    """
    v = np.asarray(values, dtype=float)
    q = v.shape[0]
    n = math.comb(q, q1)
    observed = float(v[:q1].mean() - v[q1:].mean())
    tol = TIE_RTOL * max(abs(observed), float(np.max(np.abs(v))))
    above = near = 0
    combos = itertools.combinations(range(q), q1)
    while True:
        block = np.array(list(itertools.islice(combos, CHUNK)), dtype=np.intp)
        if block.size == 0:
            break
        s = placebo_statistics(v, block.reshape(-1, q1), q1, adjusted)
        above += int(np.count_nonzero(s > observed + tol))
        near += int(np.count_nonzero(np.abs(s - observed) <= tol))
    # near includes the observed assignment itself, which always ties
    return (above + 1) / n, (above + near) / n, n


def welch_t(values, q1: int) -> float:
    """Welch's unequal-variance t statistic, treated minus untreated."""
    v = np.asarray(values, dtype=float)
    return float(sps.ttest_ind(v[:q1], v[q1:], equal_var=False).statistic)


def ols_intercept(y, x) -> float:
    """Intercept of the least-squares fit of y on (1, x)."""
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones(y.shape[0]), np.asarray(x, dtype=float)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0])


def probit_moment(y, x, beta) -> np.ndarray:
    """The paper's probit moment: mean of (1, x) times (1{y > 0} - Phi((1, x) beta))."""
    y = np.asarray(y, dtype=float)
    design = np.column_stack([np.ones(y.shape[0]), np.asarray(x, dtype=float)])
    resid = (y > 0).astype(float) - special.ndtr(design @ np.asarray(beta, dtype=float))
    return design.T @ resid / y.shape[0]


def close(a: float, b: float, rtol: float, atol: float) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def check_reject_rule(label: str, reject: bool, p: float, alpha: float) -> list[str]:
    """The decision must be exactly reject <=> p <= alpha."""
    if bool(reject) != (p <= alpha):
        return [f"{label}: reject={reject} but p={p!r}, alpha={alpha!r}"]
    return []


def check_placebo(label: str, result, values, q1: int, adjusted: bool, alpha: float) -> list[str]:
    """A one-sided placebo result against brute-force enumeration and the decision rule."""
    p_low, p_high, n = placebo_p_bounds(values, q1, adjusted)
    errors = check_reject_rule(label, result.reject, result.p_value, alpha)
    if result.n_assignments != n:
        errors.append(f"{label}: n_assignments={result.n_assignments}, C(q, q1)={n}")
    if not p_low - 1e-12 <= result.p_value <= p_high + 1e-12:
        errors.append(
            f"{label}: p={result.p_value!r} outside brute-force [{p_low!r}, {p_high!r}]"
        )
    return errors


def check_welch(label: str, result, values, q1: int) -> list[str]:
    """The two-sample t statistic must equal Welch's t."""
    ref = welch_t(values, q1)
    if not close(result.statistic, ref, 1e-9, 1e-12):
        return [f"{label}: statistic={result.statistic!r}, Welch t={ref!r}"]
    return []


def check_intercept(label: str, theta: float, y, x) -> list[str]:
    ref = ols_intercept(y, x)
    if not close(theta, ref, 1e-8, 1e-10):
        return [f"{label}: intercept={theta!r}, lstsq={ref!r}"]
    return []


def check_probit_root(label: str, beta, y, x, tol: float = 1e-8) -> list[str]:
    norm = float(np.linalg.norm(probit_moment(y, x, beta)))
    if not norm <= tol:
        return [f"{label}: probit moment norm {norm:.3e} exceeds {tol:.0e}"]
    return []


def read_clusters(path) -> tuple[list[str], list[bool], list[np.ndarray], list[np.ndarray]]:
    """Parse the benchmark's CSV (cluster_id, treated, outcome, x1..xd) by cluster.

    Clusters come back treated first, keeping first-appearance order within
    each group, which is the program's canonical order.
    """
    rows: dict[str, list[list[float]]] = {}
    treated: dict[str, bool] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n_cov = len(header) - 3
        for rec in reader:
            cid = rec[0]
            treated[cid] = rec[1] == "1"
            rows.setdefault(cid, []).append([float(v) for v in rec[2 : 3 + n_cov]])
    order = [c for c in rows if treated[c]] + [c for c in rows if not treated[c]]
    arrays = [np.array(rows[c], dtype=float).reshape(-1, 1 + n_cov) for c in order]
    return (
        order,
        [treated[c] for c in order],
        [a[:, 0] for a in arrays],
        [a[:, 1:] for a in arrays],
    )


def strict_json(text: str) -> dict:
    """Parse JSON, refusing NaN and Infinity, which strict JSON does not allow."""

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def check_cli_report(text: str, path, alpha: float) -> list[str]:
    """A ``fewclusters test --method placebo`` report against the CSV it read.

    Fits each cluster's intercept with lstsq, enumerates the adjusted
    statistic over every assignment, and compares the report's statistic,
    p-value, assignment count and decision.
    """
    try:
        report = strict_json(text)
    except ValueError as exc:
        return [f"report is not strict JSON: {exc}"]
    _, flags, ys, xs = read_clusters(path)
    q1 = sum(flags)
    values = np.array([ols_intercept(y, x) for y, x in zip(ys, xs)])
    p_low, p_high, n = placebo_p_bounds(values, q1, adjusted=True)
    observed = float(values[:q1].mean() - values[q1:].mean())
    errors = []
    if report.get("n_assignments") != n:
        errors.append(f"report n_assignments={report.get('n_assignments')}, C(q, q1)={n}")
    if not close(report.get("statistic", math.nan), observed, 1e-8, 1e-10):
        errors.append(f"report statistic={report.get('statistic')!r}, reference={observed!r}")
    p = report.get("p_value", math.nan)
    if not p_low - 1e-12 <= p <= p_high + 1e-12:
        errors.append(f"report p={p!r} outside brute-force [{p_low!r}, {p_high!r}]")
    errors += check_reject_rule("report", report.get("reject"), p, alpha)
    return errors
