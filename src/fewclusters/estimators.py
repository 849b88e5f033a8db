"""Per-cluster estimators feeding the placebo test.

Each fit uses data from a single cluster only and returns one scalar: the
regression intercept, the post-period slope, or the probit constant. Every
linear fit, here and in ``comparators``, uses :func:`least_squares`. The
probit fit solves the raw moment condition (indicator minus link), not the
likelihood score, via damped Newton iteration; it is the only fit that
loads ``scipy.special``, when it first runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import (
    Cluster,
    ClusterDataset,
    EstimateVector,
    EstimationError,
    RankDeficient,
    Separation,
    NoConvergence,
)

MOMENT_TOL = 1e-10
MAX_NEWTON_ITER = 100
MAX_HALVINGS = 30
THETA_SEPARATION_BOUND = 20.0
PARAM_DIVERGENCE_NORM = 1e3


@dataclass(frozen=True)
class FitResult:
    """A scalar cluster statistic plus nuisance estimates and fit diagnostics."""

    theta: float
    nuisance: np.ndarray
    iterations: int


def least_squares(design: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Coefficients (p,) or (p, k) of rhs (m,) or (m, k) on the design.

    The one solver and rank rule of every linear fit: RankDeficient when
    m < p or the smallest singular value is below 1e-10 * max(largest, 1).
    """
    m, p = design.shape
    if m < p:
        raise RankDeficient(f"{m} observations cannot identify {p} coefficients")
    coef, _, _, sv = np.linalg.lstsq(design, rhs, rcond=None)
    if sv[-1] < 1e-10 * max(sv[0], 1.0):
        raise RankDeficient("design matrix is rank deficient")
    return coef


def ols_intercept(cluster: Cluster) -> FitResult:
    """Intercept of the within-cluster regression of outcome on covariates."""
    x = cluster.covariate_matrix
    design = np.column_stack([np.ones(cluster.size), x])
    coef = least_squares(design, cluster.outcomes)
    return FitResult(theta=float(coef[0]), nuisance=coef[1:], iterations=0)


def did_slope(cluster: Cluster) -> FitResult:
    """Coefficient on the post-period dummy in the within-cluster regression.

    The regression is outcome on (1, post, covariates); the constant plays
    the role of the cluster fixed effect.
    """
    post = cluster.post_flags
    design = np.column_stack(
        [np.ones(cluster.size), post, cluster.covariate_matrix]
    )
    coef = least_squares(design, cluster.outcomes)
    nuisance = np.concatenate([coef[:1], coef[2:]])  # fixed effect first
    return FitResult(theta=float(coef[1]), nuisance=nuisance, iterations=0)


def _moment(ndtr, design: np.ndarray, y01: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The probit moment at index z = design @ beta, with the link ``ndtr``."""
    resid = y01 - ndtr(z)
    return design.T @ resid / design.shape[0]


def _jacobian(design: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Derivative of the moment at index z = design @ beta."""
    dens = np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi)  # standard normal density
    return -(design.T * dens) @ design / design.shape[0]


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector, as np.linalg.norm computes it."""
    return math.sqrt(v.dot(v))


def probit_moment(design: np.ndarray, y01: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Sample moment: mean of design-row times (success indicator minus link)."""
    from scipy.special import ndtr

    return _moment(ndtr, design, y01, design @ beta)


def probit_moment_jacobian(
    design: np.ndarray, y01: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """Exact derivative of the moment with respect to the parameters."""
    return _jacobian(design, design @ beta)


def _probit_newton(design: np.ndarray, y01: np.ndarray) -> tuple[np.ndarray, int]:
    """Damped Newton iteration on the probit moment condition from zero.

    The index z = design @ beta of the accepted step feeds the next Jacobian.
    """
    # imported here, once per fit, so that the linear fits never load scipy
    from scipy.special import ndtr

    beta = np.zeros(design.shape[1])
    z = design @ beta
    psi = _moment(ndtr, design, y01, z)
    psi_norm = _norm(psi)
    for iteration in range(1, MAX_NEWTON_ITER + 1):
        if psi_norm < MOMENT_TOL:
            return beta, iteration - 1
        jac = _jacobian(design, z)
        try:
            step = np.linalg.solve(jac, -psi)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient(f"singular probit Jacobian: {exc}") from exc
        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            candidate = beta + scale * step
            cand_z = design @ candidate
            cand_psi = _moment(ndtr, design, y01, cand_z)
            cand_norm = _norm(cand_psi)
            if cand_norm < psi_norm:
                break
            scale *= 0.5
        else:
            raise NoConvergence("probit step halving failed to reduce the moment")
        beta, z, psi, psi_norm = candidate, cand_z, cand_psi, cand_norm
        if abs(beta[0]) > THETA_SEPARATION_BOUND:
            raise Separation(
                f"probit constant escaped past {THETA_SEPARATION_BOUND}; "
                "outcomes are likely separated"
            )
        if _norm(beta) > PARAM_DIVERGENCE_NORM:
            raise NoConvergence("probit parameters diverged")
    if psi_norm < MOMENT_TOL:
        return beta, MAX_NEWTON_ITER
    raise NoConvergence(
        f"probit moment norm {psi_norm:.2e} after {MAX_NEWTON_ITER} iterations"
    )


def probit_z_estimate(cluster: Cluster) -> FitResult:
    """Probit constant (and covariate slopes) from the raw moment condition.

    Outcomes are interpreted as successes when strictly positive. Both
    outcome values must be present, otherwise the moment condition has no
    zero and a Separation error is raised.
    """
    y01 = (cluster.outcomes > 0).astype(float)
    if y01.min() == y01.max():
        raise Separation("constant binary outcome")
    design = np.column_stack([np.ones(cluster.size), cluster.covariate_matrix])
    beta, iterations = _probit_newton(design, y01)
    return FitResult(theta=float(beta[0]), nuisance=beta[1:], iterations=iterations)


_METHODS: dict[str, Callable[[Cluster], FitResult]] = {
    "ols_intercept": ols_intercept,
    "did_slope": did_slope,
    "probit": probit_z_estimate,
}


def estimate_all(dataset: ClusterDataset, method: str) -> EstimateVector:
    """Apply a per-cluster fit to every cluster in canonical order.

    Fails fast on the first per-cluster error, naming the offending cluster.
    """
    try:
        fit = _METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; expected one of {sorted(_METHODS)}"
        ) from None
    values = np.empty(dataset.layout.q)
    for i, cluster in enumerate(dataset.clusters):
        try:
            values[i] = fit(cluster).theta
        except Exception as exc:
            raise EstimationError(cluster.id, exc) from exc
    return EstimateVector(values=values, layout=dataset.layout)
