"""The probit fit: damped Newton on the raw moment condition, many fits at once.

Each fit solves the mean of design row times (success indicator minus the
normal cdf of the index) for zero, not the likelihood score.
:func:`probit_newton_batch` runs a batch of fits with the bits each has
alone. ``scipy.special`` is imported when a batch first runs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .model import FewClustersError, NoConvergence, RankDeficient, Separation

MOMENT_TOL = 1e-10
MAX_NEWTON_ITER = 100
MAX_HALVINGS = 30
THETA_SEPARATION_BOUND = 20.0
PARAM_DIVERGENCE_NORM = 1e3

_SQRT_2PI = np.sqrt(2 * np.pi)


def _norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (k, p) array."""
    return np.sqrt(np.add.reduce(v * v, axis=1))


def probit_moment(design: np.ndarray, y01: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Sample moment: mean of design-row times (success indicator minus link)."""
    from scipy.special import ndtr

    return design.T @ (y01 - ndtr(design @ beta)) / design.shape[0]


def probit_moment_jacobian(
    design: np.ndarray, y01: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """Exact derivative of the moment with respect to the parameters."""
    density = np.exp(-((design @ beta) ** 2) / 2.0) / _SQRT_2PI
    return -(design.T * density) @ design / design.shape[0]


class _Work:
    """The probit fits still iterating, their designs zero-padded to M rows.

    ``xt`` (p, k, M) holds the design columns, each a contiguous run of M,
    so every step runs over long rows. A padded row is zero in ``xt`` and
    ``y``, so it adds only exact zeros. The index comes from an einsum that
    sums over the p columns in the same order for every row, and the moment
    and Jacobian from one matrix product with ``xt``'s transpose; so each
    fit gets the same bits whatever the padding and the other fits of the
    batch. On OpenBLAS 0.3.31 a BLAS matrix-vector product, for the index
    or for the moment, changed bits with the padding.
    """

    def __init__(self, ndtr, xt, y, m, ids):
        self.ndtr, self.xt, self.y, self.m, self.ids = ndtr, xt, y, m, ids
        self.jac_scale = (-_SQRT_2PI * m)[:, None, None]
        self.m_col, self.right = m[:, None], xt.transpose(1, 2, 0)

    def keep(self, kept: np.ndarray) -> "_Work":
        """The fits at positions ``kept``, copied and padded to their own
        largest m. ``np.take`` keeps ``xt`` in (p, k, M) order; a fancy-index
        gather does not, and that made every later step a third slower."""
        rows = int(self.m[kept].max())
        return _Work(
            self.ndtr,
            np.take(self.xt[:, :, :rows], kept, axis=1),
            np.take(self.y[:, :rows], kept, axis=0),
            self.m[kept],
            self.ids[kept],
        )

    def evaluate(self, beta: np.ndarray):
        """Moments, their norms and the products g at each row of beta (k, p).

        With x the (M, p) design of a fit and z = x @ beta its index,
        g = [exp(-z**2 / 2) * x.T ; y - link(z)] @ x: one product gives
        g[:, :p], which is -m * sqrt(2 pi) times the Jacobian, and g[:, p],
        which is m times the moment.
        """
        p = beta.shape[1]
        z = np.einsum("pkm,kp->km", self.xt, beta)
        terms = np.empty((p + 1,) + z.shape)
        kernel = z * z
        kernel *= -0.5
        np.multiply(self.xt, np.exp(kernel, out=kernel), out=terms[:p])
        np.subtract(self.y, self.ndtr(z), out=terms[p])
        return self.products(terms)

    def products(self, terms: np.ndarray):
        """The moments, their norms and g from the (p + 1, k, M) terms."""
        g = terms.transpose(1, 0, 2) @ self.right
        psi = g[:, -1] / self.m_col
        return psi, _norms(psi), g


def _newton_steps(jac: np.ndarray, psi: np.ndarray, failed: dict) -> np.ndarray:
    """Solve jac @ step = -psi for each fit; a singular Jacobian gives a zero
    step and its RankDeficient error in ``failed``, by position."""
    rhs = -psi[:, :, None]
    try:
        return np.linalg.solve(jac, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    steps = np.zeros_like(psi)
    for j in range(jac.shape[0]):
        try:
            steps[j] = np.linalg.solve(jac[j : j + 1], rhs[j : j + 1])[0, :, 0]
        except np.linalg.LinAlgError as exc:
            failed[j] = RankDeficient(f"singular probit Jacobian: {exc}")
    return steps


def _halve(work: _Work, j: int, beta: np.ndarray, step: np.ndarray, norm: float):
    """Fit j's first step of 2**-1 .. 2**-MAX_HALVINGS times ``step`` that
    lowers its moment norm below ``norm``: (beta, psi, norm, g), or None."""
    one, scale = work.keep(np.array([j])), 1.0
    for _ in range(MAX_HALVINGS):
        scale *= 0.5
        trial = beta[j : j + 1] + scale * step[j : j + 1]
        psi, trial_norm, g = one.evaluate(trial)
        if trial_norm[0] < norm:
            return trial[0], psi[0], trial_norm[0], g[0]
    return None


def _escapes(beta: np.ndarray, failed: dict) -> None:
    """Put the error of each fit whose constant escaped past the separation
    bound, or whose coefficients diverged, in ``failed``, by position."""
    separated = np.abs(beta[:, 0]) > THETA_SEPARATION_BOUND
    for j in np.flatnonzero(separated | (_norms(beta) > PARAM_DIVERGENCE_NORM)):
        if separated[j]:
            error = Separation(
                f"probit constant escaped past {THETA_SEPARATION_BOUND}; "
                "outcomes are likely separated"
            )
        else:
            error = NoConvergence("probit parameters diverged")
        failed.setdefault(j, error)


def probit_newton_batch(
    designs: Sequence[np.ndarray], ys: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, list[Optional[FewClustersError]]]:
    """Damped Newton from zero on the probit moment conditions of k fits.

    Design i is (m_i, p), with the same p for every fit, and ys[i] holds its
    0/1 outcomes. Each fit halves its own step until its moment norm falls
    and stops on its own; the next Jacobian reuses the accepted step's
    index. Returns the (k, p) coefficients, the (k,) iteration counts and,
    per fit, None or the error that stopped it (its coefficients are then
    meaningless). A fit's result does not depend on the other fits.
    """
    # imported here, once per batch, so that the linear fits never load scipy
    from scipy.special import ndtr

    k, p = len(designs), designs[0].shape[1]
    m = np.array([d.shape[0] for d in designs])
    terms = np.zeros((p + 1, k, m.max()))  # the design columns, then y - 1/2
    y = np.zeros((k, m.max()))
    for i, (design, y01) in enumerate(zip(designs, ys)):
        terms[:p, i, : m[i]] = design.T
        y[i, : m[i]] = y01
    np.subtract(y, 0.5, out=terms[p])
    work = _Work(ndtr, terms[:p], y, m.astype(float), np.arange(k))
    betas = np.zeros((k, p))
    iterations = np.zeros(k, dtype=int)
    errors: list[Optional[FewClustersError]] = [None] * k
    beta = np.zeros((k, p))
    # a fit whose coefficients all lie within ``screen`` has neither escaped
    # past the separation bound nor diverged: its norm is at most
    # sqrt(p) * screen, half the divergence norm
    screen = min(THETA_SEPARATION_BOUND, PARAM_DIVERGENCE_NORM / (2 * np.sqrt(p)))
    # at beta = 0 every index is 0, so exp(-z**2 / 2) is 1 and the link 1/2
    psi, norm, g = work.products(terms)
    for done_steps in range(MAX_NEWTON_ITER + 1):
        failed: dict[int, FewClustersError] = {}
        if done_steps:
            step = _newton_steps(g[:, :p] / work.jac_scale, psi, failed)
            candidate = beta + step
            cand_psi, cand_norm, cand_g = work.evaluate(candidate)
            lower = cand_norm < norm
            if not lower.all():
                # the rare path: only these fits halve their steps
                for j in np.flatnonzero(~lower):
                    halved = None if j in failed else _halve(work, j, beta, step, norm[j])
                    if halved is not None:
                        candidate[j], cand_psi[j], cand_norm[j], cand_g[j] = halved
                    else:
                        failed.setdefault(j, NoConvergence(
                            "probit step halving failed to reduce the moment"
                        ))
            beta, psi, norm, g = candidate, cand_psi, cand_norm, cand_g
            if np.abs(beta).max() > screen:
                _escapes(beta, failed)
        stop = norm < MOMENT_TOL
        if done_steps == MAX_NEWTON_ITER:
            for j in np.flatnonzero(~stop):
                failed.setdefault(j, NoConvergence(
                    f"probit moment norm {norm[j]:.2e} after {MAX_NEWTON_ITER} iterations"
                ))
        if failed:
            stop[list(failed)] = True
        if not stop.any():
            continue
        # the stopped fits leave the work arrays
        for j in np.flatnonzero(stop):
            i = work.ids[j]
            betas[i], iterations[i], errors[i] = beta[j], done_steps, failed.get(j)
        if stop.all():
            break
        kept = np.flatnonzero(~stop)
        work = work.keep(kept)
        beta, psi, norm, g = beta[kept], psi[kept], norm[kept], g[kept]
    return betas, iterations, errors
