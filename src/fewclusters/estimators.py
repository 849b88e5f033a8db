"""Per-cluster estimators feeding the placebo test, and the one fit path.

Every fit, per cluster, per matched pair or pooled, reads its rows of a
dataset's columns through the row offsets: :func:`stacked_design` builds its
design, and :func:`fit_groups` gives each group of clusters its coefficients
or its error. A per-cluster fit returns one scalar: the
regression intercept, the post-period slope, or the probit constant. The
linear fits of a batch share :func:`least_squares`, a few QR calls and one
triangular solve. The probit fit solves the raw moment condition (indicator
minus link), not the likelihood score, via damped Newton iteration.
:func:`probit_newton_batch` runs many such fits at once. Either way each
fit gets the same bits as on its own. Only the probit code loads
``scipy.special``, when it first runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    Cluster,
    ClusterDataset,
    EstimateVector,
    EstimationError,
    FewClustersError,
    MissingPeriodFlag,
    RankDeficient,
    Separation,
    NoConvergence,
    each,
    unwrap,
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


# a design whose smallest singular value is below RANK_TOL * max(largest, 1)
# is rank deficient
RANK_TOL = 1e-10


def _padded_rows(m: int, columns: int) -> int:
    """Rows of an (m, columns) block once zero padded: the next power of two
    of max(m, columns). A block's padding depends on its own size only."""
    return 1 << (max(m, columns) - 1).bit_length()


def qr_factors(designs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> np.ndarray:
    """The (k, p + 1, p + 1) R factors of the k blocks [design | y].

    Each block is zero padded to :func:`_padded_rows` rows, which leaves
    X'X and X'y as they are, and the blocks of one padded size are factored
    by one ``np.linalg.qr`` call. LAPACK factors each block on its own, so
    its R has the same bits in any batch.
    """
    c = designs[0].shape[1] + 1
    sizes = [_padded_rows(d.shape[0], c) for d in designs]
    r = np.empty((len(designs), c, c))
    for size in set(sizes):
        index = [i for i, s in enumerate(sizes) if s == size]
        stack = np.zeros((len(index), size, c))
        for j, i in enumerate(index):
            m = designs[i].shape[0]
            stack[j, :m, :-1] = designs[i]
            stack[j, :m, -1] = ys[i]
        # "raw" leaves R in the upper triangle of each transposed factor
        raw, _ = np.linalg.qr(stack, mode="raw")
        r[index] = raw[:, :, :c].swapaxes(1, 2)
    return np.where(np.arange(c)[:, None] <= np.arange(c), r, 0.0)


def solve_factors(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve R_x [b | S] = [R[:p, p] | I] for each (p + 1, p + 1) factor R,
    R_x its leading (p, p) block, and apply the rank rule to R_x.

    Returns the (k, p, p + 1) solutions, b the coefficients and S = R_x^-1,
    and where the rule fails. R_x has the singular values of the design.
    The rule fails for sure when min |r_ii|, at least the smallest singular
    value, is below half of RANK_TOL * max(max |r_ij|, 1); and it passes for
    sure when p max |s_ij| * max(p max |r_ij|, 1), at least max(largest,
    1) / smallest, is at most 1 / (2 RANK_TOL). An SVD decides the rest. A
    failing R_x is solved as the identity, so it cannot stop the batch.
    """
    k, c = r.shape[:2]
    p = c - 1
    r_x = r[:, :p, :p]
    top = np.abs(r_x).max(axis=(1, 2))
    floor = RANK_TOL * np.maximum(top, 1.0)
    failed = np.abs(np.diagonal(r_x, axis1=1, axis2=2)).min(axis=1) < 0.5 * floor
    if failed.any():
        r_x = np.where(failed[:, None, None], np.eye(p), r_x)
    rhs = np.zeros((k, p, c))
    rhs[:, :, 0] = r[:, :p, p]
    rhs[:, range(p), range(1, c)] = 1.0
    solution = np.linalg.solve(r_x, rhs)
    bound = p * np.abs(solution[:, :, 1:]).max(axis=(1, 2)) * np.maximum(p * top, 1.0)
    unsure = ~failed & (2.0 * RANK_TOL * bound > 1.0)
    if unsure.any():
        sv = np.linalg.svd(r_x[unsure], compute_uv=False)
        failed[unsure] = sv[:, -1] < RANK_TOL * np.maximum(sv[:, 0], 1.0)
    return solution, failed


def least_squares(
    designs: Sequence[np.ndarray], ys: Sequence[np.ndarray]
) -> list[np.ndarray | RankDeficient]:
    """The (p,) coefficients of each ys[i] on designs[i] (m_i, p), or the
    RankDeficient that stops the fit; the same p for every fit.

    The one solver and rank rule of every linear fit: RankDeficient when
    m < p or when the smallest singular value of the design is below
    RANK_TOL * max(largest, 1), read from the R factor of its QR. A fit's
    result does not depend on the other fits.
    """
    fits: list = [None] * len(designs)
    kept = []
    for i, design in enumerate(designs):
        m, p = design.shape
        if m < p:
            fits[i] = RankDeficient(f"{m} observations cannot identify {p} coefficients")
        else:
            kept.append(i)
    if kept:
        r = qr_factors([designs[i] for i in kept], [ys[i] for i in kept])
        solution, failed = solve_factors(r)
        for j, i in enumerate(kept):
            fits[i] = (
                RankDeficient("design matrix is rank deficient") if failed[j]
                else solution[j, :, 0]
            )
    return fits


def stacked_design(dataset: ClusterDataset, dummy: Optional[str] = None) -> np.ndarray:
    """The design of all the dataset's rows: the intercept, the dummy and
    the covariates. ``dummy`` is None (no column), "post" (the post-period
    flags, else MissingPeriodFlag) or "treated". A group of clusters is
    fitted on their rows of it, stacked by :func:`_rows`.
    """
    lead = {None: 1, "post": 2, "treated": 2}[dummy]
    if dummy == "post" and dataset.post is None:
        raise MissingPeriodFlag("no post indicator")
    design = np.empty((dataset.n, lead + dataset.covariates.shape[1]))
    design[:, 0] = 1.0
    if dummy == "post":
        design[:, 1] = dataset.post
    elif dummy == "treated":
        design[:, 1] = np.arange(dataset.n) < dataset.offsets[dataset.layout.q1]
    design[:, lead:] = dataset.covariates
    return design


def _rows(column: np.ndarray, offsets: np.ndarray, members: Sequence[int]) -> np.ndarray:
    """The rows of clusters ``members`` of a column, stacked in order: a view
    of one cluster's rows, or one concatenation."""
    if len(members) == 1:
        return column[offsets[members[0]] : offsets[members[0] + 1]]
    return np.concatenate([column[offsets[k] : offsets[k + 1]] for k in members])


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


def _successes(y: np.ndarray, starts) -> tuple[np.ndarray, np.ndarray]:
    """0/1 indicators of the outcomes y, a strictly positive one a success,
    and whether each cluster's, from its start on, are all one value."""
    y01 = (y > 0).astype(float)
    return y01, np.minimum.reduceat(y01, starts) == np.maximum.reduceat(y01, starts)


def fit_groups(
    datasets: Sequence[ClusterDataset],
    groups: Sequence[Sequence[Sequence[int]]],
    dummy: Optional[str] = None,
    probit: bool = False,
) -> list[tuple[np.ndarray, int] | FewClustersError]:
    """Each group's coefficients and Newton iterations, or the error that
    stopped its fit, in order; a failed fit never raises.

    groups[j] lists the groups of datasets[j], each the indices of its
    clusters: one cluster, or the two of a matched pair. A group is fitted
    on its clusters' rows of the dataset's :func:`stacked_design`, all
    groups as one batch: by :func:`least_squares` or by
    :func:`probit_newton_batch`. A probit group needs both outcome values
    in each cluster: the intercept and the dummy span each cluster's
    indicator, so a constant outcome leaves the moment condition no zero.
    """
    fits: list = []
    batch = []  # the position, design and outcomes of each group to fit
    for dataset, members in zip(datasets, groups):
        try:
            design = stacked_design(dataset, dummy)
        except FewClustersError as exc:
            fits += [exc] * len(members)
            continue
        y, offsets = dataset.outcomes, dataset.offsets
        if probit:
            y, constant = _successes(y, offsets[:-1])
        for group in members:
            if probit and constant[list(group)].any():
                fits.append(Separation("constant binary outcome"))
            else:
                rows = _rows(design, offsets, group), _rows(y, offsets, group)
                batch.append((len(fits), *rows))
                fits.append(None)
    if batch:
        index, designs, ys = zip(*batch)
        for i, fit in zip(index, _fit(designs, ys, probit)):
            fits[i] = fit
    return fits


def _fit(designs, ys, probit: bool) -> list[tuple[np.ndarray, int] | FewClustersError]:
    """Each design's coefficients and Newton iterations, or its error."""
    if probit:
        betas, iterations, errors = probit_newton_batch(designs, ys)
        return [e or (beta, int(n)) for beta, n, e in zip(betas, iterations, errors)]
    fits = least_squares(designs, ys)
    return [f if isinstance(f, RankDeficient) else (f, 0) for f in fits]


def thetas(
    datasets: Sequence[ClusterDataset],
    groups: Sequence[Sequence[Sequence[int]]],
    dummy: Optional[str] = None,
    probit: bool = False,
) -> list[np.ndarray | EstimationError]:
    """θ of each group's :func:`fit_groups` fit, per dataset: the dummy's
    coefficient, or the intercept when there is no dummy. A dataset with a
    failed fit gets instead an EstimationError naming the first failed
    cluster, and a pair's partner."""
    theta = 0 if dummy is None else 1
    fits = iter(fit_groups(datasets, groups, dummy, probit))

    def values(dataset, own):
        for group, fit in own:
            if isinstance(fit, FewClustersError):
                partner = dataset.ids[group[1]] if len(group) > 1 else None
                raise EstimationError(dataset.ids[group[0]], fit, partner) from fit
        return np.array([fit[0][theta] for _, fit in own])

    # zip takes from ``fits`` only as many as the dataset has groups
    return each(values, datasets, [list(zip(members, fits)) for members in groups])


# estimator -> (dummy, probit) of its per-cluster fit
ESTIMATORS: dict[str, tuple[Optional[str], bool]] = {
    "ols_intercept": (None, False),
    "did_slope": ("post", False),
    "probit": (None, True),
}


def _fit_one(cluster: Cluster, probit: bool) -> FitResult:
    """The intercept of one cluster's fit on (1, covariates), its design
    built from the cluster's own columns; a failed fit raises its own error."""
    design = np.column_stack([np.ones(cluster.size), cluster.covariate_matrix])
    y = cluster.outcomes
    if probit:
        y, constant = _successes(y, [0])
        if constant[0]:
            raise Separation("constant binary outcome")
    (fit,) = _fit([design], [y], probit)
    if isinstance(fit, FewClustersError):
        raise fit
    return FitResult(float(fit[0][0]), fit[0][1:], fit[1])


def ols_intercept(cluster: Cluster) -> FitResult:
    """Intercept of the within-cluster regression of outcome on covariates."""
    return _fit_one(cluster, probit=False)


def probit_z_estimate(cluster: Cluster) -> FitResult:
    """Probit constant (and covariate slopes) from the raw moment condition.

    Outcomes are interpreted as successes when strictly positive. Both
    outcome values must be present, otherwise the moment condition has no
    zero and a Separation error is raised.
    """
    return _fit_one(cluster, probit=True)


def estimate_all(dataset: ClusterDataset, method: str) -> EstimateVector:
    """Apply a per-cluster fit to every cluster in canonical order, all fits
    as one batch; the first failing cluster raises EstimationError."""
    return unwrap(estimate_many([dataset], method)[0])


def estimate_many(
    datasets: Sequence[ClusterDataset], method: str
) -> list[EstimateVector | FewClustersError]:
    """:func:`estimate_all` of each dataset, the fits of all of them as one
    batch: each estimate has the bits it has alone, and a dataset whose
    estimation fails gets the error :func:`estimate_all` raises for it."""
    try:
        dummy, probit = ESTIMATORS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; expected one of {sorted(ESTIMATORS)}"
        ) from None
    groups = [[(k,) for k in range(d.layout.q)] for d in datasets]
    values = thetas(datasets, groups, dummy, probit)
    return each(lambda v, d: EstimateVector(v, d.layout), values, datasets)
