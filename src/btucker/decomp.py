"""Tucker solvers and posterior statistics.

Two routes to the same decomposition:

* :func:`hooi`: classic higher-order orthogonal iteration (with
  :func:`hosvd_init` as the standard initializer), the fast solver used by
  default.
* :func:`btud_fit`: the alternating linear-regression solver, where each
  factor row is updated as a (possibly ridge-regularized) least-squares coefficient
  against a design matrix built from the core and the other two factors,
  then re-orthonormalized, with the core re-solved after every component.

A fitted model can be certified as a stationary point of the regression
formulation through :func:`self_consistency_check`, which compares each
factor with the posterior mean computed from the remaining quantities.
Posterior means and covariances follow the standard Gaussian linear-model
formulas: S = (alpha*I + beta*Phi^T Phi)^{-1}, mean = Phi^+ x for alpha = 0
and beta*S*Phi^T x otherwise.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DegenerateComponentError, DegenerateRowError
from .tensor import Tensor3, frobenius_norm, reconstruct, unfold

ORTHONORMALITY_TOL = 1e-6  # factor deviation above which the general core path kicks in
BETA_CAP = 1e12            # reported noise precision for an exactly zero residual

DEFAULT_MAX_ITER = 500
DEFAULT_TOL = 1e-8
ANDERSON_WINDOW = 5        # residual differences in hooi's Anderson extrapolation


@dataclass(frozen=True)
class TuckerModel:
    """Core (L1, L2, L3) plus row-orthonormal factors u1 (L1, N), u2 (L2, M), u3 (L3, K)."""

    core: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray

    def __post_init__(self):
        core = np.asarray(self.core, dtype=np.float64)
        factors = tuple(np.asarray(u, dtype=np.float64) for u in (self.u1, self.u2, self.u3))
        if core.ndim != 3:
            raise ValueError(f"core must be 3-way, got ndim={core.ndim}")
        for m, u in enumerate(factors, start=1):
            if u.ndim != 2:
                raise ValueError(f"factor u{m} must be a matrix")
            rank, dim = u.shape
            if core.shape[m - 1] != rank:
                raise ValueError(f"core axis {m} has {core.shape[m - 1]} entries, u{m} has rank {rank}")
            if not 1 <= rank <= dim:
                raise ValueError(f"rank {rank} of mode {m} must satisfy 1 <= rank <= {dim}")
        object.__setattr__(self, "core", core)
        for name, u in zip(("u1", "u2", "u3"), factors):
            object.__setattr__(self, name, u)

    @property
    def ranks(self) -> tuple[int, int, int]:
        return self.core.shape

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.u1.shape[1], self.u2.shape[1], self.u3.shape[1])

    def factor(self, mode: int) -> np.ndarray:
        return (self.u1, self.u2, self.u3)[mode - 1]

    def orthonormality_defect(self) -> float:
        return max(
            float(np.max(np.abs(u @ u.T - np.eye(u.shape[0]))))
            for u in (self.u1, self.u2, self.u3)
        )


@dataclass(frozen=True)
class PosteriorStats:
    """Per-mode posterior means/covariances plus the core posterior.

    mode_means[m] has shape (L_{m+1}, dim_{m+1}); mode_covs[m] is the shared
    (L, L) covariance of that mode's regression coefficients.  core_mean has
    the core's shape; core_cov covers the vectorized core (first core index
    fastest).
    """

    mode_means: tuple[np.ndarray, np.ndarray, np.ndarray]
    mode_covs: tuple[np.ndarray, np.ndarray, np.ndarray]
    core_mean: np.ndarray
    core_cov: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")


@dataclass
class FitReport:
    """Convergence bookkeeping for a solver run.

    sweeps counts every sweep computed, including :func:`hooi`'s rejected
    extrapolations.  residual_history[0] is the error of the initial model,
    and one entry follows per accepted sweep, so the history never rises.
    stop_reason names the criterion that ended the run: "residual" (the
    relative residual change fell below tol), "factor_tol" (the largest
    entrywise factor change fell below its bound as well) or "max_iter" (the
    sweep budget ran out, converged is False).  extrapolations_accepted and
    extrapolations_rejected count :func:`hooi`'s Anderson steps.
    self_consistent / max_mode_deviation stay None ("not checked") except on
    paths that run the posterior-mean comparison.
    """

    sweeps: int
    residual_history: np.ndarray
    converged: bool
    stop_reason: str
    extrapolations_accepted: int = 0
    extrapolations_rejected: int = 0
    self_consistent: bool | None = None
    max_mode_deviation: float | None = None

    def to_dict(self) -> dict:
        deviation = self.max_mode_deviation
        return {
            "sweeps": self.sweeps,
            "residual_history": [float(x) for x in self.residual_history],
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "extrapolations_accepted": self.extrapolations_accepted,
            "extrapolations_rejected": self.extrapolations_rejected,
            "self_consistent": self.self_consistent,
            "max_mode_deviation": None if deviation is None else float(deviation),
        }


@dataclass(frozen=True)
class ConsistencyCheck:
    """Outcome of comparing a model against its own posterior means."""

    self_consistent: bool
    mode_deviations: np.ndarray  # max |u - m_u| per mode, sign-aligned
    core_deviation: float
    tol: float

    @property
    def max_mode_deviation(self) -> float:
        return float(np.max(self.mode_deviations))


def _validate_ranks(dims, ranks) -> tuple[int, int, int]:
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != 3:
        raise ValueError(f"need three ranks, got {ranks}")
    for m, (r, d) in enumerate(zip(ranks, dims), start=1):
        if not 1 <= r <= d:
            raise ValueError(f"rank {r} of mode {m} must satisfy 1 <= rank <= {d}")
    for m, r in enumerate(ranks, start=1):
        others = ranks[0] * ranks[1] * ranks[2] // r
        if r > others:
            # the mode-m unfolding of the core has at most `others` independent rows
            raise ValueError(
                f"rank {r} of mode {m} exceeds {others}, the product of the other two ranks"
            )
    return ranks


class _HooiWorkspace:
    """Permutation-free GEMM kernels for the HOOI inner loop.

    Holds one contiguous permuted copy of an (N, M, K) array per mode, so the
    array contracted with the factors of the other two modes and unfolded
    along the third costs two matrix products.  Its columns come in another
    order than those of :func:`~btucker.tensor.unfold`, which the left
    singular vectors do not depend on.
    """

    def __init__(self, v: np.ndarray):
        self.dims = v.shape
        self.x1 = np.ascontiguousarray(v)                      # (N, M, K)
        self.x2 = np.ascontiguousarray(v.transpose(1, 2, 0))   # (M, K, N)
        self.x3 = np.ascontiguousarray(v.transpose(2, 1, 0))   # (K, M, N)

    def contracted(self, u1, u2, u3, mode: int) -> np.ndarray:
        n, m, k = self.dims
        if mode == 1:
            y = (self.x1.reshape(n * m, k) @ u3.T).reshape(n, m, -1)
            y = np.ascontiguousarray(y.transpose(0, 2, 1)).reshape(n * u3.shape[0], m)
            return (y @ u2.T).reshape(n, -1)
        if mode == 2:
            y = (self.x2.reshape(m * k, n) @ u1.T).reshape(m, k, -1)
            y = np.ascontiguousarray(y.transpose(0, 2, 1)).reshape(m * u1.shape[0], k)
            return (y @ u3.T).reshape(m, -1)
        y = (self.x3.reshape(k * m, n) @ u1.T).reshape(k, m, -1)
        y = np.ascontiguousarray(y.transpose(0, 2, 1)).reshape(k * u1.shape[0], m)
        return (y @ u2.T).reshape(k, -1)


def _sign_flips(rows: np.ndarray) -> np.ndarray:
    """Global sign rule: -1 for each row whose largest-magnitude entry is negative, else 1."""
    pivot = np.argmax(np.abs(rows), axis=1)
    return np.where(rows[np.arange(rows.shape[0]), pivot] < 0, -1.0, 1.0)


def _top_left_vectors(b: np.ndarray, rank: int) -> np.ndarray:
    """Leading left singular vectors of b as rows, with the global sign rule.

    Eigendecomposes the smaller Gram matrix, b b^T when b is wide and b^T b
    (mapped back through b) when it is tall, as long as the kept spectrum is
    well away from the squared-condition noise floor; falls back to the full
    SVD otherwise.
    """
    wide = b.shape[0] <= b.shape[1]
    vals, vecs = np.linalg.eigh(b @ b.T if wide else b.T @ b)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    if vals[0] > 0 and vals[rank - 1] > 1e-10 * vals[0]:
        if wide:
            u = vecs[:, :rank].T
        else:
            u = (b @ vecs[:, :rank]).T / np.sqrt(vals[:rank])[:, None]
        return u * _sign_flips(u)[:, None]
    return linalg.svd(b, rank=rank).U.T


def _top_eigenvectors(p: np.ndarray, rank: int) -> np.ndarray:
    """Eigenvectors of the `rank` largest eigenvalues of symmetric p as rows, with the sign rule."""
    u = np.linalg.eigh(p)[1][:, : -rank - 1 : -1].T
    return u * _sign_flips(u)[:, None]


def _projectors(u2: np.ndarray, u3: np.ndarray) -> np.ndarray:
    """The mode-2 and mode-3 projectors U^T U, stacked as one vector."""
    return np.concatenate(((u2.T @ u2).ravel(), (u3.T @ u3).ravel()))


def _anderson(pairs) -> np.ndarray:
    """Anderson extrapolation (Walker & Ni 2011, type II) from (input, output) pairs.

    Returns g_k - dG gamma, where gamma fits the last residual f_k = g_k - x_k
    by the differences dF of consecutive residuals in least squares.
    """
    xs = np.array([x for x, _ in pairs])
    gs = np.array([g for _, g in pairs])
    fs = gs - xs
    gamma = np.linalg.lstsq(np.diff(fs, axis=0).T, fs[-1], rcond=None)[0]
    return gs[-1] - np.diff(gs, axis=0).T @ gamma


def hosvd_init(t: Tensor3, ranks) -> TuckerModel:
    """Truncated HOSVD: factor m = leading left singular vectors of unfold(t, m)."""
    ranks = _validate_ranks(t.dims, ranks)
    factors = [linalg.svd(unfold(t, m), rank=ranks[m - 1]).U.T for m in (1, 2, 3)]
    core = core_regression(t, *factors)
    return TuckerModel(core=core, u1=factors[0], u2=factors[1], u3=factors[2])


def hooi(
    t: Tensor3,
    ranks,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    factor_tol: float | None = None,
) -> tuple[TuckerModel, FitReport]:
    """Higher-order orthogonal iteration from an HOSVD start.

    Each sweep updates every factor to the leading left singular vectors
    of the contracted unfolding, then re-solves the core.  Stops when the
    change of the relative reconstruction error (residual Frobenius norm over
    the input norm) falls below `tol`; if `factor_tol` is given, the largest
    entrywise factor change per sweep must also fall below it.  The
    second criterion matters when near-degenerate trailing components keep
    rotating long after the residual has flattened (the regression
    fixed point is only reached once the factors themselves stop moving).

    Two exact shortcuts make each sweep cheaper.  The sweeps run on R from
    one reduced QR, unfold(t, 1) = Q R, so mode 1 has min(N, M*K) rows; the
    contractions, core and residual are those of t, and the mode-1 factor
    lifts back as U1 = V1 Q^T.  Top vectors come from the smaller Gram
    matrix.

    Once the residual criterion holds but the factors still move, the slow
    linear tail is extrapolated.  With the last ANDERSON_WINDOW + 1 kept
    sweeps on record, every plain sweep is followed by one that starts from
    an Anderson extrapolation of their mode-2/3 projectors U^T U (which,
    unlike the factors, carry no basis or sign), retracted to its top
    eigenvectors.  An extrapolated sweep is kept only if the core norm, and
    hence the fit, did not fall; otherwise the history is dropped and the
    iteration resumes from the last kept sweep.  The run stops only after a
    plain sweep, so both criteria keep their meaning.
    """
    ranks = _validate_ranks(t.dims, ranks)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")

    n, m, k = t.dims
    norm_x = frobenius_norm(t)
    scale = norm_x if norm_x > 0 else 1.0
    norm_x_sq = norm_x * norm_x
    q, r = np.linalg.qr(t.values.reshape(n, m * k))
    compressed = r.reshape(-1, m, k)
    model = hosvd_init(Tensor3(compressed), ranks)

    def lift(v1) -> tuple[np.ndarray, np.ndarray]:
        """Mode-1 factor in the coordinates of t with the sign rule, and its row flips."""
        u1 = v1 @ q.T
        flips = _sign_flips(u1)
        return u1 * flips[:, None], flips

    def residual(core_sq, core, v1, u2, u3) -> float:
        # orthonormal factors + projected core: ||resid||^2 = ||x||^2 - ||core||^2;
        # recompute explicitly when cancellation would dominate
        r2 = norm_x_sq - core_sq
        if not np.isfinite(r2):
            raise FloatingPointError("non-finite values during HOOI iteration")
        if r2 > (1e-6 * scale) ** 2:
            return float(np.sqrt(r2))
        approx = np.einsum("abc,ai,bj,ck->ijk", core, v1, u2, u3, optimize=True)
        err = float(np.linalg.norm((compressed - approx).ravel()))
        if not np.isfinite(err):
            raise FloatingPointError("non-finite values during HOOI iteration")
        return err

    l1, l2, l3 = ranks
    v1, u2, u3, core = model.u1, model.u2, model.u3, model.core
    core_sq = float(np.sum(core * core))
    history = [residual(core_sq, core, v1, u2, u3)]
    work = _HooiWorkspace(compressed)
    pairs: deque = deque(maxlen=ANDERSON_WINDOW + 1)
    accelerating = extrapolated = False
    in2, in3 = u2, u3  # mode-2/3 factors the next sweep starts from
    sweeps = accepted = rejected = 0
    stop_reason = "max_iter"
    for _ in range(max_iter):
        s1 = _top_left_vectors(work.contracted(v1, in2, in3, mode=1), l1)
        s2 = _top_left_vectors(work.contracted(s1, in2, in3, mode=2), l2)
        contracted3 = work.contracted(s1, s2, in3, mode=3)
        s3 = _top_left_vectors(contracted3, l3)
        # projected core, reusing the mode-3 contraction (columns are (l1, l2))
        s_core = (s3 @ contracted3).reshape(l3, l1, l2).transpose(1, 2, 0)
        s_core_sq = float(np.sum(s_core * s_core))
        sweeps += 1
        if extrapolated and s_core_sq < core_sq:
            # the extrapolation lost fit: drop it with its history, resume plainly
            rejected += 1
            pairs.clear()
            in2, in3, extrapolated = u2, u3, False
            continue
        accepted += extrapolated
        previous = (v1, u2, u3)
        v1, u2, u3, core, core_sq = s1, s2, s3, s_core, s_core_sq
        history.append(residual(core_sq, core, v1, u2, u3))
        if not extrapolated and abs(history[-2] - history[-1]) / scale < tol:
            if factor_tol is None:
                stop_reason = "residual"
                break
            moved = max(float(np.max(np.abs(a - b))) for a, b in zip((u2, u3), previous[1:]))
            if moved < factor_tol:
                # U1 leaves the compressed coordinates only once U2 and U3 pass
                moved = float(np.max(np.abs(lift(v1)[0] - lift(previous[0])[0])))
            if moved < factor_tol:
                stop_reason = "factor_tol"
                break
            accelerating = True
        if accelerating:
            pairs.append((_projectors(in2, in3), _projectors(u2, u3)))
            if not extrapolated and len(pairs) == pairs.maxlen:
                x = _anderson(pairs)
                in2 = _top_eigenvectors(x[: m * m].reshape(m, m), l2)
                in3 = _top_eigenvectors(x[m * m:].reshape(k, k), l3)
                extrapolated = True
                continue
        in2, in3, extrapolated = u2, u3, False

    u1, flips = lift(v1)
    model = TuckerModel(core=core * flips[:, None, None], u1=u1, u2=u2, u3=u3)
    report = FitReport(
        sweeps=sweeps,
        residual_history=np.array(history),
        converged=stop_reason != "max_iter",
        stop_reason=stop_reason,
        extrapolations_accepted=accepted,
        extrapolations_rejected=rejected,
    )
    return model, report


def design_matrix(model: TuckerModel, mode: int) -> np.ndarray:
    """Regression design for one mode's factor rows.

    For mode 1 this is the (M*K, L1) matrix whose ((j, k), l1) entry is
    sum_{l2, l3} core[l1, l2, l3] * u2[l2, j] * u3[l3, k]; rows are ordered
    exactly like the columns of unfold(t, 1).  Modes 2 and 3 are analogous.
    """
    core, u1, u2, u3 = model.core, model.u1, model.u2, model.u3
    if mode == 1:
        y = np.einsum("abc,bj,ck->akj", core, u2, u3, optimize=True)
    elif mode == 2:
        y = np.einsum("abc,ai,ck->bki", core, u1, u3, optimize=True)
    elif mode == 3:
        y = np.einsum("abc,ai,bj->cji", core, u1, u2, optimize=True)
    else:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    return y.reshape(y.shape[0], -1).T


def core_regression(t: Tensor3, u1: np.ndarray, u2: np.ndarray, u3: np.ndarray) -> np.ndarray:
    """Least-squares core for fixed factors.

    With row-orthonormal factors the solution is the projected core
    G[a,b,c] = sum_{ijk} u1[a,i] u2[b,j] u3[c,k] x[i,j,k]; otherwise the
    general pseudoinverse solution is used (mode products with the
    pseudoinverse of each transposed factor, equivalent to regressing the
    vectorized tensor on the Kronecker design).
    """
    x = t.values
    defect = max(
        float(np.max(np.abs(u @ u.T - np.eye(u.shape[0])))) for u in (u1, u2, u3)
    )
    if defect <= ORTHONORMALITY_TOL:
        return np.einsum("ijk,ai,bj,ck->abc", x, u1, u2, u3, optimize=True)
    p1 = linalg.pseudoinverse(u1).T
    p2 = linalg.pseudoinverse(u2).T
    p3 = linalg.pseudoinverse(u3).T
    return np.einsum("ijk,ai,bj,ck->abc", x, p1, p2, p3, optimize=True)


def posterior_stats(
    t: Tensor3, model: TuckerModel, mode: int, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean matrix and shared covariance for one mode's coefficients.

    Returns (mean, cov) with mean of shape (L, dim), one column per fiber,
    and cov of shape (L, L).  alpha = 0 uses the plain pseudoinverse solution
    and reports cov = (beta * Phi^T Phi)^+; alpha > 0 uses the ridge form.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    if model.dims != t.dims:
        raise ValueError(f"model dims {model.dims} do not match tensor dims {t.dims}")
    phi = design_matrix(model, mode)
    xm = unfold(t, mode)  # rows are fibers, columns match phi rows
    gram = phi.T @ phi
    if alpha == 0.0:
        mean = linalg.pseudoinverse(phi) @ xm.T
        cov = linalg.pseudoinverse(beta * gram)
    else:
        a = alpha * np.eye(gram.shape[0]) + beta * gram
        try:
            cov = np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:  # cannot happen for alpha > 0
            raise RuntimeError("alpha*I + beta*Phi^T Phi reported singular") from exc
        mean = beta * cov @ phi.T @ xm.T
    return mean, 0.5 * (cov + cov.T)


def _core_gram_and_projection(t: Tensor3, model: TuckerModel) -> tuple[np.ndarray, np.ndarray]:
    # Gram of the vectorized-core design factors as kron(G3, G2, G1) so the
    # first core index varies fastest, matching ravel(order="F").
    g1 = model.u1 @ model.u1.T
    g2 = model.u2 @ model.u2.T
    g3 = model.u3 @ model.u3.T
    gram = np.kron(g3, np.kron(g2, g1))
    proj = np.einsum(
        "ijk,ai,bj,ck->abc", t.values, model.u1, model.u2, model.u3, optimize=True
    ).ravel(order="F")
    return gram, proj


def posterior_core_stats(
    t: Tensor3, model: TuckerModel, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean (core-shaped) and covariance of the vectorized core."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    if model.dims != t.dims:
        raise ValueError(f"model dims {model.dims} do not match tensor dims {t.dims}")
    gram, proj = _core_gram_and_projection(t, model)
    if alpha == 0.0:
        mean_vec = linalg.pseudoinverse(gram) @ proj
        cov = linalg.pseudoinverse(beta * gram)
    else:
        a = alpha * np.eye(gram.shape[0]) + beta * gram
        cov = np.linalg.inv(a)
        mean_vec = beta * cov @ proj
    mean = mean_vec.reshape(model.ranks, order="F")
    return mean, 0.5 * (cov + cov.T)


def estimate_beta(t: Tensor3, model: TuckerModel) -> float:
    """Noise precision from the mean squared residual; capped at 1e12 for exact fits."""
    resid = t.values - reconstruct(model).values
    ssq = float(np.sum(resid * resid))
    if ssq == 0.0:
        return BETA_CAP
    return t.values.size / ssq


def btud_fit(
    t: Tensor3,
    init: TuckerModel,
    alpha: float = 0.0,
    max_sweeps: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> tuple[TuckerModel, PosteriorStats, FitReport]:
    """Alternating-regression Tucker solver.

    One sweep visits modes 1, 2, 3 in order.  Within a mode, components are
    processed one at a time: the design matrix is rebuilt from the current
    core and other factors, the component's coefficients for every fiber are
    solved in one factorization (pseudoinverse for alpha = 0, ridge with the
    pseudoinverse of Phi^T Phi + alpha*I otherwise), the row is orthogonalized
    against earlier rows and normalized, and the core is re-solved.  Sweeps
    stop when the largest entrywise factor change falls below `tol` (stop
    reason "factor_tol").
    """
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    if init.dims != t.dims:
        raise ValueError(f"init dims {init.dims} do not match tensor dims {t.dims}")

    factors = [init.u1.copy(), init.u2.copy(), init.u3.copy()]
    core = init.core.copy()
    unfoldings = {mode: unfold(t, mode) for mode in (1, 2, 3)}

    def current_model() -> TuckerModel:
        return TuckerModel(core=core, u1=factors[0], u2=factors[1], u3=factors[2])

    def residual() -> float:
        return float(np.linalg.norm((t.values - reconstruct(current_model()).values).ravel()))

    history = [residual()]
    converged = False
    sweeps = 0
    beta = estimate_beta(t, current_model())
    for _ in range(max_sweeps):
        before = [u.copy() for u in factors]
        for mode in (1, 2, 3):
            u = factors[mode - 1]
            xm = unfoldings[mode]
            for comp in range(u.shape[0]):
                phi = design_matrix(current_model(), mode)
                if alpha == 0.0:
                    coef = linalg.pseudoinverse(phi) @ xm.T
                else:
                    ridge = linalg.pseudoinverse(phi.T @ phi + alpha * np.eye(phi.shape[1]))
                    coef = ridge @ phi.T @ xm.T
                u[comp] = coef[comp]
                try:
                    factors[mode - 1] = linalg.orthonormalize_rows(u, comp)
                except DegenerateRowError as exc:
                    raise DegenerateComponentError(mode, comp) from exc
                u = factors[mode - 1]
                core = core_regression(t, *factors)
        sweeps += 1
        beta = estimate_beta(t, current_model())
        history.append(residual())
        delta = max(float(np.max(np.abs(a - b))) for a, b in zip(factors, before))
        if delta < tol:
            converged = True
            break

    model = current_model()
    stats = _full_posterior(t, model, alpha, beta)
    check = self_consistency_check(t, model, alpha=alpha, beta=beta, tol=tol, stats=stats)
    report = FitReport(
        sweeps=sweeps,
        residual_history=np.array(history),
        converged=converged,
        stop_reason="factor_tol" if converged else "max_iter",
        self_consistent=check.self_consistent,
        max_mode_deviation=check.max_mode_deviation,
    )
    return model, stats, report


def _full_posterior(t: Tensor3, model: TuckerModel, alpha: float, beta: float) -> PosteriorStats:
    means, covs = [], []
    for mode in (1, 2, 3):
        m, s = posterior_stats(t, model, mode, alpha, beta)
        means.append(m)
        covs.append(s)
    core_mean, core_cov = posterior_core_stats(t, model, alpha, beta)
    return PosteriorStats(
        mode_means=tuple(means),
        mode_covs=tuple(covs),
        core_mean=core_mean,
        core_cov=core_cov,
        alpha=alpha,
        beta=beta,
    )


def self_consistency_check(
    t: Tensor3,
    model: TuckerModel,
    alpha: float,
    beta: float,
    tol: float = 1e-6,
    stats: PosteriorStats | None = None,
) -> ConsistencyCheck:
    """Compare the model's factors and core with their own posterior means.

    Rows of each posterior mean are sign-flipped toward the corresponding
    factor row first (the decomposition carries no sign information).  The
    model is accepted when every deviation is at most `tol`.
    """
    if stats is None:
        stats = _full_posterior(t, model, alpha, beta)
    deviations = []
    for mode in (1, 2, 3):
        u = model.factor(mode)
        m = stats.mode_means[mode - 1].copy()
        flips = np.where(np.sum(m * u, axis=1) < 0, -1.0, 1.0)
        m *= flips[:, None]
        deviations.append(float(np.max(np.abs(u - m))))
    core_dev = float(np.max(np.abs(model.core - stats.core_mean)))
    ok = bool(max(max(deviations), core_dev) <= tol)
    return ConsistencyCheck(
        self_consistent=ok,
        mode_deviations=np.array(deviations),
        core_deviation=core_dev,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# Model serialization: one JSON document; numbers survive the round trip
# exactly (shortest-repr float encoding).
# ---------------------------------------------------------------------------

def save_model(model: TuckerModel, path, beta: float | None = None,
               alpha: float | None = None, report: FitReport | None = None) -> None:
    doc = {
        "ranks": list(model.ranks),
        "dims": list(model.dims),
        "core": model.core.ravel(order="F").tolist(),
        "u1": model.u1.tolist(),
        "u2": model.u2.tolist(),
        "u3": model.u3.tolist(),
    }
    if alpha is not None:
        doc["alpha"] = float(alpha)
    if beta is not None:
        doc["beta"] = float(beta)
    if report is not None:
        doc["fit_report"] = report.to_dict()
    with open(path, "w") as fh:
        json.dump(doc, fh, allow_nan=False)
        fh.write("\n")


def load_model(path) -> tuple[TuckerModel, dict]:
    """Returns the model plus the remaining metadata fields (alpha, beta, fit_report)."""
    with open(path) as fh:
        doc = json.load(fh)
    ranks = tuple(doc["ranks"])
    core = np.array(doc["core"], dtype=np.float64).reshape(ranks, order="F")
    model = TuckerModel(
        core=core,
        u1=np.array(doc["u1"], dtype=np.float64),
        u2=np.array(doc["u2"], dtype=np.float64),
        u3=np.array(doc["u3"], dtype=np.float64),
    )
    meta = {k: doc[k] for k in ("alpha", "beta", "fit_report") if k in doc}
    return model, meta
