"""Tucker solvers and posterior statistics.

Two routes to the same decomposition: :func:`hooi`, higher-order orthogonal
iteration from :func:`hosvd_init` (the default), and :func:`btud_fit`, which
updates each factor row as a (possibly ridge-regularized) least-squares
coefficient against the design Phi built from the core and the other two
factors, re-orthonormalizes it and re-solves the core after every component.
:func:`self_consistency_check` certifies a model as a stationary point of the
regression by comparing each factor with its posterior mean.

Every contraction of the data goes through one kernel, Y(m): the data
contracted with the factors of the two other modes b, c and unfolded along
mode m.  With G(m) the core unfolded in the same column order, for any
factors, orthonormal or not,

    Phi(m)^T X(m)^T = G(m) Y(m)^T,
    Phi(m)^T Phi(m) = G(m) (Ub Ub^T kron Uc Uc^T) G(m)^T,

so the (M*K, L) design Phi(m) is never formed (the tests keep it as the
reference) and every regression is one L x L solve,
pinv(gram + ridge*I) @ rhs, for alpha = 0 and alpha > 0 alike.  The
posterior is S = pinv(alpha*I + beta*Phi^T Phi) with mean beta*S*Phi^T x.
The pseudoinverse of the L x L Gram drops eigenvalues below 1e-12 * L times
the largest: singular values of Phi below sqrt(1e-12 * L) times the largest.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DegenerateComponentError, DegenerateRowError, FileFormatError
from .tensor import Tensor3, frobenius_norm, reconstruct, unfold

ORTHONORMALITY_TOL = 1e-6  # factor deviation above which the core solve uses pinv(u)^T
BETA_CAP = 1e12            # reported noise precision for an exactly zero residual
NOISE_FLOOR = 1e-10        # squared singular values below this times the largest are noise

DEFAULT_MAX_ITER = 20000
DEFAULT_TOL = 1e-8
DEFAULT_FACTOR_TOL = 1e-7
SELF_CONSISTENCY_TOL = 1e-6  # largest factor or core deviation from the posterior mean
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
    stop_reason names the criterion that ended the run: "factor_tol" (the
    largest entrywise factor change fell below its bound, for :func:`hooi`
    once the relative residual change had fallen below tol) or "max_iter"
    (the sweep budget ran out, converged is False).  extrapolations_accepted
    and extrapolations_rejected count :func:`hooi`'s Anderson steps.
    final_factor_change is the last largest entrywise factor change the
    solver measured, None if it measured none (:func:`hooi` measures it only
    once the residual criterion holds).
    self_consistent / max_mode_deviation stay None ("not checked") except on
    paths that run the posterior-mean comparison.
    """

    sweeps: int
    residual_history: np.ndarray
    converged: bool
    stop_reason: str
    extrapolations_accepted: int = 0
    extrapolations_rejected: int = 0
    final_factor_change: float | None = None
    self_consistent: bool | None = None
    max_mode_deviation: float | None = None

    def to_dict(self) -> dict:
        change, deviation = self.final_factor_change, self.max_mode_deviation
        return {
            "sweeps": self.sweeps,
            "residual_history": [float(x) for x in self.residual_history],
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "extrapolations_accepted": self.extrapolations_accepted,
            "extrapolations_rejected": self.extrapolations_rejected,
            "final_factor_change": None if change is None else float(change),
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


# Per mode: (mode, p, q), the axes of the kernel's permuted copy of the data.
_KERNEL_AXES = {1: (0, 1, 2), 2: (1, 2, 0), 3: (2, 1, 0)}


class _ContractionKernel:
    """The one contraction of the data that every solver and posterior here uses.

    contracted(u1, u2, u3, m) is Y(m): the (N, M, K) array contracted with
    the factors of its axes q, then p (u_m is ignored), as two matrix
    products on a contiguous permuted copy made on first use of the mode
    (the first one wide, u_q times the transposed copy, which BLAS runs
    faster than the same product taken tall).  Columns run over (q, p), p
    fastest, as in :func:`_core_unfolding`; the left singular vectors HOOI
    takes do not depend on the column order.
    """

    def __init__(self, v: np.ndarray):
        self.values = v
        self._copies: dict[int, np.ndarray] = {}

    def contracted(self, u1, u2, u3, mode: int) -> np.ndarray:
        _, p, q = axes = _KERNEL_AXES[mode]
        x = self._copies.get(mode)
        if x is None:
            x = self._copies[mode] = np.ascontiguousarray(self.values.transpose(axes))
        factors = (u1, u2, u3)
        d, dp, dq = x.shape
        y = (factors[q] @ x.reshape(d * dp, dq).T).reshape(-1, dp) @ factors[p].T
        return y.reshape(-1, d, y.shape[1]).transpose(1, 0, 2).reshape(d, -1)


def _core_unfolding(core: np.ndarray, mode: int) -> np.ndarray:
    """G(m): the core unfolded along `mode` in the column order of the kernel's Y(m)."""
    m, p, q = _KERNEL_AXES[mode]
    return core.transpose(m, q, p).reshape(core.shape[m], -1)


def _fold_core(g: np.ndarray, mode: int, ranks) -> np.ndarray:
    """Inverse of :func:`_core_unfolding` for a core of shape `ranks`."""
    m, p, q = _KERNEL_AXES[mode]
    return g.reshape(ranks[m], ranks[q], ranks[p]).transpose(np.argsort((m, q, p)))


def _kron_gram(factors, mode: int) -> np.ndarray:
    """Ub Ub^T kron Uc Uc^T over the two other modes, so Phi^T Phi = G(m) (this) G(m)^T."""
    _, p, q = _KERNEL_AXES[mode]
    return np.kron(factors[q] @ factors[q].T, factors[p] @ factors[p].T)


def _core_factor(u: np.ndarray) -> np.ndarray:
    """The core solve's map: u, or pinv(u)^T if u is over ORTHONORMALITY_TOL from orthonormal."""
    defect = float(np.max(np.abs(u @ u.T - np.eye(u.shape[0]))))
    return u if defect <= ORTHONORMALITY_TOL else linalg.pseudoinverse(u).T


def _top_left_vectors(b: np.ndarray, rank: int) -> np.ndarray:
    """Leading left singular vectors of b as rows, with the global sign rule.

    Eigendecomposes the smaller Gram matrix, b b^T when b is wide and b^T b
    (mapped back through b) when it is tall, as long as the kept spectrum is
    well away from the squared-condition noise floor; falls back to the SVD
    otherwise.  There, the vectors of squared singular values below the same
    floor are rounding noise, so they are replaced by the identity's first
    columns orthonormalized against the others: the result then moves
    continuously with b instead of jumping with its last bits.
    """
    wide = b.shape[0] <= b.shape[1]
    vals, vecs = np.linalg.eigh(b @ b.T if wide else b.T @ b)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    if vals[0] > 0 and vals[rank - 1] > NOISE_FLOOR * vals[0]:
        if wide:
            u = vecs[:, :rank].T
        else:
            u = (b @ vecs[:, :rank]).T / np.sqrt(vals[:rank])[:, None]
    else:
        res = linalg.svd(b, rank=rank)
        kept = res.U[:, res.s**2 > NOISE_FLOOR * res.s[0] ** 2]
        u = np.linalg.qr(np.hstack((kept, np.eye(b.shape[0], rank))))[0][:, :rank].T
    return u * linalg._sign_flips(u)[:, None]


def _top_eigenvectors(p: np.ndarray, rank: int) -> np.ndarray:
    """Eigenvectors of the `rank` largest eigenvalues of symmetric p as rows, with the sign rule."""
    u = np.linalg.eigh(p)[1][:, : -rank - 1 : -1].T
    return u * linalg._sign_flips(u)[:, None]


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
    factors = [_top_left_vectors(unfold(t, m), ranks[m - 1]) for m in (1, 2, 3)]
    core = core_regression(t, *factors)
    return TuckerModel(core=core, u1=factors[0], u2=factors[1], u3=factors[2])


def hooi(
    t: Tensor3,
    ranks,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    factor_tol: float = DEFAULT_FACTOR_TOL,
) -> tuple[TuckerModel, FitReport]:
    """Higher-order orthogonal iteration from an HOSVD start.

    Each sweep updates every factor to the leading left singular vectors
    of the contracted unfolding, then re-solves the core.  Stops when the
    change of the relative reconstruction error (residual Frobenius norm over
    the input norm) falls below `tol` and the largest entrywise factor change
    of the sweep falls below `factor_tol`.  The residual alone flattens long
    before near-degenerate trailing components stop rotating; the regression
    fixed point that :func:`self_consistency_check` certifies is reached only
    once the factors themselves stop moving.

    Each sweep contracts the data once.  The sweeps run on R from one QR,
    unfold(t, 1) = Q R, of which only R is formed, so mode 1 has
    min(N, M*K) rows; the contractions, core and residual are those of t.
    Mode 1 contracts R with the mode-2/3 factors W; the new mode-1 factor V1
    then gives Z = V1 unfold(R, 1), an (L1, M, K) tensor from which modes 2
    and 3 and the projected core follow.  Top vectors come from the smaller
    Gram matrix.  The returned U1 is computed once from the data, as the top
    left singular vectors of unfold(t, 1) W for the W that V1 came from:
    that matrix is Q R W, so this is V1 Q^T without Q.  The factor_tol test
    of U1 takes the same lift, and the returned core is recomputed from the
    returned factors.

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
    for name, value in (("tol", tol), ("factor_tol", factor_tol)):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")

    n, m, k = t.dims
    l1, l2, l3 = ranks
    norm_x = frobenius_norm(t)
    scale = norm_x if norm_x > 0 else 1.0
    norm_x_sq = norm_x * norm_x
    r = np.linalg.qr(t.values.reshape(n, m * k), mode="r")
    compressed = r.reshape(-1, m, k)
    model = hosvd_init(Tensor3(compressed), ranks)
    data = _ContractionKernel(t.values)

    def lift(w2, w3) -> np.ndarray:
        """U1 from the data: the top-l1 left singular vectors of X(1) W, W from w2 and w3."""
        return _top_left_vectors(data.contracted(None, w2, w3, mode=1), l1)

    def residual(core_sq, core, v1, u2, u3) -> float:
        # orthonormal factors + projected core (axes 3, 1, 2): ||resid||^2 = ||x||^2 - ||core||^2;
        # recompute explicitly when cancellation would dominate
        r2 = norm_x_sq - core_sq
        if not np.isfinite(r2):
            raise FloatingPointError("non-finite values during HOOI iteration")
        if r2 > (1e-6 * scale) ** 2:
            return float(np.sqrt(r2))
        approx = np.einsum("cab,ai,bj,ck->ijk", core, v1, u2, u3, optimize=True)
        err = float(np.linalg.norm((compressed - approx).ravel()))
        if not np.isfinite(err):
            raise FloatingPointError("non-finite values during HOOI iteration")
        return err

    v1, u2, u3, core = model.u1, model.u2, model.u3, model.core.transpose(2, 0, 1)
    core_sq = float(np.sum(core * core))
    history = [residual(core_sq, core, v1, u2, u3)]
    work = _ContractionKernel(compressed)
    eye = np.eye(l1)  # Z already carries the mode-1 factor
    # the W that v1 came from: the HOSVD start's is the identity
    w = (np.eye(m), np.eye(k))
    pairs: deque = deque(maxlen=ANDERSON_WINDOW + 1)
    accelerating = extrapolated = False
    in2, in3 = u2, u3  # mode-2/3 factors the next sweep starts from
    sweeps = accepted = rejected = 0
    moved = None
    stop_reason = "max_iter"
    for _ in range(max_iter):
        s1 = _top_left_vectors(work.contracted(v1, in2, in3, mode=1), l1)
        z = _ContractionKernel((s1 @ r).reshape(l1, m, k))
        s2 = _top_left_vectors(z.contracted(eye, in2, in3, mode=2), l2)
        contracted3 = z.contracted(eye, s2, in3, mode=3)
        s3 = _top_left_vectors(contracted3, l3)
        # projected core from the mode-3 contraction, kept unfolded: (L3, L1, L2)
        s_core = (s3 @ contracted3).reshape(l3, l1, l2)
        s_core_sq = float(np.vdot(s_core, s_core))
        sweeps += 1
        if extrapolated and s_core_sq < core_sq:
            # the extrapolation lost fit: drop it with its history, resume plainly
            rejected += 1
            pairs.clear()
            in2, in3, extrapolated = u2, u3, False
            continue
        accepted += extrapolated
        previous = (w, u2, u3)
        v1, w, u2, u3, core, core_sq = s1, (in2, in3), s2, s3, s_core, s_core_sq
        history.append(residual(core_sq, core, v1, u2, u3))
        if not extrapolated and abs(history[-2] - history[-1]) / scale < tol:
            moved = max(float(np.max(np.abs(a - b))) for a, b in zip((u2, u3), previous[1:]))
            if moved < factor_tol:
                # U1 leaves the compressed coordinates only once U2 and U3 pass
                moved = max(moved, float(np.max(np.abs(lift(*w) - lift(*previous[0])))))
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

    u1 = lift(*w)
    core = _fold_core(u1 @ data.contracted(u1, u2, u3, mode=1), 1, ranks)
    model = TuckerModel(core=core, u1=u1, u2=u2, u3=u3)
    report = FitReport(
        sweeps=sweeps,
        residual_history=np.array(history),
        converged=stop_reason != "max_iter",
        stop_reason=stop_reason,
        extrapolations_accepted=accepted,
        extrapolations_rejected=rejected,
        final_factor_change=moved,
    )
    return model, report


def core_regression(t: Tensor3, u1: np.ndarray, u2: np.ndarray, u3: np.ndarray) -> np.ndarray:
    """Least-squares core for fixed factors.

    The data are contracted with pinv(u_m)^T in every mode, which solves the
    regression of the vectorized tensor on the Kronecker design.  A factor
    whose rows are orthonormal to ORTHONORMALITY_TOL enters as itself, so
    row-orthonormal factors give the projected core
    G[a,b,c] = sum_{ijk} u1[a,i] u2[b,j] u3[c,k] x[i,j,k].
    """
    p = [_core_factor(u) for u in (u1, u2, u3)]
    y = _ContractionKernel(t.values).contracted(*p, 3)
    return _fold_core(p[2] @ y, 3, [u.shape[0] for u in p])


def _check_posterior_args(t: Tensor3, model: TuckerModel, alpha: float, beta: float) -> None:
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    if model.dims != t.dims:
        raise ValueError(f"model dims {model.dims} do not match tensor dims {t.dims}")


def _gaussian_posterior(gram, rhs, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean pinv(gram + alpha/beta I) rhs and covariance pinv(alpha I + beta gram), symmetrized."""
    inv = linalg.pseudoinverse(gram + (alpha / beta) * np.eye(gram.shape[0]))
    cov = inv / beta
    return inv @ rhs, 0.5 * (cov + cov.T)


def _mode_posterior(work: _ContractionKernel, model: TuckerModel, mode: int,
                    alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    factors = (model.u1, model.u2, model.u3)
    g = _core_unfolding(model.core, mode)
    gram = g @ _kron_gram(factors, mode) @ g.T
    return _gaussian_posterior(gram, g @ work.contracted(*factors, mode).T, alpha, beta)


def _core_posterior(work: _ContractionKernel, model: TuckerModel,
                    alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    u1, u2, u3 = model.u1, model.u2, model.u3
    # Gram of the vectorized-core design as kron(G3, G2, G1) so the first
    # core index varies fastest, matching ravel(order="F").
    gram = np.kron(u3 @ u3.T, np.kron(u2 @ u2.T, u1 @ u1.T))
    proj = _fold_core(u3 @ work.contracted(u1, u2, u3, 3), 3, model.ranks)
    mean, cov = _gaussian_posterior(gram, proj.ravel(order="F"), alpha, beta)
    return mean.reshape(model.ranks, order="F"), cov


def posterior_stats(
    t: Tensor3, model: TuckerModel, mode: int, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean matrix and shared covariance for one mode's coefficients.

    Returns (mean, cov) with mean of shape (L, dim), one column per fiber,
    and cov = (alpha*I + beta*Phi^T Phi)^+ of shape (L, L); the mean is
    beta * cov @ Phi^T X^T, the least-squares solution at alpha = 0.
    """
    if mode not in _KERNEL_AXES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    _check_posterior_args(t, model, alpha, beta)
    return _mode_posterior(_ContractionKernel(t.values), model, mode, alpha, beta)


def _noise_precision(resid: np.ndarray) -> float:
    ssq = float(np.sum(resid * resid))
    return BETA_CAP if ssq == 0.0 else resid.size / ssq


def estimate_beta(t: Tensor3, model: TuckerModel) -> float:
    """Noise precision from the mean squared residual; capped at 1e12 for exact fits."""
    return _noise_precision(t.values - reconstruct(model).values)


def btud_fit(
    t: Tensor3,
    init: TuckerModel,
    alpha: float = 0.0,
    max_sweeps: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> tuple[TuckerModel, PosteriorStats, FitReport]:
    """Alternating-regression Tucker solver.

    One sweep visits modes 1, 2, 3 in order.  Within a mode, components are
    processed one at a time: the coefficients of every fiber are solved as
    pinv(Phi^T Phi + alpha*I) Phi^T X^T for the current core and other
    factors, the component's row is orthogonalized against earlier rows and
    normalized, and the core is re-solved.  The other two factors stay fixed
    within a mode, so Y(m) is contracted once per mode (see the module
    docstring).  Sweeps stop when the largest entrywise factor change falls
    below `tol` (stop reason "factor_tol").  The report certifies the result
    at SELF_CONSISTENCY_TOL, whatever `tol` is.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    if init.dims != t.dims:
        raise ValueError(f"init dims {init.dims} do not match tensor dims {t.dims}")

    factors = [init.u1.copy(), init.u2.copy(), init.u3.copy()]
    core = init.core.copy()
    work = _ContractionKernel(t.values)

    def current_model() -> TuckerModel:
        return TuckerModel(core=core, u1=factors[0], u2=factors[1], u3=factors[2])

    def residual() -> tuple[float, float]:  # norm and noise precision from one reconstruction
        resid = t.values - reconstruct(current_model()).values
        return float(np.linalg.norm(resid.ravel())), _noise_precision(resid)

    norm, beta = residual()
    history = [norm]
    for sweeps in range(1, max_sweeps + 1):
        before = [u.copy() for u in factors]
        for mode in (1, 2, 3):
            y = work.contracted(*factors, mode)
            p = [_core_factor(u) for u in factors]  # the core solve's maps, as in core_regression
            y_core = y if all(a is b for a, b in zip(p, factors)) else work.contracted(*p, mode)
            other_gram = _kron_gram(factors, mode)
            u = factors[mode - 1]
            for comp in range(u.shape[0]):
                g = _core_unfolding(core, mode)
                ridge = linalg.pseudoinverse(g @ other_gram @ g.T + alpha * np.eye(g.shape[0]))
                u[comp] = (ridge[comp] @ g) @ y.T
                try:
                    factors[mode - 1] = linalg.orthonormalize_rows(u, comp)
                except DegenerateRowError as exc:
                    raise DegenerateComponentError(mode, comp) from exc
                u = factors[mode - 1]
                core = _fold_core(_core_factor(u) @ y_core, mode, core.shape)
        norm, beta = residual()
        history.append(norm)
        moved = max(float(np.max(np.abs(a - b))) for a, b in zip(factors, before))
        converged = moved < tol
        if converged:
            break

    model = current_model()
    stats = _full_posterior(work, model, alpha, beta)
    check = self_consistency_check(t, model, alpha=alpha, beta=beta, stats=stats)
    report = FitReport(
        sweeps=sweeps,
        residual_history=np.array(history),
        converged=converged,
        stop_reason="factor_tol" if converged else "max_iter",
        final_factor_change=moved,
        self_consistent=check.self_consistent,
        max_mode_deviation=check.max_mode_deviation,
    )
    return model, stats, report


def _full_posterior(work: _ContractionKernel, model: TuckerModel,
                    alpha: float, beta: float) -> PosteriorStats:
    means, covs = zip(*(_mode_posterior(work, model, mode, alpha, beta) for mode in (1, 2, 3)))
    return PosteriorStats(means, covs, *_core_posterior(work, model, alpha, beta), alpha, beta)


def self_consistency_check(
    t: Tensor3,
    model: TuckerModel,
    alpha: float,
    beta: float,
    tol: float = SELF_CONSISTENCY_TOL,
    stats: PosteriorStats | None = None,
) -> ConsistencyCheck:
    """Compare the model's factors and core with their own posterior means.

    Rows of each posterior mean are sign-flipped toward the corresponding
    factor row first (the decomposition carries no sign information).  The
    model is accepted when every deviation is at most `tol`.
    """
    if stats is None:
        _check_posterior_args(t, model, alpha, beta)
        stats = _full_posterior(_ContractionKernel(t.values), model, alpha, beta)
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
    """Returns the model plus the remaining metadata fields (alpha, beta, fit_report).

    Raises FileFormatError unless ranks, core and u1-u3 are present, consistent and finite.
    """
    with open(path) as fh:
        doc = json.load(fh)
    try:
        core = np.array(doc["core"], dtype=np.float64).reshape(tuple(doc["ranks"]), order="F")
        factors = {u: np.array(doc[u], dtype=np.float64) for u in ("u1", "u2", "u3")}
        model = TuckerModel(core=core, **factors)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed model file {path}: {type(exc).__name__}: {exc}") from exc
    if not all(np.all(np.isfinite(a)) for a in (core, *factors.values())):
        raise FileFormatError(f"malformed model file {path}: non-finite entries")
    meta = {k: doc[k] for k in ("alpha", "beta", "fit_report") if k in doc}
    return model, meta
