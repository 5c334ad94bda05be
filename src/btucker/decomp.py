"""Tucker solvers and posterior statistics.

Two routes to the same decomposition: :func:`hooi`, higher-order orthogonal
iteration from :func:`hosvd_init` finished by a Riemannian trust-region Newton
phase on the exact Hessian of ||core||^2 (the default), and :func:`btud_fit`, which
updates each factor row as a (possibly ridge-regularized) least-squares
coefficient against the design Phi built from the core and the other two
factors, re-orthonormalizes it and re-solves the core after every component.
:func:`self_consistency_check` certifies a model as a stationary point of the
regression by comparing each factor with its posterior mean and the core
with the least-squares core of the factors, which every solver here returns.

Every contraction of the data goes through one kernel, Y(m): the data
contracted with the factors of the two other modes b, c and unfolded along
mode m as :func:`~btucker.tensor.unfold` orders its columns.  With G(m) the
core unfolded the same way, for any factors, orthonormal or not,

    Phi(m)^T X(m)^T = G(m) Y(m)^T,
    Phi(m)^T Phi(m) = G(m) (Ub Ub^T kron Uc Uc^T) G(m)^T,

so the (M*K, L) design Phi(m) is never formed (the tests keep it as the
reference) and every regression is one L x L solve,
pinv(gram + ridge*I) @ rhs, for alpha = 0 and alpha > 0 alike.  The
posterior is S = pinv(alpha*I + beta*Phi^T Phi) with mean beta*S*Phi^T x.
The pseudoinverse of the L x L Gram drops eigenvalues below 1e-12 * L times
the largest: singular values of Phi below sqrt(1e-12 * L) times the largest.
The least-squares core is the data contracted with u_m, or pinv(u_m)^T, in
every mode; no (L1*L2*L3)-sided matrix is formed.  :func:`hooi` runs the same
kernel on G = R^T R, the Gram matrix of its QR-compressed mode-1 unfolding,
whenever G is no larger than R (N >= M*K).
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DegenerateComponentError, DegenerateRowError, FileFormatError
from .linalg import BETA_CAP  # re-exported: the cap on every beta a fit reports
from .tensor import (UNFOLD_AXES, Tensor3, _folding, _read_utf8, _unfolding, frobenius_norm,
                     reconstruct, unfold, write_json)

ORTHONORMALITY_TOL = 1e-6  # factor deviation above which the core solve uses pinv(u)^T
NOISE_FLOOR = 1e-10        # squared singular values below this times the largest are noise

DEFAULT_MAX_ITER = 20000
DEFAULT_TOL = 1e-8
DEFAULT_FACTOR_TOL = 1e-7
SELF_CONSISTENCY_TOL = 1e-6  # largest factor or core deviation from the posterior mean
TR_RADIUS = 1.0            # hooi's first and largest trust-region radius
TR_THETA = 1.0             # truncated CG stops once |r| <= |g| min(|g|^TR_THETA, TR_KAPPA)
TR_KAPPA = 0.3


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


@dataclass
class FitReport:
    """Convergence bookkeeping for a solver run.

    sweeps counts the sweeps (for :func:`hooi`, the plain ones, not its
    trust-region steps), and residual_history[0] is the error of
    the initial model with one entry per sweep after it, so the history never
    rises.  stop_reason names the criterion that ended the run: "factor_tol"
    (the largest entrywise factor change fell below its bound, for
    :func:`hooi` once the relative residual change had fallen below tol) or
    "max_iter" (the budget ran out, converged is False).  newton_steps
    counts :func:`hooi`'s kept trust-region steps.  final_factor_change is
    the last largest entrywise factor change the solver measured, None if it
    measured none (:func:`hooi` measures it only once the residual criterion
    holds).  final_gradient_norm is the norm of the Riemannian gradient of
    ||core||^2 at :func:`hooi`'s last trust-region point, None if the trust
    region never ran.
    self_consistent / max_mode_deviation stay None ("not checked") until a
    caller fills them in from :func:`self_consistency_check`.
    """

    sweeps: int
    residual_history: np.ndarray
    converged: bool
    stop_reason: str
    newton_steps: int = 0
    final_factor_change: float | None = None
    final_gradient_norm: float | None = None
    self_consistent: bool | None = None
    max_mode_deviation: float | None = None

    def to_dict(self) -> dict:
        change, deviation = self.final_factor_change, self.max_mode_deviation
        return {
            "sweeps": self.sweeps,
            "residual_history": [float(x) for x in self.residual_history],
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "newton_steps": self.newton_steps,
            "final_factor_change": None if change is None else float(change),
            "final_gradient_norm": self.final_gradient_norm,
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


class _ContractionKernel:
    """The one contraction of the data that every solver and posterior here uses.

    contracted(u1, u2, u3, m) is Y(m): the (N, M, K) array contracted with
    the factors of its axes q, then p (u_m is ignored), as two matrix
    products on a contiguous permuted copy made on first use of the mode
    (the first one wide, u_q times the transposed copy, which BLAS runs
    faster than the same product taken tall), with (mode, p, q) from
    :data:`~btucker.tensor.UNFOLD_AXES`.  Columns run over (q, p), p fastest,
    as in :func:`~btucker.tensor.unfold` and the core's G(m).
    """

    def __init__(self, v: np.ndarray):
        self.values = v
        self._copies: dict[int, np.ndarray] = {}

    def contracted(self, u1, u2, u3, mode: int) -> np.ndarray:
        _, p, q = axes = UNFOLD_AXES[mode]
        x = self._copies.get(mode)
        if x is None:
            x = self._copies[mode] = np.ascontiguousarray(self.values.transpose(axes))
        factors = (u1, u2, u3)
        d, dp, dq = x.shape
        y = (factors[q] @ x.reshape(d * dp, dq).T).reshape(-1, dp) @ factors[p].T
        return y.reshape(-1, d, y.shape[1]).transpose(1, 0, 2).reshape(d, -1)


def _kron_gram(factors, mode: int) -> np.ndarray:
    """Ub Ub^T kron Uc Uc^T over the two other modes, so Phi^T Phi = G(m) (this) G(m)^T."""
    _, p, q = UNFOLD_AXES[mode]
    return np.kron(factors[q] @ factors[q].T, factors[p] @ factors[p].T)


def _core_factor(u: np.ndarray) -> np.ndarray:
    """The core solve's map: u, or pinv(u)^T if u is over ORTHONORMALITY_TOL from orthonormal."""
    defect = float(np.max(np.abs(u @ u.T - np.eye(u.shape[0]))))
    return u if defect <= ORTHONORMALITY_TOL else linalg.pseudoinverse(u).T


def _top_eigenpairs(gram: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The top-`rank` eigenvalues and eigenvectors (columns) of a Gram matrix, largest first.

    None when the rank-th eigenvalue is at or below NOISE_FLOOR times the
    largest: there the Gram matrix's rounding decides the vectors, and only
    the SVD of the matrix it came from can.
    """
    vals, vecs = np.linalg.eigh(gram)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    if vals[0] > 0 and vals[rank - 1] > NOISE_FLOOR * vals[0]:
        return vals[:rank], vecs[:, :rank]
    return None


def _top_left_vectors(b: np.ndarray, rank: int) -> np.ndarray:
    """Leading left singular vectors of b as rows, with the global sign rule.

    Eigendecomposes the smaller Gram matrix, b b^T when b is wide and b^T b
    (mapped back through b) when it is tall, as long as the kept spectrum is
    well away from the squared-condition noise floor (:func:`_top_eigenpairs`);
    falls back to the SVD otherwise.  There, the vectors of singular values at
    or below max(b.shape) eps times the largest (np.linalg.matrix_rank's
    cutoff) are rounding noise, so they are replaced by the identity's first
    columns orthonormalized against the others: the result then moves
    continuously with b instead of jumping with its last bits.
    """
    wide = b.shape[0] <= b.shape[1]
    top = _top_eigenpairs(b @ b.T if wide else b.T @ b, rank)
    if top is not None:
        vals, vecs = top
        u = vecs.T if wide else (b @ vecs).T / np.sqrt(vals)[:, None]
    else:
        res = linalg.svd(b, rank=rank)
        kept = res.U[:, res.s > max(b.shape) * np.finfo(float).eps * res.s[0]]
        u = np.linalg.qr(np.hstack((kept, np.eye(b.shape[0], rank))))[0][:, :rank].T
    return u * linalg._sign_flips(u)[:, None]


class _CoreNorm:
    """f(U2, U3) = ||core||^2 with U1 optimal, its Riemannian gradient and Hessian.

    At row-orthonormal (u2, u3), A = R x2 U2 x3 U3 unfolded along mode 1
    (the kernel's Y(1), columns (c, b)), lambda and W the top-l1 eigenpairs
    of A^T A and W_ the rest, so f = sum(lambda) and the optimal U1 is
    V1 = A W Lambda^-1/2.  With H = W (A W)^T R(1), the Euclidean gradient
    is e2 = 2 H contracted with U3 (e3 likewise with U2), and the Riemannian
    one is e projected off the rows of U.  Along a tangent xi, the top
    eigenspace turns by W_ X with X = (W_^T dS W) / (lambda_a - lambda_b),
    dS = dA^T A + A^T dA, so dH = W (dA W + A W_ X)^T R(1) + W_ X (A W)^T R(1),
    and the Hessian is P(De[xi]) - (e U^T) xi on the Grassmann quotient
    (Absil, Mahony & Sepulchre 2008).  Every contraction with R runs once
    per point, through the kernel: R x3 U3 on `work` and R x2 U2 on `swapped`
    (R with modes 2 and 3 swapped), each with the identity in the other
    mode, and T = (A W)^T R(1); a Hessian product then only contracts these
    with small matrices.  Tangents are (xi2, xi3) raveled into one vector.
    `degenerate` is True when lambda_L1 - lambda_L1+1 <= NOISE_FLOOR *
    lambda_1, where X is undefined.
    """

    def __init__(self, work: _ContractionKernel, swapped: _ContractionKernel, u2, u3, l1: int):
        (l2, m), (l3, k) = u2.shape, u3.shape
        self.work, self.u2, self.u3 = work, u2, u3
        # (N', L3 * M) and (N', L2 * K), columns (c, j) and (b, k)
        self.ru3 = work.contracted(None, np.eye(m), u3, mode=1)
        self.ru2 = swapped.contracted(None, np.eye(k), u2, mode=1)
        self.a = (self.ru3.reshape(-1, m) @ u2.T).reshape(-1, l3 * l2)
        lam, vecs = np.linalg.eigh(self.a.T @ self.a)
        below = lam[-l1 - 1] if l1 < lam.size else 0.0
        self.degenerate = not lam[-l1] - below > NOISE_FLOOR * lam[-1]
        self.w, self.lam, self.w_, self.lam_ = vecs[:, -l1:], lam[-l1:], vecs[:, :-l1], lam[:-l1]
        self.f = float(np.sum(self.lam))
        self.aw = self.a @ self.w
        self.e2, self.e3 = self._contract(self.aw @ self.w.T)
        self.grad = self._project(self.e2, self.e3)

    @functools.cached_property
    def _t(self) -> tuple[np.ndarray, np.ndarray]:
        """T = (A W)^T R(1) as (L1 * M, K) and, transposed, as (M, L1 * K)."""
        r = self.work.values
        t = (self.aw.T @ r.reshape(r.shape[0], -1)).reshape(-1, *r.shape[1:])
        return t.reshape(-1, r.shape[2]), t.transpose(1, 0, 2).reshape(r.shape[1], -1)

    def _contract(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """2 d^T R(1), d with Y(1)'s shape, contracted with U3 (mode 2) and with U2 (mode 3)."""
        (l2, m), (l3, k) = self.u2.shape, self.u3.shape
        d = d.reshape(-1, l3, l2)
        return (2 * d.reshape(-1, l2).T @ self.ru3.reshape(-1, m),
                2 * d.transpose(0, 2, 1).reshape(-1, l3).T @ self.ru2.reshape(-1, k))

    def _project(self, d2, d3) -> np.ndarray:
        """(d2, d3) projected off the rows of (u2, u3), raveled into one tangent vector."""
        return np.concatenate(((d2 - (d2 @ self.u2.T) @ self.u2).ravel(),
                               (d3 - (d3 @ self.u3.T) @ self.u3).ravel()))

    def split(self, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return xi[: self.u2.size].reshape(self.u2.shape), xi[self.u2.size:].reshape(self.u3.shape)

    def hessian(self, xi: np.ndarray) -> np.ndarray:
        (l2, m), (l3, k) = self.u2.shape, self.u3.shape
        # the tangent part only: the (e U^T) xi term would grow any rounding off the
        # tangent space by |e U^T| (about 2 ||core||^2) per product, and stall truncated CG
        x2, x3 = self.split(self._project(*self.split(xi)))
        # contiguous transposes: numpy runs these small products about twice as fast
        x2t, x3t = np.ascontiguousarray(x2.T), np.ascontiguousarray(x3.T)
        da2 = (self.ru3.reshape(-1, m) @ x2t).reshape(-1, l3, l2)
        da3 = (self.ru2.reshape(-1, k) @ x3t).reshape(-1, l2, l3).transpose(0, 2, 1)
        da = (da2 + da3).reshape(-1, l3 * l2)
        ds = da.T @ self.a
        gaps = self.lam[None, :] - self.lam_[:, None]
        x = self.w_ @ ((self.w_.T @ (ds + ds.T) @ self.w) / gaps)  # W_ X
        # dH = (W (dA W + A W_ X)^T + W_ X (A W)^T) R(1)
        de2, de3 = self._contract((da @ self.w + self.a @ x) @ self.w.T + self.aw @ x.T)
        # e2 and e3 moved through U3 and U2 themselves: H = W T contracted with xi3 and xi2
        w, (t, t_) = self.w.reshape(l3, l2, -1), self._t
        de2 += 2 * np.einsum("cba,ajc->bj", w, (t @ x3t).reshape(-1, m, l3))
        de3 += 2 * np.einsum("cba,bak->ck", w, (x2 @ t_).reshape(l2, -1, k))
        shift2, shift3 = (self.e2 @ self.u2.T) @ x2, (self.e3 @ self.u3.T) @ x3
        return self._project(de2, de3) - np.concatenate((shift2.ravel(), shift3.ravel()))


def hosvd_init(t: Tensor3, ranks) -> TuckerModel:
    """Truncated HOSVD: factor m = leading left singular vectors of unfold(t, m)."""
    ranks = _validate_ranks(t.dims, ranks)
    factors = [_top_left_vectors(unfold(t, m), ranks[m - 1]) for m in (1, 2, 3)]
    core = core_regression(t, *factors)
    return TuckerModel(core=core, u1=factors[0], u2=factors[1], u3=factors[2])


def _retract(u: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of u + xi (QR retraction)."""
    return np.linalg.qr((u + xi).T)[0].T


def _truncated_cg(point: _CoreNorm, radius: float, floor: float) -> tuple[np.ndarray, float]:
    """Steihaug-Toint truncated CG on the model f + <g, eta> + <eta, H eta>/2, maximized.

    Returns the step eta, inside the trust region of `radius`, and the model's
    predicted increase.  Stops at the region's boundary, on non-negative
    curvature, or once the model's gradient g + H eta has fallen to
    |g| min(|g|^TR_THETA, TR_KAPPA).
    """
    g = point.grad
    eta, h_eta, r = np.zeros_like(g), np.zeros_like(g), g.copy()
    d, rr = r.copy(), float(r @ r)
    stop = max(np.sqrt(rr) * min(np.sqrt(rr) ** TR_THETA, TR_KAPPA), floor)
    for _ in range(g.size):
        if np.sqrt(rr) <= stop:
            break
        hd = point.hessian(d)
        curvature = float(d @ hd)
        if curvature >= 0 or np.linalg.norm(eta + (rr / -curvature) * d) >= radius:
            # to the boundary along d: the positive root of |eta + tau d| = radius
            ed, dd = float(eta @ d), float(d @ d)
            tau = (np.sqrt(ed * ed + dd * (radius * radius - float(eta @ eta))) - ed) / dd
            eta, h_eta = eta + tau * d, h_eta + tau * hd
            break
        alpha = rr / -curvature
        eta, h_eta, r = eta + alpha * d, h_eta + alpha * hd, r + alpha * hd
        rr, previous = float(r @ r), rr
        d = r + (rr / previous) * d
    return eta, float(g @ eta + 0.5 * (eta @ h_eta))


def hooi(
    t: Tensor3,
    ranks,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    factor_tol: float = DEFAULT_FACTOR_TOL,
) -> tuple[TuckerModel, FitReport]:
    """Higher-order orthogonal iteration from an HOSVD start, finished by a trust region.

    Each sweep updates every factor to the leading left singular vectors
    of the contracted unfolding, then re-solves the core.  Plain sweeps run
    until the change of the relative reconstruction error (residual
    Frobenius norm over the input norm) falls below `tol`; the fit stops
    there if the largest entrywise factor change of the sweep is also below
    `factor_tol`.  The residual alone flattens long before near-degenerate
    trailing components stop rotating; the regression fixed point that
    :func:`self_consistency_check` certifies is reached only once the
    factors themselves stop moving.

    Each sweep contracts the data once.  The sweeps run on R from one QR,
    unfold(t, 1) = Q R, of which only R is formed, so mode 1 has
    min(N, M*K) rows; the contractions, core and residual are those of t.
    The start is the HOSVD of R.  Mode 1 contracts R with the mode-2/3
    factors, A = R(1) W^T with W their Kronecker product in the kernel's
    column order, and its new factor V1 = Lambda^-1/2 W_A^T A^T, from the
    top-L1 eigenpairs (Lambda, W_A) of A^T A, gives Z = V1 R(1), an
    (L1, M, K) tensor from which modes 2 and 3 and the projected core
    follow.  When N >= M*K, R is square, and G = R^T R, formed once per fit,
    is no larger: each sweep then takes P = W G through the contraction
    kernel, A^T A = P W^T and Z = Lambda^-1/2 W_A^T P, so neither V1 nor an
    (L1, M*K) x (M*K, M*K) product is formed.  V1 itself is formed, from R,
    only where the residual is recomputed from the model (below), and a
    mode-1 spectrum below the noise floor of :func:`_top_eigenpairs` takes
    the top vectors of A from R instead.  When N < M*K, G would be larger
    than R, and each sweep forms A from R and V1 from A.  Other top vectors
    come from the smaller Gram matrix.  The residual is
    sqrt(||x||^2 - ||core||^2) unless that is below 1e-6 ||x||, where
    cancellation would dominate and the model is subtracted from R
    instead.  The returned U1 is computed once from the data, as the top
    left singular vectors of unfold(t, 1) W for the W that V1 came from:
    that matrix is Q R W, so this is V1 Q^T without Q.  The factor_tol test
    of U1 takes the same lift, and the returned core is recomputed from the
    returned factors.  Data whose squared norm overflows raise
    FloatingPointError before any of this.

    Where the residual criterion holds but the factors still move, plain
    sweeps would close the rest of the way linearly, at about 0.995 per
    sweep.  Instead a Riemannian trust region (Absil, Baker & Gallivan 2007)
    maximizes ||core||^2 over the Grassmann pair (U2, U3) with U1 optimal,
    on :class:`_CoreNorm`'s exact gradient and Hessian, each step from
    :func:`_truncated_cg`.  A step is kept when the ratio of actual to
    predicted increase, both offset by 1e3 eps |f| against cancellation,
    exceeds 0.1; the radius is quartered below a ratio of 0.25 and doubled,
    up to TR_RADIUS, above 0.75 at the boundary.  The fit stops once a kept
    step moves U2 and U3, and then the U1 lift, by less than `factor_tol`.
    One plain sweep from that point gives U2 and U3 in the sweeps' basis.
    Where the L1-th and (L1+1)-th eigenvalues of A^T A meet (see
    :class:`_CoreNorm`), the Hessian is undefined and the fit keeps
    sweeping plainly.  `max_iter` bounds sweeps and trust-region steps
    together.
    """
    ranks = _validate_ranks(t.dims, ranks)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    for name, value in (("tol", tol), ("factor_tol", factor_tol)):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")

    n, m, k = t.dims
    l1, l2, l3 = ranks
    linalg.squared_norm(t.values)  # raises before any other work when ||x||^2 overflows
    norm_x = frobenius_norm(t)  # summed pairwise: the residual history carries its digits
    norm_x_sq = norm_x * norm_x
    scale = norm_x if norm_x > 0 else 1.0
    r = np.linalg.qr(t.values.reshape(n, m * k), mode="r")
    compressed = r.reshape(-1, m, k)
    model = hosvd_init(Tensor3(compressed), ranks)
    data = _ContractionKernel(t.values)
    # G = R^T R, no larger than R once R is square; rows (j, k) as R's columns.  Formed
    # after the start, so that the start's temporaries and G are not held at once
    gram = _ContractionKernel((r.T @ r).reshape(-1, m, k)) if n >= m * k else None

    def lift(w2, w3) -> np.ndarray:
        """U1 from the data: the top-l1 left singular vectors of X(1) W, W from w2 and w3."""
        return _top_left_vectors(data.contracted(None, w2, w3, mode=1), l1)

    def factor_change(moved: float, w, previous_w) -> float:
        """moved, the U2/U3 change, or once that passes factor_tol the U1 lift's change too."""
        if moved < factor_tol:
            # U1 leaves the compressed coordinates only once U2 and U3 pass
            moved = max(moved, float(np.max(np.abs(lift(*w) - lift(*previous_w)))))
        return moved

    def residual(core_sq: float, approx) -> float:
        # orthonormal factors + projected core: ||resid||^2 = ||x||^2 - ||core||^2; where
        # cancellation would dominate, subtract approx(), the model on R's coordinates
        r2 = norm_x_sq - core_sq
        if not np.isfinite(r2):
            raise FloatingPointError("non-finite values during HOOI iteration")
        if r2 > (1e-6 * scale) ** 2:
            return float(np.sqrt(r2))
        err = float(np.linalg.norm((compressed - approx()).ravel()))
        if not np.isfinite(err):
            raise FloatingPointError("non-finite values during HOOI iteration")
        return err

    work = _ContractionKernel(compressed)
    swapped = _ContractionKernel(compressed.transpose(0, 2, 1))
    eye = np.eye(l1)  # Z already carries the mode-1 factor

    def sweep(in2, in3):
        """One plain sweep from (in2, in3): the new U2 and U3 and the new model's residual."""
        top = None
        if gram is not None:
            # P = (U2 kron U3) G, so A^T A = P (U2 kron U3)^T for A = R(1) (U2 kron U3)^T
            p = gram.contracted(None, in2, in3, mode=1).T
            top = _top_eigenpairs(_ContractionKernel(p.reshape(-1, m, k)).contracted(
                None, in2, in3, mode=1), l1)
        if top is None:
            s1 = _top_left_vectors(work.contracted(None, in2, in3, mode=1), l1)
            z, v1 = s1 @ r, lambda: s1
        else:
            # V1 = Lambda^-1/2 W_A^T A^T, so Z = V1 R(1) = Lambda^-1/2 W_A^T P without V1
            coef = top[1] / np.sqrt(top[0])
            z, v1 = coef.T @ p, lambda: (work.contracted(None, in2, in3, mode=1) @ coef).T
        z = _ContractionKernel(z.reshape(l1, m, k))
        s2 = _top_left_vectors(z.contracted(eye, in2, in3, mode=2), l2)
        contracted3 = z.contracted(eye, s2, in3, mode=3)
        s3 = _top_left_vectors(contracted3, l3)
        core = (s3 @ contracted3).reshape(l3, l2, l1)
        return s2, s3, residual(float(np.vdot(core, core)), lambda: np.einsum(
            "cba,ai,bj,ck->ijk", core, v1(), s2, s3, optimize=True))

    u2, u3 = model.u2, model.u3
    history = [residual(float(np.sum(model.core * model.core)), lambda: reconstruct(model).values)]
    # the W that V1 came from: the HOSVD start's is the identity
    w = (np.eye(m), np.eye(k))
    point = None  # the trust region's current point, once it has taken over
    radius = TR_RADIUS
    sweeps = newton_steps = 0
    moved = gradient_norm = None
    stop_reason = "max_iter"
    for _ in range(max_iter):
        if point is not None:
            noise = 1e3 * np.finfo(float).eps * abs(point.f)  # rounding level of f and its gradient
            step, predicted = _truncated_cg(point, radius, noise)
            step2, step3 = point.split(step)
            trial = _CoreNorm(work, swapped, _retract(u2, step2), _retract(u3, step3), l1)
            rho = (trial.f - point.f + noise) / (predicted + noise)
            if rho < 0.25:
                radius /= 4
            elif rho > 0.75 and np.linalg.norm(step) >= 0.99 * radius:
                radius = min(2 * radius, TR_RADIUS)
            if not rho > 0.1:
                continue
            newton_steps += 1
            moved = factor_change(float(np.max(np.abs(step))), (trial.u2, trial.u3), (u2, u3))
            u2, u3, point = trial.u2, trial.u3, trial
            w = (u2, u3)  # V1 is the point's own optimal U1
            gradient_norm = float(np.linalg.norm(point.grad))
            if moved < factor_tol:
                stop_reason = "factor_tol"
                break
            if point.degenerate:
                point = None
            continue
        previous_w, w = w, (u2, u3)
        u2, u3, err = sweep(*w)
        sweeps += 1
        history.append(err)
        if abs(history[-2] - history[-1]) / scale < tol:
            moved = factor_change(max(float(np.max(np.abs(a - b))) for a, b in zip((u2, u3), w)),
                                  w, previous_w)
            if moved < factor_tol:
                stop_reason = "factor_tol"
                break
            point = _CoreNorm(work, swapped, u2, u3, l1)
            if point.degenerate:
                point = None

    if w[0] is u2:
        # the last iterate is the trust region's: one sweep puts U2 and U3 in the sweeps' basis
        u2, u3, err = sweep(u2, u3)
        sweeps += 1
        history.append(err)
    u1 = lift(*w)
    core = _folding(u1 @ data.contracted(u1, u2, u3, mode=1), 1, ranks)
    model = TuckerModel(core=core, u1=u1, u2=u2, u3=u3)
    report = FitReport(
        sweeps=sweeps,
        residual_history=np.array(history),
        converged=stop_reason != "max_iter",
        stop_reason=stop_reason,
        newton_steps=newton_steps,
        final_factor_change=moved,
        final_gradient_norm=gradient_norm,
    )
    return model, report


def _least_squares_core(work: _ContractionKernel, u1, u2, u3) -> np.ndarray:
    """The data contracted with each factor's core-solve map, folded to the core's shape."""
    p = [_core_factor(u) for u in (u1, u2, u3)]
    return _folding(p[2] @ work.contracted(*p, 3), 3, [u.shape[0] for u in p])


def core_regression(t: Tensor3, u1: np.ndarray, u2: np.ndarray, u3: np.ndarray) -> np.ndarray:
    """Least-squares core for fixed factors.

    The data are contracted with pinv(u_m)^T in every mode, which solves the
    regression of the vectorized tensor on the Kronecker design.  A factor
    whose rows are orthonormal to ORTHONORMALITY_TOL enters as itself, so
    row-orthonormal factors give the projected core
    G[a,b,c] = sum_{ijk} u1[a,i] u2[b,j] u3[c,k] x[i,j,k].
    """
    return _least_squares_core(_ContractionKernel(t.values), u1, u2, u3)


def _check_posterior_args(t: Tensor3, model: TuckerModel, alpha: float, beta: float) -> None:
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    if model.dims != t.dims:
        raise ValueError(f"model dims {model.dims} do not match tensor dims {t.dims}")


def _mode_posterior(work: _ContractionKernel, model: TuckerModel, mode: int,
                    alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean pinv(gram + alpha/beta I) G(m) Y(m)^T and covariance pinv(alpha I + beta gram).

    gram is Phi(m)^T Phi(m) (see the module docstring); the covariance is symmetrized.
    """
    factors = (model.u1, model.u2, model.u3)
    g = _unfolding(model.core, mode)
    gram = g @ _kron_gram(factors, mode) @ g.T
    inv = linalg.pseudoinverse(gram + (alpha / beta) * np.eye(gram.shape[0]))
    cov = inv / beta
    return inv @ (g @ work.contracted(*factors, mode).T), 0.5 * (cov + cov.T)


def posterior_stats(
    t: Tensor3, model: TuckerModel, mode: int, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean matrix and shared covariance for one mode's coefficients.

    Returns (mean, cov) with mean of shape (L, dim), one column per fiber,
    and cov = (alpha*I + beta*Phi^T Phi)^+ of shape (L, L); the mean is
    beta * cov @ Phi^T X^T, the least-squares solution at alpha = 0.
    """
    if mode not in UNFOLD_AXES:
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    _check_posterior_args(t, model, alpha, beta)
    return _mode_posterior(_ContractionKernel(t.values), model, mode, alpha, beta)


def estimate_beta(t: Tensor3, model: TuckerModel) -> float:
    """The noise precision of the model's residual (see :func:`linalg.noise_precision`)."""
    return linalg.noise_precision(t.values - reconstruct(model).values)


def btud_fit(
    t: Tensor3,
    init: TuckerModel,
    alpha: float = 0.0,
    max_sweeps: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> tuple[TuckerModel, float, FitReport]:
    """Alternating-regression Tucker solver; returns (model, beta, report).

    One sweep visits modes 1, 2, 3 in order.  Within a mode, components are
    processed one at a time: the coefficients of every fiber are solved as
    pinv(Phi^T Phi + alpha*I) Phi^T X^T for the current core and other
    factors, the component's row is orthogonalized against earlier rows and
    normalized, and the core is re-solved.  The other two factors stay fixed
    within a mode, so Y(m) is contracted once per mode (see the module
    docstring).  Sweeps stop when the largest entrywise factor change falls
    below `tol` (stop reason "factor_tol").  beta is the noise precision of
    the final residual.  The report leaves self_consistent and
    max_mode_deviation None: :func:`self_consistency_check` certifies a fit.
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
        return float(np.linalg.norm(resid.ravel())), linalg.noise_precision(resid)

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
                g = _unfolding(core, mode)
                ridge = linalg.pseudoinverse(g @ other_gram @ g.T + alpha * np.eye(g.shape[0]))
                u[comp] = (ridge[comp] @ g) @ y.T
                try:
                    factors[mode - 1] = linalg.orthonormalize_rows(u, comp)
                except DegenerateRowError as exc:
                    raise DegenerateComponentError(mode, comp) from exc
                u = factors[mode - 1]
                core = _folding(_core_factor(u) @ y_core, mode, core.shape)
        norm, beta = residual()
        history.append(norm)
        moved = max(float(np.max(np.abs(a - b))) for a, b in zip(factors, before))
        converged = moved < tol
        if converged:
            break

    report = FitReport(
        sweeps=sweeps,
        residual_history=np.array(history),
        converged=converged,
        stop_reason="factor_tol" if converged else "max_iter",
        final_factor_change=moved,
    )
    return current_model(), beta, report


def self_consistency_check(
    t: Tensor3,
    model: TuckerModel,
    alpha: float,
    beta: float,
    tol: float = SELF_CONSISTENCY_TOL,
) -> ConsistencyCheck:
    """Compare each factor with its posterior mean and the core with the least-squares core.

    Rows of each posterior mean (at `alpha` and `beta`) are sign-flipped
    toward the corresponding factor row first (the decomposition carries no
    sign information).  The core is compared with :func:`core_regression` of
    the model's factors, the core that :func:`hosvd_init`, :func:`hooi` and
    :func:`btud_fit` return, so the core check does not depend on `alpha`.
    The model is accepted when every deviation is at most `tol`.
    """
    _check_posterior_args(t, model, alpha, beta)
    work = _ContractionKernel(t.values)
    deviations = []
    for mode in (1, 2, 3):
        u = model.factor(mode)
        m = _mode_posterior(work, model, mode, alpha, beta)[0]
        m *= np.where(np.sum(m * u, axis=1) < 0, -1.0, 1.0)[:, None]
        deviations.append(float(np.max(np.abs(u - m))))
    core = _least_squares_core(work, model.u1, model.u2, model.u3)
    core_dev = float(np.max(np.abs(model.core - core)))
    return ConsistencyCheck(self_consistent=bool(max(*deviations, core_dev) <= tol),
                            mode_deviations=np.array(deviations), core_deviation=core_dev, tol=tol)


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
    write_json(doc, path)


def load_model(path) -> tuple[TuckerModel, dict]:
    """Returns the model plus the remaining metadata fields (alpha, beta, fit_report).

    Raises FileFormatError unless the file is UTF-8 JSON; ranks, core and
    u1-u3 are present, consistent and finite; alpha, if present, is a finite
    number >= 0; and beta is a finite number > 0 or null (estimate it anew).
    """
    try:
        doc = _read_utf8(path, json.load)
        core = np.array(doc["core"], dtype=np.float64).reshape(tuple(doc["ranks"]), order="F")
        factors = {u: np.array(doc[u], dtype=np.float64) for u in ("u1", "u2", "u3")}
        model = TuckerModel(core=core, **factors)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise FileFormatError(f"malformed model file {path}: {type(exc).__name__}: {exc}") from exc
    if not all(np.all(np.isfinite(a)) for a in (core, *factors.values())):
        raise FileFormatError(f"malformed model file {path}: non-finite entries")
    meta = {k: doc[k] for k in ("alpha", "beta", "fit_report") if k in doc}
    for key, positive in (("alpha", False), ("beta", True)):
        value = meta.get(key)
        if key not in meta or value is None and positive:
            continue
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not (number and (value > 0 if positive else value >= 0) and value <= sys.float_info.max):
            raise FileFormatError(f"malformed model file {path}: {key} must be a finite number "
                                  + ("> 0" if positive else ">= 0"))
        meta[key] = float(value)
    return model, meta
