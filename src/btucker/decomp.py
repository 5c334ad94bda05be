"""Tucker solvers and posterior statistics.

Two routes to the same decomposition: :func:`hooi`, higher-order orthogonal
iteration (:class:`_Sweeper`) from the mode-2 and mode-3 factors of the HOSVD,
finished by Riemannian trust-region Newton steps on the exact Hessian of
||core||^2 (:func:`_trust_region_step`), and :func:`btud_fit`, which updates
each factor row as a (possibly ridge-regularized) least-squares coefficient
against the design Phi built from the core and the other two factors,
re-orthonormalizes it and re-solves the core after every component.
:func:`self_consistency_check` certifies a model as a stationary point of the
regression by comparing each factor with its posterior mean and the core
with the least-squares core of the factors, which every solver here returns.

Every contraction of the data goes through one kernel, Y(m): the data
contracted with the factors of the two other modes b, c and unfolded along
mode m as :func:`~btucker.tensor.unfold` orders its columns.  With G(m) the
core unfolded the same way, for any factors, orthonormal or not,

    Phi(m)^T X(m)^T = G(m) Y(m)^T,
    Phi(m)^T Phi(m) = (G(m) K)(G(m) K)^T,  K K^T = Ub Ub^T kron Uc Uc^T,

so the (M*K, L) design Phi(m) is never formed (the tests keep it as the
reference) and every regression is one L x L solve, (gram + ridge*I)^+ @ rhs
for alpha = 0 and alpha > 0 alike, the inverse taken from the SVD of G(m) K
(:func:`~btucker.linalg.gram_inverse`), never from the Gram, whose condition
number is the square of Phi's.  The posterior is S = (alpha*I + beta*Phi^T
Phi)^+ with mean beta*S*Phi^T x.  The least-squares core is the data
contracted with u_m, or pinv(u_m)^T = (u_m u_m^T)^+ u_m, in every mode; no
(L1*L2*L3)-sided matrix is formed.  The kernel, :func:`_contracted`,
reads the C-ordered (N, M, K) data in place and copies nothing of its size:
mode 1 contracts K, then M; mode 2 contracts K, as x.reshape(N*M, K) U3^T,
then N; mode 3 contracts N, as U1 x.reshape(N, M*K), then M.

No residual is formed to measure it.  For any factors (Kolda & Bader, SIAM
Rev. 51, 2009, section 4.2),

    ||x - [[C; U1, U2, U3]]||^2 = ||x||^2 - 2 <C, P> + <C, C x1 U1 U1^T x2 U2 U2^T x3 U3 U3^T>,

with P the data contracted with all three factors, so :func:`estimate_beta`
and :func:`btud_fit` take ||x||^2 once and then only core-sized arrays.  The
sum's rounding is a few eps ||x||^2: where it is non-finite, or at or below
RESIDUAL_CANCELLATION (1e-2) times ||x||^2, the residual is formed and
measured instead, so beta agrees with the explicit residual's to 1e-12.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DegenerateComponentError, DegenerateRowError, FileFormatError
from .linalg import BETA_CAP, NOISE_FLOOR  # BETA_CAP re-exported: every fit's beta cap
from .tensor import (UNFOLD_AXES, Tensor3, _check_mode, _folding, _read_utf8, _unfolding,
                     frobenius_norm, unfold, write_json)

ORTHONORMALITY_TOL = 1e-6  # factor deviation above which the core solve uses pinv(u)^T
RESIDUAL_CANCELLATION = 1e-2  # a residual of at most this share of ||x||^2 is formed explicitly

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
    trust-region steps), and residual_history[0] is the error of the initial
    model (for :func:`hooi`, the HOSVD's U2 and U3 with their optimal U1)
    with one entry per sweep after it.  The history does not rise, except at
    the rounding level of a residual formed from the data (near-exact fits).
    stop_reason names the criterion that ended the run: "factor_tol" (the
    largest entrywise factor change fell below its bound, for :func:`hooi`
    once the relative residual change had fallen below tol) or "max_iter"
    (the budget ran out, converged is False).  newton_steps
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


def _contracted(x: np.ndarray, u1, u2, u3, mode: int) -> np.ndarray:
    """Y(m): the C-ordered (N, M, K) array x contracted with the factors of the two other modes.

    u_m is ignored; u1 or u2 may be None, which stands for the identity and
    skips its product.  Columns run over (q, p), p fastest, with (mode, p, q)
    from :data:`~btucker.tensor.UNFOLD_AXES`, as in
    :func:`~btucker.tensor.unfold` and the core's G(m).  Each mode is two
    matrix products on x's own layout, the first of which reads all of x:
    mode 1 takes K, as U3 x.reshape(N*M, K)^T, then M; mode 2 takes K, as
    x.reshape(N*M, K) U3^T, then N; mode 3 takes N, as U1 x.reshape(N, M*K),
    then M.  Only arrays with a rank on one axis are copied, never x.
    """
    n, m, k = x.shape
    if mode == 1:
        y = (u3 @ x.reshape(n * m, k).T).reshape(-1, m)  # rows (c, i), columns j
        y = y if u2 is None else y @ u2.T
        return y.reshape(-1, n, y.shape[1]).transpose(1, 0, 2).reshape(n, -1)
    if mode == 2:
        y = (x.reshape(n * m, k) @ u3.T).reshape(n, -1)  # rows i, columns (j, c)
        y = y if u1 is None else u1 @ y
        return y.reshape(y.shape[0], m, -1).transpose(1, 2, 0).reshape(m, -1)
    y = (x if u1 is None else u1 @ x.reshape(n, m * k)).reshape(-1, m, k)  # (a, j, k)
    y = y if u2 is None else u2 @ y
    return y.transpose(2, 1, 0).reshape(k, -1)


def _kron_root(factors, mode: int) -> np.ndarray:
    """K = R_b^T kron R_c^T from the QRs of Ub^T and Uc^T, so K K^T = Ub Ub^T kron Uc Uc^T."""
    _, p, q = UNFOLD_AXES[mode]
    return np.kron(*(np.linalg.qr(factors[i].T, mode="r").T for i in (q, p)))


def _core_factor(u: np.ndarray) -> np.ndarray:
    """The core solve's map: u, or pinv(u)^T if u is over ORTHONORMALITY_TOL from orthonormal."""
    defect = float(np.max(np.abs(u @ u.T - np.eye(u.shape[0]))))
    return u if defect <= ORTHONORMALITY_TOL else linalg.gram_inverse(u) @ u


def _core_data(x: np.ndarray, factors, mode: int, y: np.ndarray | None = None) -> np.ndarray:
    """The data contracted with the core solve's maps (:func:`_core_factor`), unfolded along mode.

    y, the data's Y(m) with the factors themselves, is that contraction when
    every factor is its own map, and is then returned as it is.
    """
    p = [_core_factor(u) for u in factors]
    return y if y is not None and all(a is b for a, b in zip(p, factors)) else _contracted(x, *p, mode)


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


def _top_left_vectors(b, rank: int, gram: np.ndarray | None = None) -> np.ndarray:
    """Leading left singular vectors of b as rows, with the global sign rule.

    Eigendecomposes the smaller Gram matrix, b b^T when b is wide and b^T b
    (mapped back through b) when it is tall, as long as the kept spectrum is
    well away from the squared-condition noise floor (:func:`_top_eigenpairs`);
    falls back to the SVD otherwise.  There, the vectors of singular values at
    or below max(b.shape) eps times the largest (np.linalg.matrix_rank's
    cutoff) are rounding noise, so they are replaced by the identity's first
    columns orthonormalized against the others: the result then moves
    continuously with b instead of jumping with its last bits.

    A caller that has b b^T already passes it as gram, and b as a function
    that returns b: b is then formed only if the SVD is needed.
    """
    wide = gram is not None or b.shape[0] <= b.shape[1]
    if gram is None:
        gram = b @ b.T if wide else b.T @ b
    top = _top_eigenpairs(gram, rank)
    if top is not None:
        vals, vecs = top
        u = vecs.T if wide else (b @ vecs).T / np.sqrt(vals)[:, None]
    else:
        b = b() if callable(b) else b
        res = linalg.svd(b, rank=rank)
        kept = res.U[:, linalg._above_rank_cutoff(res.s, b.shape)]
        u = np.linalg.qr(np.hstack((kept, np.eye(b.shape[0], rank))))[0][:, :rank].T
    return u * linalg._sign_flips(u)[:, None]


class _CoreNorm:
    """f(U2, U3) = ||core||^2 with U1 optimal, its Riemannian gradient and Hessian.

    R is the data or any R with R^T R = X(1)^T X(1): f, its gradient and
    its Hessian depend on R only through R^T R.  At
    row-orthonormal (u2, u3), A = R x2 U2 x3 U3 unfolded along mode 1
    (the kernel's Y(1), columns (c, b)), lambda and W the top-l1 eigenpairs
    of A^T A and W_ the rest, so f = sum(lambda) and the optimal U1 is
    V1 = A W Lambda^-1/2.  With H = W (A W)^T R(1), the Euclidean gradient
    is e2 = 2 H contracted with U3 (e3 likewise with U2), and the Riemannian
    one is e projected off the rows of U.  Along a tangent xi, the top
    eigenspace turns by W_ X with X = (W_^T dS W) / (lambda_a - lambda_b),
    dS = dA^T A + A^T dA, so dH = W (dA W + A W_ X)^T R(1) + W_ X (A W)^T R(1),
    and the Hessian is P(De[xi]) - (e U^T) xi on the Grassmann quotient
    (Absil, Mahony & Sepulchre 2008).  Every contraction with R, the C-ordered
    (N', M, K) array `work`, runs once per point: R x3 U3 through
    :func:`_contracted`, R x2 U2 as one batched product U2 R[i] per slice,
    each with the identity in the other mode, and T = (A W)^T R(1); a Hessian
    product then only contracts these with small matrices.  Tangents are
    (xi2, xi3) raveled into one vector.  `degenerate` is True when
    lambda_L1 - lambda_L1+1 <= NOISE_FLOOR * lambda_1, where X is undefined.
    A point whose f or gradient norm is not finite, as where the data's scale
    overflows them, raises FloatingPointError.
    """

    def __init__(self, work: np.ndarray, u2, u3, l1: int):
        (l2, m), (l3, k) = u2.shape, u3.shape
        self.work, self.u2, self.u3 = work, u2, u3
        # (N', L3 * M) and (N', L2 * K), columns (c, j) and (b, k)
        self.ru3 = _contracted(work, None, None, u3, mode=1)
        self.ru2 = np.matmul(u2, work).reshape(len(work), -1)
        self.a = (self.ru3.reshape(-1, m) @ u2.T).reshape(-1, l3 * l2)
        lam, vecs = np.linalg.eigh(self.a.T @ self.a)
        below = lam[-l1 - 1] if l1 < lam.size else 0.0
        self.degenerate = not lam[-l1] - below > NOISE_FLOOR * lam[-1]
        self.w, self.lam, self.w_, self.lam_ = vecs[:, -l1:], lam[-l1:], vecs[:, :-l1], lam[:-l1]
        self.f = float(np.sum(self.lam))
        self.aw = self.a @ self.w
        self.e2, self.e3 = self._contract(self.aw @ self.w.T)
        self.grad = self._project(self.e2, self.e3)
        if not (np.isfinite(self.f) and np.isfinite(np.linalg.norm(self.grad))):
            raise FloatingPointError("non-finite values during HOOI iteration")

    @functools.cached_property
    def _t(self) -> tuple[np.ndarray, np.ndarray]:
        """T = (A W)^T R(1) as (L1 * M, K) and, transposed, as (M, L1 * K)."""
        r = self.work
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


class _Sweeper:
    """hooi's plain sweeps and the data they read: X(1), ||x||, G and the trust region's R.

    A sweep from (U2, U3) contracts the data at most once.  Mode 1 contracts
    it with the mode-2/3 factors, A = X(1) W^T with W their Kronecker product
    in the kernel's column order, and its new factor V1 = Lambda^-1/2 W_A^T
    A^T, from the top-L1 eigenpairs (Lambda, W_A) of A^T A, gives Z = V1 X(1),
    an (L1, M, K) tensor from which modes 2 and 3 and the projected core
    follow.  The mode-1 route is decided once, from the shape.  When
    N >= M*K, G = X(1)^T X(1), formed by one product of the data, is no
    larger than the data: each sweep then takes P = W G through the
    contraction kernel, A^T A = P W^T and Z = Lambda^-1/2 W_A^T P, so neither
    A, V1 nor an (L1, M*K) x (M*K, M*K) product is formed.  V1 is formed, from
    the data, only where :meth:`residual` forms the model, and a mode-1
    spectrum below the noise floor of :func:`_top_eigenpairs` takes the top
    vectors of A from the data instead, through :meth:`lift`.  When N < M*K,
    G would be larger than the data, and each sweep forms A and Z from the
    data and V1 from A.  Other top vectors come from the smaller Gram matrix.
    `history` holds the residual of the start with its optimal U1, which
    bounds the first sweep's from above, then one entry per sweep.
    """

    def __init__(self, t: Tensor3, ranks: tuple[int, int, int], factor_tol: float):
        n, m, k = t.dims
        self.t, self.x, self.ranks, self.factor_tol = t, t.values, ranks, factor_tol
        self.x1 = self.x.reshape(n, m * k)
        norm_x = frobenius_norm(t)  # one pass, no copy; raises first when ||x||^2 overflows
        self.norm_x_sq, self.scale = norm_x * norm_x, norm_x if norm_x > 0 else 1.0
        # G = X(1)^T X(1), no larger than the data once N >= M*K; rows (j, k) as X(1)'s columns
        self.gram = (self.x1.T @ self.x1).reshape(-1, m, k) if n >= m * k else None
        self.history = []

    def start(self) -> tuple[np.ndarray, np.ndarray]:
        """The HOSVD's U2 and U3; no U1 or core is formed for them.

        On the G route their Grams, those of unfold(t, 2) and unfold(t, 3), are
        partial traces of G, and the unfolding is formed only for the SVD below
        their noise floor.
        """
        (_, l2, l3), t = self.ranks, self.t
        if self.gram is None:
            return _top_left_vectors(unfold(t, 2), l2), _top_left_vectors(unfold(t, 3), l3)
        g4 = self.gram.reshape(self.gram.shape[1:] * 2)
        return (_top_left_vectors(lambda: unfold(t, 2), l2, np.trace(g4, axis1=1, axis2=3)),
                _top_left_vectors(lambda: unfold(t, 3), l3, np.trace(g4, axis1=0, axis2=2)))

    def lift(self, w2, w3) -> np.ndarray:
        """U1 from the data: the top-L1 left singular vectors of X(1) W, W from w2 and w3."""
        return _top_left_vectors(_contracted(self.x, None, w2, w3, mode=1), self.ranks[0])

    def factor_change(self, moved: float, w, previous_w) -> float:
        """moved, the U2/U3 change, or once that passes factor_tol the U1 lift's change too."""
        if moved < self.factor_tol:
            # the U1 lift reads the data: it is taken only once U2 and U3 pass
            moved = max(moved, float(np.max(np.abs(self.lift(*w) - self.lift(*previous_w)))))
        return moved

    def residual(self, core: np.ndarray, v1, u2, u3) -> float:
        """||x - [[core; v1(), u2, u3]]|| for orthonormal factors and the projected core.

        The residual is sqrt(||x||^2 - ||core||^2) unless that is at or below
        1e-6 ||x||, where cancellation would dominate: there it is formed
        (:func:`_explicit_residual`, with v1 called for U1) and its squared
        norm taken as np.linalg.norm takes it, by one dot product.
        """
        # core is a transposed view of the sweep's array: its squares are summed in memory order
        r2 = self.norm_x_sq - linalg._sum_of_squares(core.ravel(order="K"))
        if np.isfinite(r2) and r2 <= (1e-6 * self.scale) ** 2:
            r2 = linalg._sum_of_squares(_explicit_residual(self.x, core, v1(), u2, u3))
        if not np.isfinite(r2):
            raise FloatingPointError("non-finite values during HOOI iteration")
        return float(np.sqrt(r2))

    @functools.cached_property
    def trust_data(self) -> np.ndarray:
        """The trust region's R (R^T R = G), C-ordered (N', M, K).

        Formed once, when the trust region first starts: R is the Cholesky
        factor of G, the R of a QR of X(1) where G is not numerically positive
        definite (M*K rows either way), and X(1) itself where there is no G.
        """
        if self.gram is None:
            return self.x
        try:
            r = np.linalg.cholesky(self.gram.reshape(len(self.gram), -1)).T.copy()
        except np.linalg.LinAlgError:
            r = np.linalg.qr(self.x1, mode="r")
        return r.reshape(self.gram.shape)

    def sweep(self, in2, in3) -> tuple[np.ndarray, np.ndarray]:
        """One plain sweep from (in2, in3): the new U2 and U3, whose residual joins history."""
        (l1, l2, l3), (m, k) = self.ranks, self.x.shape[1:]
        top = None
        if self.gram is not None:
            # P = (U2 kron U3) G, so A^T A = P (U2 kron U3)^T for A = X(1) (U2 kron U3)^T
            p = _contracted(self.gram, None, in2, in3, mode=1).T
            top = _top_eigenpairs(_contracted(p.reshape(-1, m, k), None, in2, in3, mode=1), l1)
        if top is None:
            s1 = self.lift(in2, in3)
            z, v1 = s1 @ self.x1, lambda: s1
        else:
            # V1 = Lambda^-1/2 W_A^T A^T, so Z = V1 X(1) = Lambda^-1/2 W_A^T P without V1
            coef = top[1] / np.sqrt(top[0])
            z, v1 = coef.T @ p, lambda: (_contracted(self.x, None, in2, in3, mode=1) @ coef).T
        # Z already carries the mode-1 factor: None skips it
        z = z.reshape(l1, m, k)
        if not self.history:
            core_in = _contracted(z, None, in2, in3, mode=1).reshape(l1, l3, l2)
            self.history.append(self.residual(core_in.transpose(0, 2, 1), v1, in2, in3))
        s2 = _top_left_vectors(_contracted(z, None, in2, in3, mode=2), l2)
        contracted3 = _contracted(z, None, s2, in3, mode=3)
        s3 = _top_left_vectors(contracted3, l3)
        core = (s3 @ contracted3).reshape(l3, l2, l1)
        self.history.append(self.residual(core.transpose(2, 1, 0), v1, s2, s3))
        return s2, s3


def _explicit_residual(x: np.ndarray, core: np.ndarray, u1, u2, u3) -> np.ndarray:
    """x - [[core; u1, u2, u3]] in one fresh C-ordered array, the model's, subtracted in place."""
    resid = np.empty(x.shape)
    # einsum's own product is a transposed view: out= has it copied into C order
    np.einsum("abc,ai,bj,ck->ijk", core, u1, u2, u3, out=resid, optimize=True)
    return np.subtract(x, resid, out=resid)


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


def _trust_region_step(sweeper: _Sweeper, point: _CoreNorm,
                       radius: float) -> tuple[_CoreNorm | None, float, float]:
    """One Riemannian trust-region step from `point` (Absil, Baker & Gallivan 2007).

    It maximizes ||core||^2 over the Grassmann pair (U2, U3) with U1 optimal,
    on :class:`_CoreNorm`'s exact gradient and Hessian, the step from
    :func:`_truncated_cg` and retracted by QR.  Every quantity there is
    bilinear in X(1), so it runs on any R with R^T R = G
    (:attr:`_Sweeper.trust_data`).  The step is kept when the ratio of
    actual to predicted increase, both offset by 1e3 eps |f| against
    cancellation, exceeds 0.1; the radius is quartered below a ratio of 0.25
    and doubled, up to TR_RADIUS, above 0.75 for a step of at least 0.99 of
    the radius.  Returns the trial point (None when the step is rejected),
    the step's largest entry and the new radius.
    """
    noise = 1e3 * np.finfo(float).eps * abs(point.f)  # rounding level of f and its gradient
    step, predicted = _truncated_cg(point, radius, noise)
    step2, step3 = point.split(step)
    trial = _CoreNorm(sweeper.trust_data, _retract(point.u2, step2), _retract(point.u3, step3),
                      sweeper.ranks[0])
    rho = (trial.f - point.f + noise) / (predicted + noise)
    if rho < 0.25:
        radius /= 4
    elif rho > 0.75 and np.linalg.norm(step) >= 0.99 * radius:
        radius = min(2 * radius, TR_RADIUS)
    return trial if rho > 0.1 else None, float(np.max(np.abs(step))), radius


def hooi(
    t: Tensor3,
    ranks,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    factor_tol: float = DEFAULT_FACTOR_TOL,
) -> tuple[TuckerModel, FitReport]:
    """Higher-order orthogonal iteration from an HOSVD start, finished by a trust region.

    Each sweep (:class:`_Sweeper`) updates every factor to the leading left
    singular vectors of the contracted unfolding, then re-solves the core.
    Plain sweeps run from the HOSVD's U2 and U3 until the change of the
    relative reconstruction error (residual Frobenius norm over the input
    norm) falls below `tol`; the fit stops there if the largest entrywise
    factor change of the sweep is also below `factor_tol`.  The residual
    alone flattens long before near-degenerate trailing components stop
    rotating; the regression fixed point that :func:`self_consistency_check`
    certifies is reached only once the factors themselves stop moving.

    Where the residual criterion holds but the factors still move, plain
    sweeps would close the rest of the way linearly, at about 0.995 per
    sweep.  Trust-region steps (:func:`_trust_region_step`) take over there,
    until a kept step moves U2 and U3, and then the U1 lift, by less than
    `factor_tol`; one plain sweep from that point gives U2 and U3 in the
    sweeps' basis.  Where the L1-th and (L1+1)-th eigenvalues of A^T A meet
    (see :class:`_CoreNorm`), the Hessian is undefined and the fit keeps
    sweeping plainly.  `max_iter` bounds sweeps and trust-region steps
    together.  The returned U1 is computed once from the data, as the top
    left singular vectors of unfold(t, 1) W for the W that V1 came from, and
    the returned core from the returned factors.  Data whose squared norm
    overflows raise FloatingPointError before any of this.
    """
    ranks = _validate_ranks(t.dims, ranks)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    for name, value in (("tol", tol), ("factor_tol", factor_tol)):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")

    sweeper = _Sweeper(t, ranks, factor_tol)
    # w is the W that V1 came from: the start's U1 is the optimal one for its U2 and U3
    u2, u3 = w = sweeper.start()
    point, radius, newton_steps = None, TR_RADIUS, 0  # point: the trust region's, once it runs
    moved = gradient_norm = None
    for _ in range(max_iter):
        if point is None:
            previous_w, w = w, (u2, u3)
            u2, u3 = sweeper.sweep(*w)
            history = sweeper.history
            if not abs(history[-2] - history[-1]) / sweeper.scale < tol:
                continue
            change = max(float(np.max(np.abs(a - b))) for a, b in zip((u2, u3), w))
            moved = sweeper.factor_change(change, w, previous_w)
        else:
            trial, change, radius = _trust_region_step(sweeper, point, radius)
            if trial is None:
                continue
            newton_steps += 1
            moved = sweeper.factor_change(change, (trial.u2, trial.u3), (u2, u3))
            point, (u2, u3) = trial, (trial.u2, trial.u3)
            w = (u2, u3)  # V1 is the point's own optimal U1
            gradient_norm = float(np.linalg.norm(point.grad))
        if moved < factor_tol:
            break
        if point is None:
            point = _CoreNorm(sweeper.trust_data, u2, u3, ranks[0])
        if point.degenerate:
            point = None

    if w[0] is u2:
        # the last iterate is the trust region's: one sweep puts U2 and U3 in the sweeps' basis
        u2, u3 = sweeper.sweep(u2, u3)
    u1 = sweeper.lift(*w)
    core = _folding(u1 @ _contracted(t.values, u1, u2, u3, mode=1), 1, ranks)
    converged = moved is not None and moved < factor_tol
    report = FitReport(sweeps=len(sweeper.history) - 1, residual_history=np.array(sweeper.history),
                       converged=converged, stop_reason="factor_tol" if converged else "max_iter",
                       newton_steps=newton_steps, final_factor_change=moved,
                       final_gradient_norm=gradient_norm)
    return TuckerModel(core=core, u1=u1, u2=u2, u3=u3), report


def _least_squares_core(x: np.ndarray, factors, y3: np.ndarray | None = None) -> np.ndarray:
    """Least-squares core of the data array x for fixed factors (u1, u2, u3).

    The data are contracted with pinv(u_m)^T in every mode, which solves the
    regression of the vectorized tensor on the Kronecker design.  A factor
    whose rows are orthonormal to ORTHONORMALITY_TOL enters as itself, so
    row-orthonormal factors give the projected core
    G[a,b,c] = sum_{ijk} u1[a,i] u2[b,j] u3[c,k] x[i,j,k].  y3, the data's
    Y(3) with the factors themselves, saves the contraction where every factor
    enters as itself (:func:`_core_data`).
    """
    ranks = [u.shape[0] for u in factors]
    return _folding(_core_factor(factors[2]) @ _core_data(x, factors, 3, y3), 3, ranks)


def _check_dims(t: Tensor3, model: TuckerModel) -> None:
    if model.dims != t.dims:
        raise ValueError(f"model dims {model.dims} do not match tensor dims {t.dims}")


def _check_alpha(alpha: float) -> None:
    if not 0 <= alpha <= sys.float_info.max:  # NaN fails, as in load_model
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")


def _check_posterior_args(t: Tensor3, model: TuckerModel, alpha: float, beta: float) -> None:
    if not 0 < beta <= sys.float_info.max:  # NaN fails, as in load_model
        raise ValueError(f"beta must be finite and > 0, got {beta}")
    _check_alpha(alpha)
    _check_dims(t, model)


def _mode_posterior(y: np.ndarray, model: TuckerModel, mode: int,
                    alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean (gram + alpha/beta I)^+ G(m) Y(m)^T and covariance (alpha I + beta gram)^+.

    y is Y(m), the data contracted with the model's factors; gram is
    Phi(m)^T Phi(m), inverted from the SVD of G(m) K (see the module docstring).
    """
    g = _unfolding(model.core, mode)
    inv = linalg.gram_inverse(g @ _kron_root((model.u1, model.u2, model.u3), mode), alpha / beta)
    return inv @ (g @ y.T), inv / beta


def posterior_stats(
    t: Tensor3, model: TuckerModel, mode: int, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean matrix and shared covariance for one mode's coefficients.

    Returns (mean, cov) with mean of shape (L, dim), one column per fiber,
    and cov = (alpha*I + beta*Phi^T Phi)^+ of shape (L, L); the mean is
    beta * cov @ Phi^T X^T, the least-squares solution at alpha = 0.
    """
    _check_mode(mode)
    _check_posterior_args(t, model, alpha, beta)
    y = _contracted(t.values, model.u1, model.u2, model.u3, mode)
    return _mode_posterior(y, model, mode, alpha, beta)


def _residual(t: Tensor3, x_sq: float, model: TuckerModel, y3: np.ndarray) -> tuple[float, float]:
    """||x - model|| and the noise precision of that residual (:func:`linalg.noise_precision`).

    x_sq is ||x||^2 (:func:`linalg._sum_of_squares`) and y3 the data's mode-3
    contraction with the model's u1 and u2 (:func:`_contracted`).  For any
    factors, ||x - [[C; U1, U2, U3]]||^2 = ||x||^2 - 2 <C, P> + <C, C x_m U_m U_m^T>
    with P = U3 Y(3), the data contracted with all three factors (Kolda &
    Bader 2009, section 4.2), so only core-sized arrays are formed.  Its
    rounding is a few eps ||x||^2, so where that sum is non-finite or at or
    below RESIDUAL_CANCELLATION ||x||^2 the residual is formed instead
    (:func:`_explicit_residual`).  A residual whose squared norm overflows
    raises FloatingPointError.
    """
    core, factors = model.core, (model.u1, model.u2, model.u3)
    g1, g2, g3 = (u @ u.T for u in factors)
    # a non-finite sum takes the explicit residual; a non-finite one there raises below
    with np.errstate(over="ignore"):
        # C x1 G1 x2 G2 x3 G3: G1 on the rows, G2 on each (L2, L3) slice, G3 on the columns
        spread = (g2 @ (g1 @ core.reshape(core.shape[0], -1)).reshape(core.shape)) @ g3.T
        r2 = (x_sq - 2 * float(np.vdot(_unfolding(core, 3), factors[2] @ y3))
              + float(np.vdot(core, spread)))
        if not (np.isfinite(r2) and r2 > RESIDUAL_CANCELLATION * x_sq):
            resid = _explicit_residual(t.values, core, *factors)
            r2 = float(np.sum(np.square(resid, out=resid)))
    return float(np.sqrt(r2)), linalg.noise_precision(r2, t.values.size)


def estimate_beta(t: Tensor3, model: TuckerModel) -> float:
    """The noise precision of the model's residual (see :func:`linalg.noise_precision`).

    The residual is formed only where its squared norm is at most
    RESIDUAL_CANCELLATION times ||x||^2 (see :func:`_residual`).
    """
    _check_dims(t, model)
    y3 = _contracted(t.values, model.u1, model.u2, None, 3)
    return _residual(t, linalg._sum_of_squares(t.values), model, y3)[1]


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
    (Phi^T Phi + alpha*I)^+ Phi^T X^T for the current core and other
    factors, the component's row is orthogonalized against earlier rows and
    normalized, and the core is re-solved.  The other two factors stay fixed
    within a mode, so Y(m) is contracted once per mode (see the module
    docstring).  Sweeps stop when the largest entrywise factor change falls
    below `tol` (stop reason "factor_tol").  beta is the noise precision of
    the final residual.  The report leaves self_consistent and
    max_mode_deviation None: :func:`self_consistency_check` certifies a fit.
    """
    _check_alpha(alpha)
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    _check_dims(t, init)

    factors = [init.u1.copy(), init.u2.copy(), init.u3.copy()]
    core = init.core.copy()
    x = t.values
    x_sq = linalg._sum_of_squares(x)

    norm, beta = _residual(t, x_sq, init, _contracted(x, *factors, 3))
    history = [norm]
    for sweeps in range(1, max_sweeps + 1):
        before = [u.copy() for u in factors]
        for mode in (1, 2, 3):
            y = _contracted(x, *factors, mode)
            y_core = _core_data(x, factors, mode, y)
            root = _kron_root(factors, mode)
            u = factors[mode - 1]
            for comp in range(u.shape[0]):
                g = _unfolding(core, mode)
                ridge = linalg.gram_inverse(g @ root, alpha)
                u[comp] = (ridge[comp] @ g) @ y.T
                try:
                    factors[mode - 1] = linalg.orthonormalize_rows(u, comp)
                except DegenerateRowError as exc:
                    raise DegenerateComponentError(mode, comp) from exc
                u = factors[mode - 1]
                core = _folding(_core_factor(u) @ y_core, mode, core.shape)
        model = TuckerModel(core, *factors)
        # mode 3's Y: it holds the final u1 and u2, and u3 does not enter it
        norm, beta = _residual(t, x_sq, model, y)
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
    return model, beta, report


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
    sign information).  The core is compared with :func:`_least_squares_core`
    of the model's factors, the core that :func:`hooi` and :func:`btud_fit`
    return, so the core check does not depend on `alpha`.
    The model is accepted when every deviation is at most `tol`.
    """
    _check_posterior_args(t, model, alpha, beta)
    factors = (model.u1, model.u2, model.u3)
    deviations = []
    for mode in (1, 2, 3):
        u = model.factor(mode)
        y = _contracted(t.values, *factors, mode)
        m = _mode_posterior(y, model, mode, alpha, beta)[0]
        m *= np.where(np.sum(m * u, axis=1) < 0, -1.0, 1.0)[:, None]
        deviations.append(float(np.max(np.abs(u - m))))
    core = _least_squares_core(t.values, factors, y)  # the last y is Y(3)
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
