"""Plain reference implementations (oracles) that the tests check btucker's solvers against.

Each reference_* function and design_matrix computes the textbook formula
directly: full-tensor einsum contractions, the explicit (M*K, L) regression
design, the SVD pseudoinverse with its own cutoff (:func:`pseudoinverse`) and
the residual of the reconstructed model (:func:`reference_residual`).
reference_hosvd is the exception: the truncated HOSVD that tests start their
solvers from, built by btucker.decomp's own top-vector and core helpers.
ReferenceCoreNorm is ||core||^2, its gradient and its Hessian contracted from
the data (or any R with R^T R = X(1)^T X(1)) at every point and every product,
the kernel that btucker.decomp._GramCoreNorm regroups into Gram blocks of G
(where N < M*K, btucker.decomp._DataCoreNorm runs the same algorithm), and
reference_tangent_hessian the dense matrix of the reference's Hessian on an
orthonormal basis of the tangent space, whose largest eigenvalue tells a local
maximum from a saddle; kernel_deviations measures btucker's kernel against the
reference.
reference_text_file is the per-value text writer that btucker.tensor's block
writer must match byte for byte; reference_coupling_matrix draws the coupled
maps' coupling rows one new generator at a time; reference_matrix_report plots
a matrix run from the SVD of its re-read data; reference_sigma_objectives is the
null-SD search as a plain loop over every candidate's P-values.
"""

import functools
from pathlib import Path

import numpy as np
from scipy.linalg import block_diag

from btucker import datagen, decomp, linalg, select
from btucker.decomp import (ORTHONORMALITY_TOL, TuckerModel, _contracted, _least_squares_core,
                            _top_left_vectors, _validate_ranks)
from btucker.linalg import BETA_CAP, NOISE_FLOOR
from btucker.tensor import read_matrix, reconstruct, unfold

# Relative singular-value cutoff for the pseudoinverse; values below
# PINV_RTOL_FACTOR * max(rows, cols) * s_max are treated as zero.
PINV_RTOL_FACTOR = 1e-12


def pseudoinverse(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse via SVD with a relative cutoff.

    Reduces to (A^T A)^{-1} A^T for full-column-rank A but stays defined for
    rank-deficient input, which the alternating solver can produce.
    """
    a = np.asarray(a, dtype=np.float64)
    res = linalg.svd(a)
    if res.s.size == 0 or res.s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    cutoff = PINV_RTOL_FACTOR * max(a.shape) * res.s[0]
    keep = res.s > cutoff
    inv_s = np.zeros_like(res.s)
    inv_s[keep] = 1.0 / res.s[keep]
    return (res.V * inv_s) @ res.U.T


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


def reference_hosvd(t, ranks):
    """Truncated HOSVD: factor m = leading left singular vectors of unfold(t, m)."""
    ranks = _validate_ranks(t.dims, ranks)
    factors = [_top_left_vectors(unfold(t, m), ranks[m - 1]) for m in (1, 2, 3)]
    core = _least_squares_core(t.values, factors)
    return TuckerModel(core=core, u1=factors[0], u2=factors[1], u3=factors[2])


def reference_top_vectors(y, rank):
    """Leading left singular vectors of y unfolded along its first axis, as rows."""
    return linalg.svd(y.reshape(y.shape[0], -1), rank=rank).U.T


def reference_hooi(t, ranks, max_iter, tol, factor_tol, init=None):
    """Textbook HOOI: einsum contractions and linalg.svd top vectors on the full tensor.

    No Gram matrix and no trust-region finish; starts from init, a (U2, U3) pair,
    or by default from the textbook HOSVD's U2 and U3, with their optimal U1
    (:func:`reference_optimal_u1`).  It stops once the relative residual change
    is below tol and the largest entrywise factor change below factor_tol, or
    after max_iter sweeps.  Returns (model, residual history).
    """
    x = t.values
    scale = np.linalg.norm(x)

    def fit(u1, u2, u3):
        core = np.einsum("ijk,ai,bj,ck->abc", x, u1, u2, u3, optimize=True)
        approx = np.einsum("abc,ai,bj,ck->ijk", core, u1, u2, u3, optimize=True)
        return core, float(np.linalg.norm(x - approx))

    if init is None:
        init = [linalg.svd(unfold(t, m), rank=r).U.T for m, r in zip((2, 3), ranks[1:])]
    u = [reference_optimal_u1(t, *init, ranks[0]), *init]
    core, res = fit(*u)
    history = [res]
    for _ in range(max_iter):
        previous = u
        u1 = reference_top_vectors(np.einsum("ijk,bj,ck->ibc", x, u[1], u[2], optimize=True), ranks[0])
        u2 = reference_top_vectors(np.einsum("ijk,ai,ck->jac", x, u1, u[2], optimize=True), ranks[1])
        u3 = reference_top_vectors(np.einsum("ijk,ai,bj->kab", x, u1, u2, optimize=True), ranks[2])
        u = [u1, u2, u3]
        core, res = fit(*u)
        history.append(res)
        if (abs(history[-2] - history[-1]) / scale < tol
                and max(np.max(np.abs(a - b)) for a, b in zip(u, previous)) < factor_tol):
            break
    return TuckerModel(core=core, u1=u[0], u2=u[1], u3=u[2]), np.array(history)


def reference_optimal_u1(t, u2, u3, l1):
    """U1 optimal for (u2, u3): the top-l1 left singular vectors of the mode-1 contraction."""
    return reference_top_vectors(np.einsum("ijk,bj,ck->ibc", t.values, u2, u3, optimize=True), l1)


def reference_core_norm(t, u2, u3, l1):
    """||core||^2 at (u2, u3) with u1 optimal for them (:func:`reference_optimal_u1`)."""
    u1 = reference_optimal_u1(t, u2, u3, l1)
    core = np.einsum("ijk,ai,bj,ck->abc", t.values, u1, u2, u3, optimize=True)
    return float(np.sum(core * core))


def reference_tangent_hessian(t, model):
    """The dense Riemannian Hessian of ||core||^2 at the model's (U2, U3), U1 optimal.

    Its (i, j) entry is <e_i, Hess e_j> for the orthonormal basis e of the
    tangent space at (U2, U3): row a of the mode's factor moved along row b of
    Q_perp, an orthonormal basis of the rows' complement, one mode at a time,
    L2 (M - L2) + L3 (K - L3) vectors in all.  Returns the matrix and the
    point's `degenerate` flag, where the Hessian is undefined.  Each column is one product of
    :class:`ReferenceCoreNorm`'s Hessian on the data itself, so the check
    shares no code with btucker's kernel, which TestCoreNorm checks against
    this reference and against central differences of
    :func:`reference_core_norm`.  Its largest eigenvalue is negative at a
    strict local maximum.
    """
    point = ReferenceCoreNorm(t.values, model.u2, model.u3, model.ranks[0])
    # row (a, b) of kron(I, Q_perp), raveled like u, moves row a of u along row b of Q_perp
    basis = block_diag(*(np.kron(np.eye(len(u)), np.linalg.qr(u.T, mode="complete")[0][:, len(u):].T)
                         for u in (model.u2, model.u3)))
    return basis @ np.array([point.hessian(e) for e in basis]).T, point.degenerate


class ReferenceCoreNorm:
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


def kernel_deviations(t, u2, u3, l1, products=3, seed=63) -> dict[str, float]:
    """btucker's trust-region kernel (decomp._Sweeper.point) against :class:`ReferenceCoreNorm`.

    Both are evaluated at (u2, u3) with U1 optimal, the kernel on G (or X(1))
    and the reference on the data.  Returns relative deviations: "f";
    "gradient", over |grad_ref|, and "gradient_e", over the norm of the
    Euclidean gradient e_ref that grad_ref is projected from (at a fitted
    point grad_ref is itself rounding, and only the second is meaningful);
    and "hessian", the largest |H xi - H_ref xi| / |H_ref xi| over `products`
    random tangents xi drawn from default_rng(seed), None where the reference
    point is degenerate and the Hessian undefined.
    """
    ranks = (l1, len(u2), len(u3))
    point = decomp._Sweeper(t, ranks, decomp.DEFAULT_FACTOR_TOL).point(u2, u3)
    want = ReferenceCoreNorm(t.values, u2, u3, l1)
    change = np.linalg.norm(point.grad - want.grad)
    rng = np.random.default_rng(seed)
    hessian = None if want.degenerate else 0.0
    for _ in range(0 if want.degenerate else products):
        xi = want._project(rng.normal(size=u2.shape), rng.normal(size=u3.shape))
        got, expected = point.hessian(xi), want.hessian(xi)
        hessian = max(hessian, float(np.linalg.norm(got - expected) / np.linalg.norm(expected)))
    return {"f": abs(point.f - want.f) / want.f,
            "gradient": float(change / np.linalg.norm(want.grad)),
            "gradient_e": float(change / np.linalg.norm(np.concatenate((want.e2.ravel(),
                                                                        want.e3.ravel())))),
            "hessian": hessian}


def reference_residual(t, model):
    """||t - model|| and its noise precision, from the explicitly reconstructed residual.

    The precision is written out here, size / ssq capped at BETA_CAP, so that
    it shares no code with linalg.noise_precision, the rule it checks.
    """
    resid = t.values - reconstruct(model).values
    ssq = float(np.sum(resid * resid))
    beta = min(resid.size / ssq, BETA_CAP) if ssq > 0 else BETA_CAP
    return float(np.linalg.norm(resid.ravel())), beta


def reference_core_regression(t, u1, u2, u3):
    """The least-squares core by full-tensor einsum: projected if every factor is orthonormal."""
    defect = max(float(np.max(np.abs(u @ u.T - np.eye(u.shape[0])))) for u in (u1, u2, u3))
    if defect > ORTHONORMALITY_TOL:
        u1, u2, u3 = (pseudoinverse(u).T for u in (u1, u2, u3))
    return np.einsum("ijk,ai,bj,ck->abc", t.values, u1, u2, u3, optimize=True)


def reference_btud_fit(t, init, alpha, max_sweeps, tol):
    """The alternating-regression solver on the explicit design matrix.

    Per component it builds the full design, solves every row through its
    SVD pseudoinverse (or the ridge pseudoinverse), keeps one row and
    re-solves the core on the full tensor.  Returns (model, residual
    history, beta, sweeps, converged).
    """
    factors = [init.u1.copy(), init.u2.copy(), init.u3.copy()]
    core = init.core.copy()
    unfoldings = {mode: unfold(t, mode) for mode in (1, 2, 3)}

    def current_model():
        return TuckerModel(core=core, u1=factors[0], u2=factors[1], u3=factors[2])

    norm, beta = reference_residual(t, current_model())
    history = [norm]
    converged = False
    sweeps = 0
    for _ in range(max_sweeps):
        before = [u.copy() for u in factors]
        for mode in (1, 2, 3):
            u = factors[mode - 1]
            xm = unfoldings[mode]
            for comp in range(u.shape[0]):
                phi = design_matrix(current_model(), mode)
                if alpha == 0.0:
                    coef = pseudoinverse(phi) @ xm.T
                else:
                    ridge = pseudoinverse(phi.T @ phi + alpha * np.eye(phi.shape[1]))
                    coef = ridge @ phi.T @ xm.T
                u[comp] = coef[comp]
                factors[mode - 1] = linalg.orthonormalize_rows(u, comp)
                u = factors[mode - 1]
                core = reference_core_regression(t, *factors)
        sweeps += 1
        norm, beta = reference_residual(t, current_model())
        history.append(norm)
        delta = max(float(np.max(np.abs(a - b))) for a, b in zip(factors, before))
        if delta < tol:
            converged = True
            break
    return current_model(), np.array(history), beta, sweeps, converged


def reference_posterior(t, model, mode, alpha, beta):
    """Posterior mean and covariance of one mode on the explicit design matrix."""
    phi = design_matrix(model, mode)
    xm = unfold(t, mode)
    if alpha == 0.0:
        p = pseudoinverse(phi)  # (Phi^T Phi)^+ = Phi^+ Phi^+T, without squaring Phi's condition
        return p @ xm.T, p @ p.T / beta
    cov = np.linalg.inv(alpha * np.eye(phi.shape[1]) + beta * (phi.T @ phi))
    return beta * cov @ phi.T @ xm.T, cov


def reference_matrix_posterior(x, rank):
    """The matrix btud route on its explicit design: the right singular vectors times s.

    Returns the posterior (mean, cov) of the row coefficients of components
    1..rank at alpha = 0, with beta from the residual of their reconstruction.
    """
    res = linalg.svd(x, rank=rank)
    phi = res.V * res.s
    resid = x - (res.U * res.s) @ res.V.T
    beta = x.size / float(np.sum(resid * resid))
    return pseudoinverse(phi) @ x.T, pseudoinverse(beta * (phi.T @ phi))


def reference_sigma_objectives(u, components, grid) -> np.ndarray:
    """The null-SD search's objective at every candidate of `grid`; inf where BH excludes all.

    Every candidate's P-values are computed, BH-adjusted and binned by np.histogram.
    """
    u = np.asarray(u, dtype=np.float64)
    comps = np.array(sorted(set(int(c) for c in components)))
    objectives = []
    for cand in grid:
        p = select.td_pvalues(u, cand, comps)
        keep = select.bh_adjust(p) > select.DEFAULT_EXCLUSION_THRESHOLD
        if not np.any(keep):
            objectives.append(np.inf)
            continue
        h, _ = np.histogram(1.0 - p[keep], bins=select.DEFAULT_BINS, range=(0.0, 1.0))
        objectives.append(float(np.sqrt(np.mean((h - h.mean()) ** 2))))
    return np.array(objectives)


def reference_text_file(header: str, flat) -> bytes:
    """A T3/M2 file as the per-value writer prints it: 8 values a line, each '{:.17g}'."""
    lines = [header]
    for start in range(0, len(flat), 8):
        lines.append(" ".join(map("{:.17g}".format, flat[start : start + 8])))
    return ("\n".join(lines) + "\n").encode()


def reference_coupling_matrix(n: int, seed: int) -> np.ndarray:
    """The coupled maps' (n, n) coupling entries, row by row, each from a new keyed Philox."""
    keys = ([seed, (datagen._PURPOSE_GCM_COUPLING_ROW << 32) | i] for i in range(n))
    return np.array([np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
                     .random(n) for key in keys])


def reference_matrix_report(run_dir, mode: str) -> dict[str, bytes]:
    """The plotted-factor CSVs of a matrix run's report, from its data.txt: {name: bytes}.

    The factors are the leading two singular vectors of the matrix the `mode`
    route scored (u2 = 0 at rank 1), from the data read back and factored
    again; the CSVs are written cell by cell ('{:.17g}' floats, CRLF lines).
    """
    run_dir = Path(run_dir)
    svd = linalg.svd(select.scored_matrix(read_matrix(run_dir / "data.txt"), mode), rank=2)
    u, v = (np.pad(a, ((0, 0), (0, 2 - svd.rank))) for a in (svd.U, svd.V))
    selected = select.read_selection_csv(run_dir / "selection.csv").selected.astype(int)
    truth_path = run_dir / "truth.csv"
    truth = (datagen.read_truth_csv(truth_path).astype(int) if truth_path.exists()
             else [""] * selected.size)

    def cell(c) -> str:
        return "{:.17g}".format(c) if isinstance(c, float) else str(c)

    def text(header, rows) -> bytes:
        return "".join(",".join(map(cell, row)) + "\r\n" for row in [header, *rows]).encode()

    n, m = u.shape[0], v.shape[0]
    return {
        "u1u2_scatter.csv": text(["feature_index", "u1i", "u2i", "truth", "selected"],
                                 zip(range(1, n + 1), u[:, 0], u[:, 1], truth, selected)),
        "uj_series.csv": text(["j", "u1j", "u2j"], zip(range(1, m + 1), v[:, 0], v[:, 1])),
    }
