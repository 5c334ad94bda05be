"""Plain reference implementations (oracles) that the tests check btucker's solvers against.

Each reference_* function and design_matrix computes the textbook formula
directly: full-tensor einsum contractions, the explicit (M*K, L) regression
design, the SVD pseudoinverse with its own cutoff (:func:`pseudoinverse`) and
the residual of the reconstructed model (:func:`reference_residual`).
reference_hosvd is the exception: the truncated HOSVD that tests start their
solvers from, built by btucker.decomp's own top-vector and core helpers.
SwappedCoreNorm is the trust region's kernel with R x2 U2 formed from a
mode-2/3-swapped copy of R.
reference_text_file is the per-value text writer that btucker.tensor's block
writer must match byte for byte; reference_coupling_matrix draws the coupled
maps' coupling rows one new generator at a time; reference_matrix_report plots
a matrix run from the SVD of its re-read data; reference_sigma_objectives is the
null-SD search as a plain loop over every candidate's P-values.
"""

from pathlib import Path

import numpy as np

from btucker import datagen, linalg, select
from btucker.decomp import (ORTHONORMALITY_TOL, TuckerModel, _contracted, _CoreNorm,
                            _least_squares_core, _top_left_vectors, _validate_ranks)
from btucker.linalg import BETA_CAP
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


def reference_hooi(t, ranks, max_iter, tol, factor_tol):
    """Textbook HOOI: einsum contractions and linalg.svd top vectors on the full tensor.

    No Gram matrix and no trust-region finish; starts from the textbook HOSVD's U2
    and U3 with their optimal U1 (:func:`reference_optimal_u1`), and stops by the
    same two criteria as hooi.  Returns (model, residual history).
    """
    x = t.values
    scale = np.linalg.norm(x)

    def fit(u1, u2, u3):
        core = np.einsum("ijk,ai,bj,ck->abc", x, u1, u2, u3, optimize=True)
        approx = np.einsum("abc,ai,bj,ck->ijk", core, u1, u2, u3, optimize=True)
        return core, float(np.linalg.norm(x - approx))

    u = [linalg.svd(unfold(t, m), rank=r).U.T for m, r in zip((2, 3), ranks[1:])]
    u = [reference_optimal_u1(t, *u, ranks[0]), *u]
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


class SwappedCoreNorm(_CoreNorm):
    """_CoreNorm with R x2 U2 taken from a C-ordered copy of R with modes 2 and 3 swapped.

    That copy goes through the mode-1 kernel, as R x3 U3 does on R itself; the
    gradient is recomputed from it.  _CoreNorm forms R x2 U2 from R alone.
    """

    def __init__(self, work, u2, u3, l1):
        super().__init__(work, u2, u3, l1)
        self.ru2 = _contracted(np.ascontiguousarray(work.transpose(0, 2, 1)), None, None, u2, mode=1)
        self.e2, self.e3 = self._contract(self.aw @ self.w.T)
        self.grad = self._project(self.e2, self.e3)


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
