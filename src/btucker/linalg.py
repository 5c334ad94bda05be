"""SVD, Moore-Penrose pseudoinverse, row-wise Gram-Schmidt and the norms of data.

The SVD wrapper fixes a deterministic sign convention (largest-magnitude
entry of each left singular vector made positive, ties broken by lowest
index) so repeated runs and golden files agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRowError

# Relative singular-value cutoff for the pseudoinverse; values below
# PINV_RTOL_FACTOR * max(rows, cols) * s_max are treated as zero.
PINV_RTOL_FACTOR = 1e-12

DEGENERATE_ROW_TOL = 1e-12
BETA_CAP = 1e12  # largest reported noise precision, reached by near-exact fits


@dataclass(frozen=True)
class SvdResult:
    """Truncated SVD a = U diag(s) V^T with descending s >= 0."""

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray

    @property
    def rank(self) -> int:
        return self.s.size


def _sign_flips(rows: np.ndarray) -> np.ndarray:
    """The sign rule for left singular vectors held as rows (here and in decomp).

    -1 for each row whose largest-magnitude entry (the first, on ties) is
    negative, else 1.
    """
    pivot = np.argmax(np.abs(rows), axis=1)
    return np.where(rows[np.arange(rows.shape[0]), pivot] < 0, -1.0, 1.0)


def svd(a: np.ndarray, rank: int | None = None) -> SvdResult:
    """Thin SVD, optionally truncated to the leading `rank` components."""
    a = np.asarray(a, dtype=np.float64)
    if rank is not None and rank <= 0:
        raise ValueError(f"rank must be positive, got {rank}")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    flip = _sign_flips(u.T)
    u = u * flip
    vt = vt * flip[:, None]
    if rank is not None:
        r = min(rank, s.size)
        u, s, vt = u[:, :r], s[:r], vt[:r]
    return SvdResult(U=u, s=s, V=vt.T)


def pseudoinverse(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse via SVD with a relative cutoff.

    Reduces to (A^T A)^{-1} A^T for full-column-rank A but stays defined for
    rank-deficient input, which the alternating solver can produce.
    """
    a = np.asarray(a, dtype=np.float64)
    res = svd(a)
    if res.s.size == 0 or res.s[0] == 0.0:
        return np.zeros((a.shape[1], a.shape[0]))
    cutoff = PINV_RTOL_FACTOR * max(a.shape) * res.s[0]
    keep = res.s > cutoff
    inv_s = np.zeros_like(res.s)
    inv_s[keep] = 1.0 / res.s[keep]
    return (res.V * inv_s) @ res.U.T


def orthonormalize_rows(u: np.ndarray, start_row: int) -> np.ndarray:
    """Project row `start_row` orthogonal to all earlier rows, then normalize it.

    Earlier rows are assumed orthonormal and are returned unchanged (as are
    any later rows).  Modified Gram-Schmidt is used for stability.  Raises
    DegenerateRowError if the projected row has norm below 1e-12.
    """
    u = np.array(u, dtype=np.float64)
    if not 0 <= start_row < u.shape[0]:
        raise ValueError(f"start_row {start_row} out of range for {u.shape[0]} rows")
    row = u[start_row].copy()
    for prev in range(start_row):
        row -= np.dot(u[prev], row) * u[prev]
    norm = float(np.linalg.norm(row))
    if norm < DEGENERATE_ROW_TOL:
        raise DegenerateRowError(start_row, norm)
    u[start_row] = row / norm
    return u


def squared_norm(a: np.ndarray) -> float:
    """||a||^2 without a squared copy of `a`; FloatingPointError if it overflows float64."""
    with np.errstate(over="ignore"):
        ssq = float(np.vdot(a, a))
    if not np.isfinite(ssq):
        raise FloatingPointError("the squared norm of the data overflows float64")
    return ssq


def noise_precision(resid: np.ndarray) -> float:
    """One over the mean squared residual, capped at BETA_CAP for near-exact fits."""
    ssq = float(np.sum(resid * resid))
    return min(resid.size / ssq, BETA_CAP) if ssq > 0 else BETA_CAP
