"""SVD, the regularized Gram inverse, row-wise Gram-Schmidt and the norms of data.

The SVD wrapper fixes a deterministic sign convention (largest-magnitude
entry of each left singular vector made positive, ties broken by lowest
index) so repeated runs and golden files agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRowError

DEGENERATE_ROW_TOL = 1e-12
BETA_CAP = 1e12  # largest reported noise precision, reached by near-exact fits
NOISE_FLOOR = 1e-10  # squared singular values at or below this times the largest are noise


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


def _above_rank_cutoff(s: np.ndarray, shape) -> np.ndarray:
    """s > max(shape) eps s[0], np.linalg.matrix_rank's cutoff: the values not rounding noise."""
    return s > max(shape) * np.finfo(float).eps * s[0]


def gram_inverse(b: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """(b b^T + ridge I)^+ = U diag(1 / (s^2 + ridge)) U^T, from the SVD b = U S V^T, U square.

    b b^T, whose condition number is the square of b's, is never formed.  At
    ridge 0 the s at or below :func:`_above_rank_cutoff` count as zero; then
    gram_inverse(b) @ b is pinv(b)^T, the least-squares map of a regression on b's rows.
    """
    u, s, _ = np.linalg.svd(b, full_matrices=b.shape[0] > b.shape[1])  # U is square
    s = np.concatenate((s, np.zeros(u.shape[1] - s.size)))
    keep = slice(None) if ridge > 0 else _above_rank_cutoff(s, b.shape)
    root = u[:, keep] / np.hypot(s[keep], np.sqrt(ridge))
    return root @ root.T


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
    ssq = _sum_of_squares(a)
    if not np.isfinite(ssq):
        raise FloatingPointError("the squared norm of the data overflows float64")
    return ssq


def _sum_of_squares(a: np.ndarray) -> float:
    """||a||^2 without a squared copy of `a`; inf where it overflows float64."""
    with np.errstate(over="ignore"):
        return float(np.vdot(a, a))


def noise_precision(ssq: float, size: int) -> float:
    """size / ssq, the precision of a residual of `size` entries and squared norm ssq.

    Capped at BETA_CAP for near-exact fits; a non-finite ssq, a residual whose
    squares overflow float64, raises FloatingPointError.
    """
    if not np.isfinite(ssq):
        raise FloatingPointError("the squared norm of the residual overflows float64")
    return min(size / ssq, BETA_CAP) if ssq > 0 else BETA_CAP
