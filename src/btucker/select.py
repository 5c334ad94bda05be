"""Feature-selection statistics.

Features get a chi-square statistic from their factor loadings, either
loadings over an optimized null standard deviation (factor route) or
posterior means over posterior variances (posterior route), and the
resulting P-values are Benjamini-Hochberg corrected before thresholding.

Component indices are 1-based throughout this module, matching the CLI and
report files (component 1 is the leading one).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc, gammainccinv

from . import linalg
from .errors import (
    DegenerateVarianceError,
    FileFormatError,
    NoiseFloorError,
    SigmaOptimizationError,
)
from .tensor import _read_utf8, write_csv, write_json

DEFAULT_THRESHOLD = 0.05
DEFAULT_BINS = 100
DEFAULT_EXCLUSION_THRESHOLD = 0.01

# Log-spaced candidate grid for the null-SD search, relative to the pooled
# sample SD of the selected components' loadings.
SIGMA_GRID_POINTS = 101
SIGMA_GRID_RANGE = (0.2, 5.0)
# Relative half-width of the band around each threshold of the null-SD search
# inside which a feature is re-evaluated by the plain rule (see _sigma_objectives).
_SIGMA_BAND = 1e-9


@dataclass(frozen=True)
class SelectionResult:
    statistic: np.ndarray      # per-feature chi-square sum (NaN when unknown)
    p_raw: np.ndarray
    p_adjusted: np.ndarray
    selected: np.ndarray       # boolean, p_adjusted <= threshold
    dof: int
    threshold: float

    @property
    def n_selected(self) -> int:
        return int(np.sum(self.selected))


@dataclass(frozen=True)
class SigmaFit:
    sigma: float               # the null SD, shared by the components
    sigma_h: float             # achieved histogram-occupancy SD


def chi2_sf(x, dof: int):
    """Upper-tail chi-square probability via the regularized incomplete gamma."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("chi-square statistic must be non-negative")
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    out = gammaincc(dof / 2.0, x / 2.0)
    return float(out) if out.ndim == 0 else out


def bh_adjust(p) -> np.ndarray:
    """Benjamini-Hochberg step-up adjusted P-values, in the input order."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("expected a 1-D vector of P-values")
    if np.any(p < 0) or np.any(p > 1) or not np.all(np.isfinite(p)):
        raise ValueError("P-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order] * m / np.arange(1, m + 1)
    adjusted = np.minimum.accumulate(ranked[::-1])[::-1]
    adjusted = np.minimum(adjusted, 1.0)
    out = np.empty_like(adjusted)
    out[order] = adjusted
    return out


def _component_indices(components, limit: int) -> np.ndarray:
    comps = np.array(sorted(set(int(c) for c in components)), dtype=int)
    if comps.size == 0:
        raise ValueError("components must be non-empty")
    if comps[0] < 1 or comps[-1] > limit:
        raise ValueError(f"components must lie in 1..{limit}, got {comps.tolist()}")
    return comps


def btud_statistic(
    means: np.ndarray, cov: np.ndarray, components, calibrate: bool = False
) -> np.ndarray:
    """Per-feature sum of squared posterior means over the null variances.

    The null variance of a component is its posterior variance S_ll.  With
    calibrate=True it is widened to the observed spread of that component's
    means across features, max(S_ll, Var_i m_li).  The two differ even under
    pure noise, where S_ll is about 0.6 Var_i m_li; and at a fixed point
    m_l is the unit-norm factor row, so the spread is about 1/N whatever
    the noise level.  Outlying features widen the spread further, which
    keeps the statistic conservative instead of letting the outliers reject
    everything.  The experiment pipelines calibrate; the default is the
    plain posterior form.
    """
    means = np.asarray(means, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    comps = _component_indices(components, means.shape[0])
    var = np.diag(cov)[comps - 1].copy()
    for c, v in zip(comps, var):
        if v <= 0:
            raise DegenerateVarianceError(int(c), float(v))
    if calibrate:
        var = np.maximum(var, means[comps - 1].var(axis=1))
    return np.sum(means[comps - 1] ** 2 / var[:, None], axis=0)


def td_statistic(u: np.ndarray, sigma: float, components) -> np.ndarray:
    """Per-feature sum of squared loadings over the one null SD `sigma`."""
    u = np.asarray(u, dtype=np.float64)
    comps = _component_indices(components, u.shape[0])
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return np.sum((u[comps - 1] / sigma) ** 2, axis=0)


def td_pvalues(u: np.ndarray, sigma: float, components) -> np.ndarray:
    comps = _component_indices(components, np.asarray(u).shape[0])
    return chi2_sf(td_statistic(u, sigma, components), dof=comps.size)


def optimize_sigma(u: np.ndarray, components) -> SigmaFit:
    """Pick the one null SD, shared by the components, that flattens the histogram of 1 - P.

    Candidates are scanned on a log grid around the pooled sample SD of the
    selected components' loadings.  For each candidate, features with
    BH-adjusted P at or below DEFAULT_EXCLUSION_THRESHOLD are dropped, the
    rest of the 1 - P values are histogrammed into DEFAULT_BINS equal-width
    cells on [0, 1], and the SD of the occupancies is the objective.  Ties go
    to the smaller candidate.

    The search sorts the features once, by s = sum_l u_l^2, and computes no
    P-value: at a candidate sigma, P <= y is s >= sigma^2 * 2 Q^-1(d/2, y),
    with Q^-1 the inverse regularized upper incomplete gamma, so the BH cuts
    (y = j q / m) give the excluded count and the bin edges (y = 1 - b / B)
    give the occupancies by counting sorted s (see :func:`_sigma_objectives`).
    A feature within the relative band _SIGMA_BAND of a threshold is binned
    by the plain rule instead, from its own (u / sigma)^2 and chi2_sf, and a
    candidate whose excluded count is within the band is evaluated by the
    plain rule whole; so every objective, hence sigma, is bitwise that of
    binning each candidate's P-values with np.histogram.
    """
    u = np.asarray(u, dtype=np.float64)
    comps = _component_indices(components, u.shape[0])
    grid = _sigma_grid(u, comps)
    objectives = _sigma_objectives(u, comps, grid)
    best = int(np.argmin(objectives))  # the first minimum: ties keep the smaller candidate
    if not np.isfinite(objectives[best]):
        raise SigmaOptimizationError("every candidate SD excluded all features")
    return SigmaFit(sigma=float(grid[best]), sigma_h=float(objectives[best]))


def _sigma_grid(u: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """The candidate null SDs of :func:`optimize_sigma`, ascending."""
    pooled = u[comps - 1].ravel()
    scale = float(np.std(pooled, ddof=1)) if pooled.size > 1 else float(np.abs(pooled[0]))
    if not np.isfinite(scale) or scale <= 0:
        raise SigmaOptimizationError("loadings have no spread; cannot calibrate a null SD")
    return scale * np.geomspace(SIGMA_GRID_RANGE[0], SIGMA_GRID_RANGE[1], SIGMA_GRID_POINTS)


def _occupancy_sd(h: np.ndarray) -> float:
    return float(np.sqrt(np.mean((h - h.mean()) ** 2)))


def _plain_sigma_objective(u: np.ndarray, sigma: float, comps: np.ndarray) -> float:
    """The objective at one candidate from all its P-values; inf if it excludes every feature."""
    p = td_pvalues(u, sigma, comps)
    keep = bh_adjust(p) > DEFAULT_EXCLUSION_THRESHOLD
    if not np.any(keep):
        return np.inf
    h, _ = np.histogram(1.0 - p[keep], bins=DEFAULT_BINS, range=(0.0, 1.0))
    return _occupancy_sd(h)


def _sigma_objectives(u: np.ndarray, comps: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The objective of :func:`optimize_sigma` at every candidate of `grid`, inf where it excludes all.

    With d = comps.size, m features, and s the features' sums of squared
    loadings over grid[-1] (so s / v, v = (sigma / grid[-1])^2, is the
    chi-square statistic at sigma), sorted once ascending:

    - BH excludes the k* features of largest s, k* the last rank j (by
      descending s) with s_(j) >= v c_j, c_j = 2 Q^-1(d/2, j q / m).  So
      m - k* is the number of ascending positions whose running maximum of
      s_(j) / c_j is below v: one searchsorted per candidate.
    - Among the kept features, 1 - P >= e_b (edges e_b = b / B, as
      np.histogram's) is s >= v t_b, t_b = 2 Q^-1(d/2, 1 - e_b): each bin's
      count is a difference of two searchsorted positions.

    Rounding makes these comparisons approximate: s / v is the statistic
    (u / sigma)^2 summed, to within (2d + 6) units of 2^-53 relative, and
    Q^-1 inverts gammaincc to within about 2e-14 relative in the statistic
    (tests/test_select.py checks that half the band clears every cut and
    edge for d = 1..4).  Each threshold is therefore widened by the relative band _SIGMA_BAND = 1e-9.
    Half of it moves P by at least 2.5e-12 at a bin edge (least at the first
    edge with d = 1) and by at least 1.8e-9 relative at a BH cut, far above
    the rounding of P, of 1 - P and of BH's P m / j; the other half covers
    the rounding of s / v.  Outside the band a comparison is exact; a kept feature inside
    it is binned from its own P (td_statistic, chi2_sf, 1 - P against e_b),
    and a candidate whose BH count is inside it is evaluated whole by the
    plain rule.  The temporaries are O(m) once and O(DEFAULT_BINS) per
    candidate.
    """
    m = u.shape[1]
    half_dof = comps.size / 2.0
    ref = float(grid[-1])
    s = np.sum((u[comps - 1] / ref) ** 2, axis=0)
    order = np.argsort(s, kind="stable")
    s = s[order]
    # reach[i] = max over ascending positions <= i of s / c, c the cut of that position's rank
    reach = s / (2.0 * gammainccinv(half_dof, DEFAULT_EXCLUSION_THRESHOLD * np.arange(m, 0, -1) / m))
    np.maximum.accumulate(reach, out=reach)
    edges = np.linspace(0.0, 1.0, DEFAULT_BINS + 1)
    levels = 2.0 * gammainccinv(half_dof, 1.0 - edges[:-1])  # levels[0] is 0: every row
    band = np.array([1.0 - _SIGMA_BAND, 1.0 + _SIGMA_BAND])

    out = np.full(grid.size, np.inf)
    for i, cand in enumerate(grid):
        v = (cand / ref) ** 2
        kept_lo, kept_hi = np.searchsorted(reach, v * band)
        if kept_lo != kept_hi:
            out[i] = _plain_sigma_objective(u, cand, comps)
            continue
        if kept_lo == 0:
            continue
        kept = s[:kept_lo]
        lo, hi = np.searchsorted(kept, np.multiply.outer(band, v * levels))
        above = kept_lo - hi  # kept rows with 1 - P >= e_b for certain
        near = np.flatnonzero(lo != hi)
        if near.size:
            stat = td_statistic(u, cand, comps)
            for b in near:
                x = 1.0 - chi2_sf(stat[order[lo[b]:hi[b]]], comps.size)
                above[b] += np.count_nonzero(x >= edges[b])
        # occupancy of bin b: at or above e_b less at or above e_(b+1); the last bin is
        # closed, as np.histogram's, so it keeps 1 - P = 1
        above[:-1] -= above[1:]
        out[i] = _occupancy_sd(above)
    return out


def rank_components_by_core(core: np.ndarray, fixed: dict) -> list[tuple[int, float]]:
    """Order mode-1 components by the largest |core| entry over fixed mode-2/3 indices.

    `fixed` maps mode number (2 and/or 3) to a 1-based index or iterable of
    indices; a missing mode ranges over all its components.  Returns
    (component, weight) pairs sorted by descending weight, ties to the
    smaller component.
    """
    core = np.asarray(core, dtype=np.float64)
    l1, l2, l3 = core.shape

    def _indices(mode: int, limit: int) -> np.ndarray:
        if mode not in fixed:
            return np.arange(1, limit + 1)
        value = fixed[mode]
        values = [value] if np.isscalar(value) else list(value)
        return _component_indices(values, limit)

    unknown = set(fixed) - {2, 3}
    if unknown:
        raise ValueError(f"fixed may only constrain modes 2 and 3, got {sorted(unknown)}")
    idx2 = _indices(2, l2) - 1
    idx3 = _indices(3, l3) - 1
    sub = np.abs(core[np.ix_(np.arange(l1), idx2, idx3)])
    weights = sub.reshape(l1, -1).max(axis=1)
    order = sorted(range(l1), key=lambda a: (-weights[a], a))
    return [(a + 1, float(weights[a])) for a in order]


def select_features(
    p_raw,
    threshold: float = DEFAULT_THRESHOLD,
    statistic: np.ndarray | None = None,
    dof: int = 1,
) -> SelectionResult:
    """BH-adjust raw P-values and keep features at or below the threshold."""
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    p_raw = np.asarray(p_raw, dtype=np.float64)
    adjusted = bh_adjust(p_raw)
    if statistic is None:
        statistic = np.full(p_raw.shape, np.nan)
    return SelectionResult(
        statistic=np.asarray(statistic, dtype=np.float64),
        p_raw=p_raw,
        p_adjusted=adjusted,
        selected=adjusted <= threshold,
        dof=int(dof),
        threshold=float(threshold),
    )


def standardize_columns(x: np.ndarray) -> np.ndarray:
    """Centre each column across features and scale it so that sum_i x_ij^2 = N.

    A constant column is only centred.  Constancy is judged on the input:
    a rounded mean leaves a constant column at a tiny nonzero level, which
    scaling would blow up to a common level of +-1.
    """
    x = np.asarray(x, dtype=np.float64)
    z = x - x.mean(axis=0)
    sd = np.sqrt(np.mean(z * z, axis=0))
    return z / np.where((sd > 0) & (np.ptp(x, axis=0) > 0), sd, 1.0)


def scored_matrix(x: np.ndarray, mode: str) -> np.ndarray:
    """The matrix whose SVD the `mode` route of :func:`svd_select` scores.

    "td" scores the column-standardized matrix (:func:`standardize_columns`),
    "btud" the raw one.  The factors that reports plot are this matrix's too.
    """
    if mode not in ("td", "btud"):
        raise ValueError(f"mode must be 'td' or 'btud', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    return standardize_columns(x) if mode == "td" else x


def svd_select(
    x: np.ndarray, components, mode: str = "btud", threshold: float = DEFAULT_THRESHOLD
) -> tuple[SelectionResult, linalg.SvdResult]:
    """Feature selection for matrix data (features are rows), and the SVD of the scored matrix.

    mode "td" standardizes every sample column across features (see
    :func:`standardize_columns`) and scores rows by the left-singular-vector
    loadings of the standardized matrix with an optimized null SD; the
    centring puts the loadings of null features around zero, as the
    zero-mean null of :func:`td_statistic` assumes, instead of letting a
    common row level become the leading component.  mode "btud" works on
    the raw matrix as the N x 1 x M tensor it is: the SVD gives its
    rank-(L, 1, L) Tucker model, L the largest requested component, and rows
    are scored by the calibrated posterior chi-square sum (see
    :func:`btud_statistic`) of decomp's mode-1 posterior at alpha = 0.  For
    this model that posterior is the SVD itself: mean U^T, taken from the
    data as diag(1/s) V^T x^T, and covariance diag(1 / (beta s^2)), with
    beta the noise precision of the model's residual, as decomp's.

    On both routes a requested component whose squared singular value is at
    or below linalg.NOISE_FLOOR times the largest is noise, not signal, and
    raises NoiseFloorError, a DegenerateVarianceError.  A matrix whose
    squared norm overflows float64 raises FloatingPointError before any of
    this, as in hooi.
    Centring never raises a column's sum of squares and scaling sets it to
    N, so the check on the raw matrix covers the "td" route's matrix too.

    The returned SVD is the scored one, truncated at max(L, 2) rather than
    at L: its leading two components are the factors that reports plot
    (:func:`write_factors_json`).  :func:`linalg.svd` truncates one full thin
    SVD, so the scored components are bitwise those of a rank-L call.
    """
    x = np.asarray(x, dtype=np.float64)
    linalg.squared_norm(x)
    x = scored_matrix(x, mode)
    if x.ndim != 2:
        raise ValueError("expected a matrix")
    comps = _component_indices(components, min(x.shape))
    rank = int(comps.max())
    full = linalg.svd(x, rank=max(rank, 2))
    res = linalg.SvdResult(U=full.U[:, :rank], s=full.s[:rank], V=full.V[:, :rank])
    power = res.s**2
    floor = linalg.NOISE_FLOOR * power[0]
    for c in comps:
        if power[c - 1] <= floor:
            raise NoiseFloorError(int(c), float(power[c - 1]), float(floor))

    if mode == "td":
        u_feat = res.U.T  # rows are components, columns are features
        fit = optimize_sigma(u_feat, comps)
        stat = td_statistic(u_feat, fit.sigma, comps)
    else:
        beta = linalg.noise_precision(x - (res.U * res.s) @ res.V.T)
        # U^T, as the least-squares fit on V diag(s); divided in place, since a
        # second (L, N) temporary raised matrix-cli's peak RSS
        means = res.V.T @ x.T
        means /= res.s[:, None]
        # 1 / beta first: dividing that by power overflows only where the variance does
        stat = btud_statistic(means, np.diag(1.0 / beta / power), comps, calibrate=True)

    p = chi2_sf(stat, dof=comps.size)
    return select_features(p, threshold=threshold, statistic=stat, dof=comps.size), full


# ---------------------------------------------------------------------------
# Serialization: the selection CSV and the plotted factors of a matrix run
# ---------------------------------------------------------------------------

def write_selection_csv(result: SelectionResult, path) -> None:
    write_csv(path, ["feature_index", "statistic", "p_raw", "p_adjusted", "selected"],
              zip(range(1, result.p_raw.size + 1), result.statistic, result.p_raw,
                  result.p_adjusted, result.selected.astype(int)))


def read_selection_csv(path) -> SelectionResult:
    """Read back a selection CSV.

    dof and threshold are not part of the file format; they are restored with
    placeholder values (dof 1, default threshold); only the per-feature
    columns round-trip.
    """
    stats, p_raw, p_adj, sel = [], [], [], []

    def parse(fh) -> None:
        for row in csv.DictReader(fh):
            stats.append(float(row["statistic"]))
            p_raw.append(float(row["p_raw"]))
            p_adj.append(float(row["p_adjusted"]))
            sel.append(bool(int(row["selected"])))

    try:
        _read_utf8(path, parse)
    except (KeyError, TypeError, ValueError, csv.Error) as exc:
        raise FileFormatError(f"unparsable selection CSV {path}: {exc}") from exc
    return SelectionResult(
        statistic=np.array(stats),
        p_raw=np.array(p_raw),
        p_adjusted=np.array(p_adj),
        selected=np.array(sel, dtype=bool),
        dof=1,
        threshold=DEFAULT_THRESHOLD,
    )


def write_factors_json(svd: linalg.SvdResult, path) -> None:
    """The leading left and right singular vectors of `svd`, as rows: {"u": r x N, "v": r x M}.

    r = min(2, rank).  These are what `report` plots for a matrix run, so it
    neither parses the data again nor repeats the SVD.
    """
    r = min(2, svd.rank)
    write_json({"u": svd.U[:, :r].T.tolist(), "v": svd.V[:, :r].T.tolist()}, path)


def read_factors_json(path) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) of :func:`write_factors_json`, each with two rows; row 2 is zero at rank 1.

    Raises FileFormatError unless the file is UTF-8 JSON with the keys "u"
    and "v" only, each a matrix of finite numbers with one or two rows, the
    same number for both, and at least one column.
    """
    try:
        doc = _read_utf8(path, json.load)
        if not isinstance(doc, dict) or set(doc) != {"u", "v"}:
            raise ValueError('expected an object whose keys are "u" and "v"')
        u, v = (np.array(doc[key]) for key in ("u", "v"))  # ragged lists raise ValueError
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(f"malformed factors file {path}: {exc}") from exc
    for a in (u, v):
        if a.dtype.kind not in "if" or a.ndim != 2 or not 1 <= a.shape[0] <= 2 or a.shape[1] < 1:
            raise FileFormatError(f"malformed factors file {path}: "
                                  "u and v must be numeric matrices of 1 or 2 rows")
    if u.shape[0] != v.shape[0]:
        raise FileFormatError(f"malformed factors file {path}: u and v differ in rank")
    u, v = (np.pad(a.astype(np.float64), ((0, 2 - a.shape[0]), (0, 0))) for a in (u, v))
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise FileFormatError(f"malformed factors file {path}: non-finite entries")
    return u, v
