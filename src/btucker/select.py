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
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc

from . import decomp, linalg
from .errors import (
    DegenerateVarianceError,
    FileFormatError,
    NoiseFloorError,
    SigmaOptimizationError,
)
from .tensor import _read_utf8, write_csv

DEFAULT_THRESHOLD = 0.05
DEFAULT_BINS = 100
DEFAULT_EXCLUSION_THRESHOLD = 0.01

# Log-spaced candidate grid for the null-SD search, relative to the pooled
# sample SD of the selected components' loadings.
SIGMA_GRID_POINTS = 101
SIGMA_GRID_RANGE = (0.2, 5.0)


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
    """
    u = np.asarray(u, dtype=np.float64)
    comps = _component_indices(components, u.shape[0])
    pooled = u[comps - 1].ravel()
    scale = float(np.std(pooled, ddof=1)) if pooled.size > 1 else float(np.abs(pooled[0]))
    if not np.isfinite(scale) or scale <= 0:
        raise SigmaOptimizationError("loadings have no spread; cannot calibrate a null SD")
    grid = scale * np.geomspace(SIGMA_GRID_RANGE[0], SIGMA_GRID_RANGE[1], SIGMA_GRID_POINTS)

    best_sigma = None
    best_obj = np.inf
    for cand in grid:
        p = td_pvalues(u, cand, comps)
        keep = bh_adjust(p) > DEFAULT_EXCLUSION_THRESHOLD
        if not np.any(keep):
            continue
        h, _ = np.histogram(1.0 - p[keep], bins=DEFAULT_BINS, range=(0.0, 1.0))
        obj = float(np.sqrt(np.mean((h - h.mean()) ** 2)))
        if obj < best_obj:  # strict: ties keep the earlier (smaller) candidate
            best_obj = obj
            best_sigma = float(cand)
    if best_sigma is None:
        raise SigmaOptimizationError("every candidate SD excluded all features")
    return SigmaFit(sigma=best_sigma, sigma_h=best_obj)


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
    "btud" the raw one.  Reports take their factors from the same matrix.
    """
    if mode not in ("td", "btud"):
        raise ValueError(f"mode must be 'td' or 'btud', got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    return standardize_columns(x) if mode == "td" else x


def svd_select(
    x: np.ndarray, components, mode: str = "btud", threshold: float = DEFAULT_THRESHOLD
) -> SelectionResult:
    """Feature selection for matrix data (features are rows) through the SVD.

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
    or below decomp.NOISE_FLOOR times the largest is noise, not signal, and
    raises NoiseFloorError, a DegenerateVarianceError.  A matrix whose
    squared norm overflows float64 raises FloatingPointError before any of
    this, as in hooi.
    Centring never raises a column's sum of squares and scaling sets it to
    N, so the check on the raw matrix covers the "td" route's matrix too.
    """
    x = np.asarray(x, dtype=np.float64)
    linalg.squared_norm(x)
    x = scored_matrix(x, mode)
    if x.ndim != 2:
        raise ValueError("expected a matrix")
    comps = _component_indices(components, min(x.shape))
    res = linalg.svd(x, rank=int(comps.max()))
    power = res.s**2
    floor = decomp.NOISE_FLOOR * power[0]
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
    return select_features(p, threshold=threshold, statistic=stat, dof=comps.size)


# ---------------------------------------------------------------------------
# CSV serialization
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
