"""Bayesian Tucker decomposition of order-3 tensors with unsupervised feature selection.

Modules: :mod:`btucker.tensor` (storage/unfolding), :mod:`btucker.linalg`
(SVD, pseudoinverse, Gram-Schmidt), :mod:`btucker.decomp` (HOOI, the
alternating-regression solver, posterior statistics), :mod:`btucker.select`
(chi-square feature statistics, BH correction), :mod:`btucker.datagen`
(seeded benchmark generators), :mod:`btucker.cli` (command-line front end).
"""

from .datagen import (
    GcmParams,
    SinusoidParams,
    SyntheticBlockParams,
    gen_sinusoid,
    gen_synthetic_block,
    simulate_rcs_gcm,
)
from .decomp import (
    ConsistencyCheck,
    FitReport,
    PosteriorStats,
    TuckerModel,
    btud_fit,
    core_regression,
    design_matrix,
    estimate_beta,
    hooi,
    hosvd_init,
    posterior_core_stats,
    posterior_stats,
    self_consistency_check,
)
from .linalg import SvdResult, orthonormalize_rows, pseudoinverse, svd
from .select import (
    SelectionResult,
    SigmaFit,
    bh_adjust,
    chi2_sf,
    optimize_sigma,
    rank_components_by_core,
    select_features,
    svd_select,
    td_pvalues,
)
from .tensor import Tensor3, fold, frobenius_norm, reconstruct, unfold

__version__ = "0.1.0"

__all__ = [
    "Tensor3", "fold", "unfold", "reconstruct", "frobenius_norm",
    "SvdResult", "svd", "pseudoinverse", "orthonormalize_rows",
    "TuckerModel", "PosteriorStats", "FitReport", "ConsistencyCheck",
    "hosvd_init", "hooi", "design_matrix", "core_regression",
    "posterior_stats", "posterior_core_stats", "estimate_beta",
    "btud_fit", "self_consistency_check",
    "SelectionResult", "SigmaFit", "chi2_sf", "bh_adjust",
    "td_pvalues", "optimize_sigma",
    "rank_components_by_core", "svd_select", "select_features",
    "SyntheticBlockParams", "SinusoidParams", "GcmParams",
    "gen_synthetic_block", "gen_sinusoid", "simulate_rcs_gcm",
]
