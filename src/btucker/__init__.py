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
    FitReport,
    TuckerModel,
    btud_fit,
    estimate_beta,
    hooi,
    hosvd_init,
    posterior_stats,
    self_consistency_check,
)
from .linalg import svd
from .select import (
    SelectionResult,
    bh_adjust,
    btud_statistic,
    chi2_sf,
    rank_components_by_core,
    select_features,
    svd_select,
)
from .tensor import Tensor3

__version__ = "0.1.0"

# The names the CLI, the benchmark and the README use; everything else stays in its module.
__all__ = [
    "Tensor3", "svd",
    "TuckerModel", "FitReport",
    "hosvd_init", "hooi", "btud_fit", "estimate_beta",
    "posterior_stats", "self_consistency_check",
    "SelectionResult", "chi2_sf", "bh_adjust", "btud_statistic",
    "rank_components_by_core", "svd_select", "select_features",
    "SyntheticBlockParams", "SinusoidParams", "GcmParams",
    "gen_synthetic_block", "gen_sinusoid", "simulate_rcs_gcm",
]
