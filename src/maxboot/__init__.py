"""maxboot: Monte Carlo engine for bootstrap inference on maxima of sums of
independent high-dimensional random vectors."""

from maxboot.bootstrap import (
    GAUSSIAN,
    MAMMEN,
    RADEMACHER,
    BootstrapPlan,
    MultiplierKind,
    bootstrap_distribution,
    bootstrap_stat_once,
    draw_multipliers,
    mixed_coefficients,
    mixed_multiplier,
    multiplier_moments,
)
from maxboot.datagen import (
    CopulaSpec,
    DataMatrix,
    Dependence,
    gamma_cdf,
    gamma_quantile,
    sample_gaussian_copula,
    standard_normal_cdf,
)
from maxboot.harness import (
    ExperimentConfig,
    ExperimentResult,
    ResultRow,
    emit_figure_data,
    emit_results,
    run_experiment,
    run_truth,
)
from maxboot.moments import (
    Centering,
    MomentSummary,
    RateBranch,
    RateCertificate,
    estimate_moment_summary,
    moment_tensor_diff_max,
    rate_certificate,
    truncate_centered,
)
from maxboot.rng import SeedSpec
from maxboot.stat_core import (
    EmpiricalDistribution,
    MaxMode,
    concentration_fn,
    levy_prokhorov_pre,
    max_statistic,
    smooth_max,
    softmax_weights,
    two_sample_ks,
    upper_quantile,
)

__version__ = "0.1.0"
