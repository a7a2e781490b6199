"""senslab: exact analysis of low-sensitivity Boolean functions.

Truth tables over the n-cube with explicit bit conventions, exact
sensitivity/degree/noise measures, local-advice extension rules, advice-
limited evaluators, self-correction from corrupted oracles, and census
tooling for the sensitivity classes F(s, n).
"""
from .core import (
    MAX_N,
    PAIRWISE_MAX_N,
    BallAdvice,
    ComplexityProfile,
    IntegerFunction,
    Point,
    TruthTable,
    all_neighbors,
    ball_indices,
    ball_points,
    bias,
    check_bias_bound,
    degree,
    degree_f2,
    mobius_coefficients,
    mobius_coefficients_f2,
    point,
    pointwise_sensitivity,
    profile,
    relevant_variables,
    restrict_to_ball,
    seeded_rng,
    sensitivity,
    sensitivity_at,
    sphere_points,
    weight,
    zeta_transform,
)
from .counting import (
    build_census,
    count_bounds,
    enumerate_class,
    interpolation_experiment,
    interpolation_sample_size,
)
from .evaluate import (
    EvalStats,
    amplified_eval,
    bottom_up_all,
    bottom_up_eval,
    majority_threshold_c,
    parallel_eval,
    parallel_eval_batch,
    parallel_eval_law,
    top_down_all,
    top_down_eval,
    top_down_visit_profile,
)
from .families import (
    addressing,
    and_fn,
    constant,
    dictator,
    gen_family,
    junta_lift,
    majority,
    or_fn,
    parity,
    random_dt,
    random_function,
    tribes,
)
from .io import FormatError, read_ball_advice, read_truth_table, write_ball_advice, write_truth_table
from .noise import (
    downward_mismatch,
    downward_mismatch_table,
    expansion_reports,
    hypercontractivity_check,
    lambda_set,
    noise_operator,
    noise_sensitivity_all,
    noise_sensitivity_at,
    noise_sensitivity_below,
    walsh_hadamard,
)
from .reconstruct import (
    ExtensionOutcome,
    f2_extend,
    majority_extend,
    parity_extend,
    r_maj,
    r_par,
    sphere_extend,
)
from .selfcorrect import (
    CorrectorParams,
    CorruptedOracle,
    corrupt,
    corrupt_targeted,
    global_correct,
    local_correct,
    local_correct_batch,
    majority_step,
)

__version__ = "0.1.0"
