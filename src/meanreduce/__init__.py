"""meanreduce: deviation means, reductions of means as fixed points, and
randomized verification of mean inequalities."""

from .core import (
    Barycentric,
    DEFAULT_CONFIG,
    Injection,
    Interval,
    POSITIVE_REALS,
    REALS,
    SolverConfig,
    SolverReport,
    as_point,
    select,
    splice,
)
from .errors import (
    DomainError,
    ExpressionError,
    HullViolationError,
    InvalidArgumentError,
    InvalidDeviationError,
    InvalidPotentialError,
    InvalidSamplerError,
    MeansError,
    NoConvergenceError,
    NotAMeanError,
    ReductionMismatchError,
)
from .scalar import (
    DeviationTuple,
    GeneratorFn,
    ScalarDeviation,
    WeightFn,
    WeightTuple,
    bajraktarevic_mean,
    constant_weight,
    deviation_mean,
    e_sum,
    gini_mean,
    holder_mean,
    make_bajraktarevic_deviation,
    matkowski_mean,
    quasi_arithmetic_mean,
    weighted_arith_mean,
)
from .vector import (
    GenDeviation,
    PotentialFn,
    gen_deviation_mean,
    grid_oracle_mean,
    inner_product_deviation,
    lift_scalar_deviation,
    make_norm_sq_potential,
    make_potential_deviation,
    potential_mean,
    verify_vi,
)
from .reduction import (
    MeanFn,
    ReductionResult,
    check_deviation_reduction,
    check_uniqueness,
    check_weighted_arith_reduction,
    fixed_point_mean_fn,
    reduce_mean,
    reduce_scalar,
    reduce_vector,
    reduced_mean_fn,
)
from .descriptors import MeanDescriptor, build_mean, evaluate_with_report
from .lab import (
    BoxSampler,
    ConvexityCase,
    CounterexampleReport,
    FuzzCase,
    HolderMinkowskiCase,
    ReportPair,
    check_convexity,
    check_holder_minkowski,
    check_reduced_convexity,
    compare_means,
    fuzz_suite,
)

__version__ = "0.1.0"
