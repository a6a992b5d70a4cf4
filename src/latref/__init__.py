"""Lattice-based reformulation of integer linear equality systems.

The pipeline: compute a reduced kernel basis and a particular solution of
A x = b, split the basis by column norms, and rewrite the system as
P x = P x0 + T mu.  Knapsack rows additionally get a two-generator
decomposition with integer-width and Frobenius-number machinery; the
solver module measures the effect on branch-and-bound feasibility proofs.
"""

from .exact import (
    DimensionError,
    DomainError,
    IntMatrix,
    RankError,
    extended_gcd,
    identity,
    mat_mul,
    mat_vec,
    transpose,
)
from .knapsack import (
    Decomposition,
    FrobeniusBound,
    FrobeniusUndefinedError,
    ResourceLimitError,
    ValidationError,
    WidthAnalysis,
    WidthValue,
    frobenius_exact,
    frobenius_lower_bound,
    integer_width,
    make_decomposition,
    representable_table,
    width_bounds,
)
from .lattice import (
    HnfResult,
    KernelSolveResult,
    LLLParams,
    hnf,
    kernel_and_solution,
    kernel_basis,
    lll_reduce,
)
from .reformulate import (
    BasisSplit,
    DetectionResult,
    EqualitySystem,
    ExtendedFormulation,
    FixedSplit,
    IntegerInfeasibleError,
    IntegralityError,
    RatioSplit,
    build_extended,
    detect_decomposition,
    dual_kernel,
    project_affine,
    solve_multipliers,
    split_basis,
)
from .solver import (
    BnbConfig,
    BnbResult,
    ComparisonTable,
    bnb_feasibility,
    compare_formulations,
    gen_market_split,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
