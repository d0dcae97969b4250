"""adoforge: faithful nilpotent matrix representations of nilpotent Lie
algebras over the rationals, constructed and verified with exact arithmetic.
"""

from .errors import (
    AdoForgeError,
    AlgebraMismatch,
    BudgetExceeded,
    DegenerateCocycle,
    DegenerateFlag,
    DimensionMismatch,
    InvalidGrading,
    KernelNotContained,
    NotACocycle,
    NotAnIdeal,
    NotCentral,
    NotLinearlyIndependent,
    NotNilpotent,
    NotSurjective,
    ParseError,
    ReplayFailed,
    SeparatorFailed,
    TensorBudgetExceeded,
    UnknownExample,
    ValidationFailed,
    VerificationFailed,
    ZeroIdeal,
)
from .linalg import (
    RationalMatrix,
    Subspace,
    factor_through,
    kernel_basis,
    kronecker,
    nilpotency_index,
    rref,
    solve,
)
from .liealg import (
    Grading,
    IdealChain,
    LieAlgebra,
    LieHom,
    center,
    central_flag,
    codim1_refinement,
    lower_central_series,
    nilpotency_class,
    quotient,
    validate,
    verify_grading,
)
from .freenilp import HallWord, Presentation, free_nilpotent, hall_basis, present, witt_dimension
from .reps import (
    Representation,
    adjoint,
    cyclic_submodule,
    direct_sum,
    element_action,
    is_faithful,
    is_homomorphism,
    is_nilpotent_rep,
    kernel_submodule,
    rep_kernel,
    restrict_along,
    tensor_product,
)
from .graded import (
    Cocycle,
    cocycle_extension,
    cocycle_extension_rep,
    cocycle_space,
    current_algebra,
    current_algebra_faithful_rep,
    derivation_rep,
    euler_derivation,
    graded_embedding,
    graded_faithful_rep,
)
from .engine import (
    Certificate,
    EngineConfig,
    VerificationReport,
    construct_faithful_nilpotent,
    distinguish_by_kernels,
    glue_local,
    replay_certificate,
    verify_output,
)

__version__ = "0.1.0"
