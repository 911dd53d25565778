"""Exact symbolic deformation quantization for scalar fields.

Poisson brackets and star products of jet polynomials, densities, and
functionals over one conjugate sort pair, with delta-distribution kernels and
Gaussian-rational coefficients; every structural theorem (Jacobi,
associativity, duality, closed forms, semiclassical limit) is verifiable
with exact zero residuals.
"""

from .euler_lagrange import (
    ELOperator,
    apply_dual,
    apply_el,
    dual_derivative,
    duality_residual,
    el_power_duality_residual,
    variational_derivative,
)
from .jets import (
    ConditionBError,
    DimensionMismatch,
    FieldExpr,
    FieldSystem,
    complex_system,
    real_system,
)
from .kernels import (
    ANTISYMMETRIC,
    MIXED,
    SYMMETRIC,
    Kernel,
    MixedKernelError,
    bracket_sign,
)
from .poisson import (
    ConditionBViolation,
    Functional,
    LabelCollision,
    bracket_fn,
    bracket_functional_density,
    bracket_functionals,
    bracket_tensor,
    jacobi_residual,
)
from .rationals import GRat, I, ONE, ZERO
from .star import (
    HbarSeries,
    assoc_residuals,
    closed_form_residuals,
    commutator_semiclassical,
    eom_residual,
    equation_of_motion,
    star_density,
    star_fn,
    star_functional_density,
    star_functionals,
)
from .tensor import NonIntegrableTerm, TensorExpr

__all__ = [
    "ANTISYMMETRIC",
    "ConditionBError",
    "ConditionBViolation",
    "DimensionMismatch",
    "ELOperator",
    "FieldExpr",
    "FieldSystem",
    "Functional",
    "GRat",
    "HbarSeries",
    "I",
    "Kernel",
    "LabelCollision",
    "MIXED",
    "MixedKernelError",
    "NonIntegrableTerm",
    "ONE",
    "SYMMETRIC",
    "TensorExpr",
    "ZERO",
    "apply_dual",
    "apply_el",
    "assoc_residuals",
    "bracket_fn",
    "bracket_functional_density",
    "bracket_functionals",
    "bracket_sign",
    "bracket_tensor",
    "closed_form_residuals",
    "commutator_semiclassical",
    "complex_system",
    "dual_derivative",
    "duality_residual",
    "el_power_duality_residual",
    "eom_residual",
    "equation_of_motion",
    "jacobi_residual",
    "real_system",
    "star_density",
    "star_fn",
    "star_functional_density",
    "star_functionals",
    "variational_derivative",
]

__version__ = "0.1.0"
