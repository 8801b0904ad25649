"""Time-dependent contact Hamiltonian dynamics on (q, p, S, t) and
mechanical verification of the generalized Noether correspondence between
symmetries and dissipated quantities."""

__version__ = "0.1.0"

from . import cli, dynamics, expr, geometry, noether, scaling, systems  # noqa: F401
from .dynamics import (  # noqa: F401
    IntegratorConfig,
    Trajectory,
    action_consistency,
    contact_field,
    extended_field,
    integrate,
)
from .expr import EvalContext, ScalarField, evaluate, parse, partial  # noqa: F401
from .geometry import (  # noqa: F401
    ContactSystem,
    ExtendedPoint,
    OneFormValue,
    VectorFieldSpec,
    eta_extended,
    jacobi_bracket,
    lie_bracket,
    lie_derivative_eta,
    poisson_bracket,
)
from .noether import (  # noqa: F401
    SimilarityReport,
    SymmetryReport,
    closure_check,
    dissipation_field,
    dissipation_residual,
    invariant_from_symmetry,
    ratio_invariant,
    sample_points,
    similarity_test,
    symmetry_from_invariant,
    symmetry_test,
)
from .scaling import ScalingAnsatz, ScalingSolution, scaling_generator, solve_scaling  # noqa: F401
from .systems import (  # noqa: F401
    AuxiliaryState,
    TrackedInvariant,
    co_integrate,
    glr_symmetry,
    make_harmonic_dissipative,
    make_kepler,
    make_td_kepler,
)
