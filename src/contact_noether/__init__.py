"""Time-dependent contact Hamiltonian dynamics on (q, p, S, t) and
mechanical verification of the generalized Noether correspondence between
symmetries and dissipated quantities."""

__version__ = "0.1.0"

from . import cli, dynamics, expr, geometry, noether, scaling, systems  # noqa: F401
from .dynamics import (  # noqa: F401
    IntegratorConfig,
    Trajectory,
    contact_field,
    extended_field,
    integrate,
)
from .expr import ScalarField, parse, partial  # noqa: F401
from .geometry import (  # noqa: F401
    ContactSystem,
    ExtendedPoint,
    VectorFieldSpec,
    lie_bracket,
)
from .noether import (  # noqa: F401
    SimilarityReport,
    SymmetryReport,
    closure_check,
    dissipation_field,
    residual_at,
    sample_points,
    similarity_test,
    symmetry_from_invariant,
    symmetry_test,
)
from .scaling import ScalingAnsatz, ScalingSolution, scaling_generator  # noqa: F401
from .systems import (  # noqa: F401
    AuxiliaryState,
    TrackedInvariant,
    co_integrate,
    make_harmonic_dissipative,
    make_kepler,
    make_td_kepler,
)
