"""Heralded multiphoton state engineering on a six-port Mach-Zehnder interferometer.

A coherent state enters the first port and Fock states the two ancilla
ports; photon counting on the ancilla outputs heralds a nonclassical state
in the signal output.  The package provides the device transfer matrix, the
closed-form heralded states with their success probabilities, an independent
truncated-Fock-space oracle, operator moments via two generating-function
routes, and (|alpha|, phi) landscape scans with quadrature-squeezing
optimization.
"""

from .errors import (
    AxisNotSymmetric,
    ClosedFormMismatch,
    ComputationError,
    CutoffInadequate,
    DimensionTooLarge,
    HeraldImpossible,
    NonpositiveVariance,
    NonzeroConstantTerm,
    OrderOverflow,
    OutOfTableRange,
    PhotonNumberMismatch,
    QuantityMismatch,
    ResidualMassTooLarge,
    SeriesOrderTooLarge,
    SixportError,
    ValidationError,
    VariableMismatch,
    VerificationFailed,
    WorkTooLarge,
)
from .interferometer import (
    DerivedCoeffs,
    compose,
    derived_coeffs,
    is_unitary,
    phase_matrix,
    tritter1_matrix,
    tritter2_matrix,
)
from .moments import (
    QuadratureReport,
    expectation_quadratures,
    moment,
    moment_component,
    moment_way1,
    quadratures,
    squeeze_db,
    way1_moment_table,
)
from .oracle import (
    ALPHA_MAX,
    BOX_CELLS_MAX,
    FockVector,
    HeraldSpec,
    default_cutoff,
    default_herald_max,
    expectation,
    fix_global_phase,
    fock_amplitude,
    herald_distribution,
    herald_state,
    permanent,
)
from .scan import (
    GRID_CELLS_MAX,
    OptResult,
    ScanGrid,
    evaluate_point,
    feasibility_mask,
    minimize_variance,
    scan,
    symmetry_report,
)
from .series import (
    FormalSeries,
    extract_derivative,
    series_exp,
    series_from_polynomial,
    series_mul,
)
from .states import (
    ClosedFormState,
    DensityComponent,
    GeneralHeraldResult,
    LABELS,
    PATTERNS,
    density_components,
    general_heralded,
    normalization,
    pattern_for_label,
    state_fock_vector,
    success_probability,
    table1_coeffs,
)
from .verification import SAMPLES_MAX, run_verification

__version__ = "0.1.0"
