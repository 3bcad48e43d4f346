"""Heralded multiphoton state engineering on a six-port Mach-Zehnder interferometer.

A coherent state enters the first port and Fock states the two ancilla
ports; photon counting on the ancilla outputs heralds a nonclassical state
in the signal output.  The package provides the device transfer matrix, the
closed-form heralded states with their success probabilities and operator
moments, an independent truncated-Fock-space oracle, (|alpha|, phi)
landscape scans with quadrature-squeezing optimization, and the paper's
generating-function derivative method, kept as a cross-check.
"""

from .errors import (
    AxisNotSymmetric,
    ClosedFormMismatch,
    ComputationError,
    CutoffInadequate,
    HeraldImpossible,
    NonpositiveVariance,
    NonzeroConstantTerm,
    OrderOverflow,
    QuantityMismatch,
    ResidualMassTooLarge,
    SeriesOrderTooLarge,
    SixportError,
    UnknownFamily,
    ValidationError,
    VariableMismatch,
    VerificationFailed,
    WorkTooLarge,
)
from .interferometer import (
    compose,
    phase_matrix,
    tritter1_matrix,
    tritter2_matrix,
)
from .moments import (
    QuadratureReport,
    expectation_quadratures,
    moment,
    quadratures,
    squeeze_db,
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
    herald_distribution,
    herald_state,
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
    GeneralHeraldResult,
    extract_derivative,
    general_heralded,
    moment_component,
    series_exp,
    way1_moment_table,
)
from .states import (
    ClosedFormState,
    LABELS,
    PATTERNS,
    PHOTONS_MAX,
    pattern_for_label,
    state_fock_vector,
    table1_coeffs,
)
from .verification import SAMPLES_MAX, run_verification

__version__ = "0.1.0"
