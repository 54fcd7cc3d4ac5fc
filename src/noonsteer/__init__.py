"""EPR-steering numerics for lossy two-mode NOON states."""

from .errors import (
    ConvergenceFailure,
    DegenerateChannel,
    DimTooSmall,
    InsufficientBinOccupancy,
    InvalidOutcome,
    NondiscriminatingPhase,
    NoonSteerError,
    NoThresholdInBracket,
    OutOfSupportedOrder,
    UnsupportedOrder,
    ZeroProbabilityConditioning,
)
from .fock import ModeOperator, operator_matrix
from .inferred import (
    conditional_quadrature_moment,
    inferred_commutator_modulus,
    inferred_number_variance,
    inferred_variance_quadrature,
    px_density,
)
from .lossy import (
    LOSSLESS,
    LossChannel,
    TwoModeDensity,
    conditional_density_given_x,
    conditional_number_b,
    lossy_noon_density,
    number_marginal_a,
)
from .quadrature import integrate, integrate_abs
from .sampling import (
    SteeringEstimate,
    estimate_steering,
    sample_number_pair,
    sample_quadrature_pair,
)
from .steering import (
    CoherenceReport,
    SteeringReport,
    SweepRow,
    caption_phase,
    coherence_inequality,
    e1p_closed_form,
    protocol_rhs,
    steering_functional,
    sweep,
    threshold_efficiency,
)

__version__ = "0.1.0"
