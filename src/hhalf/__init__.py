"""Numerical model of the universal period mapping on the circle.

Truncated Fourier coefficients model the half-order Sobolev space of
mean-zero circle functions; circle homeomorphisms act on it by
pullback, and the induced block operators yield period matrices in
the Siegel disc together with their variational, spectral, and
quantum-calculus diagnostics.
"""

from . import _accel  # noqa: F401  (kernel names the benchmark reads)
from .catalog import (
    catalog_descriptors,
    catalog_maps,
    cos_field,
    equivariance_pairs,
    sin_field,
    trial_functions,
)
from .config import RunConfig, config_from_env
from .errors import (
    AliasingError,
    ConditioningError,
    GridError,
    HHalfError,
    MonotonicityError,
    NumericalError,
    ValidationError,
)
from .fourier import (
    CircleFunction,
    SampleGrid,
    analyze,
    derivative,
    douglas_energy,
    evaluate_at,
    from_modes,
    function_from_json,
    function_to_json,
    h_half_norm,
    hilbert_transform,
    inner_product,
    norm_squared,
    synthesize,
    zero_function,
)
from .maps import (
    CircleMap,
    compose,
    compose_descriptors,
    descriptor_degree,
    descriptor_from_json,
    descriptor_to_json,
    evaluate_lift,
    flow,
    identity,
    inverse_descriptor,
    lift_bandwidth,
    make_map,
    moebius,
    power,
    qs_ratio,
    radial_dilatation,
    rauch_flow,
    rotation,
)
from .period import (
    PeriodMatrix,
    SiegelReport,
    equivariance_defect,
    integrability_residual,
    period_derivative,
    period_from_blocks,
    period_from_json,
    period_matrix,
    period_to_json,
    rauch_derivative,
    rauch_fd_defect,
    siegel_action,
    siegel_membership,
    siegel_report_to_json,
    structure_from_period,
)
from .pullback import (
    BlockOperator,
    apply_operator,
    invariance_defect,
    operator_from_json,
    operator_norm_estimate,
    operator_to_json,
    pullback_function,
    pullback_matrix,
    sub_operator,
)
from .quantum import (
    circle_kernel,
    diagonal_limit,
    diagonal_limit_line,
    diagonal_report,
    hs_bracket_check,
    hs_norm,
    kernel_eval,
    kernel_eval_line,
    quantum_derivative_matrix,
)
from .suite import CheckResult, run_all
from .symplectic import (
    compatibility_defect,
    symplectic_form,
)

__version__ = "0.1.0"
