"""Small-wavenumber expansion of 1D Schrodinger / Fokker-Planck Green
functions, with an independent ODE oracle for validation."""

from .assembler import (
    ExpansionResult,
    closed_form_g,
    generic_expansion,
    green_series,
    log_form,
    pole_resummed,
    q_values,
    s_series,
)
from .brackets import (
    BracketKind,
    BracketSpec,
    QuadratureConfig,
    cumulative_bracket,
    eval_bracket,
)
from .coeffgen import (
    Family,
    Side,
    TermTable,
    a_terms,
    b_terms,
    btilde_terms,
    eval_coeff,
    gamma_series,
    p_coeff,
)
from .laurent import (
    LaurentSeries,
    ls_add,
    ls_exp,
    ls_invert,
    ls_log,
    ls_mul,
    ls_sqrt,
)
from .oracle import (
    GreenSample,
    SolverConfig,
    bessel_j,
    green_closed_ex5,
    green_closed_ex6,
    green_exact,
    green_exact_grid,
    green_exact_report,
    remainder_scaling_fit,
    zero_energy_modes,
)
from .potential import (
    CaseTag,
    Decay,
    Discontinuity,
    EndpointClass,
    EndpointKind,
    PotentialModel,
    catalog,
    catalog_names,
    classification,
    classify_case,
    custom_model,
    max_valid_order,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
