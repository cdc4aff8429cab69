"""Pseudospectral toolkit for a quadratic dispersive model on the circle.

The model is a Schroedinger-type evolution with a derivative-weighted
square nonlinearity.  The package provides the spectral grid and
Littlewood-Paley helpers, bilinear symbol contractions and their
time-integrated lifts, space-time norms, a fourth-order integrating-factor
scheme, a discrete trilinear-form estimator, and the experiment drivers
plus acceptance suite wired to the ``qnls`` command."""

from .bilinear import (
    BilinearSymbol,
    apply_bilinear,
    apply_lift,
    apply_pair_g_fast,
    g_symbol,
    g_symbol_restricted,
    leibniz_residual,
    normal_form_pair,
    t_symbol_ubar2,
    weighted_product,
)
from .evolution import (
    BlowUpError,
    EvolutionConfig,
    Trajectory,
    decompose,
    direct_w_solve,
    integrate,
    integrate_batch,
    lipschitz_experiment,
    normal_form_h,
    rhs_groups,
    substitution_check,
)
from .mnorm import (
    BoxSpec,
    MnormModel,
    alternating_max,
    build_model,
    exhaustive_lower_bound,
    multiplier_lower_bound,
)
from .rates import expected_slope, product_rate_experiment
from .roughdata import DataSpec, gen_rough_data
from .spacetime import (
    SpaceTimeField,
    dyadic_profile,
    fitted_regularity,
    sobolev_norm,
    st_l2_norm,
    synth_boxed,
    xsb_norm,
)
from .spectral import (
    Grid,
    SpectralField,
    bessel_potential,
    free_propagate,
    l2_norm,
    lp_annulus,
    lp_bump,
    max_band,
    sign_project,
    to_physical,
    to_spectral,
)

__version__ = "0.1.0"
