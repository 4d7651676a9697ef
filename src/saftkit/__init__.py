"""saftkit: the special affine Fourier transform and its operator calculus.

Six-parameter chirp transforms (Fourier, fractional Fourier, Fresnel, and
linear canonical transforms are special cases), twisted translation /
modulation / convolution, STFT and modulation-space norms, transform-domain
multipliers with a dyadic filter bank, a quadrature oracle next to every
fast path, and a verification battery that exercises the operator
identities at desk scale.
"""

from .params import (InputError, SaftParams, make_params, fourier_params,
                     frft_params, fresnel_params, pre_chirp, post_chirp,
                     quad_chirp, WeightSpec, unit_weight, radial_weight,
                     transported_weight, freq_scaled_weight, weight_eval)
from .grid import (Grid, Signal, Spectrum, centered_grid, sample, impulse,
                   indicator, lr_norm, spectrum_norm, inner_product, tail_mass,
                   save_signal, load_signal, save_spectrum, load_spectrum)
from .operators import (translate, modulate, chirp, involution,
                        a_translate, a_modulate, a_translate_compose_check,
                        a_translate_commute_check)
from .engine import (SaftPlan, make_plan, saft, saft_fast, saft_oracle,
                     saft_oracle_family, isaft,
                     apply_symbol, spectrum_grid, dft_frequencies,
                     chirp_period_compatible, sinc_reference,
                     twisted_derivative, heat_evolve)
from .aconv import (aconv_oracle, aconv_fast, crop_to_grid, extended_grid,
                    approx_identity_run, young_check, mult_functional)
from .timefreq import (TFMatrix, stft, window_flip,
                       gaussian_window, raised_cosine_window,
                       chirp_stft_covariance_check, a_covariance_check,
                       saft_stft_identity_max,
                       mod_norm, a_mod_norm, a_mod_norm_oracle)
from .multipliers import (SymbolSpec, imaginary_power, smoothed_sign,
                          dyadic_bump, indicator_symbol, indicator_union,
                          apply_multiplier, decay_constant,
                          derivative_defect, norm_ratios,
                          LPBank, lp_project, square_function)

__version__ = "0.1.0"
