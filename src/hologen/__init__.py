"""Numerical toolkit for holomorphic maps on unit balls of C^n: certify or
refute the generator inequality and pseudo-dissipativity, estimate
numerical-range quantities, verify radial growth envelopes and their
intermediate inequality chain, and integrate the generated flows.
"""

from .spaces import (MAX_DIM, NormedSpace, SupportPair, space_from_dict,
                     space_to_dict)
from .polymaps import (MAX_DEGREE, CallableMap, DiscFunction, HomogeneousPoly,
                       PolyMap, disc_generator_from, fejer_truncate,
                       herglotz_sample, lift_to_ball, map_from_dict,
                       map_to_dict, sample_generator, taylor_coefficients,
                       unitary_conjugate)
from .numrange import (OracleMismatchError, RangeEstimate, SearchBudget,
                       harris_check, harris_constant, hilbert_radius_oracle,
                       hilbert_range_inf_oracle, numerical_radius,
                       numerical_range_inf, operator_norm,
                       polynomial_numerical_radius, sup_norm_on_sphere)
from .certify import (CertifyBudget, GeneratorVerdict, NotCertifiedError,
                      PseudoDissipativityCertificate, caratheodory_check,
                      certificate_to_dict, certify_disc_generator,
                      certify_generator, certify_pseudo_dissipative,
                      generator_slack, inverse_shift,
                      linear_dissipation_check, restriction_agreement,
                      shift_to_generator, validate_certificate,
                      verdict_to_dict)
from .bounds import (ALPHA, BETA, ChainReport, GrowthBoundReport, GrowthInputs,
                     alpha_beta, generator_certificate, growth_inputs_from,
                     majorant_line, rhs_coarse, rhs_sharp,
                     verify_growth_bound, verify_intermediate_chain)
from .flows import (BallEscapeError, FlowStopError, StepStats, StepUnderflowError,
                    Trajectory, check_semigroup, flow_endpoint, integrate,
                    invariance_sweep, invariant_ball_probe, trajectory_to_csv)

__version__ = "0.1.0"

__all__ = [
    "ALPHA", "BETA", "BallEscapeError", "CallableMap", "CertifyBudget",
    "ChainReport", "DiscFunction", "FlowStopError", "GeneratorVerdict",
    "GrowthBoundReport", "GrowthInputs", "HomogeneousPoly", "MAX_DEGREE",
    "MAX_DIM", "NormedSpace", "NotCertifiedError", "OracleMismatchError",
    "PolyMap", "PseudoDissipativityCertificate", "RangeEstimate",
    "SearchBudget", "StepStats", "StepUnderflowError", "SupportPair",
    "Trajectory", "alpha_beta", "caratheodory_check", "certificate_to_dict",
    "certify_disc_generator", "certify_generator",
    "certify_pseudo_dissipative", "check_semigroup", "disc_generator_from",
    "fejer_truncate", "flow_endpoint", "generator_certificate",
    "generator_slack", "growth_inputs_from", "harris_check",
    "harris_constant", "herglotz_sample", "hilbert_radius_oracle",
    "hilbert_range_inf_oracle", "integrate", "invariance_sweep",
    "invariant_ball_probe", "inverse_shift", "lift_to_ball",
    "linear_dissipation_check", "majorant_line", "map_from_dict",
    "map_to_dict", "numerical_radius", "numerical_range_inf",
    "operator_norm", "polynomial_numerical_radius", "restriction_agreement",
    "rhs_coarse", "rhs_sharp", "sample_generator", "shift_to_generator",
    "space_from_dict", "space_to_dict", "sup_norm_on_sphere",
    "taylor_coefficients", "trajectory_to_csv", "unitary_conjugate",
    "validate_certificate", "verdict_to_dict", "verify_growth_bound",
    "verify_intermediate_chain",
]
