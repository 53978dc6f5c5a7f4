"""Explicit Kahler-Einstein edge metrics on Hirzebruch surfaces.

The metric has cone singularities along the zero and infinity sections of
the ruling; a momentum profile on a finite interval determines everything.
Modules: profile (the cubic momentum profile and cone angles), legendre
(the fiber coordinate <-> momentum transform), geometry (metric tensor,
Ricci curvature by finite differences, lengths and volumes), cohomology
(divisor classes and intersection numbers), limits (small-angle collapse),
cli (reporting front end).
"""

from .cohomology import (DivisorClass, canonical_class, class_volume,
                         fiber_class, infinity_section, intersect, is_kahler,
                         kee_class, proportionality_check,
                         section_coefficients, zero_section)
from .errors import (DomainError, KeeError, PositivityError, QuadratureError,
                     RangeError, UsageError)
from .geometry import (ChartPoint, HermitianForm2, chart_grid, chart_s,
                       cone_angle_probe, einstein_residual, fiber_length,
                       fiber_volume, fs_pullback, metric_at, ricci_fd,
                       total_volume)
from .legendre import (TauSMap, build_map, log_slope_at_end, s_of_tau,
                       tau_of_s, tau_phi_of_s)
from .limits import (alpha_series, beta2_series, collapse_entry,
                     collapse_report, fiber_length_asymptote,
                     rescaled_fiber_metric, rescaled_phi_y, tau_of_y,
                     tensor_deviation, y_of_tau)
from .profile import (BETA1_CONSTRAINT, ConeAngles, EinsteinProfile,
                      eval_phi, eval_phi_exact, eval_phi_prime, make_profile,
                      ode_residual)
from .quadrature import quad_checked

__version__ = "0.1.0"

__all__ = [
    "BETA1_CONSTRAINT", "ChartPoint", "ConeAngles", "DivisorClass",
    "DomainError", "EinsteinProfile", "HermitianForm2", "KeeError",
    "PositivityError", "QuadratureError", "RangeError", "TauSMap",
    "UsageError", "alpha_series", "beta2_series", "build_map",
    "canonical_class", "chart_grid", "chart_s", "class_volume",
    "collapse_entry", "collapse_report", "cone_angle_probe",
    "einstein_residual", "eval_phi", "eval_phi_exact", "eval_phi_prime",
    "fiber_class", "fiber_length", "fiber_length_asymptote", "fiber_volume",
    "fs_pullback", "infinity_section", "intersect", "is_kahler", "kee_class",
    "log_slope_at_end", "make_profile", "metric_at", "ode_residual",
    "proportionality_check", "quad_checked", "rescaled_fiber_metric",
    "rescaled_phi_y", "ricci_fd", "s_of_tau", "section_coefficients",
    "tau_of_s", "tau_of_y", "tau_phi_of_s", "tensor_deviation",
    "total_volume", "y_of_tau", "zero_section",
]
