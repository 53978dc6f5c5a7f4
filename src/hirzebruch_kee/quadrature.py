"""Quadrature plumbing: tolerance config and a checked adaptive wrapper."""

from __future__ import annotations

from dataclasses import dataclass

from scipy import integrate

from .errors import QuadratureError


@dataclass(frozen=True)
class QuadratureConfig:
    """Absolute/relative integration targets shared by all quadratures."""

    epsabs: float = 1e-12
    epsrel: float = 1e-10
    limit: int = 200


DEFAULT_QUAD = QuadratureConfig()


def quad_checked(fun, a: float, b: float, cfg: QuadratureConfig | None = None) -> float:
    """scipy adaptive quadrature with the reported error actually enforced."""
    cfg = cfg or DEFAULT_QUAD
    out = integrate.quad(fun, a, b, epsabs=cfg.epsabs, epsrel=cfg.epsrel,
                         limit=cfg.limit, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3:
        raise QuadratureError(f"integration on [{a}, {b}] did not converge: {out[3]}")
    budget = 10.0 * max(cfg.epsabs, cfg.epsrel * abs(value))
    if abserr > budget:
        raise QuadratureError(
            f"integration on [{a}, {b}] missed its tolerance: "
            f"abserr={abserr:.3e} > {budget:.3e}")
    return value
