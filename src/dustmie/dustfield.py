"""Altitude-dependent dust size statistics.

Radii are in millimeters throughout this module: the empirical log-normal
fit constants were obtained with r in mm, and keeping that unit preserves
them unchanged. Callers feeding the Mie kernel convert to meters.

The altitude fits come from near-surface desert measurements (up to roughly
200 m); evaluation far above that extrapolates and emits a warning.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mie import _MAX_RADIUS, _MIN_RADIUS

_MU_COEFF = (-2.061, 0.00159)     # mu_d(h) = a * exp(b h), h in m
_SIGMA_COEFF = (0.323, 0.00476)   # sigma_d(h) = a * exp(b h)
_EXTRAPOLATION_LIMIT = 1000.0     # m; warn above this
_SUPPORT_SIGMAS = 8.0
MIN_RADIUS_MM = _MIN_RADIUS / 1e-3   # mm
MAX_RADIUS_MM = _MAX_RADIUS / 1e-3   # mm; 10.0 exactly


def lognormal_params(h):
    """Log-normal fit parameters (mu_d, sigma_d) at altitude h (m): floats
    for one altitude, arrays of h's shape for an array of them."""
    h = np.asarray(h, dtype=float)
    if not np.all(h >= 0):
        raise DomainError(f"altitude must be non-negative, got {h[~(h >= 0)][0]}")
    if np.any(h > _EXTRAPOLATION_LIMIT):
        warnings.warn(
            f"size-spectrum fit extrapolated to h={h.max():g} m, far above the "
            "measured range (~200 m)",
            stacklevel=2,
        )
    with np.errstate(over="ignore"):
        mu = _MU_COEFF[0] * np.exp(_MU_COEFF[1] * h)
        sigma = _SIGMA_COEFF[0] * np.exp(_SIGMA_COEFF[1] * h)
    if not np.isfinite(sigma).all():      # sigma grows the faster of the two
        raise DomainError(f"size-spectrum fit overflows at h={h.max():g} m")
    return (float(mu), float(sigma)) if h.ndim == 0 else (mu, sigma)


def size_pdf(r, h):
    """Log-normal PDF of particle radius (1/mm) at altitude h (m), r in mm:
    a float for one r and h, else an array of their broadcast shape."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("radius must be positive")
    mu, sigma = lognormal_params(h)
    pdf = np.exp(-((np.log(r) - mu) ** 2) / (2 * sigma**2)) / (
        math.sqrt(2 * math.pi) * sigma * r
    )
    return float(pdf) if pdf.ndim == 0 else pdf


def _check_n0(n0: float) -> None:
    if n0 is None or not 0 <= n0 < math.inf:
        raise DomainError(f"n0 must be non-negative and finite, got {n0}")


def number_density(r: float, h: float, n0: float) -> float:
    """Particle number density spectrum N0 * p(r, h), per m^3 per mm."""
    _check_n0(n0)
    return n0 * size_pdf(r, h)


def _support(mu, sigma):
    """`size_support` of the log-normal (mu, sigma), as arrays like them."""
    lo = np.maximum(np.exp(mu - _SUPPORT_SIGMAS * sigma), MIN_RADIUS_MM)
    top = np.minimum(mu + _SUPPORT_SIGMAS * sigma, math.log(MAX_RADIUS_MM))
    return lo, np.minimum(np.exp(top), MAX_RADIUS_MM)


def size_support(h):
    """Radius interval (lo, hi) in mm carrying essentially all log-normal
    mass at altitude h (m): floats, or arrays of h's shape.

    +/- 8 sigma in log-radius, clamped to the kernel's radius domain
    [1e-6, 10] mm, which above ~200 m drops the mass outside it (README).
    """
    lo, hi = _support(*lognormal_params(h))
    return (float(lo), float(hi)) if lo.ndim == 0 else (lo, hi)


@dataclass(frozen=True)
class DustLayerModel:
    """Altitude-parameterized size spectrum plus a total number density.

    n0 is particles per m^3 and has no literature default; None means
    "unknown", in which case only normalized quantities can be computed.
    """

    n0: float | None = None

    def __post_init__(self):
        if self.n0 is not None:
            _check_n0(self.n0)
