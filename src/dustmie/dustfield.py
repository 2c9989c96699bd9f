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

_MU_COEFF = (-2.061, 0.00159)     # mu_d(h) = a * exp(b h), h in m
_SIGMA_COEFF = (0.323, 0.00476)   # sigma_d(h) = a * exp(b h)
_EXTRAPOLATION_LIMIT = 1000.0     # m; warn above this
_SUPPORT_SIGMAS = 8.0
MAX_RADIUS_MM = 10.0              # mm; matches the Mie kernel radius cap


def lognormal_params(h: float) -> tuple[float, float]:
    """Log-normal fit parameters (mu_d, sigma_d) at altitude h (m)."""
    if not h >= 0:
        raise DomainError(f"altitude must be non-negative, got {h}")
    if h > _EXTRAPOLATION_LIMIT:
        warnings.warn(
            f"size-spectrum fit extrapolated to h={h} m, far above the "
            "measured range (~200 m)",
            stacklevel=2,
        )
    try:
        mu = _MU_COEFF[0] * math.exp(_MU_COEFF[1] * h)
        sigma = _SIGMA_COEFF[0] * math.exp(_SIGMA_COEFF[1] * h)
    except OverflowError as exc:
        raise DomainError(f"size-spectrum fit overflows at h={h} m") from exc
    return mu, sigma


def size_pdf(r, h: float):
    """Log-normal PDF of particle radius (1/mm) at altitude h (m), r in mm:
    a float for one radius, an array for an array of them."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("radius must be positive")
    mu, sigma = lognormal_params(h)
    pdf = np.exp(-((np.log(r) - mu) ** 2) / (2 * sigma**2)) / (
        math.sqrt(2 * math.pi) * sigma * r
    )
    return float(pdf) if pdf.ndim == 0 else pdf


def number_density(r: float, h: float, n0: float) -> float:
    """Particle number density spectrum N0 * p(r, h), per m^3 per mm."""
    if not n0 >= 0:
        raise DomainError("total number density must be non-negative")
    return n0 * size_pdf(r, h)


def size_support(h: float) -> tuple[float, float]:
    """Radius interval (mm) carrying essentially all log-normal mass at h.

    +/- 8 sigma in log-radius, upper end clamped to the kernel's radius cap.
    Far above the fitted range sigma grows until the lower end underflows;
    there the spectrum has no usable support and a DomainError is raised.
    """
    mu, sigma = lognormal_params(h)
    lo = math.exp(mu - _SUPPORT_SIGMAS * sigma)
    if lo == 0.0:
        raise DomainError(
            f"size spectrum at h={h} m (sigma_d={sigma:.3g}) spans more radii "
            "than a float can hold")
    top = min(mu + _SUPPORT_SIGMAS * sigma, math.log(MAX_RADIUS_MM))
    hi = min(math.exp(top), MAX_RADIUS_MM)
    return lo, hi


@dataclass(frozen=True)
class DustLayerModel:
    """Altitude-parameterized size spectrum plus a total number density.

    n0 is particles per m^3 and has no literature default; None means
    "unknown", in which case only normalized quantities can be computed.
    """

    n0: float | None = None

    def __post_init__(self):
        if self.n0 is not None and not 0 <= self.n0 < math.inf:
            raise DomainError(f"n0 must be non-negative and finite, got {self.n0}")

    def params(self, h: float) -> tuple[float, float]:
        return lognormal_params(h)

    def pdf(self, r: float, h: float) -> float:
        return size_pdf(r, h)

    def number_density(self, r: float, h: float) -> float:
        if self.n0 is None:
            raise DomainError("n0 is not set; only normalized output available")
        return number_density(r, h, self.n0)

    def support(self, h: float) -> tuple[float, float]:
        return size_support(h)
