"""Propagation-level quantities: dust attenuation coefficient, slant-path
dust loss, and the full path-loss model with shadow fading.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .dustfield import MAX_RADIUS_MM, DustLayerModel
from .errors import ConfigError
from .mie import ParticleState, WaveSpec, extinction_efficiency_array
from .quadrature import adaptive_simpson

NP_PER_M_TO_DB_PER_KM = 4.343e3  # 10 log10(e) * 1000

# The size integral is a trapezoid sum in ln r on one fixed lattice,
# u_j = ln(MAX_RADIUS_MM) + j * _LN_R_STEP for j <= 0, so the radius cap is
# a node and a kernel table built for one altitude serves any other. In ln r
# the log-normal weight is a Gaussian, for which the trapezoid rule converges
# fast: a step of 0.006 keeps k_dust within 1e-8 of the adaptive reference
# up to 3 THz, and one of 0.012 only within 5e-6.
_LN_R_STEP = 0.006
_LN_R_TOP = math.log(MAX_RADIUS_MM)


class AltitudeProfile:
    """Piecewise-linear altitude profile of a per-km attenuation coefficient.

    Linear interpolation between samples, flat extrapolation outside them.
    """

    def __init__(self, altitudes_m, db_per_km):
        self._h = np.asarray(altitudes_m, dtype=float)
        self._v = np.asarray(db_per_km, dtype=float)
        if self._h.ndim != 1 or self._h.shape != self._v.shape or self._h.size == 0:
            raise ConfigError("profile needs matching 1-D altitude/value arrays")
        if np.any(np.diff(self._h) <= 0):
            raise ConfigError("profile altitudes must be strictly increasing")
        if np.any(self._v < 0):
            raise ConfigError("attenuation coefficients must be non-negative")

    @classmethod
    def zero(cls) -> "AltitudeProfile":
        return cls([0.0, 1.0], [0.0, 0.0])

    @classmethod
    def from_file(cls, path) -> "AltitudeProfile":
        data = np.loadtxt(path, ndmin=2)
        if data.shape[1] != 2:
            raise ConfigError(f"{path}: expected two columns (altitude_m, dB_per_km)")
        return cls(data[:, 0], data[:, 1])

    def __call__(self, h: float) -> float:
        return float(np.interp(h, self._h, self._v))


@dataclass(frozen=True)
class LinkGeometry:
    """Slant-path geometry and large-scale channel parameters."""

    h0: float                   # transmitter altitude, m
    theta: float                # elevation angle, rad
    d: float                    # path length, m
    d0: float                   # reference distance, m
    scenario: str = "LoS"
    n_i: float = 2.0            # path-loss exponent
    sigma_i: float = 0.0        # shadow-fading std dev, dB

    def __post_init__(self):
        if not (0 <= self.theta <= math.pi / 2):
            raise ConfigError("elevation angle must lie in [0, pi/2]")
        if not (self.d >= self.d0 > 0):
            raise ConfigError("distances must satisfy d >= d0 > 0")
        if self.scenario not in ("LoS", "NLoS"):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.n_i <= 0:
            raise ConfigError("path-loss exponent must be positive")
        if self.sigma_i < 0:
            raise ConfigError("shadow-fading std dev must be non-negative")


@dataclass
class PathLossResult:
    """Path loss split into its additive dB components."""

    fspl_db: float
    distance_term_db: float
    shadow_db: float
    dust_loss_db: float
    total_db: float


def _kernel_table(heights, layer: DustLayerModel, w: WaveSpec,
                  particle: ParticleState, units_mode: str,
                  ge_mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Lattice nodes u = ln r (r in mm) covering the size supports at the
    given altitudes, and the per-particle extinction at each: C_ext in m^2
    (physical) or Q_ext (paper)."""
    lo, hi = zip(*(layer.support(h) for h in heights))
    lo, hi = min(lo), max(hi)
    first = math.floor((math.log(lo) - _LN_R_TOP) / _LN_R_STEP)
    last = min(math.ceil((math.log(hi) - _LN_R_TOP) / _LN_R_STEP), 0)
    u = _LN_R_TOP + _LN_R_STEP * np.arange(first, last + 1)
    r_m = np.exp(u) * 1e-3
    q = extinction_efficiency_array(r_m, w.frequency, particle.electrons,
                                    particle.temperature, particle.refractive_index,
                                    mode=ge_mode)
    return u, (q * math.pi * r_m**2 if units_mode == "physical" else q)


def _k_dust(h: float, layer: DustLayerModel, u: np.ndarray,
            kernel: np.ndarray) -> float:
    """k_dust(h) in dB/km: the trapezoid sum over the table's nodes inside
    the support of the size spectrum at h.

    In u = ln r the log-normal density is the normal density, so the
    integrand is n0 * phi(u) * kernel(u). At a support end that falls
    between nodes, the sliver left out carries phi below e^-32 of its peak.
    """
    mu, sigma = layer.params(h)
    lo, hi = layer.support(h)
    inside = (u >= math.log(lo)) & (u <= math.log(hi))
    f = (layer.n0 / (math.sqrt(2 * math.pi) * sigma)
         * np.exp(-0.5 * ((u[inside] - mu) / sigma) ** 2) * kernel[inside])
    return NP_PER_M_TO_DB_PER_KM * _LN_R_STEP * float(f.sum() - (f[0] + f[-1]) / 2)


def _check_units(units_mode: str) -> None:
    if units_mode not in ("physical", "paper"):
        raise ConfigError(f"unknown units mode {units_mode!r}")


def dust_attenuation_coefficient(h: float | np.ndarray, w: WaveSpec,
                                 layer: DustLayerModel,
                                 particle_template: ParticleState,
                                 units_mode: str = "physical",
                                 ge_mode: str = "full") -> float | np.ndarray:
    """Dust attenuation coefficient k_dust(h) in dB/km.

    Integrates the per-particle extinction against the size spectrum. The
    template particle supplies charge, temperature, and refractive index;
    its radius is ignored and swept by the integral, a trapezoid sum on a
    fixed ln r spacing over the support of the spectrum at h.

    h is one altitude (m), giving a float, or an array of them, giving an
    array of the same shape; the extinction kernel does not depend on
    altitude, so one table over the union of their supports serves them all.

    units_mode="physical" (default) integrates the cross-section C_ext in
    m^2, making the dB/km prefactor an exact Np/m conversion;
    units_mode="paper" integrates the dimensionless efficiency Q_ext with r
    in mm, reproducing the source formula literally.
    """
    _check_units(units_mode)
    if layer.n0 is None:
        raise ConfigError("layer n0 is required for absolute attenuation")
    heights = np.asarray(h, dtype=float)
    k = np.zeros(heights.shape)
    if layer.n0 != 0 and k.size:
        table = _kernel_table(heights.flat, layer, w, particle_template,
                              units_mode, ge_mode)
        k.flat = [_k_dust(float(x), layer, *table) for x in heights.flat]
    return float(k) if k.ndim == 0 else k


def slant_dust_loss(g: LinkGeometry, w: WaveSpec, layer: DustLayerModel,
                    particle_template: ParticleState,
                    k_abs: AltitudeProfile | None = None,
                    units_mode: str = "physical",
                    ge_mode: str = "full",
                    rel_tol: float = 1e-6) -> float:
    """Total dust + molecular-absorption loss (dB) along the slant path.

    The extinction kernel does not depend on altitude, so one table over the
    union of the size supports along the path serves every altitude the
    outer integral visits.
    """
    if k_abs is None:
        k_abs = AltitudeProfile.zero()
    sin_theta = math.sin(g.theta)
    table = None
    if layer.n0 not in (None, 0):
        _check_units(units_mode)
        # both ends of the support move monotonically with altitude, so the
        # supports at the path's two ends bound all the others
        table = _kernel_table((g.h0, g.h0 + g.d * sin_theta), layer, w,
                              particle_template, units_mode, ge_mode)

    def per_m(s: float) -> float:
        h = g.h0 + s * sin_theta
        k = k_abs(h)
        if table is not None:
            k += _k_dust(h, layer, *table)
        return k / 1000.0   # dB/km -> dB/m

    if sin_theta == 0.0:
        return g.d * per_m(0.0)    # constant-altitude path
    return adaptive_simpson(per_m, 0.0, g.d, rel_tol=rel_tol)


def path_loss(g: LinkGeometry, w: WaveSpec, layer: DustLayerModel,
              particle_template: ParticleState,
              shadow_seed: int | None = None,
              k_abs: AltitudeProfile | None = None,
              units_mode: str = "physical",
              ge_mode: str = "full") -> PathLossResult:
    """Full link path loss in dB: FSPL reference + distance term + shadow
    fading + slant dust loss.

    shadow_seed=None disables shadowing; an integer seed draws one
    reproducible Normal(0, sigma_i^2) shadow term.
    """
    fspl = 20 * math.log10(4 * math.pi * w.frequency * g.d0 / CONSTANTS.c)
    dist = 10 * g.n_i * math.log10(g.d / g.d0)
    if shadow_seed is None:
        chi = 0.0
    else:
        rng = np.random.default_rng(shadow_seed)
        chi = float(rng.normal(0.0, g.sigma_i))
    dust = slant_dust_loss(g, w, layer, particle_template, k_abs=k_abs,
                           units_mode=units_mode, ge_mode=ge_mode)
    total = fspl + dist + chi + dust
    return PathLossResult(fspl, dist, chi, dust, total)
