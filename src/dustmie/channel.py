"""Propagation-level quantities: dust attenuation coefficient, slant-path
dust loss, and the full path-loss model with shadow fading.
"""
from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .dustfield import MAX_RADIUS_MM, DustLayerModel, _support, lognormal_params
from .errors import ConfigError, DomainError
from .mie import (ParticleState, WaveSpec, _electron_count, _normalize_m,
                  collision_frequency, extinction_efficiency_array)

NP_PER_M_TO_DB_PER_KM = 4.343e3  # 10 log10(e) * 1000

# The size integral is a trapezoid sum in ln r on one fixed lattice,
# u_j = ln(MAX_RADIUS_MM) + j * _LN_R_STEP for j <= 0, so the radius cap is
# a node and a kernel table built for one altitude serves any other. In ln r
# the log-normal weight is a Gaussian, for which the trapezoid rule converges
# fast where Q_ext is smooth on the lattice's scale. A step of 0.006 keeps
# k_dust within 1e-8 of the nested 0.0015 lattice for 2-0.025j and
# 1.6+0.05j at 100-200 m from 0.1 to 3 THz (tests/test_channel.py), and one
# of 0.012 only within 5e-6. That is the domain of the claim: the sharper
# Mie ripple of a weakly absorbing sphere misses by more, 2e-5 for
# 1.5+0.001j at 1 THz, 7.4e-5 for 1.33 at 3 THz, 7e-4 for 3+0.001j at
# 0.3 THz; and above about 220 m the cap's end error grows (3.3e-7 at 300 m).
_LN_R_STEP = 0.006
_LN_R_TOP = math.log(MAX_RADIUS_MM)
# Sizes (lattice nodes x frequencies) of one kernel call when a table spans
# many frequencies: 19 frequencies of a 1,701-node lattice near 3 THz trace
# a 5.0 MB peak, and a 400-frequency table in such slices 5.3 MB.
_TABLE_SIZES = 2**15
# Q_ext kept from call to call, least recently used first: per kernel key
# (f, Ne, T, m, g_e mode), (j, Q_ext at nodes j, j + 1, ...). Node j is always
# u_j and a size's Q_ext does not depend on the batch that computes it, so a
# kept value serves any later lattice. At most _STORED_NODES nodes (256 KB).
# Calls from several threads read and write it under _tables_lock, which is
# not held while the kernel runs.
_STORED_NODES = 2**15
_tables: OrderedDict = OrderedDict()
_tables_lock = threading.Lock()

# The slant-path rule: 8 Gauss-Legendre nodes (on [-1, 1]; leggauss(8),
# written out to keep numpy.polynomial out of the import) in panels of at
# most 100 m of altitude rise. Up to 3 THz and 640 m of rise it is within
# 1e-13 of a 1e-12-tolerance adaptive reference. 16 nodes in 200 m panels
# would double the k_dust sums of a short path for no gain.
_PANEL_RISE_M = 100.0
_GL_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                      -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                      0.7966664774136267, 0.9602898564975362])
_GL_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                        0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                        0.22238103445337443, 0.10122853629037706])


class AltitudeProfile:
    """Piecewise-linear altitude profile of a per-km attenuation coefficient.

    Linear interpolation between samples, flat extrapolation outside them.
    """

    def __init__(self, altitudes_m, db_per_km):
        self._h = np.asarray(altitudes_m, dtype=float)
        self._v = np.asarray(db_per_km, dtype=float)
        if self._h.ndim != 1 or self._h.shape != self._v.shape or self._h.size == 0:
            raise ConfigError("profile needs matching 1-D altitude/value arrays")
        if not (np.isfinite(self._h).all() and np.isfinite(self._v).all()):
            raise ConfigError("profile altitudes and values must be finite")
        if np.any(np.diff(self._h) <= 0):
            raise ConfigError("profile altitudes must be strictly increasing")
        if np.any(self._v < 0):
            raise ConfigError("attenuation coefficients must be non-negative")

    @classmethod
    def from_file(cls, path) -> "AltitudeProfile":
        try:
            data = np.loadtxt(path, ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read profile {path}: {exc}") from exc
        if data.shape[1] != 2:
            raise ConfigError(f"{path}: expected two columns (altitude_m, dB_per_km)")
        return cls(data[:, 0], data[:, 1])

    def __call__(self, h):
        """dB/km at altitude h (m): a float, or an array of h's shape."""
        return np.interp(h, self._h, self._v)


@dataclass(frozen=True)
class LinkGeometry:
    """Slant-path geometry and large-scale channel parameters."""

    h0: float                   # transmitter altitude, m
    theta: float                # elevation angle, rad
    d: float                    # path length, m
    d0: float                   # reference distance, m
    n_i: float = 2.0            # path-loss exponent
    sigma_i: float = 0.0        # shadow-fading std dev, dB

    def __post_init__(self):
        if not 0 <= self.h0 < math.inf:
            raise ConfigError("transmitter altitude must be non-negative and finite")
        if not (0 <= self.theta <= math.pi / 2):
            raise ConfigError("elevation angle must lie in [0, pi/2]")
        if not (math.inf > self.d >= self.d0 > 0):
            raise ConfigError("distances must satisfy inf > d >= d0 > 0")
        if not 0 < self.n_i < math.inf:
            raise ConfigError("path-loss exponent must be positive and finite")
        if not 0 <= self.sigma_i < math.inf:
            raise ConfigError("shadow-fading std dev must be non-negative and finite")


@dataclass
class PathLossResult:
    """Path loss split into its additive dB components."""

    fspl_db: float
    distance_term_db: float
    shadow_db: float
    dust_loss_db: float
    total_db: float


def _lattice(lo, hi) -> tuple[int, np.ndarray]:
    """Index j of the first lattice node covering the radius intervals
    [lo, hi] (mm), floats or arrays, and the nodes u = ln r (r in mm) from
    it to the last one covering them."""
    first = math.floor((math.log(np.min(lo)) - _LN_R_TOP) / _LN_R_STEP)
    last = min(math.ceil((math.log(np.max(hi)) - _LN_R_TOP) / _LN_R_STEP), 0)
    return first, _LN_R_TOP + _LN_R_STEP * np.arange(first, last + 1)


def _per_particle(r_m: np.ndarray, q: np.ndarray, units_mode: str) -> np.ndarray:
    """The per-particle extinction a Q_ext table weights at radii r_m (m,
    a column): C_ext in m^2 (physical) or Q_ext itself (paper)."""
    if units_mode == "paper":
        return q
    return q * math.pi * r_m**2


def _size_weights(u: np.ndarray, mu: np.ndarray, sigma: np.ndarray, n0: float):
    """For each log-normal (mu, sigma), arrays of them, the slice of the
    sorted lattice u inside its support and n0 * phi(u) on it: in u = ln r
    the log-normal density is the normal density phi. At a support end that
    falls between nodes, the sliver left out carries phi below e^-32 of its
    peak."""
    lo, hi = _support(mu, sigma)
    begin = np.searchsorted(u, np.log(lo)).tolist()
    end = np.searchsorted(u, np.log(hi), "right").tolist()
    for m, s, a, b in zip(mu.tolist(), sigma.tolist(), begin, end):
        yield slice(a, b), (n0 / (math.sqrt(2 * math.pi) * s)
                            * np.exp(-0.5 * ((u[a:b] - m) / s) ** 2))


def _k_dust(weights: np.ndarray, kernel: np.ndarray) -> float:
    """k_dust in dB/km: the trapezoid sum of an altitude's weights against
    the kernel at the same nodes."""
    f = weights * kernel
    return NP_PER_M_TO_DB_PER_KM * _LN_R_STEP * float(f.sum() - (f[0] + f[-1]) / 2)


def _check_units(units_mode: str) -> None:
    if units_mode not in ("physical", "paper"):
        raise ConfigError(f"unknown units mode {units_mode!r}")


def _q_blocks(keys: list, first: int, r_m: np.ndarray, kernel):
    """Yield (columns, Q_ext) blocks on the lattice nodes r_m (m) from index
    first, for the columns' kernel keys, then keep their runs in _tables.

    A key whose run meets the lattice reuses it, and kernel(radius, columns)
    computes only the nodes it lacks at either end. Other keys go to the
    kernel in (nodes, columns) batches of at most _TABLE_SIZES sizes. Only
    the last columns that fit in _STORED_NODES are kept, so that no copy is
    held through the batches before them."""
    last, step = first + len(r_m) - 1, max(1, _TABLE_SIZES // len(r_m))
    with _tables_lock:
        runs = {c: _tables[key] for c, key in enumerate(keys) if key in _tables}
    runs = {c: (j, q) for c, (j, q) in runs.items() if j <= last and j + q.size > first}
    spans = [(first, last)] * len(keys)
    for c, (j, q) in runs.items():
        spans[c] = min(first, j), max(last, j + q.size - 1)
    keep = np.cumsum([b - a + 1 for a, b in spans][::-1])[::-1] <= _STORED_NODES
    stored = {}
    fresh = [c for c in range(len(keys)) if c not in runs]
    for s in range(0, len(fresh), step):
        q = kernel(r_m, fresh[s:s + step])
        # a copy only where the block has other columns to let go of
        stored.update((c, (first, np.ascontiguousarray(q[:, i])))
                      for i, c in enumerate(fresh[s:s + step]) if keep[c])
        yield fresh[s:s + step], q
    warm = list(runs)
    for s in range(0, len(warm), step):
        tables = []
        for c in warm[s:s + step]:
            j, q = runs[c]
            low, high = max(j - first, 0), j + q.size - first
            if low or high < len(r_m):
                ends = kernel(np.concatenate((r_m[:low, 0], r_m[high:, 0])), [c])
                q = np.concatenate((ends[:low], q, ends[low:]))
            stored[c] = spans[c][0], q
            tables.append(q[max(first - j, 0):][:len(r_m)])
        yield warm[s:s + step], np.stack(tables, axis=1)
    with _tables_lock:
        for c, key in enumerate(keys):
            if keep[c] and c in stored:
                _tables[key] = stored[c]
            if key in _tables:
                _tables.move_to_end(key)
        while sum(q.size for _, q in _tables.values()) > _STORED_NODES:
            _tables.popitem(last=False)


def _k_dust_grid(heights, frequencies, electrons, layer: DustLayerModel,
                 temperature: float, m: complex, units_modes,
                 ge_mode: str) -> np.ndarray:
    """k_dust in dB/km, a (units modes, electron counts, frequencies,
    heights) array at temperature T (K) and refractive index m.

    One lattice covers the supports at every altitude, and one Q_ext table
    on it serves every units mode. The table's columns are its (count,
    frequency) pairs; `_q_blocks` reuses what _tables keeps of each and
    runs the kernel on the rest. Each altitude's weights are formed once per
    block and summed against every (units mode, column) of it.
    """
    for units_mode in units_modes:
        _check_units(units_mode)
    if layer.n0 is None:
        raise ConfigError("layer n0 is required for absolute attenuation")
    electrons = _electron_count(electrons)
    frequencies = np.asarray(frequencies, dtype=float)
    bad = frequencies[~((frequencies > 0) & (frequencies < math.inf))]
    if bad.size:
        raise DomainError(f"frequency must be positive and finite, got {bad[0]}")
    collision_frequency(temperature)
    m = _normalize_m(m)
    k = np.zeros((len(units_modes), electrons.size, frequencies.size, len(heights)))
    if layer.n0 == 0 or not k.size:
        return k
    mu, sigma = lognormal_params(heights)
    lo, hi = _support(mu, sigma)
    first, u = _lattice(lo, hi)
    ne_column = np.repeat(electrons, frequencies.size)
    f_column = np.tile(frequencies, electrons.size)
    k_column = k.reshape(len(units_modes), f_column.size, len(heights))
    keys = [(f, ne, float(temperature), m, ge_mode)
            for f, ne in zip(f_column.tolist(), ne_column.tolist())]

    def kernel(radius, columns):
        return extinction_efficiency_array(radius, f_column[columns],
                                           ne_column[columns], temperature, m,
                                           mode=ge_mode)

    r_m = np.exp(u)[:, None] * 1e-3
    for columns, q in _q_blocks(keys, first, r_m, kernel):
        # one row per (units mode, column) of the block
        rows = np.concatenate([_per_particle(r_m, q, units_mode)
                               for units_mode in units_modes], axis=1).T
        for i, (part, w) in enumerate(_size_weights(u, mu, sigma, layer.n0)):
            k_column[:, columns, i] = np.reshape(
                [_k_dust(w, row[part]) for row in rows], (len(units_modes), -1))
    return k


def dust_attenuation_coefficient(h: float | np.ndarray, w: WaveSpec,
                                 layer: DustLayerModel,
                                 particle_template: ParticleState,
                                 units_mode: str = "physical",
                                 ge_mode: str = "full") -> float | np.ndarray:
    """Dust attenuation coefficient k_dust(h) in dB/km.

    Integrates the per-particle extinction against the size spectrum. The
    template particle supplies charge, temperature, and refractive index;
    its radius is ignored and swept by the integral, a trapezoid sum on a
    fixed ln r lattice over the support of the spectrum at h.

    h is one altitude (m), giving a float, or an array of them, giving an
    array of the same shape; the extinction kernel does not depend on
    altitude, so one table over the union of their supports serves them all,
    and each altitude weights its own slice of that lattice once.

    That table depends only on (f, Ne, T, m, ge_mode), never on h,
    units_mode or n0, so the process keeps the last ones built, up to 2^15
    lattice nodes (256 KB) in all, and a later call with the same key
    computes only the nodes they lack. The result is bit-identical either
    way. This pays when one process repeats a carrier and charge; a single
    CLI run builds one table and gains nothing.

    units_mode="physical" (default) integrates the cross-section C_ext in
    m^2, making the dB/km prefactor an exact Np/m conversion;
    units_mode="paper" integrates the dimensionless efficiency Q_ext with r
    in mm, reproducing the source formula literally.
    """
    heights = np.asarray(h, dtype=float)
    p = particle_template
    k = _k_dust_grid(heights.ravel(), [w.frequency], [p.electrons], layer,
                     p.temperature, p.refractive_index, (units_mode,),
                     ge_mode)[0, 0, 0].reshape(heights.shape)
    return float(k) if k.ndim == 0 else k


def slant_dust_loss(g: LinkGeometry, w: WaveSpec, layer: DustLayerModel,
                    particle_template: ParticleState,
                    k_abs: AltitudeProfile | None = None,
                    units_mode: str = "physical",
                    ge_mode: str = "full") -> float:
    """Total dust + molecular-absorption loss (dB) along the slant path.

    A fixed rule: Gauss-Legendre panels of at most 100 m altitude rise (one
    for a horizontal path), split at the k_abs knots the path crosses, so
    it is exact for the piecewise-linear k_abs. k_dust at every node comes
    from one _k_dust_grid call, so one kernel table serves the whole path,
    and a layer without n0 raises ConfigError. A path at a carrier and
    charge the process has already seen reuses that table, kept across
    calls as in `dust_attenuation_coefficient`, with bit-identical results.
    """
    sin_theta = math.sin(g.theta)
    panels = max(1, math.ceil(g.d * sin_theta / _PANEL_RISE_M))
    cuts = np.linspace(0.0, g.d, panels + 1)
    if k_abs is not None and sin_theta > 0:
        knots = (k_abs._h - g.h0) / sin_theta
        cuts = np.sort(np.concatenate((cuts, knots[(knots > 0) & (knots < g.d)])))
    half = np.diff(cuts)[:, None] / 2
    s = (cuts[:-1, None] + cuts[1:, None]) / 2 + half * _GL_NODES
    heights = (g.h0 + s * sin_theta).ravel()
    p = particle_template
    k = _k_dust_grid(heights, [w.frequency], [p.electrons], layer, p.temperature,
                     p.refractive_index, (units_mode,), ge_mode)[0, 0, 0]
    if k_abs is not None:
        k += k_abs(heights)
    return float(((half * _GL_WEIGHTS).ravel() * k).sum()) / 1000.0   # dB/km -> dB/m


def path_loss(g: LinkGeometry, w: WaveSpec, layer: DustLayerModel,
              particle_template: ParticleState,
              shadow_seed: int | None = None,
              k_abs: AltitudeProfile | None = None,
              units_mode: str = "physical",
              ge_mode: str = "full") -> PathLossResult:
    """Full link path loss in dB: FSPL reference + distance term + shadow
    fading + slant dust loss.

    shadow_seed=None disables shadowing; a non-negative integer seed draws one
    reproducible Normal(0, sigma_i^2) shadow term.
    """
    fspl = 20 * math.log10(4 * math.pi * w.frequency * g.d0 / CONSTANTS.c)
    dist = 10 * g.n_i * math.log10(g.d / g.d0)
    if shadow_seed is None:
        chi = 0.0
    elif shadow_seed < 0:
        raise ConfigError(f"shadow seed must be non-negative, got {shadow_seed}")
    else:
        rng = np.random.default_rng(shadow_seed)
        chi = float(rng.normal(0.0, g.sigma_i))
    dust = slant_dust_loss(g, w, layer, particle_template, k_abs=k_abs,
                           units_mode=units_mode, ge_mode=ge_mode)
    total = fspl + dist + chi + dust
    if not math.isfinite(total):
        raise DomainError(f"link budget is not finite ({total} dB) at "
                          f"f={w.frequency:g} Hz, d={g.d:g} m, d0={g.d0:g} m, "
                          f"n_i={g.n_i:g}, sigma_i={g.sigma_i:g} dB")
    return PathLossResult(fspl, dist, chi, dust, total)
