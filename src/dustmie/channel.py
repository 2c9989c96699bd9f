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
from .dustfield import (MAX_RADIUS_MM, MIN_RADIUS_MM, DustLayerModel, _support,
                        lognormal_params)
from .errors import ConfigError, DomainError
from .mie import (ParticleState, WaveSpec, _electron_count, _normalize_m,
                  collision_frequency, extinction_efficiency_array)

NP_PER_M_TO_DB_PER_KM = 4.343e3  # 10 log10(e) * 1000

# The size integral is a trapezoid sum on one lattice per kernel key's
# (f, m): v uniform at step _V_STEP, mapped to u = ln r (r in mm) by
#   U(v) = v - (K1 - 1) w softplus((u1 - v) / w) + (K2 - 1) w softplus((v - u2) / w),
# with v anchored so that the top node is the radius cap, and every node
# inside the kernel's radius domain [1e-6, 10] mm. Each node weighs
# phi(U(v)) U'(v). The step in u is K1 times _V_STEP below u1, where x < 0.5
# (Rayleigh: Q_ext is a smooth power law), K2 times above u2, where
# Im(m) x > 7 (absorption damps the Mie ripple like exp(-4 Im(m) x)), and
# _V_STEP between them. The trapezoid rule keeps its fast convergence under
# a smooth map (Trefethen & Weideman 2014, SIAM Rev. 56, 385), and a smooth
# map has no junction to correct. Where an altitude's support reaches the
# cap, Gregory's end correction -h (grad g/12 + grad^2 g/24 +
# 19 grad^3 g/720) on the last four values of g(v) = phi U' C_ext replaces
# the trapezoid's O(h^2) end error. Against a converged reference
# (tests/test_channel.py), k_dust is within 1e-8 for 2-0.025j and 1.6+0.05j
# at 100-200 m from 0.1 to 3 THz, at any charge and in both units modes,
# and for 2-0.025j within 1e-8 at 300 m and 3e-8 at 600 m at 0.3, 1 and
# 3 THz. The constants are the best of those tried on that grid (README).
# A weakly absorbing sphere's sharper Mie ripple misses by more: 1.3e-5
# for 1.5+0.001j at 1 THz.
_V_STEP = 0.006
_SMALL_X, _SMALL_X_STEPS = 0.5, 6        # x1 and K1
_DAMPED_X, _DAMPED_STEPS = 7.0, 3        # x2 (of Im(m) x) and K2
_MAP_WIDTH = 0.4                         # w, in ln r
_LN_R_TOP = math.log(MAX_RADIUS_MM)
_LN_R_FLOOR = math.log(MIN_RADIUS_MM)
# ln of r in mm per unit of x f: r = x c / (2 pi f)
_LN_MM_PER_X_HZ = math.log(CONSTANTS.c * 1e3 / (2 * math.pi))
# Gregory's end weights (trapezoid plus correction), on the last four nodes
# of a sum that ends at the cap, lowest first
_CAP_WEIGHTS = np.array([739.0, 633.0, 897.0, 251.0]) / 720


def _ln_r_map(v, u1: float, u2: float):
    """U(v) and U'(v): u = ln r at lattice coordinate v (floats or arrays)."""
    a, b = (u1 - v) / _MAP_WIDTH, (v - u2) / _MAP_WIDTH
    u = (v - (_SMALL_X_STEPS - 1) * _MAP_WIDTH * np.logaddexp(0.0, a)
         + (_DAMPED_STEPS - 1) * _MAP_WIDTH * np.logaddexp(0.0, b))
    du = (1 + (_SMALL_X_STEPS - 1) / 2 * (1 + np.tanh(a / 2))
          + (_DAMPED_STEPS - 1) / 2 * (1 + np.tanh(b / 2)))
    return u, du


def _map_inverse(u: float, u1: float, u2: float) -> float:
    """The v with U(v) = u: Newton's method, as U is smooth and increasing
    with U' >= 1."""
    v = u
    for _ in range(50):
        u_v, du = _ln_r_map(v, u1, u2)
        shift = (u_v - u) / du
        v -= shift
        if abs(shift) < 1e-13:
            break
    return float(v)


def _lattice(f: float, m: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The size lattice of frequency f (Hz) and index m: its nodes u = ln r
    (r in mm) from the first at or above MIN_RADIUS_MM up to the radius cap,
    their radii in m, and their trapezoid steps du = _V_STEP U'(v)."""
    ln_scale = _LN_MM_PER_X_HZ - math.log(f)
    u1 = math.log(_SMALL_X) + ln_scale
    u2 = math.log(_DAMPED_X) - math.log(m.imag) + ln_scale if m.imag else math.inf
    v_top = _map_inverse(_LN_R_TOP, u1, u2)
    count = math.floor((v_top - _map_inverse(_LN_R_FLOOR, u1, u2)) / _V_STEP) + 1
    u, du = _ln_r_map(v_top + _V_STEP * np.arange(-count, 1), u1, u2)
    keep = u >= _LN_R_FLOOR
    u, du = u[keep], du[keep] * _V_STEP
    u[-1] = _LN_R_TOP
    return u, np.exp(u) * 1e-3, du


# Sizes (lattice nodes x frequencies) of one kernel call when a table spans
# many frequencies: 27 frequencies of a 1,200-node support near 3 THz trace
# a 24 MB peak, and a 400-frequency table at 150 m in such slices 32 MB.
_TABLE_SIZES = 2**15
# Q_ext kept from call to call, least recently used first: per kernel key
# (f, Ne, T, m, g_e mode), one array over the key's lattice, NaN where a node
# is not yet computed. A size's Q_ext does not depend on the batch that
# computes it, so a kept value serves any later support. The arrays hold at
# most _STORED_BYTES (256 KB) in all, the oldest dropped first.
# Calls from several threads read and write it under _tables_lock, which is
# not held while the kernel runs; a kept array is replaced, never written.
_STORED_BYTES = 2**18
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


def _per_particle(r_m: np.ndarray, q: np.ndarray, units_mode: str) -> np.ndarray:
    """The per-particle extinction a Q_ext table weights at radii r_m (m,
    a column): C_ext in m^2 (physical) or Q_ext itself (paper)."""
    if units_mode == "paper":
        return q
    return q * math.pi * r_m**2


def _node_slices(u: np.ndarray, mu, sigma) -> list[slice]:
    """For each log-normal (mu, sigma), arrays of them, the slice of the
    lattice nodes u inside its support: the one rule for which nodes a
    support covers. At an 8-sigma end that falls between nodes, the sliver
    left out carries phi below e^-32 of its peak."""
    lo, hi = _support(mu, sigma)
    begin = np.searchsorted(u, np.log(lo)).tolist()
    end = np.searchsorted(u, np.log(hi), "right").tolist()
    return [slice(a, b) for a, b in zip(begin, end)]


def _size_weights(lattice, mu: np.ndarray, sigma: np.ndarray, n0: float):
    """For each log-normal (mu, sigma), arrays of them, its slice of the
    lattice (u, r, du) and the quadrature weights on it: n0 phi(u) du, with
    in u = ln r the log-normal density the normal density phi, halved at
    the slice's ends, or Gregory's at an end on the cap."""
    u, _, du = lattice
    for part, m, s in zip(_node_slices(u, mu, sigma), mu.tolist(), sigma.tolist()):
        w = (n0 / (math.sqrt(2 * math.pi) * s)
             * np.exp(-0.5 * ((u[part] - m) / s) ** 2) * du[part])
        w[0] /= 2
        if part.stop == u.size:
            w[-4:] *= _CAP_WEIGHTS
        else:
            w[-1] /= 2
        yield part, w


def _k_dust(weights: np.ndarray, kernel: np.ndarray) -> float:
    """k_dust in dB/km: an altitude's weights summed against the kernel at
    the same nodes."""
    return NP_PER_M_TO_DB_PER_KM * float((weights * kernel).sum())


def _check_units(units_mode: str) -> None:
    if units_mode not in ("physical", "paper"):
        raise ConfigError(f"unknown units mode {units_mode!r}")


def _q_blocks(keys: list, columns: list, kernel):
    """Yield (columns, Q_ext) blocks for the columns' kernel keys, at most
    _TABLE_SIZES sizes a block (one column at least). `columns[c]` is
    (node count of column c's lattice, the slice of that lattice it takes,
    the radii in m on the slice).

    A block copies what _tables keeps of its keys and computes every node
    they lack, ragged across its columns, in one kernel(radii, columns)
    call, a column index per radius. Then it keeps the copies, so a block
    that raises keeps nothing, and drops the least recently used keys while
    the kept arrays hold more than _STORED_BYTES."""
    s = 0
    while s < len(keys):
        e, sizes = s + 1, columns[s][2].size
        while e < len(keys) and sizes + columns[e][2].size <= _TABLE_SIZES:
            sizes += columns[e][2].size
            e += 1
        block = range(s, e)
        with _tables_lock:
            kept = [_tables[keys[c]].copy() if keys[c] in _tables
                    else np.full(columns[c][0], np.nan) for c in block]
        q = [table[columns[c][1]] for table, c in zip(kept, block)]     # views
        missing = [np.flatnonzero(np.isnan(column)) for column in q]
        counts = [cells.size for cells in missing]
        if sum(counts):
            values = kernel(np.concatenate([columns[c][2][cells]
                                            for c, cells in zip(block, missing)]),
                            np.repeat(block, counts))
            for column, cells, value in zip(q, missing, np.split(
                    values, np.cumsum(counts)[:-1])):
                column[cells] = value
        with _tables_lock:
            for c, table in zip(block, kept):
                _tables[keys[c]] = table
                _tables.move_to_end(keys[c])
            while sum(table.nbytes for table in _tables.values()) > _STORED_BYTES:
                _tables.popitem(last=False)
        yield block, q
        s = e


def _k_dust_grid(heights, frequencies, electrons, layer: DustLayerModel,
                 temperature: float, m: complex, units_modes,
                 ge_mode: str) -> np.ndarray:
    """k_dust in dB/km, a (units modes, electron counts, frequencies,
    heights) array at temperature T (K) and refractive index m.

    Every count column at one frequency shares that frequency's lattice, its
    slice covering the supports at every altitude, and the per-altitude
    weights on it; one Q_ext table per column serves every units mode. The
    columns are the (count, frequency) pairs; `_q_blocks` reuses what
    _tables keeps of each and runs the kernel on the rest. Each altitude's
    weights are summed against each (units mode, column).
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
    # per frequency: its lattice's node count, the slice of the lattice the
    # altitudes cover and the radii there; and each altitude's part of that
    # slice with its weights
    supports, weights = [], []
    for f in frequencies.tolist():
        lattice = _lattice(f, m)
        parts = list(_size_weights(lattice, mu, sigma, layer.n0))
        span = slice(min(part.start for part, _ in parts),
                     max(part.stop for part, _ in parts))
        supports.append((lattice[0].size, span, lattice[1][span]))
        weights.append([(slice(part.start - span.start, part.stop - span.start), w)
                        for part, w in parts])
    ne_column = np.repeat(electrons, frequencies.size)
    f_column = np.tile(frequencies, electrons.size)
    k_column = k.reshape(len(units_modes), f_column.size, len(heights))
    keys = [(f, ne, float(temperature), m, ge_mode)
            for f, ne in zip(f_column.tolist(), ne_column.tolist())]

    def kernel(radius, columns):
        return extinction_efficiency_array(radius, f_column[columns],
                                           ne_column[columns], temperature, m,
                                           mode=ge_mode)

    for columns, q in _q_blocks(keys, supports * electrons.size, kernel):
        for c, q_c in zip(columns, q):
            r_m = supports[c % frequencies.size][2]
            rows = [_per_particle(r_m, q_c, units_mode) for units_mode in units_modes]
            for i, (part, w) in enumerate(weights[c % frequencies.size]):
                k_column[:, c, i] = [_k_dust(w, row[part]) for row in rows]
    return k


def dust_attenuation_coefficient(h: float | np.ndarray, w: WaveSpec,
                                 layer: DustLayerModel,
                                 particle_template: ParticleState,
                                 units_mode: str = "physical",
                                 ge_mode: str = "full") -> float | np.ndarray:
    """Dust attenuation coefficient k_dust(h) in dB/km.

    Integrates the per-particle extinction against the size spectrum. The
    template particle supplies charge, temperature, and refractive index;
    its radius is ignored and swept by the integral, a trapezoid sum on the
    (f, m) lattice, a smooth map of a uniform one, over the support of the
    spectrum at h, with Gregory's end correction where that reaches the
    10 mm cap.

    h is one altitude (m), giving a float, or an array of them, giving an
    array of the same shape; the extinction kernel does not depend on
    altitude, so one table over the union of their supports serves them all,
    and each altitude weights its own slice of that lattice once.

    That table depends only on (f, Ne, T, m, ge_mode), never on h,
    units_mode or n0, so the process keeps the last keys' Q_ext, one array
    over the key's whole lattice each (256 KB in all, about 26 keys), and a
    later call with the same key computes only the nodes it lacks. The result is
    bit-identical either way. This pays when one process repeats a carrier and charge; a single
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
