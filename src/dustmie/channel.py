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
from .dustfield import (MAX_RADIUS_MM, MIN_RADIUS_MM, DustLayerModel, _fit,
                        _support, lognormal_params)
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


def _lattice(f: float, m: complex) -> np.ndarray:
    """The size lattice of frequency f (Hz) and index m as one (3, nodes)
    array: its nodes u = ln r (r in mm) from the first at or above
    MIN_RADIUS_MM up to the radius cap, their radii in m, and their
    trapezoid steps du = _V_STEP U'(v)."""
    ln_scale = _LN_MM_PER_X_HZ - math.log(f)
    u1 = math.log(_SMALL_X) + ln_scale
    u2 = math.log(_DAMPED_X) - math.log(m.imag) + ln_scale if m.imag else math.inf
    v_top = _map_inverse(_LN_R_TOP, u1, u2)
    count = math.floor((v_top - _map_inverse(_LN_R_FLOOR, u1, u2)) / _V_STEP) + 1
    u, du = _ln_r_map(v_top + _V_STEP * np.arange(-count, 1), u1, u2)
    keep = u >= _LN_R_FLOOR
    u, du = u[keep], du[keep] * _V_STEP
    u[-1] = _LN_R_TOP
    return np.stack((u, np.exp(u) * 1e-3, du))


# Sizes (lattice nodes x frequencies) of one kernel call when a table spans
# many frequencies: 27 frequencies of a 1,200-node support near 3 THz trace
# a 24 MB peak. A table holds one such block at a time, so 400 frequencies
# over 0.1-3 THz at 150 m trace 25 MB.
_TABLE_SIZES = 2**15
# What is kept from call to call, least recently used first: per (f, m), a
# tuple of its lattice and a dict from each kernel key (f, Ne, T, m, g_e
# mode) of that (f, m) to the key's Q_ext over the lattice, NaN where a node
# is not yet computed. A size's Q_ext does not depend on the batch that
# computes it, so a kept value serves any later support. Whole entries are
# dropped, the oldest first, while the arrays, each counted once, hold more
# than _STORED_BYTES (256 KB): for 2-0.025j (967-1,372 nodes at 0.1-10 THz)
# a lattice takes 23-33 KB and a key 8-11 KB, so one frequency's entry keeps
# 20-30 keys, and 7 frequencies of one key fit at 0.3 THz, 6 at 1 and 3 THz.
# An entry larger than the budget is not kept (the store is emptied): more
# than 30 keys at one (f, m) for 2-0.025j at 0.1 THz, 20 at 10 THz, and 17
# at 10 THz for 1.33.
# Calls from several threads read and write it under _tables_lock, which is
# not held while the kernel runs; an entry is replaced, never written.
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


def _node_slices(u: np.ndarray, mu, sigma) -> tuple[slice, list[slice]]:
    """For log-normals (mu, sigma), arrays of them, the span of the lattice
    nodes u their supports cover, and each one's slice of that span: the
    one rule for which nodes a support covers. At an 8-sigma end that falls
    between nodes, the sliver left out carries phi below e^-32 of its peak."""
    lo, hi = _support(mu, sigma)
    begin = np.searchsorted(u, np.log(lo)).tolist()
    end = np.searchsorted(u, np.log(hi), "right").tolist()
    span = slice(min(begin), max(end))
    return span, [slice(a - span.start, b - span.start) for a, b in zip(begin, end)]


def _size_weights(lattice, span: slice, parts: list, mu: np.ndarray,
                  sigma: np.ndarray, n0: float) -> np.ndarray:
    """The quadrature weights of each log-normal (mu, sigma), arrays of
    them, on the span of the lattice (u, r, du), a row each: n0 phi(u) du,
    with in u = ln r the log-normal density the normal density phi, formed
    in place in one pass over (rows x span), so that many altitudes hold one
    array. A row weights only its part of the span, its weights halved at
    the part's ends, or Gregory's at an end on the cap."""
    u, _, du = lattice
    w = u[span] - mu[:, None]
    w /= sigma[:, None]
    np.square(w, out=w)
    w *= -0.5
    np.exp(w, out=w)
    w *= (n0 / (math.sqrt(2 * math.pi) * sigma))[:, None]
    w *= du[span]
    at_cap = span.stop == u.size
    for row, part in zip(w, parts):
        row[part.start] /= 2
        if at_cap and part.stop == row.size:
            row[part.stop - 4:part.stop] *= _CAP_WEIGHTS
        else:
            row[part.stop - 1] /= 2
    return w


def _k_dust(weights: np.ndarray, kernel: np.ndarray) -> float:
    """k_dust in dB/km: an altitude's weights summed against the kernel at
    the same nodes."""
    return NP_PER_M_TO_DB_PER_KM * float((weights * kernel).sum())


def _check_units(units_mode: str) -> None:
    if units_mode not in ("physical", "paper"):
        raise ConfigError(f"unknown units mode {units_mode!r}")


def _entry_bytes(entry: tuple) -> int:
    """The bytes a kept (lattice, {key: Q_ext}) entry holds."""
    lattice, tables = entry
    return lattice.nbytes + sum(q.nbytes for q in tables.values())


def _q_blocks(columns, kernel):
    """Yield (column, Q_ext on its span) for each of `columns`, an iterable
    of (column id, kernel key, the key's kept Q_ext array or None, support),
    a support being the key's (f, m) lattice, the span of it the column
    takes and each altitude's part of that span.

    The columns go in blocks of at most _TABLE_SIZES span nodes (one column
    at least), and a block draws its columns once the one before is served,
    so a table of many frequencies holds one block at a time. A column whose
    span holds no NaN reads a view of the kept array: no copy, store or
    kernel call. Any other key copies its kept array (or starts from a NaN
    array), and the block computes the NaN cells of those spans, ragged
    across them, in one kernel(radii, column ids) call, a column id per
    radius. A key repeats only with its frequency, so on the same span, and
    a repeat takes the first one's array. Then the block replaces the
    (f, m) entry of each key it computed, so a block that raises keeps
    nothing, and drops whole entries, least recently used first, while the
    store holds more than _STORED_BYTES. The column that ends a block was
    drawn before that block stored its keys: a key the block computed takes
    the array it stored."""
    columns = iter(columns)
    column, fresh = next(columns, None), {}
    while column is not None:
        stored = {key: array for key, (_, array) in fresh.items()}
        block, q, fresh, todo, sizes = [], [], {}, [], 0
        while column is not None:
            c, key, kept, (lattice, span, _) = column
            kept = stored.get(key, kept)
            sizes += span.stop - span.start
            if block and sizes > _TABLE_SIZES:
                break
            block.append(column)
            if key in fresh:
                q.append(fresh[key][1][span])
            elif kept is not None and not np.isnan(kept[span]).any():
                q.append(kept[span])
            else:
                array = np.full(lattice.shape[1], np.nan) if kept is None else kept.copy()
                fresh[key] = lattice, array
                q.append(array[span])
                todo.append((c, lattice[1][span], q[-1], np.flatnonzero(np.isnan(q[-1]))))
            column = next(columns, None)
        counts = [cells.size for *_, cells in todo]
        if sum(counts):
            values = kernel(np.concatenate([r[cells] for _, r, _, cells in todo]),
                            np.repeat([c for c, *_ in todo], counts))
            for (*_, view, cells), value in zip(todo, np.split(
                    values, np.cumsum(counts)[:-1])):
                view[cells] = value
        if fresh:
            with _tables_lock:
                for key, (lattice, array) in fresh.items():
                    lattice, tables = _tables.pop((key[0], key[3]), (lattice, {}))
                    _tables[key[0], key[3]] = lattice, {**tables, key: array}
                stored = sum(map(_entry_bytes, _tables.values()))
                while stored > _STORED_BYTES:
                    stored -= _entry_bytes(_tables.popitem(last=False)[1])
        yield from zip(block, q)


def _k_dust_grid(heights, frequencies, electrons, layer: DustLayerModel,
                 temperature: float, m: complex, units_modes,
                 ge_mode: str) -> np.ndarray:
    """k_dust in dB/km, a (units modes, electron counts, frequencies,
    heights) array at temperature T (K) and refractive index m.

    The columns are the (frequency, count) pairs, a frequency's counts in
    turn. Every count column at one frequency shares that frequency's
    lattice (its kept entry's, else built), its span covering the supports
    at every altitude, and the per-altitude weights on it; one Q_ext table
    per column serves every units mode. `_q_blocks` reuses what _tables
    keeps of each column and runs the kernel on the rest. A frequency's span
    is found when a block takes its first column and its weights are formed
    when that block is summed, so a table of many frequencies holds one
    block's worth. Each altitude's weights are summed against each (units
    mode, column).
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

    def columns():
        for i, f in enumerate(frequencies.tolist()):
            with _tables_lock:
                entry = _tables[f, m] if (f, m) in _tables else None
                if entry:
                    _tables.move_to_end((f, m))
            lattice, kept = entry or (_lattice(f, m), {})
            support = (lattice, *_node_slices(lattice[0], mu, sigma))
            for j, ne in enumerate(electrons.tolist()):
                key = (f, ne, float(temperature), m, ge_mode)
                yield i * electrons.size + j, key, kept.get(key), support

    def kernel(radius, columns):
        return extinction_efficiency_array(radius, frequencies[columns // electrons.size],
                                           electrons[columns % electrons.size],
                                           temperature, m, mode=ge_mode)

    last = None
    for (c, _, _, support), q in _q_blocks(columns(), kernel):
        if support is not last:
            last, weights = support, _size_weights(*support, mu, sigma, layer.n0)
        lattice, span, parts = support
        rows = [_per_particle(lattice[1][span], q, units_mode)
                for units_mode in units_modes]
        i, j = divmod(c, electrons.size)
        k[:, j, i] = [[_k_dust(w[part], row[part]) for w, part in zip(weights, parts)]
                      for row in rows]
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
    units_mode or n0, so the process keeps, for each of the last (f, m) it
    saw, the lattice and each key's Q_ext over it (256 KB in all: 6 or 7
    frequencies of one key at 0.3-3 THz, or 20-30 keys at one frequency). A
    later call at a kept (f, m) builds no lattice and computes only the
    nodes its key lacks; one that lacks none reads the kept table in place.
    The result is bit-identical either way. This pays when one process
    repeats a carrier and charge; a single CLI run builds one table and
    gains nothing.

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
    # the fit at the path's top first: a rise past its overflow near 149 km
    # would cut the path into that many 100 m panels before it failed
    _fit(np.asarray(g.h0 + g.d * sin_theta))
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
    ratio = 4 * math.pi * w.frequency * g.d0 / CONSTANTS.c
    # a ratio below the float range reads 0: the budget is not finite
    fspl = 20 * math.log10(ratio) if ratio else -math.inf
    dist = 10 * g.n_i * math.log10(g.d / g.d0)
    if shadow_seed is None:
        chi = 0.0
    elif shadow_seed < 0:
        raise ConfigError(f"shadow seed must be non-negative, got {shadow_seed}")
    else:
        rng = np.random.default_rng(shadow_seed)
        chi = float(rng.normal(0.0, abs(g.sigma_i)))    # numpy rejects a -0 scale
    dust = slant_dust_loss(g, w, layer, particle_template, k_abs=k_abs,
                           units_mode=units_mode, ge_mode=ge_mode)
    total = fspl + dist + chi + dust
    if not math.isfinite(total):
        raise DomainError(f"link budget is not finite ({total} dB) at "
                          f"f={w.frequency:g} Hz, d={g.d:g} m, d0={g.d0:g} m, "
                          f"n_i={g.n_i:g}, sigma_i={g.sigma_i:g} dB")
    return PathLossResult(fspl, dist, chi, dust, total)
