"""Propagation-level quantities: dust attenuation coefficient, slant-path
dust loss, and the full path-loss model with shadow fading.
"""
from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import CONSTANTS
from .dustfield import (MAX_RADIUS_MM, MIN_RADIUS_MM, DustLayerModel, _fit,
                        _support, lognormal_params)
from .errors import ConfigError, DomainError
from .mie import (_MAX_RADIUS, _MIN_RADIUS, ParticleState, WaveSpec, _check_scale,
                  _electron_count, _linear_q, _normalize_m, _qext, _size_and_charge,
                  collision_frequency)

NP_PER_M_TO_DB_PER_KM = 4.343e3  # 10 log10(e) * 1000

# The size integral is a trapezoid sum on one lattice per refractive index
# m, in u = ln x: node i sits at v = i _V_STEP, mapped by
#   U(v) = v - (K1 - 1) w softplus((u1 - v) / w) + (K2 - 1) w softplus((v - u2) / w).
# Each node weighs phi U'(v), phi the log-normal's normal density at
# ln r = u + ln(c / (2 pi f)) (r in mm), so every frequency f takes a slice
# of the same nodes: those inside the kernel's radius domain [1e-6, 10] mm at
# f. A node's u and U' depend on its index alone, so each call computes them
# for its own slice. The step in u is K1 times _V_STEP below u1 = ln 0.5,
# where x < 0.5 (Rayleigh: Q_ext is a smooth power law), K2 times above
# u2 = ln(7 / Im(m)), where Im(m) x > 7 (absorption damps the Mie ripple like
# exp(-4 Im(m) x)), and _V_STEP between them. The trapezoid rule keeps its
# fast convergence under a smooth map (Trefethen & Weideman 2014, SIAM Rev.
# 56, 385), and a smooth map has no junction to correct.
# The 10 mm cap falls between two nodes, theta steps above the last one at
# or below it, at a different theta for each f. Each altitude's row of a
# frequency's slice has its own end weights, 1/2 inside the domain; where
# its support reaches the cap, the row ends there in one of two ways:
# - where the cap carries weight, the log-normal's z = (ln 10 - mu) / sigma
#   there below _WINDOW_SIGMAS, and absorption has not damped the Mie ripple
#   there, Im(m) x < 7 at the cap (below about 1.34 THz for 2-0.025j), a
#   smooth window: the nodes of the last _WINDOW_STEPS steps below the cap
#   weigh psi g(v), g = phi U' C_ext and
#   psi = erfc((v - v_cap + 7 steps) / (sqrt 2 steps)) / 2, which falls from 1
#   to 0 over them, and _WINDOW_NODES Gauss-Legendre nodes at the
#   frequency's own radii, which follow the slice's lattice nodes and weigh
#   1, integrate (1 - psi) g over those steps. psi g ends smoothly, so its
#   trapezoid sum needs no end correction, and the window's nodes follow the
#   ripple up to the cap, which lattice values alone, at about a radian of
#   its phase a step, cannot;
# - elsewhere, Gregory's end correction -h (grad g/12 + grad^2 g/24 +
#   19 grad^3 g/720) on the last four values of g closes the sum at the last
#   node, and a partial end panel, the integral over those theta steps of
#   the cubic through the same four values, carries it to the cap; no node
#   is evaluated there. At z = 6 (205 m) it is within 1e-9 of the reference
#   (0.1 THz, the worst; the window reads 3e-10 there).
# The 1 nm end is closed by the panel, mirrored. Against a converged
# reference (tests/test_channel.py), k_dust is within 1e-8 for 2-0.025j and
# 1.6+0.05j at 100-200 m from 0.1 to 3 THz, at any charge and in both units
# modes, and for 2-0.025j within 1e-8 at 300 m and 3e-8 at 600 m from 0.3
# to 3 THz and at 10 THz (README). The constants are the best of those
# tried on that grid. A weakly absorbing sphere's sharper Mie ripple misses
# by more: 9.0e-6 for 1.5+0.001j at 1 THz.
_V_STEP = 0.006
_SMALL_X, _SMALL_X_STEPS = 0.5, 6        # x1 and K1
_DAMPED_X, _DAMPED_STEPS = 7.0, 3        # x2 (of Im(m) x) and K2
_MAP_WIDTH = 0.4                         # w, in ln x
_LN_SMALL_X = math.log(_SMALL_X)
_LN_R_TOP = math.log(MAX_RADIUS_MM)
_LN_R_FLOOR = math.log(MIN_RADIUS_MM)
# ln of r in mm per unit of x f: r = x c / (2 pi f)
_LN_MM_PER_X_HZ = math.log(CONSTANTS.c * 1e3 / (2 * math.pi))
# Gregory's end weights (trapezoid plus correction), on the last four nodes
# of a sum that ends at the last node, lowest first
_CAP_WEIGHTS = np.array([739.0, 633.0, 897.0, 251.0]) / 720
# the partial end panel's weights on those four nodes, lowest first: the
# integrals over [0, theta] of the cubic's Lagrange basis at t = -3..0, as
# coefficients of theta, theta^2, theta^3 and theta^4. At theta = 1 they are
# the Adams-Bashforth weights (-9, 37, -59, 55) / 24
_PANEL = np.array([[0.0, -4.0, -4.0, -1.0], [0.0, 18.0, 16.0, 3.0],
                   [0.0, -36.0, -20.0, -3.0], [24.0, 22.0, 8.0, 1.0]]) / 24
# The cap window: psi's erfc spans +-7 steps (psi is 1 - 1.3e-12 where it
# starts), a 1-step width that leaves the trapezoid's aliasing of psi g
# below e^-19 of g at the cap
_WINDOW_SIGMAS = 6.0
_WINDOW_STEPS = 14
_WINDOW_NODES = 24


def _ln_x_map(v, u2: float):
    """U(v) and U'(v): u = ln x at lattice coordinate v (floats or arrays),
    with the damped band from u2 = ln(7 / Im(m)) up."""
    a, b = (_LN_SMALL_X - v) / _MAP_WIDTH, (v - u2) / _MAP_WIDTH
    u = (v - (_SMALL_X_STEPS - 1) * _MAP_WIDTH * np.logaddexp(0.0, a)
         + (_DAMPED_STEPS - 1) * _MAP_WIDTH * np.logaddexp(0.0, b))
    du = (1 + (_SMALL_X_STEPS - 1) / 2 * (1 + np.tanh(a / 2))
          + (_DAMPED_STEPS - 1) / 2 * (1 + np.tanh(b / 2)))
    return u, du


@functools.lru_cache(maxsize=64)
def _map_inverse(u: float, u2: float) -> float:
    """The v with U(v) = u: Newton's method, as U is smooth and increasing
    with U' >= 1. Kept for the last 64 (u, u2): a frequency's slice
    solves for both ends of its radius domain at every call."""
    v = u
    for _ in range(50):
        u_v, du = _ln_x_map(v, u2)
        shift = (u_v - u) / du
        v -= shift
        if abs(shift) < 1e-13:
            break
    return float(v)


def _damped_ln_x(m: complex) -> float:
    """u2 = ln(7 / Im(m)), where the damped band starts; inf at Im(m) = 0."""
    return math.log(_DAMPED_X) - math.log(m.imag) if m.imag else math.inf


def _cap_weights(theta: float) -> np.ndarray:
    """The end weights, lowest first, on the last four nodes of a sum that
    ends theta (in [0, 1]) steps past the last one: Gregory's to that node
    and the partial end panel beyond it. Reversed, they close a sum that
    starts theta steps below its first node."""
    return _CAP_WEIGHTS + _PANEL @ theta ** np.arange(1, 5)


def _erfc_half(t) -> np.ndarray:
    """erfc(t / sqrt 2) / 2 of each t: the window's psi at t steps past the
    middle of its fall."""
    return np.array([math.erfc(x / math.sqrt(2)) / 2 for x in np.ravel(t).tolist()])


@functools.cache
def _window_rule() -> tuple[np.ndarray, np.ndarray]:
    """The window's Gauss-Legendre nodes, in steps below the cap, and their
    weights in steps times 1 - psi."""
    nodes, weights = np.polynomial.legendre.leggauss(_WINDOW_NODES)
    t = _WINDOW_STEPS / 2 * nodes
    return _WINDOW_STEPS / 2 - t, _WINDOW_STEPS / 2 * weights * _erfc_half(-t)


class _Slice(NamedTuple):
    """One frequency's share of an index's lattice, at the altitudes of a
    call: the span of lattice nodes their supports cover, followed by the
    cap window's nodes where some altitude's row ends with the window."""

    nodes: slice            # the span, in lattice indices
    u: np.ndarray           # ln r (r in mm) over the span, then the window's nodes
    du: np.ndarray          # their steps in u; the window's times its weights and 1 - psi
    r_m: np.ndarray         # their radii in m
    parts: list             # each altitude's slice of those nodes
    ends: list              # each altitude's (first, last) end weights, floats
    tail: np.ndarray | None  # ln x of the window's nodes, or None without a window


def _frequency_slice(f: float, m: complex, mu, sigma) -> _Slice:
    """The slice of m's lattice that frequency f (Hz) takes for log-normals
    (mu, sigma), arrays of them. That domain's nodes run from the first at
    or above MIN_RADIUS_MM to the last at or below the cap; two Newton
    solves find them, and the ends' theta. Each altitude's row ends with
    weights 1/2, or at 1 nm with `_cap_weights`, mirrored, or at the cap
    with them or with psi and then ones over the window's nodes, which
    follow the span where some row ends with the window."""
    ln_scale = _LN_MM_PER_X_HZ - math.log(f)         # ln r - ln x, r in mm
    u2 = _damped_ln_x(m)
    v_floor = _map_inverse(_LN_R_FLOOR - ln_scale, u2) / _V_STEP
    v_top = _map_inverse(_LN_R_TOP - ln_scale, u2) / _V_STEP
    begin = math.floor(v_floor)
    u, du = _ln_x_map(_V_STEP * np.arange(begin, math.floor(v_top) + 2), u2)
    u += ln_scale
    lo = int(np.searchsorted(u, _LN_R_FLOOR))
    hi = int(np.searchsorted(u, _LN_R_TOP, "right"))
    span, parts = _node_slices(u[lo:hi], mu, sigma)
    nodes = slice(begin + lo + span.start, begin + lo + span.stop)
    domain = slice(lo + span.start, lo + span.stop)
    u, du = u[domain], _V_STEP * du[domain]
    half = [0.5]
    floor = cap = half
    windowed, tail = [False] * len(parts), None
    if span.start == 0:
        floor = _cap_weights(min(max(begin + lo - v_floor, 0.0), 1.0))[::-1].tolist()
    if span.stop == hi - lo:
        cap = _cap_weights(min(max(v_top - (nodes.stop - 1), 0.0), 1.0)).tolist()
        if _LN_R_TOP - ln_scale < u2:
            windowed = [part.stop == u.size and z < _WINDOW_SIGMAS
                        for part, z in zip(parts, ((_LN_R_TOP - mu) / sigma).tolist())]
    if any(windowed):
        steps, weights = _window_rule()
        tail, gl_du = _ln_x_map(_V_STEP * (v_top - steps), u2)
        inside = np.arange(math.floor(v_top - _WINDOW_STEPS) + 1, nodes.stop)
        psi = (_erfc_half(inside - v_top + _WINDOW_STEPS / 2).tolist()
               + [1.0] * _WINDOW_NODES)
        u = np.concatenate((u, tail + ln_scale))
        du = np.concatenate((du, _V_STEP * gl_du * weights))
    ends = []
    for h, part in enumerate(parts):
        if windowed[h]:
            parts[h], last = slice(part.start, u.size), psi
        else:
            last = cap if part.stop == span.stop - span.start else half
        ends.append((floor if part.start == 0 else half, last))
    return _Slice(nodes, u, du, np.exp(u) * 1e-3, parts, ends, tail)


# Sizes (lattice nodes x frequencies) of one kernel call when a table spans
# many frequencies: 27 frequencies of a 1,200-node support near 3 THz trace
# a 24 MB peak. A table holds one such block at a time, so 400 frequencies
# over 0.1-3 THz at 150 m trace 25 MB.
_TABLE_SIZES = 2**15
# What is kept from call to call. _tables maps each kernel key to what it
# holds over one run of lattice indices, (first index, array), every node of
# it computed, least recently used first. At Ne = 0, g_e is exactly 0 and
# Q_ext depends on x and m alone, so the uncharged key is (m,), which every
# frequency, temperature and g_e mode shares. Its array is of
# `mie._LINEAR` records, 40 B a node: Q_0 = Q_ext(g_e = 0) and the g_e-free
# fields S, B and K, with which Q_ext(g_e) = Q_0 + Re(S g_e) within
# 2 B |g_e|^2 wherever |g_e| K <= 1/2 (`mie._SeriesSum._linear`). A charged
# key is (m, f, Ne, T, g_e mode), on the same nodes, and holds Q_ext, 8 B a
# node. A size's Q_ext does not depend on the batch that computes it, so a
# kept value serves any later support.
# Keys are dropped, least recently used first, while the arrays hold more
# than _STORED_BYTES (256 KB). A block marks the uncharged key used after
# its charged keys, which all read its records, so that charged keys that
# fill the store drop older charged keys, not those records. For 2-0.025j
# the uncharged key over 0.1-10 THz takes at most 60 KB (1,504 nodes) and a
# charged key 8-11 KB (966-1,372 nodes), so 17-24 charged keys fit beside
# it; 60 charged keys over 0.1-0.3 THz at 150 m keep their last 30. A key
# larger than the budget is not kept (the store is emptied). The cap
# window's nodes, at each frequency's own radii, are not kept.
# Calls from several threads read and write it under _tables_lock, which is
# not held while the kernel runs; an array is replaced, never written.
_STORED_BYTES = 2**18
_tables: OrderedDict = OrderedDict()
_tables_lock = threading.Lock()
# A charged node takes Q_0 + Re(S g_e) from the uncharged key's records
# where |g_e| K <= 1/2 and 2 B |g_e|^2 < _LINEAR_EPS Q_0 (`_linear_q`), and
# the kernel's charged sum elsewhere. An admitted value is then within
# _LINEAR_EPS Q_0 of that sum, to the two sums' rounding (at most 1e-14 of
# Q_0, measured on 400 sizes to x = 2e4 at five indices). Q_0 > 0, and a
# row's weights are positive but at the end panels, where phi is below e^-32
# of its peak, so a charged k_dust is within _LINEAR_EPS k_dust(Ne = 0) of
# the sum with every node from the kernel, in both units modes. On the
# f-sweep to 10 THz at 150 m, 1e-13 admits 86.5 % of the charged nodes at
# Ne 1e3 and 61.8 % at 1e6, 1e-14 84.1 and 55.5 %, and 1e-15 81.1 and
# 48.5 %; each moves k_dust from that sum by at most 9.4e-15 of k_dust(Ne =
# 0), the rounding of x, which a charged key computes from its radii. So
# the largest of them is taken.
_LINEAR_EPS = 1e-13


# The slant-path rule: 8 Gauss-Legendre nodes (on [-1, 1]; leggauss(8),
# written out to keep numpy.polynomial out of the import) in panels of at
# most 100 m of altitude rise. Up to 3 THz and 640 m of rise it is within
# 1e-13 of a 1e-12-tolerance adaptive reference. 16 nodes in 200 m panels
# would double the k_dust sums of a short path for no gain.
_PANEL_RISE_M = 100.0
_GL_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                      -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                      0.7966664774136267, 0.9602898564975362])
# A mutant of a literal's last digits survives the tests by design: it moves
# a slant loss by rounding only, below what any test can tell from the
# reference's own error
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


def _size_weights(piece: _Slice, mu: np.ndarray, sigma: np.ndarray,
                  n0: float) -> np.ndarray:
    """The quadrature weights of each log-normal (mu, sigma), arrays of
    them, on a frequency's slice of the lattice, a row each: n0 phi(u) du,
    as in u = ln r the log-normal density is the normal density phi. A row
    weights only its part of the nodes, times its end weights at the part's
    two ends, one float at a time: most ends are a single 1/2, which costs
    as little as a halving that way. Formed in place in one pass over
    (rows x nodes), so that many altitudes hold one array."""
    w = piece.u - mu[:, None]
    w /= sigma[:, None]
    np.square(w, out=w)
    w *= -0.5
    np.exp(w, out=w)
    w *= (n0 / (math.sqrt(2 * math.pi) * sigma))[:, None]
    w *= piece.du
    for row, part, (first, last) in zip(w, piece.parts, piece.ends):
        for i, end in enumerate(first, part.start):
            row[i] *= end
        for i, end in enumerate(last, part.stop - len(last)):
            row[i] *= end
    return w


def _k_dust(weights: np.ndarray, kernel: np.ndarray) -> float:
    """k_dust in dB/km: an altitude's weights summed against the kernel at
    the same nodes."""
    return NP_PER_M_TO_DB_PER_KM * float((weights * kernel).sum())


def _check_units(units_mode: str) -> None:
    if units_mode not in ("physical", "paper"):
        raise ConfigError(f"unknown units mode {units_mode!r}")


def _stored_bytes() -> int:
    """The bytes the store's arrays hold."""
    return sum(q.nbytes for _, q in _tables.values())


def _keep(fresh: dict, base) -> None:
    """Keep `fresh`, a dict from kernel keys to their (first index, Q_ext),
    as the most recently used, and after them the uncharged key `base`,
    whose records every charged column reads. Then drop keys, least
    recently used first, while the store holds more than _STORED_BYTES."""
    with _tables_lock:
        for key, array in fresh.items():
            _tables.pop(key, None)
            _tables[key] = array
        if base in _tables:
            _tables.move_to_end(base)
        while _tables and _stored_bytes() > _STORED_BYTES:
            _tables.popitem(last=False)


def _joined(run, cells: np.ndarray, values: np.ndarray) -> tuple[int, np.ndarray]:
    """A key's kept (first index, array) run, or None, joined with its
    values at lattice indices cells, the one or two ends the run lacks."""
    begin = int(cells[0])
    if not run:
        return begin, values
    first, q = run
    begin = min(first, begin)
    return begin, np.concatenate((values[:first - begin], q, values[first - begin:]))


def _q_blocks(columns, uncharged, charged):
    """Yield (column, Q_ext on its span) for each of `columns`, an iterable
    of (column id, kernel key, the frequency's `_Slice`), all of one index.

    The columns go in blocks of at most _TABLE_SIZES span nodes (one column
    at least), and a block draws its columns once the one before is served,
    so a table of many frequencies holds one block at a time. A key of the
    block needs one range of lattice indices, from the first node of its
    columns' spans to the last: one span for a charged key, whose columns
    share a frequency, and for the uncharged key, key[:1] of any key, whose
    records serve the charged keys, the hull of every span of the block. A
    key whose kept run covers that range is read in place: no copy, store
    or kernel call. For every other key the block computes the one or two
    ends its kept run lacks (the whole range for a key not kept). The
    uncharged key's go first, in one uncharged(lattice indices) call, which
    gives `mie._LINEAR` records, and then the charged keys', in one
    charged([(key, lattice indices, the uncharged records there), ...])
    call. Then the block keeps each joined run (`_keep`), so every kept
    node is computed and a block that raises keeps nothing."""
    columns = iter(columns)
    column = next(columns, None)
    while column is not None:
        block, sizes = [], 0
        while column is not None:
            sizes += column[2].nodes.stop - column[2].nodes.start
            if block and sizes > _TABLE_SIZES:
                break
            block.append(column)
            column = next(columns, None)
        ranges = {}
        for _, key, piece in block:
            for k in (key[:1], key):
                lo, hi = ranges.get(k, (piece.nodes.start, piece.nodes.stop))
                ranges[k] = min(lo, piece.nodes.start), max(hi, piece.nodes.stop)
        base, *keys = ranges
        with _tables_lock:
            runs = {key: _tables.get(key) for key in ranges}
            for key in (*keys, base):
                if runs[key]:
                    _tables.move_to_end(key)
        todo = {}
        for key, (lo, hi) in ranges.items():
            first, q = runs[key] or (lo, ())
            end = first + len(q)
            if lo < first or end < hi:
                todo[key] = np.r_[min(lo, first):first, end:max(hi, end)]
        fresh = {}
        if base in todo:
            cells = todo.pop(base)
            fresh[base] = runs[base] = _joined(runs[base], cells, uncharged(cells))
        if todo:
            first, records = runs[base]
            values = charged([(key, cells, records[cells - first])
                              for key, cells in todo.items()])
            for (key, cells), value in zip(todo.items(), np.split(
                    values, np.cumsum([cells.size for cells in todo.values()])[:-1])):
                fresh[key] = runs[key] = _joined(runs[key], cells, value)
        if fresh:
            _keep(fresh, base)
        for drawn in block:
            (first, q), span = runs[drawn[1]], drawn[2].nodes
            q = q[span.start - first:span.stop - first]
            yield drawn, q["q"] if drawn[1] == base else q


@functools.lru_cache(maxsize=64)
def _check_uncharged(f: float, temperature: float, ge_mode: str) -> None:
    """The kernel's checks of frequency f (Hz), temperature and g_e mode at
    the ends of the radius domain, which raise as a kernel call would: the
    uncharged key, computed in x and shared by every (f, T, mode), skips
    them. Kept for the last 64 that pass, so that a table of many
    frequencies does not grow them past that."""
    _size_and_charge(np.array([_MIN_RADIUS, _MAX_RADIUS]), np.array(f), np.zeros(1),
                     temperature, ge_mode)


def _k_dust_grid(heights, frequencies, electrons, layer: DustLayerModel,
                 temperature: float, m: complex, units_modes,
                 ge_mode: str) -> np.ndarray:
    """k_dust in dB/km, a (units modes, electron counts, frequencies,
    heights) array at temperature T (K) and refractive index m.

    The columns are the (frequency, count) pairs, a frequency's counts in
    turn. Every column at one frequency takes that frequency's slice of m's
    lattice, its span covering the supports at every altitude, and the
    per-altitude weights on it; one Q_ext table per column serves every
    units mode. `_q_blocks` reuses what _tables keeps of each key and runs
    the kernel on the rest: `mie._qext` in x with g_e = 0 and its linear
    fields for the uncharged key, so a node holds one set of bits whichever
    frequency computed it; for a charged one, at the radii of the frequency
    with its g_e, only on the nodes that `_linear_q` rejects, the rest
    taking their linear value. A frequency's slice is found when a block
    takes its first column and its weights are formed when that block is
    summed, so a table of many frequencies holds one block's worth. Where
    the slice has cap window nodes, each column runs the kernel once more,
    on them, and appends their Q_ext to its table. Each altitude's weights
    are summed against each (units mode, column) over its part of the
    slice's nodes.
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
    for f in frequencies.tolist():             # every column reads the uncharged key
        _check_uncharged(f, float(temperature), ge_mode)
    mu, sigma = lognormal_params(heights)
    u2 = _damped_ln_x(m)

    def columns():
        for i, f in enumerate(frequencies.tolist()):
            piece = _frequency_slice(f, m, mu, sigma)
            for j, ne in enumerate(electrons.tolist()):
                key = (m, f, ne, float(temperature), ge_mode) if ne else (m,)
                yield i * electrons.size + j, key, piece

    def sizes(key, ln_x):
        """x and g_e of a key's sizes at ln x."""
        if len(key) == 1:
            x = np.exp(ln_x)
            _check_scale(x)
            return x, np.zeros(x.size, complex)
        _, f, ne, t, mode = key
        r_m = np.exp(ln_x + (_LN_MM_PER_X_HZ - math.log(f))) * 1e-3
        return _size_and_charge(r_m, np.asarray(f), np.asarray(ne), t, mode)

    def uncharged(cells):
        """The `mie._LINEAR` records of the uncharged key at lattice
        indices cells."""
        x, g_e = sizes((m,), _ln_x_map(_V_STEP * cells, u2)[0])
        return _qext(x, m, g_e, linear=True)

    def charged(todo):
        """The Q_ext of each (key, lattice indices, uncharged records there)
        of todo: the records' linear value where `_linear_q` admits a node,
        and one kernel call over the rest."""
        q, rejected, x, g_e = [], [], [], []
        for key, cells, fields in todo:
            x_f, g_f = sizes(key, _ln_x_map(_V_STEP * cells, u2)[0])
            admitted, q_f = _linear_q(fields, g_f, _LINEAR_EPS)
            q.append(q_f)
            rejected.append(~admitted)
            x.append(x_f[~admitted])
            g_e.append(g_f[~admitted])
        q, rejected = np.concatenate(q), np.concatenate(rejected)
        if rejected.any():
            q[rejected] = _qext(np.concatenate(x), m, np.concatenate(g_e))
        return q

    last = None
    for (c, key, piece), q in _q_blocks(columns(), uncharged, charged):
        if piece is not last:
            last, weights = piece, _size_weights(piece, mu, sigma, layer.n0)
        if piece.tail is not None:
            x, g_e = sizes(key, piece.tail)
            q = np.concatenate((q, _qext(x, m, g_e)))
        rows = [_per_particle(piece.r_m, q, units_mode) for units_mode in units_modes]
        i, j = divmod(c, electrons.size)
        k[:, j, i] = [[_k_dust(w[part], row[part]) for w, part in zip(weights, piece.parts)]
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
    its radius is ignored and swept by the integral, a trapezoid sum over
    the support of the spectrum at h on the index's lattice in ln x, a
    smooth map of a uniform one that every frequency shares. Where that
    support reaches 1 nm or the 10 mm cap, which fall between nodes, an end
    panel closes it; where the cap carries weight (from about 205 m) and
    absorption has not damped the Mie ripple there (below about 1.34 THz
    for 2-0.025j), a smooth window over its last 14 steps and 24
    Gauss-Legendre nodes at the frequency's own radii, which run the kernel
    once more per call.

    h is one altitude (m), giving a float, or an array of them, giving an
    array of the same shape; the extinction kernel does not depend on
    altitude, so one table over the union of their supports serves them all,
    and each altitude weights its own slice of that lattice once.

    That table depends only on (f, Ne, T, m, ge_mode), never on h,
    units_mode or n0, and at Ne = 0 only on m: g_e is exactly 0 there, so
    every frequency's uncharged nodes are one table. That table also holds
    the g_e-free fields that give a charged node's Q_ext linearly, within
    a proven bound, so a charged table runs the kernel only where the bound
    rejects that linear value (mostly the smallest sizes), and k_dust then
    lies within 1e-13 of the uncharged k_dust of the kernel's own sum. The
    process keeps, least recently used first, the last kernel keys' values
    over the lattice (256 KB in all: for 2-0.025j the uncharged key over
    0.1-10 THz and 17 or more charged keys), each one run of computed
    nodes. A later call computes only the ends its key's run lacks, and the
    nodes between when its support lies apart from the run; one that lacks
    none reads the kept run in place. The result is bit-identical either
    way. This pays when one process repeats a carrier and charge, or
    computes tables at many frequencies.

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
    charge the process has already seen, or an uncharged path at any
    carrier whose nodes it has seen, reuses that table, kept across calls
    as in `dust_attenuation_coefficient`, with bit-identical results. A
    path that reaches the altitudes where the cap carries weight (about
    205 m), at a carrier where it has a cap window, also runs the kernel on
    the window's nodes, which are not kept.
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
