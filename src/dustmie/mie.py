"""Extended Mie kernel for electrically charged spheres.

The charge enters through a complex coefficient g_e built from the surface
plasma frequency (set by the electron count and radius) and the thermal
collision frequency. With zero charge the scattering coefficients reduce to
the conventional Mie coefficients.

Sign convention for the relative refractive index: the series is evaluated
with Im(m) >= 0 (absorbing sphere, exp(-i omega t) time dependence). Inputs
with Im(m) < 0 are interpreted as the same absorbing medium written in the
opposite convention and are conjugated internally, so extinction stays
non-negative either way.

The series is evaluated in batches (Wiscombe 1980, "Improved Mie scattering
algorithms"; the BHMIE code of Bohren & Huffman 1983). Dividing the charged
coefficients through by psi_n(mx) leaves psi_n(mx) only in the logarithmic
derivative D_n(mx) = psi_n'(mx)/psi_n(mx). The recurrences run in
scaled-ratio form on s_n = z psi_{n-1}(z)/psi_n(z) = z D_n(z) + n, and on
t_n = x eta_{n-1}(x)/eta_n(x) for the Riccati-Bessel function eta_n = x y_n;
D_n = (s_n - n)/z is formed only when the series is summed. All three obey
f_n = z^2 / ((2n - 1) - f_{n-1}): one block loop steps t_n(x) upward for
every size, from n = 3 only up to its own order, and s_n takes one of two
routes, by x and m alone:

- Upward, for Re(m) >= 1 under Wiscombe's bound
  Im(m) x < 13.78 Re(m)^2 - 10.8 Re(m) + 3.9 (for 1.5+0.1j, x < 187),
  however small x is: the loop steps s_n(mx) and s_n(x) too, after s_1 and
  s_2 from a series where 1/z - cot z would cancel; at x = 791 and
  2-0.025j, 829 steps where the downward seed starts at order 1,758.
- Downward, for Im(m) x beyond the bound and for Re(m) < 1:
  s_{n-1} = (2n - 1) - z^2 / s_n from where the contraction of its steps
  has erased the seed, and no higher than Wiscombe's start, without
  overflow however strongly the sphere absorbs. These reach order 1 last,
  so a pass stores them ragged and order-major for the loop to take. Where
  at most a few runs of equal sizes (an x-sweep's Ne columns) start far
  above the rest, each run steps those orders first in scalars, with the
  same bits: s_n(x), and s_n(mx) for a real m, in Python floats.

On grids of 3,000 x up to 2e3 with g_e = 0, 1e-3j, 1j and -5+50j, the two
routes agree within 6e-14 at 2-0.025j, 3+0.001j and 1.5+0.01j, and 2.3e-13
at 1.33 (x up to 2e4). Below x = 1 they agree within 5e-14 at seven indices
from 1.33 to 1.2+10j, and 3.4e-11 at 1.0001, whose Q_ext cancels in both;
below x = 1e-3 within 3e-15 but at 1.0001. The charged sums keep their
digits at small x: within 1e-14 of the mpmath oracle from x = 1 down to
1e-20. Upward steps drift for Re(m) < 1 (5e-2 at 0.8), so those sizes go
downward.

The upward sizes of a batch, then the rest, each in descending order of x,
run in lockstep, one numpy vector a step over the sizes still running, until
at most a few distinct x are left; those step on in scalars, with the same
bits. The series are summed in order blocks: dense (orders, sizes) arrays of
the sizes running at a block's first order, which carry the real ratio
rho_n = eta_n(x) / psi_n(x) and each partial sum on to the next.
"""
from __future__ import annotations

import bisect
import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError, RecurrenceOverflowError, SingularDenominatorError

_MIN_RADIUS = 1e-9      # m; the radius domain of a sphere and of the size
_MAX_RADIUS = 1e-2      # integral (`dustfield._support`)
_DENOM_FLOOR = 1e-300
_TINY = np.finfo(float).tiny            # the smallest normal float
_HUGE = 2.0**1022                       # 1 / _TINY
# Largest size parameter taken: up to here the series summed to
# `truncation_order` is pinned within 1e-8 of a longer sum (see
# tests/test_mie.py::TestTruncation), and a downward store stays near 1 MB.
_MAX_X = 2e4
# Ragged terms (orders x sizes) of one downward pass: its store of s_n(mx)
# and s_n(x) takes 1 MB at 32 B a term (the upward route stores nothing).
_PASS_TERMS = 2**15
# Dense orders x sizes of one order block of the series sum: its work arrays,
# 105 B a term (`_SeriesSum.ROLES`), stay near 0.75 MB, while a block of
# large spheres still spans many orders.
_CHUNK_TERMS = 7168
# Widest order block whose rho_n `_SeriesSum.add` accumulates with
# np.cumprod, which numpy runs one column at a time, at about 3 ns a cell; a
# wider one steps it row by row, about 0.5 us a row, with the same products
# and bits (2-core host, numpy 2.4)
_ROW_STEPPED = 160
# A downward step multiplies the seed's error by about
# exp(-2 Re arccosh((n - 1/2)/z)). A size starts where e^-45 (3e-20, below
# an ulp) of the seed's error is left when the steps reach its top stored
# order, plus 8 orders for where that asymptotic rate runs ahead of the true
# one (see `_start_orders`). Chosen on the grids of
# tests/test_specfun.py::TestStartOrders (12 indices from 1 to 1.2+10j,
# x from 1e-3 to 1e3), where every stored s_n must equal, bit for bit, its
# value from Wiscombe's start: 40 and 8, or 45 and 4, still pass there, while
# 36 and 8, or 45 and 0, do not.
_SEED_DECAY = 45.0
_SEED_MARGIN = 8
# Highest order a downward recurrence may start from. The start grows with
# |m x|: 1.7e5 orders for 2+1e4j at x = 60, 1.7e7 for 2+1e6j, 6e11 (a
# multi-TB run) for 2+1e10j, and past 2^63 it would wrap. Tabulated dust
# indices and the benchmark's ops start below 3e4.
_MAX_START = 2**20
# Lanes (runs of equal x) at or below which `_series` steps each in scalars,
# and the orders a lane must have left for that. Measured in place on a
# 2-core host with numpy 2.4: a step of the block loop's vector costs about
# 2.1 us upward (four ufunc calls) and 1.0 us downward (two) at any width,
# and a lane 0.5 us an order upward (0.13 us downward), plus about 11 us to
# start it and write it into its blocks. Without the order floor the last
# few sizes of a k_dust table, one or two orders a lane, cost its kernel
# about 3 %.
_SCALAR_LANES = 4
_LANE_ORDERS = 4
# Orders above the next row's start that the lanes of `_scaled_ratio`'s
# head must run for it to step them in scalars. Measured in place on a
# 2-core host with numpy 2.4: a downward step of the array loop costs about
# 0.85 us at any width, a lane's step about 0.1 us (Python floats for x, numpy
# complex128 scalars for a complex m x), and a lane about 13 us to start
# and store. On batches of 12 sizes at 1.5+1j, four distinct x heading
# them, a head of 53 orders cost 23 us, one of 101 cost 3 us and one of
# 113 saved 5 us; the benchmark's absorbing f-sweeps, whose heads would run
# 29 to 102 orders, take none, and its x-sweeps' heads run all 777 to 927.
_HEAD_ORDERS = 128


@dataclass(frozen=True)
class ParticleState:
    """A single dust sphere: size, charge, temperature, and optical contrast."""

    radius: float                       # m
    electrons: int = 0
    temperature: float = 300.0          # K
    refractive_index: complex = 2.0 - 0.025j

    def __post_init__(self):
        if not (_MIN_RADIUS <= self.radius <= _MAX_RADIUS):
            raise DomainError(
                f"radius {self.radius} m outside [{_MIN_RADIUS}, {_MAX_RADIUS}]"
            )
        _electron_count(self.electrons)
        if not 0 < self.temperature < math.inf:
            raise DomainError("temperature must be positive and finite")
        _normalize_m(self.refractive_index)


@dataclass(frozen=True)
class WaveSpec:
    """Probing wave, given by its frequency."""

    frequency: float    # Hz

    def __post_init__(self):
        if not 0 < self.frequency < math.inf:
            raise DomainError(
                f"frequency must be positive and finite, got {self.frequency}")

    @property
    def wavelength(self) -> float:
        return CONSTANTS.c / self.frequency     # m

    @classmethod
    def from_frequency(cls, f: float) -> "WaveSpec":
        return cls(f)


def scale_parameter(radius, wavelength):
    """Size parameter x = 2 pi r / lambda (scalars or arrays)."""
    if np.any(np.less_equal(radius, 0)) or np.any(np.less_equal(wavelength, 0)):
        raise DomainError("radius and wavelength must be positive")
    return 2 * math.pi * radius / wavelength


def _electron_count(electrons) -> np.ndarray:
    """Electron counts as a float array, checked non-negative and finite."""
    try:
        ne = np.asarray(electrons, dtype=float)
    except OverflowError as exc:
        raise DomainError("electron count exceeds the float range") from exc
    if not ((ne >= 0) & (ne < math.inf)).all():
        raise DomainError("electron count must be non-negative and finite")
    return ne


def surface_potential(electrons, radius):
    """Electrostatic potential (V) at the surface of a charged sphere."""
    if np.any(np.less_equal(radius, 0)):
        raise DomainError("radius must be positive")
    return _potential(_electron_count(electrons), radius)


def _potential(electrons, radius):
    """`surface_potential` of checked electron counts and radii."""
    return CONSTANTS.k_e * electrons * CONSTANTS.e / radius


def surface_plasma_frequency(electrons, radius):
    """Surface plasma frequency (rad/s) of the charged sphere; 0 when neutral."""
    return _plasma_frequency(surface_potential(electrons, radius), radius)


def _plasma_frequency(phi, radius):
    """The surface plasma frequency of spheres at surface potential phi (V)."""
    return np.sqrt(2 * CONSTANTS.e * phi / (CONSTANTS.m_e * (radius * radius)))


def collision_frequency(temperature: float) -> float:
    """Thermal collision frequency (rad/s), 2 pi k_B T / h_P."""
    if not 0 < temperature < math.inf:
        raise DomainError(f"temperature must be positive and finite, got {temperature}")
    gamma_s = 2 * math.pi * CONSTANTS.k_B * temperature / CONSTANTS.h_P
    if gamma_s == math.inf:
        raise DomainError(f"temperature {temperature:g} K: collision frequency overflows")
    return gamma_s


def charged_coefficient(x, omega, omega_s, gamma_s, mode: str = "full"):
    """Charge correction g_e (scalars or arrays).

    mode="full" keeps both the real and imaginary parts; mode="approx" drops
    the real part, valid when the collision frequency dominates the wave
    frequency: |g_approx - g_full| / |g_full| = omega / gamma_s exactly, at
    300 K 0.25 % at 0.1 THz, 2.5 % at 1 THz, 7.6 % at 3 THz, 25.5 % at 10 THz.
    """
    if (np.any(np.less_equal(x, 0)) or np.any(np.less_equal(omega, 0))
            or gamma_s <= 0):
        raise DomainError("x, omega, gamma_s must be positive")
    return _charge(x, omega, omega_s, gamma_s, mode)


def _charge(x, omega, omega_s, gamma_s, mode: str):
    """`charged_coefficient` of positive x, omega and gamma_s."""
    # squares as products: numpy raises a 0-d result (one sphere) to a power
    # with the C library's pow, which can differ in the last bit from the
    # array square a batch takes
    if mode == "full":
        # at any charge (0 x inf is nan) gamma_s / omega must be finite
        with np.errstate(over="ignore"):
            ratio = gamma_s / omega
        if np.isinf(ratio).any():
            raise DomainError(f"collision frequency {gamma_s:g} rad/s over wave "
                              f"frequency {np.min(omega):g} rad/s overflows")
        return ((x / 2) * (omega_s * omega_s) / (omega * omega + gamma_s * gamma_s)
                * (-1 + 1j * ratio))
    if mode == "approx":
        return 1j * x * (omega_s * omega_s) / (2 * gamma_s * omega)
    raise DomainError(f"unknown g_e mode {mode!r}")


def _check_scale(x) -> None:
    """Rejects a size parameter outside the series' domain, 0 < x <= _MAX_X."""
    x = np.asarray(x)
    if not (x > 0).all():
        raise DomainError("scale parameter must be positive")
    if not (x <= _MAX_X).all():
        raise DomainError(f"scale parameter up to {x.max():g} above the "
                          f"series' domain (x <= {_MAX_X:g})")


def truncation_order(x):
    """Series cutoff floor(x + 4 x^(1/3) + 2) (Wiscombe 1980), at least 2,
    for 0 < x <= _MAX_X (an int, or an int array for an array of x)."""
    _check_scale(x)
    n = _orders(x)
    return n if n.ndim else int(n)


def _orders(x):
    """`truncation_order` of x in the series' domain, as an int array: a
    sum of 2 and two terms that are not negative is 2 or more."""
    return np.floor(x + 4 * x ** (1 / 3) + 2).astype(int)


def _normalize_m(m: complex) -> complex:
    m = complex(m)
    if not (cmath.isfinite(m) and m.real > 0):
        raise DomainError(f"refractive index must be finite with Re(m) > 0, got {m}")
    return complex(m.real, abs(m.imag))


def _order_counts(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Layout of an order-major ragged array over sizes whose rows are in
    descending order: order n = 1..rows[0] holds the counts[n - 1] sizes
    that reach it (a prefix of the batch), from offsets[n - 1]."""
    counts = _reaching(rows)[1:]
    return counts, np.cumsum(counts) - counts


def _reaching(orders: np.ndarray) -> np.ndarray:
    """For n = 0..max(orders), how many of the orders are n or more."""
    return np.bincount(orders)[::-1].cumsum()[::-1]


def _blocks(counts: list[int]):
    """Order blocks [k, end) over orders 1..len(counts), counts[n - 1] sizes
    running at order n. A block is as wide as the count at its first order
    and holds at most _CHUNK_TERMS terms (one order at least). It ends early
    where fewer than half its sizes still run, once it holds a quarter of
    _CHUNK_TERMS: a block costs about 70 numpy calls, whatever its size."""
    k, top = 1, len(counts)
    while k <= top:
        w = counts[k - 1]
        halved = bisect.bisect_left(counts, -((w - 1) // 2), key=operator.neg) + 1
        end = min(top + 1, k + max(1, _CHUNK_TERMS // w),
                  max(halved, k - (-_CHUNK_TERMS // (4 * w))))
        yield k, end
        k = end


class _Scratch:
    """Work arrays that the order blocks of a call share by role, carved
    from one block. A fresh array's pages fault on first touch, at about
    the cost of a numpy pass over them: with one block per call, three
    passes over the kdust-fscan pool's 108 ops in one process make about
    740 minor page faults, fewer than the imports make (about 980); an
    array per role made 50 to 90 thousand in three runs of that pool.

    An array's shape ends in a grid of orders x sizes; each role holds
    roles[role] bytes per grid cell (its largest use). The block is made
    when first asked for, and made again only where a call asks for more
    cells (`grow`), so a kernel call's block fits its largest order block."""

    def __init__(self, roles: dict[str, int]):
        self._roles = roles
        self._cells, self._block = 0, None

    def grow(self, cells: int) -> None:
        """Makes the block hold at least `cells` cells a role."""
        if cells <= self._cells:
            return
        self._block = None                     # freed before its successor
        self._block = np.empty(sum(self._roles.values()) * cells, np.uint8)
        self._cells = cells
        sizes = [size * cells for size in self._roles.values()]
        self._start = dict(zip(self._roles, itertools.accumulate(sizes, initial=0)))

    def __call__(self, role: str, shape: tuple, dtype=float) -> np.ndarray:
        """An uninitialised array for this role, over the same memory as
        the role's earlier arrays unless the block had to grow."""
        self.grow(shape[-2] * shape[-1])
        return np.ndarray(shape, dtype, self._block, self._start[role])


def _start_orders(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Order at which each row of z, a (k, w) array, starts the downward
    recurrence of `_scaled_ratio` to reach orders 1..rows[i], with rows and
    |z| in descending order.

    Wiscombe's (1980) start, M + 16 + 4 sqrt(M) for M = max(rows, |z|),
    serves weak absorption. A step above n = rows multiplies the seed's
    error by at most exp(-rate), rate = 2 Re arccosh((rows + 1/2)/z), since
    Re arccosh((n + 1/2)/z) never falls as n grows; so the seed is gone
    _SEED_DECAY / rate steps above rows, for the slower of the row's w
    values. A row starts at the lower of the two (Wiscombe's where the rate
    is 0), raised to the starts of the rows after it, so that the rows
    running at an order stay a prefix of the batch. A start above
    _MAX_START raises DomainError before any order is allocated."""
    # numpy reduces a (k, w) array along its short axis slowly, so the
    # largest and smallest over a row are taken column by column
    cols = z.T
    wiscombe = np.maximum(rows, functools.reduce(np.maximum, np.abs(cols)))
    wiscombe = np.ceil(wiscombe + 16 + 4 * np.sqrt(wiscombe))
    w = (rows + 0.5) / cols
    # Re arccosh(w) = arccosh((|w + 1| + |w - 1|) / 2); the sum is 2 or more
    # but for rounding
    sums = functools.reduce(np.minimum, np.abs(w + 1) + np.abs(w - 1))
    rate = 2 * np.arccosh(np.maximum(sums / 2, 1))
    steps = np.divide(_SEED_DECAY, rate, out=np.full(rate.shape, np.inf),
                      where=rate > 0)
    start = np.minimum(wiscombe, rows + 1 + np.ceil(steps) + _SEED_MARGIN)
    start = np.maximum.accumulate(start[::-1])[::-1]
    if not start[0] <= _MAX_START:             # a nan start too
        raise DomainError(f"the downward recurrence would start at order "
                          f"{start[0]:.3g}, above {_MAX_START}")
    return start.astype(int)


def _scaled_ratio(z: np.ndarray, rows: np.ndarray,
                  layout: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """s_n(z) = z psi_{n-1}(z) / psi_n(z) = z D_n(z) + n for each row of z,
    a (k, w) array, at orders n = 1..rows[i], with rows and |z| in
    descending order; D_n = psi_n' / psi_n is the log-derivative.

    One downward recurrence, s_{n-1} = (2n - 1) - z^2 / s_n, runs over the
    batch in lockstep. Row i starts from D = 0 at `_start_orders`, where
    that seed is forgotten; the rows running at an order are a prefix of
    the batch, and the w values of a row take the same steps. The result is
    ragged and order-major, (sum(rows), w), laid out as `_order_counts(rows)`,
    which layout gives if the caller has it.

    Above the order `_scalar_head` gives, where at most _SCALAR_LANES runs
    of equal rows (lanes) run, each lane steps each of its w values in
    scalars (`_downward_steps`), with the same bits, writes its stored
    orders in one assignment and hands its last values to the loop."""
    k, w = z.shape
    start = _start_orders(z, rows)
    running = (_reaching(start) * w).tolist()
    counts, offsets = _order_counts(rows) if layout is None else layout
    stored, cells = (counts * w).tolist(), (offsets * w).tolist()
    z2 = (z * z).ravel()
    s = np.repeat(start, w).astype(complex)    # s_start = start: D_start = 0
    t = np.empty(k * w, complex)
    sn = np.empty(sum(stored), complex)
    first, ends = _scalar_head(z, rows, start)
    if ends:
        high = int(start[0])
        odds = np.arange(2 * high - 1, 2 * first, -2.0).tolist()
        values = sn.reshape(-1, w)
        for a, b in zip([0, *ends[:-1]], ends):
            begin, r = int(start[a]), int(rows[a])
            # s_n of each of the lane's w values, n = begin - 1 down to first
            steps = np.empty((begin - first, w), complex)
            for j in range(w):
                steps[:, j] = _downward_steps(z2[a * w + j], begin, odds[high - begin:])
            s.reshape(-1, w)[a:b] = steps[-1]  # s_first, where the loop goes on
            if r >= first:                     # orders first..r of sizes a..b
                at = np.add.outer(offsets[first - 1:r], np.arange(a, b))
                values[at] = steps[begin - 1 - r:begin - first][::-1, None]
    # 2 order - 1 as 0-d arrays, which a ufunc takes faster than an int or a
    # numpy scalar
    odd = np.nditer(np.arange(2 * first - 1, 2, -2, dtype=complex), ["zerosize_ok"])
    p, top = 0, len(stored)
    for order, c in zip(range(first, 1, -1), odd):
        if running[order] != p:                # views of the rows now running
            p = running[order]
            z2p, sp, tp = z2[:p], s[:p], t[:p]
        np.divide(z2p, sp, tp)
        np.subtract(c, tp, sp)                 # s_{order-1}
        if order <= top + 1:
            st, o = stored[order - 2], cells[order - 2]
            sn[o:o + st] = s[:st]
    return sn.reshape(-1, w)


def _scalar_head(z: np.ndarray, rows: np.ndarray, start: np.ndarray
                 ) -> tuple[int, list[int]]:
    """Where `_scaled_ratio` steps in scalars: the first order its loop
    steps, and the ends of the lanes above it, runs of equal rows of z and
    rows (which start together), at most _SCALAR_LANES of them, where these
    run at least _HEAD_ORDERS orders above the next row's start; otherwise
    (start[0], []). Before it looks for lanes, the first starts bound those
    orders: the row after the lanes starts no lower than the
    (_SCALAR_LANES + 1)-th highest start."""
    k, lanes = len(start), _SCALAR_LANES
    firsts = start[:4 * lanes + 1].tolist()
    top, distinct = firsts[0], sorted(set(firsts), reverse=True)
    if len(distinct) > lanes and top - distinct[lanes] < _HEAD_ORDERS:
        return top, []
    # the first lanes are mostly short: single sizes, or a table's columns
    head = [(*zi, ri) for zi, ri in zip(z[:len(firsts)].tolist(),
                                        rows[:len(firsts)].tolist())]
    ends = [i for i in range(1, len(head)) if head[i] != head[i - 1]]
    if len(ends) < lanes and len(head) < k:
        ends = (np.flatnonzero((z[1:] != z[:-1]).any(axis=1)
                               | (rows[1:] != rows[:-1])) + 1).tolist()
    first = start[ends[lanes - 1]] if len(ends) >= lanes else 1
    if top - first < _HEAD_ORDERS:
        return top, []
    # lanes that start at `first` take no scalar steps
    ends = [e for a, e in zip([0, *ends], [*ends, k][:lanes]) if start[a] > first]
    return int(first), ends


def _downward_steps(z2: np.complex128, s: float, odd: list[float]) -> np.ndarray:
    """s_{n-1} = (2n - 1) - z2 / s_n for the 2n - 1 in odd, from s_n = s at
    the first, in scalars with the bits of `_scaled_ratio`'s complex array
    loop. The square z2 = x2 + 0j of a real z (0 <= x2 < inf, and x2 is
    never -0) steps in Python floats as (2n - 1) - x2 (1 / s_n): where
    1 / s_n is a finite normal value, numpy divides (x2 + 0j) / (s_n + 0j)
    as x2 (1 / s_n) + (+-0)j, and the subtract makes the imaginary part +0.
    Should any s_n it divides by lie outside [_TINY, _HUGE] (as 0,
    subnormals, inf and nan do), or z2 be another value, the steps are
    numpy complex128 scalars, whose subtract and divide give the array
    loop's bits."""
    x2 = float(z2.real)
    if (not z2.imag and math.copysign(1.0, x2) > 0 and x2 < math.inf
            and _TINY <= abs(s) <= _HUGE):
        f = float(s)
        try:
            steps = np.fromiter((f := o - x2 * (1.0 / f) for o in odd), float,
                                len(odd))
            size = np.abs(steps[:-1])          # the divisors after s
            if not size.size or _TINY <= size.min() and size.max() <= _HUGE:
                return steps
        except ZeroDivisionError:
            pass
    f = np.complex128(s)
    return np.fromiter((f := o - z2 / f for o in odd), complex, len(odd))


def _steps_upward(x: np.ndarray, m: complex) -> np.ndarray:
    """Which sizes step s_n upward (`_series` without a store): Re(m) >= 1
    and Wiscombe's (1980) bound for stepping D_n(mx) upward, Im(m) x <
    13.78 Re(m)^2 - 10.8 Re(m) + 3.9, at any x: below x = 1 the orders that
    upward steps lose carry terms of order x^(2n+1), which the sum never feels."""
    # squares as products: a float power raises where a product gives inf
    bound = 13.78 * m.real * m.real - 10.8 * m.real + 3.9
    return (m.real >= 1) & (m.imag * x < bound)


# c_1..c_16 of S(z) = sum_k c_k z^(2k), c_k = 3 2^(2k+2) |B_(2k+2)| / (2k+2)!
# (Bernoulli numbers; c_0 = 1), the series of 3 / s_1(z), which converges for
# |z| < pi; below |z| = 0.6 its 17 terms are exact to rounding
_S1_SERIES = (0.06666666666666667, 0.006349206349206349, 0.0006349206349206349,
              6.41333974667308e-05, 6.493212842419191e-06, 6.577784355562133e-07,
              6.664382636993903e-08, 6.7523539550426975e-09, 6.841545361377655e-10,
              6.931929779700787e-11, 7.0235120459474655e-12, 7.116305220070096e-13,
              7.210324599992312e-14, 7.30558620875501e-15, 7.402106413551622e-16,
              7.499901831366242e-17)
# For k = 2..15, the largest |z|^2 at which c_1..c_k give every bit of T:
# the first term left out, c_(k+1) z^(2k), whose imaginary part is at most
# k c_(k+1) |z|^(2k - 2) Im(z^2), lies below 2^-106 of T's imaginary part,
# about c_2 Im(z^2), and so of its real part, about c_1 (each term after it
# is under 0.04 times the one before). A sum moves by that little only if it
# falls within 2^-53 of an ulp of a rounding boundary; none did on the grids
# of tests/test_mie.py::TestSeeds
_S1_LIMITS = [(2**-106 * _S1_SERIES[1] / (k * c)) ** (1 / (k - 1))
              for k, c in enumerate(_S1_SERIES[2:], 2)]


def _first_ratio(*zs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """s_1(z) = z psi_0(z) / psi_1(z) and s_2(z), which start the upward
    recurrence at n = 3, for each array z of zs, in descending order of |z|.
    From |z| = 0.6 up, s_1 = z / (1/z - cot z), which stays finite where
    sin z would overflow, and s_2 = z^2 / (3 - s_1). Below it 1/z - cot z
    cancels to about z/3, losing some 3/|z|^2 ulps, and 3 - s_1 to about
    z^2/5, so both come from S = 1 + z^2 T (`_S1_SERIES`): s_1 = 3 / S and
    s_2 = S / (3 T).

    T is one Horner sum over the series sizes of all the arrays, from the
    last term that their largest |z| can move (`_S1_LIMITS`): from c_7 at
    |z| = 0.005, from c_16 at 0.6. A real z joins complex ones as complex
    numbers whose imaginary parts stay 0, so that each product and sum
    gives its real part the bits of the real one, and divides as a real."""
    pairs, series = [], []
    for z in zs:
        s1, s2 = np.empty((2, z.size), z.dtype)
        size = np.abs(z)
        k = np.count_nonzero(size >= 0.6)      # the first k sizes
        if k:
            big = z[:k]
            np.divide(big, 1 / big - 1 / np.tan(big), out=s1[:k])
            np.divide(big * big, 3 - s1[:k], out=s2[:k])
        pairs.append((s1, s2))
        series.append((z[k:], s1[k:], s2[k:], size[k] if k < z.size else 0.0))
    if any(z.size for z, *_ in series):
        largest = max(top for *_, top in series)
        terms = _S1_SERIES[:2 + bisect.bisect_left(_S1_LIMITS, largest * largest)]
        z = np.concatenate([z for z, *_ in series])
        z2 = z * z
        t = z2 * terms[-1]
        for c in terms[-2:0:-1]:
            t += c
            t *= z2
        t += terms[0]
        s = z2 * t
        s += 1
        start = 0
        for z, s1, s2, _ in series:
            part = slice(start, start + z.size)
            start = part.stop
            sp, tp = (s[part], t[part]) if z.dtype == s.dtype else (s[part].real,
                                                                    t[part].real)
            np.divide(3, sp, out=s1)
            np.divide(sp, 3 * tp, out=s2)
    return pairs


class _SeriesSum:
    """The sums x^2 Q_ext / 2 = sum (2n + 1) Re(a_n + b_n) of sizes in
    descending order of x, each over its rows orders in order of n, block by
    block (see `_blocks`): rho_{n-1} = eta_{n-1}(x) / psi_{n-1}(x) and the
    partial sums carry over, so a size's Q_ext depends on neither its batch
    nor its blocks."""

    # The scratch roles of `add`, in bytes per (order, size) cell
    ROLES = {"m_d": 32, "coef": 32, "pair": 16, "s_t": 16, "rho": 8, "unused": 1}

    def __init__(self, x: np.ndarray, m: complex, g_e: np.ndarray,
                 rows: np.ndarray, scratch: _Scratch | None = None,
                 trig: tuple | None = None):
        self.x, self.rows = x, rows
        self.m, self.m2 = m, m * m
        self.g_x, self.g_over_x = g_e * x, g_e / x
        self.trig = trig                       # (sin x, cos x), if known
        self.scratch = scratch or _Scratch(self.ROLES)
        self.order = 1                         # of the next block's first row
        self.rho = None                        # the last block's rho rows
        # +0 + t is t for every t but -0, so each sum starts at its first
        # term, and a sum of zeros (an index-matched sphere's) is +0, the
        # masked cells of any batch adding exactly nothing to it (np.zeros
        # raised the kdust-fscan benchmark's peak RSS by about 0.2 MB)
        self.total = np.full(x.size, 0.0)
        # what every block slices: n + i n, and n and 2n + 1, for n = 1..rows[0]
        self.n = np.arange(1.0, rows[0] + 1)[:, None]
        self.n_n = self.n * (1 + 1j)
        self.odd = np.arange(3.0, 2 * rows[0] + 2, 2)[:, None]

    def add(self, s_t: np.ndarray, m_d: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
        """Sums the next block, s_t = s_n(x) + i t_n(x) (eta_1(x) at n = 1)
        and m_d = s_n(mx) over its orders and sizes, which it overwrites, and
        returns their charged (a_n, b_n), under the caller's np.errstate
        (an overflow fails in `_qext`). With xi_n = psi_n + i eta_n, the
        charged coefficients divided by psi_n(mx) are
        a_n = A(psi) / (A(psi) + i A(eta)), A(f) = D_n(mx) f - (g_e D_n(mx)
        + m) f', and b_n alike with B(f) = (g_e - m D_n(mx)) f + f'. Divided
        again by psi_n(x), and by (g_e D_n(mx) + m) / x (A) or -1 / x (B),
        both take one form in v = s_n(x) - n = x D_n(x), e = t_n(x) - n =
        x eta_n' / eta_n, u = s_n(mx) - n = m x D_n(mx) and the real ratio
        rho_n = eta_n / psi_n:

            a_n = (Q_A - v) / ((Q_A - v) + i rho_n (Q_A - e))
            b_n = (Q_B - v) / ((Q_B - v) + i rho_n (Q_B - e))
            Q_A = u / (m^2 + g_e u / x),  Q_B = u - g_e x

        Taking the large factor out before the subtraction keeps the digits
        of the charged sums at small x, and an index-matched sphere gets
        exactly zero, as Q_A = Q_B = u = v there. rho_n = rho_{n-1} s_n(x) /
        t_n(x), from rho_1 = eta_1 / psi_1. The arrays come from the
        scratch and hold until its next use.
        """
        scratch = self.scratch
        top, w = s_t.shape
        x = self.x[:w]
        shape, stacked = (top, w), (2, top, w)
        orders = slice(self.order - 1, self.order - 1 + top)
        n, odd = self.n[orders], self.odd[orders]
        self.order += top
        unused = np.greater(n, self.rows[:w], out=scratch("unused", shape, bool))
        s, t = s_t.real, s_t.imag

        # rho by row, from rho_{k-1} in row 0: a block's row 0 first, as the
        # last block's rows may lie in the memory of this block's later ones
        rho = scratch("rho", (top + 1, w))
        if self.rho is None:                   # rho_1 = eta_1 / psi_1
            sin_x, cos_x = self.trig
            self.trig = None
            eta1 = t[0].copy()
            # psi_1 from its closed form or from psi_0 = sin x, whichever is
            # farther from a zero
            psi1 = sin_x / x - cos_x
            psi1 = np.where(np.abs(sin_x) >= np.abs(psi1), x / s[0] * sin_x, psi1)
            rho[0] = 1.0
            np.divide(eta1, psi1, out=rho[1])
            np.divide(s[1:], t[1:], out=rho[2:])
            np.divide(x * cos_x, eta1, out=t[0])
            np.negative(t[0], out=t[0])        # t_1 = x eta_0 / eta_1
        else:
            rho[0] = self.rho[-1, :w]
            np.divide(s, t, out=rho[1:])
        if w > _ROW_STEPPED:                   # numpy accumulates by column
            for i in range(1, top + 1):
                np.multiply(rho[i - 1], rho[i], out=rho[i])
        else:
            np.cumprod(rho, axis=0, out=rho)
        self.rho = rho
        rho = rho[1:]

        s_t -= self.n_n[orders]
        v, e = s, t                            # x D_n(x), x eta_n' / eta_n
        m_d.real -= n                          # u
        # q: Q_A (row 0) and Q_B (row 1), then the coefficients
        q = scratch("coef", stacked, complex)
        np.multiply(m_d, self.g_over_x[:w], out=q[0])
        q[0] += self.m2
        np.divide(m_d, q[0], out=q[0])
        np.subtract(m_d, self.g_x[:w], out=q[1])
        # the denominators, part by part: Q - v + i rho (Q - e)
        den = scratch("m_d", stacked, complex)
        np.subtract(q.real, e, out=den.imag)
        den.imag *= rho
        den.imag += q.imag
        q.real -= v
        np.multiply(q.imag, rho, out=den.real)
        np.subtract(q.real, den.real, out=den.real)
        small = np.abs(den, out=scratch("pair", stacked)) < _DENOM_FLOOR
        if small.any() and np.greater(small, unused).any():
            raise SingularDenominatorError(
                f"singular Mie denominator (x in [{x.min():g}, {x.max():g}], m={self.m})")
        q /= den
        a, b = q

        terms = scratch("m_d", (top + 1, w))
        terms[0] = self.total[:w]
        self._sum(terms, a, b, odd, unused)
        if not np.isfinite(self.total[:w]).all():
            # above order max(1, x) rho_n grows like x^-(2n+1): where it
            # overflows there, the terms take their limit 0; any other value
            # that is not finite stays
            self._sum(terms, a, b, odd,
                      unused | (np.isinf(rho) & (n > np.maximum(x, 1))))
        return a, b

    def _sum(self, terms, a, b, odd, skip) -> None:
        """Adds (2n + 1) Re(a_n + b_n) of the block, zeroed where skip is
        set (adding exactly nothing), to each size's partial sum, which
        terms[0] holds, in order of n. numpy reduces a 2-D array along its
        rows in order, but a lone column pairwise: cumsum it, which keeps
        terms[0]."""
        w = terms.shape[1]
        np.add(a.real, b.real, out=terms[1:])
        terms[1:] *= odd
        np.copyto(terms[1:], 0.0, where=skip)
        if w == 1:
            self.total[:1] = terms.cumsum(axis=0, out=terms)[-1]
        else:
            np.add.reduce(terms, axis=0, out=self.total[:w])


def _scalar_steps(z2, f, odd: list[float]) -> list:
    """f_n = z2 / ((2n - 1) - f_{n-1}) for the 2n - 1 in odd, from f at the
    order before, in scalars: Python floats, or numpy complex128 scalars for
    a complex z2, whose subtract and divide give the bits of the ufuncs'
    array loops (numpy's scalar complex multiply does not, so no step
    multiplies)."""
    first = f
    try:
        return [f := z2 / (o - f) for o in odd]
    except ZeroDivisionError:              # where numpy's divide gives inf
        f = np.float64(first)
        return [float(f := z2 / (o - f)) for o in odd]


def _scalar_tail(x: np.ndarray, counts: list[int]) -> tuple[int, list[int]]:
    """Where `_series` goes over to lanes, runs of equal x in the batch
    (which stop together): the first order n >= 3 at which at most
    _SCALAR_LANES lanes still run, if at least _LANE_ORDERS orders a lane
    are left from there; and the ends of those lanes. Otherwise
    (len(counts) + 1, []). Mostly in Python on short lists: numpy's calls
    run cold here, at several microseconds each."""
    # the first lanes are mostly short: single sizes, or a table's columns
    head = x[:4 * _SCALAR_LANES].tolist()
    ends = [i for i in range(1, len(head)) if head[i] != head[i - 1]]
    if len(ends) < _SCALAR_LANES and len(head) < x.size:
        ends = (np.flatnonzero(x[1:] != x[:-1]) + 1).tolist()
    ends = [*ends, x.size][:_SCALAR_LANES]
    # counts fall, so the orders whose counts exceed the last end come first
    n = max(3, bisect.bisect_left(counts, -ends[-1], key=operator.neg) + 1)
    if n <= len(counts):
        ends = ends[:ends.index(counts[n - 1]) + 1]    # the lanes running at n
        if len(counts) + 1 - n >= _LANE_ORDERS * len(ends):
            return n, ends
    return len(counts) + 1, []


def _lane_ratios(odd: list[float], x2: float, prev: list[float],
                 mx2=None, prev_mx=None) -> list[np.ndarray]:
    """The ratios of one lane of `_series`, sizes sharing one x, at the
    orders of the 2n - 1 in odd, stepped from their values at the order
    before in `_scalar_steps`: t_n(x) from prev = [t]; on the upward route,
    given mx2 = (mx)^2 and prev_mx, s_n(x) and t_n(x) from prev = [s, t],
    then s_n(mx)."""
    ratios = [np.array(_scalar_steps(x2, p, odd), float) for p in prev]
    if mx2 is not None:
        ratios.append(np.array(_scalar_steps(mx2, prev_mx, odd),
                               complex if isinstance(mx2, complex) else float))
    return ratios


def _pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a and b interleaved: a[0], b[0], a[1], b[1], ..."""
    out = np.empty(2 * a.size, a.dtype)
    out[0::2], out[1::2] = a, b
    return out


def _series(x: np.ndarray, m: complex, g_e: np.ndarray, rows: np.ndarray,
            scratch: _Scratch | None = None, store: np.ndarray | None = None,
            layout: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Q_ext of sizes x in descending order, each series summed to rows[i]
    orders in blocks (`_SeriesSum`). One loop steps f_n = z^2 / ((2n - 1) -
    f_{n-1}) from n = 3 to each size's own order into its row of the current
    block, two ufunc calls an order a vector: t_n(x), after eta_1 (in t_1's
    slot) and t_2; without a store (the sizes of `_steps_upward`) also s_n(x),
    paired with t_n(x), and s_n(mx), after `_first_ratio`'s s_1 and s_2, for
    a real m in the same float steps, so an index-matched sphere gives
    exactly zero. Otherwise each block takes s_n(mx) and s_n(x) from the
    store of `_scaled_ratio`'s ragged (mx, x) pairs; a size's entries above
    its orders hold other terms (mode="clip"), which the sum masks.

    From the order `_scalar_tail` gives, where at most _SCALAR_LANES
    distinct x still run, each run of equal x (a lane) steps its own orders
    in scalars (`_lane_ratios`), with the same bits, and each block takes
    the lane's values into all its columns. layout is `_order_counts(rows)`
    if the caller has it; the scratch grows to the largest block first."""
    upward = store is None
    sin_x, cos_x, x2 = np.sin(x), np.cos(x), x * x
    # every size runs at order 1, so the first block anchors rho_1 and t_1
    # on all of them, from these sin x and cos x
    series = _SeriesSum(x, m, g_e, rows, scratch, (sin_x, cos_x))
    counts, offsets = _order_counts(rows) if layout is None else layout
    counts = counts.tolist()
    blocks = list(_blocks(counts))
    series.scratch.grow(max(((end - k + 1) * counts[k - 1] for k, end in blocks),
                            default=0))
    tail, ends = _scalar_tail(x, counts)
    eta1 = -cos_x / x - sin_x
    seeds = [eta1, x2 / (3 + x * cos_x / eta1)]   # eta_1, then t_2 = x^2 / (3 - t_1)
    del sin_x, cos_x, eta1                     # the first block frees them
    # 2n - 1, iterated as 0-d arrays, which a ufunc takes faster than an int
    # or a numpy scalar
    odd = np.arange(1, 2 * len(counts), 2.0)
    per = 2 if upward else 1                   # values a size in the x vector
    if upward:
        mx = m.real * x if m.imag == 0 else m * x
        seeds_x, seeds_mx = _first_ratio(x, mx)
        seeds = [_pairs(*p) for p in zip(seeds_x, seeds)]
        odd_mx = odd.astype(mx.dtype)
        x2, mx2, prev_mx = np.repeat(x2, 2), mx * mx, seeds_mx[1]
        # a lane's s_n(mx) in floats, or in numpy complex128 scalars
        scalars = np.ndarray.tolist if mx.dtype.kind == "f" else list
    else:
        flat, offsets = store.reshape(-1), 2 * offsets
    prev, c = seeds[1], x.size
    lanes = []                                 # (columns, last order, ratios)
    subtract, divide = np.subtract, np.divide
    for k, end in blocks:
        w = counts[k - 1]
        shape = (end - k, w)
        s_t = series.scratch("s_t", shape, complex)
        m_d = series.scratch("m_d", shape, mx.dtype if upward else complex)
        if upward:
            values, s_mx = s_t.view(float).reshape(-1), m_d.reshape(-1)
        else:
            at = np.add(offsets[k - 1:end - 1, None], np.arange(0, 2 * w, 2),
                        out=series.scratch("pair", shape, np.intp))
            flat.take(at, out=m_d, mode="clip")
            flat[1:].take(at, out=s_t, mode="clip")
            values = s_t.view(float).reshape(-1)[1::2]   # t_n(x)
        for n in range(k, min(end, 3)):        # orders 1 and 2, from the seeds
            o = (n - k) * w
            values[per * o:per * (o + w)] = seeds[n - 1][:per * w]
            if upward:
                s_mx[o:o + w] = seeds_mx[n - 1][:w]
        if end > 2:                            # spent before the blocks' peak
            seeds = seeds_mx = None
        first, stop = max(k, 3), min(end, tail)
        for n, odd_n, odd_mx_n in zip(
                range(first, stop), np.nditer(odd[first - 1:stop - 1], ["zerosize_ok"]),
                np.nditer(odd_mx[first - 1:stop - 1], ["zerosize_ok"]) if upward
                else itertools.repeat(None)):
            if counts[n - 1] != c:             # the sizes still running
                c = counts[n - 1]
                x2, prev = x2[:per * c], prev[:per * c]
                if upward:
                    mx2, prev_mx = mx2[:c], prev_mx[:c]
            o = (n - k) * w
            step = values[per * o:per * (o + c)]
            subtract(odd_n, prev, step)
            divide(x2, step, step)
            prev = step
            if upward:
                step = s_mx[o:o + c]
                subtract(odd_mx_n, prev_mx, step)
                divide(mx2, step, step)
                prev_mx = step
        if end <= tail:
            # the sum works the block in place, so the loop goes on from copies
            prev, prev_mx = prev.copy(), prev_mx.copy() if upward else None
        elif not lanes:                        # the tail starts in this block
            at = [0, *ends[:-1]]               # the first size of each lane
            odds = odd[tail - 1:].tolist()
            state = [x2[::per][at].tolist(), prev.reshape(-1, per)[at].tolist()]
            if upward:
                state += [scalars(mx2[at]), scalars(prev_mx[at])]
            for a, b, top, *lane in zip(at, ends, rows[at].tolist(), *state):
                lanes.append((slice(a, b), top,
                              _lane_ratios(odds[:top + 1 - tail], *lane)))
        lo = max(k, tail)                      # each lane's orders of the block,
        for cols, top, ratios in lanes:        # into all its columns
            n = min(end, top + 1) - lo
            if n > 0:
                into = (s_t.real, s_t.imag, m_d) if upward else (s_t.imag,)
                for dest, r in zip(into, ratios):
                    dest[lo - k:lo - k + n, cols] = r[lo - tail:lo - tail + n, None]
        series.add(s_t, m_d)
    # A sum below the normal range has lost its terms' bits, Re(a_n) of a
    # charged sphere from near x = 1e-77 and of a lossless one from x = 1e-51;
    # only an index-matched sphere sums to exactly 0
    total = series.total
    lost = np.abs(total) < _TINY
    if lost.any() and (m != 1 or g_e[lost].any()):
        x = x[lost]
        raise RecurrenceOverflowError(
            f"underflow in the Mie series (x in [{x.min():g}, {x.max():g}], m={m})")
    return 2 / x**2 * total


def _downward_series(x: np.ndarray, m: complex, g_e: np.ndarray,
                     rows: np.ndarray, scratch: _Scratch | None = None
                     ) -> np.ndarray:
    """Q_ext of sizes x in descending order, each series summed to rows[i]
    orders by `_series`, in lockstep passes of at most _PASS_TERMS ragged
    terms. A pass stores s_n for z = m x and z = x from one downward
    recurrence (`_scaled_ratio`), one pair a size: sharing the steps gives
    an index-matched sphere (m = 1, g_e = 0) exactly zero coefficients."""
    q, total = np.empty(x.size), np.concatenate(([0], np.cumsum(rows)))
    begin = 0
    while begin < x.size:
        end = max(begin + 1, int(np.searchsorted(
            total, total[begin] + _PASS_TERMS, side="right")) - 1)
        run = slice(begin, end)
        pairs = np.empty((end - begin, 2), complex)
        np.multiply(m, x[run], out=pairs[:, 0])
        pairs[:, 1] = x[run]
        layout = _order_counts(rows[run])
        try:
            store = _scaled_ratio(pairs, rows[run], layout)
        except DomainError as exc:
            raise DomainError(f"refractive index {m} at x = {x[begin]:g}: "
                              f"{exc}") from None
        q[run] = _series(x[run], m, g_e[run], rows[run], scratch, store=store,
                         layout=layout)
        begin = end
    return q


def _qext(x: np.ndarray, m: complex, g_e: np.ndarray) -> np.ndarray:
    """Q_ext over 1-D arrays of x, which the callers check lie in the
    series' domain, and g_e, each series summed to its `truncation_order`
    and no further (the error this leaves is pinned by
    tests/test_mie.py::TestTruncation). In descending order of x, the sizes
    of `_steps_upward` go on the upward route, and the rest downward; their
    order blocks share one block of work arrays. One np.errstate covers the
    call: an overflow anywhere in it fails at the end."""
    m = _normalize_m(m)
    q = np.empty(x.size)
    scratch = _Scratch(_SeriesSum.ROLES)
    with np.errstate(all="ignore"):
        order = np.argsort(-x, kind="stable")
        x, g_e = x[order], g_e[order]
        rows = _orders(x)
        # Im(m) x falls along the batch, so the upward sizes are its last ones
        split = x.size - np.count_nonzero(_steps_upward(x, m))
        if split < x.size:
            q[split:] = _series(x[split:], m, g_e[split:], rows[split:], scratch)
        if split:
            q[:split] = _downward_series(x[:split], m, g_e[:split], rows[:split],
                                         scratch)
    if not np.isfinite(q).all():               # an overflow
        raise RecurrenceOverflowError(
            f"overflow in the Mie series (x in [{x.min():g}, {x.max():g}], m={m})")
    out = np.empty(x.size)                     # in the callers' order
    out[order] = q
    return out


def _size_and_charge(radius, frequency, electrons, temperature, mode):
    """Size parameter and charge coefficient g_e of spheres in a wave, from
    checked electron counts. Each other input is checked once, in the order
    and with the messages of `scale_parameter`, `truncation_order`,
    `collision_frequency` and `charged_coefficient`. A g_e beyond the float
    range (from radii near 1e-60 m) is a numerical failure. No k_dust table
    reaches such radii (its lattice starts near 1 nm), so only a `qext`
    x-sweep or a direct array call can."""
    if (frequency <= 0).any():
        raise DomainError("frequency must be positive")
    with np.errstate(all="ignore"):        # _check_scale rejects an inf or nan x
        wavelength = CONSTANTS.c / frequency
        if not np.isfinite(wavelength).all():
            raise DomainError(f"frequency {frequency.min():g} Hz: wavelength overflows")
        if (radius <= 0).any() or (wavelength <= 0).any():
            raise DomainError("radius and wavelength must be positive")
        x = 2 * math.pi * radius / wavelength
        _check_scale(x)    # rejects an x beyond the series before r^2 overflows
        gamma_s = collision_frequency(temperature)
        omega = 2 * math.pi * frequency
        omega_s = _plasma_frequency(_potential(electrons, radius), radius)
        try:
            g_e = _charge(x, omega, omega_s, gamma_s, mode)
        except DomainError as exc:      # such as gamma_s / omega overflowing
            raise DomainError(f"frequency {frequency.min():g} Hz at temperature "
                              f"{temperature:g} K: {exc}") from None
        if not np.isfinite(g_e).all():
            raise RecurrenceOverflowError(
                f"charge coefficient overflow (radius down to {radius.min():g} m)")
    return x, g_e


def _broadcast(*arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays broadcast against each other, each one whose shape
    differs as a copy: np.broadcast_arrays's views cost some 8 us each."""
    shape = np.broadcast(*arrays).shape
    spread = []
    for a in arrays:
        if a.shape != shape:
            a, b = np.empty(shape), a
            np.copyto(a, b)
        spread.append(a)
    return spread


def extinction_efficiency_array(radius, frequency, electrons, temperature: float,
                                m: complex, mode: str = "full") -> np.ndarray:
    """Extinction efficiencies of charged spheres, evaluated as one batch.

    radius (m), frequency (Hz) and electrons broadcast against each other;
    the result has their broadcast shape.
    """
    radius, frequency, electrons = _broadcast(
        np.asarray(radius, float), np.asarray(frequency, float),
        _electron_count(electrons))
    x, g_e = _size_and_charge(radius, frequency, electrons, temperature, mode)
    # approx mode gives a numpy complex g_e for one sphere
    return _qext(x.ravel(), m, np.ravel(g_e)).reshape(x.shape)


def extinction_efficiency_x(x: float, m: complex, g_e: complex = 0j) -> float:
    """Extinction efficiency from the size parameter and charge coefficient."""
    x, g_e = np.array([float(x)]), np.array([g_e], complex)
    _normalize_m(m)                # an index error comes before an x error
    _check_scale(x)
    return float(_qext(x, m, g_e)[0])
