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
f_n = z^2 / ((2n - 1) - f_{n-1}): one block loop steps t_n(x) upward from
n = 3, over whole rows of each order block, and s_n takes one of two
routes, by x and m alone:

- Upward, for Re(m) >= 1 under Wiscombe's bound
  Im(m) x < 13.78 Re(m)^2 - 10.8 Re(m) + 3.9 (for 1.5+0.1j, x < 187),
  however small x is: the loop steps s_n(mx) and s_n(x) too, after s_1 and
  s_2, which below |z| = 0.6, where 1/z - cot z would cancel, come from
  the downward step run from order 10; at x = 791 and 2-0.025j, 829 steps
  where the downward seed starts at order 1,758.
- Downward, for Im(m) x beyond the bound and for Re(m) < 1:
  s_{n-1} = (2n - 1) - z^2 / s_n from where the contraction of its steps
  has erased the seed, and no higher than Wiscombe's start, without
  overflow however strongly the sphere absorbs. These reach order 1 last,
  so a pass stores them ragged and order-major for the loop to take.

On grids of 3,000 x up to 2e3 with g_e = 0, 1e-3j, 1j and -5+50j, the two
routes agree within 6e-14 at 2-0.025j, 3+0.001j and 1.5+0.01j, and 2.3e-13
at 1.33 (x up to 2e4). Below x = 1 they agree within 5e-14 at seven indices
from 1.33 to 1.2+10j, and 3.4e-11 at 1.0001, whose Q_ext cancels in both;
below x = 1e-3, two orders from the same downward step, the same bits.
The charged sums keep their digits at small x: within 1e-14 of the mpmath
oracle from x = 1 down to 1e-20. Upward steps drift for Re(m) < 1 (5e-2 at
0.8), so those sizes go downward.

The upward sizes of a batch, then the rest, each in descending order of x,
run in lockstep until at most a few distinct x are left; those step on in
scalars, with the same bits. The series are summed in order blocks: dense
(orders, sizes) arrays of the sizes running at a block's first order, which
carry the real ratio rho_n = eta_n(x) / psi_n(x) and each partial sum on to
the next. The loop steps a block's rows whole, one numpy vector a step, its
sizes past their own orders too; the sum masks those cells.
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
from .errors import DomainError, RecurrenceOverflowError

_MIN_RADIUS = 1e-9      # m; the radius domain of a sphere and of the size
_MAX_RADIUS = 1e-2      # integral (`dustfield._support`)
_TINY = np.finfo(float).tiny            # the smallest normal float
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
# and bits (2-core host, numpy 2.4). Either way keeps the bits, so a mutant
# of it survives the tests by design: it moves only time
_ROW_STEPPED = 160
# A downward step multiplies the seed's error by about
# exp(-2 Re arccosh((n - 1/2)/z)). A size starts where e^-45 (3e-20, below
# an ulp) of the seed's error is left at its top stored order (see
# `_start_orders`). The stored s_n keep the bits of Wiscombe's start up to
# x = 1e3, and up to x = 2e4 stay within 3e-15 of them, twice the worst
# measured, which is the rounding of Wiscombe's longer run, not the seed
# (tests/test_specfun.py::TestStartOrders). Decays 36 and 40 lose the bits,
# 33 the bound; 40 would save 1.5-2 % of the start orders.
_SEED_DECAY = 45.0
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
# about 3 %. A lane keeps the vector loop's bits, so a mutant of
# _LANE_ORDERS survives the tests by design: it moves only time.
_SCALAR_LANES = 4
_LANE_ORDERS = 4
# A size's Q_ext and the three g_e-free fields that make Q_ext(g_e) linear
# with a bound (`_SeriesSum._linear`), one 40-byte record a size
_LINEAR = np.dtype([("q", float), ("s", complex), ("b", float), ("k", float)])


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
        """WaveSpec(f). Kept only because `perfbench/` still calls it."""
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
    start = np.minimum(wiscombe, rows + 1 + np.ceil(steps))
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
    which layout gives if the caller has it."""
    k, w = z.shape
    start = _start_orders(z, rows)
    running = (_reaching(start) * w).tolist()
    counts, offsets = _order_counts(rows) if layout is None else layout
    stored, cells = (counts * w).tolist(), (offsets * w).tolist()
    z2 = (z * z).ravel()
    s = np.repeat(start, w).astype(complex)    # s_start = start: D_start = 0
    t = np.empty(k * w, complex)
    sn = np.empty(sum(stored), complex)
    # 2 order - 1 as 0-d arrays, which a ufunc takes faster than an int or a
    # numpy scalar
    high = int(start[0])
    odd = np.nditer(np.arange(2 * high - 1, 2, -2, dtype=complex), ["zerosize_ok"])
    p, top = 0, len(stored)
    for order, c in zip(range(high, 1, -1), odd):
        if running[order] != p:                # views of the rows now running
            p = running[order]
            z2p, sp, tp = z2[:p], s[:p], t[:p]
        np.divide(z2p, sp, tp)
        np.subtract(c, tp, sp)                 # s_{order-1}
        if order <= top + 1:
            st, o = stored[order - 2], cells[order - 2]
            sn[o:o + st] = s[:st]
    return sn.reshape(-1, w)


def _steps_upward(x: np.ndarray, m: complex) -> np.ndarray:
    """Which sizes step s_n upward (`_series` without a store): Re(m) >= 1
    and Wiscombe's (1980) bound for stepping D_n(mx) upward, Im(m) x <
    13.78 Re(m)^2 - 10.8 Re(m) + 3.9, at any x: below x = 1 the orders that
    upward steps lose carry terms of order x^(2n+1), which the sum never feels."""
    # squares as products: a float power raises where a product gives inf
    bound = 13.78 * m.real * m.real - 10.8 * m.real + 3.9
    return (m.real >= 1) & (m.imag * x < bound)


# Order from which `_first_ratio` steps s_n down to s_2 and s_1 below
# |z| = 0.6, from D_n = 0 (s_n = n): Lentz's (1976) continued fraction for
# s_1, cut there. A step from order n scales the start's error by
# |z^2 / (s_n s'_n)|, so at |z| = 0.6 what is left of it is below 2e-21 of
# s_2 and 5e-23 of s_1 (2^-69; from order 9, 2e-18, from 8, 2e-15), and
# less the smaller |z| is
_SEED_ORDER = 10


def _first_ratio(*zs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """s_1(z) = z psi_0(z) / psi_1(z) and s_2(z), which start the upward
    recurrence at n = 3, for each array z of zs, in descending order of |z|
    and in z's own dtype. From |z| = 0.6 up, s_1 = z / (1/z - cot z), which
    stays finite where sin z would overflow, and s_2 = z^2 / (3 - s_1).
    Below it 1/z - cot z cancels to about z/3, losing some 3/|z|^2 ulps, and
    3 - s_1 to about z^2/5, so both come from the downward step
    s_{n-1} = (2n - 1) - z^2 / s_n from s_n = n at _SEED_ORDER. Each step
    shrinks the error it is given, so the last subtract's rounding is most
    of what s_1 and s_2 carry, and each size's seeds are the same bits in
    any batch."""
    pairs = []
    for z in zs:
        s1, s2 = np.empty((2, z.size), z.dtype)
        k = np.count_nonzero(np.abs(z) >= 0.6)      # the first k sizes
        if k:
            big = z[:k]
            np.divide(big, 1 / big - 1 / np.tan(big), out=s1[:k])
            np.divide(big * big, 3 - s1[:k], out=s2[:k])
        if k < z.size:
            z2, s = z[k:] * z[k:], s2[k:]
            s[...] = _SEED_ORDER                    # D_n = 0
            for odd in range(2 * _SEED_ORDER - 1, 3, -2):   # s_9 .. s_2
                np.subtract(odd, z2 / s, out=s)
            np.subtract(3, z2 / s, out=s1[k:])
        pairs.append((s1, s2))
    return pairs


class _SeriesSum:
    """The sums x^2 Q_ext / 2 = sum (2n + 1) Re(a_n + b_n) of sizes in
    descending order of x, each over its rows orders in order of n, block by
    block (see `_blocks`): rho_{n-1} = eta_{n-1}(x) / psi_{n-1}(x) and the
    partial sums carry over, so a size's Q_ext depends on neither its batch
    nor its blocks."""

    # The scratch roles of an order block, in bytes per (order, size) cell;
    # "pair" holds the downward route's gather indices, then `_linear`'s
    ROLES = {"m_d": 32, "coef": 32, "pair": 16, "s_t": 16, "rho": 8, "unused": 1}

    def __init__(self, x: np.ndarray, m: complex, g_e: np.ndarray,
                 rows: np.ndarray, scratch: _Scratch | None = None,
                 trig: tuple | None = None, linear: bool = False):
        self.x, self.rows = x, rows
        # the partial sums of S and B, and K so far (`_linear`), if asked for
        self.linear = ((np.zeros(x.size, complex), np.zeros(x.size), np.zeros(x.size))
                       if linear else None)
        self.m2 = m * m
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
        (an overflow, or a denominator of exactly 0, leaves a sum that is
        not finite, which fails in `_qext`). With xi_n = psi_n + i eta_n, the
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
        q /= den
        a, b = q
        if self.linear is not None:
            self._linear(a, den, v, e, rho, odd, unused)

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

    def _linear(self, a, den, v, e, rho, odd, unused) -> None:
        """Adds the block's terms to S, B and K of sizes at g_e = 0, from
        `add`'s a_n and denominators, which it overwrites. There (u, v, e
        and rho as in `add`, den_A and den_B the denominators at g_e = 0)
        each coefficient is a Moebius map of g = g_e, c(g) = (alpha g +
        beta) / (gamma g + delta) (Bohren & Hunt 1977), with

            a_n: alpha = -v u, beta = x (u - v m^2),
                 gamma = -(v + i rho e) u, delta = x m^2 den_A
            b_n: alpha = -x, beta = u - v, gamma = -(1 + i rho) x, delta = den_B

        So with Q_A = u / m^2 = a_n den_A + v, c'(0) = (alpha delta - beta
        gamma) / delta^2 is i rho (e - v) Q_A^2 / (x den_A^2) for a_n and
        i rho (e - v) x / den_B^2 for b_n, kappa = gamma / delta is
        -(v + i rho e) Q_A / (x den_A) and -(1 + i rho) x / den_B, and
        c(g) = c(0) + c'(0) g - c'(0) kappa g^2 / (1 + kappa g). Where
        |g| K <= 1/2, then,
        Q_ext(g) = Q_0 + Re(S g) within 2 B |g|^2, for

            S = 2/x^2 sum (2n + 1)(a_n'(0) + b_n'(0)),
            B = 2/x^2 sum (2n + 1)(|a_n'(0) kappa^a_n| + |b_n'(0) kappa^b_n|),
            K = max over n of |kappa^a_n| and |kappa^b_n|.

        The factors are grouped so that none overflows where rho_n does not;
        a field that is not finite fails any test of it. Each size's sums
        run in order of n, as `_sum`'s do, so its fields do not depend on
        its batch. The factor i of both derivatives is taken out of S's sum,
        and the denominators are inverted once, as a complex divide costs
        about five multiplies. Beside the scratch's "pair" role, which `add`
        does not use, the block takes 40 bytes a cell."""
        top, w = v.shape
        x = self.x[:w]
        inv_x = 1 / x
        # rows 1.. of each: (2n + 1)(a_n'(0) + b_n'(0)) / i and
        # (2n + 1)(|a_n'(0) kappa^a_n| + |b_n'(0) kappa^b_n|); row 0 the sums
        s_terms, b_terms = np.empty((top + 1, w), complex), np.empty((top + 1, w))
        z, bt = s_terms[1:], b_terms[1:]
        zb = self.scratch("pair", (top, w), complex)
        change, f = np.subtract(e, v), np.empty((top, w))
        change *= rho                          # rho (e - v)
        np.multiply(a, den[0], out=z)
        z.real += v                            # Q_A
        np.divide(1.0, den, out=den)
        inv_a, inv_b = den
        zb.real = v
        np.multiply(rho, e, out=zb.imag)
        zb *= inv_a
        zb *= z
        np.abs(zb, out=bt)
        bt *= inv_x                            # |kappa^a|
        np.copyto(bt, 0.0, where=unused)
        k = bt.max(axis=0)
        z *= inv_a
        z *= z
        z *= change
        z *= inv_x                             # a_n'(0) / i
        np.abs(z, out=f)
        bt *= f                                # |a_n'(0) kappa^a|
        np.multiply(inv_b, change, out=zb)
        zb *= inv_b
        zb *= x                                # b_n'(0) / i
        z += zb
        np.abs(zb, out=f)
        zb.real = 1.0
        zb.imag = rho
        zb *= inv_b
        np.abs(zb, out=change)
        change *= x                            # |kappa^b|
        f *= change
        bt += f
        np.copyto(change, 0.0, where=unused)
        np.maximum(k, change.max(axis=0), out=k)
        z *= odd
        bt *= odd
        np.copyto(z, 0.0, where=unused)
        np.copyto(bt, 0.0, where=unused)
        s_sum, b_sum, k_max = self.linear
        np.maximum(k_max[:w], k, out=k_max[:w])
        for total, terms in ((s_sum, s_terms), (b_sum, b_terms)):
            terms[0] = total[:w]
            if w == 1:
                total[:1] = terms.cumsum(axis=0, out=terms)[-1]
            else:
                np.add.reduce(terms, axis=0, out=total[:w])

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
    orders of the 2n - 1 in odd, stepped as f_n = z2 / ((2n - 1) - f_{n-1})
    from their values at the order before: t_n(x) from prev = [t]; on the
    upward route, given mx2 = (mx)^2 and prev_mx, s_n(x) and t_n(x) from
    prev = [s, t], then s_n(mx). The steps are Python floats, or numpy
    complex128 scalars for a complex mx2, whose subtract and divide give the
    bits of the ufuncs' array loops (numpy's scalar complex multiply does
    not, so no step multiplies). Where a float divide raises
    ZeroDivisionError, numpy's gives +-inf or nan: that chain starts again
    in np.float64, which divides as numpy does."""
    chains = [(x2, p, float) for p in prev]
    if mx2 is not None:
        chains.append((mx2, prev_mx, complex if isinstance(mx2, complex) else float))
    ratios = []
    for z2, first, dtype in chains:
        f = first
        try:
            chain = np.fromiter((f := z2 / (o - f) for o in odd), dtype, len(odd))
        except ZeroDivisionError:
            f = np.float64(first)
            chain = np.fromiter((f := z2 / (o - f) for o in odd), dtype, len(odd))
        ratios.append(chain)
    return ratios


def _series(x: np.ndarray, m: complex, g_e: np.ndarray, rows: np.ndarray,
            scratch: _Scratch | None = None, store: np.ndarray | None = None,
            layout: tuple[np.ndarray, np.ndarray] | None = None,
            linear: np.ndarray | None = None) -> np.ndarray:
    """Q_ext of sizes x in descending order, each series summed to rows[i]
    orders in blocks (`_SeriesSum`). One loop steps f_n = z^2 / ((2n - 1) -
    f_{n-1}) from n = 3 over whole rows of the current block, two ufunc
    calls an order a vector, each block's sizes past their own orders too
    (the sum masks those cells): t_n(x), after eta_1 (in t_1's slot) and
    t_2; without a store (the sizes of `_steps_upward`) also s_n(x), paired
    with t_n(x) as the floats of one row, and s_n(mx), after `_first_ratio`'s
    s_1 and s_2, for a real m in the same float steps, so an index-matched
    sphere gives exactly zero. Otherwise each block takes s_n(mx) and s_n(x)
    from the store of `_scaled_ratio`'s ragged (mx, x) pairs; a size's
    entries above its orders hold other terms (mode="clip"). The seeds of
    orders 1 and 2 go straight into their rows, and a block's loop goes on
    from its order-2 row or from a copy of the last block's last row.

    From the order `_scalar_tail` gives, where at most _SCALAR_LANES
    distinct x still run, each run of equal x (a lane) steps its own orders
    in scalars (`_lane_ratios`), with the same bits, and each block takes
    the lane's values into all its columns. layout is `_order_counts(rows)`
    if the caller has it; the scratch grows to the largest block first.
    Given linear, a `_LINEAR` array over the sizes (at g_e = 0), the sum
    fills its s, b and k fields too (`_SeriesSum._linear`)."""
    upward = store is None
    sin_x, cos_x, x2 = np.sin(x), np.cos(x), x * x
    # every size runs at order 1, so the first block anchors rho_1 and t_1
    # on all of them, from these sin x and cos x
    series = _SeriesSum(x, m, g_e, rows, scratch, (sin_x, cos_x), linear is not None)
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
    per = 2 if upward else 1                   # values a size in a row
    if upward:
        mx = m.real * x if m.imag == 0 else m * x
        seeds_x, seeds_mx = _first_ratio(x, mx)
        odd_mx = odd.astype(mx.dtype)
        x2, mx2 = np.repeat(x2, 2), mx * mx
        # a lane's s_n(mx) in floats, or in numpy complex128 scalars
        scalars = np.ndarray.tolist if mx.dtype.kind == "f" else list
    else:
        flat, offsets = store.reshape(-1), 2 * offsets
    lanes = []                                 # (columns, last order, ratios)
    subtract, divide = np.subtract, np.divide
    for k, end in blocks:
        w = counts[k - 1]
        shape = (end - k, w)
        s_t = series.scratch("s_t", shape, complex)
        m_d = series.scratch("m_d", shape, mx.dtype if upward else complex)
        if upward:
            steps = s_t.view(float)            # rows of (s_n(x), t_n(x)) pairs
        else:
            at = np.add(offsets[k - 1:end - 1, None], np.arange(0, 2 * w, 2),
                        out=series.scratch("pair", shape, np.intp))
            flat.take(at, out=m_d, mode="clip")
            flat[1:].take(at, out=s_t, mode="clip")
            steps = s_t.imag                   # rows of t_n(x)
        for n in range(k, min(end, 3)):        # orders 1 and 2, from the seeds
            s_t.imag[n - k] = seeds[n - 1][:w]
            if upward:
                s_t.real[n - k], m_d[n - k] = seeds_x[n - 1][:w], seeds_mx[n - 1][:w]
        if end > 2:                            # spent before the blocks' peak
            seeds = seeds_x = seeds_mx = None
        if k > 2:                              # the last block's last row
            prev, prev_mx = prev[:per * w], prev_mx[:w] if upward else None
        elif end > 2:                          # this block's order-2 row
            prev, prev_mx = steps[2 - k], m_d[2 - k]
        x2w, mx2w = x2[:per * w], mx2[:w] if upward else None
        first, stop = max(k, 3), min(end, tail)   # the orders the loop steps
        rows_n, orders = slice(first - k, stop - k), slice(first - 1, stop - 1)
        odd_n = np.nditer(odd[orders], ["zerosize_ok"])
        if upward:
            for step, o, step_mx, o_mx in zip(
                    steps[rows_n], odd_n, m_d[rows_n],
                    np.nditer(odd_mx[orders], ["zerosize_ok"])):
                subtract(o, prev, step)
                divide(x2w, step, step)
                subtract(o_mx, prev_mx, step_mx)
                divide(mx2w, step_mx, step_mx)
                prev, prev_mx = step, step_mx
        else:
            for step, o in zip(steps[rows_n], odd_n):
                subtract(o, prev, step)
                divide(x2w, step, step)
                prev = step
        if end <= tail:
            # the sum works the block in place, so the loop goes on from copies
            prev, prev_mx = steps[-1].copy(), m_d[-1].copy() if upward else None
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
    if linear is not None:
        s_sum, b_sum, linear["k"] = series.linear
        linear["s"], linear["b"] = 2j / x**2 * s_sum, 2 / x**2 * b_sum
    return 2 / x**2 * total


def _downward_series(x: np.ndarray, m: complex, g_e: np.ndarray,
                     rows: np.ndarray, scratch: _Scratch | None = None,
                     linear: np.ndarray | None = None) -> np.ndarray:
    """Q_ext of sizes x in descending order, each series summed to rows[i]
    orders by `_series`, in lockstep passes of at most _PASS_TERMS ragged
    terms, filling linear's fields if given. A pass stores s_n for z = m x
    and z = x from one downward recurrence (`_scaled_ratio`), one pair a
    size: sharing the steps gives an index-matched sphere (m = 1, g_e = 0)
    exactly zero coefficients."""
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
                         layout=layout, linear=None if linear is None else linear[run])
        begin = end
    return q


def _qext(x: np.ndarray, m: complex, g_e: np.ndarray,
          linear: bool = False) -> np.ndarray:
    """Q_ext over 1-D arrays of x, which the callers check lie in the
    series' domain, and g_e, each series summed to its `truncation_order`
    and no further (the error this leaves is pinned by
    tests/test_mie.py::TestTruncation). In descending order of x, the sizes
    of `_steps_upward` go on the upward route, and the rest downward; their
    order blocks share one block of work arrays. One np.errstate covers the
    call: an overflow anywhere in it fails at the end. With linear, for g_e
    all zero, a `_LINEAR` array: each size's Q_ext and the fields S, B and K
    that give its Q_ext at any g_e within a bound (`_SeriesSum._linear`)."""
    m = _normalize_m(m)
    q = np.empty(x.size, _LINEAR if linear else float)
    values = q["q"] if linear else q
    scratch = _Scratch(_SeriesSum.ROLES)
    with np.errstate(all="ignore"):
        order = np.argsort(-x, kind="stable")
        x, g_e = x[order], g_e[order]
        rows = _orders(x)
        # Im(m) x falls along the batch, so the upward sizes are its last ones
        split = x.size - np.count_nonzero(_steps_upward(x, m))
        if split < x.size:
            values[split:] = _series(x[split:], m, g_e[split:], rows[split:], scratch,
                                     linear=q[split:] if linear else None)
        if split:
            values[:split] = _downward_series(x[:split], m, g_e[:split], rows[:split],
                                              scratch, q[:split] if linear else None)
    if not np.isfinite(values).all():          # an overflow
        raise RecurrenceOverflowError(
            f"overflow in the Mie series (x in [{x.min():g}, {x.max():g}], m={m})")
    out = np.empty(x.size, q.dtype)            # in the callers' order
    out[order] = q
    return out


# The linear rule's level, the largest tried: on the f-sweep to 10 THz at
# 150 m, 1e-13 admits 86.5 % of the charged nodes at Ne 1e3 and 61.8 % at
# 1e6, 1e-14 84.1 and 55.5 %, 1e-15 81.1 and 48.5 %; each moves k_dust by at
# most 9.4e-15 of k_dust(Ne = 0), the rounding of x (a charged key's radii).
_LINEAR_EPS = 1e-13


def _linear_q(fields: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q_ext of charged sizes from their `_LINEAR` records, and their g_e:
    (admitted, Q_0 + Re(S g_e)), admitted marking the sizes where
    |g_e| K <= 1/2 and 2 B |g_e|^2 < _LINEAR_EPS Q_0, so that the linear
    value is within _LINEAR_EPS Q_0 of the series, to the two sums'
    rounding, at most 1e-14 of Q_0 (`_SeriesSum._linear`). A field that is
    not finite admits nothing, and nor does Q_0 = 0, an index-matched
    sphere's."""
    mag = np.abs(g)
    admitted = ((mag * fields["k"] <= 0.5)
                & (2 * fields["b"] * (mag * mag) < _LINEAR_EPS * fields["q"]))
    s = fields["s"]
    return admitted, fields["q"] + (s.real * g.real - s.imag * g.imag)


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


def extinction_efficiency_array(radius, frequency, electrons, temperature: float,
                                m: complex, mode: str = "full") -> np.ndarray:
    """Extinction efficiencies of charged spheres, evaluated as one batch.

    radius (m), frequency (Hz) and electrons broadcast against each other;
    the result has their broadcast shape.
    """
    x, g_e = _size_and_charge(np.asarray(radius, float), np.asarray(frequency, float),
                              _electron_count(electrons), temperature, mode)
    # g_e takes every input's shape; approx mode gives a numpy complex for one sphere
    shape = np.shape(g_e)
    return _qext(np.broadcast_to(x, shape).ravel(), m, np.ravel(g_e)).reshape(shape)


def extinction_efficiency_x(x: float, m: complex, g_e: complex = 0j) -> float:
    """Extinction efficiency from the size parameter and charge coefficient.

    No module of the package calls it: its tables go through
    `extinction_efficiency_array`, which takes radii and frequencies. It
    stays public as the one entry point in the paper's own variables,
    Q_ext(x, m, g_e), with no radius, frequency or temperature to invent,
    which is how the tests hold the kernel to the mpmath oracles and how
    the README's module table offers it."""
    x, g_e = np.array([float(x)]), np.array([g_e], complex)
    _normalize_m(m)                # an index error comes before an x error
    _check_scale(x)
    return float(_qext(x, m, g_e)[0])
