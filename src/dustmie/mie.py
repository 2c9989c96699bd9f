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
  so a pass stores them ragged and order-major for the loop to take.

On grids of 3,000 x up to 2e3 with g_e = 0, 1e-3j, 1j and -5+50j, the two
routes agree within 6e-14 at 2-0.025j, 3+0.001j and 1.5+0.01j, and 2.3e-13
at 1.33 (x up to 2e4). Below x = 1 they agree within 2e-13 at seven indices
from 1.33 to 1.2+10j, and 3.4e-11 at 1.0001, whose Q_ext cancels in both.
Below x = 1e-3 the charged sums lose digits on either route (9e-11 at
1.5+1j, g_e = 1j, x = 1e-6). Upward steps drift for Re(m) < 1 (5e-2 at
0.8), so those sizes go downward.

The upward sizes of a batch, then the rest, each in descending order of x,
run in lockstep, one numpy vector a step over the sizes still running, until
at most a few distinct x are left; those step on in scalars, with the same
bits. The series are summed in order blocks: dense (orders, sizes) arrays of
the sizes running at a block's first order, which carry psi_n, eta_n and
each partial sum on to the next.
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
# Largest size parameter taken: up to here the series summed to
# `truncation_order` is pinned within 1e-8 of a longer sum (see
# tests/test_mie.py::TestTruncation), and a downward store stays near 1 MB.
_MAX_X = 2e4
# Ragged terms (orders x sizes) of one downward pass: its store of s_n(mx)
# and s_n(x) takes 1 MB at 32 B a term (the upward route stores nothing).
_PASS_TERMS = 2**15
# Dense orders x sizes of one order block of the series sum: its work arrays,
# 129 B a term (`_SeriesSum.ROLES`), stay near 1 MB, while a block of large
# spheres still spans many orders.
_CHUNK_TERMS = 7168
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
    if not np.all((ne >= 0) & (ne < math.inf)):
        raise DomainError("electron count must be non-negative and finite")
    return ne


def surface_potential(electrons, radius):
    """Electrostatic potential (V) at the surface of a charged sphere."""
    if np.any(np.less_equal(radius, 0)):
        raise DomainError("radius must be positive")
    electrons = _electron_count(electrons)
    return CONSTANTS.k_e * electrons * CONSTANTS.e / radius


def surface_plasma_frequency(electrons, radius):
    """Surface plasma frequency (rad/s) of the charged sphere; 0 when neutral."""
    phi = surface_potential(electrons, radius)
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
    # squares as products: numpy raises a 0-d result (one sphere) to a power
    # with the C library's pow, which can differ in the last bit from the
    # array square a batch takes
    if mode == "full":
        # at any charge (0 x inf is nan) gamma_s / omega must be finite
        with np.errstate(over="ignore"):
            ratio = gamma_s / omega
        if np.any(ratio == math.inf):
            raise DomainError(f"collision frequency {gamma_s:g} rad/s over wave "
                              f"frequency {np.min(omega):g} rad/s overflows")
        return ((x / 2) * (omega_s * omega_s) / (omega * omega + gamma_s * gamma_s)
                * (-1 + 1j * ratio))
    if mode == "approx":
        return 1j * x * (omega_s * omega_s) / (2 * gamma_s * omega)
    raise DomainError(f"unknown g_e mode {mode!r}")


def _check_scale(x) -> None:
    """Rejects a size parameter outside the series' domain, 0 < x <= _MAX_X."""
    if not np.all(np.greater(x, 0)):
        raise DomainError("scale parameter must be positive")
    if not np.all(np.less_equal(x, _MAX_X)):
        raise DomainError(f"scale parameter up to {np.max(x):g} above the "
                          f"series' domain (x <= {_MAX_X:g})")


def truncation_order(x):
    """Series cutoff floor(x + 4 x^(1/3) + 2) (Wiscombe 1980), clamped to
    at least 1, for 0 < x <= _MAX_X (an int, or an int array for an array
    of x)."""
    _check_scale(x)
    n = np.maximum(np.floor(x + 4 * x ** (1 / 3) + 2), 1).astype(int)
    return n if n.ndim else int(n)


def _normalize_m(m: complex) -> complex:
    m = complex(m)
    if not (cmath.isfinite(m) and m.real > 0):
        raise DomainError(f"refractive index must be finite with Re(m) > 0, got {m}")
    return complex(m.real, abs(m.imag))


def _order_counts(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Layout of an order-major ragged array over sizes whose rows are in
    descending order: order n = 1..rows[0] holds the counts[n - 1] sizes
    that reach it (a prefix of the batch), from offsets[n - 1]."""
    counts = np.searchsorted(-rows, -np.arange(1, rows[0] + 1), side="right")
    return counts, np.cumsum(counts) - counts


def _blocks(counts: list[int]):
    """Order blocks [k, end) over orders 1..len(counts), counts[n - 1] sizes
    running at order n. A block is as wide as the count at its first order
    and holds at most _CHUNK_TERMS terms (one order at least). It ends early
    where fewer than half its sizes still run, once it holds a quarter of
    _CHUNK_TERMS: a block costs about 75 numpy calls, whatever its size."""
    falling = [-c for c in counts]             # ascending, for bisect
    k, top = 1, len(counts)
    while k <= top:
        w = counts[k - 1]
        halved = bisect.bisect_left(falling, -((w - 1) // 2)) + 1
        end = min(top + 1, k + max(1, _CHUNK_TERMS // w),
                  max(halved, k - (-_CHUNK_TERMS // (4 * w))))
        yield k, end
        k = end


class _Scratch:
    """Work arrays that the order blocks of a call share by role, carved
    from one block (zero-filled for the roles in `zeroed`). A fresh array's
    pages fault on first touch, at about the cost of a numpy pass over them:
    three runs of the kdust-fscan pool made about 7 thousand page faults
    with one block per call, no more than the imports make, and 50 to 90
    thousand with an array per role.

    An array's shape ends in a grid of orders x sizes; each role holds
    roles[role] bytes per grid cell (its largest use), for at least
    `cells` cells."""

    def __init__(self, roles: dict[str, int], cells: int = 0,
                 zeroed: tuple[str, ...] = ()):
        self._roles, self._zeroed = roles, zeroed
        self._cells = -1
        self._reserve(cells)

    def _reserve(self, cells: int) -> None:
        self._block = None                     # freed before its successor
        self._block = np.empty(sum(self._roles.values()) * cells, np.uint8)
        self._cells = cells
        starts = np.cumsum([0, *self._roles.values()])[:-1] * cells
        self._start = dict(zip(self._roles, starts.tolist()))
        for role in self._zeroed:
            start = self._start[role]
            self._block[start:start + self._roles[role] * cells] = 0

    def __call__(self, role: str, shape: tuple, dtype=float) -> np.ndarray:
        """An uninitialised array for this role, over the same memory as
        the role's earlier arrays unless the block had to grow."""
        cells = shape[-2] * shape[-1]
        if cells > self._cells:
            self._reserve(cells)
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


def _scaled_ratio(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """s_n(z) = z psi_{n-1}(z) / psi_n(z) = z D_n(z) + n for each row of z,
    a (k, w) array, at orders n = 1..rows[i], with rows and |z| in
    descending order; D_n = psi_n' / psi_n is the log-derivative.

    One downward recurrence, s_{n-1} = (2n - 1) - z^2 / s_n, runs over the
    batch in lockstep. Row i starts from D = 0 at `_start_orders`, where
    that seed is forgotten; the rows running at an order are a prefix of
    the batch, and the w values of a row take the same steps. The result is
    ragged and order-major, (sum(rows), w)."""
    k, w = z.shape
    start = _start_orders(z, rows)
    running = (np.searchsorted(-start, -np.arange(start[0] + 1), side="right")
               * w).tolist()
    counts, offsets = _order_counts(rows)
    stored, offsets = (counts * w).tolist(), (offsets * w).tolist()
    z2 = (z * z).ravel()
    s = np.repeat(start, w).astype(complex)    # s_start = start: D_start = 0
    t = np.empty(k * w, complex)
    sn = np.empty(sum(stored), complex)
    # 2 order - 1 as 0-d arrays, which a ufunc takes faster than an int or a
    # numpy scalar
    odd = np.nditer(np.arange(2 * start[0] - 1, 2, -2, dtype=complex))
    p, top = 0, len(stored)
    for order, c in zip(range(start[0], 1, -1), odd):
        if running[order] != p:                # views of the rows now running
            p = running[order]
            z2p, sp, tp = z2[:p], s[:p], t[:p]
        np.divide(z2p, sp, tp)
        np.subtract(c, tp, sp)                 # s_{order-1}
        if order <= top + 1:
            st, o = stored[order - 2], offsets[order - 2]
            sn[o:o + st] = s[:st]
    return sn.reshape(-1, w)


def _riccati_psi(z: np.ndarray, s: np.ndarray, out: np.ndarray | None = None,
                 prev: np.ndarray | None = None) -> np.ndarray:
    """psi_n(z) = z j_n(z) for n = k - 1..k - 1 + len(s), given s_n(z) =
    s[n - k] for the orders from k: the ratios psi_n / psi_{n-1} = z / s_n
    times prev = psi_{k-1}(z) if given; otherwise k = 1, anchored to the
    closed form of psi_0 or psi_1, whichever is farther from a zero.
    Written to out if given."""
    psi = out if out is not None else np.empty((s.shape[0] + 1, z.size),
                                               np.result_type(z, s))
    # row 0 first: prev may lie in the memory of out's later rows
    psi[0] = np.sin(z) if prev is None else prev
    ratio = np.divide(z, s, out=psi[1:])
    if prev is None:
        psi1 = psi[0] / z - np.cos(z)
        ratio[0] = np.where(np.abs(psi[0]) >= np.abs(psi1), ratio[0] * psi[0], psi1)
    else:
        ratio[0] *= psi[0]
    np.cumprod(ratio, axis=0, out=ratio)
    return psi


def _riccati_eta(z: np.ndarray, t: np.ndarray, out: np.ndarray | None = None,
                 prev: np.ndarray | None = None) -> np.ndarray:
    """eta_n(z) = z y_n(z) for n = k - 1..k - 1 + len(t), given t_n(z) =
    t[n - k] for the orders from k (see `_series`): eta_n = eta_{n-1}
    times z / t_n, from prev = eta_{k-1}(z) if given; otherwise k = 1,
    eta_0 = -cos z, and t[0] holds eta_1(z). Written to out if given."""
    eta = out if out is not None else np.empty((t.shape[0] + 1, z.size),
                                               np.result_type(z, t))
    eta[0] = -np.cos(z) if prev is None else prev   # first (see `_riccati_psi`)
    k = 1 if prev is None else 0
    np.divide(z, t[k:], out=eta[1 + k:])
    eta[1] = t[0] if prev is None else eta[1] * eta[0]
    np.cumprod(eta[1:], axis=0, out=eta[1:])
    return eta


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


def _first_ratio(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s_1(z) = z psi_0(z) / psi_1(z) and s_2(z), which start the upward
    recurrence at n = 3, for z in descending order of |z|. From |z| = 0.6
    up, s_1 = z / (1/z - cot z), which stays finite where sin z would
    overflow, and s_2 = z^2 / (3 - s_1). Below it 1/z - cot z cancels to
    about z/3, losing some 3/|z|^2 ulps, and 3 - s_1 to about z^2/5, so both
    come from S = 1 + z^2 T (`_S1_SERIES`): s_1 = 3 / S and s_2 = S / (3 T)."""
    s1, s2 = np.empty_like(z), np.empty_like(z)
    k = np.count_nonzero(np.abs(z) >= 0.6)     # the first k sizes
    big = z[:k]
    np.divide(big, 1 / big - 1 / np.tan(big), out=s1[:k])
    np.divide(big * big, 3 - s1[:k], out=s2[:k])
    if k < z.size:
        z2 = z[k:] * z[k:]
        t = z2 * _S1_SERIES[-1]
        for c in _S1_SERIES[-2:0:-1]:
            t += c
            t *= z2
        t += _S1_SERIES[0]
        s = z2 * t
        s += 1
        np.divide(3, s, out=s1[k:])
        np.divide(s, 3 * t, out=s2[k:])
    return s1, s2


class _SeriesSum:
    """The sums x^2 Q_ext / 2 = sum (2n + 1) Re(a_n + b_n) of sizes in
    descending order of x, each over its rows orders in order of n, block by
    block (see `_blocks`): psi_{n-1}(x), eta_{n-1}(x) and the partial sums
    carry over, so a size's Q_ext depends on neither its batch nor its blocks."""

    # The scratch roles of `add`, in bytes per (order, size) cell, and those
    # whose unwritten parts must read as zero
    ROLES = {"num": 32, "f_part": 32, "pair": 16, "s_t": 16, "psi": 16,
             "eta": 16, "unused": 1}
    ZEROED = ("psi", "eta")

    def __init__(self, x: np.ndarray, m: complex, g_e: np.ndarray,
                 rows: np.ndarray, scratch: _Scratch | None = None):
        self.x, self.m, self.g_e, self.rows = x, m, g_e, rows
        self.scratch = scratch or _Scratch(self.ROLES, zeroed=self.ZEROED)
        self.order = 1                         # of the next block's first row
        self.psi = self.eta = None             # psi and eta at order - 1
        # -0 + t is t for every t, so each sum starts exactly at its first term
        self.total = np.full(x.size, -0.0)

    def add(self, s_t: np.ndarray, m_d: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
        """Sums the next block, s_t = s_n(x) + i t_n(x) (eta_1(x) at n = 1)
        and m_d = s_n(mx) over its orders and sizes, which it overwrites, and
        returns their charged (a_n, b_n). With every term of the charged
        numerators and denominators divided by psi_n(mx), and xi_n(x) =
        psi_n(x) + i eta_n(x), both take the form

            a_n = A(psi) / (A(psi) + i A(eta)),  A(f) = D_n(mx) f - (g_e D_n(mx) + m) f'
            b_n = B(psi) / (B(psi) + i B(eta)),  B(f) = (g_e - m D_n(mx)) f + f'

        with psi_n' = D_n(x) psi_n. A and B are evaluated together, as the
        two rows of one stacked array: on psi as (D_n(mx) - (g_e D_n(mx)
        + m) D_n(x)) psi and (g_e - m D_n(mx) + D_n(x)) psi, so that an
        index-matched sphere gets exactly zero, and on eta. The arrays come
        from the scratch and hold until its next use.
        """
        scratch, m = self.scratch, self.m
        top, w = s_t.shape
        x, rows, g_e = self.x[:w], self.rows[:w], self.g_e[:w]
        shape, stacked = (top, w), (2, top, w)
        n = np.arange(self.order, self.order + top)[:, None]
        self.order += top
        unused = np.greater(n, rows, out=scratch("unused", shape, bool))
        n = n.astype(float)
        # Each role's memory holds, in turn, the arrays named beside it
        num = scratch("num", stacked, complex)     # m_d; num
        pair = scratch("pair", shape, complex)     # a_df
        d_x, deta = s_t.real, s_t.imag             # made D_n(x) + i eta_n'

        # psi_n + 0i and 0 + i eta_n from order - 1: only these parts are
        # ever written, so the others stay zero (ZEROED)
        psi = scratch("psi", (top + 1, w), complex)
        eta = scratch("eta", (top + 1, w), complex)
        first = self.psi is None               # anchors psi and eta
        with np.errstate(all="ignore"):
            _riccati_psi(x, d_x, psi.real, None if first else self.psi[:w])
            _riccati_eta(x, deta, eta.imag, None if first else self.eta[:w])
            self.psi, self.eta = psi.real[top], eta.imag[top]
            # D_n = (s_n - n) / z. Both halves multiply by the one 1 / x, so
            # an index-matched sphere gets D_n(mx) == D_n(x) bit for bit.
            inv_x = 1 / x
            d_x -= n
            d_x *= inv_x                           # D_n(x)
            m_d.real -= n
            m_d *= inv_x if m_d.dtype.kind == "f" else inv_x + 0j  # m D_n(mx)

            # f_part: the factors of f in A (row 0) and B (row 1); a_df:
            # that of f' in A, -(g_e D_n(mx) + m)
            g = g_e[None, :]
            f_part = scratch("f_part", stacked, complex)   # f_part; den; terms
            d_mx = np.multiply(m_d, 1 / m, out=f_part[0])
            np.subtract(g, m_d, out=f_part[1])
            a_df = np.multiply(-g, d_mx, out=pair)
            a_df -= m
            # a_df D_n(x) part by part, which spares numpy a complex copy
            # of D_n(x)
            np.multiply(a_df.real, d_x, out=num[0].real)
            np.multiply(a_df.imag, d_x, out=num[0].imag)
            num[0] += d_mx
            num[1] = f_part[1]
            num[1].real += d_x
            num *= psi[1:]                         # A(psi), B(psi)

            # s_t becomes i eta_n' = i (eta_{n-1} - (n/x) eta_n)
            np.multiply(n, inv_x, out=deta)
            deta *= eta.imag[1:]
            np.subtract(eta.imag[:-1], deta, out=deta)
            d_x[...] = 0
            den = f_part
            den *= eta[1:]
            den[0] += np.multiply(a_df, s_t, out=a_df)
            den[1] += s_t                          # i A(eta), i B(eta)
            den += num
            small = np.abs(den, out=scratch("pair", stacked)) < _DENOM_FLOOR
            if small.any() and np.greater(small, unused).any():
                raise SingularDenominatorError(
                    f"singular Mie denominator (x in [{x.min():g}, {x.max():g}], m={m})")
            num /= den

            # the partial sums, then (2n + 1) Re(a_n + b_n) zeroed above each
            # size's orders (adding exactly nothing). numpy reduces a 2-D array
            # along its rows in order, but a lone column pairwise: cumsum it.
            terms = scratch("f_part", (top + 1, w))
            np.add(num[0].real, num[1].real, out=terms[1:])
            terms[1:] *= 2.0 * n + 1
            np.copyto(terms[1:], 0.0, where=unused)
            terms[0] = self.total[:w]
            if w == 1:
                self.total[:1] = terms.cumsum(axis=0, out=terms)[-1]
            else:
                np.add.reduce(terms, axis=0, out=self.total[:w])
        return num[0], num[1]


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


def _series(x: np.ndarray, m: complex, g_e: np.ndarray, rows: np.ndarray,
            scratch: _Scratch | None = None, store: np.ndarray | None = None
            ) -> np.ndarray:
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
    the lane's values into all its columns."""
    upward = store is None
    series = _SeriesSum(x, m, g_e, rows, scratch)
    counts = _order_counts(rows)[0].tolist()
    tail, ends = _scalar_tail(x, counts)
    cos_x, x2 = np.cos(x), x * x
    eta1 = -cos_x / x - np.sin(x)
    seeds = [eta1, x2 / (3 + x * cos_x / eta1)]   # eta_1, then t_2 = x^2 / (3 - t_1)
    del cos_x, eta1                            # spent before the blocks' peak
    # 2n - 1, iterated as 0-d arrays, which a ufunc takes faster than an int
    # or a numpy scalar
    odd = np.arange(1, 2 * len(counts), 2.0)
    per = 2 if upward else 1                   # values a size in the x vector
    if upward:
        mx = m.real * x if m.imag == 0 else m * x
        seeds_mx, odd_mx = _first_ratio(mx), odd.astype(mx.dtype)
        seeds = [np.stack(p, axis=1).reshape(-1)
                 for p in zip(_first_ratio(x), seeds)]
        x2, mx2, prev_mx = np.repeat(x2, 2), mx * mx, seeds_mx[1]
        # a lane's s_n(mx) in floats, or in numpy complex128 scalars
        scalars = np.ndarray.tolist if mx.dtype.kind == "f" else list
    else:
        flat, offsets = store.reshape(-1), 2 * _order_counts(rows)[1]
    prev, c = seeds[1], x.size
    lanes = []                                 # (columns, last order, ratios)
    subtract, divide = np.subtract, np.divide
    for k, end in _blocks(counts):
        w = counts[k - 1]
        shape = (end - k, w)
        s_t = series.scratch("s_t", shape, complex)
        m_d = series.scratch("num", shape, mx.dtype if upward else complex)
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
    return 2 / x**2 * series.total


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
        pairs = np.stack((m * x[run], x[run].astype(complex)), axis=1)
        try:
            store = _scaled_ratio(pairs, rows[run])
        except DomainError as exc:
            raise DomainError(f"refractive index {m} at x = {x[begin]:g}: "
                              f"{exc}") from None
        q[run] = _series(x[run], m, g_e[run], rows[run], scratch, store=store)
        begin = end
    return q


def _qext(x: np.ndarray, m: complex, g_e: np.ndarray) -> np.ndarray:
    """Q_ext over 1-D arrays of x and g_e, each series summed to its
    `truncation_order` and no further (the error this leaves is pinned by
    tests/test_mie.py::TestTruncation): the sizes of `_steps_upward`, then
    the rest, each in descending order of x and on their route's recurrences,
    their order blocks sharing one block of work arrays."""
    m = _normalize_m(m)
    rows = truncation_order(x)
    q = np.empty(x.size)
    order = np.argsort(-x, kind="stable")
    upward = _steps_upward(x[order], m)
    # a block's terms and its rows of psi_{k-1} and eta_{k-1}, for w <= _CHUNK_TERMS
    scratch = _Scratch(_SeriesSum.ROLES,
                       min(_CHUNK_TERMS + x.size, (int(rows.max(initial=0)) + 1) * x.size),
                       _SeriesSum.ZEROED)
    with np.errstate(all="ignore"):            # an overflow fails below
        for route, series in ((True, _series), (False, _downward_series)):
            sizes = order[upward == route]
            if sizes.size:
                q[sizes] = series(x[sizes], m, g_e[sizes], rows[sizes], scratch)
    if not np.isfinite(q).all():               # an overflow
        raise RecurrenceOverflowError(
            f"overflow in the Mie series (x in [{x.min():g}, {x.max():g}], m={m})")
    return q


def _size_and_charge(radius, frequency, electrons, temperature, mode):
    """Size parameter and charge coefficient g_e of spheres in a wave. A g_e
    beyond the float range (from radii near 1e-60 m) is a numerical failure.
    No k_dust table reaches such radii (its lattice starts near 1 nm), so
    only a `qext` x-sweep or a direct array call can."""
    if np.any(np.less_equal(frequency, 0)):
        raise DomainError("frequency must be positive")
    with np.errstate(all="ignore"):        # _check_scale rejects an inf or nan x
        wavelength = CONSTANTS.c / frequency
        if not np.all(np.isfinite(wavelength)):
            raise DomainError(f"frequency {np.min(frequency):g} Hz: wavelength overflows")
        x = scale_parameter(radius, wavelength)
    _check_scale(x)        # rejects an x beyond the series before r^2 overflows
    gamma_s = collision_frequency(temperature)
    with np.errstate(all="ignore"):
        omega = 2 * math.pi * frequency
        omega_s = surface_plasma_frequency(electrons, radius)
        try:
            g_e = charged_coefficient(x, omega, omega_s, gamma_s, mode=mode)
        except DomainError as exc:      # such as gamma_s / omega overflowing
            raise DomainError(f"frequency {np.min(frequency):g} Hz at temperature "
                              f"{temperature:g} K: {exc}") from None
    if not np.all(np.isfinite(g_e)):
        raise RecurrenceOverflowError(
            f"charge coefficient overflow (radius down to {np.min(radius):g} m)")
    return x, g_e


def extinction_efficiency_array(radius, frequency, electrons, temperature: float,
                                m: complex, mode: str = "full") -> np.ndarray:
    """Extinction efficiencies of charged spheres, evaluated as one batch.

    radius (m), frequency (Hz) and electrons broadcast against each other;
    the result has their broadcast shape.
    """
    radius, frequency, electrons = np.broadcast_arrays(
        np.asarray(radius, float), np.asarray(frequency, float),
        _electron_count(electrons))
    x, g_e = _size_and_charge(radius, frequency, electrons, temperature, mode)
    # approx mode gives a Python complex g_e for one sphere
    return _qext(x.ravel(), m, np.ravel(g_e)).reshape(x.shape)


def extinction_efficiency_x(x: float, m: complex, g_e: complex = 0j) -> float:
    """Extinction efficiency from the size parameter and charge coefficient."""
    return float(_qext(np.array([float(x)]), m, np.array([g_e], complex))[0])
