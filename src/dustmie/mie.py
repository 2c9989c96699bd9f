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
D_n = (s_n - n)/z is formed only when the series is summed. Each size takes
one of two routes, by its x and m alone:

- Upward, for x >= 1 and Re(m) >= 1 under Wiscombe's bound
  Im(m) x < 13.78 Re(m)^2 - 10.8 Re(m) + 3.9 (for 1.5+0.1j, x < 187): one
  loop steps s_n(mx), s_n(x) and t_n(x) together, f_n = z^2 / ((2n - 1) -
  f_{n-1}), only up to each size's own order. At x = 791 and 2-0.025j that
  is 830 steps where the downward seed starts at order 1,758.
- Downward, for every other size: s_{n-1} = (2n - 1) - z^2 / s_n from
  where the contraction of its steps has erased the seed, and no higher
  than Wiscombe's start, without overflow however strongly the sphere
  absorbs; and t_n upward in a second loop.

On grids of 3,000 x up to 2e3 with g_e = 0, 1e-3j, 1j and -5+50j, the two
routes agree within 6e-14 at 2-0.025j, 3+0.001j and 1.5+0.01j, 2.3e-13 at
1.33 (x up to 2e4), and 1.0e-11 at 1.0001 near x = 1, where Q_ext is about
1e-8. Upward steps drift for Re(m) < 1 (5e-2 at 0.8), so those sizes go
downward.

The upward sizes of a batch, then the rest, each in descending order of x,
go through the recurrences of their route in lockstep passes. Each loop
steps the sizes still running at an order (a prefix of the pass) as one
numpy vector and stores their values ragged and order-major: order n holds
only the sizes whose series reach n. The series are then summed in chunks of
similar truncation order, each gathered from that store into a dense
block, where psi_n and eta_n are formed from their ratios by a cumulative
product. The chunks of a call share one block of work arrays.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import DomainError, RecurrenceOverflowError, SingularDenominatorError

_MIN_RADIUS = 1e-9
_MAX_RADIUS = 1e-2
_DENOM_FLOOR = 1e-300
# Largest size parameter taken: up to here the series summed to
# `truncation_order` is pinned within 1e-8 of a longer sum (see
# tests/test_mie.py::TestTruncation), and a size's store stays near 1 MB.
_MAX_X = 2e4
# Ragged terms (orders x sizes) of one lockstep pass: its store of s_n(mx),
# the real s_n(x) and the eta ratios takes 1 MB at 32 B a term. Larger
# passes take fewer loop steps but more memory: a 3 THz table takes 1,549
# upward steps (and 27 downward) at 2^15 and 955 at 2^16. The 108
# one-column k_dust tables of the benchmark's kdust-fscan pool took 0.95 s
# and 0.82 s of CPU time at 2^15 and 2^16 on a 2-core host (best of 3, with
# runs spreading by 20 %), and a peak RSS of 32.8 and 35.5 MB.
_PASS_TERMS = 2**15
# Dense (orders + 1) x sizes of one chunk of the series sum: its work
# arrays, 129 B a term (`_Recurrences.ROLES`), stay under 1 MB, while a
# chunk of large spheres still spans several sizes.
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
    return 2 * math.pi * CONSTANTS.k_B * temperature / CONSTANTS.h_P


def charged_coefficient(x, omega, omega_s, gamma_s, mode: str = "full"):
    """Charge correction g_e (scalars or arrays).

    mode="full" keeps both the real and imaginary parts; mode="approx" drops
    the real part, valid when the collision frequency dominates the wave
    frequency (the whole THz band at room temperature).
    """
    if (np.any(np.less_equal(x, 0)) or np.any(np.less_equal(omega, 0))
            or gamma_s <= 0):
        raise DomainError("x, omega, gamma_s must be positive")
    # squares as products: numpy raises a 0-d result (one sphere) to a power
    # with the C library's pow, which can differ in the last bit from the
    # array square a batch takes
    if mode == "full":
        return ((x / 2) * (omega_s * omega_s) / (omega * omega + gamma_s * gamma_s)
                * (-1 + 1j * (gamma_s / omega)))
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


def _dense_index(layout: tuple[np.ndarray, np.ndarray], top: int, begin: int,
                 end: int, out: np.ndarray) -> np.ndarray:
    """Where sizes begin..end of an order-major ragged array sit, as a dense
    (top, end - begin) index block over the first top orders, written to
    out. Where a size stops short of an order, its entry points at another
    term (or past the end, which a take with mode="clip" reads as the last
    term); callers mask those entries."""
    return np.add(layout[1][:top, None], np.arange(begin, end), out=out)


class _Scratch:
    """Work arrays that the chunks of a pass, or the passes of a call,
    share by role, carved from one block (zero-filled for the roles in
    `zeroed`). A fresh array's pages
    fault on first touch, at about the cost of a numpy pass over them:
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
    running at an order stay a prefix of the batch."""
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
    return np.maximum.accumulate(start[::-1])[::-1].astype(int)


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


def _riccati_psi(z: np.ndarray, s: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
    """psi_n(z) = z j_n(z) for n = 0..len(s), given s_n(z) = s[n - 1]: the
    ratios psi_n / psi_{n-1} = z / s_n, anchored to the closed form of psi_0
    or psi_1, whichever is farther from a zero. Written to out if given."""
    sin_z = np.sin(z)
    psi = out if out is not None else np.empty((s.shape[0] + 1, z.size),
                                               np.result_type(z, s))
    psi[0] = sin_z
    ratio = psi[1:]
    np.divide(z, s, out=ratio)
    psi1 = sin_z / z - np.cos(z)
    ratio[0] = np.where(np.abs(sin_z) >= np.abs(psi1), ratio[0] * sin_z, psi1)
    np.cumprod(ratio, axis=0, out=ratio)
    return psi


def _eta_ratio(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """eta_1(z) and t_n(z) = z eta_{n-1}(z) / eta_n(z) for n = 2..rows[i]
    (rows >= 1, in descending order), with eta_n = z y_n, stored like
    `_scaled_ratio`'s values: ragged and order-major, (sum(rows),), with
    eta_1 in the slot of n = 1.

    One upward recurrence, t_{n+1} = z^2 / ((2n + 1) - t_n), runs over the
    batch in lockstep, stable for the dominant solution."""
    counts, offsets = (a.tolist() for a in _order_counts(rows))
    t = np.empty(sum(counts), np.result_type(z))
    cos_z = np.cos(z)
    eta1 = t[:counts[0]]
    np.subtract(-cos_z / z, np.sin(z), out=eta1)
    prev = -z * cos_z / eta1                   # t_1 = z eta_0 / eta_1, not stored
    z2 = z2c = z * z
    c = counts[0]
    # 2n + 1 as 0-d arrays (see `_scaled_ratio`)
    odd = np.nditer(np.arange(3, 2 * len(counts), 2.0), ["zerosize_ok"])
    for n, k in zip(range(1, len(counts)), odd):
        if counts[n] != c:                     # the sizes still running
            c = counts[n]
            z2c, prev = z2[:c], prev[:c]
        step = t[offsets[n]:offsets[n] + c]
        np.subtract(k, prev, step)
        np.divide(z2c, step, step)             # t_{n+1}
        prev = step
    return t


def _riccati_eta(z: np.ndarray, t: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
    """eta_n(z) = z y_n(z) for n = 0..len(t), given eta_1(z) = t[0] and
    t_n(z) = t[n - 1] for n >= 2 (see `_eta_ratio`): eta_0 = -cos z, and
    eta_n = eta_1 times the ratios eta_k / eta_{k-1} = z / t_k. Written to
    out if given."""
    eta = out if out is not None else np.empty((t.shape[0] + 1, z.size),
                                               np.result_type(z, t))
    eta[0] = -np.cos(z)
    eta[1] = t[0]
    np.divide(z, t[1:], out=eta[2:])
    np.cumprod(eta[1:], axis=0, out=eta[1:])
    return eta


def _steps_upward(x: np.ndarray, m: complex) -> np.ndarray:
    """Which sizes run their recurrences upward (`_upward_ratios`): x >= 1,
    Re(m) >= 1, and Wiscombe's (1980) bound for stepping D_n(mx) upward,
    Im(m) x < 13.78 Re(m)^2 - 10.8 Re(m) + 3.9."""
    bound = 13.78 * m.real**2 - 10.8 * m.real + 3.9
    return (x >= 1) & (m.real >= 1) & (m.imag * x < bound)


def _first_ratio(z: np.ndarray) -> np.ndarray:
    """s_1(z) = z psi_0(z) / psi_1(z) = z / (1/z - cot z), which stays
    finite where sin z would overflow."""
    return z / (1 / z - 1 / np.tan(z))


def _upward_ratios(x: np.ndarray, m: complex, rows: np.ndarray,
                   scratch: _Scratch | None = None):
    """s_n(mx) (see `_scaled_ratio`), and pairs (s_n(x), eta_1(x) or t_n(x))
    (see `_eta_ratio`), at orders n = 1..rows[i] for sizes x in descending
    order, ragged and order-major, from upward recurrences: (sum(rows),) and
    (sum(rows), 2) arrays.

    s_n and t_n obey the same recurrence, f_n = z^2 / ((2n - 1) - f_{n-1}),
    from s_1 (`_first_ratio`) and t_1 = -x cos x / eta_1. One loop steps the
    batch in lockstep up to each size's own order, writing each order
    straight into its slots with two ufunc calls for the pairs and two for
    s_n(mx). For a real m, s_n(mx) is real and takes the same float steps as
    s_n(x), so that an index-matched sphere gives exactly zero coefficients.
    Stable for the sizes of `_steps_upward`."""
    scratch = scratch or _Scratch({"stores": 8})
    counts, offsets = (a.tolist() for a in _order_counts(rows))
    k, total = x.size, sum(counts)
    mx = m.real * x if m.imag == 0 else m * x
    # both stores in one block
    block = scratch("stores", (1, total * (2 + mx.itemsize // 8)))[0]
    pairs = block[:2 * total].reshape(total, 2)
    s_mx = block[2 * total:].view(mx.dtype)
    cos_x = np.cos(x)
    eta1 = -cos_x / x - np.sin(x)
    prev = np.stack((_first_ratio(x), -x * cos_x / eta1), axis=1)  # s_1, t_1
    pairs[:k, 0] = prev[:, 0]
    pairs[:k, 1] = eta1                        # stored in t_1's slot
    s_mx[:k] = prev_mx = _first_ratio(mx)
    # the pairs are stepped as one flat vector, which a ufunc takes faster
    flat, prev = pairs.reshape(-1), prev.reshape(-1)
    x2, mx2 = np.repeat(x * x, 2), mx * mx
    # 2n - 1 as 0-d arrays (see `_scaled_ratio`)
    odd = np.arange(3, 2 * len(counts), 2.0)
    subtract, divide = np.subtract, np.divide
    c = k
    for n, o, k_x, k_mx in zip(range(1, len(counts)), offsets[1:],
                               np.nditer(odd, ["zerosize_ok"]),
                               np.nditer(odd.astype(mx.dtype), ["zerosize_ok"])):
        if counts[n] != c:                     # the sizes still running
            c = counts[n]
            x2, prev, mx2, prev_mx = x2[:2 * c], prev[:2 * c], mx2[:c], prev_mx[:c]
        step = flat[2 * o:2 * (o + c)]
        subtract(k_x, prev, step)
        divide(x2, step, step)
        prev = step
        step = s_mx[o:o + c]
        subtract(k_mx, prev_mx, step)
        divide(mx2, step, step)
        prev_mx = step
    return s_mx, pairs


@dataclass(frozen=True)
class _Recurrences:
    """The Bessel recurrences of a batch of sizes in descending order of x:
    s_n(mx) (see `_scaled_ratio`), and the pairs of the real s_n(x) and of
    eta_1(x) or t_n(x) (see `_eta_ratio`), each for n = 1..rows and stored
    ragged and order-major in one layout (32 B a term, 24 B for a real m
    upward). A pair is gathered as one complex number."""

    x: np.ndarray
    rows: np.ndarray
    s_mx: np.ndarray
    pairs: np.ndarray
    layout: tuple[np.ndarray, np.ndarray]

    # The scratch roles of `coefficients`, in bytes per (order, size) cell,
    # and those whose unwritten parts must read as zero
    ROLES = {"num": 32, "f_part": 32, "pair": 16, "s_t": 16, "psi": 16,
             "eta": 16, "unused": 1}
    ZEROED = ("psi", "eta")

    @classmethod
    def run(cls, x: np.ndarray, m: complex, rows: np.ndarray) -> "_Recurrences":
        """Downward, for any sizes and any rows."""
        # s_n for z = m x and z = x as one pair per size. Sharing the steps
        # makes an index-matched sphere (m = 1, g_e = 0) give exactly zero
        # coefficients.
        sn = _scaled_ratio(np.stack((m * x, x.astype(complex)), axis=1), rows)
        s_mx, pairs = sn[:, 0].copy(), np.empty((sn.shape[0], 2))
        pairs[:, 0] = sn[:, 1].real
        del sn                                 # before the eta store
        pairs[:, 1] = _eta_ratio(x, rows)
        return cls(x, rows, s_mx, pairs, _order_counts(rows))

    @classmethod
    def upward(cls, x: np.ndarray, m: complex, rows: np.ndarray,
               scratch: _Scratch | None = None) -> "_Recurrences":
        """Upward, for sizes where `_steps_upward` holds, to their
        truncation orders, with the stores from scratch if given."""
        return cls(x, rows, *_upward_ratios(x, m, rows, scratch),
                   _order_counts(rows))

    def series(self, m: complex, g_e: np.ndarray,
               scratch: _Scratch | None = None) -> np.ndarray:
        """Q_ext of every size, each series summed over its rows orders in
        chunks of at most _CHUNK_TERMS dense terms (one more order than the
        chunk's top, for psi_0 and eta_0). A sum that is not finite is an
        overflow."""
        scratch = scratch or _Scratch(self.ROLES, zeroed=self.ZEROED)
        q = np.empty(self.x.size)
        begin = 0
        while begin < self.x.size:
            end = min(self.x.size, begin + max(
                1, _CHUNK_TERMS // (int(self.rows[begin]) + 1)))
            q[begin:end] = _series(self.x[begin:end], self.rows[begin:end],
                                   *self.coefficients(m, g_e, begin, end, scratch))
            begin = end
        if not np.isfinite(q).all():
            raise RecurrenceOverflowError(
                f"overflow in the Mie series (x in [{self.x.min():g}, "
                f"{self.x.max():g}], m={m})")
        return q

    def coefficients(self, m: complex, g_e: np.ndarray, begin: int, end: int,
                     scratch: _Scratch | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Charged (a_n, b_n) for sizes begin..end: two (rows[begin],
        end - begin) arrays, whose column i holds orders 1..rows[i] (and
        anything above them). With every term of the charged numerators and
        denominators divided by psi_n(mx), and xi_n(x) = psi_n(x) + i eta_n(x)
        (eta_n = x y_n), both coefficients take the form

            a_n = A(psi) / (A(psi) + i A(eta)),  A(f) = D_n(mx) f - (g_e D_n(mx) + m) f'
            b_n = B(psi) / (B(psi) + i B(eta)),  B(f) = (g_e - m D_n(mx)) f + f'

        with psi_n' = D_n(x) psi_n. A and B are evaluated together, as the
        two rows of one stacked array: on psi as (D_n(mx) - (g_e D_n(mx)
        + m) D_n(x)) psi and (g_e - m D_n(mx) + D_n(x)) psi, so that an
        index-matched sphere gets exactly zero, and on eta. The arrays come
        from scratch (fresh ones without it) and hold until its next use.
        """
        scratch = scratch or _Scratch(self.ROLES, zeroed=self.ZEROED)
        x, rows, g_e = self.x[begin:end], self.rows[begin:end], g_e[begin:end]
        top = int(rows[0])
        shape, stacked = (top, x.size), (2, top, x.size)
        n = np.arange(1, top + 1)[:, None]
        unused = np.greater(n, rows, out=scratch("unused", shape, bool))
        n = n.astype(float)
        # Each role's memory holds, in turn, the arrays named beside it
        pair = scratch("pair", shape, complex)     # dense index; a_df
        at = _dense_index(self.layout, top, begin, end,
                          scratch("pair", shape, np.intp))
        # s_n(x) + i t_n(x), made D_n(x) + i eta_n' in place
        s_t = self.pairs.view(complex).reshape(-1).take(
            at, out=scratch("s_t", shape, complex), mode="clip")
        num = scratch("num", stacked, complex)     # m_d; num
        m_d = self.s_mx.take(at, out=scratch("num", shape, self.s_mx.dtype),
                             mode="clip")
        d_x, deta = s_t.real, s_t.imag

        # psi_n + 0i and 0 + i eta_n: only these parts are ever written, so
        # the others stay zero from the block's allocation (ZEROED)
        psi = scratch("psi", (top + 1, x.size), complex)
        eta = scratch("eta", (top + 1, x.size), complex)

        with np.errstate(all="ignore"):
            _riccati_psi(x, d_x, psi.real)
            _riccati_eta(x, deta, eta.imag)
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
            f_part = scratch("f_part", stacked, complex)   # f_part; den
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
            return num[0], num[1]


def _series(x: np.ndarray, rows: np.ndarray, a: np.ndarray,
            b: np.ndarray) -> np.ndarray:
    """Q_ext = 2/x^2 sum (2n + 1) Re(a_n + b_n) over orders n = 1..rows of
    the columns of a and b.

    Each column is summed in order of n, whatever the chunk's width: numpy
    reduces a 2-D array along its rows in order, but a lone column pairwise,
    so that one is summed cumulatively. The terms above a column's own
    orders are zeroed and add exactly nothing, so a size's Q_ext does not
    depend on its chunk."""
    n = np.arange(1, a.shape[0] + 1)[:, None]
    terms = np.add(a.real, b.real)
    terms *= 2.0 * n + 1
    np.copyto(terms, 0.0, where=n > rows)
    total = (terms.cumsum(axis=0, out=terms)[-1] if terms.shape[1] == 1
             else np.add.reduce(terms, axis=0))
    return 2 / x**2 * total


def _qext(x: np.ndarray, m: complex, g_e: np.ndarray) -> np.ndarray:
    """Q_ext over 1-D arrays of x and g_e, each series summed to its
    `truncation_order` and no further (the error this leaves is pinned by
    tests/test_mie.py::TestTruncation).

    The sizes of `_steps_upward`, then the rest, each in descending order
    of x, go in lockstep passes of at most _PASS_TERMS ragged terms, each
    running the recurrences of its route once; a pass sums its series in
    chunks of at most _CHUNK_TERMS dense terms."""
    m = _normalize_m(m)
    rows = truncation_order(x)
    q = np.empty(x.size)
    order = np.argsort(-x, kind="stable")
    upward = _steps_upward(x[order], m)
    scratch = _Scratch(_Recurrences.ROLES,
                       min(_CHUNK_TERMS, (int(rows.max(initial=0)) + 1) * x.size),
                       _Recurrences.ZEROED)
    for route in (True, False):
        sizes = order[upward == route]
        # the upward passes share one store, freed before a downward pass
        stores = _Scratch({"stores": 8}) if route else None
        total = np.concatenate(([0], np.cumsum(rows[sizes])))
        begin = 0
        while begin < sizes.size:
            end = max(begin + 1, int(np.searchsorted(
                total, total[begin] + _PASS_TERMS, side="right")) - 1)
            run = sizes[begin:end]
            rec = (_Recurrences.upward(x[run], m, rows[run], stores) if route
                   else _Recurrences.run(x[run], m, rows[run]))
            q[run] = rec.series(m, g_e[run], scratch)
            del rec                            # before the next pass's store
            begin = end
    return q


def _size_and_charge(radius, frequency, electrons, temperature, mode):
    """Size parameter and charge coefficient g_e of spheres in a wave. A g_e
    beyond the float range (from radii near 1e-60 m) is a numerical failure."""
    if np.any(np.less_equal(frequency, 0)):
        raise DomainError("frequency must be positive")
    x = scale_parameter(radius, CONSTANTS.c / frequency)
    _check_scale(x)        # rejects an x beyond the series before r^2 overflows
    with np.errstate(all="ignore"):
        omega_s = surface_plasma_frequency(electrons, radius)
        g_e = charged_coefficient(x, 2 * math.pi * frequency, omega_s,
                                  collision_frequency(temperature), mode=mode)
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
