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
derivative D_n(mx) = psi_n'(mx)/psi_n(mx), which a downward recurrence gives
without overflow however strongly the sphere absorbs. The recurrence runs in
scaled-ratio form, s_{n-1} = (2n - 1) - z^2 / s_n for
s_n = z psi_{n-1}(z)/psi_n(z) = z D_n(z) + n, at one complex divide and one
subtract an order; D_n = (s_n - n)/z is formed only when the series is
summed. Each size starts the recurrence where the contraction of its steps
has erased the seed, and no higher than Wiscombe's start. The
Riccati-Bessel functions of x come from the same recurrence
(psi_n/psi_{n-1} = x/s_n) and from an upward one in the same ratio form,
t_{n+1} = x^2 / ((2n + 1) - t_n) for t_n = x eta_{n-1}(x)/eta_n(x).

The sizes of a batch, in descending order of x, go through the recurrences
in lockstep passes. Each recurrence makes one loop over the orders of a
pass, stepping the sizes still running at each order (a prefix of the pass)
as one numpy vector, and stores its values ragged and order-major: order n
holds only the sizes whose series reach n. The series are then summed in
chunks of similar truncation order, each gathered from that store into a
dense block, where psi_n and eta_n are formed from their ratios by a
cumulative product.
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
# passes take fewer loop steps but more memory: a 3 THz table takes 3,345
# downward steps at 2^15 and 2,053 at 2^16 (the same with every size started
# at Wiscombe's order). The 108 one-column k_dust tables of the benchmark's
# kdust-fscan pool took 1.23 s and 1.21 s of CPU time at 2^15 and 2^16 on a
# 2-core host (best of 3, with runs spreading by 10 %), and a peak RSS of
# 32.2 and 33.7 MB.
_PASS_TERMS = 2**15
# Dense orders x sizes of one chunk of the series sum: its working arrays
# stay near 1 MB, while a chunk of large spheres still spans several sizes.
_CHUNK_TERMS = 8192
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
    return np.sqrt(2 * CONSTANTS.e * phi / (CONSTANTS.m_e * radius**2))


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
    if mode == "full":
        return (x / 2) * omega_s**2 / (omega**2 + gamma_s**2) * (-1 + 1j * (gamma_s / omega))
    if mode == "approx":
        return 1j * x * omega_s**2 / (2 * gamma_s * omega)
    raise DomainError(f"unknown g_e mode {mode!r}")


def truncation_order(x):
    """Series cutoff floor(x + 4 x^(1/3) + 2) (Wiscombe 1980), clamped to
    at least 1, for 0 < x <= _MAX_X (an int, or an int array for an array
    of x)."""
    if not np.all(np.greater(x, 0)):
        raise DomainError("scale parameter must be positive")
    if not np.all(np.less_equal(x, _MAX_X)):
        raise DomainError(f"scale parameter up to {np.max(x):g} above the "
                          f"series' domain (x <= {_MAX_X:g})")
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
                 end: int) -> np.ndarray:
    """Where sizes begin..end of an order-major ragged array sit, as a dense
    (top, end - begin) index block over the first top orders. Where a size
    stops short of an order, the block repeats the last size that reaches
    it; callers mask those entries."""
    counts, offsets = (a[:top, None] for a in layout)
    return offsets + np.minimum(np.arange(begin, end), counts - 1)


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


def _riccati_psi(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """psi_n(z) = z j_n(z) for n = 0..len(s), given s_n(z) = s[n - 1]: the
    ratios psi_n / psi_{n-1} = z / s_n, anchored to the closed form of psi_0
    or psi_1, whichever is farther from a zero."""
    sin_z = np.sin(z)
    psi = np.empty((s.shape[0] + 1, z.size), np.result_type(z, s))
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


def _riccati_eta(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """eta_n(z) = z y_n(z) for n = 0..len(t), given eta_1(z) = t[0] and
    t_n(z) = t[n - 1] for n >= 2 (see `_eta_ratio`): eta_0 = -cos z, and
    eta_n = eta_1 times the ratios eta_k / eta_{k-1} = z / t_k."""
    eta = np.empty((t.shape[0] + 1, z.size), np.result_type(z, t))
    eta[0] = -np.cos(z)
    eta[1] = t[0]
    np.divide(z, t[1:], out=eta[2:])
    np.cumprod(eta[1:], axis=0, out=eta[1:])
    return eta


@dataclass(frozen=True)
class _Recurrences:
    """The Bessel recurrences of a batch of sizes in descending order of x:
    s_n(mx) and the real s_n(x) (see `_scaled_ratio`), and eta_1(x) and the
    ratios t_n(x) (see `_eta_ratio`), each for n = 1..rows and stored ragged
    and order-major in one layout (32 B a term)."""

    x: np.ndarray
    rows: np.ndarray
    s_mx: np.ndarray
    s_x: np.ndarray
    eta: np.ndarray
    layout: tuple[np.ndarray, np.ndarray]

    @classmethod
    def run(cls, x: np.ndarray, m: complex, rows: np.ndarray) -> "_Recurrences":
        # s_n for z = m x and z = x as one pair per size. Sharing the steps
        # makes an index-matched sphere (m = 1, g_e = 0) give exactly zero
        # coefficients.
        sn = _scaled_ratio(np.stack((m * x, x.astype(complex)), axis=1), rows)
        s_mx, s_x = sn[:, 0].copy(), sn[:, 1].real.copy()
        del sn                                 # before the eta store
        return cls(x, rows, s_mx, s_x, _eta_ratio(x, rows),
                   _order_counts(rows))

    def series(self, m: complex, g_e: np.ndarray) -> np.ndarray:
        """Q_ext of every size, each series summed over its rows orders in
        chunks of at most _CHUNK_TERMS dense terms."""
        q = np.empty(self.x.size)
        begin = 0
        while begin < self.x.size:
            end = min(self.x.size,
                      begin + max(1, _CHUNK_TERMS // int(self.rows[begin])))
            # no names hold a chunk's (a_n, b_n) while the next is built
            q[begin:end] = _series(self.x[begin:end],
                                   *self.coefficients(m, g_e, begin, end))
            begin = end
        return q

    def coefficients(self, m: complex, g_e: np.ndarray, begin: int,
                     end: int) -> tuple[np.ndarray, np.ndarray]:
        """Charged (a_n, b_n) for sizes begin..end: two (rows[begin],
        end - begin) arrays, whose column i holds orders 1..rows[i] and zeros
        above. With every term of the charged numerators and denominators
        divided by psi_n(mx), and xi_n(x) = psi_n(x) + i eta_n(x)
        (eta_n = x y_n), both coefficients take the form

            a_n = A(psi) / (A(psi) + i A(eta)),  A(f) = D_n(mx) (f - g_e f') - m f'
            b_n = B(psi) / (B(psi) + i B(eta)),  B(f) = f' + (g_e - m D_n(mx)) f
        """
        x, rows, g_e = self.x[begin:end], self.rows[begin:end], g_e[begin:end]
        top = int(rows[0])
        n = np.arange(1, top + 1)[:, None]
        at = _dense_index(self.layout, top, begin, end)

        with np.errstate(all="ignore"):
            eta = _riccati_eta(x, np.take(self.eta, at))
            dpsi = np.take(self.s_x, at)           # s_n(x), made psi_n' in place
            psi = _riccati_psi(x, dpsi)[1:]
            # D_n = (s_n - n) / z. Both halves multiply by the one 1 / x, so
            # an index-matched sphere gets D_n(mx) == D_n(x) bit for bit.
            inv_x = 1 / x
            dpsi -= n
            dpsi *= inv_x                          # D_n(x)
            dpsi *= psi                            # psi_n' = D_n(x) psi_n
            d_mx = np.take(self.s_mx, at)
            d_mx -= n
            d_mx *= inv_x
            d_mx /= m                              # D_n(mx)
            deta = n / x * eta[1:]
            np.subtract(eta[:-1], deta, out=deta)
            eta = eta[1:]

            g = g_e[None, :]

            def a_part(f, df):
                out = g * df
                np.subtract(f, out, out=out)
                out *= d_mx
                out -= m * df
                return out

            def b_part(f, df):
                out = shift * f
                out += df
                return out

            used = n <= rows

            def ratio(num, other):
                """num / (num + i other), checked and zeroed above each
                column's own orders."""
                den = other
                den *= 1j
                den += num
                if np.any(used & (np.abs(den) < _DENOM_FLOOR)):
                    raise SingularDenominatorError(
                        f"singular Mie denominator (x in [{x.min():g}, {x.max():g}], m={m})")
                num /= den
                num[~used] = 0
                if not np.isfinite(num).all():
                    raise RecurrenceOverflowError(
                        f"overflow in the Mie series (x in [{x.min():g}, {x.max():g}], m={m})")
                return num

            a = ratio(a_part(psi, dpsi), a_part(eta, deta))
            shift = d_mx                           # g_e - m D_n(mx), in place
            shift *= -m
            shift += g
            return a, ratio(b_part(psi, dpsi), b_part(eta, deta))


def _series(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Q_ext = 2/x^2 sum (2n + 1) Re(a_n + b_n) over the rows of a and b."""
    n = np.arange(1, a.shape[0] + 1)[:, None]
    return 2 / x**2 * ((2 * n + 1) * (a + b).real).sum(axis=0)


def _qext(x: np.ndarray, m: complex, g_e: np.ndarray) -> np.ndarray:
    """Q_ext over 1-D arrays of x and g_e, each series summed to its
    `truncation_order` and no further (the error this leaves is pinned by
    tests/test_mie.py::TestTruncation).

    The sizes, in descending order of x, go in lockstep passes of at most
    _PASS_TERMS ragged terms, each running the recurrences once; a pass
    sums its series in chunks of at most _CHUNK_TERMS dense terms."""
    m = _normalize_m(m)
    rows = truncation_order(x)
    q = np.empty(x.size)
    order = np.argsort(-x, kind="stable")
    x, g_e, rows = x[order], g_e[order], rows[order]
    total = np.concatenate(([0], np.cumsum(rows)))
    begin = 0
    while begin < x.size:
        end = max(begin + 1, int(np.searchsorted(
            total, total[begin] + _PASS_TERMS, side="right")) - 1)
        idx = order[begin:end]
        rec = _Recurrences.run(x[begin:end], m, rows[begin:end])
        q[idx] = rec.series(m, g_e[begin:end])
        del rec                                # before the next pass's store
        begin = end
    return q


def _size_and_charge(radius, frequency, electrons, temperature, mode):
    """Size parameter and charge coefficient g_e of spheres in a wave. A g_e
    beyond the float range (from radii near 1e-60 m) is a numerical failure."""
    if np.any(np.less_equal(frequency, 0)):
        raise DomainError("frequency must be positive")
    x = scale_parameter(radius, CONSTANTS.c / frequency)
    truncation_order(x)    # rejects an x beyond the series before r^2 overflows
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
