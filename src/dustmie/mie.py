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
summed. The Riccati-Bessel functions of x come from the same recurrence
(psi_n/psi_{n-1} = x/s_n) and an upward one (eta_n).

The sizes of a batch, in descending order of x, go through the recurrences
in lockstep passes. Each recurrence makes one loop over the orders of a
pass, stepping the sizes still running at each order (a prefix of the pass)
as one numpy vector, and stores its values ragged and order-major: order n
holds only the sizes whose series reach n. The series are then summed in
chunks of similar truncation order, each gathered from that store into a
dense block.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS, PhysicalConstants
from .errors import DomainError, RecurrenceOverflowError, SingularDenominatorError

_MIN_RADIUS = 1e-9
_MAX_RADIUS = 1e-2
_DENOM_FLOOR = 1e-300
_CONVERGENCE_EXTRA = 5
_CONVERGENCE_RTOL = 1e-10
# Ragged terms (orders x sizes) of one lockstep pass: its store of s_n(mx),
# the real s_n(x) and eta_n(x) takes 1 MB at 32 B a term. Larger passes take
# fewer loop steps but more memory; at 3 THz, 2^15 takes 3,404 downward steps
# a table and 2^16 takes 2,095.
_PASS_TERMS = 2**15
# Dense orders x sizes of one chunk of the series sum: its working arrays
# stay near 1 MB, while a chunk of large spheres still spans several sizes.
_CHUNK_TERMS = 8192


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
        if self.electrons < 0:
            raise DomainError("electron count must be non-negative")
        if not 0 < self.temperature < math.inf:
            raise DomainError("temperature must be positive and finite")

    def with_radius(self, radius: float) -> "ParticleState":
        return ParticleState(
            radius, self.electrons, self.temperature, self.refractive_index
        )


@dataclass(frozen=True)
class WaveSpec:
    """Probing wave: frequency, wavelength, and angular frequency (all consistent)."""

    frequency: float    # Hz
    wavelength: float   # m
    omega: float        # rad/s

    def __post_init__(self):
        if not 0 < self.frequency < math.inf:
            raise DomainError("frequency must be positive and finite")
        c = CONSTANTS.c
        if abs(self.wavelength - c / self.frequency) > 1e-12 * self.wavelength:
            raise DomainError("wavelength inconsistent with frequency")
        if abs(self.omega - 2 * math.pi * self.frequency) > 1e-12 * self.omega:
            raise DomainError("angular frequency inconsistent with frequency")

    @classmethod
    def from_frequency(cls, f: float) -> "WaveSpec":
        if not 0 < f < math.inf:
            raise DomainError(f"frequency must be positive and finite, got {f}")
        return cls(f, CONSTANTS.c / f, 2 * math.pi * f)

    @classmethod
    def from_wavelength(cls, lam: float) -> "WaveSpec":
        if lam <= 0:
            raise DomainError("wavelength must be positive")
        return cls.from_frequency(CONSTANTS.c / lam)


@dataclass
class MieResult:
    """Extinction efficiency, its truncation order, and whether the orders
    past it leave the sum unchanged."""

    q_ext: float
    c_ext: float                       # m^2; q_ext * pi * r^2
    n_max: int
    converged: bool


def scale_parameter(radius, wavelength):
    """Size parameter x = 2 pi r / lambda (scalars or arrays)."""
    if np.any(np.less_equal(radius, 0)) or np.any(np.less_equal(wavelength, 0)):
        raise DomainError("radius and wavelength must be positive")
    return 2 * math.pi * radius / wavelength


def surface_potential(electrons, radius, constants: PhysicalConstants = CONSTANTS):
    """Electrostatic potential (V) at the surface of a charged sphere."""
    if np.any(np.less_equal(radius, 0)):
        raise DomainError("radius must be positive")
    if np.any(np.less(electrons, 0)):
        raise DomainError("electron count must be non-negative")
    return constants.k_e * electrons * constants.e / radius


def surface_plasma_frequency(electrons, radius,
                             constants: PhysicalConstants = CONSTANTS):
    """Surface plasma frequency (rad/s) of the charged sphere; 0 when neutral."""
    phi = surface_potential(electrons, radius, constants)
    return np.sqrt(2 * constants.e * phi / (constants.m_e * radius**2))


def collision_frequency(temperature: float,
                        constants: PhysicalConstants = CONSTANTS) -> float:
    """Thermal collision frequency (rad/s), 2 pi k_B T / h_P."""
    if not 0 < temperature < math.inf:
        raise DomainError(f"temperature must be positive and finite, got {temperature}")
    return 2 * math.pi * constants.k_B * temperature / constants.h_P


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
    """Series cutoff floor(x + 4 x^(1/3) + 2), clamped to at least 1
    (an int, or an int array for an array of x)."""
    if not np.all(np.greater(x, 0)):
        raise DomainError("scale parameter must be positive")
    n = np.maximum(np.floor(x + 4 * x ** (1 / 3) + 2), 1).astype(int)
    return n if n.ndim else int(n)


def _normalize_m(m: complex) -> complex:
    m = complex(m)
    if not (cmath.isfinite(m) and m.real > 0):
        raise DomainError(f"refractive index must be finite with Re(m) > 0, got {m}")
    return complex(m.real, abs(m.imag))


def _order_counts(rows: np.ndarray, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Layout of an order-major ragged array over sizes whose rows are in
    descending order: order n = first..rows[0] holds the counts[n - first]
    sizes that reach it (a prefix of the batch), from offsets[n - first]."""
    counts = np.searchsorted(-rows, -np.arange(first, rows[0] + 1), side="right")
    return counts, np.cumsum(counts) - counts


def _dense_index(layout: tuple[np.ndarray, np.ndarray], top: int, begin: int,
                 end: int) -> np.ndarray:
    """Where sizes begin..end of an order-major ragged array sit, as a dense
    (top, end - begin) index block over the first top orders. Where a size
    stops short of an order, the block repeats the last size that reaches
    it; callers mask those entries."""
    counts, offsets = (a[:top, None] for a in layout)
    return offsets + np.minimum(np.arange(begin, end), counts - 1)


def _scaled_ratio(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """s_n(z) = z psi_{n-1}(z) / psi_n(z) = z D_n(z) + n for each row of z,
    a (k, w) array, at orders n = 1..rows[i], with rows and |z| in
    descending order; D_n = psi_n' / psi_n is the log-derivative.

    One downward recurrence, s_{n-1} = (2n - 1) - z^2 / s_n, runs over the
    batch in lockstep. Row i starts from D = 0 far enough above
    max(rows[i], |z[i]|) to forget that seed, so the rows running at an
    order are a prefix of the batch, and the w values of a row take the same
    steps. The result is ragged and order-major, (sum(rows), w)."""
    k, w = z.shape
    start = np.maximum(rows, np.abs(z).max(axis=1))
    start = np.ceil(start + 16 + 4 * np.sqrt(start)).astype(int)
    running = (np.searchsorted(-start, -np.arange(start[0] + 1), side="right")
               * w).tolist()
    counts, offsets = _order_counts(rows, 1)
    stored, offsets = (counts * w).tolist(), (offsets * w).tolist()
    z2 = (z * z).ravel()
    s = np.repeat(start, w).astype(complex)    # s_start = start: D_start = 0
    t = np.empty(k * w, complex)
    sn = np.empty(sum(stored), complex)
    # 2 order - 1 as numpy scalars, which a ufunc takes faster than an int
    odd = np.arange(2 * start[0] - 1, 2, -2, dtype=complex)
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


def _riccati_eta(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """eta_n(z) = z y_n(z) for n = 0..rows[i] (rows >= 1, in descending
    order) by one upward recurrence over the batch in lockstep, stable for
    the dominant solution; ragged and order-major, (sum(rows + 1),)."""
    counts, offsets = (a.tolist() for a in _order_counts(rows, 0))
    eta = np.empty(sum(counts), np.result_type(z))
    sin_z, cos_z = np.sin(z), np.cos(z)
    eta[:counts[0]] = -cos_z
    c = counts[1]
    zc, prev, this = z[:c], eta[:c], eta[offsets[1]:offsets[1] + c]
    np.subtract(-cos_z[:c] / zc, sin_z[:c], out=this)
    odd = np.arange(3, 2 * len(counts) - 2, 2.0)  # 2n + 1 as numpy scalars
    for n, k in zip(range(1, len(counts) - 1), odd):
        if counts[n + 1] != c:                 # the sizes still running
            c = counts[n + 1]
            zc, prev, this = z[:c], prev[:c], this[:c]
        step = eta[offsets[n + 1]:offsets[n + 1] + c]
        np.divide(k, zc, step)
        np.multiply(step, this, step)
        np.subtract(step, prev, step)
        prev, this = this, step
    return eta


@dataclass(frozen=True)
class _Recurrences:
    """The Bessel recurrences of a batch of sizes in descending order of x:
    s_n(mx) and the real s_n(x) for n = 1..rows (see `_scaled_ratio`), and
    eta_n(x) for n = 0..rows, each stored ragged and order-major (32 B a
    term)."""

    x: np.ndarray
    rows: np.ndarray
    s_mx: np.ndarray
    s_x: np.ndarray
    eta: np.ndarray
    s_layout: tuple[np.ndarray, np.ndarray]
    eta_layout: tuple[np.ndarray, np.ndarray]

    @classmethod
    def run(cls, x: np.ndarray, m: complex, rows: np.ndarray) -> "_Recurrences":
        # s_n for z = m x and z = x as one pair per size. Sharing the steps
        # makes an index-matched sphere (m = 1, g_e = 0) give exactly zero
        # coefficients.
        sn = _scaled_ratio(np.stack((m * x, x.astype(complex)), axis=1), rows)
        s_mx, s_x = sn[:, 0].copy(), sn[:, 1].real.copy()
        del sn                                 # before eta_n's store
        return cls(x, rows, s_mx, s_x, _riccati_eta(x, rows),
                   _order_counts(rows, 1), _order_counts(rows, 0))

    def series(self, m: complex, g_e: np.ndarray,
               nmax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Q_ext of every size and whether its series converged, summed in
        chunks of at most _CHUNK_TERMS dense terms."""
        q = np.empty(self.x.size)
        converged = np.empty(self.x.size, bool)
        begin = 0
        while begin < self.x.size:
            end = min(self.x.size,
                      begin + max(1, _CHUNK_TERMS // int(self.rows[begin])))
            # no names hold a chunk's (a_n, b_n) while the next is built
            q[begin:end], converged[begin:end] = _series(
                self.x[begin:end], *self.coefficients(m, g_e, begin, end),
                nmax[begin:end])
            begin = end
        return q, converged

    def coefficients(self, m: complex, g_e: np.ndarray, begin: int,
                     end: int) -> tuple[np.ndarray, np.ndarray]:
        """Charged (a_n, b_n) for sizes begin..end; see `_coefficients`."""
        x, rows, g_e = self.x[begin:end], self.rows[begin:end], g_e[begin:end]
        top = int(rows[0])
        n = np.arange(1, top + 1)[:, None]
        at = _dense_index(self.s_layout, top, begin, end)
        eta = np.take(self.eta, _dense_index(self.eta_layout, top + 1, begin, end))

        with np.errstate(all="ignore"):
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


def _coefficients(x: np.ndarray, m: complex, g_e: np.ndarray,
                  rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Charged (a_n, b_n) for n = 1..max(rows) over a batch of sizes in
    descending order of x.

    Returns two (max(rows), x.size) arrays; column i holds orders 1..rows[i]
    and zeros above. With every term of the charged numerators and
    denominators divided by psi_n(mx), and xi_n(x) = psi_n(x) + i eta_n(x)
    (eta_n = x y_n), both coefficients take the form

        a_n = A(psi) / (A(psi) + i A(eta)),  A(f) = D_n(mx) (f - g_e f') - m f'
        b_n = B(psi) / (B(psi) + i B(eta)),  B(f) = f' + (g_e - m D_n(mx)) f
    """
    return _Recurrences.run(x, m, rows).coefficients(m, g_e, 0, x.size)


def _series(x: np.ndarray, a: np.ndarray, b: np.ndarray,
            nmax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q_ext summed to nmax, and whether the next orders leave it unchanged."""
    n = np.arange(1, a.shape[0] + 1)[:, None]
    terms = (2 * n + 1) * (a + b).real
    q = 2 / x**2 * np.where(n <= nmax, terms, 0).sum(axis=0)
    q_extra = 2 / x**2 * terms.sum(axis=0)
    scale = np.maximum(np.maximum(np.abs(q), np.abs(q_extra)), 1e-300)
    return q, np.abs(q_extra - q) <= _CONVERGENCE_RTOL * scale


def _qext(x: np.ndarray, m: complex,
          g_e: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Q_ext over 1-D arrays of x and g_e; also the truncation orders and
    whether each series converged.

    The sizes, in descending order of x, go in lockstep passes of at most
    _PASS_TERMS ragged terms, each running the recurrences once; a pass
    sums its series in chunks of at most _CHUNK_TERMS dense terms."""
    m = _normalize_m(m)
    nmax = truncation_order(x)
    rows = nmax + _CONVERGENCE_EXTRA
    q = np.empty(x.size)
    converged = np.empty(x.size, bool)
    order = np.argsort(-x, kind="stable")
    x, g_e, nmax, rows = x[order], g_e[order], nmax[order], rows[order]
    total = np.concatenate(([0], np.cumsum(rows)))
    begin = 0
    while begin < x.size:
        end = max(begin + 1, int(np.searchsorted(
            total, total[begin] + _PASS_TERMS, side="right")) - 1)
        idx = order[begin:end]
        rec = _Recurrences.run(x[begin:end], m, rows[begin:end])
        q[idx], converged[idx] = rec.series(m, g_e[begin:end], nmax[begin:end])
        del rec                                # before the next pass's store
        begin = end
    return q, nmax, converged


def _size_and_charge(radius, frequency, electrons, temperature, mode):
    """Size parameter and charge coefficient g_e of spheres in a wave."""
    if np.any(np.less_equal(frequency, 0)):
        raise DomainError("frequency must be positive")
    x = scale_parameter(radius, CONSTANTS.c / frequency)
    omega_s = surface_plasma_frequency(electrons, radius)
    g_e = charged_coefficient(x, 2 * math.pi * frequency, omega_s,
                              collision_frequency(temperature), mode=mode)
    return x, g_e


def extinction_efficiency_array(radius, frequency, electrons, temperature: float,
                                m: complex, mode: str = "full") -> np.ndarray:
    """Extinction efficiencies of charged spheres, evaluated as one batch.

    radius (m), frequency (Hz) and electrons broadcast against each other;
    the result has their broadcast shape.
    """
    radius, frequency, electrons = np.broadcast_arrays(
        np.asarray(radius, float), np.asarray(frequency, float), np.asarray(electrons))
    x, g_e = _size_and_charge(radius, frequency, electrons, temperature, mode)
    return _qext(x.ravel(), m, g_e.ravel())[0].reshape(x.shape)


def mie_ab(n: int, x: float, m: complex, g_e: complex = 0j) -> tuple[complex, complex]:
    """Charged scattering coefficient pair (a_n, b_n) for a single order."""
    if n < 1:
        raise DomainError("order must be >= 1")
    if x <= 0:
        raise DomainError("scale parameter must be positive")
    a, b = _coefficients(np.array([float(x)]), _normalize_m(m),
                         np.array([g_e], complex), np.array([n]))
    return complex(a[n - 1, 0]), complex(b[n - 1, 0])


def extinction_efficiency_x(x: float, m: complex, g_e: complex = 0j) -> MieResult:
    """Extinction efficiency from the size parameter and charge coefficient.

    c_ext is left at 0 here; callers holding a physical radius fill it in.
    """
    q, nmax, converged = _qext(np.array([float(x)]), m, np.array([g_e], complex))
    return MieResult(float(q[0]), 0.0, int(nmax[0]), bool(converged[0]))


def extinction_efficiency(p: ParticleState, w: WaveSpec,
                          mode: str = "full") -> MieResult:
    """Extinction efficiency and cross-section of one charged dust sphere."""
    x, g_e = _size_and_charge(p.radius, w.frequency, p.electrons, p.temperature, mode)
    res = extinction_efficiency_x(float(x), p.refractive_index, complex(g_e))
    res.c_ext = res.q_ext * math.pi * p.radius**2
    return res
