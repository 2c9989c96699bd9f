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
without overflow however strongly the sphere absorbs. The Riccati-Bessel
functions of the real argument x come from the same recurrence (psi_n) and
an upward one (chi_n). Every recurrence steps over n with numpy vectors
across the batch.
"""
from __future__ import annotations

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
# Orders x sizes evaluated together: each chunk's working arrays stay near
# 2 MB, while a chunk of large spheres still spans several sizes.
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
        if self.temperature <= 0:
            raise DomainError("temperature must be positive")

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
        if self.frequency <= 0:
            raise DomainError("frequency must be positive")
        c = CONSTANTS.c
        if abs(self.wavelength - c / self.frequency) > 1e-12 * self.wavelength:
            raise DomainError("wavelength inconsistent with frequency")
        if abs(self.omega - 2 * math.pi * self.frequency) > 1e-12 * self.omega:
            raise DomainError("angular frequency inconsistent with frequency")

    @classmethod
    def from_frequency(cls, f: float) -> "WaveSpec":
        if f <= 0:
            raise DomainError("frequency must be positive")
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
    if temperature <= 0:
        raise DomainError("temperature must be positive")
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
    if m.real <= 0:
        raise DomainError("Re(m) must be positive")
    return complex(m.real, abs(m.imag))


def _coefficients(x: np.ndarray, m: complex, g_e: np.ndarray,
                  rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Charged (a_n, b_n) for n = 1..max(rows) over a batch of sizes.

    Returns two (max(rows), x.size) arrays; column i holds orders 1..rows[i]
    and zeros above. With every term of the charged numerators and
    denominators divided by psi_n(mx), and xi_n(x) = psi_n(x) + i eta_n(x)
    (eta_n = x y_n), both coefficients take the form

        a_n = A(psi) / (A(psi) + i A(eta)),  A(f) = D_n(mx) (f - g_e f') - m f'
        b_n = B(psi) / (B(psi) + i B(eta)),  B(f) = f' + (g_e - m D_n(mx)) f
    """
    k, top = x.size, int(rows.max())
    n = np.arange(1, top + 1)[:, None]

    # D_n(z) for z = m x and z = x in one downward recurrence, started far
    # enough above both |z| and the top order for its error to die out.
    # Sharing it makes an index-matched sphere (m = 1, g_e = 0) give exactly
    # zero coefficients.
    z = np.concatenate((m * x, x.astype(complex)))
    start = max(top, float(np.abs(z).max()))
    start = math.ceil(start + 16 + 4 * math.sqrt(start))
    inv_z = 1 / z
    nz, t, spare = (np.empty(2 * k, complex) for _ in range(3))
    d = np.zeros(2 * k, complex)
    dn = np.empty((top, 2 * k), complex)
    for order in range(start, 1, -1):
        np.multiply(inv_z, order, out=nz)
        np.add(d, nz, out=t)
        np.reciprocal(t, out=t)
        d = dn[order - 2] if order <= top + 1 else spare
        np.subtract(nz, t, out=d)              # D_{order-1}
    d_mx, d_x = dn[:, :k], dn[:, k:].real

    with np.errstate(all="ignore"):
        # psi_n(x) from the ratios psi_n / psi_{n-1} = 1 / (D_n(x) + n / x),
        # anchored to the closed form of psi_0 or psi_1, whichever is
        # farther from a zero; psi_n' = D_n(x) psi_n.
        sin_x, cos_x = np.sin(x), np.cos(x)
        psi = n / x
        psi += d_x
        np.reciprocal(psi, out=psi)
        psi1 = sin_x / x - cos_x
        psi[0] = np.where(np.abs(sin_x) >= np.abs(psi1), psi[0] * sin_x, psi1)
        np.cumprod(psi, axis=0, out=psi)
        dpsi = psi * d_x

        # eta_n(x) by upward recurrence, stable for the dominant solution
        eta = np.empty((top + 1, k))
        eta[0] = -cos_x
        eta[1] = -cos_x / x - sin_x
        step = (2 * n[:-1] + 1) / x
        for i in range(1, top):
            np.multiply(step[i - 1], eta[i], out=eta[i + 1])
            eta[i + 1] -= eta[i - 1]
        del step
        deta = n / x * eta[1:]
        np.subtract(eta[:-1], deta, out=deta)
        eta = eta[1:]

        g = g_e[None, :]
        shift = g - m * d_mx

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
            """num / (num + i other), checked and zeroed above each column's
            own orders."""
            den = other
            den *= 1j
            den += num
            if np.any(used & (np.abs(den) < _DENOM_FLOOR)):
                raise SingularDenominatorError(
                    f"singular Mie denominator (x in [{x.min():g}, {x.max():g}], m={m})")
            num /= den
            if not np.isfinite(num[used]).all():
                raise RecurrenceOverflowError(
                    f"overflow in the Mie series (x in [{x.min():g}, {x.max():g}], m={m})")
            num[~used] = 0
            return num

        return (ratio(a_part(psi, dpsi), a_part(eta, deta)),
                ratio(b_part(psi, dpsi), b_part(eta, deta)))


def _series(x: np.ndarray, a: np.ndarray, b: np.ndarray,
            nmax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q_ext summed to nmax, and whether the next orders leave it unchanged."""
    n = np.arange(1, a.shape[0] + 1)[:, None]
    terms = (2 * n + 1) * (a + b).real
    q = 2 / x**2 * np.where(n <= nmax, terms, 0).sum(axis=0)
    q_extra = 2 / x**2 * terms.sum(axis=0)
    scale = np.maximum(np.maximum(np.abs(q), np.abs(q_extra)), 1e-300)
    return q, np.abs(q_extra - q) <= _CONVERGENCE_RTOL * scale


def _qext(x: np.ndarray, m: complex, g_e: np.ndarray) -> np.ndarray:
    """Q_ext over 1-D arrays of x and g_e, evaluated in chunks of similar
    truncation order."""
    m = _normalize_m(m)
    nmax = truncation_order(x)
    rows = nmax + _CONVERGENCE_EXTRA
    q = np.empty(x.size)
    order = np.argsort(x, kind="stable")
    begin = 0
    for end in range(1, x.size + 1):
        if end < x.size and rows[order[end]] * (end + 1 - begin) <= _CHUNK_TERMS:
            continue
        idx = order[begin:end]
        a, b = _coefficients(x[idx], m, g_e[idx], rows[idx])
        q[idx] = _series(x[idx], a, b, nmax[idx])[0]
        begin = end
    return q


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
    return _qext(x.ravel(), m, g_e.ravel()).reshape(x.shape)


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
    nmax = truncation_order(x)
    xs = np.array([float(x)])
    a, b = _coefficients(xs, _normalize_m(m), np.array([g_e], complex),
                         np.array([nmax + _CONVERGENCE_EXTRA]))
    q, converged = _series(xs, a, b, np.array([nmax]))
    return MieResult(float(q[0]), 0.0, nmax, bool(converged[0]))


def extinction_efficiency(p: ParticleState, w: WaveSpec,
                          mode: str = "full") -> MieResult:
    """Extinction efficiency and cross-section of one charged dust sphere."""
    x, g_e = _size_and_charge(p.radius, w.frequency, p.electrons, p.temperature, mode)
    res = extinction_efficiency_x(float(x), p.refractive_index, complex(g_e))
    res.c_ext = res.q_ext * math.pi * p.radius**2
    return res
