"""Spherical Bessel and spherical Hankel functions.

All functions accept complex arguments. j_n is evaluated by downward
(backward) recurrence normalized against the closed-form j_0/j_1, which is
the stable direction for the regular solution; h_n^(1) is evaluated by upward
recurrence from its closed forms at n = 0, 1, stable because h^(1) is the
dominant solution as the order grows.

Everything here is a pure function: no shared state, safe to call from any
number of threads.
"""
from __future__ import annotations

import cmath
import math

from .errors import DomainError, RecurrenceOverflowError

_RESCALE_LIMIT = 1e250
_TINY_SEED = 1e-30


def _check_order(n: int) -> None:
    if not isinstance(n, (int,)) or isinstance(n, bool):
        raise DomainError(f"order must be an integer, got {n!r}")
    if n < 0:
        raise DomainError(f"order must be non-negative, got {n}")


def _check_finite(value: complex, context: str) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise RecurrenceOverflowError(f"overflow in {context}")
    return value


def sph_bessel_j_array(nmax: int, z: complex) -> list[complex]:
    """Return [j_0(z), ..., j_nmax(z)] by normalized downward recurrence."""
    _check_order(nmax)
    z = complex(z)
    if z == 0:
        return [complex(1.0)] + [complex(0.0)] * nmax

    # Downward recurrence must start above the turning point |z|, not just
    # above the requested order, or the seed is contaminated by the
    # irregular solution in the oscillatory region.
    n_start = max(nmax, math.ceil(abs(z))) + math.ceil(10 + 4 * math.sqrt(abs(z)))
    keep = max(nmax, 1)  # raw[1] is needed for the normalization fallback
    raw = [complex(0.0)] * (keep + 1)
    f_up = complex(0.0)
    f = complex(_TINY_SEED)
    for k in range(n_start, 0, -1):
        f_down = (2 * k + 1) / z * f - f_up
        f_up = f
        f = f_down
        if k - 1 <= keep:
            raw[k - 1] = f
        if abs(f.real) > _RESCALE_LIMIT or abs(f.imag) > _RESCALE_LIMIT:
            f *= 1e-250
            f_up *= 1e-250
            for i in range(max(k - 1, 0), keep + 1):
                raw[i] *= 1e-250

    # Normalize against whichever closed form is farther from a zero.
    j0 = cmath.sin(z) / z
    j1 = cmath.sin(z) / z**2 - cmath.cos(z) / z
    if abs(j0) >= abs(j1):
        scale = j0 / raw[0]
    else:
        scale = j1 / raw[1]
    out = [s * scale for s in raw[: nmax + 1]]
    for v in out:
        _check_finite(v, f"sph_bessel_j(n<={nmax}, z={z})")
    return out


def sph_bessel_j(n: int, z: complex) -> complex:
    """Spherical Bessel function of the first kind j_n(z)."""
    _check_order(n)
    return sph_bessel_j_array(n, z)[n]


def sph_hankel1_array(nmax: int, z: complex) -> list[complex]:
    """Return [h_0^(1)(z), ..., h_nmax^(1)(z)] by upward recurrence."""
    _check_order(nmax)
    z = complex(z)
    if z == 0:
        raise DomainError("h_n^(1) is singular at z = 0")

    eiz = cmath.exp(1j * z)
    h = [complex(0.0)] * (nmax + 1)
    h[0] = -1j * eiz / z
    if nmax >= 1:
        h[1] = -eiz * (z + 1j) / z**2
    for k in range(1, nmax):
        h[k + 1] = (2 * k + 1) / z * h[k] - h[k - 1]
        _check_finite(h[k + 1], f"sph_hankel1(n={k + 1}, z={z})")
    return h


def sph_hankel1(n: int, z: complex) -> complex:
    """Spherical Hankel function of the first kind h_n^(1)(z) = j_n + i y_n."""
    _check_order(n)
    return sph_hankel1_array(n, z)[n]
