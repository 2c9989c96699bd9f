"""Independent reference implementations used only by the tests.

Everything here is computed with mpmath arbitrary precision (50 digits),
brute-force fixed grids or an adaptive rule of its own, deliberately
avoiding the package's own recurrence and quadrature code paths. The one
exception is k_dust_reference, which sums the package's Mie kernel (checked
pointwise against the mpmath series) with lattices and weights of its own.
"""
import math

import mpmath as mp
import numpy as np

from dustmie.dustfield import lognormal_params, size_support
from dustmie.mie import extinction_efficiency_array

mp.mp.dps = 50

_HALF = mp.mpf(1) / 2


class OracleDepthError(ArithmeticError):
    """An adaptive reference rule reached its bisection depth limit."""


def mp_sph_j(n, z):
    """j_n(z) from the half-integer Bessel function of the first kind."""
    z = mp.mpc(z)
    return mp.sqrt(mp.pi / (2 * z)) * mp.besselj(n + _HALF, z)


def mp_sph_y(n, z):
    z = mp.mpc(z)
    return mp.sqrt(mp.pi / (2 * z)) * mp.bessely(n + _HALF, z)


def mp_sph_h1(n, z):
    return mp_sph_j(n, z) + 1j * mp_sph_y(n, z)


def _mp_riccati(n, z, f_n, f_prev):
    """(z f_n(z), d/dz [z f_n(z)]) from f_n(z) and f_{n-1}(z), n >= 1."""
    z = mp.mpc(z)
    return z * f_n, z * f_prev - n * f_n


def neutral_mie_qext(x, m, extra_orders=15, series_tol=mp.mpf("1e-30")):
    """Conventional (uncharged) Mie extinction efficiency, textbook form.

    Sums a_n and b_n built directly from arbitrary-precision Riccati-Bessel
    values until the partial sums stop moving. Uses the package's documented
    convention Im(m) >= 0. Each order's j_n(x), y_n(x) and j_n(mx) serve
    the derivatives of the next.
    """
    x = mp.mpf(x)
    m = mp.mpc(m)
    m = mp.mpc(m.real, abs(m.imag))
    mx = m * x
    nmax = int(mp.floor(x + 4 * x ** (mp.mpf(1) / 3) + 2)) + extra_orders

    acc = mp.mpf(0)
    prev = (mp_sph_j(0, x), mp_sph_y(0, x), mp_sph_j(0, mx))
    for n in range(1, nmax + 1):
        j_x, y_x, j_mx = cur = (mp_sph_j(n, x), mp_sph_y(n, x), mp_sph_j(n, mx))
        psi_x, dpsi_x = _mp_riccati(n, x, j_x, prev[0])
        xi_x, dxi_x = _mp_riccati(n, x, j_x + 1j * y_x, prev[0] + 1j * prev[1])
        psi_m, dpsi_m = _mp_riccati(n, mx, j_mx, prev[2])
        prev = cur
        a_n = (m * psi_m * dpsi_x - psi_x * dpsi_m) / (m * psi_m * dxi_x - xi_x * dpsi_m)
        b_n = (psi_m * dpsi_x - m * psi_x * dpsi_m) / (psi_m * dxi_x - m * xi_x * dpsi_m)
        term = (2 * n + 1) * mp.re(a_n + b_n)
        acc += term
        if abs(term) < series_tol * max(abs(acc), mp.mpf(1)):
            break
    return float(2 / x**2 * acc)


def charged_mie_qext(x, m, g_e, orders=None):
    """Charged-sphere Mie extinction efficiency from the boundary conditions
    as they stand, before any division (Bohren & Hunt 1977): with the
    Riccati-Bessel functions psi_n, xi_n = psi_n + i x y_n and their
    derivatives,

        a_n = (psi_n'(mx) psi_n(x) - (g_e psi_n'(mx) + m psi_n(mx)) psi_n'(x))
            / (psi_n'(mx) xi_n(x) - (g_e psi_n'(mx) + m psi_n(mx)) xi_n'(x))
        b_n = (psi_n(mx) psi_n'(x) + (g_e psi_n(mx) - m psi_n'(mx)) psi_n(x))
            / (psi_n(mx) xi_n'(x) + (g_e psi_n(mx) - m psi_n'(mx)) xi_n(x))

    which reduce to `neutral_mie_qext`'s at g_e = 0. Im(m) >= 0 as in the
    package. Summed over n = 1..orders, by default the package's truncation
    order floor(x + 4 x^(1/3) + 2), so that it is the series the kernel
    sums. At small x, Re(a_n) is some x times smaller than a_n, and psi_n
    and y_n part by x^(2n+1), so the working precision grows with
    |log10 x|: 30 digits and three a decade.
    """
    digits = 30 + 3 * math.ceil(abs(math.log10(x)))
    with mp.workdps(digits):
        x, g_e = mp.mpf(x), mp.mpc(g_e)
        m = mp.mpc(m)
        m = mp.mpc(m.real, abs(m.imag))
        mx = m * x
        if orders is None:
            orders = max(2, int(mp.floor(x + 4 * mp.cbrt(x) + 2)))
        acc = mp.mpf(0)
        prev = (mp_sph_j(0, x), mp_sph_y(0, x), mp_sph_j(0, mx))
        for n in range(1, orders + 1):
            j_x, y_x, j_mx = cur = (mp_sph_j(n, x), mp_sph_y(n, x), mp_sph_j(n, mx))
            psi_x, dpsi_x = _mp_riccati(n, x, j_x, prev[0])
            xi_x, dxi_x = _mp_riccati(n, x, j_x + 1j * y_x, prev[0] + 1j * prev[1])
            psi_m, dpsi_m = _mp_riccati(n, mx, j_mx, prev[2])
            prev = cur
            f_a = g_e * dpsi_m + m * psi_m
            f_b = g_e * psi_m - m * dpsi_m
            a_n = (dpsi_m * psi_x - f_a * dpsi_x) / (dpsi_m * xi_x - f_a * dxi_x)
            b_n = (psi_m * dpsi_x + f_b * psi_x) / (psi_m * dxi_x + f_b * xi_x)
            acc += (2 * n + 1) * mp.re(a_n + b_n)
        return float(2 / x**2 * acc)


def charged_mie_fields(x, m, orders=None):
    """(S, B, K) of one sphere, the g_e-free fields of its charged Q_ext's
    linear term and bound, from the boundary conditions of
    `charged_mie_qext`. There each coefficient is a Moebius map of g_e,
    (alpha g_e + beta) / (gamma g_e + delta), with

        a_n: alpha = -psi_n'(mx) psi_n'(x), beta = psi_n'(mx) psi_n(x) - m psi_n(mx) psi_n'(x),
             gamma = -psi_n'(mx) xi_n'(x), delta = psi_n'(mx) xi_n(x) - m psi_n(mx) xi_n'(x)
        b_n: alpha = psi_n(mx) psi_n(x), beta = psi_n(mx) psi_n'(x) - m psi_n'(mx) psi_n(x),
             gamma = psi_n(mx) xi_n(x), delta = psi_n(mx) xi_n'(x) - m psi_n'(mx) xi_n(x)

    so c'(0) = (alpha delta - beta gamma) / delta^2 and kappa = gamma / delta,
    and S = 2/x^2 sum (2n + 1)(a_n'(0) + b_n'(0)), B = 2/x^2 sum (2n + 1)
    (|a_n'(0) kappa^a_n| + |b_n'(0) kappa^b_n|) and K the largest |kappa|,
    over the kernel's orders by default."""
    digits = 30 + 3 * math.ceil(abs(math.log10(x)))
    with mp.workdps(digits):
        x = mp.mpf(x)
        m = mp.mpc(m)
        m = mp.mpc(m.real, abs(m.imag))
        mx = m * x
        if orders is None:
            orders = max(2, int(mp.floor(x + 4 * mp.cbrt(x) + 2)))
        s = b = k = 0
        prev = (mp_sph_j(0, x), mp_sph_y(0, x), mp_sph_j(0, mx))
        for n in range(1, orders + 1):
            j_x, y_x, j_mx = cur = (mp_sph_j(n, x), mp_sph_y(n, x), mp_sph_j(n, mx))
            psi_x, dpsi_x = _mp_riccati(n, x, j_x, prev[0])
            xi_x, dxi_x = _mp_riccati(n, x, j_x + 1j * y_x, prev[0] + 1j * prev[1])
            psi_m, dpsi_m = _mp_riccati(n, mx, j_mx, prev[2])
            prev = cur
            maps = [(-dpsi_m * dpsi_x, dpsi_m * psi_x - m * psi_m * dpsi_x,
                     -dpsi_m * dxi_x, dpsi_m * xi_x - m * psi_m * dxi_x),
                    (psi_m * psi_x, psi_m * dpsi_x - m * dpsi_m * psi_x,
                     psi_m * xi_x, psi_m * dxi_x - m * dpsi_m * xi_x)]
            for alpha, beta, gamma, delta in maps:
                slope, kappa = (alpha * delta - beta * gamma) / delta**2, gamma / delta
                s += (2 * n + 1) * slope
                b += (2 * n + 1) * abs(slope * kappa)
                k = max(k, abs(kappa))
        return complex(2 / x**2 * s), float(2 / x**2 * b), float(k)


def first_ratios(z):
    """s_1(z) = z psi_0(z) / psi_1(z) = z / (1/z - cot z) and
    s_2(z) = z^2 / (3 - s_1(z)) of one float or complex z, as mpmath
    numbers. 1/z - cot z cancels to about z/3 and 3 - s_1 to about z^2/5,
    so the working precision starts at 80 bits above the 4 log2(1/|z|) that
    the two lose and doubles until the two values agree within 2^-80."""
    prec, last = 80 + 4 * max(0, math.ceil(-math.log2(abs(z)))), None
    while True:
        with mp.workprec(prec):
            z_mp = mp.mpc(z)
            s1 = z_mp / (1 / z_mp - mp.cot(z_mp))
            pair = (s1, z_mp * z_mp / (3 - s1))
            if last and all(abs(a - b) <= 2**-80 * abs(b) for a, b in zip(pair, last)):
                return pair
        prec, last = 2 * prec, pair


def series_sph_j(n, z, terms=60):
    """Power-series evaluation of j_n(z), independent of any recurrence."""
    z = mp.mpc(z)
    half_z2 = -(z * z) / 2
    coeff = z**n / mp.fac2(2 * n + 1)
    acc = mp.mpc(0)
    term = mp.mpc(1)
    k = 0
    while k < terms:
        acc += term * coeff
        k += 1
        term *= half_z2 / (k * (2 * n + 2 * k + 1))
    return acc


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6 * (fa + 4 * fm + fb)


def adaptive_simpson(f, a, b, rel_tol=1e-6, max_depth=40):
    """Integrate f over [a, b] to the given relative tolerance.

    Smooth integrands only; raises OracleDepthError if the bisection depth
    limit is reached before the local error estimate falls under tolerance.
    """
    if b == a:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, rel_tol, max_depth)

    fa, fm, fb = f(a), f((a + b) / 2), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    return _refine(f, a, b, fa, fm, fb, whole, rel_tol, max_depth)


def _refine(f, a, b, fa, fm, fb, whole, rel_tol, depth):
    m = (a + b) / 2
    flm = f((a + m) / 2)
    frm = f((m + b) / 2)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    err = left + right - whole
    # 1e-300 floor keeps identically-zero integrands from recursing forever
    if abs(err) <= 15 * rel_tol * max(abs(left + right), 1e-300):
        return left + right + err / 15
    if depth <= 0:
        raise OracleDepthError(
            f"adaptive Simpson did not converge on [{a}, {b}]"
        )
    return (_refine(f, a, m, fa, flm, fm, left, rel_tol, depth - 1)
            + _refine(f, m, b, fm, frm, fb, right, rel_tol, depth - 1))


def level_simpson(f, a, b, rel_tol, max_depth=40):
    """Adaptive Simpson over [a, b], refined one level at a time.

    The rules are those of adaptive_simpson: an interval is
    accepted when |left + right - whole| <= 15 rel_tol |left + right|,
    corrected by err / 15, and OracleDepthError is raised past max_depth
    bisections. Here f takes an array of abscissae and is called once per
    level, on the midpoints of every interval still open. The accepted
    intervals, and the partial sums added in tree order, are the recursive
    rule's, so a pure integrand gives its result bit for bit.
    """
    if b == a:
        return 0.0
    if b < a:
        return -level_simpson(f, b, a, rel_tol, max_depth)
    fa, fm, fb = f(np.array([a, (a + b) / 2, b]))
    lo, hi = np.array([a], float), np.array([b], float)
    f_lo, f_mid, f_hi = np.array([fa]), np.array([fm]), np.array([fb])
    whole = (hi - lo) / 6 * (f_lo + 4 * f_mid + f_hi)
    levels = []
    for depth in range(max_depth, -1, -1):
        mid = (lo + hi) / 2
        f_left, f_right = np.split(f(np.concatenate(((lo + mid) / 2, (mid + hi) / 2))), 2)
        left = (mid - lo) / 6 * (f_lo + 4 * f_left + f_mid)
        right = (hi - mid) / 6 * (f_mid + 4 * f_right + f_hi)
        err = left + right - whole
        done = np.abs(err) <= 15 * rel_tol * np.maximum(np.abs(left + right), 1e-300)
        levels.append((left + right + err / 15, done))
        if done.all():
            break
        if depth == 0:
            raise OracleDepthError(f"level Simpson did not converge on [{a}, {b}]")
        # each open interval becomes its left and right halves, in that order
        keep = ~done
        lo, mid, hi = lo[keep], mid[keep], hi[keep]
        lo, hi = np.stack((lo, mid), 1).ravel(), np.stack((mid, hi), 1).ravel()
        f_lo, f_mid, f_hi = (np.stack(pair, 1).ravel() for pair in (
            (f_lo[keep], f_mid[keep]), (f_left[keep], f_right[keep]),
            (f_mid[keep], f_hi[keep])))
        whole = np.stack((left[keep], right[keep]), 1).ravel()
    # an open interval's value is the sum of its two halves' values
    values = levels[-1][0]
    for level, done in reversed(levels[:-1]):
        level[~done] = values[0::2] + values[1::2]
        values = level
    return float(values[0])


# k_dust_reference: the size integral on nested plain ln r lattices
_REFERENCE_STEPS = (0.003, 0.0015, 0.00075, 0.000375)     # down to the floor
_FLOOR_STEP = _REFERENCE_STEPS[-1]
_LN_CAP = math.log(10.0)                 # ln r of the 10 mm radius cap, r in mm
_LN_FLOOR = math.log(1e-6)               # 1 nm
_FLOOR_NODES = math.floor((_LN_CAP - _LN_FLOOR) / _FLOOR_STEP) + 1
# Gregory's end weights (trapezoid plus -h (grad/12 + grad^2/24 +
# 19 grad^3/720)) on the last four nodes below the cap, lowest first
_GREGORY = np.array([739.0, 633.0, 897.0, 251.0]) / 720
# per (f, m, Ne): Q_ext on the floor lattice u_i = ln 10 - (_FLOOR_NODES - 1
# - i) _FLOOR_STEP, NaN where not yet computed
_reference_q = {}
_reference_k = {}


class ReferenceSpreadError(ArithmeticError):
    """Two successive levels of k_dust_reference never agreed; `spread` is
    |k(finest) - k(next coarser)| / |k(finest)|."""

    def __init__(self, message, spread):
        super().__init__(message)
        self.spread = spread


def _reference_levels(h, f, m, ne):
    """k_dust per unit n0 (dB/km at n0 = 1 m^-3, T 300 K, full g_e) on each
    level of _REFERENCE_STEPS, a (physical, paper) pair a level."""
    mu, sigma = lognormal_params(h)
    lo, hi = (math.log(b) for b in size_support(h))
    q = _reference_q.setdefault((f, m, ne), np.full(_FLOOR_NODES, np.nan))
    for step in _REFERENCE_STEPS:
        stride = round(step / _FLOOR_STEP)
        # the level's nodes, counted down from the cap, inside the support
        j = np.arange(math.ceil((lo - _LN_CAP) / step), math.floor((hi - _LN_CAP) / step) + 1)
        u = _LN_CAP + step * j
        j, u = j[(u >= lo) & (u <= hi)], u[(u >= lo) & (u <= hi)]
        i = _FLOOR_NODES - 1 + stride * j
        r_m = np.exp(u) * 1e-3
        missing = np.isnan(q[i])
        if missing.any():
            q[i[missing]] = extinction_efficiency_array(r_m[missing], f, ne, 300.0, m)
        phi = np.exp(-0.5 * ((u - mu) / sigma) ** 2) / (math.sqrt(2 * math.pi) * sigma)
        phi[0] /= 2
        if j[-1] == 0:                   # the support reaches the cap
            phi[-4:] *= _GREGORY
        else:
            phi[-1] /= 2
        yield step, [4.343e3 * step * float(np.sum(phi * g))
                     for g in (q[i] * math.pi * r_m**2, q[i])]


def k_dust_reference(h, f, m, ne, units, rtol=1e-10):
    """A converged k_dust (dB/km per unit n0: n0 = 1 m^-3, T = 300 K, full
    g_e) at altitude h (m), frequency f (Hz), index m and Ne electrons,
    units "physical" or "paper".

    The kernel, which the mpmath oracles check pointwise, summed with the
    log-normal weight on nested ln r lattices anchored at the 10 mm cap
    (steps 0.003 down to 0.000375), each with Gregory's end correction
    where the support reaches the cap. The value of the first level that
    agrees with the level before it within rtol; ReferenceSpreadError,
    naming the last spread, if none does. Values are kept per session.
    """
    key = (float(h), float(f), complex(m), int(ne), rtol)
    if key not in _reference_k:
        previous, spread = None, math.inf
        for step, k in _reference_levels(*key[:4]):
            if previous is not None:
                spread = max(abs(a - b) / abs(a) for a, b in zip(k, previous))
                if spread <= rtol:
                    _reference_k[key] = dict(zip(("physical", "paper"), k))
                    break
            previous = k
        else:
            raise ReferenceSpreadError(
                f"k_dust reference not converged at h={h:g} m, f={f:g} Hz, m={m}, "
                f"Ne={ne:g}: levels {2 * step:g} and {step:g} differ by {spread:.2g}",
                spread)
    return _reference_k[key][units]
