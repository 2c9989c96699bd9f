"""Independent reference implementations used only by the tests.

Everything here is computed with mpmath arbitrary precision (50 digits),
brute-force fixed grids or an adaptive rule of its own, deliberately
avoiding the package's own recurrence and quadrature code paths.
"""
import mpmath as mp
import numpy as np

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
