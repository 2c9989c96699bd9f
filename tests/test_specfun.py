"""Spherical Bessel and Hankel functions from the ratios the Mie kernel
steps.

The kernel never forms j_n or h_n^(1): it sums its series from the ratios
s_n(z) = z psi_{n-1}/psi_n of the Riccati-Bessel functions psi_n(z) =
z j_n(z), from a downward recurrence (`dustmie.mie._scaled_ratio`) or the
upward block loop (`dustmie.mie._series`), from the ratios t_n(x) =
x eta_{n-1}/eta_n of eta_n(x) = x y_n(x) at a real x that the block loop
steps upward, and from rho_n = eta_n(x) / psi_n(x) = y_n(x) / j_n(x), which
`dustmie.mie._SeriesSum.add` accumulates from them. These tests build psi_n
and eta_n from the ratios by cumulative products (`riccati_psi`,
`riccati_eta`), divide them by z again and hold them, and rho_n, against
arbitrary-precision references, j_n for complex arguments too.
"""
import cmath
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dustmie import mie
from dustmie.errors import DomainError
from dustmie.mie import _normalize_m, _scaled_ratio, truncation_order

from oracles import mp_sph_h1, mp_sph_j, mp_sph_y, series_sph_j


def riccati_psi(z, s):
    """psi_n(z) = z j_n(z) for n = 0..len(s) of arguments z, given s_n(z) =
    s[n - 1]: psi_n = psi_{n-1} z / s_n from the closed form of psi_0 =
    sin z or psi_1 = sin z / z - cos z, whichever is farther from a zero."""
    psi = np.empty((s.shape[0] + 1, z.size), np.result_type(z, s))
    psi[0] = np.sin(z)
    ratio = np.divide(z, s, out=psi[1:])
    psi1 = psi[0] / z - np.cos(z)
    ratio[0] = np.where(np.abs(psi[0]) >= np.abs(psi1), ratio[0] * psi[0], psi1)
    np.cumprod(ratio, axis=0, out=ratio)
    return psi


def riccati_eta(x, t):
    """eta_n(x) = x y_n(x) for n = 0..len(t) of real arguments x, given
    eta_1(x) = t[0] and t_n(x) = t[n - 1] from n = 2: eta_0 = -cos x and
    eta_n = eta_{n-1} x / t_n."""
    eta = np.empty((t.shape[0] + 1, x.size))
    eta[0] = -np.cos(x)
    np.divide(x, t[1:], out=eta[2:])
    eta[1] = t[0]
    np.cumprod(eta[1:], axis=0, out=eta[1:])
    return eta


def sph_bessel_j_array(nmax, z):
    """[j_0(z), ..., j_nmax(z)] as psi_n(z) / z. For one argument the
    recurrences' ragged order-major store is a dense column."""
    z = np.array([complex(z)])
    s = _scaled_ratio(z[:, None], np.array([max(nmax, 1)]))
    return riccati_psi(z, s)[: nmax + 1, 0] / z[0]


def sph_bessel_j(n, z):
    return sph_bessel_j_array(n, z)[n]


def log_sph_bessel_j(n, z):
    """ln j_n(z) from the same ratios as `sph_bessel_j`, their logarithms
    summed in mpmath, so that a j_n below the float range (j_120(0.02) is
    about 1e-444) keeps its digits. Defined up to a multiple of 2 pi i."""
    s = _scaled_ratio(np.array([[complex(z)]]), np.array([max(n, 1)]))[:n, 0]
    psi0, psi1 = cmath.sin(z), cmath.sin(z) / z - cmath.cos(z)
    if n == 0:
        return mpmath.log(psi0) - mpmath.log(z)
    # as `riccati_psi`: from psi_0 or psi_1, whichever is farther from a zero
    start, ratios = ((psi0, s) if abs(psi0) >= abs(psi1) else (psi1, s[1:]))
    return (mpmath.log(start) + mpmath.fsum(mpmath.log(z / mpmath.mpc(r))
                                            for r in ratios) - mpmath.log(z))


def loop_ratios(x, rows, m=1.5):
    """s_n(x) + i t_n(x) (eta_1(x) in t_1's slot) and s_n(mx) of one size x
    at orders 1..rows on the upward route, as the block loop of
    `mie._series` hands them to `_SeriesSum.add`, which overwrites them, and
    rho_n = eta_n(x) / psi_n(x) as `add` accumulates it from them."""
    blocks, add = [], mie._SeriesSum.add

    def recorded(series, s_t, m_d):
        ratios = s_t[:, 0].copy(), m_d[:, 0].copy()
        coefficients = add(series, s_t, m_d)
        blocks.append((*ratios, series.rho[1:, 0].copy()))
        return coefficients
    # under one np.errstate, as `mie._qext` runs the route
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(mie._SeriesSum, "add", recorded)
        mie._series(np.array([float(x)]), _normalize_m(m), np.zeros(1, complex),
                    np.array([rows]))
    return tuple(np.concatenate(c) for c in zip(*blocks))


def sph_hankel1(n, x):
    """h_n^(1)(x) = j_n(x) + i y_n(x) at a real x as (psi_n(x) + i eta_n(x))
    / x, with eta_n formed from the block loop's t_n as the kernel forms it."""
    x = float(x.real)
    t = loop_ratios(x, max(n, 1))[0].imag
    eta = riccati_eta(np.array([x]), t[:, None])[n, 0]
    return sph_bessel_j(n, x) + 1j * eta / x


def rel_err(a, b):
    return abs(a - b) / abs(b)


# moderate |z| away from the origin, Im bounded per the attenuation regime
complex_args = st.builds(
    complex,
    st.floats(0.05, 80.0),
    st.floats(-4.0, 4.0),
)


class TestSphBesselJ:
    def test_j0_closed_form(self):
        z = 0.5 + 0j
        assert rel_err(sph_bessel_j(0, z), cmath.sin(z) / z) < 1e-14

    def test_j1_spec_value(self):
        # frozen from the arbitrary-precision power-series oracle
        assert rel_err(sph_bessel_j(1, 0.5 + 0j), 0.16253703063606657) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 3, 12, 40, 120])
    @pytest.mark.parametrize("z", [0.02 + 0j, 1 + 0.5j, 30 - 2j, 99 + 4.9j])
    def test_against_series_oracle(self, n, z):
        # |j / ref - 1| from the logarithms, in mpmath: below the float
        # range j_120(0.02) and its reference would both read 0
        ratio = mpmath.exp(log_sph_bessel_j(n, z)
                           - mpmath.log(series_sph_j(n, z, terms=300)))
        assert abs(ratio - 1) < 1e-10

    @given(z=complex_args, n=st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, z, n):
        a = sph_bessel_j(n, z.conjugate())
        b = sph_bessel_j(n, z).conjugate()
        assert cmath.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)

    @given(z=complex_args, n=st.integers(1, 100))
    @settings(max_examples=80, deadline=None)
    def test_three_term_recurrence(self, z, n):
        j = sph_bessel_j_array(n + 1, z)
        lhs = j[n - 1] + j[n + 1]
        rhs = (2 * n + 1) / z * j[n]
        scale = max(abs(lhs), abs(rhs), 1e-280)
        assert abs(lhs - rhs) / scale < 1e-9


class TestSphHankel1:
    def test_h0_closed_form(self):
        got = sph_hankel1(0, 1 + 0j)
        want = complex(math.sin(1), -math.cos(1))
        assert rel_err(got, want) < 1e-14

    def test_h1_frozen_value(self):
        # closed form -e^{iz}(z+i)/z^2 at z=1, frozen from mpmath
        assert rel_err(sph_hankel1(1, 1 + 0j),
                       0.30116867893975679 - 1.3817732906760362j) < 1e-12

    # the kernel forms eta_n at real arguments only
    @pytest.mark.parametrize("n", [0, 2, 15, 60, 120])
    @pytest.mark.parametrize("z", [2 + 0j, 95 + 0j])
    def test_against_mpmath(self, n, z):
        ref = complex(mp_sph_h1(n, z))
        assert rel_err(sph_hankel1(n, z), ref) < 1e-10


# x = 800 as the kernel runs it, z = m x and z = x as one pair, over the
# N = 839 orders of its series and 5 more; |m x| reaches about 2,700 at
# m = 1.5+3j
LARGE_X = 800.0
LARGE_ROWS = truncation_order(LARGE_X) + 5


@functools.cache
def large_x_pair(m):
    """(m, s_n, D_n) at orders 1..LARGE_ROWS for z = m x (column 0) and z = x
    (column 1), with D_n = (s_n - n) / z formed as the kernel forms it."""
    m = _normalize_m(m)
    s = _scaled_ratio(np.array([[m * LARGE_X, LARGE_X]]), np.array([LARGE_ROWS]))
    d = (s - np.arange(1, LARGE_ROWS + 1)[:, None]) * (1 / LARGE_X)
    d[:, 0] /= m
    return m, s, d


class TestScaledRatioLargeArgument:
    @pytest.mark.parametrize("m,n,near_zero", [
        *[(m, n, None) for m in (2 - 0.025j, 1.5 + 3j)
          for n in (1, LARGE_ROWS // 2, LARGE_ROWS)],
        # a lossless sphere: D_n(m x) crosses 0 below |m x| = 1,064
        (1.33 + 0j, 464, 0),
        # D_n(x) at the real argument crosses 0 below x
        (2 - 0.025j, 792, 1),
    ])
    def test_against_mpmath(self, m, n, near_zero):
        m, s, d = large_x_pair(m)
        for col, z in enumerate((m * LARGE_X, LARGE_X)):
            s_ref = z * mp_sph_j(n - 1, z) / mp_sph_j(n, z)
            d_ref = complex((s_ref - n) / z)
            if col == near_zero:
                assert abs(d_ref) < 1e-3
            assert rel_err(s[n - 1, col], complex(s_ref)) < 1e-10
            assert rel_err(d[n - 1, col], d_ref) < 1e-10


class TestBlockLoopRatios:
    """s_n(x) and t_n(x) as the block loop steps them upward, and rho_n
    formed from them: every t_n the kernel sums comes from this loop, on
    both routes."""

    # Largest deviations measured against mpmath over every order (x = 800:
    # 47 orders): s_n 3.7e-14 for n <= x, t_n and eta_1 1.9e-14. Above
    # n = x upward steps of the decaying psi_n lose digits, and s_n at the
    # top order is off by 1.9e-8, 4.7e-8 and 4.2e-9. That order's term is
    # at most 1.4e-16 of the sum, so its a_n and b_n sit far below the
    # truncation error that TestTruncation pins (1e-8).
    @pytest.mark.parametrize("x", [30.0, 150.0, 800.0])
    def test_against_mpmath(self, x):
        rows = truncation_order(x)
        s_t = loop_ratios(x, rows)[0]
        for n in (1, 2, 3, int(x) // 2, int(x), rows):
            s_ref = x * mp_sph_j(n - 1, x) / mp_sph_j(n, x)
            # eta_1(x) = x y_1(x) in t_1's slot
            t_ref = x * (mp_sph_y(n - 1, x) / mp_sph_y(n, x) if n > 1
                         else mp_sph_y(1, x))
            assert rel_err(s_t[n - 1].real, float(s_ref.real)) < (
                1e-7 if n == rows else 1e-13)
            assert rel_err(s_t[n - 1].imag, float(t_ref.real)) < 1e-13

    # rho_n = eta_n / psi_n = y_n / j_n, which the series sums from, as
    # `_SeriesSum.add` accumulates it: x = pi puts psi_0 = sin x at a zero,
    # so psi_1 comes from its closed form there. Measured against mpmath:
    # at most 1.5e-14 below the top order (n = 3 at x = 0.5, above x), and
    # at the top order with s_n: 1.4e-9, 5.2e-8, 2.2e-8, 7.0e-8, 9.1e-9
    @pytest.mark.parametrize("x", [1e-3, 0.5, math.pi, 30.0, 150.0, 800.0])
    def test_rho_against_mpmath(self, x):
        rows = truncation_order(x)
        rho = loop_ratios(x, rows)[2]
        for n in sorted({1, 2, 3, int(x) // 2, int(x), rows} & set(range(1, rows + 1))):
            ref = float((mp_sph_y(n, x) / mp_sph_j(n, x)).real)
            assert rel_err(rho[n - 1], ref) < (1e-7 if n == rows else 1e-13)


def wiscombe_start(z, rows):
    """Where every size started the downward recurrence before the start
    rule: m + 16 + 4 sqrt(m) for m = max(rows, |z|) (Wiscombe 1980)."""
    start = np.maximum(rows, np.abs(z).max(axis=1))
    return np.ceil(start + 16 + 4 * np.sqrt(start)).astype(int)


START_INDICES = [2 - 0.025j, 2, 1.5 + 0.1j, 1.5 + 1j, 1.5 + 2j, 1.5 + 3j,
                 1.33, 1.01, 1, 3 + 0.5j, 5 + 5j, 1.2 + 10j]
START_RANGES = [(1e-3, 1e3), (0.01, 30.0), (100.0, 1000.0)]


def kernel_pair(m, x):
    """(z, rows) of the (m x, x) pairs that the kernel runs for sizes x in
    descending order."""
    m = _normalize_m(m)
    return (np.stack((m * x, x.astype(complex)), axis=1),
            truncation_order(x))


class TestStartOrders:
    @pytest.mark.parametrize("lo,hi", START_RANGES)
    @pytest.mark.parametrize("m", START_INDICES)
    def test_stored_values_match_wiscombe_start(self, m, lo, hi, monkeypatch):
        z, rows = kernel_pair(m, np.geomspace(hi, lo, 120))
        s = _scaled_ratio(z, rows)
        start = mie._start_orders(z, rows)
        assert np.all(start <= wiscombe_start(z, rows))
        assert np.all(np.diff(start) <= 0)
        monkeypatch.setattr(mie, "_start_orders", wiscombe_start)
        assert np.array_equal(s, _scaled_ratio(z, rows))

    def test_absorbing_sphere_starts_near_its_orders(self):
        z, rows = kernel_pair(1.5 + 3j, np.array([780.9]))
        assert wiscombe_start(z, rows)[0] == 2840
        assert mie._start_orders(z, rows)[0] <= 1000

    def test_weak_absorption_keeps_wiscombe_start(self):
        # the seed must cross the oscillatory zone n < |m x|
        z, rows = kernel_pair(2 - 0.025j, np.array([791.2]))
        assert mie._start_orders(z, rows)[0] == wiscombe_start(z, rows)[0] == 1758

    @pytest.mark.parametrize("m", [2 + 1e300j, 0.5 + 1e200j, 2 + 1e308j])
    def test_start_above_the_cap_raises(self, m):
        # a start past 2^63, or an inf one, wrapped to a negative int. The
        # kernel runs the recurrence with floating-point warnings off, as
        # 1e308j x overflows to inf
        with np.errstate(all="ignore"), pytest.raises(
                DomainError, match="order .*above 1048576"):
            _scaled_ratio(*kernel_pair(m, np.array([60.0])))

    def test_start_cap(self):
        # the start grows with |m x|: 2+1e10j would run 6e11 orders, and
        # raises before any is allocated; 2+1e4j starts near 1.7e5
        with pytest.raises(DomainError, match="order 6.*e\\+11"):
            mie._start_orders(*kernel_pair(2 + 1e10j, np.array([60.0])))
        z, rows = kernel_pair(2 + 1e4j, np.array([60.0]))
        assert 1e5 < mie._start_orders(z, rows)[0] <= mie._MAX_START == 2**20

    @given(re=st.floats(1e-3, 3000.0),
           im=st.one_of(st.just(0.0), st.floats(0.0, 3000.0)),
           n=st.integers(0, 20000), dn=st.integers(1, 20000))
    @settings(max_examples=200, deadline=None)
    def test_decay_rate_never_falls_with_order(self, re, im, n, dn):
        # the rate at the first order above rows bounds every step above it
        z = mpmath.mpc(re, im)
        with mpmath.workdps(30):
            low = mpmath.re(mpmath.acosh((n + 0.5) / z))
            high = mpmath.re(mpmath.acosh((n + dn + 0.5) / z))
            assert high >= low - mpmath.mpf(10) ** -25

    @given(w=st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_real_part_of_arccosh(self, w):
        # the form the rule computes; near the cut [-1, 1] the rounding of
        # the sum is magnified by arccosh's square-root slope at 1
        got = np.arccosh(max((abs(w + 1) + abs(w - 1)) / 2, 1.0))
        with mpmath.workdps(30):
            ref = float(mpmath.re(mpmath.acosh(mpmath.mpc(w.real, w.imag))))
        assert math.isclose(got, ref, rel_tol=1e-12, abs_tol=1e-7)
