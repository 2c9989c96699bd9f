"""Spherical Bessel and Hankel functions as the Mie kernel forms them.

The kernel never calls j_n or h_n^(1) directly: it builds the Riccati-Bessel
functions psi_n(z) = z j_n(z) from the log-derivative D_n(z), and
eta_n(z) = z y_n(z) by upward recurrence (`dustmie.mie._log_derivative`,
`_riccati_psi`, `_riccati_eta`). These tests divide them by z again and hold
them against arbitrary-precision references, for complex arguments too.
"""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dustmie.mie import _log_derivative, _riccati_eta, _riccati_psi

from oracles import mp_sph_h1, series_sph_j


def sph_bessel_j_array(nmax, z):
    """[j_0(z), ..., j_nmax(z)] as psi_n(z) / z. For one argument the
    recurrences' ragged order-major store is a dense column."""
    z = np.array([complex(z)])
    d = _log_derivative(z[:, None], np.array([max(nmax, 1)]))
    return _riccati_psi(z, d)[: nmax + 1, 0] / z[0]


def sph_bessel_j(n, z):
    return sph_bessel_j_array(n, z)[n]


def sph_hankel1(n, z):
    """h_n^(1)(z) = j_n(z) + i y_n(z) as (psi_n(z) + i eta_n(z)) / z."""
    zs = np.array([complex(z)])
    eta = _riccati_eta(zs, np.array([max(n, 1)]))[n]
    return sph_bessel_j(n, z) + 1j * eta / zs[0]


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
        ref = complex(series_sph_j(n, z, terms=300))
        if ref == 0:
            pytest.skip("underflow in reference")
        assert rel_err(sph_bessel_j(n, z), ref) < 1e-10

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

    @pytest.mark.parametrize("n", [0, 2, 15, 60, 120])
    @pytest.mark.parametrize("z", [2 + 0j, 5 - 1j, 40 + 3j, 95 + 0j])
    def test_against_mpmath(self, n, z):
        ref = complex(mp_sph_h1(n, z))
        assert rel_err(sph_hankel1(n, z), ref) < 1e-10
