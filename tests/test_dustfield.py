import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dustmie.dustfield import (
    DustLayerModel,
    lognormal_params,
    number_density,
    size_pdf,
    size_support,
)
from dustmie.errors import DomainError
from oracles import adaptive_simpson


class TestLognormalParams:
    def test_ground_level(self):
        mu, sigma = lognormal_params(0.0)
        assert mu == pytest.approx(-2.061)
        assert sigma == pytest.approx(0.323)

    @pytest.mark.parametrize("h,mu_ref,sigma_ref", [
        (100.0, -2.417, 0.520),
        (150.0, -2.617, 0.660),
        (200.0, -2.834, 0.838),
    ])
    def test_reported_altitude_fits(self, h, mu_ref, sigma_ref):
        mu, sigma = lognormal_params(h)
        assert abs(mu - mu_ref) < 0.01
        assert abs(sigma - sigma_ref) < 0.01

    def test_negative_altitude_rejected(self):
        # also one bad element of an array
        for h in (-1.0, math.nan, [[100.0, 150.0], [-1.0, 200.0]],
                  [[100.0, 150.0], [math.nan, 200.0]]):
            for fn in (lognormal_params, size_support):
                with pytest.raises(DomainError):
                    fn(h)

    def test_extrapolation_warns(self):
        with pytest.warns(UserWarning):
            lognormal_params(5000.0)

    def test_extrapolation_onset(self):
        # the warning starts just above 1,000 m: none at 1,000 m itself, and
        # exactly one at the next float up, in both functions
        import warnings
        for fn in (lognormal_params, size_support):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fn(1000.0)
            with pytest.warns(UserWarning, match="extrapolated") as record:
                fn(math.nextafter(1000.0, math.inf))
            assert len(record) == 1

    def test_extrapolation_warns_once_per_call(self):
        h = np.array([[100.0, 1020.0], [1050.0, 1100.0]])
        for fn in (lognormal_params, size_support):
            with pytest.warns(UserWarning) as record:
                fn(h)
            assert len(record) == 1

    def test_array_matches_scalar_calls(self):
        h = np.linspace(0.0, 600.0, 12).reshape(3, 4)
        for fn in (lognormal_params, size_support):
            pair = fn(h)
            for got in pair:
                assert got.shape == h.shape
            for i, h_i in enumerate(h.flat):
                one = fn(float(h_i))
                assert all(isinstance(v, float) for v in one)
                assert one == pytest.approx((pair[0].flat[i], pair[1].flat[i]),
                                            rel=1e-15)

    @given(h1=st.floats(0, 500), h2=st.floats(0, 500))
    @settings(max_examples=50)
    def test_altitude_trend(self, h1, h2):
        if h1 >= h2:
            h1, h2 = h2, h1
        mu1, s1 = lognormal_params(h1)
        mu2, s2 = lognormal_params(h2)
        assert mu1 >= mu2        # more negative with altitude
        assert s1 <= s2


class TestSizePdf:
    @pytest.mark.parametrize("h", [0.0, 100.0, 150.0, 200.0])
    def test_normalization(self, h):
        lo, hi = size_support(h)
        mass = adaptive_simpson(lambda r: size_pdf(r, h), lo, hi, rel_tol=1e-9)
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("h", [0.0, 100.0, 200.0])
    def test_mode_location(self, h):
        mu, sigma = lognormal_params(h)
        mode = math.exp(mu - sigma**2)
        eps = 1e-6
        assert size_pdf(mode, h) >= size_pdf(mode * (1 + eps), h)
        assert size_pdf(mode, h) >= size_pdf(mode * (1 - eps), h)

    def test_frozen_value(self):
        # frozen from a 60-digit mpmath evaluation of the closed form
        assert size_pdf(0.08, 100.0) == pytest.approx(
            9.3811059122250559, rel=1e-12)

    def test_no_overflow_where_sigma_squared_would(self):
        # at 100 km sigma is about 4.6e205, so (ln r - mu)^2 / sigma^2 is
        # about 0 and the pdf 1 / (sqrt(2 pi) sigma r); the test run's
        # RuntimeWarnings are errors
        r = np.array([1e-3, 0.1, 10.0])
        with pytest.warns(UserWarning, match="extrapolated"):
            _, sigma = lognormal_params(1e5)
            one, many = size_pdf(0.1, 1e5), size_pdf(r, 1e5)
        expected = 1 / (math.sqrt(2 * math.pi) * sigma * r)
        assert one == pytest.approx(expected[1], rel=1e-15)
        assert many == pytest.approx(expected, rel=1e-15)

    def test_density_past_the_float_range_is_a_domain_error(self):
        # at 1,350 m sigma is about 200, so at r = 5e-315 mm phi(z) / (sigma
        # r) is about 6e308 per mm; the error names the first such r and its
        # h, and the test run's RuntimeWarnings are errors
        r, h = np.array([1e-3, 1e-300, 5e-315]), np.array([[100.0], [1350.0]])
        with pytest.warns(UserWarning, match="extrapolated"):
            assert np.isfinite(size_pdf(r[:2], 1350.0)).all()
            assert size_pdf(r, 100.0)[2] == 0.0
            for args in [(5e-315, 1350.0), (r, 1350.0), (r, h)]:
                with pytest.raises(DomainError, match=r"r=5e-315 mm, h=1350 m"):
                    size_pdf(*args)

    def test_domain(self):
        with pytest.raises(DomainError):
            size_pdf(0.0, 100.0)
        with pytest.raises(DomainError):
            size_pdf(-0.1, 100.0)
        with pytest.raises(DomainError):
            size_pdf(np.array([0.1, 0.0, 0.2]), 100.0)

    def test_array_matches_scalar_calls(self):
        r = np.geomspace(1e-3, 3.0, 40).reshape(4, 10)
        pdf = size_pdf(r, 150.0)
        assert pdf.shape == r.shape
        for r_i, p_i in zip(r.flat, pdf.flat):
            assert p_i == pytest.approx(size_pdf(float(r_i), 150.0), rel=1e-15)
        assert isinstance(size_pdf(0.08, 100.0), float)


class TestNumberDensity:
    def test_zero_n0(self):
        assert number_density(0.08, 100.0, 0.0) == 0.0

    @pytest.mark.parametrize("n0", [None, math.inf, math.nan, -1.0])
    def test_bad_n0_rejected(self, n0):
        # the same n0 check as DustLayerModel's
        with pytest.raises(DomainError):
            number_density(0.1, 150.0, n0)

    @given(n0=st.floats(1e-3, 1e9), r=st.floats(1e-3, 1.0))
    @settings(max_examples=50)
    def test_linearity_in_n0(self, n0, r):
        one = number_density(r, 100.0, n0)
        two = number_density(r, 100.0, 2 * n0)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_density_past_the_float_range_is_a_domain_error(self):
        # p(0.1 mm, 0 m) is about 9 per mm, so n0 = 1e308 overflows there,
        # while p(5 mm, 0 m) is far below 1; the error names the first such
        # r and its h, and the test run's RuntimeWarnings are errors
        for r in (0.1, np.array([5.0, 0.1, 0.2])):
            with pytest.raises(DomainError,
                               match=r"number density overflows the float range "
                                     r"at r=0.1 mm, h=0 m"):
                number_density(r, 0.0, 1e308)
        assert np.isfinite(number_density(np.array([0.1, 0.2]), 0.0, 1e300)).all()

    def test_total_count(self):
        n0 = 12345.0
        lo, hi = size_support(150.0)
        total = adaptive_simpson(lambda r: number_density(r, 150.0, n0),
                                 lo, hi, rel_tol=1e-9)
        assert total == pytest.approx(n0, rel=1e-6)


class TestDustLayerModel:
    def test_negative_n0_rejected(self):
        for n0 in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                DustLayerModel(n0=n0)

    def test_support_mass(self):
        lo, hi = size_support(100.0)
        mu, sigma = lognormal_params(100.0)
        assert lo == pytest.approx(math.exp(mu - 8 * sigma))
        assert hi <= 10.0

    # the log-normal mass above the 10 mm cap, which k_dust drops; the
    # levels the README's accuracy contract states
    @pytest.mark.parametrize("h,mass", [(200.0, 4.2e-10), (300.0, 1.5e-5),
                                        (600.0, 8.7e-2)])
    def test_mass_above_the_cap(self, h, mass):
        mu, sigma = lognormal_params(h)
        above = 0.5 * math.erfc((math.log(10.0) - mu) / (sigma * math.sqrt(2)))
        assert above == pytest.approx(mass, rel=0.05)

    def test_support_clamped_to_radius_cap(self):
        lo, hi = size_support(200.0)
        assert hi == 10.0
        assert 0.0 < lo < hi

    def test_far_support_is_the_kernel_domain(self):
        # sigma_d(10 km) ~ 1.5e20: exp(mu +/- 8 sigma) leaves the float range,
        # and both ends clamp to the Mie kernel's radius domain
        with pytest.warns(UserWarning):
            assert size_support(10000.0) == (1e-6, 10.0)
        # sigma_d(1000 km) itself overflows: an altitude the fit cannot take
        with pytest.warns(UserWarning), pytest.raises(DomainError):
            lognormal_params(1e6)
