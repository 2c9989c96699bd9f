import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dustmie import mie
from dustmie.constants import CONSTANTS
from dustmie.errors import DomainError, DustmieError, RecurrenceOverflowError
from dustmie.mie import (
    ParticleState,
    WaveSpec,
    charged_coefficient,
    collision_frequency,
    _normalize_m,
    extinction_efficiency_array,
    extinction_efficiency_x,
    scale_parameter,
    surface_plasma_frequency,
    surface_potential,
    truncation_order,
)

from oracles import charged_mie_fields, charged_mie_qext, first_ratios, neutral_mie_qext

M_DEFAULT = 2.0 - 0.025j


def on_route(route, x, m, g_e, rows):
    """Q_ext of sizes x from one route of the kernel (`mie._series` or
    `mie._downward_series`), run as `mie._qext` runs it: under one
    np.errstate, as the cells of a block above a size's own orders may
    overflow (the kernel raises where a size's own Q_ext does)."""
    with np.errstate(all="ignore"):
        return route(x, m, g_e, rows)


def recorded_coefficients(route, x, m, g_e, rows):
    """Charged (a_n, b_n) of sizes x at charges g_e for n = 1..rows, as the
    kernel's block sums return them while the route (`mie._series` or
    `mie._downward_series`) runs; the sizes must share one x: two
    (rows, len(x)) arrays."""
    blocks, add = {}, mie._SeriesSum.add          # per downward pass

    def recorded(series, *block):
        a, b = add(series, *block)
        blocks.setdefault(series, []).append((a.copy(), b.copy()))
        return a, b
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mie._SeriesSum, "add", recorded)
        on_route(route, x, m, g_e, np.full(x.size, rows))
    passes = [[np.concatenate(c) for c in zip(*run)] for run in blocks.values()]
    return tuple(np.concatenate(c, axis=1) for c in zip(*passes))


def series_coefficients(x, m, rows):
    """Neutral (a_n, b_n) of one sphere for n = 1..rows, from the kernel's
    own recurrences and block sum."""
    a, b = recorded_coefficients(mie._downward_series, np.array([float(x)]),
                                 _normalize_m(m), np.zeros(1, complex), rows)
    return a[:, 0], b[:, 0]


class TestScalarHelpers:
    def test_scale_parameter_definition(self):
        lam = 1e-3
        assert scale_parameter(lam / (2 * math.pi), lam) == pytest.approx(1.0)
        assert scale_parameter(20e-6, 1e-3) == pytest.approx(0.12566, rel=1e-4)
        assert scale_parameter(2 * lam / (2 * math.pi), lam) == pytest.approx(2.0)

    def test_scale_parameter_domain(self):
        with pytest.raises(DomainError):
            scale_parameter(0.0, 1e-3)
        with pytest.raises(DomainError):
            scale_parameter(1e-6, -1.0)

    def test_surface_potential(self):
        assert surface_potential(0, 20e-6) == 0.0
        assert surface_potential(10, 20e-6) == pytest.approx(7.209e-4, rel=1e-3)
        assert surface_potential(100, 20e-6) == pytest.approx(
            10 * surface_potential(10, 20e-6))
        with pytest.raises(DomainError):
            surface_potential(10, 0.0)

    def test_surface_plasma_frequency(self):
        assert surface_plasma_frequency(0, 20e-6) == 0.0
        assert surface_plasma_frequency(10, 20e-6) == pytest.approx(7.96e8, rel=1e-2)
        assert surface_plasma_frequency(40, 20e-6) == pytest.approx(
            2 * surface_plasma_frequency(10, 20e-6))

    def test_collision_frequency(self):
        assert collision_frequency(300.0) == pytest.approx(2.467e14, rel=1e-2)
        assert collision_frequency(150.0) == pytest.approx(
            collision_frequency(300.0) / 2)
        assert collision_frequency(600.0) == pytest.approx(
            2 * collision_frequency(300.0))
        with pytest.raises(DomainError):
            collision_frequency(0.0)

    def test_truncation_order(self):
        assert truncation_order(1.0) == 7
        assert truncation_order(2.0) == 9
        assert truncation_order(0.02) == 3
        with pytest.raises(DomainError):
            truncation_order(0.0)

    @given(x=st.floats(1e-3, 100.0))
    @settings(max_examples=50)
    def test_truncation_order_at_least_one(self, x):
        assert truncation_order(x) >= 1

    @pytest.mark.parametrize("x", [math.inf, 1e300, 1e19, 1e6, 2.1e4])
    def test_order_beyond_int64_rejected(self, x):
        # above the series' domain, x <= 2e4: far short of where
        # floor(x + 4 x^(1/3) + 2) would wrap an int64, and of where one
        # size's store outgrows the memory
        with pytest.raises(DomainError):
            truncation_order(x)
        with pytest.raises(DomainError):
            truncation_order(np.array([1.0, x]))
        with pytest.raises(DomainError):
            extinction_efficiency_x(x, M_DEFAULT)


class TestChargedCoefficient:
    def test_neutral_is_zero(self):
        assert charged_coefficient(0.5, 1e12, 0.0, 2.4e14) == 0
        assert charged_coefficient(0.5, 1e12, 0.0, 2.4e14, mode="approx") == 0

    def test_approx_is_purely_imaginary(self):
        g = charged_coefficient(0.5, 1e12, 1e9, 2.4e14, mode="approx")
        assert g.real == 0.0
        assert g.imag > 0.0

    def test_full_close_to_approx_in_thz_band(self):
        # the approx mode departs from the full one by exactly omega/gamma_s,
        # so at 300 K it is close at 0.3 THz and 25 % off at 10 THz
        for temperature in (150.0, 300.0, 1000.0):
            gamma = collision_frequency(temperature)
            for f in np.geomspace(0.1e12, 10e12, 9):
                omega = 2 * math.pi * f
                full = charged_coefficient(0.1, omega, 1e9, gamma, mode="full")
                approx = charged_coefficient(0.1, omega, 1e9, gamma, mode="approx")
                assert abs(full - approx) / abs(full) == pytest.approx(omega / gamma,
                                                                       rel=1e-12)
        gamma = collision_frequency(300.0)
        assert 2 * math.pi * 0.3e12 / gamma < 0.01
        assert 2 * math.pi * 10e12 / gamma == pytest.approx(0.255, abs=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            charged_coefficient(0.0, 1e12, 1e9, 2.4e14)
        with pytest.raises(DomainError):
            charged_coefficient(0.5, 1e12, 1e9, 2.4e14, mode="bogus")

    def test_collision_over_wave_frequency_that_overflows_is_named(self):
        # the full form takes gamma_s / omega, which at any charge (0 x inf
        # is nan) must be finite; approx divides by gamma_s omega instead
        gamma = collision_frequency(1e290)
        for omega in (6.283e-10, np.array([6.283e-10, 1e-9])):
            with pytest.raises(DomainError, match="over wave frequency 6.283e-10 "
                                                  "rad/s overflows"):
                charged_coefficient(1.0, omega, 0.0, gamma)
            assert np.all(charged_coefficient(1.0, omega, 0.0, gamma,
                                              mode="approx") == 0)


class TestWaveSpec:
    def test_from_frequency_consistent(self):
        w = WaveSpec.from_frequency(300e9)
        assert w.wavelength == pytest.approx(1e-3, rel=1e-3)


class TestParticleState:
    def test_invariants(self):
        with pytest.raises(DomainError):
            ParticleState(radius=0.5)          # above 1 cm cap
        with pytest.raises(DomainError):
            ParticleState(radius=20e-6, electrons=-1)
        for t in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                ParticleState(radius=20e-6, temperature=t)
            with pytest.raises(DomainError):
                collision_frequency(t)

    # checked where the sphere is made, so also where no kernel runs (n0 = 0)
    @pytest.mark.parametrize("m", [complex(math.nan, 0), complex(math.inf, 0),
                                   -1 + 0j, 0j])
    def test_refractive_index_outside_domain_rejected(self, m):
        with pytest.raises(DomainError):
            ParticleState(radius=20e-6, refractive_index=m)


class TestNeutralLimit:
    def test_index_matched_sphere_vanishes(self):
        for n in (1, 2, 5):
            a, b = series_coefficients(0.8, 1.0 + 0j, n)
            assert abs(a[n - 1]) < 1e-14
            assert abs(b[n - 1]) < 1e-14
        assert extinction_efficiency_x(1.0, 1.0 + 0j) == 0.0

    def test_single_order_matches_oracle_sum(self):
        # neutral a_1 + b_1 checked against the frozen arbitrary-precision
        # standard-Mie value at the small-x working point
        (a,), (b,) = series_coefficients(0.12566, M_DEFAULT, 1)
        # frozen regression value, first computed with the mpmath oracle
        (a0,), (b0,) = series_coefficients(0.02, M_DEFAULT, 1)
        frozen = 4.446625167041425e-08 - 2.6675559942765058e-06j
        assert abs((a0 + b0) - frozen) / abs(frozen) < 1e-10
        assert abs(a) > 0 and abs(b) > 0

    @pytest.mark.parametrize("m", [1.33 + 0j, 1.5 - 0.1j, M_DEFAULT])
    # x = pi puts psi_0(x) = sin x at a zero; every size here runs upward
    @pytest.mark.parametrize("x", [0.02, 0.1, 0.5, 2.0, 10.0, math.pi])
    def test_qext_matches_independent_oracle(self, x, m):
        assert mie._steps_upward(np.array([x]), _normalize_m(m))[0]
        ours = extinction_efficiency_x(x, m)
        ref = neutral_mie_qext(x, m)
        assert ours == pytest.approx(ref, rel=1e-8)

    def test_extinction_paradox(self):
        q = extinction_efficiency_x(50.0, 1.5 + 0j)
        assert q == pytest.approx(2.0, rel=0.10)

    def test_im_sign_convention_locked(self):
        # either sign of Im(m) maps to the same absorbing sphere
        q_minus = extinction_efficiency_x(0.5, 2.0 - 0.025j)
        q_plus = extinction_efficiency_x(0.5, 2.0 + 0.025j)
        assert q_minus == q_plus
        assert q_minus > 0


class TestChargedBehavior:
    def _ge(self, x, ne, wavelength=1e-3, temp=300.0):
        w = WaveSpec.from_frequency(CONSTANTS.c / wavelength)
        r = x * wavelength / (2 * math.pi)
        omega_s = surface_plasma_frequency(ne, r)
        return charged_coefficient(x, 2 * math.pi * w.frequency, omega_s,
                                   collision_frequency(temp))

    def test_charge_increases_small_x_extinction(self):
        x = 0.02
        q = [extinction_efficiency_x(x, M_DEFAULT, self._ge(x, ne))
             for ne in (0, 10, 100, 1000)]
        assert all(b > a for a, b in zip(q, q[1:]))

    def test_charged_regression_fixture(self):
        # frozen after the first validated run (Ne=10, x=0.02, lambda=1mm)
        q = extinction_efficiency_x(0.02, M_DEFAULT, self._ge(0.02, 10))
        assert q == pytest.approx(0.0006670180698906037, rel=1e-9)
        q0 = extinction_efficiency_x(0.02, M_DEFAULT)
        assert q0 == pytest.approx(0.0006670158138049701, rel=1e-9)

    def test_full_vs_approx_mode(self):
        for f in (0.3e12, 1e12, 10e12):
            w = WaveSpec.from_frequency(f)
            p = ParticleState(20e-6, 1000, 300.0, M_DEFAULT)
            qf, qa = (extinction_efficiency_array(
                p.radius, w.frequency, p.electrons, p.temperature,
                p.refractive_index, mode=mode) for mode in ("full", "approx"))
            assert abs(qf - qa) / abs(qf) < 0.01

    def test_scale_invariance(self):
        # same (x, g_e, m) through two different (r, lambda) pairs
        g = self._ge(0.5, 100, wavelength=1e-3)
        q1 = extinction_efficiency_x(0.5, M_DEFAULT, g)
        q2 = extinction_efficiency_x(0.5, M_DEFAULT, g)
        assert q1 == q2
        for lam in (1e-3, 0.3e-3):
            w = WaveSpec.from_frequency(CONSTANTS.c / lam)
            r = 0.5 * lam / (2 * math.pi)
            x = scale_parameter(r, lam)
            assert x == pytest.approx(0.5)
            q = extinction_efficiency_x(x, M_DEFAULT, g)
            assert q == pytest.approx(q1, rel=1e-12)


# The series is summed to Wiscombe's order and no further, and nothing
# checks convergence at run time: on this grid, which spans the domain of
# truncation_order, the error that leaves is pinned once. Measured at most
# 6.6e-9 (3+0.001j) on denser grids (README, Numerics: Truncation).
TRUNCATION_INDICES = [2 - 0.025j, 3 + 0.001j, 1.5 + 1j, 1.5 + 3j, 5 + 5j,
                      1.2 + 10j, 1.33]
TRUNCATION_X = np.geomspace(mie._MAX_X, 1e-3, 40)


class TestTruncation:
    @pytest.mark.parametrize("m", TRUNCATION_INDICES)
    def test_sum_to_truncation_order_matches_40_more_orders(self, m, monkeypatch):
        # g_e = 0 and 1j as one batch in one lockstep downward pass (the
        # pass size bounds memory, and moves Q_ext by rounding only)
        monkeypatch.setattr(mie, "_PASS_TERMS", 2**22)
        x, charges = TRUNCATION_X, (0j, 1j)
        q = mie._qext(np.tile(x, 2), m, np.repeat(charges, x.size))
        m = _normalize_m(m)
        longer = np.concatenate([
            on_route(mie._downward_series, x, m, np.full(x.size, g_e),
                     truncation_order(x) + 40)
            for g_e in charges])
        assert np.all(np.abs(q - longer) <= 1e-8 * np.abs(longer))

    def test_truncation_tail_at_large_x(self):
        # at x=50 with an absorbing index the 5 orders past the truncation
        # order move Q_ext by about 2e-10 relative
        x = 50.0
        nmax = truncation_order(x)
        terms = list(zip(*series_coefficients(x, 1.5 - 0.1j, nmax + 5)))

        def partial(upto):
            return 2 / x**2 * sum((2 * n + 1) * (terms[n - 1][0] + terms[n - 1][1]).real
                                  for n in range(1, upto + 1))

        tail = abs(partial(nmax + 5) - partial(nmax)) / abs(partial(nmax + 5))
        assert tail < 1e-9


class TestStronglyAbsorbing:
    # Im(m) x > ~710: psi_n(mx) itself overflows a double, so the series must
    # not need it; only the log-derivative D_n(mx) enters the coefficients
    @pytest.mark.parametrize("x,m", [(800.0, 1.5 + 1j), (400.0, 1.5 + 2j),
                                     (300.0, 1.5 + 3j)])
    def test_finite_qext(self, x, m):
        q = extinction_efficiency_x(x, m)
        assert math.isfinite(q)
        assert q == pytest.approx(2.0, rel=0.05)   # extinction paradox

    def test_matches_oracle(self):
        ours = extinction_efficiency_x(300.0, 1.5 + 3j)
        assert ours == pytest.approx(neutral_mie_qext(300.0, 1.5 + 3j), rel=1e-8)


# Wiscombe's bound for stepping D_n(mx) upward, Im(m) x < 13.78 Re(m)^2 -
# 10.8 Re(m) + 3.9, puts the upward route of this index at x < 187.05
ROUTE_M = 1.5 + 0.1j


class TestRoutes:
    def test_route_follows_x_and_m(self):
        x = np.array([300.0, 187.1, 187.0, 10.0, 1.0, 0.999, 1e-6])
        assert mie._steps_upward(x, _normalize_m(ROUTE_M)).tolist() == [
            False, False, True, True, True, True, True]
        # the bound is fitted for Re(m) >= 1; below it upward steps drift
        assert not mie._steps_upward(np.array([10.0, 0.5]), complex(0.95)).any()

    # largest deviation measured between the routes on these grids: 3.8e-14
    # (2-0.025j near its bound, x ~ 1,500)
    @pytest.mark.parametrize("m,rel", [(ROUTE_M, 1e-13), (M_DEFAULT, 1e-13),
                                       (1.5 + 1j, 1e-13)])
    def test_routes_agree_on_both_sides_of_each_boundary(self, m, rel):
        m = _normalize_m(m)
        bound = (13.78 * m.real**2 - 10.8 * m.real + 3.9) / m.imag
        x = np.geomspace(1.02 * bound, 0.98 * bound, 11)
        upward = mie._steps_upward(x, m)
        assert upward.any() and not upward.all()
        rows = truncation_order(x)
        for g_e in (0j, 1j, -5 + 50j):
            g = np.full(x.size, g_e)
            up = on_route(mie._series, x, m, g, rows)
            down = on_route(mie._downward_series, x, m, g, rows)
            assert np.all(np.abs(up - down) <= rel * np.abs(down))

    # Below x = 1 both routes sum two to six orders, from s_1 and s_2 near
    # 3 and 5. Largest deviation measured on these grids over g_e = 0,
    # 1e-3j, 1j and -5+50j, for x in [1e-3, 1): 8.8e-15 (2-0.025j), 3.6e-14
    # (1.5+0.1j), 8.6e-15 (1.33), 3.3e-11 (1.0001, whose Q_ext cancels in
    # both), 5.5e-15 (1.5+1j), 2.1e-14 (5+5j), 4.5e-14 (1.2+10j). In
    # [1e-6, 1e-3) none: both routes take s_1 and s_2 from the same
    # contracting downward step, so they give the same bits; the pins there
    # were set when the upward seeds came from a series, 4.4e-12 off at
    # 1.0001 and 2.7e-15 elsewhere. Each pin is about twice its maximum,
    # rounded up to 1, 2, 3, 4 or 5 times a power of ten, or the earlier,
    # lower pin where that is tighter (above 1e-3 at 2-0.025j, 1.5+0.1j,
    # 1.33, 1.0001 and 1.2+10j, and below it at 1.0001)
    @pytest.mark.parametrize("m,rel_above,rel_below", [
        (M_DEFAULT, 1e-14, 2e-15), (ROUTE_M, 4e-14, 2e-15), (1.33, 1e-14, 1e-14),
        (1.0001, 4e-11, 1e-11), (1.5 + 1j, 2e-14, 2e-15), (5 + 5j, 5e-14, 2e-15),
        (1.2 + 10j, 5e-14, 3e-15)])
    def test_routes_agree_at_small_x(self, m, rel_above, rel_below):
        m = _normalize_m(m)
        for x, rel in ((np.geomspace(1, 1e-3, 3000)[1:], rel_above),
                       (np.geomspace(1e-3, 1e-6, 1000), rel_below)):
            assert mie._steps_upward(x, m).all()
            rows = truncation_order(x)
            for g_e in (0j, 1e-3j, 1j, -5 + 50j):
                g = np.full(x.size, g_e)
                up = on_route(mie._series, x, m, g, rows)
                down = on_route(mie._downward_series, x, m, g, rows)
                assert np.all(np.abs(up - down) <= rel * np.abs(down))

    @pytest.mark.parametrize("m", [M_DEFAULT, 1.33, 1.5 + 1j, 5 + 5j])
    def test_both_routes_match_oracle_at_small_x(self, m):
        # measured within 1.4e-15 of the oracle on either route
        x = np.array([1e-4, 1e-5, 1e-6])
        g, rows, ref = np.zeros(x.size, complex), truncation_order(x), [
            neutral_mie_qext(xi, m) for xi in x]
        for route in (mie._series, mie._downward_series):
            q = on_route(route, x, _normalize_m(m), g, rows)
            assert q == pytest.approx(ref, rel=3e-15, abs=0)

    def test_index_matched_small_sphere_vanishes(self):
        # s_n(mx) takes the same float steps as s_n(x), from the same start
        x = np.geomspace(1e-6, 1, 2000, endpoint=False)
        assert mie._steps_upward(x, 1 + 0j).all()
        assert np.all(mie._qext(x, 1.0, np.zeros(x.size, complex)) == 0.0)

    def test_index_matched_zero_is_positive_in_any_batch(self):
        # a size's bits do not depend on its batch, on either route: alone,
        # these sizes summed to -0.0 where a batch of them gave +0.0
        x = np.array([50.0, 5.0, 0.5])
        g, rows = np.zeros(x.size, complex), truncation_order(x)
        zeros = ulps(np.zeros(x.size))
        assert ulps(mie._qext(x, 1.0, g)) == zeros
        assert ulps([extinction_efficiency_x(xi, 1.0) for xi in x]) == zeros
        assert ulps(on_route(mie._downward_series, x, 1 + 0j, g, rows)) == zeros
        assert ulps([on_route(mie._downward_series, x[i:i + 1], 1 + 0j, g[:1],
                              rows[i:i + 1])[0] for i in range(x.size)]) == zeros

    def test_upward_size_matches_oracle(self):
        x = 30.0
        assert mie._steps_upward(np.array([x]), _normalize_m(ROUTE_M))[0]
        assert extinction_efficiency_x(x, ROUTE_M) == pytest.approx(
            neutral_mie_qext(x, ROUTE_M), rel=1e-8)

    # sizes of both routes at every index below (the upward route, and
    # above the bound where the index has one), a strongly absorbing index
    # with a short upward route, and one with Re(m) < 1, all downward
    MIXED = np.array([0.01, 0.7, 1.0, 3.0, 40.0, 150.0, 400.0])

    @given(log_x=st.floats(-3.0, math.log10(mie._MAX_X)),
           m=st.sampled_from([M_DEFAULT, ROUTE_M, 1.33, 1.5 + 1j, 5 + 5j,
                              0.9 + 0.01j]),
           g_e=st.sampled_from([0j, 1e-3j, 1j, -5 + 50j]))
    @settings(max_examples=15, deadline=None)
    def test_size_alone_equals_size_in_a_mixed_batch(self, log_x, m, g_e):
        x = np.concatenate(([10.0**log_x], self.MIXED))
        g = np.full(x.size, g_e, complex)
        try:
            batch = mie._qext(x, m, g)
        except DustmieError:
            with pytest.raises(DustmieError):
                mie._qext(x[:1], m, g[:1])
            return
        assert np.all(np.isfinite(batch))
        assert mie._qext(x[:1], m, g[:1])[0] == batch[0]


# the indices of TestRoutes::test_routes_agree_at_small_x
SMALL_X_INDICES = [M_DEFAULT, ROUTE_M, 1.33, 1.0001, 1.5 + 1j, 5 + 5j, 1.2 + 10j]
CHARGES = [1e-3j, 1j, -5 + 50j]


class TestChargedOracle:
    """The charged Q_ext against `oracles.charged_mie_qext`, built from the
    boundary conditions before any division and summed over the kernel's
    orders."""

    def test_oracle_reduces_to_the_neutral_one(self):
        for x, m in [(0.02, M_DEFAULT), (0.5, 1.33), (3.0, 1.5 + 1j)]:
            assert charged_mie_qext(x, m, 0j) == pytest.approx(
                neutral_mie_qext(x, m), rel=1e-8)

    # Measured at most 7.7e-15 (1.0001, g_e = 1e-3j, x = 1). With g_e = 1j
    # the sums that left the factor g_e D_n(mx) + m in read 1.2e-8 off at
    # x = 1e-10 and a tenth of the value at x = 1e-20 (2-0.025j), and
    # 6.8e-7 off and negative (1.5+1j)
    @pytest.mark.parametrize("m", SMALL_X_INDICES)
    def test_small_x(self, m):
        x = np.geomspace(1e-20, 1, 11)
        for g_e in CHARGES:
            q = mie._qext(x, m, np.full(x.size, g_e))
            ref = [charged_mie_qext(xi, m, g_e) for xi in x]
            assert q == pytest.approx(ref, rel=1e-13, abs=0)

    def test_physical_one_nm_sphere(self):
        # 1.5+1j, 100 electrons at 0.1 THz, 300 K: x = 2.1e-6 and g_e =
        # -8.7e-4+0.34j; the sums that left g_e D_n(mx) + m in read 5.1e-12
        # off
        r, f, m = 1e-9, 1e11, 1.5 + 1j
        x = scale_parameter(r, CONSTANTS.c / f)
        g_e = charged_coefficient(x, 2 * math.pi * f, surface_plasma_frequency(100, r),
                                  collision_frequency(300.0))
        q = extinction_efficiency_array(r, f, 100, 300.0, m)
        assert q == pytest.approx(charged_mie_qext(x, m, g_e), rel=1e-13, abs=0)

    # Below the float range's reach Re(a_1) underflows (near x = 1e-77 for
    # a charged sphere) and rho_1 = eta_1 / psi_1 overflows (near 1e-103):
    # the kernel must then raise rather than return a finite Q_ext, such as
    # the 0.0 a sum of underflowed terms gives at x = 1e-100
    @pytest.mark.parametrize("m", SMALL_X_INDICES)
    def test_tiny_x_is_accurate_or_raises(self, m):
        for x in np.geomspace(1e-300, 1e-20, 15):
            for g_e in CHARGES:
                try:
                    q = extinction_efficiency_x(x, m, g_e)
                except RecurrenceOverflowError:
                    assert x < 1e-60
                    continue
                assert q == pytest.approx(charged_mie_qext(x, m, g_e), rel=1e-13, abs=0)
        with pytest.raises(RecurrenceOverflowError, match="underflow"):
            extinction_efficiency_x(1e-100, m, 1j)

    # the fields S, B and K that make Q_ext linear in g_e within a bound
    # (`mie._SeriesSum._linear`), against the same sums of the oracle's
    # Moebius coefficients: S and B measured within 3.9e-15, and K within
    # 3.4e-10 (2-0.025j at x = 0.3, where the largest kappa is the last
    # order's, whose ratios carry the upward steps' drift above n = x)
    @pytest.mark.parametrize("m", [1.33, M_DEFAULT, 1.5 + 1j, 3 + 0.001j])
    def test_linear_fields_match_the_oracle(self, m):
        x = np.array([1e-3, 0.01, 0.3, 3.0, 20.0])
        fields = mie._qext(x, m, np.zeros(x.size, complex), linear=True)
        for xi, got in zip(x.tolist(), fields):
            s, b, k = charged_mie_fields(xi, m)
            assert abs(got["s"] - s) <= 1e-13 * abs(s)
            assert got["b"] == pytest.approx(b, rel=1e-13, abs=0)
            assert got["k"] == pytest.approx(k, rel=1e-9, abs=0)
        assert np.array_equal(fields["q"], mie._qext(x, m, np.zeros(x.size, complex)))

    def test_index_matched_sphere_at_tiny_x_vanishes(self):
        # its terms are exactly zero, not underflowed
        x = np.geomspace(1e-100, 1e-60, 5)
        assert np.all(mie._qext(x, 1.0, np.zeros(x.size, complex)) == 0.0)


def route_coefficients(x, m, g_e, upward):
    """Charged (a_n, b_n) of one size x at each charge of g_e, on the route
    given: two (truncation_order(x), len(g_e)) arrays."""
    g_e = np.asarray(g_e, complex)
    route = mie._series if upward else mie._downward_series
    return recorded_coefficients(route, np.full(g_e.size, float(x)), m, g_e,
                                 truncation_order(x))


def cross_ratio(z):
    """Cross-ratio of the four rows of z."""
    return (z[0] - z[2]) * (z[1] - z[3]) / ((z[1] - z[2]) * (z[0] - z[3]))


class TestChargedInvariants:
    """Exact properties of the charged a_n and b_n that need no oracle, on
    both routes wherever a size can take them."""

    INDICES = [1.33, 2.0, M_DEFAULT, ROUTE_M, 3 + 0.001j, 1.5 + 1j]

    @staticmethod
    def routes(x, m):
        return [False] + ([True] if mie._steps_upward(np.array([x]), m)[0] else [])

    @given(log_x=st.floats(-3.0, math.log10(mie._MAX_X)), m=st.sampled_from(INDICES))
    @example(log_x=-3.0, m=M_DEFAULT)
    @example(log_x=math.log10(mie._MAX_X), m=1.33)
    @settings(max_examples=12, deadline=None)
    def test_energy_balance(self, log_x, m):
        # Q_abs = Q_ext - Q_sca, Q_sca = 2/x^2 sum (2n + 1)(|a_n|^2 + |b_n|^2):
        # 0 for a real index and a real g_e (a lossless surface), and positive
        # when either absorbs. Measured on 300 log-uniform sizes at these
        # indices: |Q_abs| at most 8.4e-16 of Q_ext when lossless, and at
        # least 5.4e-4 of it otherwise (2.0 with g_e = 1e-3j).
        x, m = min(10.0**log_x, mie._MAX_X), _normalize_m(m)
        lossless = [0j, -5 + 0j, 50 + 0j] if m.imag == 0 else []
        g_e = lossless + [1e-3j, 1j, -5 + 50j]
        n = np.arange(1, truncation_order(x) + 1)[:, None]
        for upward in self.routes(x, m):
            a, b = route_coefficients(x, m, g_e, upward)
            ext = 2 / x**2 * np.sum((2 * n + 1) * (a.real + b.real), axis=0)
            sca = 2 / x**2 * np.sum((2 * n + 1) * (abs(a)**2 + abs(b)**2), axis=0)
            absorbed = ext - sca
            k = len(lossless)
            assert np.all(np.abs(absorbed[:k]) <= 1e-14 * ext[:k])
            assert np.all(absorbed[k:] > 0)

    # g_e on both sides of the real axis: the Moebius form does not need a
    # physical charge
    CHARGES = np.array([0j, 1j, -5 + 50j, 0.5 - 2j])

    @given(log_x=st.floats(-3.0, math.log10(mie._MAX_X)), m=st.sampled_from(INDICES))
    @example(log_x=-3.0, m=M_DEFAULT)
    @example(log_x=math.log10(mie._MAX_X), m=1.33)
    @settings(max_examples=12, deadline=None)
    def test_coefficients_are_moebius_maps_of_g_e(self, log_x, m):
        # a_n = A(psi) / (A(psi) + i A(eta)) with A linear in g_e, and b_n
        # alike, so each maps g_e by a Moebius transform, which keeps
        # cross-ratios. An order whose four values nearly coincide loses
        # their difference to rounding: the deviation was at most 2.6 ulps
        # times cond = max |c| / min |c_i - c_j| (300 sizes, five indices),
        # checked where cond < 1e8
        x, m = min(10.0**log_x, mie._MAX_X), _normalize_m(m)
        expected = cross_ratio(self.CHARGES)
        for upward in self.routes(x, m):
            for c in route_coefficients(x, m, self.CHARGES, upward):
                c = c.T
                gaps = np.min([abs(c[i] - c[j]) for i in range(4) for j in range(i)],
                              axis=0)
                cond = np.abs(c).max(axis=0) / gaps
                dev = abs(cross_ratio(c) - expected) / abs(expected)
                checked = cond < 1e8
                assert checked[0]
                assert np.all(dev[checked] <= 64 * 2.2e-16 * cond[checked])


    # g_e = t e^(i phase) / K for t from 1e-12 to 2, on both sides of the
    # real axis
    LADDER = np.outer([1e-12, 1e-8, 1e-4, 0.5, 2.0],
                      np.exp(1j * np.array([0.3, -2.8]))).ravel()

    @given(log_x=st.floats(-3.0, math.log10(mie._MAX_X)), m=st.sampled_from(INDICES))
    @example(log_x=-3.0, m=1.33)
    @example(log_x=math.log10(mie._MAX_X), m=1.33)
    @settings(max_examples=12, deadline=None)
    def test_linear_charge_is_within_its_bound(self, log_x, m):
        # Q_ext(g_e) = Q_0 + Re(S g_e) within 2 B |g_e|^2 wherever
        # |g_e| K <= 1/2, so wherever `mie._linear_q` admits a node,
        # to the two sums' rounding: at most 1e-14 of Q_0 measured on 400
        # sizes to x = 2e4 at five indices. The rule admits no node past
        # that disc, nor any of an index-matched sphere, whose Q_0 is 0
        x = min(10.0**log_x, mie._MAX_X)
        for index in (m, 1.0):
            fields = mie._qext(np.array([x]), index, np.zeros(1, complex), linear=True)
            g_e = self.LADDER / fields["k"][0]
            fields = np.repeat(fields, g_e.size)
            admitted, linear = mie._linear_q(fields, g_e, 1e-13)   # channel._LINEAR_EPS
            q = mie._qext(np.full(g_e.size, x), index, g_e)
            mag = np.abs(g_e)
            disc = mag * fields["k"] <= 0.5
            bound = 2 * fields["b"] * mag**2 + 5e-14 * fields["q"]
            assert np.all(np.abs(q - linear)[disc] <= bound[disc])
            assert not admitted[~disc].any()
            if index == 1.0:
                assert np.all(fields["q"] == 0) and not admitted.any()
            else:
                assert admitted.any()


@pytest.fixture
def scalar_lanes(monkeypatch):
    """(first order, orders) of each lane that `mie._series` steps in
    scalars, one `_lane_ratios` call a lane."""
    lanes, fn = [], mie._lane_ratios

    def recorded(odd, *args):
        lanes.append((int(odd[0] + 1) // 2, len(odd)))
        return fn(odd, *args)
    monkeypatch.setattr(mie, "_lane_ratios", recorded)
    return lanes


def ulps(values) -> list[int]:
    """The bits of float or complex values, as uint64 words."""
    return np.asarray(values).reshape(-1).view(np.uint64).tolist()


class TestScalarTail:
    """From where at most `mie._SCALAR_LANES` distinct x still run,
    `mie._series` steps each run of equal x (a lane) in scalars, which must
    give the vector loops' ufunc bits."""

    @staticmethod
    def operands(rng, n):
        # random magnitudes over the whole float range, a third of them
        # replaced by +-0, subnormals, huge values and infinities
        with np.errstate(over="ignore"):       # some overflow to +-inf
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 309, n)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1.7e308,
                   math.inf, -math.inf, 1.0, 3.0]
        pick = rng.random(n) < 0.3
        v[pick] = rng.choice(special, int(pick.sum()))
        return v

    def test_scalar_subtract_and_divide_match_the_ufuncs(self):
        # The tail subtracts and divides in Python floats and numpy
        # complex128 scalars, and never multiplies: numpy's scalar complex
        # multiply differs from its array loop in the last bit on many pairs
        # (44 % of random normal pairs with numpy 2.4 on an AVX-512 host), so
        # the tail takes x^2 and (mx)^2 from the vector loop's arrays.
        rng = np.random.default_rng(27)
        n = 20000
        a, b = self.operands(rng, n), self.operands(rng, n)
        za, zb = np.empty(n, complex), np.empty(n, complex)
        for z in (za, zb):                     # not re + 1j * im: 1j * inf has a nan
            z.real, z.imag = self.operands(rng, n), self.operands(rng, n)
        with np.errstate(all="ignore"):
            assert ulps([x - y for x, y in zip(a.tolist(), b.tolist())]) == ulps(
                np.subtract(a, b))
            # Python raises at a zero divisor (test_zero_denominator_gives_inf)
            nonzero = b != 0
            assert ulps([x / y for x, y in zip(a[nonzero].tolist(),
                                                b[nonzero].tolist())]) == ulps(
                np.divide(a[nonzero], b[nonzero]))
            assert ulps([x - y for x, y in zip(za, zb)]) == ulps(np.subtract(za, zb))
            assert ulps([x / y for x, y in zip(za, zb)]) == ulps(np.divide(za, zb))
            # 2n - 1 as a Python float, less a complex128 scalar
            assert ulps([x - y for x, y in zip(a.tolist(), zb)]) == ulps(
                np.subtract(a.astype(complex), zb))

    @pytest.mark.parametrize("z2", [4.0, -4.0, 0.0])
    def test_zero_denominator_gives_inf(self, z2):
        # (2n - 1) - f_{n-1} == 0.0 at the first step: Python's float divide
        # raises there, numpy's gives +-inf (or nan for 0 / 0), and the
        # steps after it go on from that
        odd = [5.0, 7.0, 9.0]
        f, expected = np.array([5.0]), []
        with np.errstate(all="ignore"):
            for o in odd:
                f = np.divide(z2, np.subtract(np.array(o), f))
                expected.append(f[0])
            assert ulps(mie._lane_ratios(odd, z2, [5.0])[0]) == ulps(expected)

    @pytest.mark.parametrize("m", [1.5 + 1j, 0.9 + 0.01j, M_DEFAULT, 1.33])
    def test_downward_store_gives_repeated_rows_the_one_row_bits(self, m):
        # three sizes of three rows and three of one, as a table's columns
        # make them: each row's stored s_n(mx) and s_n(x) are the bits of a
        # batch of that row alone
        x = np.repeat([700.0, 300.0, 120.0, 40.0, 10.0, 3.0], [3, 3, 3, 1, 1, 1])
        z = np.stack((_normalize_m(m) * x, x.astype(complex)), axis=1)
        rows = truncation_order(x)
        offsets = mie._order_counts(rows)[1]
        store = mie._scaled_ratio(z, rows)
        for i in range(x.size):
            mine = store[offsets[:rows[i]] + i]
            assert ulps(mine) == ulps(mie._scaled_ratio(z[i:i + 1], rows[i:i + 1]))

    @pytest.mark.parametrize("m", [M_DEFAULT, 1.5, 1.5 + 1j, 0.9 + 0.01j])
    def test_tail_keeps_the_vector_loops_bits(self, m, monkeypatch, scalar_lanes):
        # batches of repeated x, as a table's columns make them, on both
        # routes and for a real m, with the tail and with the vector loops
        # alone to each size's last order
        rng = np.random.default_rng(7)
        batches = []
        for _ in range(6):
            x = np.exp(rng.uniform(np.log(1e-3), np.log(3e3), rng.integers(1, 9)))
            x = np.repeat(x, rng.integers(1, 4))
            batches.append((x, (-rng.uniform(0, 5, x.size)
                                + 1j * rng.uniform(0, 50, x.size))))
        tail = [mie._qext(x, m, g) for x, g in batches]
        assert sum(orders for _, orders in scalar_lanes) > 1000
        monkeypatch.setattr(mie, "_LANE_ORDERS", 10**9)
        assert ulps(np.concatenate(tail)) == ulps(
            np.concatenate([mie._qext(x, m, g) for x, g in batches]))


class TestBatchKernel:
    def test_batch_matches_single_sphere_entry(self):
        # radius x frequency x charge broadcast, across order blocks of
        # different widths, against one-sphere calls
        radius = np.geomspace(1e-7, 5e-3, 40)
        freq = np.array([0.3e12, 2e12])[:, None, None]
        ne = np.array([0, 1000, 10**6])[:, None]
        q = extinction_efficiency_array(radius, freq, ne, 300.0, M_DEFAULT)
        assert q.shape == (2, 3, 40)
        for i, f in enumerate((0.3e12, 2e12)):
            for j, n_e in enumerate((0, 1000, 10**6)):
                for k in range(0, 40, 7):
                    ref = float(extinction_efficiency_array(
                        float(radius[k]), f, n_e, 300.0, M_DEFAULT))
                    assert q[i, j, k] == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("mode", ["full", "approx"])
    def test_one_sphere_call_matches_one_element_batch(self, mode):
        # a scalar call gets approx mode's g_e as a Python complex
        args = (3e11, 1000, 300.0, M_DEFAULT)
        q = extinction_efficiency_array(20e-6, *args, mode=mode)
        batch = extinction_efficiency_array([20e-6], *args, mode=mode)
        assert q.shape == () and batch.shape == (1,)
        assert q == batch[0]

    # NaN, inf, and an int beyond the float range
    @pytest.mark.parametrize("ne", [math.nan, math.inf, 10**400])
    def test_electron_count_not_a_finite_float_rejected(self, ne):
        with pytest.raises(DomainError):
            ParticleState(20e-6, ne)
        with pytest.raises(DomainError):
            surface_potential(ne, 20e-6)
        for electrons in (ne, [0, ne]):
            with pytest.raises(DomainError):
                extinction_efficiency_array(1e-6, 3e11, electrons, 300.0, M_DEFAULT)

    def test_electron_count_beyond_int64(self):
        # a Python int of 2^64 or more is read as the float it equals
        radius = np.geomspace(1e-7, 1e-4, 5)
        q_int = extinction_efficiency_array(radius, 0.3e12, 10**30, 300.0, M_DEFAULT)
        q_float = extinction_efficiency_array(radius, 0.3e12, 1e30, 300.0, M_DEFAULT)
        assert np.array_equal(q_int, q_float)

    @pytest.fixture
    def route_and_block_counts(self, monkeypatch):
        """Upward loops, downward passes and summed order blocks the kernel
        makes: one `_series` call without a store per upward loop, one
        `_scaled_ratio` per downward pass, one `_SeriesSum.add` per block."""
        counts = {"upward": 0, "downward": 0, "blocks": 0}

        def counted(owner, name, key):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                # a `_series` call given a store sums a downward pass
                counts[key] += kwargs.get("store") is None
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(mie, "_series", "upward")
        counted(mie, "_scaled_ratio", "downward")
        counted(mie._SeriesSum, "add", "blocks")
        return counts

    # 1,200 radii at 3 THz, x from 0.006 to 630: one upward loop and no
    # downward pass, summed in many order blocks
    PASS_GRID = np.geomspace(1e-7, 1e-2, 1200)

    @pytest.mark.parametrize("ne", [0, 10**6])
    def test_batch_across_passes_matches_single_sphere_entry(
            self, ne, route_and_block_counts):
        w = WaveSpec.from_frequency(3e12)
        q = extinction_efficiency_array(self.PASS_GRID, w.frequency, ne, 300.0,
                                        M_DEFAULT)
        assert route_and_block_counts["upward"] == 1
        assert route_and_block_counts["downward"] == 0
        assert route_and_block_counts["blocks"] >= 10
        for k, r in enumerate(self.PASS_GRID):
            ref = float(extinction_efficiency_array(float(r), w.frequency, ne, 300.0,
                                                    M_DEFAULT))
            assert q[k] == ref

    @pytest.mark.parametrize("m,g_e", [(M_DEFAULT, 0j), (3 + 0.001j, 1e-3 + 2e-3j),
                                       (ROUTE_M, -5 + 50j)])
    def test_qext_does_not_depend_on_the_batch(self, m, g_e):
        # a size's Q_ext is the same bits alone, in a batch and in another
        # batch, up to x = 6,000, where a block holds a single size (kept
        # kernel tables rely on this); at ROUTE_M the grid crosses the end
        # of the upward route, Wiscombe's bound
        x = np.geomspace(0.05, 6000.0, 24)
        g = np.full(x.size, g_e)
        batch = mie._qext(x, m, g)
        assert mie._qext(x[1::2], m, g[1::2]).tolist() == batch[1::2].tolist()
        assert mie._qext(x[5:20], m, g[5:20]).tolist() == batch[5:20].tolist()
        assert [extinction_efficiency_x(xi, m, g_e) for xi in x] == batch.tolist()

    # A size's bits must not depend on its batch or its order blocks: kept
    # kernel tables read a cell computed in one batch as if computed in
    # another. numpy 2.4 on an AVX-512 host multiplies a one-element complex
    # array in place in other bits than a longer one, so the kernel forms
    # no complex product in place; blocks of one size and one order
    # (_CHUNK_TERMS = 1) are drawn too
    @given(log_x=st.lists(st.floats(-3.0, 2.5), min_size=1, max_size=5),
           m=st.sampled_from([M_DEFAULT, ROUTE_M, 1.33, 1.0001, 1.5 + 1j, 5 + 5j,
                              0.9 + 0.01j]),
           charges=st.lists(st.sampled_from([0j, 1e-3j, 1j, -5 + 50j, 0.5 - 2j]),
                            min_size=5, max_size=5),
           chunk=st.sampled_from([1, 3, 64]), data=st.data())
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    def test_size_keeps_its_bits_in_any_batch_and_blocks(self, log_x, m, charges,
                                                         chunk, data):
        x = 10.0 ** np.array(log_x)
        g = np.array(charges[:x.size])
        order = np.array(data.draw(st.permutations(range(x.size))))
        batch = mie._qext(x, m, g)
        alone = [mie._qext(x[i:i + 1], m, g[i:i + 1])[0] for i in range(x.size)]
        permuted = np.empty(x.size)
        permuted[order] = mie._qext(x[order], m, g[order])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mie, "_CHUNK_TERMS", chunk)
            split = mie._qext(x, m, g)
            split_alone = [mie._qext(x[i:i + 1], m, g[i:i + 1])[0]
                           for i in range(x.size)]
        for other in (alone, permuted, split, split_alone):
            assert ulps(other) == ulps(batch)

    @pytest.mark.parametrize("m", [1.33, 1.5 + 1j])
    def test_batch_whose_first_block_holds_order_1_alone(self, m, monkeypatch):
        # more than 3,584 sizes, all on the upward route: a block holds one
        # order while they all run, so the first holds order 1 alone and the
        # loop starts from a copy of the next block's seeded order-2 row.
        # Each size keeps its bits in batches of 1,000, whose first blocks
        # step from their own order-2 rows
        rng = np.random.default_rng(11)
        x = np.exp(rng.uniform(np.log(1e-3), np.log(18.0), 6000))
        g = -rng.uniform(0, 5, x.size) + 1j * rng.uniform(0, 50, x.size)
        firsts, blocks = [], mie._blocks

        def recorded(counts):
            found = list(blocks(counts))
            firsts.append(found[0])
            return iter(found)
        monkeypatch.setattr(mie, "_blocks", recorded)
        batch = mie._qext(x, m, g)
        chunks = [mie._qext(x[i:i + 1000], m, g[i:i + 1000])
                  for i in range(0, x.size, 1000)]
        assert firsts[0] == (1, 2) and len(firsts) == 7
        assert all(end > 3 for _, end in firsts[1:])
        assert ulps(np.concatenate(chunks)) == ulps(batch)

    def test_index_matched_batch_across_passes_vanishes(self, route_and_block_counts):
        q = extinction_efficiency_array(self.PASS_GRID, 3e12, 0, 300.0, 1.0 + 0j)
        assert route_and_block_counts["upward"] == 1
        assert route_and_block_counts["downward"] == 0
        assert route_and_block_counts["blocks"] >= 10
        assert np.all(q == 0.0)

    def test_3thz_table_runs_a_known_number_of_passes(self, route_and_block_counts,
                                                      scalar_lanes):
        # the largest kernel table of the band (see test_memory_budget): a
        # change to the shape of the order blocks, which trades their memory
        # for numpy calls, or to the routes, moves these counts
        from dustmie.channel import dust_attenuation_coefficient
        from dustmie.dustfield import DustLayerModel
        dust_attenuation_coefficient(200.0, WaveSpec.from_frequency(3e12),
                                     DustLayerModel(n0=1e3),
                                     ParticleState(20e-6, 1000, 300.0, M_DEFAULT))
        # one upward loop for every size, x from 0.005 to 624, of the
        # uncharged records, and one for the charged nodes that the linear
        # rule rejects, the smallest sizes, in one order block
        assert route_and_block_counts == {"upward": 2, "downward": 0, "blocks": 16}
        # its four largest sizes (orders 636 to 660, 8 apart where the
        # lattice is three times coarser) go on in scalars from order 629,
        # where 32 orders are left
        assert scalar_lanes == [(629, 32), (629, 24), (629, 16), (629, 8)]

    def test_x_sweep_steps_its_last_four_sizes_in_scalars(self, capsys,
                                                          route_and_block_counts,
                                                          scalar_lanes):
        # eight x to 750, each in three Ne columns: a lane is the three
        # columns of one x, so the last four x (orders 460 to 788) go on in
        # scalars from order 351, where x = 321 has stopped
        from dustmie.cli import run
        assert run(["qext", "--sweep", "x", "--start", "0.05", "--stop", "750",
                    "--count", "8", "--group-ne", "0,10,100"]) == 0
        capsys.readouterr()
        assert route_and_block_counts["upward"] == 1
        assert scalar_lanes == [(351, 438), (351, 329), (351, 220), (351, 110)]

    @pytest.mark.parametrize("m", ["1.5+1j", "1.5+3j"])
    def test_absorbing_x_sweep_takes_one_downward_pass(
            self, capsys, route_and_block_counts, m):
        # seven x to 791, each in three Ne columns, as the benchmark's
        # absorbing x-sweeps make them: the x above Wiscombe's bound (31.6
        # and up at 1.5+1j, 6.3 and up at 1.5+3j) take one downward pass
        from dustmie.cli import run
        assert run(["qext", "--sweep", "x", "--start", "0.05", "--stop", "791",
                    "--count", "7", "--spacing", "log", "--group-ne", "0,10,100",
                    "--m", m]) == 0
        capsys.readouterr()
        assert route_and_block_counts["downward"] == 1

    def test_cells_above_a_size_orders_raise_no_warning(self):
        # a block's cells above a size's own orders hold whatever its work
        # arrays held before; summing them must not warn (n = 87 at -5+50j did)
        rng = np.random.default_rng(5)
        for g_e in (0j, 1e-3j, 1j, -5 + 50j):
            n = int(rng.integers(1, 400))
            x = np.exp(rng.uniform(np.log(1e-3), np.log(2e3), n))
            q = mie._qext(x, M_DEFAULT, g_e * rng.uniform(0.5, 2, n))
            assert np.all(np.isfinite(q))

    def test_empty_batch(self):
        q = extinction_efficiency_array(np.array([]), 3e11, 0, 300.0, M_DEFAULT)
        assert q.shape == (0,)

    def test_domain(self):
        with pytest.raises(DomainError):
            extinction_efficiency_array([1e-6, 0.0], 3e11, 0, 300.0, M_DEFAULT)
        with pytest.raises(DomainError):
            extinction_efficiency_array(1e-6, [3e11, -1.0], 0, 300.0, M_DEFAULT)
        with pytest.raises(DomainError):
            extinction_efficiency_array(1e-6, 3e11, -1, 300.0, M_DEFAULT)
        for m in (-1.5 + 0j, complex(math.nan, 0), complex(2, math.inf)):
            with pytest.raises(DomainError):
                extinction_efficiency_array(1e-6, 3e11, 0, 300.0, m)


M_OVER_CAP = 2 - 1e300j
R_PAIR = [1e-6, 2e-6]

# Every input the kernel rejects, one bad input a case, with the error class
# and message each public entry gives for it: (entry, arguments, class,
# message). extinction_efficiency_array takes (radius, frequency, electrons,
# temperature, m[, mode]) and extinction_efficiency_x (x, m[, g_e]).
REJECTED = [
    ("array", ([1e-6, 0.0], 3e11, 0, 300.0, M_DEFAULT), DomainError,
     "radius and wavelength must be positive"),
    ("array", ([1e-6, -1e-6], 3e11, 0, 300.0, M_DEFAULT), DomainError,
     "radius and wavelength must be positive"),
    ("array", ([1e-6, math.nan], 3e11, 0, 300.0, M_DEFAULT), DomainError,
     "scale parameter must be positive"),
    ("array", ([1e-6, math.inf], 3e11, 0, 300.0, M_DEFAULT), DomainError,
     "scale parameter up to inf above the series' domain (x <= 20000)"),
    ("array", ([1e-6, 5.0], 3e11, 0, 300.0, M_DEFAULT), DomainError,
     "scale parameter up to 31436.9 above the series' domain (x <= 20000)"),
    ("array", (R_PAIR, 0.0, 0, 300.0, M_DEFAULT), DomainError,
     "frequency must be positive"),
    ("array", (R_PAIR, [3e11, -1.0], 0, 300.0, M_DEFAULT), DomainError,
     "frequency must be positive"),
    ("array", (R_PAIR, math.nan, 0, 300.0, M_DEFAULT), DomainError,
     "frequency nan Hz: wavelength overflows"),
    ("array", (R_PAIR, 1e-320, 0, 300.0, M_DEFAULT), DomainError,
     "frequency 9.99989e-321 Hz: wavelength overflows"),
    ("array", (R_PAIR, math.inf, 0, 300.0, M_DEFAULT), DomainError,
     "radius and wavelength must be positive"),
    ("array", (R_PAIR, 3e11, -1, 300.0, M_DEFAULT), DomainError,
     "electron count must be non-negative and finite"),
    ("array", (R_PAIR, 3e11, [0, math.nan], 300.0, M_DEFAULT), DomainError,
     "electron count must be non-negative and finite"),
    ("array", (R_PAIR, 3e11, math.inf, 300.0, M_DEFAULT), DomainError,
     "electron count must be non-negative and finite"),
    ("array", (R_PAIR, 3e11, 10**400, 300.0, M_DEFAULT), DomainError,
     "electron count exceeds the float range"),
    ("array", (R_PAIR, 3e11, 0, 0.0, M_DEFAULT), DomainError,
     "temperature must be positive and finite, got 0.0"),
    ("array", (R_PAIR, 3e11, 0, -1.0, M_DEFAULT), DomainError,
     "temperature must be positive and finite, got -1.0"),
    ("array", (R_PAIR, 3e11, 0, math.nan, M_DEFAULT), DomainError,
     "temperature must be positive and finite, got nan"),
    ("array", (R_PAIR, 3e11, 0, math.inf, M_DEFAULT), DomainError,
     "temperature must be positive and finite, got inf"),
    ("array", (R_PAIR, 3e11, 0, 1e300, M_DEFAULT), DomainError,
     "temperature 1e+300 K: collision frequency overflows"),
    ("array", (R_PAIR, 3e11, 0, 300.0, M_DEFAULT, "bogus"), DomainError,
     "frequency 3e+11 Hz at temperature 300 K: unknown g_e mode 'bogus'"),
    ("array", (R_PAIR, 1e-10, 0, 1e290, M_DEFAULT), DomainError,
     "frequency 1e-10 Hz at temperature 1e+290 K: collision frequency "
     "8.22188e+301 rad/s over wave frequency 6.28319e-10 rad/s overflows"),
    ("array", ([1e-170, 1e-6], 3e11, 1, 300.0, M_DEFAULT), RecurrenceOverflowError,
     "charge coefficient overflow (radius down to 1e-170 m)"),
    ("array", (R_PAIR, 3e11, 0, 300.0, -1.5 + 0j), DomainError,
     "refractive index must be finite with Re(m) > 0, got (-1.5+0j)"),
    ("array", (R_PAIR, 3e11, 0, 300.0, 0j), DomainError,
     "refractive index must be finite with Re(m) > 0, got 0j"),
    ("array", (R_PAIR, 3e11, 0, 300.0, complex(math.nan, 0)), DomainError,
     "refractive index must be finite with Re(m) > 0, got (nan+0j)"),
    ("array", (R_PAIR, 3e11, 0, 300.0, complex(2, math.inf)), DomainError,
     "refractive index must be finite with Re(m) > 0, got (2+infj)"),
    ("array", (R_PAIR, 3e11, 0, 300.0, M_OVER_CAP), DomainError,
     "refractive index (2+1e+300j) at x = 0.0125748: the downward recurrence "
     "would start at order 1.26e+298, above 1048576"),
    ("x", (0.0, M_DEFAULT), DomainError, "scale parameter must be positive"),
    ("x", (-1.0, M_DEFAULT), DomainError, "scale parameter must be positive"),
    ("x", (math.nan, M_DEFAULT), DomainError, "scale parameter must be positive"),
    ("x", (math.inf, M_DEFAULT), DomainError,
     "scale parameter up to inf above the series' domain (x <= 20000)"),
    ("x", (3e4, M_DEFAULT), DomainError,
     "scale parameter up to 30000 above the series' domain (x <= 20000)"),
    ("x", (1.0, -1.5 + 0j), DomainError,
     "refractive index must be finite with Re(m) > 0, got (-1.5+0j)"),
    ("x", (1.0, complex(math.nan, 0)), DomainError,
     "refractive index must be finite with Re(m) > 0, got (nan+0j)"),
    ("x", (1.0, complex(2, math.inf)), DomainError,
     "refractive index must be finite with Re(m) > 0, got (2+infj)"),
    ("x", (60.0, M_OVER_CAP), DomainError,
     "refractive index (2+1e+300j) at x = 60: the downward recurrence would "
     "start at order 6e+301, above 1048576"),
    ("x", (1.0, M_DEFAULT, complex(1e308, 1e308)), RecurrenceOverflowError,
     "overflow in the Mie series (x in [1, 1], m=(2+0.025j))"),
    ("x", (1.0, M_DEFAULT, complex(math.inf, 0)), RecurrenceOverflowError,
     "overflow in the Mie series (x in [1, 1], m=(2+0.025j))"),
    # two bad inputs: m is checked before x, and x before m
    ("x", (0.0, -1.5 + 0j), DomainError,
     "refractive index must be finite with Re(m) > 0, got (-1.5+0j)"),
    ("array", ([1e-6, 0.0], 3e11, 0, 300.0, -1.5 + 0j), DomainError,
     "radius and wavelength must be positive"),
]


class TestRejectedInputs:
    """Each input is checked once on the way into the kernel; these pin
    that every check is still made, with its error class and message."""

    @pytest.mark.parametrize("entry,args,error,message", REJECTED)
    def test_rejected_input(self, entry, args, error, message):
        call = {"array": extinction_efficiency_array, "x": extinction_efficiency_x}[entry]
        if entry == "array" and len(args) == 6:
            args, kwargs = args[:5], {"mode": args[5]}
        else:
            kwargs = {}
        with pytest.raises(error) as info:
            call(*args, **kwargs)
        assert str(info.value) == message

    def test_overflowing_im_x_is_a_domain_error(self):
        # Im(m) x beyond the float range (x = 6.3 and 2), under the suite's
        # warning filter: the route test runs inside the kernel's
        # np.errstate, so the recurrence's start check fires and no
        # RuntimeWarning escapes
        with pytest.raises(DomainError, match="would start at order inf"):
            extinction_efficiency_array([1e-3], 3e11, 0, 300.0, 2 - 1e308j)
        with pytest.raises(DomainError, match="would start at order inf"):
            extinction_efficiency_x(2.0, 2 - 1e308j)


class TestSeeds:
    """`mie._first_ratio` gives s_1 and s_2 below |z| = 0.6 from the
    downward step run from order `mie._SEED_ORDER`: within 2^-52 of the
    mpmath values, and the same bits for a z alone, in a batch, and with x
    beside m x."""

    # |z| from 0.6 down to 1e-8, and near 1e-160, where z^2 underflows
    MAGNITUDES = np.concatenate((np.geomspace(0.6, 1e-8, 400)[1:],
                                 np.geomspace(1e-155, 1e-165, 12)))

    @staticmethod
    def worst_error(seeds, z):
        """The largest |s - s_ref| / |s_ref| of the seeds of the z."""
        worst = mp.mpf(0)
        for values, ref in zip(seeds, zip(*map(first_ratios, z.tolist()))):
            for s, r in zip(values.tolist(), ref):
                worst = max(worst, abs(mp.mpc(s) - r) / abs(r))
        return worst

    @pytest.mark.parametrize("m", [None, *TestChargedInvariants.INDICES])
    def test_seeds_match_mpmath_and_keep_their_bits(self, m):
        if m is None:                          # real z
            x = z = self.MAGNITUDES
        else:
            m = _normalize_m(m)
            x = self.MAGNITUDES / abs(m)
            z = m.real * x if m.imag == 0 else m * x
        assert (np.abs(z) < 0.6).all() and (np.diff(np.abs(z)) <= 0).all()
        seeds_x, seeds = mie._first_ratio(x, z)
        assert all(s.dtype == z.dtype for s in seeds)
        assert self.worst_error(seeds, z) <= 2**-52
        # a z alone, in a batch with the closed form's sizes, and x beside
        # m x give the same bits
        assert ulps(mie._first_ratio(z)[0]) == ulps(seeds)
        assert ulps(mie._first_ratio(x)[0]) == ulps(seeds_x)
        for i in range(0, z.size, 7):
            alone, = mie._first_ratio(z[i:i + 1])
            assert ulps(alone) == ulps([s[i:i + 1] for s in seeds])
        s1, s2 = mie._first_ratio(np.concatenate((z[:1] * 1.5, z)))[0]
        assert ulps([s1[1:], s2[1:]]) == ulps(seeds)   # after |z| = 0.9
