import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dustmie import mie
from dustmie.constants import CONSTANTS
from dustmie.errors import DomainError, DustmieError
from dustmie.mie import (
    ParticleState,
    WaveSpec,
    charged_coefficient,
    collision_frequency,
    _normalize_m,
    _Recurrences,
    extinction_efficiency_array,
    extinction_efficiency_x,
    scale_parameter,
    surface_plasma_frequency,
    surface_potential,
    truncation_order,
)

from oracles import neutral_mie_qext

M_DEFAULT = 2.0 - 0.025j


def series_coefficients(x, m, rows):
    """Neutral (a_n, b_n) of one sphere for n = 1..rows, from the kernel's
    own recurrences and coefficient step."""
    m = _normalize_m(m)
    rec = _Recurrences.run(np.array([float(x)]), m, np.array([rows]))
    a, b = rec.coefficients(m, np.zeros(1, complex), 0, 1)
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
        omega = 2 * math.pi * 0.3e12
        gamma = collision_frequency(300.0)
        full = charged_coefficient(0.1, omega, 1e9, gamma, mode="full")
        approx = charged_coefficient(0.1, omega, 1e9, gamma, mode="approx")
        assert abs(full - approx) / abs(full) < 0.01

    def test_domain(self):
        with pytest.raises(DomainError):
            charged_coefficient(0.0, 1e12, 1e9, 2.4e14)
        with pytest.raises(DomainError):
            charged_coefficient(0.5, 1e12, 1e9, 2.4e14, mode="bogus")


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
    # x = pi puts psi_0(x) = sin x at a zero
    @pytest.mark.parametrize("x", [0.02, 0.1, 0.5, 2.0, 10.0, math.pi])
    def test_qext_matches_independent_oracle(self, x, m):
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
        # g_e = 0 and 1j as one batch in one lockstep pass (the pass size
        # bounds memory, and moves Q_ext by rounding only); the longer sums
        # share one run of the recurrences, which g_e does not enter
        monkeypatch.setattr(mie, "_PASS_TERMS", 2**22)
        x, charges = TRUNCATION_X, (0j, 1j)
        q = mie._qext(np.tile(x, 2), m, np.repeat(charges, x.size))
        m = _normalize_m(m)
        rec = _Recurrences.run(x, m, truncation_order(x) + 40)
        longer = np.concatenate([rec.series(m, np.full(x.size, g_e))
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
# 10.8 Re(m) + 3.9, puts the upward route of this index at 1 <= x < 187.05
ROUTE_M = 1.5 + 0.1j


class TestRoutes:
    def test_route_follows_x_and_m(self):
        x = np.array([300.0, 187.1, 187.0, 10.0, 1.0, 0.999])
        assert mie._steps_upward(x, _normalize_m(ROUTE_M)).tolist() == [
            False, False, True, True, True, False]
        # the bound is fitted for Re(m) >= 1; below it upward steps drift
        assert not mie._steps_upward(np.array([10.0]), complex(0.95)).any()

    # largest deviation measured between the routes on these grids: 3.8e-14
    # (2-0.025j near its bound, x ~ 1,500), and 1.0e-11 at 1.0001, whose
    # Q_ext near x = 1 is about 1e-8 and cancels in both
    @pytest.mark.parametrize("m,rel", [(ROUTE_M, 1e-13), (M_DEFAULT, 1e-13),
                                       (1.5 + 1j, 1e-13), (1.0001, 2e-11)])
    def test_routes_agree_on_both_sides_of_each_boundary(self, m, rel):
        m = _normalize_m(m)
        grids = [np.geomspace(1.05, 0.95, 11)]
        if m.imag:
            bound = (13.78 * m.real**2 - 10.8 * m.real + 3.9) / m.imag
            grids.append(np.geomspace(1.02 * bound, 0.98 * bound, 11))
        for x in grids:
            upward = mie._steps_upward(x, m)
            assert upward.any() and not upward.all()
            rows = truncation_order(x)
            for g_e in (0j, 1j, -5 + 50j):
                g = np.full(x.size, g_e)
                up = _Recurrences.upward(x, m, rows).series(m, g)
                down = _Recurrences.run(x, m, rows).series(m, g)
                assert np.all(np.abs(up - down) <= rel * np.abs(down))

    def test_upward_size_matches_oracle(self):
        x = 30.0
        assert mie._steps_upward(np.array([x]), _normalize_m(ROUTE_M))[0]
        assert extinction_efficiency_x(x, ROUTE_M) == pytest.approx(
            neutral_mie_qext(x, ROUTE_M), rel=1e-8)

    # sizes of both routes at every index below (x < 1, the upward route,
    # and above the bound where the index has one), a strongly absorbing
    # index with a short upward route, and one with Re(m) < 1, all downward
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


class TestBatchKernel:
    def test_batch_matches_single_sphere_entry(self):
        # radius x frequency x charge broadcast, across chunks of different
        # truncation order, against one-sphere calls
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
    def pass_and_chunk_counts(self, monkeypatch):
        """Lockstep passes and series chunks the kernel makes: one
        `_eta_ratio` (downward route) or `_upward_ratios` (upward route)
        per pass, one series sum per chunk."""
        counts = {"passes": 0, "chunks": 0}

        def counted(name, key):
            fn = getattr(mie, name)

            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            monkeypatch.setattr(mie, name, wrapper)

        counted("_eta_ratio", "passes")
        counted("_upward_ratios", "passes")
        counted("_series", "chunks")
        return counts

    # 1,200 radii at 3 THz, x from 0.006 to 630: three lockstep passes, the
    # large-x ones each cut into several chunks
    PASS_GRID = np.geomspace(1e-7, 1e-2, 1200)

    @pytest.mark.parametrize("ne", [0, 10**6])
    def test_batch_across_passes_matches_single_sphere_entry(
            self, ne, pass_and_chunk_counts):
        w = WaveSpec.from_frequency(3e12)
        q = extinction_efficiency_array(self.PASS_GRID, w.frequency, ne, 300.0,
                                        M_DEFAULT)
        assert pass_and_chunk_counts["passes"] >= 3
        assert pass_and_chunk_counts["chunks"] >= 2 * pass_and_chunk_counts["passes"]
        for k, r in enumerate(self.PASS_GRID):
            ref = float(extinction_efficiency_array(float(r), w.frequency, ne, 300.0,
                                                    M_DEFAULT))
            assert q[k] == ref

    @pytest.mark.parametrize("m,g_e", [(M_DEFAULT, 0j), (3 + 0.001j, 1e-3 + 2e-3j),
                                       (ROUTE_M, -5 + 50j)])
    def test_qext_does_not_depend_on_the_batch(self, m, g_e):
        # a size's Q_ext is the same bits alone, in a batch and in another
        # batch, up to x = 6,000, where a chunk holds a single size (kept
        # kernel tables rely on this); at ROUTE_M the grid crosses both ends
        # of the upward route, x = 1 and Wiscombe's bound
        x = np.geomspace(0.05, 6000.0, 24)
        g = np.full(x.size, g_e)
        batch = mie._qext(x, m, g)
        assert mie._qext(x[1::2], m, g[1::2]).tolist() == batch[1::2].tolist()
        assert mie._qext(x[5:20], m, g[5:20]).tolist() == batch[5:20].tolist()
        assert [extinction_efficiency_x(xi, m, g_e) for xi in x] == batch.tolist()

    def test_index_matched_batch_across_passes_vanishes(self, pass_and_chunk_counts):
        q = extinction_efficiency_array(self.PASS_GRID, 3e12, 0, 300.0, 1.0 + 0j)
        assert pass_and_chunk_counts["passes"] >= 3
        assert np.all(q == 0.0)

    def test_3thz_table_runs_a_known_number_of_passes(self, pass_and_chunk_counts):
        # the largest kernel table of the band (see test_memory_budget): a
        # change that trades the store's memory for recurrence steps, or back,
        # moves these counts
        from dustmie.channel import dust_attenuation_coefficient
        from dustmie.dustfield import DustLayerModel
        dust_attenuation_coefficient(200.0, WaveSpec.from_frequency(3e12),
                                     DustLayerModel(n0=1e3),
                                     ParticleState(20e-6, 1000, 300.0, M_DEFAULT))
        # 4 upward passes (x >= 1), then 1 downward (x < 1)
        assert pass_and_chunk_counts == {"passes": 5, "chunks": 22}

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
