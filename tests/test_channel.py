import math
import tracemalloc

import numpy as np
import pytest

from dustmie.channel import (
    AltitudeProfile,
    LinkGeometry,
    dust_attenuation_coefficient,
    path_loss,
    slant_dust_loss,
)
from dustmie.dustfield import DustLayerModel, size_support
from dustmie.errors import ConfigError
from dustmie.mie import (
    ParticleState,
    WaveSpec,
    extinction_efficiency,
    extinction_efficiency_array,
)
from dustmie.quadrature import adaptive_simpson

M_DEFAULT = 2.0 - 0.025j
PARTICLE = ParticleState(20e-6, 0, 300.0, M_DEFAULT)


def trapezoid_k_dust(h, w, layer, particle, points=100001):
    """Brute-force fixed-grid trapezoid oracle for the size integral, linear
    in r; the extinction of the whole grid is one batch evaluation."""
    lo, hi = size_support(h)
    grid = np.linspace(lo, hi, points)
    nd = np.array([layer.number_density(float(r), h) for r in grid])
    r_m = grid * 1e-3
    q = extinction_efficiency_array(r_m, w.frequency, particle.electrons,
                                    particle.temperature, particle.refractive_index)
    vals = nd * q * math.pi * r_m**2
    # trapezoid weights by hand: np.trapezoid is missing in numpy < 2
    return 4.343e3 * float(np.sum(np.diff(grid) * (vals[1:] + vals[:-1])) / 2)


# Segment boundaries, in sigma around the log-radius mean, that keep an
# adaptive rule from stepping over the narrow log-normal peak.
SEGMENT_SIGMAS = (-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0)


def adaptive_k_dust(h, w, layer, particle, rel_tol):
    """Adaptive-Simpson reference for the size integral in r, one sphere at
    a time, on segments cut at fixed multiples of sigma."""
    def integrand(r_mm):
        r_m = r_mm * 1e-3
        q = extinction_efficiency(particle.with_radius(r_m), w).q_ext
        return layer.number_density(r_mm, h) * q * math.pi * r_m**2

    mu, sigma = layer.params(h)
    lo, hi = layer.support(h)
    cuts = sorted({min(max(math.exp(mu + k * sigma), lo), hi)
                   for k in SEGMENT_SIGMAS} | {lo, hi})
    return 4.343e3 * sum(adaptive_simpson(integrand, a, b, rel_tol=rel_tol)
                         for a, b in zip(cuts[:-1], cuts[1:]) if b > a)


class TestDustAttenuationCoefficient:
    def test_zero_n0(self):
        layer = DustLayerModel(n0=0.0)
        w = WaveSpec.from_frequency(300e9)
        assert dust_attenuation_coefficient(100.0, w, layer, PARTICLE) == 0.0

    def test_memory_budget(self):
        # the largest kernel table of the band: the recurrences' ragged store
        # of one lockstep pass plus one chunk's dense arrays stay bounded
        w = WaveSpec.from_frequency(3e12)
        layer = DustLayerModel(n0=1e3)
        particle = ParticleState(20e-6, 1000, 300.0, M_DEFAULT)
        dust_attenuation_coefficient(200.0, w, layer, particle)
        tracemalloc.start()
        try:
            dust_attenuation_coefficient(200.0, w, layer, particle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_unset_n0_rejected(self):
        with pytest.raises(ConfigError):
            dust_attenuation_coefficient(
                100.0, WaveSpec.from_frequency(300e9), DustLayerModel(), PARTICLE)

    def test_linearity_in_n0(self):
        w = WaveSpec.from_frequency(300e9)
        k1 = dust_attenuation_coefficient(100.0, w, DustLayerModel(n0=1e3), PARTICLE)
        k2 = dust_attenuation_coefficient(100.0, w, DustLayerModel(n0=2e3), PARTICLE)
        assert k2 == pytest.approx(2 * k1, rel=1e-9)

    def test_matches_trapezoid_oracle(self):
        w = WaveSpec.from_frequency(0.1e12)
        layer = DustLayerModel(n0=1e4)
        k = dust_attenuation_coefficient(100.0, w, layer, PARTICLE)
        ref = trapezoid_k_dust(100.0, w, layer, PARTICLE)
        assert k == pytest.approx(ref, rel=1e-4)

    @pytest.mark.parametrize("f,h,ne", [(0.3e12, 150.0, 1000), (1.2e12, 120.0, 0)])
    def test_fixed_grid_matches_adaptive_reference(self, f, h, ne):
        w = WaveSpec.from_frequency(f)
        layer = DustLayerModel(n0=1e3)
        particle = ParticleState(20e-6, ne, 300.0, M_DEFAULT)
        k = dust_attenuation_coefficient(h, w, layer, particle)
        ref = adaptive_k_dust(h, w, layer, particle, rel_tol=1e-9)
        assert k == pytest.approx(ref, rel=1e-6)

    def test_known_adaptive_miss(self):
        # here a default-tolerance adaptive size integral returned 0.43063;
        # rel_tol 1e-8 and an 80k-point trapezoid both give this value
        w = WaveSpec.from_frequency(2.79598e12)
        k = dust_attenuation_coefficient(175.546, w, DustLayerModel(n0=1e3), PARTICLE)
        assert k == pytest.approx(0.431349324234458, rel=1e-6)

    def test_altitude_trend(self):
        # holds at 1 THz; at 0.3 THz the heavier 200 m large-particle tail
        # reverses it
        w = WaveSpec.from_frequency(1e12)
        layer = DustLayerModel(n0=1e4)
        k100 = dust_attenuation_coefficient(100.0, w, layer, PARTICLE)
        k200 = dust_attenuation_coefficient(200.0, w, layer, PARTICLE)
        assert k100 >= k200

    def test_frequency_trend(self):
        layer = DustLayerModel(n0=1e4)
        k_low = dust_attenuation_coefficient(
            100.0, WaveSpec.from_frequency(0.3e12), layer, PARTICLE)
        k_high = dust_attenuation_coefficient(
            100.0, WaveSpec.from_frequency(1e12), layer, PARTICLE)
        assert k_high >= k_low

    def test_paper_units_mode(self):
        # r in mm and a dimensionless efficiency: huge numbers, but exactly
        # the printed formula; only the prefactor semantics differ
        w = WaveSpec.from_frequency(300e9)
        layer = DustLayerModel(n0=1e4)
        k_phys = dust_attenuation_coefficient(
            100.0, w, layer, PARTICLE, units_mode="physical")
        k_paper = dust_attenuation_coefficient(
            100.0, w, layer, PARTICLE, units_mode="paper")
        assert k_paper > 0
        assert k_paper != pytest.approx(k_phys)

    def test_bad_units_mode(self):
        with pytest.raises(ConfigError):
            dust_attenuation_coefficient(
                100.0, WaveSpec.from_frequency(300e9),
                DustLayerModel(n0=1.0), PARTICLE, units_mode="bogus")

    def test_altitude_array_matches_scalar_calls(self):
        # one table over the union of the supports, then a sum per altitude
        w = WaveSpec.from_frequency(300e9)
        layer = DustLayerModel(n0=1e3)
        particle = ParticleState(20e-6, 1000, 300.0, M_DEFAULT)
        heights = np.array([[100.0, 140.0], [170.0, 200.0]])
        column = dust_attenuation_coefficient(heights, w, layer, particle)
        assert column.shape == heights.shape
        for h, k in zip(heights.flat, column.flat):
            assert k == pytest.approx(
                dust_attenuation_coefficient(float(h), w, layer, particle), rel=1e-12)
        assert isinstance(dust_attenuation_coefficient(np.float64(100.0), w, layer,
                                                       particle), float)
        zero = dust_attenuation_coefficient(heights, w, DustLayerModel(n0=0.0), particle)
        assert zero.shape == heights.shape and not zero.any()


class TestSlantDustLoss:
    def test_horizontal_path_is_constant_altitude(self):
        g = LinkGeometry(h0=100.0, theta=0.0, d=500.0, d0=10.0)
        w = WaveSpec.from_frequency(300e9)
        layer = DustLayerModel(n0=1e4)
        loss = slant_dust_loss(g, w, layer, PARTICLE)
        k = dust_attenuation_coefficient(100.0, w, layer, PARTICLE)
        assert loss == pytest.approx(g.d * k / 1000.0, rel=1e-9)

    def test_bad_units_mode_rejected_for_every_n0(self):
        g = LinkGeometry(h0=100.0, theta=0.3, d=100.0, d0=10.0)
        w = WaveSpec.from_frequency(300e9)
        for n0 in (0.0, None, 1e3):
            with pytest.raises(ConfigError):
                slant_dust_loss(g, w, DustLayerModel(n0=n0), PARTICLE,
                                units_mode="bogus")
        with pytest.raises(ConfigError):
            path_loss(g, w, DustLayerModel(n0=0.0), PARTICLE, units_mode="bogus")

    def test_no_attenuation_no_loss(self):
        g = LinkGeometry(h0=100.0, theta=0.3, d=500.0, d0=10.0)
        w = WaveSpec.from_frequency(300e9)
        assert slant_dust_loss(g, w, DustLayerModel(n0=0.0), PARTICLE) == 0.0

    def test_vertical_path_matches_slab_oracle(self):
        profile = AltitudeProfile([0, 100, 150, 300, 1000],
                                  [5.0, 4.0, 2.5, 1.0, 0.2])
        g = LinkGeometry(h0=0.0, theta=math.pi / 2, d=900.0, d0=10.0)
        w = WaveSpec.from_frequency(300e9)
        loss = slant_dust_loss(g, w, DustLayerModel(n0=0.0), PARTICLE,
                               k_abs=profile)
        # midpoint Riemann slab sum
        n = 100000
        edges = np.linspace(0.0, g.d, n + 1)
        mids = (edges[:-1] + edges[1:]) / 2
        ref = float(np.sum([profile(h) / 1000.0 for h in mids]) * (g.d / n))
        assert loss == pytest.approx(ref, rel=1e-4)

    def test_shared_table_matches_per_altitude_k_dust(self):
        # one kernel table for the whole path against an outer integral
        # that builds k_dust afresh at every altitude it visits; the size
        # support at 200 m reaches well past the one at 100 m
        g = LinkGeometry(h0=100.0, theta=math.pi / 2, d=100.0, d0=10.0)
        w = WaveSpec.from_frequency(0.3e12)
        layer = DustLayerModel(n0=1e3)
        particle = ParticleState(20e-6, 1000, 300.0, M_DEFAULT)
        loss = slant_dust_loss(g, w, layer, particle)
        sin_theta = math.sin(g.theta)
        ref = adaptive_simpson(
            lambda s: dust_attenuation_coefficient(
                g.h0 + s * sin_theta, w, layer, particle) / 1000.0,
            0.0, g.d, rel_tol=1e-9)
        assert loss == pytest.approx(ref, rel=1e-6)

    def test_slant_with_dust_matches_slab_oracle(self):
        g = LinkGeometry(h0=100.0, theta=math.pi / 2, d=50.0, d0=10.0)
        w = WaveSpec.from_frequency(0.1e12)
        layer = DustLayerModel(n0=1e4)
        loss = slant_dust_loss(g, w, layer, PARTICLE)
        n = 64   # the altitude dependence is smooth; modest slab count
        edges = np.linspace(0.0, g.d, n + 1)
        mids = (edges[:-1] + edges[1:]) / 2
        ref = sum(
            dust_attenuation_coefficient(100.0 + s, w, layer, PARTICLE) / 1000.0
            for s in mids) * (g.d / n)
        assert loss == pytest.approx(ref, rel=1e-4)


class TestAltitudeProfile:
    def test_from_file_and_interp(self, tmp_path):
        path = tmp_path / "kabs.txt"
        path.write_text("0 1.0\n100 2.0\n200 4.0\n")
        profile = AltitudeProfile.from_file(path)
        assert profile(50.0) == pytest.approx(1.5)
        assert profile(150.0) == pytest.approx(3.0)
        # flat extrapolation
        assert profile(-10.0) == pytest.approx(1.0)
        assert profile(1e4) == pytest.approx(4.0)

    def test_bad_profile_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1.0 7\n1 2.0 8\n")
        with pytest.raises(ConfigError):
            AltitudeProfile.from_file(path)
        with pytest.raises(ConfigError):
            AltitudeProfile([0, 0], [1, 1])
        with pytest.raises(ConfigError):
            AltitudeProfile([0, 1], [1, -1])
        with pytest.raises(ConfigError):
            AltitudeProfile([0, 1], [1, math.nan])


class TestPathLoss:
    GEOM = LinkGeometry(h0=100.0, theta=0.1, d=1000.0, d0=10.0,
                        n_i=2.0, sigma_i=2.0)

    def test_reference_distance_only_fspl(self):
        g = LinkGeometry(h0=100.0, theta=0.1, d=10.0, d0=10.0, n_i=2.0)
        w = WaveSpec.from_frequency(300e9)
        res = path_loss(g, w, DustLayerModel(n0=0.0), PARTICLE)
        assert res.distance_term_db == 0.0
        assert res.shadow_db == 0.0
        assert res.dust_loss_db == 0.0
        assert res.total_db == pytest.approx(res.fspl_db)

    def test_fspl_reference_value(self):
        w = WaveSpec.from_frequency(300e9)
        res = path_loss(self.GEOM, w, DustLayerModel(n0=0.0), PARTICLE)
        assert res.fspl_db == pytest.approx(101.98, abs=0.05)

    def test_total_is_sum_of_components(self):
        w = WaveSpec.from_frequency(300e9)
        res = path_loss(self.GEOM, w, DustLayerModel(n0=1e3), PARTICLE,
                        shadow_seed=5)
        assert res.total_db == pytest.approx(
            res.fspl_db + res.distance_term_db + res.shadow_db + res.dust_loss_db)
        assert res.dust_loss_db >= 0

    def test_seeded_shadow_is_deterministic(self):
        w = WaveSpec.from_frequency(300e9)
        a = path_loss(self.GEOM, w, DustLayerModel(n0=0.0), PARTICLE, shadow_seed=11)
        b = path_loss(self.GEOM, w, DustLayerModel(n0=0.0), PARTICLE, shadow_seed=11)
        assert a == b
        c = path_loss(self.GEOM, w, DustLayerModel(n0=0.0), PARTICLE, shadow_seed=12)
        assert c.shadow_db != a.shadow_db

    def test_monotone_in_distance(self):
        w = WaveSpec.from_frequency(300e9)
        layer = DustLayerModel(n0=1e3)
        totals = []
        for d in (10.0, 100.0, 500.0, 2000.0):
            g = LinkGeometry(h0=100.0, theta=0.1, d=d, d0=10.0, n_i=2.0)
            totals.append(path_loss(g, w, layer, PARTICLE).total_db)
        assert totals == sorted(totals)

    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            LinkGeometry(h0=0.0, theta=0.0, d=5.0, d0=10.0)     # d < d0
        with pytest.raises(ConfigError):
            LinkGeometry(h0=0.0, theta=-0.1, d=100.0, d0=10.0)
        with pytest.raises(ConfigError):
            LinkGeometry(h0=0.0, theta=0.0, d=100.0, d0=10.0, n_i=0.0)

    def test_non_finite_geometry_rejected(self):
        for field, value in [("h0", math.nan), ("h0", -1.0), ("h0", math.inf),
                             ("n_i", math.nan), ("n_i", math.inf),
                             ("sigma_i", math.nan), ("sigma_i", math.inf),
                             ("d", math.inf)]:
            kwargs = dict(h0=100.0, theta=0.1, d=100.0, d0=10.0, n_i=2.0, sigma_i=1.0)
            kwargs[field] = value
            with pytest.raises(ConfigError):
                LinkGeometry(**kwargs)
