import math
import time
import tracemalloc
import warnings
from collections import OrderedDict

import numpy as np
import pytest

from dustmie.channel import (
    AltitudeProfile,
    LinkGeometry,
    dust_attenuation_coefficient,
    path_loss,
    slant_dust_loss,
)
from dustmie.dustfield import (
    DustLayerModel,
    lognormal_params,
    number_density,
    size_support,
)
from dustmie.errors import ConfigError, DomainError, RecurrenceOverflowError
from dustmie.mie import (
    ParticleState,
    WaveSpec,
    extinction_efficiency_array,
)
from oracles import (OracleDepthError, ReferenceSpreadError, adaptive_simpson,
                     k_dust_reference, level_simpson)

M_DEFAULT = 2.0 - 0.025j
M_KEY = M_DEFAULT.conjugate()      # as a kernel key and its lattice take it
PARTICLE = ParticleState(20e-6, 0, 300.0, M_DEFAULT)


def support_nodes(heights, f):
    """The number of lattice nodes a table at frequency f (default index)
    spans for these altitudes: the union of the slices their weights cover."""
    import dustmie.channel as channel
    u = channel._lattice(f, M_KEY)[0]
    span, _ = channel._node_slices(u, *lognormal_params(np.array(heights)))
    return span.stop - span.start


def trapezoid_k_dust(h, w, layer, particle, points=100001):
    """Brute-force fixed-grid trapezoid oracle for the size integral, linear
    in r; the density and the extinction of the whole grid are one batch
    evaluation each."""
    lo, hi = size_support(h)
    grid = np.linspace(lo, hi, points)
    nd = number_density(grid, h, layer.n0)
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
    """Adaptive-Simpson reference for the size integral in r, on segments cut
    at fixed multiples of sigma; each refinement level's midpoints are one
    batch evaluation."""
    def integrand(r_mm):
        r_m = r_mm * 1e-3
        q = extinction_efficiency_array(r_m, w.frequency, particle.electrons,
                                        particle.temperature,
                                        particle.refractive_index)
        return number_density(r_mm, h, layer.n0) * q * math.pi * r_m**2

    mu, sigma = lognormal_params(h)
    lo, hi = size_support(h)
    cuts = sorted({min(max(math.exp(mu + k * sigma), lo), hi)
                   for k in SEGMENT_SIGMAS} | {lo, hi})
    return 4.343e3 * sum(level_simpson(integrand, a, b, rel_tol=rel_tol)
                         for a, b in zip(cuts[:-1], cuts[1:]) if b > a)


def test_level_simpson_matches_recursive_rule():
    def g(x):
        return math.exp(-x * x) * math.cos(3 * x) + 0.1 / (1 + (x - 2) ** 2)

    seen = {"recursive": [], "level": []}

    def scalar(x):
        seen["recursive"].append(x)
        return g(x)

    def batch(xs):
        seen["level"].extend(xs.tolist())
        return np.array([g(float(x)) for x in xs])

    evaluations = []
    with pytest.raises(OracleDepthError):
        adaptive_simpson(scalar, -4.0, 5.0, rel_tol=1e-9, max_depth=3)
    for a, b in [(-4.0, 5.0), (5.0, -4.0), (0.0, 1e-3)]:
        for key in seen:
            seen[key].clear()
        ref = adaptive_simpson(scalar, a, b, rel_tol=1e-9)
        assert level_simpson(batch, a, b, rel_tol=1e-9) == ref
        # the same intervals: every abscissa the recursive rule visits
        assert sorted(seen["level"]) == sorted(seen["recursive"])
        evaluations.append(len(seen["level"]))
    assert evaluations[0] > 100          # many levels deep
    with pytest.raises(OracleDepthError):
        level_simpson(batch, -4.0, 5.0, rel_tol=1e-9, max_depth=3)


class TestDustAttenuationCoefficient:
    def test_zero_n0(self):
        layer = DustLayerModel(n0=0.0)
        w = WaveSpec.from_frequency(300e9)
        assert dust_attenuation_coefficient(100.0, w, layer, PARTICLE) == 0.0

    def test_memory_budget(self, kernel_tables):
        # the largest kernel table of the band: its order blocks' dense
        # arrays, and a downward pass's ragged store where an index needs
        # one (the default index needs none), stay bounded
        w = WaveSpec.from_frequency(3e12)
        layer = DustLayerModel(n0=1e3)
        particle = ParticleState(20e-6, 1000, 300.0, M_DEFAULT)
        dust_attenuation_coefficient(200.0, w, layer, particle)
        kernel_tables.clear()           # trace the kernel, not a kept table
        tracemalloc.start()
        try:
            dust_attenuation_coefficient(200.0, w, layer, particle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0e6

    def test_table_memory_does_not_grow_with_its_frequencies(self, monkeypatch,
                                                             kernel_tables):
        # a table holds one block of columns at a time, its lattices,
        # radii and weights included: with the kernel stubbed, so that only
        # what `channel` holds is traced, 400 frequencies of one band peak
        # within 10 % of 40. At the CLI's three counts 40 frequencies fill
        # several blocks, as 400 do; at one count they fill about one, before
        # the store of kept tables is full, and 400 read 12 % more
        import dustmie.channel as channel
        monkeypatch.setattr(channel, "extinction_efficiency_array",
                            lambda radius, *args, **kwargs: np.ones(radius.size))
        peaks = []
        for count in (40, 400):
            kernel_tables.clear()
            tracemalloc.start()
            try:
                channel._k_dust_grid([150.0], np.geomspace(1e12, 3e12, count),
                                     [0, 1000, 10**6], DustLayerModel(n0=1e3), 300.0,
                                     M_DEFAULT, ("physical",), "full")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]

    @pytest.mark.parametrize("f", [0.3e12, 3e12])
    def test_one_pass_weights_equal_per_altitude_weights(self, f):
        # the weights of 100, 150, 200 and 300 m formed in one pass are,
        # bit for bit, each altitude's own n0 phi(u) du on its slice, halved
        # at its ends, or Gregory's at an end on the cap, which the supports
        # from 150 m up reach
        import dustmie.channel as channel
        mu, sigma = lognormal_params(np.array([100.0, 150.0, 200.0, 300.0]))
        lattice = channel._lattice(f, M_KEY)
        u, _, du = lattice
        span, parts = channel._node_slices(u, mu, sigma)
        weights = channel._size_weights(lattice, span, parts, mu, sigma, 1e3)
        at_cap = [span.start + part.stop == u.size for part in parts]
        assert at_cap == [False, True, True, True]
        for w, part, m, s, cap in zip(weights, parts, mu.tolist(), sigma.tolist(),
                                      at_cap):
            nodes = slice(span.start + part.start, span.start + part.stop)
            one = (1e3 / (math.sqrt(2 * math.pi) * s)
                   * np.exp(-0.5 * ((u[nodes] - m) / s) ** 2) * du[nodes])
            one[0] /= 2
            if cap:
                one[-4:] *= channel._CAP_WEIGHTS
            else:
                one[-1] /= 2
            assert w[part].tobytes() == one.tobytes()

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

    # the domain of the lattice's 1e-8 claim: strongly enough absorbing
    # indices at 100-200 m from 0.1 to 3 THz, at any charge, in both units
    # modes; measured worst 6.1e-9. Weaker absorption sharpens the Mie
    # ripple past the step: 1.5+0.001j misses by 1.3e-5 at 1 THz
    @pytest.mark.parametrize("m", [M_DEFAULT, 1.6 + 0.05j])
    def test_lattice_within_1e_8_of_a_finer_one(self, m):
        import dustmie.channel as channel
        heights, freqs = [100.0, 150.0, 200.0], [0.1e12, 0.3e12, 1e12, 3e12]
        counts, units = [0, 1000, 10**6, 10**13], ("physical", "paper")
        k = channel._k_dust_grid(heights, freqs, counts, DustLayerModel(n0=1.0), 300.0,
                                 m, units, "full")
        for index in np.ndindex(k.shape):
            u, ne, f, h = index
            ref = k_dust_reference(heights[h], freqs[f], m, counts[ne], units[u])
            assert abs(k[index] - ref) <= 1e-8 * ref, index

    # where the support reaches the 10 mm cap, Gregory's correction keeps
    # the end error within 1e-8 at 300 m and 3e-8 at 600 m from 0.3 to
    # 3 THz (the trapezoid alone misses by 3.3e-7 and 9.2e-6). Measured
    # over 0.3-3 THz: at most 2.1e-9 and 1.8e-8 (0.7 THz); at 0.1 THz the
    # Mie ripple at the cap is not damped and 600 m misses by 1.0e-6
    @pytest.mark.parametrize("h,bound", [(300.0, 1e-8), (600.0, 3e-8)])
    def test_cap_end_within_reference(self, h, bound):
        import dustmie.channel as channel
        freqs = [0.3e12, 1e12, 3e12]
        k = channel._k_dust_grid([h], freqs, [0], DustLayerModel(n0=1.0), 300.0,
                                 M_DEFAULT, ("physical",), "full")[0, 0, :, 0]
        for f, k_f in zip(freqs, k):
            ref = k_dust_reference(h, f, M_DEFAULT, 0, "physical")
            assert abs(k_f - ref) <= bound * ref, f

    def test_finer_lattice_nests_the_lattice(self, fine_lattice):
        # the same map at v step / 4: every fourth node, counted down from
        # the cap, is a node of the lattice bit for bit, radius and U'
        # included, and the lowest node lies less than a step above 1 nm
        import dustmie.channel as channel
        for f, m in [(0.1e12, 2 + 0.025j), (3e12, 2 + 0.025j), (10e12, 1.6 + 0.05j),
                     (1e12, 1.33 + 0j)]:
            u, r, du = channel._lattice(f, m)
            with fine_lattice(channel._V_STEP / 4):
                fine_u, fine_r, fine_du = channel._lattice(f, m)
            start = (fine_u.size - 1) % 4
            assert fine_u[start::4].tobytes() == u.tobytes()
            assert fine_r[start::4].tobytes() == r.tobytes()
            assert (4 * fine_du[start::4]).tobytes() == du.tobytes()
            for radii, steps in ((r, du), (fine_r, fine_du)):
                assert radii[0] >= 1e-9 > radii[0] * math.exp(-steps[0])
            assert r[-1] == fine_r[-1] == math.exp(math.log(10.0)) * 1e-3

    # Weakly absorbing indices lie outside that domain: their sharper Mie
    # ripple leaves the lattice far more than 1e-8 from the reference (h
    # 150 m, Ne 0, physical units). Pinned at the levels measured, so that
    # a change to the lattice or the kernel that moves them shows, against
    # a reference converged to 1/200 of the level. For 1.33 no
    # reference converges: the pin is the spread of its two finest levels
    @pytest.mark.parametrize("m,f,level", [
        (1.5 + 0.001j, 1e12, 1.3e-5), (1.5 + 0.001j, 10e12, 8.2e-5),
        (1.33, 3e12, 9.9e-6), (3 + 0.001j, 0.3e12, 1.22e-3),
        (1.5 + 0.01j, 1e12, 4.9e-8)])
    def test_lattice_error_at_weak_absorption(self, m, f, level):
        w, layer = WaveSpec.from_frequency(f), DustLayerModel(n0=1.0)
        particle = ParticleState(20e-6, 0, 300.0, m)
        if m == 1.33:
            with pytest.raises(ReferenceSpreadError) as failed:
                k_dust_reference(150.0, f, m, 0, "physical")
            assert failed.value.spread == pytest.approx(level, rel=0.05)
            return
        k = dust_attenuation_coefficient(150.0, w, layer, particle)
        ref = k_dust_reference(150.0, f, m, 0, "physical", rtol=level / 200)
        assert abs(k - ref) / ref == pytest.approx(level, rel=0.05)

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

    def test_frequency_slices_match_per_frequency_calls(self, monkeypatch,
                                                        kernel_tables):
        # a table over many frequencies is one kernel call per slice of
        # them, and gives the per-frequency values exactly; each frequency's
        # lattice has its own node count, more nodes at a higher frequency
        import dustmie.channel as channel
        layer = DustLayerModel(n0=1e3)
        particle = ParticleState(20e-6, 1000, 300.0, M_DEFAULT)
        freqs = np.geomspace(1e11, 3e12, 5)
        nodes = [support_nodes([150.0], f) for f in freqs]
        monkeypatch.setattr(channel, "_TABLE_SIZES", nodes[3] + nodes[4])
        calls = []
        kernel = channel.extinction_efficiency_array

        def counted(radius, frequency, *args, **kwargs):
            assert np.size(frequency) <= channel._TABLE_SIZES
            calls.append(np.unique(frequency).size)     # columns
            return kernel(radius, frequency, *args, **kwargs)

        monkeypatch.setattr(channel, "extinction_efficiency_array", counted)
        k = channel._k_dust_grid([150.0], freqs, [particle.electrons], layer,
                                 particle.temperature, particle.refractive_index,
                                 ("physical", "paper"), "full")
        assert calls == [2, 2, 1]       # 799 + 913, 1,019 + 1,097, 1,143 nodes
        assert k.shape == (2, 1, 5, 1)
        for k_mode, units_mode in zip(k[:, 0], ("physical", "paper")):
            for f, k_f in zip(freqs, k_mode):
                kernel_tables.clear()
                assert k_f[0] == dust_attenuation_coefficient(
                    150.0, WaveSpec.from_frequency(f), layer, particle,
                    units_mode=units_mode)

    def test_count_columns_match_per_count_calls(self, monkeypatch, kernel_tables):
        # a table's columns are its (frequency, count) pairs, a frequency's
        # counts in turn; kernel slices that straddle two counts or two
        # frequencies give each count's own values exactly
        import dustmie.channel as channel
        layer = DustLayerModel(n0=1e3)
        heights = [100.0, 150.0, 200.0]
        freqs = np.geomspace(1e11, 3e12, 5)
        monkeypatch.setattr(channel, "_TABLE_SIZES", 4 * support_nodes(heights, freqs[-1]))
        calls = []
        kernel = channel.extinction_efficiency_array

        def counted(radius, frequency, electrons, *args, **kwargs):
            assert np.size(frequency) <= channel._TABLE_SIZES
            calls.append(len(set(zip(frequency.tolist(), electrons.tolist()))))
            return kernel(radius, frequency, electrons, *args, **kwargs)

        monkeypatch.setattr(channel, "extinction_efficiency_array", counted)
        counts = [0, 1000, 10**12]
        units = ("physical", "paper")
        k = channel._k_dust_grid(heights, freqs, counts, layer, 300.0, M_DEFAULT,
                                 units, "full")
        # 846 x 3 + 962 x 2, 962 + 1,069 x 3, 1,148 x 3 + 1,198 and 1,198 x 2 nodes
        assert calls == [5, 4, 4, 2]
        assert k.shape == (2, 3, 5, 3)
        # the counts of a frequency keep one lattice between them: every
        # kept key sits under its own (f, m), with an array over its lattice
        keys = 0
        for (f, m), (lattice, tables) in kernel_tables.items():
            for key, q in tables.items():
                assert (key[0], key[3]) == (f, m) and q.shape == lattice[0].shape
            keys += len(tables)
        assert keys > len(kernel_tables) > 1
        for i, ne in enumerate(counts):
            kernel_tables.clear()
            one = channel._k_dust_grid(heights, freqs, [ne], layer, 300.0, M_DEFAULT,
                                       units, "full")
            assert np.array_equal(k[:, i:i + 1], one)


def unclamped_k_dust(h, f, ne, n0, units_mode):
    """k_dust by the same rule, on the same lattice continued below 1 nm
    over the log-normal's whole lower 8-sigma tail, for a support that
    reaches the cap: the sum before the support was clamped to the
    kernel's radius domain."""
    import dustmie.channel as channel
    mu, sigma = lognormal_params(h)
    lo = mu - 8 * sigma
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channel, "_LN_R_FLOOR", lo)
        u, r_m, du = channel._lattice(f, M_KEY)
    q = extinction_efficiency_array(r_m, f, ne, 300.0, M_DEFAULT)
    weights = n0 / (math.sqrt(2 * math.pi) * sigma) * np.exp(-0.5 * ((u - mu) / sigma) ** 2) * du
    weights[0] /= 2
    weights[-4:] *= channel._CAP_WEIGHTS
    g = weights * (q if units_mode == "paper" else q * math.pi * r_m**2)
    return 4.343e3 * float(g.sum())


class TestRadiusDomain:
    """The size integral covers only the kernel's radius domain
    [1 nm, 10 mm]: the lattice stops at 1 nm, whatever the altitude."""

    def test_table_nodes_capped(self, monkeypatch, kernel_tables):
        # a cold table for one altitude runs the kernel on exactly the nodes
        # that altitude weights, none of them below 1 nm
        import dustmie.channel as channel
        radii = []
        kernel = channel.extinction_efficiency_array

        def spy(radius, *args, **kwargs):
            radii.append(radius)
            return kernel(radius, *args, **kwargs)

        monkeypatch.setattr(channel, "extinction_efficiency_array", spy)
        w = WaveSpec.from_frequency(300e9)
        heights = [100.0, 150.0, 200.0, 300.0, 800.0, 10000.0]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "size-spectrum fit extrapolated")
            for h in heights:
                kernel_tables.clear()
                k = dust_attenuation_coefficient(h, w, DustLayerModel(n0=1e3), PARTICLE)
                assert math.isfinite(k) and k >= 0
            mu, sigma = lognormal_params(np.array(heights))
        lattice = channel._lattice(300e9, M_KEY)
        span, parts = channel._node_slices(lattice[0], mu, sigma)
        for r, part in zip(radii, parts, strict=True):
            assert np.array_equal(r, lattice[1][span][part])
            assert r.min() >= 1e-9
        assert [r.size for r in radii] == [813, 946, 994] + [1116] * 3
        for r in radii[3:]:
            # the first node lies at most one step above 1 nm
            assert 1e-9 <= r.min() < 1e-9 * math.exp(lattice[2][0])
            assert r.max() == pytest.approx(1e-2, rel=1e-15)

    # |clamped - unclamped| / unclamped, the levels measured at 0.3 and
    # 3 THz, rounded up to two digits. Physical units weight the radii below
    # 1 nm by r^2 and move by rounding only; paper units weight Q_ext alone.
    @pytest.mark.parametrize("h,units_mode,bound", [
        (400.0, "physical", (1e-15, 1e-15)),
        (600.0, "physical", (1e-15, 1e-15)),
        (400.0, "paper", (1.4e-11, 1.4e-11)),
        (600.0, "paper", (1.1e-8, 4.2e-7)),
    ])
    def test_against_unclamped_sum(self, h, units_mode, bound):
        import dustmie.channel as channel
        freqs, counts = [3e11, 3e12], [0, 1000, 10**6]
        k = channel._k_dust_grid([h], freqs, counts, DustLayerModel(n0=1e3), 300.0,
                                 M_DEFAULT, (units_mode,), "full")[0, :, :, 0]
        for ne, k_ne in zip(counts, k):
            for f, k_f, level in zip(freqs, k_ne, bound):
                ref = unclamped_k_dust(h, f, ne, 1e3, units_mode)
                assert abs(k_f - ref) <= level * ref, (f, ne)


    def test_support_cut_at_8_sigma(self, monkeypatch):
        # at 100 m neither end of the 8-sigma support is clamped, and at
        # 9 sigma neither is either: the slivers the cut drops, where phi is
        # below e^-32 of its peak, move k_dust by 2.6e-12 in physical units
        # (r^2 lifts the upper end) and 3e-15 in paper units
        import dustmie.channel as channel
        import dustmie.dustfield as dustfield
        args = ([100.0], [3e11, 3e12], [0, 1000], DustLayerModel(n0=1.0), 300.0,
                M_DEFAULT, ("physical", "paper"), "full")
        k = channel._k_dust_grid(*args)
        monkeypatch.setattr(dustfield, "_SUPPORT_SIGMAS", 9.0)
        assert 1e-6 < size_support(100.0)[0] and size_support(100.0)[1] < 10.0
        wide = channel._k_dust_grid(*args)
        assert np.all(wide > k)
        assert np.all(wide - k <= 3e-12 * wide)


def one_table_slant_loss(g, w, layer, particle, rel_tol):
    """Level-Simpson reference for the slant-path integral, with k_dust at
    every altitude summed over one kernel table built for the whole path."""
    import dustmie.channel as channel
    sin_theta = math.sin(g.theta)
    lattice = channel._lattice(w.frequency, channel._normalize_m(particle.refractive_index))
    r_m = lattice[1][:, None]
    q = extinction_efficiency_array(r_m, [w.frequency], particle.electrons,
                                    particle.temperature, particle.refractive_index)
    kernel = channel._per_particle(r_m, q, "physical")[:, 0]

    def per_m(s):
        mu, sigma = lognormal_params(g.h0 + s * sin_theta)
        span, parts = channel._node_slices(lattice[0], mu, sigma)
        weights = channel._size_weights(lattice, span, parts, mu, sigma, layer.n0)
        return np.array([channel._k_dust(w[part], kernel[span][part])
                         for w, part in zip(weights, parts)]) / 1000.0
    return level_simpson(per_m, 0.0, g.d, rel_tol=rel_tol)


class TestSlantDustLoss:
    def test_gauss_legendre_literals(self):
        import dustmie.channel as channel
        nodes, weights = np.polynomial.legendre.leggauss(8)
        assert np.abs(channel._GL_NODES - nodes).max() <= 1e-15
        assert np.abs(channel._GL_WEIGHTS - weights).max() <= 1e-15

    @pytest.mark.parametrize("f", [0.3e12, 1e12, 3e12])
    @pytest.mark.parametrize("h0,theta_deg,d", [
        (100.0, 90.0, 400.0), (10.0, 90.0, 640.0), (50.0, 45.0, 600.0),
        (120.0, 12.0, 100.0)])
    def test_fixed_rule_matches_adaptive_reference(self, f, h0, theta_deg, d):
        theta = math.pi / 2 if theta_deg == 90.0 else math.radians(theta_deg)
        g = LinkGeometry(h0=h0, theta=theta, d=d, d0=10.0)
        w = WaveSpec.from_frequency(f)
        layer = DustLayerModel(n0=1e3)
        particle = ParticleState(20e-6, 1000, 300.0, M_DEFAULT)
        loss = slant_dust_loss(g, w, layer, particle)
        ref = one_table_slant_loss(g, w, layer, particle, rel_tol=1e-12)
        assert loss == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("h0,theta_deg,d", [
        (20.0, 30.0, 900.0), (0.0, 90.0, 900.0), (130.0, 0.0, 250.0)])
    def test_rule_is_exact_for_piecewise_linear_k_abs(self, h0, theta_deg, d):
        # knots inside the path, and flat extrapolation past the last one
        alt, db_per_km = [0, 35, 100, 150, 300], [5.0, 4.2, 4.0, 2.5, 1.0]
        profile = AltitudeProfile(alt, db_per_km)
        theta = math.pi / 2 if theta_deg == 90.0 else math.radians(theta_deg)
        g = LinkGeometry(h0=h0, theta=theta, d=d, d0=10.0)
        loss = slant_dust_loss(g, WaveSpec.from_frequency(300e9),
                               DustLayerModel(n0=0.0), PARTICLE, k_abs=profile)
        # the exact integral: trapezoids between the knots, in altitude
        top = h0 + d * math.sin(theta)
        if top == h0:
            exact = d * profile(h0) / 1000.0
        else:
            h = np.array([h0, top] + [a for a in alt if h0 < a < top], float)
            h.sort()
            k = profile(h)
            exact = float(np.sum(np.diff(h) * (k[1:] + k[:-1]) / 2)) / 1000.0
            exact /= math.sin(theta)
        assert loss == pytest.approx(exact, rel=1e-13)

    def test_unset_n0_rejected(self):
        g = LinkGeometry(h0=100.0, theta=0.2, d=100.0, d0=10.0)
        w = WaveSpec.from_frequency(300e9)
        with pytest.raises(ConfigError):
            slant_dust_loss(g, w, DustLayerModel(), PARTICLE)
        with pytest.raises(ConfigError):
            path_loss(g, w, DustLayerModel(), PARTICLE)

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



class TestKeptTables:
    """Q_ext tables kept across calls: a warm store gives the cold values
    bit for bit, and only a call that returns adds to it."""

    LAYER = DustLayerModel(n0=1e3)

    @staticmethod
    def particle(ne):
        return ParticleState(20e-6, ne, 300.0, M_DEFAULT)

    @pytest.mark.parametrize("f,ne", [(0.3e12, 0), (1e12, 1000), (3e12, 10**6)])
    def test_warm_equals_cold_k_dust(self, kernel_tables, f, ne):
        # 120 m first, then a lower altitude, whose support lies inside the
        # kept run (the finite span of the kept array, what a hit reads),
        # then a higher one, whose support extends it at both ends (below
        # the radius cap, the top node rises with h)
        import dustmie.channel as channel
        w, particle = WaveSpec.from_frequency(f), self.particle(ne)
        heights = [120.0, 100.0, 140.0, 250.0]
        cold = []
        for h in heights:
            kernel_tables.clear()
            cold.append(dust_attenuation_coefficient(h, w, self.LAYER, particle))
        kernel_tables.clear()
        runs = []
        for h, k in zip(heights, cold):
            assert dust_attenuation_coefficient(h, w, self.LAYER, particle) == k
            (_, tables), = kernel_tables.values()
            q, = tables.values()
            finite = np.flatnonzero(~np.isnan(q))
            runs.append((finite[0], finite[-1]))
            assert finite.size == finite[-1] - finite[0] + 1
        assert runs[1] == runs[0]
        assert runs[2][0] < runs[0][0] and runs[2][1] > runs[0][1]
        assert runs[3][0] < runs[2][0] and runs[3][1] == q.size - 1
        # an altitude array against a store warmed in reverse order
        kernel_tables.clear()
        for h in heights[::-1]:
            dust_attenuation_coefficient(h, w, self.LAYER, particle)
        assert dust_attenuation_coefficient(
            np.array(heights), w, self.LAYER, particle).tolist() == cold

    @pytest.mark.parametrize("f", [0.3e12, 1e12])
    def test_warm_equals_cold_slant_loss(self, kernel_tables, f):
        w, particle = WaveSpec.from_frequency(f), self.particle(1000)
        paths = [LinkGeometry(h0=h0, theta=math.radians(deg), d=d, d0=10.0)
                 for h0, deg, d in [(110.0, 12.0, 80.0), (140.0, 14.0, 90.0),
                                    (100.0, 10.0, 50.0), (60.0, 40.0, 300.0)]]
        cold = []
        for g in paths:
            kernel_tables.clear()
            cold.append(slant_dust_loss(g, w, self.LAYER, particle))
        kernel_tables.clear()
        assert [slant_dust_loss(g, w, self.LAYER, particle) for g in paths] == cold
        assert [slant_dust_loss(g, w, self.LAYER, particle)
                for g in paths[::-1]] == cold[::-1]

    def test_repeated_path_runs_no_kernel(self, kernel_calls, monkeypatch):
        # nor builds a lattice: a key's lattice is kept with its table, and
        # building one takes two Newton solves (`_map_inverse`). A new
        # charge at a kept (f, m) shares that lattice
        import dustmie.channel as channel
        solves = []
        map_inverse = channel._map_inverse

        def counted(*args):
            solves.append(1)
            return map_inverse(*args)

        monkeypatch.setattr(channel, "_map_inverse", counted)
        g = LinkGeometry(h0=120.0, theta=math.radians(12.0), d=80.0, d0=10.0)
        w = WaveSpec.from_frequency(1e12)
        first = path_loss(g, w, self.LAYER, self.particle(0))
        assert len(kernel_calls) == 1 and len(solves) == 2
        assert path_loss(g, w, self.LAYER, self.particle(0)) == first
        assert len(kernel_calls) == 1 and len(solves) == 2
        path_loss(g, w, self.LAYER, self.particle(1000))     # a new charge
        assert len(kernel_calls) == 2 and len(solves) == 2
        # units mode and n0 only weight the table
        slant_dust_loss(g, w, DustLayerModel(n0=5.0), self.particle(0),
                        units_mode="paper")
        assert len(kernel_calls) == 2 and len(solves) == 2
        path_loss(g, WaveSpec.from_frequency(0.3e12), self.LAYER, self.particle(0))
        assert len(kernel_calls) == 3 and len(solves) == 4

    def test_key_is_normalised(self, kernel_calls):
        # a 0-d array index and the index with Im(m) > 0 are the same key
        w = WaveSpec.from_frequency(1e12)
        k = dust_attenuation_coefficient(120.0, w, self.LAYER, self.particle(0))
        for m in (np.array(M_DEFAULT), M_DEFAULT.conjugate()):
            particle = ParticleState(20e-6, 0, np.array(300.0), m)
            assert dust_attenuation_coefficient(120.0, w, self.LAYER, particle) == k
        assert len(kernel_calls) == 1

    def test_threads_share_the_store(self, monkeypatch):
        # 4 threads, 8 keys over 4 frequencies and a store that holds one
        # frequency's lattice and its two counts, so that each call evicts
        # the entries others are reading; the store sleeps between finding
        # an entry and reading or moving it. Two frequencies' entries never
        # fit, not even with one count each
        from concurrent.futures import ThreadPoolExecutor
        import dustmie.channel as channel

        class SlowStore(OrderedDict):
            def __getitem__(self, key):
                time.sleep(1e-3)
                return super().__getitem__(key)

            def move_to_end(self, key):
                time.sleep(1e-3)
                super().move_to_end(key)

        store = SlowStore()
        monkeypatch.setattr(channel, "_tables", store)
        sizes = [channel._lattice(f, M_KEY)[0].nbytes
                 for f in (0.3e12, 0.5e12, 1e12, 2e12)]
        assert 5 * max(sizes) < 2 * 4 * min(sizes)
        monkeypatch.setattr(channel, "_STORED_BYTES", 5 * max(sizes))
        jobs = [(g, f, ne) for f in (0.3e12, 0.5e12, 1e12, 2e12) for ne in (0, 1000)
                for g in (LinkGeometry(h0=110.0, theta=0.2, d=60.0, d0=10.0),
                          LinkGeometry(h0=100.0, theta=0.3, d=90.0, d0=10.0))]

        def loss(job):
            g, f, ne = job
            return slant_dust_loss(g, WaveSpec.from_frequency(f), self.LAYER,
                                   self.particle(ne))

        cold = []
        for job in jobs:
            store.clear()
            cold.append(loss(job))
        store.clear()
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(loss, jobs * 3)) == cold * 3
        assert len(store) == 1

    def test_failed_call_keeps_nothing(self, kernel_tables):
        # the library form of the CLI's exit-3 path loss: an index whose
        # square overflows a float
        w = WaveSpec.from_frequency(300e9)
        dust_attenuation_coefficient(150.0, w, self.LAYER, self.particle(10))
        before = [(fm, lattice.copy(), {key: q.copy() for key, q in tables.items()})
                  for fm, (lattice, tables) in kernel_tables.items()]
        g = LinkGeometry(h0=100.0, theta=math.pi / 2, d=100.0, d0=10.0,
                         n_i=2.0, sigma_i=3.0)
        with pytest.raises(RecurrenceOverflowError):
            path_loss(g, w, self.LAYER, ParticleState(20e-6, 10, 300.0, 1e155),
                      shadow_seed=1)
        with pytest.raises(DomainError):
            dust_attenuation_coefficient(120.0, w, self.LAYER, self.particle(10),
                                         ge_mode="bogus")
        after = list(kernel_tables.items())
        assert [fm for fm, _ in after] == [fm for fm, *_ in before]
        for (_, (lattice, tables)), (_, lattice_before, tables_before) in zip(after, before):
            assert np.array_equal(lattice, lattice_before)
            assert tables.keys() == tables_before.keys()
            for key, q in tables.items():
                assert np.array_equal(q, tables_before[key], equal_nan=True)

    def test_repeated_key_is_computed_once(self, monkeypatch, kernel_tables):
        # a frequency repeated in one call, or a count repeated at one
        # frequency, is one key: its nodes go into the block's kernel call
        # once, and every repeat reads the same values
        import dustmie.channel as channel
        sizes = []
        kernel = channel.extinction_efficiency_array

        def counted(radius, *args, **kwargs):
            sizes.append(radius.size)
            return kernel(radius, *args, **kwargs)

        monkeypatch.setattr(channel, "extinction_efficiency_array", counted)

        def k_dust(freqs, counts):
            kernel_tables.clear()
            sizes.clear()
            return channel._k_dust_grid([150.0], freqs, counts, self.LAYER, 300.0,
                                        M_DEFAULT, ("physical",), "full")[0, :, :, 0]
        nodes = support_nodes([150.0], 1e12)           # 1,078
        single = {ne: k_dust([1e12], [ne]).item() for ne in (0, 1000)}
        assert k_dust([1e12] * 3, [0]).tolist() == [[single[0]] * 3]
        assert sizes == [nodes]
        assert k_dust([1e12], [0, 0, 1000]).tolist() == [[single[0]], [single[0]],
                                                        [single[1000]]]
        assert sizes == [2 * nodes]

    def test_many_columns_stay_within_the_bound(self, kernel_tables):
        # 60 frequency columns of 799-946-node supports, in blocks of 38 and 22:
        # only the last 7 columns are kept, as many as 256 KB holds
        import dustmie.channel as channel
        freqs = np.geomspace(1e11, 3e11, 60)
        channel._k_dust_grid([150.0], freqs, [0], self.LAYER, 300.0, M_DEFAULT,
                             ("physical",), "full")
        kept = sum(map(channel._entry_bytes, kernel_tables.values()))
        assert kept <= 2**18
        assert [f for f, _ in kernel_tables] == freqs[-len(kernel_tables):].tolist()
        assert len(kernel_tables) == 7
        # an entry holds four arrays over its lattice: u, r, du and Q_ext
        for lattice, tables in kernel_tables.values():
            q, = tables.values()
            assert lattice.nbytes == 3 * q.nbytes
            assert channel._entry_bytes((lattice, tables)) == 4 * q.nbytes
        older = freqs[-len(kernel_tables) - 1]
        assert kept + 4 * channel._lattice(older, M_KEY)[0].nbytes > 2**18

    def test_group_over_the_budget_is_not_kept(self, monkeypatch, kernel_tables):
        # an (f, m) entry larger than the budget, here a lattice and two
        # counts against room for one, is dropped with the rest of the store
        import dustmie.channel as channel
        monkeypatch.setattr(channel, "_STORED_BYTES",
                            4 * channel._lattice(1e12, M_KEY)[0].nbytes)

        def k_dust(counts):
            return channel._k_dust_grid([150.0], [1e12], counts, self.LAYER, 300.0,
                                        M_DEFAULT, ("physical",), "full")
        k_dust([0])
        assert [len(tables) for _, tables in kernel_tables.values()] == [1]
        k_dust([0, 1000])
        assert not kernel_tables

    def test_partly_kept_columns_make_one_call(self, kernel_tables, kernel_calls):
        # five frequencies at 150 m after one of them ran at 100 m, whose
        # kept run lies inside the 150 m support: the nodes the other four
        # lack and the ends the fifth lacks are one kernel call
        import dustmie.channel as channel
        freqs = np.geomspace(1e11, 3e12, 5)

        def k_dust(heights, freqs):
            return channel._k_dust_grid(heights, freqs, [1000], self.LAYER, 300.0,
                                        M_DEFAULT, ("physical", "paper"), "full")
        cold = k_dust([150.0], freqs)
        kernel_tables.clear()
        k_dust([100.0], freqs[2:3])
        kernel_calls.clear()
        assert k_dust([150.0], freqs).tolist() == cold.tolist()
        assert len(kernel_calls) == 1


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

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            path_loss(self.GEOM, WaveSpec.from_frequency(300e9),
                      DustLayerModel(n0=0.0), PARTICLE, shadow_seed=-1)

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
