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


def frequency_slice(heights, f, m=M_KEY):
    """The slice of m's lattice a table at frequency f takes for these
    altitudes: the union of the nodes their weights cover."""
    import dustmie.channel as channel
    return channel._frequency_slice(f, m, *lognormal_params(np.array(heights)))


def support_nodes(heights, f):
    """The number of lattice nodes a table at frequency f (default index)
    spans for these altitudes."""
    nodes = frequency_slice(heights, f).nodes
    return nodes.stop - nodes.start


def rejected_nodes(f, ne, nodes, temperature=300.0, m=M_KEY):
    """How many of the lattice nodes (a slice) a charged column at f (Hz)
    and ne sends to the kernel: those whose g_e fails `mie._linear_q`'s
    rule on the uncharged key's kept records."""
    import dustmie.channel as channel
    from dustmie.mie import _linear_q, _size_and_charge
    first, records = channel._tables[m,]
    cells = np.arange(nodes.start, nodes.stop)
    ln_x = channel._ln_x_map(channel._V_STEP * cells, channel._damped_ln_x(m))[0]
    r_m = np.exp(ln_x + (channel._LN_MM_PER_X_HZ - math.log(f))) * 1e-3
    _, g_e = _size_and_charge(r_m, np.asarray(f), np.asarray(float(ne)), temperature,
                              "full")
    admitted, _ = _linear_q(records[cells - first], g_e)
    return int(np.count_nonzero(~admitted))


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
        w = WaveSpec(300e9)
        assert dust_attenuation_coefficient(100.0, w, layer, PARTICLE) == 0.0

    def test_memory_budget(self, kernel_tables):
        # the largest kernel table of the band: its order blocks' dense
        # arrays, and a downward pass's ragged store where an index needs
        # one (the default index needs none), stay bounded
        w = WaveSpec(3e12)
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
        # a table holds one block of columns at a time, its slices, radii
        # and weights included: with the kernel stubbed, so that only
        # what `channel` holds is traced, 400 frequencies of one band peak
        # within 10 % of 40. At the CLI's three counts 40 frequencies fill
        # several blocks, as 400 do; at one count they fill about one, before
        # the store of kept tables is full, and 400 read 12 % more
        import dustmie.channel as channel
        from dustmie.mie import _LINEAR
        monkeypatch.setattr(channel, "_qext", lambda x, m, g_e, linear=False: np.ones(
            x.size, _LINEAR if linear else float))
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
        # bit for bit, each altitude's own n0 phi(u) du on its part of the
        # slice, halved at its ends, or the end panels' at an end on 1 nm,
        # which the support at 300 m reaches, or on the cap, which the
        # supports from 150 m up reach; at 300 m, where the cap carries
        # weight (z < 6), psi over the last 14 steps and then the window's
        # nodes, which follow the span, instead where the ripple at the cap
        # is not damped (Im(m) x < 7 there): at 0.3 THz, not at 3 THz
        import dustmie.channel as channel
        mu, sigma = lognormal_params(np.array([100.0, 150.0, 200.0, 300.0]))
        piece = frequency_slice([100.0, 150.0, 200.0, 300.0], f)
        weights = channel._size_weights(piece, mu, sigma, 1e3)
        ln_scale = channel._LN_MM_PER_X_HZ - math.log(f)
        u2 = channel._damped_ln_x(M_KEY)
        v_floor = channel._map_inverse(math.log(1e-6) - ln_scale, u2) / channel._V_STEP
        v_top = channel._map_inverse(math.log(10.0) - ln_scale, u2) / channel._V_STEP
        floor = channel._cap_weights(piece.nodes.start - v_floor)[::-1].tolist()
        cap = channel._cap_weights(v_top - (piece.nodes.stop - 1)).tolist()
        span = piece.nodes.stop - piece.nodes.start
        windowed = f < 1e12
        assert (piece.tail is not None) == windowed
        assert piece.u.size == span + windowed * channel._WINDOW_NODES
        assert [part.start == 0 for part in piece.parts] == [False, False, False, True]
        assert [part.stop for part in piece.parts[1:]] == [span, span, piece.u.size]
        firsts = [first for first, _ in piece.ends]
        lasts = [last for _, last in piece.ends]
        assert firsts == [[0.5], [0.5], [0.5], floor]
        assert lasts[:3] == [[0.5], cap, cap]
        if windowed:
            inside = np.arange(math.floor(v_top - 14) + 1, piece.nodes.stop)
            psi = channel._erfc_half(inside - v_top + 7).tolist()
            # psi falls from 1 to 0 over the 14 nodes, each 6 to 7 steps
            # from the middle of its fall at the ends
            assert len(psi) == 14 and psi == sorted(psi, reverse=True)
            assert psi[0] > 1 - 1e-9 and 0 < psi[-1] < 1e-9
            assert lasts[3] == psi + [1.0] * channel._WINDOW_NODES
        else:
            assert lasts[3] == cap
        for w, part, m, s, (first, last) in zip(
                weights, piece.parts, mu.tolist(), sigma.tolist(), piece.ends):
            one = (1e3 / (math.sqrt(2 * math.pi) * s)
                   * np.exp(-0.5 * ((piece.u[part] - m) / s) ** 2) * piece.du[part])
            one[:len(first)] *= first
            one[-len(last):] *= last
            assert w[part].tobytes() == one.tobytes()

    def test_cap_weights_integrate_cubics_to_the_cap(self):
        # a sum that ends theta steps past its last node, with the end
        # weights halved at its other end's Gregory mirror, integrates
        # cubics exactly; at theta = 0 the end is Gregory's alone, and at
        # theta = 1 the panel is the Adams-Bashforth step
        import dustmie.channel as channel
        t = np.arange(-20.0, 1.0)
        for theta in (0.0, 0.25, 0.6, 1.0):
            w = np.ones(t.size)
            w[:4] = channel._CAP_WEIGHTS[::-1]
            w[-4:] = channel._cap_weights(theta)
            for degree in range(4):
                exact = (theta ** (degree + 1) - (-20.0) ** (degree + 1)) / (degree + 1)
                assert (w * t**degree).sum() == pytest.approx(exact, rel=1e-13, abs=1e-9)
        assert channel._cap_weights(0.0).tolist() == channel._CAP_WEIGHTS.tolist()
        assert (channel._cap_weights(1.0) - channel._CAP_WEIGHTS) * 24 == pytest.approx(
            [-9, 37, -59, 55], rel=1e-14)

    def test_cap_window_follows_ripple_to_the_cap(self):
        # psi on the nodes of the last 14 steps below a cap theta steps past
        # the last node, and the window's Gauss-Legendre nodes, integrate a
        # ripple of one radian a step (the Mie ripple's, in x, near 0.4 THz
        # at the cap) under a smooth envelope, within 1.4e-9 of the integral
        # of |g|; Gregory's weights and the partial panel, from node values
        # alone, miss it by 9e-6 to 2e-3
        import dustmie.channel as channel
        steps, weights = channel._window_rule()
        assert steps.size == 24 and 0 < steps.min() and steps.max() < 14
        nodes, node_weights = np.polynomial.legendre.leggauss(200)
        for theta in (0.0, 0.3, 0.7, 1.0):
            def g(v):
                envelope = np.exp(-((v - theta) / 12) ** 2 / 2)
                return envelope * (np.cos(v + 0.4) + 0.05 * (v - theta) ** 2)

            cuts = np.linspace(theta - 150, theta, 31)
            exact, scale = (sum((b - a) / 2 * float(node_weights @ f((a + b) / 2
                                                                   + (b - a) / 2 * nodes))
                                for a, b in zip(cuts[:-1], cuts[1:]))
                            for f in (g, lambda v: np.abs(g(v))))
            t = np.arange(-200.0, 1.0)
            psi = np.ones(t.size)
            inside = t > theta - 14
            psi[inside] = channel._erfc_half(t[inside] - theta + 7)
            window = float(psi @ g(t)) + float(weights @ g(theta - steps))
            panel = np.ones(t.size)
            panel[-4:] = channel._cap_weights(theta)
            assert abs(window - exact) <= 1.4e-9 * scale, theta
            assert abs(float(panel @ g(t)) - exact) >= 9e-6 * scale, theta

    def test_unset_n0_rejected(self):
        with pytest.raises(ConfigError):
            dust_attenuation_coefficient(
                100.0, WaveSpec(300e9), DustLayerModel(), PARTICLE)

    def test_linearity_in_n0(self):
        w = WaveSpec(300e9)
        k1 = dust_attenuation_coefficient(100.0, w, DustLayerModel(n0=1e3), PARTICLE)
        k2 = dust_attenuation_coefficient(100.0, w, DustLayerModel(n0=2e3), PARTICLE)
        assert k2 == pytest.approx(2 * k1, rel=1e-9)

    def test_matches_trapezoid_oracle(self):
        w = WaveSpec(0.1e12)
        layer = DustLayerModel(n0=1e4)
        k = dust_attenuation_coefficient(100.0, w, layer, PARTICLE)
        ref = trapezoid_k_dust(100.0, w, layer, PARTICLE)
        assert k == pytest.approx(ref, rel=1e-4)

    @pytest.mark.parametrize("f,h,ne", [(0.3e12, 150.0, 1000), (1.2e12, 120.0, 0)])
    def test_fixed_grid_matches_adaptive_reference(self, f, h, ne):
        w = WaveSpec(f)
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

    # where the support reaches the 10 mm cap, which falls between nodes
    # at a different place for each frequency, its end keeps the error
    # within 1e-8 at 300 m and 3e-8 at 600 m (the trapezoid alone misses by
    # 3.3e-7 and 9.2e-6) from 0.3 to 3 THz and at 10 THz: the cap window
    # below about 1.34 THz, where absorption has not damped the ripple at
    # the cap, Gregory's correction and the partial panel above. At 0.35
    # and 0.5 THz those two missed by 1.4e-7 and 1.7e-7 at 600 m. 0.4347 THz
    # is the worst of 150 frequencies over 0.3-3 THz at 600 m: 1.2e-8
    @pytest.mark.parametrize("h,bound", [(300.0, 1e-8), (600.0, 3e-8)])
    def test_cap_end_within_reference(self, h, bound):
        import dustmie.channel as channel
        freqs = [0.3e12, 0.35e12, 0.4e12, 0.4347e12, 0.5e12, 0.8e12, 1e12, 3e12, 10e12]
        k = channel._k_dust_grid([h], freqs, [0], DustLayerModel(n0=1.0), 300.0,
                                 M_DEFAULT, ("physical",), "full")[0, 0, :, 0]
        for f, k_f in zip(freqs, k):
            ref = k_dust_reference(h, f, M_DEFAULT, 0, "physical")
            assert abs(k_f - ref) <= bound * ref, f

    def test_finer_lattice_nests_the_lattice(self, fine_lattice):
        # the same map at v step / 4: node 4 i is node i bit for bit, U'
        # included, and a frequency's slice of either runs from less than a
        # step above 1 nm to less than a step below 10 mm
        import dustmie.channel as channel
        for f, m in [(0.1e12, 2 + 0.025j), (3e12, 2 + 0.025j), (10e12, 1.6 + 0.05j),
                     (1e12, 1.33 + 0j)]:
            u2 = channel._damped_ln_x(m)
            u, du = channel._ln_x_map(channel._V_STEP * np.arange(-600, 900), u2)
            piece = frequency_slice([600.0], f, m)
            with fine_lattice(channel._V_STEP / 4):
                fine_u, fine_du = channel._ln_x_map(
                    channel._V_STEP * np.arange(-2400, 3600), u2)
                fine_piece = frequency_slice([600.0], f, m)
            assert fine_u[::4].tobytes() == u.tobytes()
            assert fine_du[::4].tobytes() == du.tobytes()
            for p in (piece, fine_piece):
                assert p.r_m[0] >= 1e-9 > p.r_m[0] * math.exp(-p.du[0])
                assert p.r_m[-1] <= 1e-2 < p.r_m[-1] * math.exp(p.du[-1])

    # Weakly absorbing indices lie outside that domain: their sharper Mie
    # ripple leaves the lattice far more than 1e-8 from the reference (h
    # 150 m, Ne 0, physical units). Pinned at the levels measured, so that
    # a change to the lattice or the kernel that moves them shows, against
    # a reference converged to 1/200 of the level; for 3+0.001j its finest
    # levels agree within 3.1e-6, 1/100 of the level. For 1.33 no
    # reference converges: the pin is the spread of its two finest levels
    @pytest.mark.parametrize("m,f,level,share", [
        (1.5 + 0.001j, 1e12, 9.0e-6, 200), (1.5 + 0.001j, 10e12, 9.0e-5, 200),
        (1.33, 3e12, 9.9e-6, None), (3 + 0.001j, 0.3e12, 3.2e-4, 100),
        (1.5 + 0.01j, 1e12, 4.9e-8, 200)])
    def test_lattice_error_at_weak_absorption(self, m, f, level, share):
        w, layer = WaveSpec(f), DustLayerModel(n0=1.0)
        particle = ParticleState(20e-6, 0, 300.0, m)
        if m == 1.33:
            with pytest.raises(ReferenceSpreadError) as failed:
                k_dust_reference(150.0, f, m, 0, "physical")
            assert failed.value.spread == pytest.approx(level, rel=0.05)
            return
        k = dust_attenuation_coefficient(150.0, w, layer, particle)
        ref = k_dust_reference(150.0, f, m, 0, "physical", rtol=level / share)
        assert abs(k - ref) / ref == pytest.approx(level, rel=0.05)

    def test_known_adaptive_miss(self):
        # here a default-tolerance adaptive size integral returned 0.43063;
        # rel_tol 1e-8 and an 80k-point trapezoid both give this value
        w = WaveSpec(2.79598e12)
        k = dust_attenuation_coefficient(175.546, w, DustLayerModel(n0=1e3), PARTICLE)
        assert k == pytest.approx(0.431349324234458, rel=1e-6)

    def test_altitude_trend(self):
        # holds at 1 THz; at 0.3 THz the heavier 200 m large-particle tail
        # reverses it
        w = WaveSpec(1e12)
        layer = DustLayerModel(n0=1e4)
        k100 = dust_attenuation_coefficient(100.0, w, layer, PARTICLE)
        k200 = dust_attenuation_coefficient(200.0, w, layer, PARTICLE)
        assert k100 >= k200

    def test_frequency_trend(self):
        layer = DustLayerModel(n0=1e4)
        k_low = dust_attenuation_coefficient(
            100.0, WaveSpec(0.3e12), layer, PARTICLE)
        k_high = dust_attenuation_coefficient(
            100.0, WaveSpec(1e12), layer, PARTICLE)
        assert k_high >= k_low

    def test_paper_units_mode(self):
        # r in mm and a dimensionless efficiency: huge numbers, but exactly
        # the printed formula; only the prefactor semantics differ
        w = WaveSpec(300e9)
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
                100.0, WaveSpec(300e9),
                DustLayerModel(n0=1.0), PARTICLE, units_mode="bogus")

    def test_altitude_array_matches_scalar_calls(self):
        # one table over the union of the supports, then a sum per altitude
        w = WaveSpec(300e9)
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
        # a table over many frequencies is two kernel calls per slice of
        # them, the uncharged records its spans lack and the charged nodes
        # that the linear rule rejects, and gives the per-frequency values
        # exactly; each frequency's slice of the lattice has its own node
        # count, more nodes at a higher frequency
        import dustmie.channel as channel
        layer = DustLayerModel(n0=1e3)
        particle = ParticleState(20e-6, 1000, 300.0, M_DEFAULT)
        freqs = np.geomspace(1e11, 3e12, 5)
        nodes = [support_nodes([150.0], f) for f in freqs]
        monkeypatch.setattr(channel, "_TABLE_SIZES", nodes[3] + nodes[4])
        calls = []
        kernel = channel._qext

        def counted(x, *args, **kwargs):
            assert x.size <= channel._TABLE_SIZES
            calls.append(x.size)
            return kernel(x, *args, **kwargs)

        monkeypatch.setattr(channel, "_qext", counted)
        k = channel._k_dust_grid([150.0], freqs, [particle.electrons], layer,
                                 particle.temperature, particle.refractive_index,
                                 ("physical", "paper"), "full")
        assert nodes == [798, 913, 1018, 1096, 1143]
        spans = [frequency_slice([150.0], f).nodes for f in freqs]
        rejected = [rejected_nodes(f, particle.electrons, span)
                    for f, span in zip(freqs, spans)]
        # the uncharged records grow from the blocks' hulls: 939 nodes, then
        # 236 and 76 more; the rule rejects a column's 139-142 smallest
        # sizes (x up to 0.055 at 0.1 THz and 0.44 at 3 THz)
        assert [spans[1].stop - spans[0].start, spans[3].stop - spans[1].stop,
                spans[4].stop - spans[3].stop] == [939, 236, 76]
        assert rejected == [141, 139, 139, 141, 142]
        assert calls == [939, rejected[0] + rejected[1], 236, rejected[2] + rejected[3],
                         76, rejected[4]]
        assert k.shape == (2, 1, 5, 1)
        for k_mode, units_mode in zip(k[:, 0], ("physical", "paper")):
            for f, k_f in zip(freqs, k_mode):
                kernel_tables.clear()
                assert k_f[0] == dust_attenuation_coefficient(
                    150.0, WaveSpec(f), layer, particle,
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
        kernel = channel._qext

        def counted(x, *args, **kwargs):
            calls.append(x.size)
            return kernel(x, *args, **kwargs)

        monkeypatch.setattr(channel, "_qext", counted)
        counts = [0, 1000, 10**12]
        units = ("physical", "paper")
        k = channel._k_dust_grid(heights, freqs, counts, layer, 300.0, M_DEFAULT,
                                 units, "full")
        # blocks of 5, 4, 4 and 2 columns: a block computes of the uncharged
        # key the nodes of its columns' spans the blocks before did not, and
        # then, in one call, the nodes of its charged columns that the
        # linear rule rejects
        assert k.shape == (2, 3, 5, 3)
        pieces = [frequency_slice(heights, f) for f in freqs.tolist()]
        spans = [set(range(piece.nodes.start, piece.nodes.stop)) for piece in pieces]
        columns = [(i, ne) for i in range(5) for ne in counts]
        computed, sizes = set(), []
        for block in (columns[:5], columns[5:9], columns[9:13], columns[13:]):
            fresh = set().union(*(spans[i] for i, ne in block)) - computed
            computed |= fresh
            sizes += [len(fresh)] if fresh else []
            sizes.append(sum(rejected_nodes(freqs[i], ne, pieces[i].nodes)
                             for i, ne in block if ne))
        assert calls == sizes
        # every column shares the one lattice: the uncharged key keeps one
        # array over the union of the five frequencies' slices, and each
        # charged key one over its frequency's slice
        assert len(kernel_tables) == 1 + 2 * 5
        begin, q = kernel_tables[M_KEY,]
        assert begin == pieces[0].nodes.start and q.size == pieces[-1].nodes.stop - begin
        assert not np.isnan(q["q"]).any()
        for f, piece in zip(freqs.tolist(), pieces):
            for ne in counts[1:]:
                begin, q = kernel_tables[M_KEY, f, float(ne), 300.0, "full"]
                assert (begin, q.size) == (piece.nodes.start, piece.u.size)
        for i, ne in enumerate(counts):
            kernel_tables.clear()
            one = channel._k_dust_grid(heights, freqs, [ne], layer, 300.0, M_DEFAULT,
                                       units, "full")
            assert np.array_equal(k[:, i:i + 1], one)


def unclamped_k_dust(h, f, ne, n0, units_mode):
    """k_dust by the same rule, on the same lattice continued below 1 nm
    over the log-normal's whole lower 8-sigma tail, for a support that
    reaches the cap: the sum before the support was clamped to the
    kernel's radius domain. A node's Q_ext depends on its index alone, so
    the nodes both sums share hold the same values."""
    import dustmie.channel as channel
    mu, sigma = lognormal_params(h)
    support = channel._support
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channel, "_LN_R_FLOOR", mu - 8 * sigma)
        patch.setattr(channel, "_support", lambda mu, sigma: (
            np.exp(mu - 8 * sigma), support(mu, sigma)[1]))
        return channel._k_dust_grid([h], [f], [ne], DustLayerModel(n0=n0), 300.0,
                                    M_DEFAULT, (units_mode,), "full")[0, 0, 0, 0]


class TestAccuracyContract:
    """The README's accuracy contract as a sampled property: each row's
    bound on fixed-seed draws from the row's stated domain, against
    `k_dust_reference` (n0 = 1, 300 K, full g_e). The grid tests above pin
    chosen points; a draw lands anywhere in the domain."""

    @staticmethod
    def count(rng):
        # 0 or 10^1 .. 10^13 electrons, log-uniform in the exponent
        k = rng.randint(0, 13)
        return 10**k if k else 0

    @staticmethod
    def frequency(rng, lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    def test_lattice_row_sampled(self):
        # 40 draws: 2-0.025j or 1.6+0.05j, 100-200 m, 0.1-3 THz, Ne 0 to
        # 1e13, each in both units modes, within 1e-8
        import random
        import dustmie.channel as channel
        rng = random.Random(2026)
        for _ in range(40):
            m = rng.choice([M_DEFAULT, 1.6 + 0.05j])
            h, f = rng.uniform(100.0, 200.0), self.frequency(rng, 0.1e12, 3e12)
            ne = self.count(rng)
            k = channel._k_dust_grid([h], [f], [ne], DustLayerModel(n0=1.0), 300.0, m,
                                     ("physical", "paper"), "full")[:, 0, 0, 0]
            for k_u, units in zip(k, ("physical", "paper")):
                ref = k_dust_reference(h, f, m, ne, units)
                assert abs(k_u - ref) <= 1e-8 * ref, (m, h, f, ne, units)

    def test_cap_row_sampled(self):
        # 20 draws: 2-0.025j, physical units, 300 m (within 1e-8) or 600 m
        # (within 3e-8), 0.3-3 THz, Ne 0 to 1e13
        import random
        import dustmie.channel as channel
        rng = random.Random(2027)
        for _ in range(20):
            h, bound = rng.choice([(300.0, 1e-8), (600.0, 3e-8)])
            f, ne = self.frequency(rng, 0.3e12, 3e12), self.count(rng)
            k = channel._k_dust_grid([h], [f], [ne], DustLayerModel(n0=1.0), 300.0,
                                     M_DEFAULT, ("physical",), "full")[0, 0, 0, 0]
            ref = k_dust_reference(h, f, M_DEFAULT, ne, "physical")
            assert abs(k - ref) <= bound * ref, (h, f, ne)


class TestRadiusDomain:
    """The size integral covers only the kernel's radius domain
    [1 nm, 10 mm]: the lattice stops at 1 nm, whatever the altitude."""

    def test_table_nodes_capped(self, monkeypatch, kernel_tables):
        # a cold table for one altitude runs the kernel on exactly the nodes
        # that altitude weights, none of them below 1 nm or past 10 mm; from
        # 300 m up, where the cap carries weight, a second call runs it on
        # the cap window's nodes, all below 10 mm as well
        import dustmie.channel as channel
        sizes = []
        kernel = channel._qext

        def spy(x, *args, **kwargs):
            sizes.append(x)
            return kernel(x, *args, **kwargs)

        monkeypatch.setattr(channel, "_qext", spy)
        w = WaveSpec(300e9)
        heights = [100.0, 150.0, 200.0, 300.0, 800.0, 10000.0]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "size-spectrum fit extrapolated")
            for h in heights:
                kernel_tables.clear()
                k = dust_attenuation_coefficient(h, w, DustLayerModel(n0=1e3), PARTICLE)
                assert math.isfinite(k) and k >= 0
            piece = frequency_slice(heights, 300e9)
        span = piece.nodes.stop - piece.nodes.start
        u, _ = channel._ln_x_map(channel._V_STEP * np.arange(piece.nodes.start,
                                                             piece.nodes.stop),
                                 channel._damped_ln_x(M_KEY))
        # the rows from 300 m up end with the window: their parts run on
        # over its nodes, after the span
        assert [part.stop > span for part in piece.parts] == [False] * 3 + [True] * 3
        assert len(sizes) == 3 + 2 * 3
        parts = [slice(part.start, min(part.stop, span)) for part in piece.parts]
        for x, part in zip(sizes[:3] + sizes[3::2], parts, strict=True):
            # the uncharged key runs in x, at the lattice's own nodes
            assert np.array_equal(x, np.exp(u[part]))
            assert piece.r_m[part].min() >= 1e-9
        assert [x.size for x in sizes[:3] + sizes[3::2]] == [813, 946, 994] + [1116] * 3
        for x in sizes[4::2]:
            assert np.array_equal(x, np.exp(piece.tail))
        # inside the last 14 steps below the cap
        inside = len(piece.ends[3][1]) - channel._WINDOW_NODES
        assert inside == 14
        assert piece.u[span - 1 - inside] < piece.u[span:].min()
        assert piece.r_m[span:].max() < 1e-2
        for part in parts[3:]:
            # the first node lies at most one step above 1 nm, the last at
            # most one below 10 mm
            r, du = piece.r_m[part], piece.du[part]
            assert 1e-9 <= r[0] < 1e-9 * math.exp(du[0])
            assert r[-1] <= 1e-2 < r[-1] * math.exp(du[-1])

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
    every altitude summed over one kernel table kept for the whole path."""
    import dustmie.channel as channel
    sin_theta = math.sin(g.theta)

    def per_m(s):
        return channel._k_dust_grid(
            g.h0 + s * sin_theta, [w.frequency], [particle.electrons], layer,
            particle.temperature, particle.refractive_index, ("physical",),
            "full")[0, 0, 0] / 1000.0
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
        w = WaveSpec(f)
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
        loss = slant_dust_loss(g, WaveSpec(300e9),
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
        w = WaveSpec(300e9)
        with pytest.raises(ConfigError):
            slant_dust_loss(g, w, DustLayerModel(), PARTICLE)
        with pytest.raises(ConfigError):
            path_loss(g, w, DustLayerModel(), PARTICLE)

    def test_horizontal_path_is_constant_altitude(self):
        g = LinkGeometry(h0=100.0, theta=0.0, d=500.0, d0=10.0)
        w = WaveSpec(300e9)
        layer = DustLayerModel(n0=1e4)
        loss = slant_dust_loss(g, w, layer, PARTICLE)
        k = dust_attenuation_coefficient(100.0, w, layer, PARTICLE)
        assert loss == pytest.approx(g.d * k / 1000.0, rel=1e-9)

    def test_bad_units_mode_rejected_for_every_n0(self):
        g = LinkGeometry(h0=100.0, theta=0.3, d=100.0, d0=10.0)
        w = WaveSpec(300e9)
        for n0 in (0.0, None, 1e3):
            with pytest.raises(ConfigError):
                slant_dust_loss(g, w, DustLayerModel(n0=n0), PARTICLE,
                                units_mode="bogus")
        with pytest.raises(ConfigError):
            path_loss(g, w, DustLayerModel(n0=0.0), PARTICLE, units_mode="bogus")

    def test_no_attenuation_no_loss(self):
        g = LinkGeometry(h0=100.0, theta=0.3, d=500.0, d0=10.0)
        w = WaveSpec(300e9)
        assert slant_dust_loss(g, w, DustLayerModel(n0=0.0), PARTICLE) == 0.0

    def test_vertical_path_matches_slab_oracle(self):
        profile = AltitudeProfile([0, 100, 150, 300, 1000],
                                  [5.0, 4.0, 2.5, 1.0, 0.2])
        g = LinkGeometry(h0=0.0, theta=math.pi / 2, d=900.0, d0=10.0)
        w = WaveSpec(300e9)
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
        w = WaveSpec(0.3e12)
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
        w = WaveSpec(0.1e12)
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
        # kept run (what a hit reads), then a higher one, whose support extends it at both ends (below
        # the radius cap, the top node rises with h)
        import dustmie.channel as channel
        w, particle = WaveSpec(f), self.particle(ne)
        heights = [120.0, 100.0, 140.0, 250.0]
        cold = []
        for h in heights:
            kernel_tables.clear()
            cold.append(dust_attenuation_coefficient(h, w, self.LAYER, particle))
        kernel_tables.clear()
        runs = []
        key = (M_KEY, f, float(ne), 300.0, "full")[:5 if ne else 1]
        for h, k in zip(heights, cold):
            assert dust_attenuation_coefficient(h, w, self.LAYER, particle) == k
            first, q = kernel_tables[key]
            runs.append((first, first + q.size))
        assert runs[1] == runs[0]
        assert runs[2][0] < runs[0][0] and runs[2][1] > runs[0][1]
        # 250 m reaches the cap: the last node at or below 10 mm
        assert runs[3][0] < runs[2][0]
        assert runs[3][1] == frequency_slice([250.0], f).nodes.stop
        # an altitude array against a store warmed in reverse order
        kernel_tables.clear()
        for h in heights[::-1]:
            dust_attenuation_coefficient(h, w, self.LAYER, particle)
        assert dust_attenuation_coefficient(
            np.array(heights), w, self.LAYER, particle).tolist() == cold

    @pytest.mark.parametrize("f", [0.3e12, 1e12])
    def test_warm_equals_cold_slant_loss(self, kernel_tables, f):
        w, particle = WaveSpec(f), self.particle(1000)
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

    def test_repeated_path_runs_no_kernel(self, kernel_tables, kernel_calls):
        # nor solves again for the ends of the frequency's slice, two Newton
        # solves (`_map_inverse`) the first time. A new charge at a kept
        # frequency computes its own key on the same nodes; an uncharged
        # path at a new frequency whose nodes the uncharged key already
        # holds runs no kernel either
        import dustmie.channel as channel

        channel._map_inverse.cache_clear()
        g = LinkGeometry(h0=120.0, theta=math.radians(12.0), d=80.0, d0=10.0)
        w = WaveSpec(1e12)
        first = path_loss(g, w, self.LAYER, self.particle(0))
        assert len(kernel_calls) == 1 and channel._map_inverse.cache_info().misses == 2
        (kept,) = kernel_tables.values()
        assert path_loss(g, w, self.LAYER, self.particle(0)) == first
        assert len(kernel_calls) == 1 and channel._map_inverse.cache_info().misses == 2
        assert kernel_tables[M_KEY,] is kept
        path_loss(g, w, self.LAYER, self.particle(1000))     # a new charge
        assert len(kernel_calls) == 2 and kernel_tables[M_KEY,] is kept
        # units mode and n0 only weight the table
        slant_dust_loss(g, w, DustLayerModel(n0=5.0), self.particle(0),
                        units_mode="paper")
        assert len(kernel_calls) == 2
        # 0.3 THz and 3 THz bracket 0.5 and 2 THz: their slices cover the
        # nodes between, so only the bracketing frequencies run the kernel
        for f in (0.3e12, 3e12, 0.5e12, 2e12):
            path_loss(g, WaveSpec(f), self.LAYER, self.particle(0))
        assert len(kernel_calls) == 4
        # a call at a kept frequency and key grows nothing and keeps its bits
        kept = kernel_tables[M_KEY,]
        assert path_loss(g, w, self.LAYER, self.particle(0)) == first
        assert len(kernel_calls) == 4 and kernel_tables[M_KEY,] is kept

    @pytest.mark.parametrize("ne,rejected", [(1000, 139), (10**6, 267)])
    def test_charged_column_runs_the_kernel_on_its_rejected_nodes(
            self, monkeypatch, kernel_tables, kernel_calls, ne, rejected):
        # with the uncharged records kept, a cold charged k_dust at 0.3 THz
        # and 150 m runs one kernel call, on the nodes of its 946 whose g_e
        # fails the linear rule: 139 at Ne 1e3 and 267 at 1e6, its smallest
        # sizes. The rest take Q_0 + Re(S g_e), which moves k_dust from the
        # sum with every node from the kernel by at most mie._LINEAR_EPS of
        # the uncharged k_dust
        import dustmie.channel as channel
        import dustmie.mie as mie
        w = WaveSpec(0.3e12)
        k0 = dust_attenuation_coefficient(150.0, w, self.LAYER, self.particle(0))
        kernel_calls.clear()
        k = dust_attenuation_coefficient(150.0, w, self.LAYER, self.particle(ne))
        span = frequency_slice([150.0], 0.3e12).nodes
        assert span.stop - span.start == 946
        (x,) = kernel_calls
        assert x.size == rejected == rejected_nodes(0.3e12, ne, span)
        q = kernel_tables[M_KEY, 0.3e12, float(ne), 300.0, "full"][1]
        x_all = np.sort(np.exp(channel._ln_x_map(channel._V_STEP * np.arange(
            span.start, span.stop), channel._damped_ln_x(M_KEY))[0]))
        assert np.allclose(np.sort(x), x_all[:rejected], rtol=1e-14, atol=0)
        assert q.size == 946
        # every node from the kernel: a rule that admits none
        monkeypatch.setattr(mie, "_LINEAR_EPS", 0.0)
        kernel_tables.pop((M_KEY, 0.3e12, float(ne), 300.0, "full"))
        kernel_calls.clear()
        exact = dust_attenuation_coefficient(150.0, w, self.LAYER, self.particle(ne))
        assert [x.size for x in kernel_calls] == [946]
        assert abs(k - exact) <= 1e-13 * k0

    def test_uncharged_column_in_any_frequency_order(self, kernel_tables):
        # the uncharged key is one array over every frequency's nodes: an
        # f-sweep's Ne = 0 column has the same bits whichever frequency
        # computed a node first, cold or warm, and as single calls
        import dustmie.channel as channel
        freqs = np.geomspace(1e11, 1e13, 20)

        def column(order, heights=(150.0,)):
            return channel._k_dust_grid(list(heights), freqs[order], [0], self.LAYER,
                                        300.0, M_DEFAULT, ("physical", "paper"),
                                        "full")[:, 0]
        ascending = column(np.arange(20))
        for order in (np.arange(20)[::-1], np.random.default_rng(7).permutation(20)):
            kernel_tables.clear()
            assert column(order).tobytes() == ascending[:, order].tobytes()
            assert column(order).tobytes() == ascending[:, order].tobytes()
        for i in np.random.default_rng(8).permutation(20)[:5]:
            kernel_tables.clear()
            assert column([i]).tobytes() == ascending[:, [i]].tobytes()
        # the charged columns at the same frequencies are their own keys
        kernel_tables.clear()
        charged = channel._k_dust_grid([150.0], freqs, [0, 10**6], self.LAYER, 300.0,
                                       M_DEFAULT, ("physical", "paper"), "full")
        assert charged[:, 0].tobytes() == ascending.tobytes()
        assert len(kernel_tables) == 1 + 20

    def test_key_is_normalised(self, kernel_calls):
        # a 0-d array index and the index with Im(m) > 0 are the same key
        w = WaveSpec(1e12)
        k = dust_attenuation_coefficient(120.0, w, self.LAYER, self.particle(0))
        for m in (np.array(M_DEFAULT), M_DEFAULT.conjugate()):
            particle = ParticleState(20e-6, 0, np.array(300.0), m)
            assert dust_attenuation_coefficient(120.0, w, self.LAYER, particle) == k
        assert len(kernel_calls) == 1

    def test_threads_share_the_store(self, monkeypatch):
        # 4 threads, 5 keys over 4 frequencies (the uncharged one and 4
        # charged) and a store that holds two keys' arrays at most, so that each call evicts the arrays others are reading;
        # the store sleeps between finding an array and reading or moving it
        from concurrent.futures import ThreadPoolExecutor
        import dustmie.channel as channel

        class SlowStore(OrderedDict):
            def get(self, key, default=None):
                time.sleep(1e-3)
                return super().get(key, default)

            def move_to_end(self, key):
                time.sleep(1e-3)
                super().move_to_end(key)

        store = SlowStore()
        monkeypatch.setattr(channel, "_tables", store)
        jobs = [(g, f, ne) for f in (0.3e12, 0.5e12, 1e12, 2e12) for ne in (0, 1000)
                for g in (LinkGeometry(h0=110.0, theta=0.2, d=60.0, d0=10.0),
                          LinkGeometry(h0=100.0, theta=0.3, d=90.0, d0=10.0))]

        def loss(job):
            g, f, ne = job
            return slant_dust_loss(g, WaveSpec(f), self.LAYER,
                                   self.particle(ne))

        for job in jobs:
            loss(job)
        arrays = sorted(q.nbytes for _, q in store.values())
        assert len(arrays) == 5
        # the uncharged key, which every call reads, and one charged key
        budget = arrays[-1] + arrays[-2]
        assert arrays[-1] + arrays[0] + arrays[1] > budget
        monkeypatch.setattr(channel, "_STORED_BYTES", budget)
        cold = []
        for job in jobs:
            store.clear()
            cold.append(loss(job))
        store.clear()
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(loss, jobs * 3)) == cold * 3
        assert 1 <= len(store) <= 2 and channel._stored_bytes() <= budget

    def test_failed_call_keeps_nothing(self, kernel_tables):
        # the library form of the CLI's exit-3 path loss: an index whose
        # square overflows a float, and an unknown g_e mode, which the
        # uncharged key, whose key drops the mode, rejects as well
        w = WaveSpec(300e9)
        dust_attenuation_coefficient(150.0, w, self.LAYER, self.particle(10))
        dust_attenuation_coefficient(150.0, w, self.LAYER, self.particle(0))

        def store():
            return [(key, first, q.copy()) for key, (first, q) in kernel_tables.items()]
        before = store()
        g = LinkGeometry(h0=100.0, theta=math.pi / 2, d=100.0, d0=10.0,
                         n_i=2.0, sigma_i=3.0)
        with pytest.raises(RecurrenceOverflowError):
            path_loss(g, w, self.LAYER, ParticleState(20e-6, 10, 300.0, 1e155),
                      shadow_seed=1)
        for ne in (10, 0):
            with pytest.raises(DomainError, match="unknown g_e mode"):
                dust_attenuation_coefficient(120.0, w, self.LAYER, self.particle(ne),
                                             ge_mode="bogus")
        after = store()
        assert [entry[:2] for entry in after] == [entry[:2] for entry in before]
        for (*_, array), (*_, array_before) in zip(after, before):
            assert np.array_equal(array, array_before)

    def test_disjoint_spans_keep_one_run(self, kernel_tables, kernel_calls):
        # at 0 m the 0.1 THz and 30 THz slices lie 88 nodes apart: the
        # uncharged key's run grows over the gap too, so that it stays one
        # run of computed nodes, and the second call computes the gap and
        # its own span in one kernel call
        low, high = (frequency_slice([0.0], f).nodes for f in (0.1e12, 30e12))
        assert (high.start - low.stop, high.stop - high.start) == (88, 697)
        waves = [WaveSpec(f) for f in (0.1e12, 30e12)]
        particle = self.particle(0)
        cold = []
        for w in waves:
            kernel_tables.clear()
            cold.append(dust_attenuation_coefficient(0.0, w, self.LAYER, particle))
        kernel_tables.clear()
        kernel_calls.clear()
        warm = [dust_attenuation_coefficient(0.0, w, self.LAYER, particle) for w in waves]
        (first, q), = kernel_tables.values()
        assert (first, first + q.size) == (low.start, high.stop)
        assert not np.isnan(q["q"]).any()
        assert [x.size for x in kernel_calls] == [low.stop - low.start, 88 + 697]
        assert np.array(warm).tobytes() == np.array(cold).tobytes()

    def test_repeated_key_is_computed_once(self, monkeypatch, kernel_tables):
        # a frequency repeated in one call, or a count repeated at one
        # frequency, is one key: its nodes go into the block's kernel calls
        # once, and every repeat reads the same values
        import dustmie.channel as channel
        sizes = []
        kernel = channel._qext

        def counted(x, *args, **kwargs):
            sizes.append(x.size)
            return kernel(x, *args, **kwargs)

        monkeypatch.setattr(channel, "_qext", counted)

        def k_dust(freqs, counts):
            kernel_tables.clear()
            sizes.clear()
            return channel._k_dust_grid([150.0], freqs, counts, self.LAYER, 300.0,
                                        M_DEFAULT, ("physical",), "full")[0, :, :, 0]
        nodes = support_nodes([150.0], 1e12)           # 1,077
        single = {ne: k_dust([1e12], [ne]).item() for ne in (0, 1000)}
        assert k_dust([1e12] * 3, [0]).tolist() == [[single[0]] * 3]
        assert sizes == [nodes]
        assert k_dust([1e12], [0, 0, 1000]).tolist() == [[single[0]], [single[0]],
                                                        [single[1000]]]
        span = frequency_slice([150.0], 1e12).nodes
        assert sizes == [nodes, rejected_nodes(1e12, 1000, span)]
        # 40 columns of one key take two blocks of at most _TABLE_SIZES span
        # nodes; the column that ends the first block reads what that block
        # stored
        assert 40 * nodes > channel._TABLE_SIZES
        assert k_dust([1e12] * 40, [0]).tolist() == [[single[0]] * 40]
        assert sizes == [nodes]

    def test_many_columns_stay_within_the_bound(self, kernel_tables, kernel_calls):
        # 60 charged frequency columns of 798-946-node supports, in blocks
        # of 38 and 22. The first block's charged keys alone hold 251 KB,
        # but a block marks the uncharged records, which every column reads,
        # used after its charged keys: the store drops the older charged
        # keys, and the second block's uncharged call computes only the 67
        # nodes its spans add to the first block's 912. Beside those records
        # (979 nodes, 38 KB), the last 30 charged keys are kept, as many as
        # 256 KB holds
        import dustmie.channel as channel
        freqs = np.geomspace(1e11, 3e11, 60)
        channel._k_dust_grid([150.0], freqs, [1000], self.LAYER, 300.0, M_DEFAULT,
                             ("physical",), "full")
        spans = [frequency_slice([150.0], f).nodes for f in freqs]
        first, second = (spans[37].stop - spans[0].start,
                         spans[-1].stop - spans[37].stop)
        assert (first, second) == (912, 67)
        assert sum(8 * (span.stop - span.start) for span in spans[:38]) > 250 * 2**10
        assert [x.size for x in kernel_calls] == [
            first, sum(rejected_nodes(f, 1000, span) for f, span in zip(freqs[:38], spans)),
            second, sum(rejected_nodes(f, 1000, span) for f, span in zip(freqs[38:],
                                                                         spans[38:]))]
        kept = channel._stored_bytes()
        assert kept <= 2**18
        charged = [key for key in kernel_tables if len(key) > 1]
        assert len(charged) == 30 and list(kernel_tables)[-1] == (M_KEY,)
        assert kernel_tables[M_KEY,][1].nbytes == 40 * (first + second)
        assert [key[1] for key in charged] == freqs[-30:].tolist()
        # a key holds its frequency's slice
        for f, key in zip(freqs[-30:].tolist(), charged):
            begin, q = kernel_tables[key]
            nodes = frequency_slice([150.0], f).nodes
            assert (begin, begin + q.size) == (nodes.start, nodes.stop)
        older = support_nodes([150.0], freqs[-30 - 1])
        assert kept + 8 * older > 2**18
        # uncharged, the 60 columns are one key over the union of their
        # slices
        kernel_tables.clear()
        channel._k_dust_grid([150.0], freqs, [0], self.LAYER, 300.0, M_DEFAULT,
                             ("physical",), "full")
        (key, (begin, q)), = kernel_tables.items()
        assert key == (M_KEY,) and not np.isnan(q["q"]).any()
        assert (begin, begin + q.size) == (frequency_slice([150.0], freqs[0]).nodes.start,
                                           frequency_slice([150.0], freqs[-1]).nodes.stop)

    def test_group_over_the_budget_is_not_kept(self, monkeypatch, kernel_tables):
        # two keys against room for one: the least recently used goes, the
        # charged key, as a block marks the uncharged records its charged
        # keys read used after them; a key larger than the budget goes with
        # the rest of the store
        import dustmie.channel as channel

        def k_dust(counts):
            return channel._k_dust_grid([150.0], [1e12], counts, self.LAYER, 300.0,
                                        M_DEFAULT, ("physical",), "full")
        k_dust([0])
        (_, q), = kernel_tables.values()
        monkeypatch.setattr(channel, "_STORED_BYTES", q.nbytes)
        k_dust([0, 1000])
        assert list(kernel_tables) == [(M_KEY,)]
        monkeypatch.setattr(channel, "_STORED_BYTES", q.nbytes - 8)
        k_dust([0, 10**6])
        assert not kernel_tables

    def test_partly_kept_columns_make_one_call(self, kernel_tables, kernel_calls):
        # five frequencies at 150 m after one of them ran at 100 m, whose
        # kept runs lie inside the 150 m support: the uncharged records the
        # block lacks are one kernel call, and the charged nodes that the
        # linear rule rejects, of the other four and of the fifth's ends,
        # are one more
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
        assert len(kernel_calls) == 2


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
        w = WaveSpec(300e9)
        res = path_loss(g, w, DustLayerModel(n0=0.0), PARTICLE)
        assert res.distance_term_db == 0.0
        assert res.shadow_db == 0.0
        assert res.dust_loss_db == 0.0
        assert res.total_db == pytest.approx(res.fspl_db)

    def test_fspl_reference_value(self):
        w = WaveSpec(300e9)
        res = path_loss(self.GEOM, w, DustLayerModel(n0=0.0), PARTICLE)
        assert res.fspl_db == pytest.approx(101.98, abs=0.05)

    def test_total_is_sum_of_components(self):
        w = WaveSpec(300e9)
        res = path_loss(self.GEOM, w, DustLayerModel(n0=1e3), PARTICLE,
                        shadow_seed=5)
        assert res.total_db == pytest.approx(
            res.fspl_db + res.distance_term_db + res.shadow_db + res.dust_loss_db)
        assert res.dust_loss_db >= 0

    def test_seeded_shadow_is_deterministic(self):
        w = WaveSpec(300e9)
        a = path_loss(self.GEOM, w, DustLayerModel(n0=0.0), PARTICLE, shadow_seed=11)
        b = path_loss(self.GEOM, w, DustLayerModel(n0=0.0), PARTICLE, shadow_seed=11)
        assert a == b
        c = path_loss(self.GEOM, w, DustLayerModel(n0=0.0), PARTICLE, shadow_seed=12)
        assert c.shadow_db != a.shadow_db

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            path_loss(self.GEOM, WaveSpec(300e9),
                      DustLayerModel(n0=0.0), PARTICLE, shadow_seed=-1)

    def test_monotone_in_distance(self):
        w = WaveSpec(300e9)
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
