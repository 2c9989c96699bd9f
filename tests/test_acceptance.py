"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -v to see them)."""
import math

import numpy as np
import pytest

from dustmie.channel import (
    AltitudeProfile,
    LinkGeometry,
    dust_attenuation_coefficient,
    path_loss,
    slant_dust_loss,
)
from dustmie.constants import CONSTANTS
from dustmie.dustfield import DustLayerModel, lognormal_params, size_pdf, size_support
from dustmie.mie import (
    ParticleState,
    WaveSpec,
    charged_coefficient,
    collision_frequency,
    extinction_efficiency_array,
    extinction_efficiency_x,
    scale_parameter,
    surface_plasma_frequency,
)

from oracles import adaptive_simpson, neutral_mie_qext
from test_channel import trapezoid_k_dust

M_DEFAULT = 2.0 - 0.025j


def report(criterion, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}: {criterion} {detail}")
    assert ok, f"{criterion}: {detail}"


def test_c01_collision_frequency():
    got = collision_frequency(300.0)
    ok = abs(got - 2.467e14) / 2.467e14 < 0.01
    report("criterion 1 (collision frequency at 300 K)", ok, f"got {got:.4e}")


def test_c02_altitude_fits():
    quotes = {100.0: (-2.417, 0.520), 150.0: (-2.617, 0.660), 200.0: (-2.834, 0.838)}
    worst = 0.0
    for h, (mu_ref, sigma_ref) in quotes.items():
        mu, sigma = lognormal_params(h)
        worst = max(worst, abs(mu - mu_ref), abs(sigma - sigma_ref))
    report("criterion 2 (altitude log-normal fits)", worst < 0.01,
           f"worst deviation {worst:.4f}")


def test_c03_neutral_limit_oracle():
    worst = 0.0
    for x in (0.02, 0.1, 0.5, 1.0, 2.0, 10.0, 50.0):
        for m in (1.33 + 0j, 1.5 - 0.1j, 2.0 - 0.025j):
            ours = extinction_efficiency_x(x, m)
            ref = neutral_mie_qext(x, m)
            worst = max(worst, abs(ours - ref) / abs(ref))
    report("criterion 3 (neutral Mie vs arbitrary-precision oracle)",
           worst < 1e-8, f"worst rel err {worst:.2e}")


def test_c05_charge_trends():
    x = 0.02
    lam = 1e-3
    w = WaveSpec.from_frequency(CONSTANTS.c / lam)
    r = x * lam / (2 * math.pi)
    gamma = collision_frequency(300.0)
    q = []
    for ne in (0, 10, 100, 1000):
        ge = charged_coefficient(x, 2 * math.pi * w.frequency,
                                 surface_plasma_frequency(ne, r), gamma)
        q.append(extinction_efficiency_x(x, M_DEFAULT, ge))
    increasing = all(b > a for a, b in zip(q, q[1:]))

    # the Ne=1e6 margin is small: it needs a size integral accurate well
    # below 1e-6
    w3 = WaveSpec.from_frequency(0.3e12)
    layer = DustLayerModel(n0=100.0)
    k0 = dust_attenuation_coefficient(
        200.0, w3, layer, ParticleState(20e-6, 0, 300.0, M_DEFAULT))
    k6 = dust_attenuation_coefficient(
        200.0, w3, layer, ParticleState(20e-6, 10**6, 300.0, M_DEFAULT))
    ok = increasing and k6 > k0
    report("criterion 5 (charge trends)", ok,
           f"Qext grid {q}, k_dust {k6:.6e} vs {k0:.6e}")


def test_c06_frequency_and_altitude_trends():
    layer = DustLayerModel(n0=1e3)
    particle = ParticleState(20e-6, 0, 300.0, M_DEFAULT)
    g = LinkGeometry(h0=100.0, theta=0.2, d=200.0, d0=10.0)
    loss_03 = slant_dust_loss(g, WaveSpec.from_frequency(0.3e12), layer, particle)
    loss_1 = slant_dust_loss(g, WaveSpec.from_frequency(1e12), layer, particle)
    # altitude trend evaluated at 1 THz, the frequency at which the source
    # states it; at 0.3 THz the heavier large-particle tail of the 200 m
    # spectrum reverses the ordering
    w = WaveSpec.from_frequency(1e12)
    k100 = dust_attenuation_coefficient(100.0, w, layer, particle)
    k200 = dust_attenuation_coefficient(200.0, w, layer, particle)
    ok = loss_1 >= loss_03 and k100 >= k200
    report("criterion 6 (frequency/altitude trends)", ok,
           f"loss(1T)={loss_1:.4f} vs loss(0.3T)={loss_03:.4f}, "
           f"k(100)={k100:.4f} vs k(200)={k200:.4f}")


def test_c07_quadrature_oracles():
    rels = []
    # two size-integral configurations against the 1e5-point trapezoid oracle
    configs = [
        (100.0, 0.1e12, 0, 1e4),
        (200.0, 0.15e12, 1000, 2e3),
    ]
    for h, f, ne, n0 in configs:
        w = WaveSpec.from_frequency(f)
        layer = DustLayerModel(n0=n0)
        particle = ParticleState(20e-6, ne, 300.0, M_DEFAULT)
        k = dust_attenuation_coefficient(h, w, layer, particle)
        ref = trapezoid_k_dust(h, w, layer, particle)
        rels.append(abs(k - ref) / abs(ref))
    # slant-path configuration against a 1e5-slab Riemann oracle
    profile = AltitudeProfile([0, 50, 120, 400, 2000], [3.0, 2.8, 1.9, 0.7, 0.05])
    g = LinkGeometry(h0=10.0, theta=math.pi / 2, d=1500.0, d0=10.0)
    w = WaveSpec.from_frequency(0.3e12)
    loss = slant_dust_loss(g, w, DustLayerModel(n0=0.0),
                           ParticleState(20e-6, 0, 300.0, M_DEFAULT), k_abs=profile)
    n = 100000
    edges = np.linspace(0.0, g.d, n + 1)
    mids = (edges[:-1] + edges[1:]) / 2
    ref = float(np.sum(np.interp(10.0 + mids, [0, 50, 120, 400, 2000],
                                 [3.0, 2.8, 1.9, 0.7, 0.05])) / 1000.0 * (g.d / n))
    rels.append(abs(loss - ref) / abs(ref))
    worst = max(rels)
    report("criterion 7 (quadrature vs brute-force oracles)", worst < 1e-4,
           f"worst rel err {worst:.2e}")


def test_c08_pdf_normalization():
    worst = 0.0
    for h in (0.0, 100.0, 150.0, 200.0):
        lo, hi = size_support(h)
        mass = adaptive_simpson(lambda r: size_pdf(r, h), lo, hi, rel_tol=1e-9)
        worst = max(worst, abs(mass - 1.0))
    report("criterion 8 (size PDF normalization)", worst < 1e-6,
           f"worst |mass-1| {worst:.2e}")


def test_c09_determinism_and_mode_agreement(tmp_path):
    from dustmie.cli import run
    argv = ["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "0",
            "--h0", "100", "--seed", "77"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--out", str(p1)]) == 0
    assert run(argv + ["--out", str(p2)]) == 0
    identical = p1.read_bytes() == p2.read_bytes()

    worst = 0.0
    for f in (0.3e12, 1e12, 3e12, 10e12):
        w = WaveSpec.from_frequency(f)
        p = ParticleState(5e-6, 10**4, 300.0, M_DEFAULT)
        qf, qa = (extinction_efficiency_array(
            p.radius, w.frequency, p.electrons, p.temperature, p.refractive_index,
            mode=mode) for mode in ("full", "approx"))
        worst = max(worst, abs(qf - qa) / abs(qf))
    ok = identical and worst < 0.01
    report("criterion 9 (seed determinism + full/approx agreement)", ok,
           f"byte-identical={identical}, worst mode diff {worst:.2e}")


def test_c10_limits():
    exact_zero = extinction_efficiency_x(1.0, 1.0 + 0j, 0j) == 0.0
    q50 = extinction_efficiency_x(50.0, 1.5 + 0j)
    ref = neutral_mie_qext(50.0, 1.5 + 0j)
    paradox = abs(q50 - 2.0) / 2.0 < 0.10 and abs(q50 - ref) / ref < 1e-8
    report("criterion 10 (index-matched zero + extinction paradox)",
           exact_zero and paradox, f"Qext(x=50)={q50:.4f}")
