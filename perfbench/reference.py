"""Write the op pools and their reference outputs to ``data/``.

    python3 perfbench/reference.py                       # all workloads
    python3 perfbench/reference.py --workload kdust-fscan
    python3 perfbench/reference.py --outcomes-only       # keep the references

Run from the repository root; needs mpmath. The pools are drawn from a fixed
seed, so the command rewrites the same files. References come from a
tighter or independent path than the one the benchmark times:

- qext-table: an mpmath evaluation of the charged Mie series at 30 digits,
  built on the log-derivative D_n(mx) (downward recurrence), Miller's
  downward recurrence for psi_n(x) and upward recurrence for chi_n(x). It is
  cross-checked against the test suite's Bessel-function oracle when that is
  importable.
- kdust-fscan, slant-link: the package's adaptive integrals at
  rel_tol = 1e-8 instead of the default 1e-6; the closed-form path-loss
  terms are recomputed here.

Each op is then run on the default path, as the benchmark runs it. Where it
fails, the op stores the outcome as ``expect`` (see workloads.expected), and
a kdust-fscan op that misses the gate is filed under "known-miss".
``--outcomes-only`` redoes this step on the stored pools, keeping their
references.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

import mpmath as mp
import numpy as np

import workloads as wl

POOL_SEED = 20241118
TIGHT_RTOL = 1e-8

# Pool sizes: enough distinct ops that a timed run does not repeat any.
QEXT_BLOCKS = 96
KDUST_PER_STRATUM = 6
SLANT_PER_STRATUM = 6


# -- mpmath oracle for the charged Mie series --------------------------------

def _g_e(c, x, f, ne, r):
    """Charge coefficient g_e (full mode) from the model's constants."""
    if ne == 0:
        return mp.mpc(0)
    omega = 2 * mp.pi * f
    phi = mp.mpf(c.k_e) * ne * c.e / r
    omega_s2 = 2 * mp.mpf(c.e) * phi / (mp.mpf(c.m_e) * r**2)
    gamma = 2 * mp.pi * mp.mpf(c.k_B) * 300 / mp.mpf(c.h_P)
    return (mp.mpf(x) / 2) * omega_s2 / (omega**2 + gamma**2) * mp.mpc(-1, gamma / omega)


def qext_oracle(x: float, m: complex, g=0j) -> float:
    """Q_ext(x, m, g_e), the series summed to n_max + 15 orders."""
    with mp.workdps(30):
        x = mp.mpf(x)
        m = mp.mpc(m.real, abs(m.imag))
        mx = m * x
        xf = float(x)
        nmax = math.floor(xf + 4 * xf ** (1 / 3) + 2) + 15

        # D_n(mx) = psi_n'(mx) / psi_n(mx), downward from far above |mx|
        D = [mp.mpc(0)] * (nmax + 1)
        d = mp.mpc(0)
        for n in range(max(nmax, int(abs(mx))) + 16 + int(4 * abs(mx) ** 0.5), 0, -1):
            if n <= nmax:
                D[n] = d
            d = n / mx - 1 / (d + n / mx)

        # psi_n(x) by Miller's downward recurrence, normalised to psi_0 or psi_1
        top = max(nmax, int(xf)) + 16 + int(4 * xf ** 0.5)
        psi = [mp.mpf(0)] * (top + 2)
        psi[top] = mp.mpf(1)
        for n in range(top, 0, -1):
            psi[n - 1] = (2 * n + 1) / x * psi[n] - psi[n + 1]
        if abs(mp.sin(x)) > 0.1:
            scale = mp.sin(x) / psi[0]
        else:
            scale = (mp.sin(x) / x - mp.cos(x)) / psi[1]
        psi = [v * scale for v in psi[: nmax + 1]]

        # chi_n(x) = -x y_n(x), upward (the dominant solution)
        chi = [mp.cos(x), mp.cos(x) / x + mp.sin(x)]
        for n in range(1, nmax):
            chi.append((2 * n + 1) / x * chi[n] - chi[n - 1])

        acc = mp.mpf(0)
        for n in range(1, nmax + 1):
            xi, xi1 = psi[n] - 1j * chi[n], psi[n - 1] - 1j * chi[n - 1]
            dpsi = psi[n - 1] - n / x * psi[n]
            dxi = xi1 - n / x * xi
            # the charged coefficients of mie._coefficient_arrays, divided
            # through by psi_n(mx)
            a = ((D[n] * psi[n] - m * dpsi - g * dpsi * D[n])
                 / (D[n] * xi - m * dxi - g * dxi * D[n]))
            b = ((dpsi - m * psi[n] * D[n] + g * psi[n])
                 / (dxi - m * xi * D[n] + g * xi))
            acc += (2 * n + 1) * mp.re(a + b)
        return float(2 / x**2 * acc)


def _cross_check_oracle() -> None:
    """Compare the oracle with the test suite's Bessel-function oracle."""
    sys.path.insert(0, str(wl.ROOT / "tests"))
    try:
        from oracles import neutral_mie_qext
    except ImportError:
        print("tests/oracles.py not importable; cross-check skipped", file=sys.stderr)
        return
    for x in (0.02, 0.5, 10.0, 50.0):
        for m in (1.33 + 0j, 2.0 - 0.025j, 1.5 + 3j):
            ours, theirs = qext_oracle(x, m), neutral_mie_qext(x, m)
            if abs(ours - theirs) > 1e-12 * abs(theirs):
                raise SystemExit(f"oracle disagrees at x={x}, m={m}: {ours} vs {theirs}")


# -- pools -------------------------------------------------------------------

def _loguniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def ref_qext(dm, op, cache):
    """Reference rows of one `dustmie qext` table, mirroring cmd_qext's grid."""
    argv = op["argv"]
    opt = dict(zip(argv[1::2], argv[2::2]))
    grid = np.geomspace(float(opt["--start"]), float(opt["--stop"]), int(opt["--count"]))
    m = complex(opt["--m"])
    c = dm.CONSTANTS
    rows = []
    for point in grid:
        point = float(point)
        if opt["--sweep"] == "x":
            lam = c.c / 300e9
            x, f = point, 300e9
            cols = [(ne, x * lam / (2 * math.pi)) for ne in
                    (int(v) for v in opt["--group-ne"].split(","))]
        else:
            lam, f = c.c / point, point
            cols = [(10, float(r)) for r in opt["--group-r"].split(",")]
        row = [point]
        for ne, r in cols:
            if opt["--sweep"] == "f":
                x = 2 * math.pi * r / lam
            key = (x, m, ne, r, f)
            if key not in cache:
                with mp.workdps(30):
                    g = _g_e(c, x, mp.mpf(f), ne, mp.mpf(r))
                cache[key] = qext_oracle(x, m, g)
            row.append(cache[key])
        rows.append(row)
    return rows


def _particle(dm, op):
    return dm.ParticleState(wl.TEMPLATE_RADIUS, op["ne"], wl.TEMPERATURE,
                            complex(wl.M_DEFAULT))


def ref_kdust(dm, op, cache):
    return dm.dust_attenuation_coefficient(
        op["h"], dm.WaveSpec.from_frequency(op["f"]), dm.DustLayerModel(n0=wl.N0),
        _particle(dm, op), rel_tol=TIGHT_RTOL)


def ref_slant(dm, op, cache):
    g = dm.LinkGeometry(h0=op["h0"], theta=math.radians(op["theta_deg"]),
                        d=op["d"], **wl.LINK)
    dust = dm.slant_dust_loss(
        g, dm.WaveSpec.from_frequency(op["f"]), dm.DustLayerModel(n0=wl.N0),
        _particle(dm, op), rel_tol=TIGHT_RTOL)
    return {
        "fspl_db": 20 * math.log10(4 * math.pi * op["f"] * wl.LINK["d0"] / dm.CONSTANTS.c),
        "distance_term_db": 10 * wl.LINK["n_i"] * math.log10(op["d"] / wl.LINK["d0"]),
        "shadow_db": float(np.random.default_rng(op["shadow_seed"])
                           .normal(0.0, wl.LINK["sigma_i"])),
        "dust_loss_db": dust,
    }


def ops_qext() -> list[dict]:
    rng = np.random.default_rng(POOL_SEED)
    specs = []
    for b in range(QEXT_BLOCKS):
        for k in range(3):
            specs.append(("x:default", "x", wl.M_DEFAULT))
        specs.append(("x:absorbing", "x", wl.M_ABSORBING[b % 3]))
        for m in (wl.M_DEFAULT,) + wl.M_ABSORBING:
            specs.append((f"f:{m}", "f", m))
    ops = []
    for stratum, sweep, m in specs:
        if sweep == "x":
            # log grid out to x~800; every absorbing index overflows there
            argv = ["qext", "--sweep", "x",
                    "--start", "%.4g" % _loguniform(rng, 0.02, 0.1),
                    "--stop", "%.4g" % _loguniform(rng, 720.0, 800.0),
                    "--count", str(int(rng.integers(7, 11))),
                    "--spacing", "log", "--group-ne", "0,10,100", "--m", m]
        else:
            # x stays below ~190, where no index here overflows
            radii = (_loguniform(rng, 1e-5, 5e-5), _loguniform(rng, 1e-4, 5e-4),
                     _loguniform(rng, 1e-3, 3e-3))
            argv = ["qext", "--sweep", "f",
                    "--start", "%.4g" % _loguniform(rng, 0.1e12, 0.2e12),
                    "--stop", "%.4g" % _loguniform(rng, 2.5e12, 3e12),
                    "--count", str(int(rng.integers(16, 25))),
                    "--spacing", "log", "--group-r", ",".join("%.4g" % r for r in radii),
                    "--m", m]
        ops.append({"stratum": stratum, "argv": argv})
    return ops


def kdust_stratum(op) -> str:
    """The frequency band (a twelfth of 0.1-3 THz, log) and charge the blocks
    draw the op from."""
    band_edges = np.geomspace(0.1e12, 3e12, wl.KDUST_BANDS + 1)
    band = min(int(np.searchsorted(band_edges, op["f"], side="right")) - 1,
               wl.KDUST_BANDS - 1)
    return f"band{band}:ne{op['ne']}"


def ops_kdust() -> list[dict]:
    """Frequencies drawn evenly over sextiles of 0.1-3 THz, then filed under
    the bands that the blocks use (see workloads._recipe)."""
    rng = np.random.default_rng(POOL_SEED + 1)
    draw_edges = np.geomspace(0.1e12, 3e12, 7)
    ops = []
    for sextile in range(6):
        for ne in wl.NE_KDUST:
            for _ in range(KDUST_PER_STRATUM):
                f = float("%.6g" % _loguniform(rng, draw_edges[sextile],
                                               draw_edges[sextile + 1]))
                op = {"f": f, "h": round(float(rng.uniform(100.0, 200.0)), 3),
                      "ne": ne}
                ops.append({"stratum": kdust_stratum(op), **op})
    return ops


class _CallBudget(Exception):
    pass


def slant_class(dm, op) -> str:
    """How the default-tolerance path integral behaves on this path at the
    seed commit: "regular" (5 k_dust calls), "deep" (converges with more) or
    "nonconverging" (QuadratureError, or past 40 calls; such paths run for
    minutes)."""
    ch, kdust, calls = dm.channel, dm.channel.dust_attenuation_coefficient, [0]

    def counted(*a, **k):
        calls[0] += 1
        if calls[0] > 40:
            raise _CallBudget
        return kdust(*a, **k)
    g = dm.LinkGeometry(h0=op["h0"], theta=math.radians(op["theta_deg"]),
                        d=op["d"], **wl.LINK)
    ch.dust_attenuation_coefficient = counted
    try:
        ch.slant_dust_loss(g, dm.WaveSpec.from_frequency(op["f"]),
                           dm.DustLayerModel(n0=wl.N0), _particle(dm, op))
    except (_CallBudget, dm.QuadratureError):
        return "nonconverging"
    finally:
        ch.dust_attenuation_coefficient = kdust
    return "regular" if calls[0] == 5 else "deep"


def ops_slant() -> list[dict]:
    rng = np.random.default_rng(POOL_SEED + 2)
    ops = []
    for f in ("0.3e12", "1e12"):
        for ne in (0, 1000):
            for _ in range(SLANT_PER_STRATUM):
                # short, shallow paths: 5 k_dust calls each, 3-7 s per op
                ops.append({"stratum": f"{f}:ne{ne}", "f": float(f), "ne": ne,
                            "h0": round(float(rng.uniform(100.0, 150.0)), 3),
                            "theta_deg": round(float(rng.uniform(10.0, 15.0)), 3),
                            "d": round(float(rng.uniform(50.0, 100.0)), 3),
                            "shadow_seed": int(rng.integers(0, 2**31))})
    return ops


# Per workload: the pool's ops, the fixed op behind setup_s and the warm-up
# (not drawn by any seed), and how a reference is computed.
POOLS = {
    "qext-table": (ops_qext, {"argv": [
        "qext", "--sweep", "x", "--start", "0.05", "--stop", "750", "--count", "8",
        "--spacing", "log", "--group-ne", "0,10,100", "--m", wl.M_DEFAULT]}, ref_qext),
    "kdust-fscan": (ops_kdust, {"f": 0.25e12, "h": 150.0, "ne": 0}, ref_kdust),
    "slant-link": (ops_slant, {"f": 0.3e12, "ne": 0, "h0": 100.0, "theta_deg": 10.0,
                               "d": 50.0, "shadow_seed": 1}, ref_slant),
}


def expected_outcome(dm, name, op) -> dict | None:
    """How the default path fares on one op: None when it passes the gate,
    else the failure kinds it may show and, for a miss, its output."""
    if name == "slant-link" and op.get("stratum") == "nonconverging":
        # runs for minutes before the QuadratureError; the benchmark stops it
        return {"fails": ["timeout", "DustmieError:QuadratureError"]}
    try:
        out = wl.prepare(name, op, dm)()
    except Exception as exc:
        return {"fails": [wl.failure_kind(exc, dm)]}
    if wl.check(name, op, out)[0]:
        return None
    return {"fails": ["mismatch"], "output": wl.as_ref(name, out)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, action="append")
    ap.add_argument("--outcomes-only", action="store_true",
                    help="only redo the expected outcomes of the stored pools")
    args = ap.parse_args()
    dm = wl.load_program()
    wl.DATA.mkdir(exist_ok=True)
    if not args.outcomes_only:
        _cross_check_oracle()
    for name in args.workload or wl.WORKLOADS:
        t0 = time.perf_counter()
        make_ops, setup, ref = POOLS[name]
        if args.outcomes_only:
            pool = wl.load_pool(name)
            setup, ops = pool["setup"], pool["ops"]
        else:
            ops, cache = make_ops(), {}
            for i, op in enumerate([setup] + ops):
                op["ref"] = ref(dm, op, cache)
                print(f"{name}: {i}/{len(ops)} ops", file=sys.stderr, flush=True)
            if name == "slant-link":
                for op in ops:
                    kind = slant_class(dm, op)
                    if kind != "regular":
                        op["stratum"] = kind
        for i, op in enumerate([setup] + ops):
            op.pop("expect", None)
            exp = expected_outcome(dm, name, op)
            if exp:
                op["expect"] = exp
            if name == "kdust-fscan" and op is not setup:
                op["stratum"] = "known-miss" if exp else kdust_stratum(op)
            print(f"{name}: outcome {i}/{len(ops)}: {exp}", file=sys.stderr, flush=True)
        head = json.dumps({
            "workload": name,
            "regenerate": f"python3 perfbench/reference.py --workload {name}",
            "pool_seed": POOL_SEED,
            "setup": setup,
        })
        with open(wl.DATA / f"{name}.json", "w") as fh:   # one op per line
            fh.write(head[:-1] + ', "ops": [\n'
                     + ",\n".join(json.dumps(op) for op in ops) + "\n]}\n")
        print(f"{name}: {len(ops)} ops in {time.perf_counter() - t0:.0f} s",
              file=sys.stderr)


if __name__ == "__main__":
    main()
