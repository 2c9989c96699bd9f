"""The three workloads: op pools with stored references, seeded op lists,
and how one op is run and checked.

Each workload keeps a fixed pool of ops in ``data/<workload>.json``, written
by ``reference.py`` together with a reference output for every op. A run's
seed only chooses and orders ops from the pool, so every op a run makes has
a stored reference.

An op on which the default path failed when the pool was written carries
that outcome as ``expect``: the failure kinds it may show, and for a miss
the output it gave. Such an op may fail only that way (or pass the gate);
any other failure of any op makes the run incorrect.

Ops come in blocks. A block draws a fixed number of ops from each stratum
of the pool (frequency band, refractive index, charge, ...), and a run makes
whole blocks, so every run sees the same mix of expensive and cheap ops
whatever its seed. This is what keeps ops_per_s and op_p50_s comparable
between seeds.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"

WORKLOADS = ("qext-table", "kdust-fscan", "slant-link")

# Physical set-up shared by the integral workloads.
N0 = 1e3                       # particles per m^3
TEMPERATURE = 300.0            # K
TEMPLATE_RADIUS = 20e-6        # m; ignored by the size integral
M_DEFAULT = "2-0.025j"         # the CLI's default refractive index
# Strongly absorbing indices; an x-sweep to x~800 with one of them hits the
# known raw OverflowError in specfun (Im(m) x > ~710).
M_ABSORBING = ("1.5+1j", "1.5+2j", "1.5+3j")
NE_KDUST = (0, 1000, 1000000)
KDUST_BANDS = 12               # log-frequency bands of 0.1-3 THz
LINK = {"d0": 10.0, "n_i": 2.0, "sigma_i": 3.0}

# Gate tolerances, no looser than the tier-1 tests for the same quantity.
QEXT_RTOL = 1e-8
INTEGRAL_RTOL = 1e-4
GRID_RTOL = 1e-11              # sweep-grid column of the CSV tables


class ProgramMissing(RuntimeError):
    """The checkout holds no importable dustmie source tree."""


def load_program():
    """Import dustmie from the checkout's ``src`` and never from elsewhere."""
    if not (SRC / "dustmie" / "__init__.py").is_file():
        raise ProgramMissing(f"no dustmie package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dustmie
    import dustmie.channel
    import dustmie.cli
    if Path(dustmie.__file__).resolve().parent != (SRC / "dustmie").resolve():
        raise ProgramMissing(f"dustmie imported from {dustmie.__file__}, not {SRC}")
    return dustmie


def load_pool(workload: str) -> dict:
    with open(DATA / f"{workload}.json") as fh:
        return json.load(fh)


# -- seeded op lists -------------------------------------------------------

def _recipe(workload: str, block: int) -> list[list[str]]:
    """Strata of one block, as lanes; ops of different lanes alternate."""
    if workload == "qext-table":
        return [["x:default"] * 3 + ["x:absorbing"],
                [f"f:{m}" for m in (M_DEFAULT,) + M_ABSORBING]]
    if workload == "kdust-fscan":
        # one op per frequency band, the charge rotating over bands and
        # blocks; narrow bands keep the median op's cost close between
        # seeds. The first block adds the op the default integral gets
        # wrong (a known defect), so every run makes it once.
        lane = [f"band{i}:ne{NE_KDUST[(i + block) % 3]}" for i in range(KDUST_BANDS)]
        return [lane + (["known-miss"] if block == 0 else [])]
    if workload == "slant-link":
        # 1 THz twice, so the median op is a 1 THz one rather than the
        # midpoint between the two frequencies' costs; plus one path on which
        # the default-tolerance integral does not converge (a known defect),
        # so every run fails exactly one op. The one "deep" path (13 k_dust
        # calls) is not drawn: one such op in six moves ops_per_s by 25 %.
        return [[f"{f}:ne{ne}" for f in ("0.3e12", "1e12", "1e12") for ne in (0, 1000)]
                + ["nonconverging"]]
    raise ValueError(f"unknown workload {workload!r}")


def blocks(workload: str, pool: dict, seed: int):
    """Yield blocks of ops for this seed, forever.

    Each stratum is drawn without replacement in a seeded order; a stratum
    that runs out starts its order again, so a run longer than the pool
    repeats ops. A stratum the pool does not hold is skipped.
    """
    rng = np.random.default_rng(seed)
    strata: dict[str, list] = {}
    for op in pool["ops"]:
        strata.setdefault(op["stratum"], []).append(op)
    orders = {k: [v[i] for i in rng.permutation(len(v))] for k, v in sorted(strata.items())}
    cursor = dict.fromkeys(orders, 0)
    b = 0
    while True:
        lanes = []
        for lane in _recipe(workload, b):
            ops = []
            for stratum in (name for name in lane if name in orders):
                ops.append(orders[stratum][cursor[stratum] % len(orders[stratum])])
                cursor[stratum] += 1
            lanes.append([ops[i] for i in rng.permutation(len(ops))])
        yield [op for group in zip(*lanes) for op in group]
        b += 1


# -- running one op --------------------------------------------------------

class OpFailed(Exception):
    """An op gave no output: the CLI exited non-zero."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


def prepare(workload: str, op: dict, dm):
    """Build the op's inputs; returns a no-argument callable that runs it."""
    if workload == "qext-table":
        argv = list(op["argv"])

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                try:
                    code = dm.cli.run(argv)
                except SystemExit as exc:      # argparse rejects the argv
                    code = exc.code if isinstance(exc.code, int) else 2
            if code != 0:
                raise OpFailed(f"exit:{code}")
            return out.getvalue()
        return call

    ch = dm.channel
    w = dm.WaveSpec.from_frequency(op["f"])
    layer = dm.DustLayerModel(n0=N0)
    particle = dm.ParticleState(TEMPLATE_RADIUS, op["ne"], TEMPERATURE,
                                complex(M_DEFAULT))
    if workload == "kdust-fscan":
        # looked up at call time so the traced run sees its wrapper
        return lambda: ch.dust_attenuation_coefficient(op["h"], w, layer, particle)
    if workload == "slant-link":
        g = dm.LinkGeometry(h0=op["h0"], theta=math.radians(op["theta_deg"]),
                            d=op["d"], **LINK)
        return lambda: ch.path_loss(g, w, layer, particle,
                                    shadow_seed=op["shadow_seed"])
    raise ValueError(f"unknown workload {workload!r}")


def _rel(got: float, ref: float) -> float:
    if got == ref:
        return 0.0
    return abs(got - ref) / max(abs(ref), 1e-300)


def parse_csv(text: str) -> list[list[float]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [[float(v) for v in ln.split(",")] for ln in lines[2:]]


def check(workload: str, op: dict, output) -> tuple[bool, float]:
    """Compare one op's output with its reference.

    Returns (within tolerance, largest relative deviation of the gated
    quantity).
    """
    ref = op["ref"]
    if workload == "qext-table":
        try:
            rows = parse_csv(output)
        except ValueError:
            return False, math.inf
        if len(rows) != len(ref) or any(len(r) != len(e) for r, e in zip(rows, ref)):
            return False, math.inf
        worst, ok = 0.0, True
        for row, exp in zip(rows, ref):
            ok &= _rel(row[0], exp[0]) <= GRID_RTOL
            for got, want in zip(row[1:], exp[1:]):
                dev = _rel(got, want)
                worst = max(worst, dev)
                ok &= dev <= QEXT_RTOL
        return ok, worst
    if workload == "kdust-fscan":
        dev = _rel(output, ref)
        return dev <= INTEGRAL_RTOL, dev
    dev = _rel(output.dust_loss_db, ref["dust_loss_db"])
    closed = max(_rel(output.fspl_db, ref["fspl_db"]),
                 _rel(output.distance_term_db, ref["distance_term_db"]),
                 _rel(output.shadow_db, ref["shadow_db"]),
                 _rel(output.total_db, ref["fspl_db"] + ref["distance_term_db"]
                      + ref["shadow_db"] + ref["dust_loss_db"]))
    return dev <= INTEGRAL_RTOL and closed <= INTEGRAL_RTOL, dev


def as_ref(workload: str, output):
    """An op's output in the form of its stored reference."""
    if workload == "qext-table":
        return parse_csv(output)
    if workload == "kdust-fscan":
        return output
    return {k: getattr(output, k) for k in
            ("fspl_db", "distance_term_db", "shadow_db", "dust_loss_db")}


def expected(workload: str, op: dict, kind: str, output=None) -> bool:
    """Whether failure ``kind`` is the one stored for this op: a listed
    exception or timeout, or a miss that repeats the stored output."""
    exp = op.get("expect")
    if not exp or kind not in exp["fails"]:
        return False
    if kind == "mismatch":
        return check(workload, {**op, "ref": exp["output"]}, output)[0]
    return True


def failure_kind(exc: BaseException, dm) -> str:
    """Failure class of an op that raised: typed, raw overflow, other, exit."""
    if isinstance(exc, OpFailed):
        return exc.kind
    if isinstance(exc, dm.DustmieError):
        return f"DustmieError:{type(exc).__name__}"
    if type(exc) is OverflowError:
        return "OverflowError"
    return f"other:{type(exc).__name__}"
