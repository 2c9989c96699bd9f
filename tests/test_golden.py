"""Golden CLI output for a fixed command set.

Each command's CSV is compared with the file of the same name under
tests/golden/: metadata and header lines exactly, numeric cells to 1e-12
relative (numpy >= 1.24 is allowed, so the last bits of a value may move
between installs).

Regenerate the expected files, after checking that a change in them is
intended, with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import math
import sys
from pathlib import Path

import pytest

from dustmie.cli import _shared_parser, run

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12

PATHLOSS = ["--seed", "7", "--h0", "120", "--theta-deg", "12", "--d", "100",
            "--n-i", "2", "--sigma-i", "3", "--n0", "1e3"]

COMMANDS = {
    "qext_x_group_ne": ["qext", "--sweep", "x", "--start", "0.05", "--stop", "50",
                        "--count", "25", "--spacing", "log",
                        "--group-ne", "0,1000,1000000"],
    "qext_f_group_r": ["qext", "--sweep", "f", "--start", "1e11", "--stop", "3e12",
                       "--count", "12", "--spacing", "log",
                       "--group-r", "1e-6,20e-6,100e-6"],
    "qext_absorbing": ["qext", "--sweep", "x", "--start", "0.05", "--stop", "800",
                       "--count", "6", "--m", "1.5+3j"],
    "spectrum": ["spectrum", "--n0", "1e3", "--count", "20"],
    "attenuation_h": ["attenuation", "--sweep", "h", "--count", "8", "--n0", "1e3",
                      "--units", "both"],
    "attenuation_f": ["attenuation", "--sweep", "f", "--start", "1e11",
                      "--stop", "1e12", "--count", "4", "--h0", "150",
                      "--normalized"],
    "pathloss_single": ["pathloss"] + PATHLOSS,
    "pathloss_trials": ["pathloss", "--trials", "200"] + PATHLOSS,
}


def cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(list(argv))
    assert code == 0, f"exit {code} for {argv}"
    return out.getvalue()


def split(text):
    """(metadata and header lines, numeric rows) of a CSV table."""
    lines = text.splitlines()
    head = [ln for ln in lines if ln.startswith("# ")]
    body = lines[len(head):]
    return head + body[:2], [[float(v) for v in ln.split(",")] for ln in body[2:]]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_matches_golden(name):
    head, rows = split(cli_output(COMMANDS[name]))
    want_head, want_rows = split((GOLDEN / f"{name}.csv").read_text())
    assert head == want_head
    assert len(rows) == len(want_rows)
    for got, want in zip(rows, want_rows):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=RTOL, abs_tol=0.0), (name, got, want)


def test_shared_parser_keeps_no_state():
    # every run of a process parses with one parser; running the commands
    # again, in reverse order, must give the same bytes
    first = {name: cli_output(argv) for name, argv in COMMANDS.items()}
    for name in reversed(list(COMMANDS)):
        assert cli_output(COMMANDS[name]) == first[name], name
    assert _shared_parser.cache_info().misses == 1


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.csv").write_text(cli_output(argv))
        print(f"wrote {name}.csv", file=sys.stderr)
