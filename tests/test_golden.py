"""Golden CLI output for a fixed command set.

Each command's CSV is compared with the file of the same name under
tests/golden/: metadata and header lines exactly, numeric cells to 1e-12
relative (numpy >= 1.24 is allowed, so the last bits of a value may move
between installs).

Regenerate expected files, after checking that a change in them is
intended, with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which rewrites the named files (for example pathloss_single), or all of
them when no name is given, and prints for each the largest relative change
of a numeric cell and whether a metadata or header line changed.
"""
import contextlib
import io
import json
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
    # without n0 the table carries a warning and no number-density columns
    "spectrum_no_n0": ["spectrum", "--count", "20"],
    "attenuation_h": ["attenuation", "--sweep", "h", "--count", "8", "--n0", "1e3",
                      "--units", "both"],
    "attenuation_f": ["attenuation", "--sweep", "f", "--start", "1e11",
                      "--stop", "1e12", "--count", "4", "--h0", "150",
                      "--normalized"],
    # above 205 m: rows that close with the cap window, at the cap without
    # it, and at 1 nm, in one frequency's slice
    "attenuation_cap": ["attenuation", "--sweep", "h", "--start", "150", "--stop", "600",
                        "--count", "10", "--units", "both", "--n0", "1e3",
                        "--f", "4e11"],
    "pathloss_single": ["pathloss"] + PATHLOSS,
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


def cells(text):
    """(metadata, names, units, rows) of a CSV table, each cell as written."""
    lines = text.splitlines()
    meta = dict(ln[2:].split(" = ", 1) for ln in lines if ln.startswith("# "))
    names, units, *rows = lines[len(meta):]
    return meta, names.split(","), units.split(","), [r.split(",") for r in rows]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_matches_csv(name):
    # the JSON table of a golden command holds the CSV's cells, so the golden
    # files pin both writers
    meta, names, units, rows = cells(cli_output(COMMANDS[name]))
    payload = json.loads(cli_output(COMMANDS[name] + ["--format", "json"]))
    assert payload == {"metadata": {**meta, "format": "json"},
                       "columns": names, "units": units, "rows": rows}


def test_shared_parser_keeps_no_state():
    # every run of a process parses with one parser; running the commands
    # again, in reverse order, must give the same bytes
    first = {name: cli_output(argv) for name, argv in COMMANDS.items()}
    for name in reversed(list(COMMANDS)):
        assert cli_output(COMMANDS[name]) == first[name], name
    assert _shared_parser.cache_info().misses == 1


def describe_change(old, new):
    """One line on how a golden table moved from old to new text."""
    old_head, old_rows = split(old)
    head, rows = split(new)
    worst = max((0.0 if g == w else abs(g - w) / abs(w) if w else math.inf
                 for got, want in zip(rows, old_rows) for g, w in zip(got, want)),
                default=0.0)
    line = (f"largest relative change {worst:.2g}, header lines "
            f"{'changed' if head != old_head else 'unchanged'}")
    if [len(r) for r in rows] != [len(r) for r in old_rows]:
        line += ", row or column count changed"
    return line


if __name__ == "__main__":
    names = sys.argv[1:] or list(COMMANDS)
    unknown = sorted(set(names) - set(COMMANDS))
    if unknown:
        sys.exit(f"unknown golden table(s) {', '.join(unknown)}; "
                 f"known: {', '.join(COMMANDS)}")
    GOLDEN.mkdir(exist_ok=True)
    for name in names:
        path = GOLDEN / f"{name}.csv"
        text = cli_output(COMMANDS[name])
        change = describe_change(path.read_text(), text) if path.exists() else "new file"
        path.write_text(text)
        print(f"{name}.csv: {change}")
