import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dustmie import (DustLayerModel, ParticleState, WaveSpec, dust_attenuation_coefficient,
                     extinction_efficiency_array)
from dustmie.cli import _SECTIONS, DEFAULT_M, RunConfig, build_parser, load_config, run
from dustmie.errors import ConfigError
from dustmie.sweeps import SweepTable, sweep_grid


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    meta, names, units, rows = {}, None, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif names is None:
            names = line.split(",")
        elif units is None:
            units = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, names, units, rows


class TestQext:
    def test_sweep_x_groups_ne(self, capsys):
        code, out = run_cli(capsys, "qext", "--start", "0.02", "--stop", "2",
                            "--count", "20", "--group-ne", "0,10,100")
        assert code == 0
        meta, names, units, rows = parse_csv(out)
        assert names == ["x", "q_ext[Ne=0]", "q_ext[Ne=10]", "q_ext[Ne=100]"]
        assert len(rows) == 20
        for row in rows:
            assert all(np.isfinite(row)) and all(v > 0 for v in row)

    def test_charged_column_dominates_neutral(self, capsys):
        code, out = run_cli(capsys, "qext", "--start", "0.02", "--stop", "0.1",
                            "--count", "5", "--group-ne", "0,1000")
        _, _, _, rows = parse_csv(out)
        for row in rows:
            assert row[2] > row[1]

    def test_count_too_small_is_usage_error(self, capsys):
        code, _ = run_cli(capsys, "qext", "--count", "1")
        assert code == 2

    def test_group_r_requires_frequency_sweep(self, capsys):
        code, _ = run_cli(capsys, "qext", "--sweep", "x", "--group-r", "1e-6")
        assert code == 2

    def test_fractional_group_ne_rejected(self, capsys):
        code, out = run_cli(capsys, "qext", "--count", "3", "--group-ne", "0,0.5")
        assert code == 2
        assert out == ""

    def test_ne_without_group_r_rejected(self, capsys):
        # --ne sets the electron count of the --group-r columns; an x-sweep's
        # columns come from --group-ne
        code = run(["qext", "--count", "3", "--ne", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--group-ne" in captured.err

    def test_ne_config_key_still_sets_group_r_columns(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[particle]\nne = 1000\n")
        argv = ["qext", "--sweep", "f", "--start", "1e11", "--stop", "2e11",
                "--count", "2", "--group-r", "1e-6"]
        code, out = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0
        assert parse_csv(out)[0]["config.ne"] == "1000"
        _, flag_out = run_cli(capsys, *argv, "--ne", "1000")
        assert parse_csv(out)[3] == parse_csv(flag_out)[3]

    def test_strongly_absorbing_sweep_to_large_x(self, capsys):
        code, out = run_cli(capsys, "qext", "--sweep", "x", "--start", "0.05",
                            "--stop", "800", "--count", "4", "--m", "1.5+3j")
        assert code == 0
        _, _, _, rows = parse_csv(out)
        assert len(rows) == 4
        assert all(np.isfinite(row).all() for row in rows)

    def test_sweep_f_group_r(self, capsys):
        code, out = run_cli(capsys, "qext", "--sweep", "f", "--start", "1e11",
                            "--stop", "1e12", "--count", "5", "--spacing", "log",
                            "--group-r", "1e-6,20e-6")
        assert code == 0
        _, names, units, rows = parse_csv(out)
        assert units[0] == "Hz"
        assert len(names) == 3


    @pytest.mark.parametrize("flag,value,bad", [
        ("--group-r", "1e-12,0.5", "1e-12"), ("--group-r", "20e-6,0.5", "0.5"),
        ("--r", "1e-12", "1e-12")])
    def test_f_sweep_radius_outside_particle_domain_rejected(self, capsys, flag,
                                                             value, bad):
        # x-sweeps derive their radii from x and may pass 1 cm; f-sweeps
        # take them as given
        code = run(["qext", "--sweep", "f", "--start", "1e11", "--stop", "2e11",
                    "--count", "2", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"radius {bad} m" in captured.err


def test_module_entry_point_runs_from_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "dustmie", "qext", "--count", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "q_ext[Ne=0]" in proc.stdout


class TestSpectrum:
    def test_pdf_columns_integrate_to_one(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--start", "0.001", "--stop", "3",
                            "--count", "4000", "--spacing", "log")
        assert code == 0
        _, names, units, rows = parse_csv(out)
        data = np.array(rows)
        for col in range(1, 4):
            mass = np.trapezoid(data[:, col], data[:, 0])
            assert mass == pytest.approx(1.0, abs=1e-3)

    def test_mode_ordering_with_altitude(self, capsys):
        _, out = run_cli(capsys, "spectrum", "--start", "0.001", "--stop", "1",
                         "--count", "2000", "--spacing", "log",
                         "--heights", "100,200")
        _, _, _, rows = parse_csv(out)
        data = np.array(rows)
        # mode radius exp(mu - sigma^2) shrinks with altitude
        assert data[np.argmax(data[:, 1]), 0] > data[np.argmax(data[:, 2]), 0]

    def test_n0_unset_omits_density_columns(self, capsys):
        _, out = run_cli(capsys, "spectrum", "--count", "5")
        meta, names, _, _ = parse_csv(out)
        assert "warning" in meta
        assert all(not n.startswith("n_d") for n in names)

    def test_n0_adds_density_columns(self, capsys):
        _, out = run_cli(capsys, "spectrum", "--count", "5", "--n0", "100")
        meta, names, _, rows = parse_csv(out)
        assert any(n.startswith("n_d") for n in names)
        data = np.array(rows)
        assert np.allclose(data[:, 4:], 100 * data[:, 1:4])

    def test_extrapolation_warns_once_per_table(self, capsys):
        code = run(["spectrum", "--count", "3", "--heights", "1100,1200"])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "dustmie: warning: size-spectrum fit extrapolated to h=1200 m, "
            "far above the measured range (~200 m)"]


class TestAttenuation:
    def test_requires_n0(self, capsys):
        code, _ = run_cli(capsys, "attenuation", "--count", "3")
        assert code == 2

    def test_charged_exceeds_neutral(self, capsys):
        code, out = run_cli(capsys, "attenuation", "--sweep", "h",
                            "--start", "100", "--stop", "200", "--count", "3",
                            "--n0", "1000", "--group-ne", "0,1000000",
                            "--f", "3e11")
        assert code == 0
        _, _, _, rows = parse_csv(out)
        for row in rows:
            assert row[2] > row[1]

    def test_n0_scaling(self, capsys):
        args = ["attenuation", "--count", "2", "--start", "100", "--stop", "150",
                "--group-ne", "0"]
        _, out1 = run_cli(capsys, *args, "--n0", "1000")
        _, out2 = run_cli(capsys, *args, "--n0", "2000")
        r1 = np.array(parse_csv(out1)[3])
        r2 = np.array(parse_csv(out2)[3])
        assert np.allclose(r2[:, 1], 2 * r1[:, 1], rtol=1e-9)

    def test_normalized_mode(self, capsys):
        code, out = run_cli(capsys, "attenuation", "--count", "2",
                            "--start", "100", "--stop", "150",
                            "--group-ne", "0", "--normalized")
        assert code == 0
        meta, _, _, _ = parse_csv(out)
        assert meta["normalized_per_n0"] == "True"

    def test_fractional_group_ne_rejected(self, capsys):
        code, out = run_cli(capsys, "attenuation", "--count", "2", "--n0", "10",
                            "--group-ne", "0.5")
        assert code == 2
        assert out == ""

    def test_units_both(self, capsys):
        code, out = run_cli(capsys, "attenuation", "--count", "2",
                            "--start", "100", "--stop", "150",
                            "--group-ne", "0", "--n0", "10", "--units", "both")
        assert code == 0
        _, names, _, _ = parse_csv(out)
        assert len(names) == 3

    def test_one_kernel_table_per_altitude_column(self, capsys, kernel_calls):
        code, out = run_cli(capsys, "attenuation", "--sweep", "h", "--count", "5",
                            "--start", "100", "--stop", "200", "--n0", "1e3",
                            "--group-ne", "0,1000", "--units", "both")
        assert code == 0
        assert len(parse_csv(out)[3]) == 5
        # both charges and unit modes share one table: the uncharged records,
        # then the charged nodes that the linear rule rejects
        assert len(kernel_calls) == 2

    def test_one_kernel_call_per_frequency_column(self, capsys, kernel_calls):
        code, out = run_cli(capsys, "attenuation", "--sweep", "f", "--count", "5",
                            "--start", "1e11", "--stop", "1e12", "--h0", "150",
                            "--n0", "1e3", "--group-ne", "0,1000")
        assert code == 0
        assert len(parse_csv(out)[3]) == 5
        # 2 charges x 5 frequencies in one table: the uncharged records, then
        # the charged nodes that the linear rule rejects
        assert len(kernel_calls) == 2

    def test_kernel_calls_stay_within_table_sizes(self, capsys, monkeypatch):
        # 40 charge columns are sliced, not broadcast against the nodes at once
        import dustmie.channel
        sizes = []
        kernel = dustmie.channel._qext

        def counted(x, *args, **kwargs):
            sizes.append(x.size)
            return kernel(x, *args, **kwargs)

        monkeypatch.setattr(dustmie.channel, "_qext", counted)
        code, out = run_cli(capsys, "attenuation", "--sweep", "h", "--count", "3",
                            "--n0", "1e3", "--group-ne",
                            ",".join(str(10 * ne) for ne in range(40)))
        assert code == 0
        assert len(parse_csv(out)[1]) == 41
        assert len(sizes) > 1
        assert max(sizes) <= dustmie.channel._TABLE_SIZES


def column_label(name):
    """(quantity, electron count, units mode or None) of a column label
    such as k_dust[Ne=1000;paper] or q_ext[Ne=0]."""
    quantity, _, inner = name.rstrip("]").partition("[Ne=")
    ne, _, units = inner.partition(";")
    return quantity, int(ne), units or None


class TestColumnsMatchLabels:
    """Each table column holds what its label names: every cell against the
    library call at the label's electron count and units mode, on the
    sweep's own grid, within the 12 printed digits. The references start
    from an empty store of kept tables, so they share no table with the
    run. The four runs take about 0.2 s."""

    PRINTED = 5e-12                        # half a unit in the 12th digit

    def table(self, capsys, command, sweep, start, stop, *args):
        """The run's columns (label, values) after the sweep's, checked
        against its grid, and that grid."""
        code, out = run_cli(capsys, command, "--sweep", sweep, "--start", str(start),
                            "--stop", str(stop), "--count", "5", "--spacing", "log",
                            "--group-ne", "0,1000", *args)
        assert code == 0
        _, names, _, rows = parse_csv(out)
        columns = [(name, np.array(values)) for name, values in zip(names, zip(*rows))]
        grid = sweep_grid(start, stop, 5, "log")
        assert np.all(np.abs(columns[0][1] - grid) <= self.PRINTED * grid)
        return columns[1:], grid

    @pytest.mark.parametrize("sweep,start,stop", [("f", 1e11, 1e13), ("h", 1, 600)])
    def test_k_dust_columns(self, capsys, kernel_tables, sweep, start, stop):
        columns, grid = self.table(capsys, "attenuation", sweep, start, stop,
                                   "--n0", "1e3", "--h0", "150", "--units", "both")
        kernel_tables.clear()
        cfg = RunConfig()
        labels = [column_label(name) for name, _ in columns]
        assert sorted(labels) == [("k_dust", ne, units) for ne in (0, 1000)
                                  for units in ("paper", "physical")]
        for (_, ne, units), (name, values) in zip(labels, columns):
            particle = ParticleState(cfg.r, ne, cfg.T, cfg.m)
            for point, value in zip(grid.tolist(), values):
                f, h = (point, 150.0) if sweep == "f" else (cfg.f, point)
                ref = dust_attenuation_coefficient(h, WaveSpec(f), DustLayerModel(1e3),
                                                   particle, units_mode=units)
                assert value == pytest.approx(ref, rel=self.PRINTED, abs=0), (name, point)

    @pytest.mark.parametrize("sweep,start,stop", [("x", 0.02, 300), ("f", 1e11, 1e13)])
    def test_q_ext_columns(self, capsys, sweep, start, stop):
        columns, grid = self.table(capsys, "qext", sweep, start, stop)
        assert [column_label(name) for name, _ in columns] == [
            ("q_ext", 0, None), ("q_ext", 1000, None)]
        cfg = RunConfig()
        if sweep == "x":
            radius, frequency = grid * WaveSpec(cfg.f).wavelength / (2 * np.pi), cfg.f
        else:
            radius, frequency = cfg.r, grid
        for (name, values), ne in zip(columns, (0, 1000)):
            ref = extinction_efficiency_array(radius, frequency, ne, cfg.T, cfg.m)
            assert np.all(np.abs(values - ref) <= self.PRINTED * np.abs(ref)), name


class TestPathloss:
    ARGS = ["pathloss", "--n-i", "2", "--sigma-i", "2", "--n0", "0",
            "--h0", "100", "--d", "1000", "--d0", "10"]

    def test_single_shot(self, capsys):
        code, out = run_cli(capsys, *self.ARGS)
        assert code == 0
        _, names, _, rows = parse_csv(out)
        assert names == ["fspl", "distance_term", "shadow", "dust_loss", "total"]
        fspl, dist, shadow, dust, total = rows[0]
        assert total == pytest.approx(fspl + dist + shadow + dust)

    def test_default_h0_far_above_fit_runs(self, capsys):
        # at the default h0 = 10 km the log-normal width is about 1.5e20, and
        # the size integral covers the kernel's whole radius domain
        code = run(["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1e3"])
        captured = capsys.readouterr()
        assert code == 0
        _, names, _, rows = parse_csv(captured.out)
        dust = rows[0][names.index("dust_loss")]
        assert np.isfinite(rows[0]).all() and 0 <= dust
        assert captured.err.startswith(
            "dustmie: warning: size-spectrum fit extrapolated to h=10998 m, ")

    def test_units_both_is_attenuation_only(self, capsys):
        code = run([*self.ARGS, "--units", "both"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "both applies to attenuation only" in captured.err

    def test_requires_n0(self, capsys):
        code, out = run_cli(capsys, "pathloss", "--n-i", "2", "--sigma-i", "3",
                            "--h0", "100", "--d", "100", "--theta-deg", "12")
        assert code == 2
        assert out == ""

    def test_missing_scenario_params(self, capsys):
        code, _ = run_cli(capsys, "pathloss", "--n0", "0")
        assert code == 2

    def test_d_below_reference_rejected(self, capsys):
        code, _ = run_cli(capsys, *self.ARGS[:-4], "--d", "5", "--d0", "10")
        assert code == 2

    @pytest.mark.parametrize("text", [None, "0 1.0\nhigh 2.0\n"],
                             ids=["missing", "non-numeric"])
    def test_unreadable_kabs_profile_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "kabs.txt"
        if text is not None:
            path.write_text(text)
        code = run([*self.ARGS, "--kabs-profile", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert str(path) in captured.err

    def test_negative_zero_shadow_spread_draws_zero(self, capsys):
        # -0 passes the std dev's check, and numpy's normal rejects it
        code, out = run_cli(capsys, *self.ARGS[:3], "--sigma-i=-0",
                            *self.ARGS[5:], "--seed", "3")
        assert code == 0
        _, names, _, rows = parse_csv(out)
        assert rows[0][names.index("shadow")] == 0.0

    def test_seed_reproducibility(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = self.ARGS + ["--seed", "9"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def flag(name):
    return "--" + name.replace("_", "-")


# Each RunConfig field: its config section, a config value, the value its flag
# overrides that with, and a subcommand that takes the flag.
FIELD_CASES = {
    "f": ("wave", 1e12, 2e12, "qext"),
    "r": ("particle", 1e-5, 3e-5, "qext"),
    "ne": ("particle", 5, 7, "pathloss"),
    "T": ("particle", 250.0, 350.0, "qext"),
    "m": ("particle", 1.5 - 0.1j, 1.6 + 0.2j, "qext"),
    "n0": ("dust", 500.0, 700.0, "spectrum"),
    "d": ("link", 200.0, 100.0, "pathloss"),
    "d0": ("link", 5.0, 10.0, "pathloss"),
    "h0": ("link", 150.0, 120.0, "pathloss"),
    "theta_deg": ("link", 30.0, 12.0, "pathloss"),
    "n_i": ("link", 2.5, 2.0, "pathloss"),
    "sigma_i": ("link", 4.0, 3.0, "pathloss"),
}
# what each subcommand needs besides the field under test to run
FIELD_RUN_ARGS = {
    "qext": {"count": 2},
    "spectrum": {"count": 2},
    "pathloss": {"n_i": 2.0, "sigma_i": 3.0, "n0": 1e3, "h0": 120.0, "d": 100.0,
                 "theta_deg": 12.0},
}


class TestConfigAndOutput:
    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[wave]\nf = 1e12\n\n[dust]\nn0 = 500\n\n"
            "[particle]\nm = 1.5-0.1j\nne = 10\n"
        )
        loaded = load_config(str(cfg))
        assert loaded.f == 1e12
        assert loaded.n0 == 500
        assert loaded.m == 1.5 - 0.1j
        code, out = run_cli(capsys, "spectrum", "--count", "3",
                            "--config", str(cfg), "--n0", "700")
        assert code == 0
        meta, _, _, _ = parse_csv(out)
        assert meta["config.n0"] == "700.0"     # flag overrides file

    def test_flag_does_not_outlive_its_run(self, capsys):
        # the parser is shared by every run in a process
        code, out = run_cli(capsys, "qext", "--count", "3", "--group-ne", "5")
        assert code == 0
        assert parse_csv(out)[1] == ["x", "q_ext[Ne=5]"]
        code, out = run_cli(capsys, "qext", "--count", "3")
        assert code == 0
        assert parse_csv(out)[1] == ["x", "q_ext[Ne=0]", "q_ext[Ne=10]",
                                     "q_ext[Ne=100]"]

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[wave]\nbogus = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg))

    def test_env_var_fallback(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "env.ini"
        cfg.write_text("[dust]\nn0 = 42\n")
        monkeypatch.setenv("DUSTMIE_CONFIG", str(cfg))
        _, out = run_cli(capsys, "spectrum", "--count", "3")
        meta, _, _, _ = parse_csv(out)
        assert meta["config.n0"] == "42.0"

    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "qext", "--count", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"][0] == "x"
        assert len(payload["rows"]) == 3

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["qext", "--count", "10", "--group-ne", "0,100"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_units_row_present(self, capsys):
        _, out = run_cli(capsys, "qext", "--count", "3")
        _, names, units, _ = parse_csv(out)
        assert len(units) == len(names)
        assert units[0] == "1"

    def test_default_m_is_documented_assumption(self):
        assert RunConfig().m == DEFAULT_M

    @pytest.mark.parametrize("name", [fld.name for fld in fields(RunConfig)])
    def test_config_key_and_flag_share_the_field_name(self, tmp_path, capsys, name):
        section, file_value, flag_value, command = FIELD_CASES[name]
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[{section}]\n{name} = {file_value}\n")
        assert getattr(load_config(str(cfg)), name) == file_value
        argv = [command, "--config", str(cfg), flag(name), str(flag_value)]
        argv += [arg for key, value in FIELD_RUN_ARGS[command].items()
                 if key != name for arg in (flag(key), str(value))]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert parse_csv(out)[0][f"config.{name}"] == str(flag_value)

    def test_malformed_index_is_usage_or_config_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["qext", "--m", "foo", "--count", "2"])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err
        cfg = tmp_path / "run.ini"
        cfg.write_text("[particle]\nm = foo\n")
        code, out = run_cli(capsys, "qext", "--count", "2", "--config", str(cfg))
        assert code == 2
        assert out == ""

    # neither command reads the template radius: the size integral sweeps it
    @pytest.mark.parametrize("argv", [
        ["attenuation", "--n0", "1e3", "--count", "2"],
        ["pathloss", "--seed", "7", "--h0", "120", "--theta-deg", "12", "--d", "100",
         "--n-i", "2", "--sigma-i", "3", "--n0", "1e3"],
    ])
    def test_unread_config_radius_is_not_checked(self, tmp_path, capsys, argv):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[particle]\nr = 0.5\n")
        code, plain = run_cli(capsys, *argv)
        assert code == 0
        code, out = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0
        assert parse_csv(out)[1:] == parse_csv(plain)[1:]

    def test_unread_config_electron_count_is_not_checked(self, tmp_path, capsys):
        # attenuation takes its counts from --group-ne
        cfg = tmp_path / "run.ini"
        cfg.write_text("[particle]\nne = -5\n")
        argv = ["attenuation", "--n0", "1e3", "--count", "2", "--group-ne", "0,10"]
        code, plain = run_cli(capsys, *argv)
        assert code == 0
        code, out = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0
        assert parse_csv(out)[1:] == parse_csv(plain)[1:]

    @pytest.mark.parametrize("content", [
        b"f = 1\n",                                # a key before any section
        b"[wave]\nf = 1e12\nf = 2e12\n",           # a key given twice
        b"[particle]\nT = 300\nt = 310\n",         # keys are case-insensitive
        b"[wave]\nf = 1e12 \xff\n",                # not UTF-8
        b"[wave]\nf = %(x)s\n",                    # interpolation of no key
    ])
    def test_malformed_config_file_is_config_error(self, tmp_path, capsys, content):
        cfg = tmp_path / "run.ini"
        cfg.write_bytes(content)
        with pytest.raises(ConfigError):
            load_config(str(cfg))
        code = run(["spectrum", "--count", "2", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("dustmie: config error: malformed config")

    def test_unknown_table_format_is_config_error(self, tmp_path):
        table = SweepTable([("x", "1", [1.0, 2.0])])
        path = tmp_path / "out.csv"
        with pytest.raises(ConfigError, match="cvs"):
            table.write(path, fmt="cvs")
        assert not path.exists()
        with pytest.raises(ConfigError):
            table.render("cvs")
        assert table.render("csv") == table.to_csv()
        assert table.render("json") == table.to_json()

    def test_columns_of_unequal_length_rejected(self):
        with pytest.raises(ConfigError):
            SweepTable([("x", "1", [1.0, 2.0]), ("y", "1", [3.0])])


# Every subcommand takes --config, --format and --out, and beyond them only
# the flags it reads.
FLAGS = {
    "qext": "--mode --f --r --ne --T --m "
            "--sweep --start --stop --count --spacing --group-ne --group-r",
    "spectrum": "--n0 --start --stop --count --spacing --heights",
    "attenuation": "--mode --units --f --T --m --n0 --h0 "
                   "--sweep --start --stop --count --spacing --group-ne --normalized",
    "pathloss": "--mode --units --seed --kabs-profile --f --ne --T --m --n0 "
                "--d --d0 --h0 --theta-deg --n-i --sigma-i",
}


def subcommand_flags():
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in sub._actions for opt in action.option_strings
                   if opt not in ("-h", "--help")}
            for name, sub in subs.choices.items()}


# Without --start or --stop a sweep spans its variable's default range: an
# f-sweep the paper's 0.1-10 THz band, not an x- or h-sweep's range read as
# hertz. The metadata records the ends used
@pytest.mark.parametrize("argv,ends", [
    (["qext", "--sweep", "f"], (1e11, 1e13)),
    (["attenuation", "--sweep", "f", "--n0", "1e3", "--h0", "150"], (1e11, 1e13)),
    (["qext", "--sweep", "f", "--start", "2e12"], (2e12, 1e13)),
    (["attenuation", "--sweep", "f", "--n0", "1e3", "--stop", "1e12"], (1e11, 1e12)),
    (["qext"], (0.02, 2.0)),
    (["attenuation", "--n0", "1e3"], (100.0, 200.0)),
    (["spectrum"], (0.005, 1.0)),
])
def test_sweep_default_range(capsys, argv, ends):
    code, out = run_cli(capsys, *argv, "--count", "2")
    assert code == 0
    meta, _, _, rows = parse_csv(out)
    assert tuple(row[0] for row in rows) == ends
    assert (float(meta["start"]), float(meta["stop"])) == ends


class TestFlagSurface:
    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        got = subcommand_flags()
        assert got == {name: {"--config", "--format", "--out", *flags.split()}
                       for name, flags in FLAGS.items()}
        assert sum(len(flags) for flags in got.values()) == 60

    @pytest.mark.parametrize("argv", [
        ["qext", "--count", "3", "--units", "paper"],
        ["spectrum", "--count", "3", "--mode", "approx"],
        ["pathloss", "--n-i", "2", "--sigma-i", "1", "--scenario", "NLoS"],
        # no Monte-Carlo count: the table states total and sigma_i exactly
        ["pathloss", "--n-i", "2", "--sigma-i", "1", "--n0", "0", "--trials", "5"],
    ])
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    def test_scenario_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[link]\nscenario = LoS\n")
        with pytest.raises(ConfigError):
            load_config(str(cfg))


@pytest.mark.parametrize("argv", [
    # an index whose square overflows a float: Wiscombe's bound reads inf
    ["qext", "--count", "3", "--m", "1e155"],
    ["qext", "--count", "3", "--m", "1e200+1e200j"],
    ["attenuation", "--count", "2", "--n0", "1", "--m", "1e155"],
    ["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1e3", "--h0", "100",
     "--d", "100", "--m", "1e155"],
    # the default geometry, far above the fit, reaches the kernel too
    ["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1e3", "--m", "1e155"],
    # a table cell past the float range: the number density, and k_dust
    ["spectrum", "--n0", "1e308", "--start", "0.1", "--stop", "0.2", "--count", "3",
     "--heights", "0"],
    ["attenuation", "--n0", "1e308", "--count", "2", "--units", "paper"],
])
def test_numerical_failure_exits_3(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    # the error is the last line, after any warning (the default geometry's)
    *warned, error = captured.err.splitlines()
    assert error.startswith("dustmie: numerical failure:")
    assert all(line.startswith("dustmie: warning:") for line in warned)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv,m", [
    # an Im(m) so large that the downward recurrence would start past 2^63
    # orders, where the start wrapped to a negative int
    (["qext", "--count", "3", "--m", "2-1e300j"], "(2+1e+300j)"),
    (["attenuation", "--count", "2", "--n0", "1", "--m", "2-1e155j"], "(2+1e+155j)"),
    (["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1e3", "--h0", "100",
      "--d", "100", "--m", "0.5-1e200j"], "(0.5+1e+200j)"),
])
def test_index_past_the_recurrence_cap_is_config_error(capsys, argv, m):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"dustmie: error: refractive index {m} at x = ")
    assert "would start at order" in captured.err and "above 1048576" in captured.err
    assert "Traceback" not in captured.err


def test_index_whose_im_x_overflows_is_config_error_with_no_warning(capsys):
    # Im(m) x past the float range overflows inside the kernel's one
    # floating-point error state: the error line is all that is printed
    code = run(["qext", "--count", "3", "--m", "2-1e308j"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("dustmie: error: refractive index (2+1e+308j) at x = 2: "
                            "the downward recurrence would start at order inf, "
                            "above 1048576\n")


# The size integral stays in the kernel's radius domain [1 nm, 10 mm], so
# no altitude takes the series to the radii near 1e-85 m (x overflows) or
# 1e-60 m (g_e overflows) of the spectrum's whole 8-sigma support.
@pytest.mark.parametrize("argv", [
    ["attenuation", "--sweep", "h", "--start", "700", "--stop", "900",
     "--count", "3", "--n0", "1"],
    ["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1e3", "--h0", "10",
     "--theta-deg", "90", "--d", "800"],
    ["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1e3", "--h0", "10",
     "--theta-deg", "90", "--d", "950"],
    ["attenuation", "--sweep", "h", "--start", "100", "--stop", "900",
     "--count", "5", "--n0", "1e3", "--f", "3e11"],
    ["attenuation", "--sweep", "h", "--start", "100", "--stop", "1200",
     "--count", "5", "--n0", "1e3"],
])
def test_far_altitude_runs(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    rows = parse_csv(captured.out)[3]
    assert rows and all(np.isfinite(row).all() for row in rows)


def test_warning_line_and_numpy_warnings(capsys, monkeypatch):
    import dustmie.cli

    def pdf_that_overflows(r, h):
        np.multiply(np.array([1e308]), 10)
        return size_pdf(r, h)

    size_pdf = dustmie.cli.size_pdf
    monkeypatch.setattr(dustmie.cli, "size_pdf", pdf_that_overflows)
    argv = ["spectrum", "--count", "2", "--heights", "1200"]
    # the test run's error filter still fails a numpy warning
    with pytest.raises(RuntimeWarning, match="overflow"):
        run(argv)
    capsys.readouterr()
    # under the default filter it is printed as the CLI's own line, like
    # the fit's extrapolation warning
    with warnings.catch_warnings():
        warnings.simplefilter("default", RuntimeWarning)
        assert run(argv) == 0
    assert capsys.readouterr().err.splitlines() == [
        "dustmie: warning: overflow encountered in multiply",
        "dustmie: warning: size-spectrum fit extrapolated to h=1200 m, "
        "far above the measured range (~200 m)"]


def test_warnings_come_before_the_error_line(capsys):
    # the fit warns of its extrapolation to 200 km and then overflows there
    code = run(["attenuation", "--sweep", "h", "--start", "1e5", "--stop", "2e5",
                "--count", "3", "--n0", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "dustmie: warning: size-spectrum fit extrapolated to h=200000 m, "
        "far above the measured range (~200 m)",
        "dustmie: error: size-spectrum fit overflows at h=200000 m"]


@pytest.mark.parametrize("argv", [
    ["attenuation", "--sweep", "f", "--start", "1e11", "--stop", "2e11",
     "--count", "2", "--h0", "nan", "--n0", "1"],
    ["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1e3", "--h0", "nan",
     "--d", "100"],
    ["spectrum", "--count", "2", "--heights", "nan"],
    ["spectrum", "--count", "2", "--n0", "-5"],
    ["attenuation", "--count", "2", "--n0", "inf"],
    ["pathloss", "--n-i", "nan", "--sigma-i", "1", "--n0", "0", "--h0", "100",
     "--d", "100"],
    ["qext", "--count", "2", "--T", "nan"],
    ["qext", "--count", "2", "--m", "nan+0j"],
    ["pathloss", "--n-i", "2", "--sigma-i", "1", "--n0", "0", "--h0", "100",
     "--d", "100", "--f", "nan"],
    ["pathloss", "--n-i", "2", "--sigma-i", "1", "--n0", "0", "--h0", "100",
     "--d", "inf"],
    ["spectrum", "--count", "2", "--start", "nan"],
    # an empty column list, which would give a table without data columns
    ["qext", "--count", "2", "--group-ne", ","],
    ["qext", "--count", "2", "--group-ne", ""],
    ["qext", "--sweep", "f", "--start", "1e11", "--stop", "2e11", "--count", "2",
     "--group-r", ","],
    ["spectrum", "--count", "2", "--heights", ","],
    ["attenuation", "--count", "2", "--n0", "1e3", "--group-ne", ",", "--h0", "150"],
    # a seed that numpy's generator cannot take
    ["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1e3", "--h0", "100",
     "--d", "100", "--theta-deg", "12", "--seed", "-1"],
    # an electron count beyond the float range
    ["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1e3", "--h0", "100",
     "--d", "50", "--ne", "1" + "0" * 400],
    ["qext", "--sweep", "f", "--group-r", "1e-6", "--ne", "1" + "0" * 400],
    # a refractive index outside its domain, also where n0 = 0 runs no kernel
    ["pathloss", "--n0", "0", "--m", "nan+0j", "--h0", "120", "--d", "100",
     "--n-i", "2", "--sigma-i", "3"],
    ["pathloss", "--n0", "0", "--m=-1+0j", "--h0", "120", "--d", "100",
     "--n-i", "2", "--sigma-i", "3"],
    ["attenuation", "--n0", "0", "--m", "nan+0j", "--count", "2"],
    # a count or frequency outside its domain where n0 = 0 runs no kernel
    ["attenuation", "--n0", "0", "--group-ne=-5", "--count", "2"],
    ["attenuation", "--n0", "0", "--f", "nan", "--count", "2"],
    ["attenuation", "--n0", "0", "--sweep", "f", "--start=-1e11", "--stop", "1e11",
     "--count", "2"],
    # a size parameter above the series' domain, x <= 2e4
    ["qext", "--sweep", "x", "--start", "1e-3", "--stop", "1e6", "--count", "3"],
    # a frequency whose wavelength overflows a float: x reads nan or 0
    ["qext", "--count", "3", "--f", "1e-300"],
    ["qext", "--sweep", "f", "--start", "1e-300", "--stop", "1e11", "--count", "3"],
    # a temperature or index outside its domain where n0 = 0 runs no kernel
    ["attenuation", "--n0", "0", "--T=-1", "--count", "2"],
    ["attenuation", "--n0", "0", "--T", "inf", "--count", "2"],
    ["attenuation", "--n0", "0", "--m", "0+1j", "--count", "2"],
    # a path rising far above the size-spectrum fit's overflow near 149 km:
    # the fit fails before the slant rule's arrays exist
    ["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1e3", "--d", "1e300"],
    ["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1e3", "--d", "1e12"],
    # an x-sweep's radii at a wavelength beyond the float range, and beyond
    # it themselves
    ["qext", "--count", "2", "--f", "1e-320", "--start", "100", "--stop", "0"],
    ["qext", "--count", "3", "--start", "1", "--stop", "1e300", "--f", "1"],
    # a size density past the float range, at subnormal radii
    ["spectrum", "--start", "1e-320", "--stop", "1e-300", "--count", "3",
     "--heights", "1350"],
])
def test_non_finite_or_out_of_domain_input_is_config_error(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["qext", "--count", "3", "--f", "1e-300"],
    ["qext", "--sweep", "f", "--start", "1e-300", "--stop", "1e11", "--count", "3"],
    ["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1e3", "--h0", "100",
     "--d", "100", "--f", "1e-300"],
])
def test_frequency_whose_wavelength_overflows_is_named(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("dustmie: error: frequency 1e-300 Hz")
    assert "overflows" in captured.err


# gamma_s = 2 pi k_B T / h_P overflows a float above about 2.2e296 K
@pytest.mark.parametrize("argv", [
    ["qext", "--count", "2", "--T", "1e300"],
    ["attenuation", "--count", "2", "--n0", "1", "--T", "1e300"],
    ["attenuation", "--count", "2", "--n0", "0", "--T", "1e300"],
    ["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1", "--h0", "100",
     "--d", "100", "--T", "1e300"],
])
def test_temperature_whose_collision_frequency_overflows_is_named(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("dustmie: error: temperature 1e+300 K")
    assert "overflows" in captured.err


# the full g_e takes gamma_s / omega, which overflows at a low frequency and
# a large but finite temperature, at any charge
@pytest.mark.parametrize("argv", [
    ["qext", "--count", "2", "--f", "1e-10", "--T", "1e290"],
    ["qext", "--sweep", "f", "--start", "1e-10", "--stop", "1e11", "--count", "2",
     "--group-r", "1e-5", "--T", "1e290"],
    ["attenuation", "--count", "2", "--n0", "1", "--f", "1e-10", "--T", "1e290"],
    ["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1", "--h0", "100",
     "--d", "100", "--f", "1e-10", "--T", "1e290"],
])
def test_collision_over_wave_frequency_that_overflows_is_named(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(
        "dustmie: error: frequency 1e-10 Hz at temperature 1e+290 K")
    assert "overflows" in captured.err


def test_approx_g_e_takes_no_collision_over_wave_frequency(capsys):
    # approx mode divides by gamma_s omega instead, which stays finite there
    code = run(["qext", "--count", "2", "--f", "1e-10", "--T", "1e290",
                "--mode", "approx"])
    assert code == 0
    assert capsys.readouterr().out.count("\n") > 2


@pytest.mark.parametrize("argv", [
    # a shadow draw beyond the float range
    ["pathloss", "--n-i", "2", "--sigma-i", "1e308", "--n0", "1", "--h0", "100",
     "--d", "100", "--seed", "3"],
    # a distance term beyond it
    ["pathloss", "--n-i", "1e308", "--sigma-i", "3", "--n0", "1", "--h0", "100",
     "--d", "1e300", "--theta-deg", "0"],
    # a free-space reference whose ratio 4 pi f d0 / c underflows to 0
    ["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "0", "--h0", "100",
     "--d", "100", "--f", "1e-320"],
])
def test_link_budget_that_is_not_finite_is_named(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("dustmie: error: link budget is not finite")


def test_x_sweep_beyond_int64_orders_is_config_error(capsys):
    code = run(["qext", "--sweep", "x", "--start", "1", "--stop", "1e300",
                "--count", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("dustmie: error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_unwritable_out_path_is_config_error(tmp_path, capsys, fmt):
    path = tmp_path / "missing" / "out.csv"
    code = run(["spectrum", "--count", "3", "--format", fmt, "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"dustmie: config error: cannot write {path}")
    assert not path.exists()


# electron counts of 2^64 and more, which no int64 holds
@pytest.mark.parametrize("argv", [
    ["qext", "--count", "3", "--group-ne", "1e30"],
    ["qext", "--sweep", "f", "--start", "1e11", "--stop", "2e11", "--count", "3",
     "--group-r", "1e-6", "--ne", "100000000000000000000"],
    ["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1e3", "--h0", "100",
     "--d", "100", "--theta-deg", "12", "--ne", "100000000000000000000"],
])
def test_electron_count_beyond_int64(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    rows = parse_csv(captured.out)[3]
    assert rows and all(np.isfinite(row).all() for row in rows)


# A grammar of argv for the four subcommands. Every number flag draws from
# zeros, the edges of the float range, non-finite values and a few ordinary
# ones; the int flags draw ints, so argparse takes every argv, and --count
# stays at 3 or less, so a run that succeeds is short.
NUMBERS = st.sampled_from(["0", "-0", "1e-320", "1e-300", "1e300", "inf", "nan",
                           "1", "3", "100", "3e11"])
ARGV_VALUES = {
    "--count": st.sampled_from(["1", "2", "3"]),
    "--spacing": st.sampled_from(["linear", "log"]),
    "--mode": st.sampled_from(["full", "approx"]),
    "--units": st.sampled_from(["physical", "paper", "both"]),
    "--m": st.one_of(NUMBERS, st.sampled_from(["2-0.025j", "1.5+1j", "0.5",
                                               "1+1e300j", "nan+1j"])),
    "--ne": st.sampled_from(["0", "10", "-1"]),
    "--seed": st.sampled_from(["0", "7", "-1"]),
    "--group-ne": st.lists(st.sampled_from(["0", "10", "-5", "2.5", "1e300", "nan"]),
                           min_size=1, max_size=3).map(",".join),
    "--group-r": st.lists(NUMBERS, min_size=1, max_size=3).map(",".join),
    "--heights": st.lists(NUMBERS, min_size=1, max_size=3).map(",".join),
    "--normalized": st.none(),
}
# (flags every argv of the subcommand passes, flags it may pass)
ARGV_GRAMMAR = {
    "qext": (["--count"], "--sweep=x,f --start --stop --spacing --f --r --ne --T "
                          "--m --mode --group-ne --group-r"),
    "spectrum": (["--count"], "--start --stop --spacing --heights --n0"),
    "attenuation": (["--count"], "--sweep=h,f --start --stop --spacing --f --T --m "
                                 "--n0 --h0 --mode --units --group-ne --normalized"),
    "pathloss": (["--n-i", "--sigma-i"], "--f --ne --T --m --n0 --d --d0 --h0 "
                                         "--theta-deg --seed --mode --units"),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(ARGV_GRAMMAR)))
    always, optional = ARGV_GRAMMAR[command]
    argv = [command]
    for name in always + draw(st.lists(st.sampled_from(optional.split()),
                                       unique=True, max_size=6)):
        name, _, choices = name.partition("=")
        values = (st.sampled_from(choices.split(",")) if choices
                  else ARGV_VALUES.get(name, NUMBERS))
        value = draw(values)
        # --flag=value, so that argparse reads "-0" as the flag's value
        argv.append(name if value is None else f"{name}={value}")
    return argv


# A fixed seed and budget (about 1.5 s); both examples once ended in a
# traceback: the path's top far above the size-spectrum fit built the
# slant rule's arrays first, and the pdf squared sigma at 100 km
@given(argv=cli_argv())
@example(argv=["pathloss", "--n-i", "2", "--sigma-i", "3", "--n0", "1e3",
               "--d", "1e300"])
@example(argv=["spectrum", "--heights", "1e5", "--count", "3"])
@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
def test_any_argv_exits_0_2_or_3(argv):
    # the run's RuntimeWarnings are errors here, so a numpy warning escapes;
    # a table it prints holds no inf or nan cell
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 2, 3)
    if code == 0:
        rows = parse_csv(out.getvalue())[3]
        assert rows and all(np.isfinite(row).all() for row in rows), argv


# Values of the config-file fuzz test: non-finite ones, the edges of the
# float range, a complex beyond it, a form float() refuses (hex), forms it
# takes (underscores, a non-ASCII digit) and none at all
CONFIG_VALUES = ["nan", "inf", "-1", "0", "1e308", "1e-320", "1+1e308j", "0x10",
                 "1_000", "", "٣"]
# each subcommand's flags beside the file: a short table, and the n0 and
# link parameters a k_dust table or pathloss needs, unless the file sets them
CONFIG_ARGV = {
    "qext": {"--count": "2"},
    "spectrum": {"--count": "2"},
    "attenuation": {"--count": "2", "--n0": "1e3"},
    "pathloss": {"--n0": "1e3", "--n-i": "2", "--sigma-i": "3"},
}


def test_any_one_key_config_file_exits_0_2_or_3(tmp_path):
    # every key of every section with every value, 132 files, each run by a
    # subcommand drawn with a fixed seed; a failed run prints no table, and
    # a table it prints holds no inf or nan cell
    rng = random.Random(44)
    path = tmp_path / "run.ini"
    for section, keys in _SECTIONS.items():
        for key in keys:
            for value in CONFIG_VALUES:
                command = rng.choice(sorted(CONFIG_ARGV))
                flag = "--" + key.replace("_", "-")
                argv = [command, "--config", str(path)]
                for name, default in CONFIG_ARGV[command].items():
                    if name != flag:
                        argv += [name, default]
                path.write_text(f"[{section}]\n{key} = {value}\n", encoding="utf-8")
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = run(argv)
                case = (section, key, value, command)
                assert code in (0, 2, 3), case
                if code:
                    assert out.getvalue() == "", case
                else:
                    rows = parse_csv(out.getvalue())[3]
                    assert rows and all(np.isfinite(row).all() for row in rows), case


# A value each key can run with, so that well-formed files reach exit 0 too
CONFIG_RUNNABLE = {"f": "3e11", "r": "2e-5", "ne": "10", "T": "300", "m": "1.5+0.1j",
                   "n0": "1e3", "d": "1000", "d0": "10", "h0": "150",
                   "theta_deg": "45", "n_i": "2", "sigma_i": "3"}
CONFIG_FLAWS = [None, "duplicate key", "duplicate section", "no =", "%(x)s",
                "no section header", "not UTF-8"]


def config_file(rng):
    """A config file of two to four keys drawn with rng, each with a value
    from CONFIG_VALUES or one it runs with, and a flaw from CONFIG_FLAWS:
    None, or one that configparser or the UTF-8 decoder rejects. Returns
    (bytes, flaw, the keys)."""
    keys = rng.sample([(s, k) for s, keys in _SECTIONS.items() for k in keys],
                      rng.randint(2, 4))
    keys.sort(key=lambda item: list(_SECTIONS).index(item[0]))
    lines, section = [], None
    for s, key in keys:
        if s != section:
            lines.append(f"[{s}]")
            section = s
        value = rng.choice(CONFIG_VALUES + [CONFIG_RUNNABLE[key]] * len(CONFIG_VALUES))
        lines.append(f"{key} = {value}")
    flaw = rng.choice(CONFIG_FLAWS)
    key = keys[-1][1]
    if flaw == "duplicate key":
        lines.append(f"{key} = {CONFIG_RUNNABLE[key]}")
    elif flaw == "duplicate section":
        lines.insert(-1, lines[0])
    elif flaw == "no =":
        lines[-1] = rng.choice([key, f"{key} {CONFIG_RUNNABLE[key]}"])
    elif flaw == "%(x)s":                  # an interpolation of no key
        lines[-1] = f"{key} = %(x)s"
    elif flaw == "no section header":
        lines.pop(0)
    text = "\n".join(lines).encode() + b"\n"
    if flaw == "not UTF-8":
        text = text.replace(b" = ", b" = \xff", 1)
    return text, flaw, [key for _, key in keys]


def test_any_multi_key_or_malformed_config_file_exits_0_2_or_3(tmp_path):
    # 210 files of several keys, each run by a subcommand drawn with a fixed
    # seed, about 0.15 s in all (of the 37 well-formed ones, 19 exit 0 and
    # 18 exit 2): a flawed file is a config error before any table is
    # built, a well-formed one exits 0, 2 or 3, a failed run prints no
    # table, and a table it prints holds no inf or nan cell
    rng = random.Random(47)
    path = tmp_path / "run.ini"
    codes = []
    for _ in range(210):
        text, flaw, keys = config_file(rng)
        path.write_bytes(text)
        command = rng.choice(sorted(CONFIG_ARGV))
        argv = [command, "--config", str(path)]
        flags = {"--" + key.replace("_", "-") for key in keys}
        for name, default in CONFIG_ARGV[command].items():
            if name not in flags:
                argv += [name, default]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        case = (text, command)
        codes.append((flaw, code))
        if flaw:
            assert code == 2, case
            assert err.getvalue().startswith("dustmie: config error: malformed config"), case
        assert code in (0, 2, 3), case
        if code:
            assert out.getvalue() == "", case
        else:
            rows = parse_csv(out.getvalue())[3]
            assert rows and all(np.isfinite(row).all() for row in rows), case
    # every flaw is drawn, and some well-formed files run
    assert {flaw for flaw, _ in codes} == set(CONFIG_FLAWS)
    assert (None, 0) in codes
