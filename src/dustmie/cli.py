"""Command-line front end.

Subcommands emit figure-ready sweep tables (CSV or JSON):

  qext         extinction efficiency vs scale parameter or frequency
  spectrum     size PDF / number-density spectrum vs radius per altitude
  attenuation  dust attenuation coefficient vs altitude or frequency
  pathloss     link budget, with one seeded shadow-fading draw

Exit codes: 0 success, 2 usage/config error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .channel import AltitudeProfile, LinkGeometry, _k_dust_grid, path_loss
from .dustfield import DustLayerModel, size_pdf
from .errors import ConfigError, DustmieError, RecurrenceOverflowError
from .mie import ParticleState, WaveSpec, extinction_efficiency_array
from .sweeps import SweepTable, config_hash, sweep_grid

ENV_CONFIG = "DUSTMIE_CONFIG"

# The dust refractive index is an assumption, not measured ground truth: the
# source data never specifies m for SiO2 dust at THz frequencies.
DEFAULT_M = 2.0 - 0.025j


@dataclass
class RunConfig:
    f: float = 300e9            # Hz
    r: float = 20e-6            # m
    ne: int = 10
    T: float = 300.0            # K
    m: complex = DEFAULT_M
    n0: float | None = None     # particles / m^3; no defensible default
    d: float = 1000.0           # m
    d0: float = 10.0            # m
    h0: float = 10000.0         # m
    theta_deg: float = 90.0
    n_i: float | None = None
    sigma_i: float | None = None


# The RunConfig fields each config section holds. A config key is spelled
# like its field, and so is its flag: "--" + the field, "-" for "_".
_SECTIONS = {
    "wave": ("f",),
    "particle": ("r", "ne", "T", "m"),
    "dust": ("n0",),
    "link": ("d", "d0", "h0", "theta_deg", "n_i", "sigma_i"),
}
# every other field is a float
_CONVERTERS = {"ne": int, "m": complex}


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        # interpolation runs as the items are read
        sections = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    cfg = RunConfig()
    for section, items in sections.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        # configparser hands over the keys in lower case
        names = {name.lower(): name for name in _SECTIONS[section]}
        for key, raw in items:
            if key not in names:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            try:
                value = _CONVERTERS.get(names[key], float)(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
            setattr(cfg, names[key], value)
    return cfg


def _float_list(text: str) -> list[float]:
    """A comma list of numbers; each list names table columns, so an empty
    one is an error, not a table without data columns."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc
    if not values:
        raise ConfigError(f"empty numeric list {text!r}")
    return values


def _electron_counts(text: str | None, default: list[int]) -> list[int]:
    """--group-ne as whole electron counts; a fractional count is an error,
    not something to truncate under a label that shows the fraction."""
    if text is None:
        return default
    counts = _float_list(text)
    for ne in counts:
        if not ne.is_integer():
            raise ConfigError(f"electron count must be a whole number, got {ne!r}")
    return [int(ne) for ne in counts]


def _base_metadata(cfg: RunConfig, args) -> dict:
    # the fields are flat values, so a plain dict of them serves (asdict
    # deep-copies them)
    params = {fld.name: getattr(cfg, fld.name) for fld in fields(cfg)}
    meta = {f"config.{k}": v for k, v in params.items()}
    meta.update({
        "command": args.command,
        "format": args.format,
        "config_hash": config_hash(params.items()),
    })
    # only the flags this subcommand takes, three of them under another name
    renamed = {"mode": "ge_mode", "units": "units_mode",
               "normalized": "normalized_per_n0"}
    for attr in ("mode", "units", "normalized", "seed",
                 "sweep", "start", "stop", "count", "spacing"):
        if hasattr(args, attr):
            meta[renamed.get(attr, attr)] = getattr(args, attr)
    return meta


def _apply_overrides(cfg: RunConfig, args) -> None:
    for fld in fields(cfg):
        value = getattr(args, fld.name, None)
        if value is not None:
            setattr(cfg, fld.name, value)


# Each sweep variable's default range; an f-sweep's is the paper's band
_SWEEP_RANGES = {"x": (0.02, 2.0), "h": (100.0, 200.0), "r": (0.005, 1.0),
                 "f": (1e11, 1e13)}


def _sweep_grid(args) -> np.ndarray:
    """The sweep's grid; an unset end takes its default, as the metadata says."""
    start, stop = _SWEEP_RANGES[args.sweep]
    args.start = start if args.start is None else args.start
    args.stop = stop if args.stop is None else args.stop
    return sweep_grid(args.start, args.stop, args.count, args.spacing)


def cmd_qext(cfg: RunConfig, args) -> SweepTable:
    grid = _sweep_grid(args)

    if args.sweep == "x" and args.group_r is not None:
        raise ConfigError("grouping by radius only applies to frequency sweeps")
    if args.ne is not None and args.group_r is None:
        raise ConfigError("--ne applies to --group-r columns only; "
                          "set the electron counts with --group-ne")
    if args.group_r is not None:
        groups = [("r=%g_m" % r, r, cfg.ne) for r in _float_list(args.group_r)]
    else:
        groups = [("Ne=%g" % ne, cfg.r, ne)
                  for ne in _electron_counts(args.group_ne, [0, 10, 100])]

    # the whole table is one batch: a radius and an electron count per
    # column, against the grid of sweep points
    if args.sweep == "x":
        frequency = cfg.f
        # a wavelength or radius beyond the float range (0 x inf is nan)
        # is named by the kernel's checks
        with np.errstate(over="ignore", invalid="ignore"):
            radius = grid * WaveSpec(cfg.f).wavelength / (2 * math.pi)
    else:
        frequency = grid
        # an f-sweep takes its radii as given, so they must be valid spheres
        for _, r, ne in groups:
            ParticleState(r, ne, cfg.T, cfg.m)
        radius = np.array([r for _, r, _ in groups])[:, None]
    electrons = np.array([ne for _, _, ne in groups])[:, None]
    q = extinction_efficiency_array(radius, frequency, electrons, cfg.T, cfg.m,
                                    mode=args.mode)
    columns = [(args.sweep, "1" if args.sweep == "x" else "Hz", grid)]
    columns += [(f"q_ext[{label}]", "1", values)
                for (label, _, _), values in zip(groups, q)]
    return SweepTable(columns, _base_metadata(cfg, args))


def cmd_spectrum(cfg: RunConfig, args) -> SweepTable:
    heights = _float_list(args.heights)
    grid = _sweep_grid(args)
    layer = DustLayerModel(n0=cfg.n0)
    meta = _base_metadata(cfg, args)

    pdfs = size_pdf(grid, np.array(heights)[:, None])
    columns = [("r", "mm", grid)]
    columns += [(f"pdf[h={h:g}m]", "1/mm", pdf) for h, pdf in zip(heights, pdfs)]
    if layer.n0 is None:
        meta["warning"] = "n0 unset; number-density columns omitted"
    else:
        # an n0 near the float range overflows the density: a cell the
        # table's finiteness check names
        with np.errstate(over="ignore"):
            columns += [(f"n_d[h={h:g}m]", "1/(m^3 mm)", layer.n0 * pdf)
                        for h, pdf in zip(heights, pdfs)]
    return SweepTable(columns, meta)


def cmd_attenuation(cfg: RunConfig, args) -> SweepTable:
    if cfg.n0 is None and not args.normalized:
        raise ConfigError(
            "n0 is required for absolute attenuation "
            "(pass --n0 / config [dust] n0, or use --normalized)"
        )
    n0 = 1.0 if args.normalized else cfg.n0
    layer = DustLayerModel(n0=n0)
    grid = _sweep_grid(args)
    ne_list = _electron_counts(args.group_ne, [0, 1000, 1000000])
    unit_modes = ["physical", "paper"] if args.units == "both" else [args.units]

    if args.sweep == "h":
        heights, frequencies = grid, [cfg.f]
    else:
        heights, frequencies = [cfg.h0], grid
    # one Q_ext table serves every point, --group-ne charge and units mode
    k = _k_dust_grid(heights, frequencies, ne_list, layer, cfg.T, cfg.m, unit_modes,
                     args.mode).reshape(len(unit_modes), len(ne_list), -1)
    columns = [(args.sweep, "m" if args.sweep == "h" else "Hz", grid)]
    for um, k_um in zip(unit_modes, k):
        suffix = "" if len(unit_modes) == 1 else f";{um}"
        columns += [(f"k_dust[Ne={ne:g}{suffix}]", "dB/km", k_ne)
                    for ne, k_ne in zip(ne_list, k_um)]
    return SweepTable(columns, _base_metadata(cfg, args))


def cmd_pathloss(cfg: RunConfig, args) -> SweepTable:
    if args.units == "both":
        raise ConfigError("--units both applies to attenuation only; "
                          "pathloss takes physical or paper")
    if cfg.n_i is None or cfg.sigma_i is None:
        raise ConfigError("path loss requires n_i and sigma_i (no defaults exist)")
    geometry = LinkGeometry(
        h0=cfg.h0, theta=math.radians(cfg.theta_deg), d=cfg.d, d0=cfg.d0,
        n_i=cfg.n_i, sigma_i=cfg.sigma_i,
    )
    w = WaveSpec(cfg.f)
    layer = DustLayerModel(n0=cfg.n0)
    # the size integral sweeps the radius, so the template takes the default
    # one, never the config's unread one
    particle = ParticleState(RunConfig.r, cfg.ne, cfg.T, cfg.m)
    k_abs = (AltitudeProfile.from_file(args.kabs_profile)
             if args.kabs_profile else None)
    loss = path_loss(geometry, w, layer, particle, shadow_seed=args.seed,
                     k_abs=k_abs, units_mode=args.units, ge_mode=args.mode)
    summary = [("fspl", loss.fspl_db), ("distance_term", loss.distance_term_db),
               ("shadow", loss.shadow_db), ("dust_loss", loss.dust_loss_db),
               ("total", loss.total_db)]
    return SweepTable([(name, "dB", [value]) for name, value in summary],
                      _base_metadata(cfg, args))


# Flags beyond --config, --format and --out; each subcommand takes only the
# ones it reads.
_FLAGS = {
    "--mode": dict(choices=["full", "approx"], default="full",
                   help="charge-coefficient evaluation mode"),
    "--units": dict(choices=["physical", "paper", "both"], default="physical",
                    help="kernel units; both (attenuation only) emits "
                         "physical and paper columns side by side"),
    "--seed": dict(type=int),
    "--start": dict(type=float),           # default: `_SWEEP_RANGES`
    "--stop": dict(type=float),
    "--count": dict(type=int, default=100),
    "--spacing": dict(choices=["linear", "log"], default="linear"),
    "--kabs-profile": dict(help="two-column text profile: altitude_m dB_per_km"),
    **{"--" + fld.name.replace("_", "-"): dict(type=_CONVERTERS.get(fld.name, float))
       for fld in fields(RunConfig)},
}


def _add_flags(sub, names: str) -> None:
    sub.add_argument("--config", help=f"config file (or ${ENV_CONFIG})")
    sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    for name in names.split():
        sub.add_argument(name, **_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dustmie",
        description="THz attenuation by charged dust: Mie sweeps and link budgets",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    q = subs.add_parser("qext", help="extinction efficiency sweep")
    _add_flags(q, "--mode --f --r --ne --T --m --start --stop --count --spacing")
    q.add_argument("--sweep", choices=["x", "f"], default="x")
    q.add_argument("--group-ne", default=None, help="comma list of electron counts")
    q.add_argument("--group-r", default=None, help="comma list of radii in m")

    s = subs.add_parser("spectrum", help="size PDF / number density sweep")
    _add_flags(s, "--n0 --start --stop --count --spacing")
    s.add_argument("--heights", default="100,150,200", help="comma list, m")
    s.set_defaults(sweep="r")

    a = subs.add_parser("attenuation", help="dust attenuation coefficient sweep")
    _add_flags(a, "--mode --units --f --T --m --n0 --h0 --start --stop --count "
                  "--spacing")
    a.add_argument("--sweep", choices=["h", "f"], default="h")
    a.add_argument("--group-ne", default=None, help="comma list of electron counts")
    a.add_argument("--normalized", action="store_true",
                   help="emit per-(N0) attenuation when n0 is unknown")

    # the size integral sweeps the radius, so --r has no reader here
    p = subs.add_parser("pathloss", help="link budget evaluation")
    _add_flags(p, "--mode --units --seed --kabs-profile --f --ne --T --m --n0 "
                  "--d --d0 --h0 --theta-deg --n-i --sigma-i")

    return parser


_COMMANDS = {
    "qext": cmd_qext,
    "spectrum": cmd_spectrum,
    "attenuation": cmd_attenuation,
    "pathloss": cmd_pathloss,
}


# Building the parser makes some 60 add_argument calls, each constructing a
# help formatter, at about the cost of a small sweep's physics: build it on
# the first run and share it. parse_args leaves the parser unchanged and
# returns a fresh namespace.
_shared_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    # a warning (the size-spectrum fit's extrapolation) is printed as the
    # CLI's own line, once per distinct message; under an "error" filter a
    # warning of another category (numpy's RuntimeWarning) still raises.
    # The warnings come before an error line, in the order they arose
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        code, error = _run(args)
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"dustmie: warning: {message}", file=sys.stderr)
    if error:
        print(error, file=sys.stderr)
    return code


def _non_finite_cell(table: SweepTable) -> str | None:
    """The first cell of the table that is inf or nan, named by its column
    and its row (and the row's sweep point), or None."""
    grid_name, _, grid = table.columns[0]
    for name, _, values in table.columns:
        bad = np.flatnonzero(~np.isfinite(np.asarray(values, dtype=float)))
        if bad.size:
            row = int(bad[0])
            return (f"column {name} reads {values[row]} in row {row + 1} "
                    f"({grid_name} = {grid[row]:g})")
    return None


def _run(args) -> tuple[int, str | None]:
    """The exit code and the error line, if any, of one run. A table with
    a cell that is not finite is a numerical failure, not an output."""
    try:
        config_path = args.config or os.environ.get(ENV_CONFIG)
        cfg = load_config(config_path) if config_path else RunConfig()
        _apply_overrides(cfg, args)
        table = _COMMANDS[args.command](cfg, args)
        cell = _non_finite_cell(table)
        if cell:
            return 3, f"dustmie: numerical failure: {cell}"
        if args.out:
            table.write(args.out, fmt=args.format)
        else:
            sys.stdout.write(table.render(args.format))
    except ConfigError as exc:
        return 2, f"dustmie: config error: {exc}"
    except RecurrenceOverflowError as exc:
        return 3, f"dustmie: numerical failure: {exc}"
    except DustmieError as exc:
        return 2, f"dustmie: error: {exc}"
    return 0, None


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
