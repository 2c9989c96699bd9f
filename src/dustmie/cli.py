"""Command-line front end.

Subcommands emit figure-ready sweep tables (CSV or JSON):

  qext         extinction efficiency vs scale parameter or frequency
  spectrum     size PDF / number-density spectrum vs radius per altitude
  attenuation  dust attenuation coefficient vs altitude or frequency
  pathloss     single-shot or Monte-Carlo link budget

Exit codes: 0 success, 2 usage/config error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .channel import AltitudeProfile, LinkGeometry, _k_dust_grid, path_loss
from .dustfield import DustLayerModel, size_pdf
from .errors import ConfigError, DustmieError, RecurrenceOverflowError, \
    SingularDenominatorError
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

    def items(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


_SECTIONS = {
    "wave": {"f": float},
    "particle": {"r": float, "ne": int, "t": float, "m": complex},
    "dust": {"n0": float},
    "link": {"d": float, "d0": float, "h0": float, "theta_deg": float,
             "n_i": float, "sigma_i": float},
}
_KEY_ALIASES = {"t": "T"}


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            conv = _SECTIONS[section][key]
            try:
                value = conv(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
            setattr(cfg, _KEY_ALIASES.get(key, key), value)
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
    meta = {f"config.{k}": v for k, v in cfg.items()}
    meta.update({
        "command": args.command,
        "format": args.format,
        "config_hash": config_hash(cfg.items()),
    })
    # only the flags this subcommand takes
    for key, attr in (("ge_mode", "mode"), ("units_mode", "units"), ("seed", "seed")):
        if hasattr(args, attr):
            meta[key] = getattr(args, attr)
    return meta


def _apply_overrides(cfg: RunConfig, args) -> None:
    for attr in ("f", "r", "ne", "T", "n0", "d", "d0", "h0", "theta_deg",
                 "n_i", "sigma_i"):
        value = getattr(args, attr, None)
        if value is not None:
            setattr(cfg, attr, value)
    if getattr(args, "m", None) is not None:
        try:
            cfg.m = complex(args.m)
        except ValueError as exc:
            raise ConfigError(f"bad refractive index {args.m!r}") from exc


def _particle_template(cfg: RunConfig, ne: int | None = None) -> ParticleState:
    return ParticleState(cfg.r, cfg.ne if ne is None else ne, cfg.T, cfg.m)


def cmd_qext(cfg: RunConfig, args) -> SweepTable:
    grid = sweep_grid(args.start, args.stop, args.count, args.spacing)

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
        radius = grid * WaveSpec.from_frequency(cfg.f).wavelength / (2 * math.pi)
    else:
        frequency = grid
        # an f-sweep takes its radii as given, so they must be valid spheres
        for _, r, ne in groups:
            ParticleState(r, ne, cfg.T, cfg.m)
        radius = np.array([r for _, r, _ in groups])[:, None]
    electrons = np.array([ne for _, _, ne in groups])[:, None]
    q = extinction_efficiency_array(radius, frequency, electrons, cfg.T, cfg.m,
                                    mode=args.mode)
    rows = [[point] + list(col) for point, col in zip(grid, q.T)]
    names = [args.sweep] + [f"q_ext[{label}]" for label, _, _ in groups]
    units = ["1" if args.sweep == "x" else "Hz"] + ["1"] * len(groups)
    table = SweepTable(names, units, rows, _base_metadata(cfg, args))
    table.metadata.update(sweep=args.sweep, start=args.start, stop=args.stop,
                          count=args.count, spacing=args.spacing)
    return table


def cmd_spectrum(cfg: RunConfig, args) -> SweepTable:
    heights = _float_list(args.heights)
    grid = sweep_grid(args.start, args.stop, args.count, args.spacing)
    layer = DustLayerModel(n0=cfg.n0)
    meta = _base_metadata(cfg, args)
    meta.update(sweep="r", start=args.start, stop=args.stop,
                count=args.count, spacing=args.spacing)

    names = ["r"] + [f"pdf[h={h:g}m]" for h in heights]
    units = ["mm"] + ["1/mm"] * len(heights)
    with_nd = layer.n0 is not None
    if with_nd:
        names += [f"n_d[h={h:g}m]" for h in heights]
        units += ["1/(m^3 mm)"] * len(heights)
    else:
        meta["warning"] = "n0 unset; number-density columns omitted"

    columns = [size_pdf(grid, h) for h in heights]
    if with_nd:
        columns += [layer.n0 * pdf for pdf in columns]
    rows = [[r] + list(values) for r, values in zip(grid, zip(*columns))]
    return SweepTable(names, units, rows, meta)


def cmd_attenuation(cfg: RunConfig, args) -> SweepTable:
    if cfg.n0 is None and not args.normalized:
        raise ConfigError(
            "n0 is required for absolute attenuation "
            "(pass --n0 / config [dust] n0, or use --normalized)"
        )
    n0 = 1.0 if args.normalized else cfg.n0
    layer = DustLayerModel(n0=n0)
    grid = sweep_grid(args.start, args.stop, args.count, args.spacing)
    ne_list = _electron_counts(args.group_ne, [0, 1000, 1000000])
    unit_modes = ["physical", "paper"] if args.units == "both" else [args.units]

    if args.sweep == "h":
        heights, frequencies = grid, [cfg.f]
    else:
        heights, frequencies = [cfg.h0], grid
    # the grid is monotone, so its smallest point checks every frequency,
    # also when n0 = 0 and no table is made
    WaveSpec.from_frequency(float(np.min(frequencies)))
    # per charge, one Q_ext table serves every point and units mode; an
    # f-sweep makes it in one kernel call per slice of its frequencies
    k = [_k_dust_grid(heights, frequencies, layer, _particle_template(cfg, ne),
                      unit_modes, args.mode).reshape(len(unit_modes), -1)
         for ne in ne_list]
    columns = [k_ne[i] for i in range(len(unit_modes)) for k_ne in k]
    rows = [[point] + list(values) for point, values in zip(grid, zip(*columns))]
    names = [args.sweep]
    units = ["m" if args.sweep == "h" else "Hz"]
    for um in unit_modes:
        suffix = "" if len(unit_modes) == 1 else f";{um}"
        names += [f"k_dust[Ne={ne:g}{suffix}]" for ne in ne_list]
        units += ["dB/km"] * len(ne_list)
    meta = _base_metadata(cfg, args)
    meta.update(sweep=args.sweep, start=args.start, stop=args.stop,
                count=args.count, spacing=args.spacing,
                normalized_per_n0=bool(args.normalized))
    return SweepTable(names, units, rows, meta)


def cmd_pathloss(cfg: RunConfig, args) -> SweepTable:
    if args.units == "both":
        raise ConfigError("--units both applies to attenuation only; "
                          "pathloss takes physical or paper")
    if cfg.n_i is None or cfg.sigma_i is None:
        raise ConfigError("path loss requires n_i and sigma_i (no defaults exist)")
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    geometry = LinkGeometry(
        h0=cfg.h0, theta=math.radians(cfg.theta_deg), d=cfg.d, d0=cfg.d0,
        n_i=cfg.n_i, sigma_i=cfg.sigma_i,
    )
    w = WaveSpec.from_frequency(cfg.f)
    layer = DustLayerModel(n0=cfg.n0)
    particle = _particle_template(cfg)
    k_abs = (AltitudeProfile.from_file(args.kabs_profile)
             if args.kabs_profile else None)
    meta = _base_metadata(cfg, args)
    meta["trials"] = args.trials

    single = args.trials <= 1
    base = path_loss(geometry, w, layer, particle,
                     shadow_seed=args.seed if single else None,
                     k_abs=k_abs, units_mode=args.units, ge_mode=args.mode)
    if single:
        names = ["fspl", "distance_term", "shadow", "dust_loss", "total"]
        rows = [[base.fspl_db, base.distance_term_db, base.shadow_db,
                 base.dust_loss_db, base.total_db]]
        return SweepTable(names, ["dB"] * 5, rows, meta)

    rng = np.random.default_rng(args.seed)
    chi = rng.normal(0.0, cfg.sigma_i, size=args.trials)
    totals = base.total_db + chi
    names = ["trials", "mean_total", "std_total", "mean_shadow", "std_shadow"]
    units = ["1", "dB", "dB", "dB", "dB"]
    rows = [[float(args.trials), float(np.mean(totals)),
             float(np.std(totals, ddof=1)), float(np.mean(chi)),
             float(np.std(chi, ddof=1))]]
    return SweepTable(names, units, rows, meta)


def _add_sweep_args(sub, default_start, default_stop):
    sub.add_argument("--start", type=float, default=default_start)
    sub.add_argument("--stop", type=float, default=default_stop)
    sub.add_argument("--count", type=int, default=100)
    sub.add_argument("--spacing", choices=["linear", "log"], default="linear")


# Flags beyond --config, --format and --out; each subcommand takes only the
# ones it reads.
_FLAGS = {
    "--mode": dict(choices=["full", "approx"], default="full",
                   help="charge-coefficient evaluation mode"),
    "--units": dict(choices=["physical", "paper", "both"], default="physical",
                    help="kernel units; both (attenuation only) emits "
                         "physical and paper columns side by side"),
    "--seed": dict(type=int, default=None),
    "--kabs-profile": dict(dest="kabs_profile", default=None,
                           help="two-column text profile: altitude_m dB_per_km"),
    **{name: dict(type=conv, default=None,
                  dest=name.lstrip("-").replace("-", "_"))
       for name, conv in [("--f", float), ("--r", float), ("--ne", int),
                          ("--T", float), ("--m", str), ("--n0", float),
                          ("--d", float), ("--d0", float), ("--h0", float),
                          ("--theta-deg", float), ("--n-i", float),
                          ("--sigma-i", float)]},
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
    _add_flags(q, "--mode --f --r --ne --T --m")
    q.add_argument("--sweep", choices=["x", "f"], default="x")
    _add_sweep_args(q, 0.02, 2.0)
    q.add_argument("--group-ne", default=None, help="comma list of electron counts")
    q.add_argument("--group-r", default=None, help="comma list of radii in m")

    s = subs.add_parser("spectrum", help="size PDF / number density sweep")
    _add_flags(s, "--n0")
    _add_sweep_args(s, 0.005, 1.0)
    s.add_argument("--heights", default="100,150,200", help="comma list, m")

    a = subs.add_parser("attenuation", help="dust attenuation coefficient sweep")
    _add_flags(a, "--mode --units --f --T --m --n0 --h0")
    a.add_argument("--sweep", choices=["h", "f"], default="h")
    _add_sweep_args(a, 100.0, 200.0)
    a.add_argument("--group-ne", default=None, help="comma list of electron counts")
    a.add_argument("--normalized", action="store_true",
                   help="emit per-(N0) attenuation when n0 is unknown")

    # the size integral sweeps the radius, so --r has no reader here
    p = subs.add_parser("pathloss", help="link budget evaluation")
    _add_flags(p, "--mode --units --seed --kabs-profile --f --ne --T --m --n0 "
                  "--d --d0 --h0 --theta-deg --n-i --sigma-i")
    p.add_argument("--trials", type=int, default=1,
                   help=">1 runs a Monte-Carlo shadow-fading summary")

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
    try:
        config_path = args.config or os.environ.get(ENV_CONFIG)
        cfg = load_config(config_path) if config_path else RunConfig()
        _apply_overrides(cfg, args)
        table = _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"dustmie: config error: {exc}", file=sys.stderr)
        return 2
    except (RecurrenceOverflowError, SingularDenominatorError) as exc:
        print(f"dustmie: numerical failure: {exc}", file=sys.stderr)
        return 3
    except DustmieError as exc:
        print(f"dustmie: error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        table.write(args.out, fmt=args.format)
    else:
        sys.stdout.write(table.to_csv() if args.format == "csv" else table.to_json())
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
