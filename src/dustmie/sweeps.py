"""Sweep grids and the labelled-column tables the CLI emits."""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError


def sweep_grid(start: float, stop: float, count: int, spacing: str = "linear") -> np.ndarray:
    """Sweep grid of `count` points from start to stop, linear or log spaced."""
    if count < 2 or count > 10**6:
        raise ConfigError(f"sweep count must be in [2, 1e6], got {count}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"sweep endpoints must be finite, got {start} and {stop}")
    if spacing == "linear":
        return np.linspace(start, stop, count)
    if spacing == "log":
        if start <= 0 or stop <= 0:
            raise ConfigError("log spacing requires positive endpoints")
        return np.geomspace(start, stop, count)
    raise ConfigError(f"unknown spacing {spacing!r}")


@dataclass
class SweepTable:
    """Result table of (name, unit, values) columns of one length, the sweep
    grid first, with reproducibility metadata."""

    columns: list[tuple[str, str, Sequence[float]]]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len({len(values) for _, _, values in self.columns}) > 1:
            raise ConfigError("sweep table columns differ in length")

    @property
    def rows(self) -> list[tuple[float, ...]]:
        """The values, one tuple per grid point."""
        return list(zip(*(values for _, _, values in self.columns)))

    @staticmethod
    def _fmt(v: float) -> str:
        return f"{v:.11e}"   # 12 significant digits

    def to_csv(self) -> str:
        lines = [f"# {k} = {self.metadata[k]}" for k in sorted(self.metadata)]
        names, units, _ = zip(*self.columns)
        lines.append(",".join(names))
        lines.append(",".join(units))
        for row in self.rows:
            lines.append(",".join(self._fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        names, units, _ = zip(*self.columns)
        payload = {
            "metadata": {k: str(v) for k, v in self.metadata.items()},
            "columns": names,
            "units": units,
            "rows": [[self._fmt(v) for v in row] for row in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def render(self, fmt: str) -> str:
        """The table as "csv" or "json" text."""
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown table format {fmt!r}")
        return self.to_csv() if fmt == "csv" else self.to_json()

    def write(self, path, fmt: str = "csv") -> None:
        text = self.render(fmt)
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc


def config_hash(items: Iterable[tuple[str, object]]) -> str:
    """Short stable hash over (key, value) pairs for run metadata."""
    blob = json.dumps(sorted((k, repr(v)) for k, v in items)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
