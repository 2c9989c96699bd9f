"""Sweep grids and the table format emitted by the CLI."""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Iterable

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
    """Rectangular result table with units and reproducibility metadata."""

    names: list[str]
    units: list[str]
    rows: list[list[float]]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.names) != len(self.units):
            raise ConfigError("column names and units differ in length")
        for row in self.rows:
            if len(row) != len(self.names):
                raise ConfigError("ragged sweep table row")

    @staticmethod
    def _fmt(v: float) -> str:
        return f"{v:.11e}"   # 12 significant digits

    def to_csv(self) -> str:
        lines = [f"# {k} = {self.metadata[k]}" for k in sorted(self.metadata)]
        lines.append(",".join(self.names))
        lines.append(",".join(self.units))
        for row in self.rows:
            lines.append(",".join(self._fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "metadata": {k: str(v) for k, v in self.metadata.items()},
            "columns": self.names,
            "units": self.units,
            "rows": [[self._fmt(v) for v in row] for row in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, path, fmt: str = "csv") -> None:
        text = self.to_csv() if fmt == "csv" else self.to_json()
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc


def config_hash(items: Iterable[tuple[str, object]]) -> str:
    """Short stable hash over (key, value) pairs for run metadata."""
    blob = json.dumps(sorted((k, repr(v)) for k, v in items)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
