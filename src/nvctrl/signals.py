"""Sampled signals: FID traces and magnitude spectra, with CSV/JSON round trips.

CSV files are the plotting interface: one header row, then `repr(float)`
columns so that reading a file back reproduces the arrays bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class FidTrace:
    """Free-induction-decay record: populations sampled on a delay grid."""

    tau_us: np.ndarray
    signal: np.ndarray
    protocol: str | None = None  # None: not known, as for a trace read from CSV

    def __post_init__(self):
        tau = _frozen_array(self.tau_us)
        sig = _frozen_array(self.signal)
        if tau.ndim != 1 or tau.size == 0 or np.any(np.diff(tau) <= 0):
            raise ValueError("tau grid must be non-empty and strictly increasing")
        if sig.shape != tau.shape:
            raise ValueError("signal and tau grid must have the same length")
        if np.any(sig < -1e-9) or np.any(sig > 1 + 1e-9):
            raise ValueError("signal values must lie in [0, 1]")
        object.__setattr__(self, "tau_us", tau)
        object.__setattr__(self, "signal", sig)

    def to_csv(self, path) -> None:
        write_csv(path, ("tau_us", "signal"), (self.tau_us, self.signal))

    @classmethod
    def from_csv(cls, path, protocol: str | None = None) -> "FidTrace":
        cols = read_csv(path, ("tau_us", "signal"))
        return cls(cols[0], cols[1], protocol)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Magnitude spectrum on a frequency grid, with processing metadata."""

    freq_mhz: np.ndarray
    amplitude: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        freq = _frozen_array(self.freq_mhz)
        amp = _frozen_array(self.amplitude)
        if freq.ndim != 1 or freq.size == 0 or np.any(np.diff(freq) <= 0):
            raise ValueError("frequency grid must be non-empty and strictly increasing")
        if amp.shape != freq.shape:
            raise ValueError("amplitude and frequency grid must have the same length")
        object.__setattr__(self, "freq_mhz", freq)
        object.__setattr__(self, "amplitude", amp)

    @property
    def resolution_mhz(self) -> float:
        return float(self.freq_mhz[1] - self.freq_mhz[0]) if self.freq_mhz.size > 1 else 0.0

    def to_csv(self, path) -> None:
        write_csv(path, ("freq_mhz", "amplitude"), (self.freq_mhz, self.amplitude))


# rows per block of `write_csv`: only one block's text is held at once
_CSV_BLOCK_ROWS = 4096


def write_csv(path, header, columns) -> None:
    """Write columns of floats with a header row; repr() keeps full precision.
    Columns of different lengths are a ValueError, and nothing is written.
    The rows go out `_CSV_BLOCK_ROWS` at a time, so a long table never holds
    its whole text in memory."""
    table = np.column_stack(columns).astype(float, copy=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            cells = [map(repr, col) for col in table[start : start + _CSV_BLOCK_ROWS].T.tolist()]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_csv(path, expected_header=None) -> list[np.ndarray]:
    text = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if len(text) < 2:
        raise ValueError(f"no data rows in {path}")
    header = tuple(text[0].split(","))
    if expected_header is not None and header != tuple(expected_header):
        raise ValueError(f"unexpected CSV header {header!r} in {path}")
    rows = text[1:]
    width = rows[0].count(",") + 1
    if any(row.count(",") != width - 1 for row in rows):
        raise ValueError(f"rows of different lengths in {path}")
    fields = ",".join(rows).split(",")
    data = np.fromiter(map(float, fields), dtype=float, count=len(fields)).reshape(len(rows), width)
    if not np.isfinite(data).all():
        raise ValueError(f"non-finite value in {path}")
    return [data[:, j] for j in range(data.shape[1])]


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def local_maxima(amplitude: np.ndarray) -> np.ndarray:
    """Indices of strict interior local maxima."""
    a = np.asarray(amplitude)
    if a.size < 3:
        return np.array([], dtype=int)
    inner = (a[1:-1] > a[:-2]) & (a[1:-1] > a[2:])
    return np.nonzero(inner)[0] + 1


def top_peaks(spectrum: Spectrum, n: int) -> list[tuple[float, float]]:
    """The n largest local maxima as (frequency, amplitude), amplitude-sorted."""
    if n < 1:
        raise ValueError(f"need at least one peak, got n = {n!r}")
    idx = local_maxima(spectrum.amplitude)
    order = idx[np.argsort(-spectrum.amplitude[idx], kind="stable")][:n]
    return [(float(spectrum.freq_mhz[i]), float(spectrum.amplitude[i])) for i in order]

