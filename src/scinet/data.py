"""CSV ingestion, chronological splitting, normalization, and windowing."""

from __future__ import annotations

import calendar
import csv
import math
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .errors import ConfigError
from .tensor import Tensor


@dataclass
class TimeSeriesFrame:
    """A multivariate series: values[t, v] plus optional row timestamps."""

    values: np.ndarray
    variate_names: list[str]
    timestamps: list[str] | None = None
    rejected_rows: int = 0

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_variates(self) -> int:
        return self.values.shape[1]


def load_csv(path: str, timestamp_column: str | None = "date") -> TimeSeriesFrame:
    """Read a headered CSV of float columns, keeping one column as timestamps.

    A row containing NaN or infinity in any variate is dropped and counted in
    ``rejected_rows``; an unparseable cell is an error naming its row and
    column. ``timestamp_column=None`` treats every column as a variate.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]
    if not rows:
        raise ConfigError(f"empty csv file: {path}")
    header = [c.strip() for c in rows[0]]
    if all(_parses_as_float(c) for c in header):
        raise ConfigError(f"first row of {path} looks numeric; expected a header row")
    ts_idx = None
    if timestamp_column is not None:
        if timestamp_column not in header:
            raise ConfigError(f"timestamp column {timestamp_column!r} not found in {path}")
        ts_idx = header.index(timestamp_column)
    variate_names = [h for i, h in enumerate(header) if i != ts_idx]
    if not variate_names:
        raise ConfigError(f"no variate columns in {path}")
    timestamps: list[str] | None = [] if ts_idx is not None else None
    kept: list[list[float]] = []
    rejected = 0
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ConfigError(f"{path} row {r}: expected {len(header)} cells, got {len(row)}")
        vals = []
        for i, cell in enumerate(row):
            if i == ts_idx:
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise ConfigError(
                    f"{path} row {r}, column {header[i]!r}: cannot parse {cell.strip()!r} as a number"
                ) from None
        if any(math.isnan(v) or math.isinf(v) for v in vals):
            rejected += 1
            continue
        kept.append(vals)
        if timestamps is not None:
            timestamps.append(row[ts_idx].strip())
    if not kept:
        raise ConfigError(f"no usable data rows in {path}")
    return TimeSeriesFrame(
        values=np.asarray(kept, dtype=np.float64),
        variate_names=variate_names,
        timestamps=timestamps,
        rejected_rows=rejected,
    )


def _parses_as_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def write_csv(frame: TimeSeriesFrame, path: str, timestamp_column: str = "date") -> None:
    # csv writes a float as its repr, so a written series reads back bit for bit
    header = frame.variate_names
    rows = frame.values.tolist()
    if frame.timestamps is not None:
        header = [timestamp_column] + header
        rows = [[ts] + row for ts, row in zip(frame.timestamps, rows)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclass(frozen=True)
class SplitSpec:
    """Chronological three-way split, either by row ratio or by months."""

    mode: str  # "ratio" or "months"
    parts: tuple[int, int, int]

    @classmethod
    def parse(cls, text: str) -> "SplitSpec":
        try:
            mode, rest = text.split(":", 1)
            parts = tuple(int(p) for p in rest.split(","))
        except ValueError:
            raise ConfigError(f"split must look like 'ratio:6,2,2' or 'months:12,4,4', got {text!r}") from None
        if mode not in ("ratio", "months") or len(parts) != 3 or any(p <= 0 for p in parts):
            raise ConfigError(f"split must name ratio/months with three positive parts, got {text!r}")
        return cls(mode, parts)  # type: ignore[arg-type]

    def __str__(self) -> str:
        return f"{self.mode}:{self.parts[0]},{self.parts[1]},{self.parts[2]}"


def split(frame: TimeSeriesFrame, spec: SplitSpec) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """Return train/validation/test index ranges [start, stop), train first.

    Ratio mode floors the validation and test sizes and gives any remainder
    to train. Months mode walks calendar months forward from the first
    timestamp, so it needs a timestamp column with strictly increasing,
    parseable datetimes.
    """
    n = frame.length
    if spec.mode == "ratio":
        total = sum(spec.parts)
        n_val = n * spec.parts[1] // total
        n_test = n * spec.parts[2] // total
        n_train = n - n_val - n_test
    else:
        if frame.timestamps is None:
            raise ConfigError("months split requires a timestamp column")
        stamps = [_parse_stamp(t) for t in frame.timestamps]
        for a, b in zip(stamps, stamps[1:]):
            if b <= a:
                raise ConfigError(f"timestamps must be strictly increasing; {b} follows {a}")
        b1 = _add_months(stamps[0], spec.parts[0])
        b2 = _add_months(stamps[0], spec.parts[0] + spec.parts[1])
        b3 = _add_months(stamps[0], sum(spec.parts))
        # rows before each boundary; stamps are strictly increasing
        n_train = bisect_left(stamps, b1)
        n_val = bisect_left(stamps, b2) - n_train
        n_test = bisect_left(stamps, b3) - n_train - n_val
    for name, count in (("train", n_train), ("validation", n_val), ("test", n_test)):
        if count <= 0:
            raise ConfigError(f"{name} segment is empty under split {spec} with {n} rows")
    return (0, n_train), (n_train, n_train + n_val), (n_train + n_val, n_train + n_val + n_test)


def _parse_stamp(text: str) -> datetime:
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise ConfigError(f"cannot parse timestamp {text!r}") from None


def _add_months(stamp: datetime, months: int) -> datetime:
    month0 = stamp.month - 1 + months
    year = stamp.year + month0 // 12
    month = month0 % 12 + 1
    # clamp the day for shorter target months
    day = min(stamp.day, calendar.monthrange(year, month)[1])
    return stamp.replace(year=year, month=month, day=day)


@dataclass
class NormStats:
    """Per-variate z-score parameters fitted on the training segment only."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def invert(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


def fit_normalizer(frame: TimeSeriesFrame, train_range: tuple[int, int]) -> NormStats:
    start, stop = train_range
    chunk = frame.values[start:stop]
    if chunk.shape[0] < 2:
        raise ConfigError(f"training range {train_range} too short to fit a normalizer")
    mean = chunk.mean(axis=0)
    std = chunk.std(axis=0)  # population std, divisor N
    flat = np.flatnonzero(std == 0.0)
    if flat.size:
        name = frame.variate_names[int(flat[0])]
        raise ConfigError(f"variate {name!r} is constant on the training segment; cannot normalize")
    return NormStats(mean=mean, std=std)


class WindowDataset:
    """Sliding look-back/horizon windows over one contiguous segment.

    Window i uses rows [start+i, start+i+look_back) as input and the
    following ``horizon`` rows as target, stride 1, never crossing the
    segment boundary. The windows are a strided (window, variate, time) view
    of the series, not a copy of it.
    """

    def __init__(self, values: np.ndarray, segment: tuple[int, int], look_back: int, horizon: int):
        start, stop = segment
        if not (0 <= start < stop <= values.shape[0]):
            raise ConfigError(f"segment {segment} out of range for {values.shape[0]} rows")
        if stop - start < look_back + horizon:
            raise ConfigError(
                f"segment of {stop - start} rows is shorter than look_back + horizon = {look_back + horizon}"
            )
        self.look_back = look_back
        self.windows = np.lib.stride_tricks.sliding_window_view(values[start:stop], look_back + horizon, axis=0)

    def __len__(self) -> int:
        return self.windows.shape[0]

    def sample(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Window i as (time, variate) input and target views."""
        if not 0 <= i < len(self):
            raise ConfigError(f"window index {i} out of range [0, {len(self)})")
        rows = self.windows[i].T
        return rows[:self.look_back], rows[self.look_back:]

    def gather(self, indices: np.ndarray) -> tuple[Tensor, Tensor]:
        """Assemble (batch, variates, time) input and target tensors."""
        batch = self.windows[indices]
        return Tensor(batch[..., :self.look_back]), Tensor(batch[..., self.look_back:])


def batch_iter(dataset: WindowDataset, batch_size: int, shuffle: bool = False, seed: int = 0):
    """Yield (input, target) tensor batches; the final batch may be short.

    Shuffling permutes window order with a generator seeded by ``seed``, so
    iteration order is a pure function of the seed.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    order = np.arange(len(dataset))
    if shuffle:
        order = np.random.default_rng(seed).permutation(order)
    for at in range(0, len(order), batch_size):
        yield dataset.gather(order[at:at + batch_size])


def synthetic_frame(n: int, n_variates: int, seed: int) -> TimeSeriesFrame:
    """Noiseless sum of two sinusoids plus a linear trend, per variate.

    Periods, phases, amplitudes and trend slopes are drawn once from the
    seed, so the series is fully reproducible.
    """
    if n < 2 or n_variates < 1:
        raise ConfigError(f"need n >= 2 and n_variates >= 1, got {n}, {n_variates}")
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=np.float64)
    cols = []
    for _ in range(n_variates):
        p1 = rng.uniform(40.0, 90.0)
        p2 = rng.uniform(12.0, 30.0)
        a1 = rng.uniform(0.6, 1.4)
        a2 = rng.uniform(0.2, 0.7)
        ph1 = rng.uniform(0.0, 2.0 * np.pi)
        ph2 = rng.uniform(0.0, 2.0 * np.pi)
        slope = rng.uniform(-1.0, 1.0)
        cols.append(a1 * np.sin(2.0 * np.pi * t / p1 + ph1) + a2 * np.sin(2.0 * np.pi * t / p2 + ph2) + slope * t / n)
    values = np.stack(cols, axis=1)
    names = [f"v{i}" for i in range(n_variates)]
    return TimeSeriesFrame(values=values, variate_names=names, timestamps=None)
