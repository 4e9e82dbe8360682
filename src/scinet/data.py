"""CSV ingestion, chronological splitting, normalization, and windowing."""

from __future__ import annotations

import calendar
import csv
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime
from itertools import chain, compress

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
    rows: np.ndarray | None = None  # each kept row's number among the file's non-blank rows; None: no gaps
    first_rejected_line: int | None = None  # file line of the first row dropped for NaN/inf

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_variates(self) -> int:
        return self.values.shape[1]


def load_csv(path: str, timestamp_column: str | None = "date") -> TimeSeriesFrame:
    """Read a headered CSV of float columns, keeping one column as timestamps.

    A row containing NaN or infinity in any variate is dropped and counted in
    ``rejected_rows``, and ``rows`` then keeps each kept row's number, so
    windows can skip the gap; an unparseable cell is an error naming its row
    and column by its line in the file (blank lines are skipped but counted).
    ``timestamp_column=None`` treats every column as a variate.

    The header is read with ``csv``, the rows with NumPy's C parser, whose
    float cells go through the routine ``float()`` uses, so the values are
    bit for bit those of ``float(cell)``. A file NumPy cannot read whole goes
    through the per-row parse instead, which gives the same values or the
    error that names the first bad cell.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(filter(None, csv.reader(fh)), None)  # a blank line is neither a row nor a gap
            if header is None:
                raise ConfigError(f"empty csv file: {path}")
            header = [c.strip() for c in header]
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
            # NumPy warns on input without rows, so the first data line is looked for here
            first = next((line for line in fh if line not in ("\n", "\r\n", "\r")), None)
            if first is None:
                raise ConfigError(f"no usable data rows in {path}")
            try:
                values, stamps = _read_table(chain([first], fh), len(header), ts_idx)
            except ValueError:
                values, stamps = _read_rows(path, header, ts_idx)
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not {e.encoding} text: it holds byte 0x{e.object[e.start]:02x}") from None
    good = np.isfinite(values).all(axis=1)
    if not good.any():
        raise ConfigError(f"no usable data rows in {path}")
    rejected = np.flatnonzero(~good)
    if rejected.size:
        values = values[good]
    return TimeSeriesFrame(
        values=values,
        variate_names=variate_names,
        timestamps=None if stamps is None else [s.strip() for s in compress(stamps, good.tolist())],
        rejected_rows=rejected.size,
        rows=np.flatnonzero(good) + 2 if rejected.size else None,
        first_rejected_line=_file_line(path, int(rejected[0]) + 2) if rejected.size else None,
    )


def _read_table(lines, n_columns: int, ts_idx: int | None):
    """Every data row's floats and raw timestamp cell, read by NumPy; ValueError if a row does not parse."""
    options = dict(delimiter=",", quotechar='"', comments=None, ndmin=1)
    # one structured row per line, so a row with too few or too many cells is an error
    if ts_idx is None:
        return np.loadtxt(lines, dtype=[("all", np.float64, (n_columns,))], **options)["all"], None
    fields = [("before", np.float64, (ts_idx,)), ("stamp", object), ("after", np.float64, (n_columns - ts_idx - 1,))]
    table = np.loadtxt(lines, dtype=fields, **options)
    return np.concatenate([table["before"], table["after"]], axis=1), table["stamp"].tolist()


def _read_rows(path: str, header: list[str], ts_idx: int | None):
    """``_read_table`` one row at a time with ``csv`` and ``float()``, raising on the first bad row or cell."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [r for r in csv.reader(fh) if r][1:]
    values, stamps = [], []
    for r, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ConfigError(f"{path} row {_file_line(path, r)}: expected {len(header)} cells, got {len(row)}")
        vals = []
        for i, cell in enumerate(row):
            if i == ts_idx:
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise ConfigError(
                    f"{path} row {_file_line(path, r)}, column {header[i]!r}: cannot parse {cell.strip()!r} as a number"
                ) from None
        values.append(vals)
        if ts_idx is not None:
            stamps.append(row[ts_idx])
    return np.array(values, dtype=np.float64), None if ts_idx is None else stamps


def _file_line(path: str, row: int) -> int:
    """The file line of the ``row``-th non-blank csv row (the header is row 1), counting blank lines."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for count, _ in enumerate(filter(None, reader), start=1):
            if count == row:
                return reader.line_num
    raise ValueError(f"{path} has fewer than {row} rows")


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
        aware = [t.tzinfo is not None for t in stamps]
        if len(set(aware)) > 1:
            odd = aware.index(not aware[0])
            raise ConfigError(f"timestamp {frame.timestamps[odd]!r} {'has' if aware[odd] else 'lacks'} a time "
                              f"zone, unlike {frame.timestamps[0]!r}; they cannot be ordered")
        for a, b in zip(stamps, stamps[1:]):
            if b <= a:
                raise ConfigError(f"timestamps must be strictly increasing; {b} follows {a}")
        try:
            b1, b2, b3 = (_add_months(stamps[0], m) for m in (spec.parts[0], sum(spec.parts[:2]), sum(spec.parts)))
        except (ValueError, OverflowError):
            raise ConfigError(f"split {spec} runs past year {datetime.max.year} from {stamps[0]}") from None
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
    segment boundary. Given ``rows`` (``TimeSeriesFrame.rows``), a window
    whose rows are not consecutive in the file is excluded and counted in
    ``excluded``. The windows are a strided (window, variate, time) view of
    the series, not a copy of it.
    """

    def __init__(self, values: np.ndarray, segment: tuple[int, int], look_back: int, horizon: int,
                 rows: np.ndarray | None = None):
        start, stop = segment
        if not (0 <= start < stop <= values.shape[0]):
            raise ConfigError(f"segment {segment} out of range for {values.shape[0]} rows")
        size = look_back + horizon
        if stop - start < size:
            raise ConfigError(f"segment of {stop - start} rows is shorter than look_back + horizon = {size}")
        self.look_back = look_back
        self.windows = np.lib.stride_tricks.sliding_window_view(values[start:stop], size, axis=0)
        self.starts = np.arange(len(self.windows))
        if rows is not None:
            self.starts = np.flatnonzero(rows[start + size - 1:stop] - rows[start:stop - size + 1] == size - 1)
        self.excluded = len(self.windows) - len(self.starts)
        if not len(self.starts):
            raise ConfigError(f"every window of segment {segment} spans a rejected row")

    def __len__(self) -> int:
        return len(self.starts)

    def gather(self, indices: np.ndarray) -> tuple[Tensor, Tensor]:
        """Assemble (batch, variates, time) input and target tensors."""
        batch = self.windows[self.starts[indices]]
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
