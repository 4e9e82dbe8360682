import csv
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scinet import data
from scinet.data import (
    SplitSpec,
    TimeSeriesFrame,
    WindowDataset,
    batch_iter,
    fit_normalizer,
    load_csv,
    split,
    synthetic_frame,
    write_csv,
)
from scinet.errors import ConfigError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestLoadCsv:
    def test_basic_frame(self, tmp_path):
        p = tmp_path / "a.csv"
        write_lines(p, [
            "date,u,v",
            "2020-01-01 00:00:00,1.0,2.0",
            "2020-01-01 01:00:00,3.0,4.0",
        ])
        frame = load_csv(p)
        assert frame.variate_names == ["u", "v"]
        assert frame.timestamps == ["2020-01-01 00:00:00", "2020-01-01 01:00:00"]
        npt.assert_array_equal(frame.values, [[1.0, 2.0], [3.0, 4.0]])
        assert frame.rejected_rows == 0

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheets' "CSV UTF-8" exports start with one; this file also takes the per-row parse (1_000)
        # and names the line of its dropped row, the two other reads of the file
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbfdate,u\nt0,1.0\n\nt1,nan\nt2,1_000\n")
        frame = load_csv(p)
        assert frame.variate_names == ["u"] and frame.timestamps == ["t0", "t2"]
        assert frame.values.tolist() == [[1.0], [1000.0]]
        assert frame.first_rejected_line == 4

    def test_missing_header_detected(self, tmp_path):
        # a first row of pure numbers means the header is missing
        p = tmp_path / "h.csv"
        write_lines(p, ["1.0,2.0,3.0", "4.0,5.0,6.0"])
        with pytest.raises(ConfigError, match="header"):
            load_csv(p, timestamp_column=None)

    def test_nan_rows_dropped_and_counted(self, tmp_path):
        p = tmp_path / "n.csv"
        write_lines(p, [
            "date,u",
            "t0,1.0",
            "t1,nan",
            "t2,3.0",
            "t3,inf",
        ])
        frame = load_csv(p)
        npt.assert_array_equal(frame.values, [[1.0], [3.0]])
        assert frame.rejected_rows == 2
        assert frame.timestamps == ["t0", "t2"]

    def test_unparseable_cell_names_location(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_lines(p, ["date,u,v", "t0,1.0,2.0", "t1,oops,4.0"])
        with pytest.raises(ConfigError) as exc:
            load_csv(p)
        msg = str(exc.value)
        assert "row 3" in msg and "u" in msg

    def test_error_names_the_file_line_after_a_blank_line(self, tmp_path):
        p = tmp_path / "blank.csv"
        write_lines(p, ["date,u", "t0,1.0", "", "t1,oops"])
        with pytest.raises(ConfigError, match=r"row 4, column 'u'"):
            load_csv(p)

    def test_blank_line_is_not_a_gap(self, tmp_path):
        p = tmp_path / "blank.csv"
        write_lines(p, ["date,u", "t0,1.0", "", "t1,nan", "t2,3.0"])
        frame = load_csv(p)
        npt.assert_array_equal(frame.rows, [2, 4])  # the blank line is not counted; the NaN row is
        assert frame.first_rejected_line == 4

    @pytest.mark.parametrize("text,message", [
        ("", "empty csv file"),
        ("\r\n\n", "empty csv file"),
        ("date,u\n", "no usable data rows"),
        ("date,u\r\n\r\n\n", "no usable data rows"),
        ("date,u\nt0,nan\nt1,inf\n", "no usable data rows"),
    ])
    def test_file_without_usable_rows_rejected(self, tmp_path, text, message):
        # NumPy warns on input without rows, and a warning fails this suite, so these show none is raised
        p = tmp_path / "e.csv"
        p.write_bytes(text.encode())
        with pytest.raises(ConfigError, match=message):
            load_csv(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        write_lines(p, ["date,u,v", "t0,1.0,2.0", "t1,3.0"])
        with pytest.raises(ConfigError):
            load_csv(p)

    def test_no_timestamp_column(self, tmp_path):
        p = tmp_path / "s.csv"
        write_lines(p, ["u,v", "1.0,2.0", "3.0,4.0"])
        frame = load_csv(p, timestamp_column=None)
        assert frame.timestamps is None
        assert frame.variate_names == ["u", "v"]

    def test_missing_timestamp_column_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        write_lines(p, ["stamp,u", "t0,1.0"])
        with pytest.raises(ConfigError, match="date"):
            load_csv(p)

    def test_round_trip_through_write_csv(self, tmp_path):
        frame = synthetic_frame(20, 3, seed=5)
        p = tmp_path / "rt.csv"
        write_csv(frame, p)
        back = load_csv(p, timestamp_column=None)
        npt.assert_array_equal(back.values, frame.values)
        assert back.variate_names == frame.variate_names

    def test_round_trip_with_timestamps(self, tmp_path):
        frame = synthetic_frame(6, 2, seed=5)
        frame.timestamps = [f"2021-03-0{d} 00:00:00" for d in range(1, 7)]
        p = tmp_path / "rts.csv"
        write_csv(frame, p)
        back = load_csv(p)
        npt.assert_array_equal(back.values, frame.values)
        assert back.timestamps == frame.timestamps


def reference_load_csv(path, timestamp_column="date"):
    """load_csv as one csv.reader pass and a float() per cell, with the messages load_csv gives."""

    def file_line(row):
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for count, _ in enumerate(filter(None, reader), start=1):
                if count == row:
                    return reader.line_num

    def numeric(cell):
        try:
            float(cell)
        except ValueError:
            return False
        return True

    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise ConfigError(f"empty csv file: {path}")
    header = [c.strip() for c in rows[0]]
    if all(numeric(c) for c in header):
        raise ConfigError(f"first row of {path} looks numeric; expected a header row")
    ts_idx = None
    if timestamp_column is not None:
        if timestamp_column not in header:
            raise ConfigError(f"timestamp column {timestamp_column!r} not found in {path}")
        ts_idx = header.index(timestamp_column)
    variate_names = [h for i, h in enumerate(header) if i != ts_idx]
    if not variate_names:
        raise ConfigError(f"no variate columns in {path}")
    timestamps = [] if ts_idx is not None else None
    kept, rejected = [], []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ConfigError(f"{path} row {file_line(r)}: expected {len(header)} cells, got {len(row)}")
        vals = []
        for i, cell in enumerate(row):
            if i == ts_idx:
                continue
            try:
                vals.append(float(cell))
            except ValueError:
                raise ConfigError(
                    f"{path} row {file_line(r)}, column {header[i]!r}: cannot parse {cell.strip()!r} as a number"
                ) from None
        if any(math.isnan(v) or math.isinf(v) for v in vals):
            rejected.append(r)
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
        rejected_rows=len(rejected),
        rows=np.delete(np.arange(2, len(rows) + 1), np.subtract(rejected, 2)) if rejected else None,
        first_rejected_line=file_line(rejected[0]) if rejected else None,
    )


NUMBERS = st.one_of(
    st.floats().map(repr),
    st.floats(min_value=-1e-300, max_value=1e-300).map(repr),  # subnormals among them
    st.sampled_from(["-0.0", "1e-300", "5e-324", "2.2250738585072014e-308", "1e400", "3", ".5", "5.", "-1E5",
                     "NaN", "-nan", "+inf", "-Infinity", "infinity"]),
    st.decimals(allow_nan=False, allow_infinity=False, places=20).map(str),
)
STAMPS = st.one_of(
    st.sampled_from(["2020-01-01 00:00:00", "t0", "", "a b", '"x,y"', '"say ""hi"""', '"two\r\nlines"']),
    st.text(st.characters(codec="utf-8", exclude_characters='",\r\n'), max_size=8),
)
# what one row may be broken by: a cell float() refuses, a cell only float() reads, a cell too few
# or too many, or a line of blanks
FAULTS = [None, None, None, "oops", "1_000", "short", "long", "blanks"]


class TestLoadCsvMatchesThePerRowParse:
    @given(rows=st.integers(1, 50), variates=st.integers(1, 6), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_same_frame_or_same_error(self, csv_dir, rows, variates, data):
        names = data.draw(st.lists(st.sampled_from(["u", "v", "w", "température", "温度", "x y", "z_1"]),
                                   min_size=variates, max_size=variates, unique=True), label="names")
        ts_at = data.draw(st.one_of(st.none(), st.integers(0, variates)), label="ts_at")
        fault = data.draw(st.sampled_from(FAULTS), label="fault")
        fault_row = data.draw(st.integers(0, rows - 1), label="fault_row")
        dress = st.tuples(st.sampled_from(["", " ", "\t"]), NUMBERS, st.sampled_from(["", " "]), st.booleans())
        lines = [",".join(names[:ts_at] + ["date"] + names[ts_at:] if ts_at is not None else names)]
        for r in range(rows):
            cells = [f'"{lead}{x}{trail}"' if quoted else f"{lead}{x}{trail}"
                     for lead, x, trail, quoted in data.draw(st.lists(dress, min_size=variates, max_size=variates))]
            if r == fault_row and fault in ("oops", "1_000"):
                cells[data.draw(st.integers(0, variates - 1))] = fault
            if ts_at is not None:
                cells.insert(ts_at, data.draw(STAMPS))
            line = ",".join(cells[:-1] if r == fault_row and fault == "short" else cells)
            lines.append({"long": line + ",1.0", "blanks": "   "}.get(fault, line) if r == fault_row else line)
        for _ in range(data.draw(st.integers(0, 3), label="blanks")):
            lines.insert(data.draw(st.integers(0, len(lines)), label="blank_at"), "")
        end = data.draw(st.sampled_from(["\n", "\r\n"]), label="line_end")
        path = csv_dir / "same.csv"
        path.write_bytes((end.join(lines) + data.draw(st.sampled_from(["", end]))).encode("utf-8"))
        timestamp_column = None if ts_at is None else "date"
        try:
            want = reference_load_csv(path, timestamp_column)
        except ConfigError as e:
            with pytest.raises(ConfigError) as got:
                load_csv(path, timestamp_column)
            assert str(got.value) == str(e)
            return
        got = load_csv(path, timestamp_column)
        assert got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes()
        assert got.variate_names == want.variate_names
        assert got.timestamps == want.timestamps
        assert (got.rows is None) == (want.rows is None)
        if want.rows is not None:
            npt.assert_array_equal(got.rows, want.rows)
        assert got.rejected_rows == want.rejected_rows
        assert got.first_rejected_line == want.first_rejected_line

    def test_a_clean_file_never_reaches_the_per_row_parse(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the per-row parse ran")

        monkeypatch.setattr(data, "_read_rows", refuse)
        path = tmp_path / "clean.csv"
        path.write_bytes("\r\n".join([
            "u,date,température", "", ' 1.5 ,"2020-01-01, 00:00", -0.0', '"nan",t1,5e-324',
            "", '-Infinity,"t""2""",1e-300', '"2.5" ,  t3  ,"\n7"', "",
        ]).encode("utf-8"))
        frame = load_csv(path)
        assert frame.values.tobytes() == np.array([[1.5, -0.0], [2.5, 7.0]]).tobytes()
        assert frame.timestamps == ["2020-01-01, 00:00", "t3"]
        npt.assert_array_equal(frame.rows, [2, 5])
        assert frame.rejected_rows == 2 and frame.first_rejected_line == 4

    def test_digit_separators_are_read_by_the_per_row_parse(self, tmp_path):
        # float() accepts 1_000 and NumPy refuses it, so the file is read again one row at a time
        path = tmp_path / "underscore.csv"
        write_lines(path, ["date,u", "t0,1.0", "t1,1_000"])
        assert load_csv(path).values.tolist() == [[1.0], [1000.0]]


class TestSplitSpec:
    def test_parse_ratio(self):
        spec = SplitSpec.parse("ratio:6,2,2")
        assert spec.mode == "ratio" and spec.parts == (6, 2, 2)
        assert str(spec) == "ratio:6,2,2"

    def test_parse_months(self):
        spec = SplitSpec.parse("months:12,4,4")
        assert spec.mode == "months" and spec.parts == (12, 4, 4)

    @pytest.mark.parametrize("text", [
        "ratio:6,2", "ratio:6,2,2,1", "days:1,2,3", "ratio:a,b,c",
        "ratio:6,-2,2", "ratio:0,0,0", "months:1.5,1,1", "ratio",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ConfigError):
            SplitSpec.parse(text)


class TestRatioSplit:
    def test_worked_example(self):
        # 10 rows at 6/2/2: val and test floor to 2 each, train keeps the rest
        frame = synthetic_frame(10, 1, seed=0)
        tr, va, te = split(frame, SplitSpec.parse("ratio:6,2,2"))
        assert tr == (0, 6)
        assert va == (6, 8)
        assert te == (8, 10)

    def test_remainder_goes_to_train(self):
        frame = synthetic_frame(11, 1, seed=0)
        tr, va, te = split(frame, SplitSpec.parse("ratio:6,2,2"))
        assert va == (7, 9) and te == (9, 11)
        assert tr == (0, 7)

    def test_segments_cover_frame_in_order(self):
        frame = synthetic_frame(103, 1, seed=0)
        tr, va, te = split(frame, SplitSpec.parse("ratio:7,1,2"))
        assert tr[0] == 0 and tr[1] == va[0]
        assert va[1] == te[0] and te[1] == 103

    def test_empty_segment_rejected(self):
        frame = synthetic_frame(5, 1, seed=0)
        with pytest.raises(ConfigError, match="empty"):
            split(frame, SplitSpec.parse("ratio:8,1,1"))


class TestMonthSplit:
    @staticmethod
    def frame_with_stamps(stamps):
        frame = synthetic_frame(len(stamps), 1, seed=0)
        frame.timestamps = list(stamps)
        return frame

    def test_calendar_month_boundaries(self):
        stamps = []
        for month, days in (("2020-01", 31), ("2020-02", 29), ("2020-03", 31)):
            stamps.extend(f"{month}-{day:02d} 00:00:00" for day in range(1, days + 1))
        frame = self.frame_with_stamps(stamps)
        tr, va, te = split(frame, SplitSpec.parse("months:1,1,1"))
        assert tr == (0, 31)
        assert va == (31, 60)
        assert te == (60, 91)

    def test_rows_past_month_budget_dropped(self):
        stamps = []
        for month, days in (("2020-01", 31), ("2020-02", 29), ("2020-03", 31), ("2020-04", 30)):
            stamps.extend(f"{month}-{day:02d} 00:00:00" for day in range(1, days + 1))
        frame = self.frame_with_stamps(stamps)
        tr, va, te = split(frame, SplitSpec.parse("months:1,1,1"))
        # April rows sit past the combined budget and are left out entirely
        assert te == (60, 91)
        assert te[1] < frame.length

    def test_requires_timestamps(self):
        frame = synthetic_frame(10, 1, seed=0)
        with pytest.raises(ConfigError):
            split(frame, SplitSpec.parse("months:1,1,1"))

    def test_requires_increasing_stamps(self):
        frame = self.frame_with_stamps(
            ["2020-01-01 00:00:00", "2020-01-03 00:00:00", "2020-01-02 00:00:00"]
        )
        with pytest.raises(ConfigError, match="increas"):
            split(frame, SplitSpec.parse("months:1,1,1"))

    def test_unparseable_stamp_rejected(self):
        frame = self.frame_with_stamps(["2020-01-01 00:00:00", "yesterday", "2020-01-03 00:00:00"])
        with pytest.raises(ConfigError, match="yesterday"):
            split(frame, SplitSpec.parse("months:1,1,1"))

    def test_month_arithmetic_clamps_short_months(self):
        # starting on Jan 31, one month later lands on Feb 29 (leap year)
        stamps = [f"2020-01-31 {h:02d}:00:00" for h in range(12)]
        stamps += [f"2020-02-{d:02d} 00:00:00" for d in range(1, 30)]
        stamps += [f"2020-03-{d:02d} 00:00:00" for d in range(1, 31)]
        stamps += [f"2020-04-{d:02d} 00:00:00" for d in range(1, 30)]
        frame = self.frame_with_stamps(stamps)
        tr, va, te = split(frame, SplitSpec.parse("months:1,1,1"))
        # train: Jan 31 hours plus Feb 1..28 rows, all before Feb 29 00:00
        assert tr == (0, 12 + 28)


def make_frame(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    if names is None:
        names = [f"c{i}" for i in range(values.shape[1])]
    return TimeSeriesFrame(values=values, variate_names=names)


class TestNormalizer:
    def test_worked_example(self):
        # train values 0 and 2: mean 1, population std 1
        frame = make_frame([[0.0], [2.0], [100.0]])
        stats = fit_normalizer(frame, (0, 2))
        npt.assert_array_equal(stats.mean, [1.0])
        npt.assert_array_equal(stats.std, [1.0])
        normed = stats.apply(frame.values)
        npt.assert_array_equal(normed, [[-1.0], [1.0], [99.0]])

    def test_population_std_not_sample(self):
        frame = make_frame([[0.0], [1.0], [2.0], [3.0]])
        stats = fit_normalizer(frame, (0, 4))
        assert stats.std[0] == pytest.approx(np.std([0, 1, 2, 3], ddof=0))

    def test_only_train_rows_used(self):
        rng = np.random.default_rng(3)
        frame = make_frame(rng.normal(size=(50, 2)))
        stats = fit_normalizer(frame, (0, 30))
        npt.assert_allclose(stats.mean, frame.values[:30].mean(axis=0))
        npt.assert_allclose(stats.std, frame.values[:30].std(axis=0))

    def test_invert_round_trips(self):
        rng = np.random.default_rng(4)
        frame = make_frame(rng.normal(loc=5.0, scale=3.0, size=(40, 3)))
        stats = fit_normalizer(frame, (0, 40))
        npt.assert_allclose(stats.invert(stats.apply(frame.values)), frame.values, atol=1e-12)

    def test_constant_variate_named(self):
        frame = make_frame(
            np.column_stack([np.arange(10.0), np.full(10, 7.0)]), names=["a", "b"]
        )
        with pytest.raises(ConfigError, match="'b'"):
            fit_normalizer(frame, (0, 10))


class TestWindowDataset:
    def test_window_count(self):
        values = np.zeros((100, 2))
        ds = WindowDataset(values, (0, 100), look_back=48, horizon=24)
        assert len(ds) == 100 - 48 - 24 + 1

    def test_window_contents(self):
        values = np.arange(20.0).reshape(20, 1)
        ds = WindowDataset(values, (0, 20), look_back=4, horizon=2)
        x, y = ds.gather(np.array([0]))
        npt.assert_array_equal(x.data, [[[0.0, 1.0, 2.0, 3.0]]])
        npt.assert_array_equal(y.data, [[[4.0, 5.0]]])
        x, y = ds.gather(np.array([len(ds) - 1]))
        npt.assert_array_equal(x.data, [[[14.0, 15.0, 16.0, 17.0]]])
        npt.assert_array_equal(y.data, [[[18.0, 19.0]]])

    def test_segment_offsets_respected(self):
        values = np.arange(30.0).reshape(30, 1)
        ds = WindowDataset(values, (10, 30), look_back=4, horizon=2)
        x, _ = ds.gather(np.array([0]))
        assert x.data[0, 0, 0] == 10.0

    def test_last_window_stays_inside_segment(self):
        values = np.arange(30.0).reshape(30, 1)
        ds = WindowDataset(values, (0, 20), look_back=4, horizon=2)
        _, y = ds.gather(np.array([len(ds) - 1]))
        assert y.data[0, 0, -1] == 19.0  # never reads past row 20

    def test_gather_layout_is_batch_variate_time(self):
        values = np.arange(24.0).reshape(12, 2)
        ds = WindowDataset(values, (0, 12), look_back=4, horizon=2)
        x, y = ds.gather(np.array([0, 3]))
        assert x.shape == (2, 2, 4) and y.shape == (2, 2, 2)
        npt.assert_array_equal(x.data[0, 0], [0.0, 2.0, 4.0, 6.0])
        npt.assert_array_equal(x.data[0, 1], [1.0, 3.0, 5.0, 7.0])
        npt.assert_array_equal(y.data[1, 0], [14.0, 16.0])

    @given(
        rows=st.integers(2, 40), variates=st.integers(1, 3), look_back=st.integers(1, 8),
        horizon=st.integers(1, 8), data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_gather_is_stacked_samples_of_a_view(self, rows, variates, look_back, horizon, data):
        values = np.random.default_rng(rows).normal(size=(rows + look_back + horizon, variates))
        start = data.draw(st.integers(0, rows - 1), label="start")
        stop = data.draw(st.integers(start + look_back + horizon, values.shape[0]), label="stop")
        ds = WindowDataset(values, (start, stop), look_back, horizon)
        idx = np.array(data.draw(st.lists(st.integers(0, len(ds) - 1), min_size=1, max_size=6), label="idx"))
        x, y = ds.gather(idx)
        assert x.shape == (idx.size, variates, look_back) and y.shape == (idx.size, variates, horizon)
        singles = [ds.gather(np.array([i])) for i in idx]
        assert x.data.tobytes() == np.concatenate([sx.data for sx, _ in singles]).tobytes()
        assert y.data.tobytes() == np.concatenate([sy.data for _, sy in singles]).tobytes()
        assert np.shares_memory(ds.windows, values)

    def test_too_short_segment_rejected(self):
        values = np.zeros((10, 1))
        with pytest.raises(ConfigError):
            WindowDataset(values, (0, 5), look_back=4, horizon=2)

    def test_out_of_range_index_rejected(self):
        ds = WindowDataset(np.zeros((10, 1)), (0, 10), look_back=4, horizon=2)
        with pytest.raises(IndexError):
            ds.gather(np.array([len(ds)]))


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("gaps")


class TestRowGaps:
    @given(
        n=st.integers(2, 40), look_back=st.integers(1, 5), horizon=st.integers(1, 3), data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_window_straddles_a_rejected_row(self, csv_dir, n, look_back, horizon, data):
        # each row holds its own position in the file, so a window's values show the rows it read
        bad = data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1), label="bad")
        path = csv_dir / "gaps.csv"
        write_lines(path, ["u"] + ["nan" if r in bad else f"{r}.0" for r in range(n)])
        frame = load_csv(path, timestamp_column=None)
        assert frame.rejected_rows == len(bad)
        size = look_back + horizon
        if frame.length < size:
            return
        start = data.draw(st.integers(0, frame.length - size), label="start")
        stop = data.draw(st.integers(start + size, frame.length), label="stop")
        firsts = frame.values[start:stop - size + 1, 0]
        clean = [f for f in firsts if not bad & set(range(int(f), int(f) + size))]
        if not clean:
            with pytest.raises(ConfigError, match="rejected row"):
                WindowDataset(frame.values, (start, stop), look_back, horizon, frame.rows)
            return
        ds = WindowDataset(frame.values, (start, stop), look_back, horizon, frame.rows)
        x, y = ds.gather(np.arange(len(ds)))
        read = np.concatenate([x.data, y.data], axis=-1)[:, 0, :]
        npt.assert_array_equal(read, np.add.outer(clean, np.arange(size)))
        assert ds.excluded == len(firsts) - len(clean)

    def test_gap_free_rows_change_nothing(self):
        values = np.random.default_rng(0).normal(size=(30, 2))
        plain = WindowDataset(values, (3, 30), look_back=4, horizon=2)
        ranked = WindowDataset(values, (3, 30), look_back=4, horizon=2, rows=np.arange(2, 32))
        assert len(ranked) == len(plain) and ranked.excluded == 0
        idx = np.arange(len(plain))
        assert ranked.gather(idx)[0].data.tobytes() == plain.gather(idx)[0].data.tobytes()


class TestBatchIter:
    @staticmethod
    def dataset(n=10):
        # n + 4 rows with look_back 3, horizon 2 gives exactly n windows
        values = np.arange(float(n + 4)).reshape(n + 4, 1)
        return WindowDataset(values, (0, n + 4), look_back=3, horizon=2)

    def test_batch_sizes_with_remainder(self):
        ds = self.dataset(10)
        sizes = [x.shape[0] for x, _ in batch_iter(ds, 4)]
        assert sizes == [4, 4, 2]

    def test_unshuffled_order_is_sequential(self):
        ds = self.dataset(6)
        firsts = [x.data[0, 0, 0] for x, _ in batch_iter(ds, 2)]
        assert firsts == [0.0, 2.0, 4.0]

    def test_shuffle_is_seeded(self):
        ds = self.dataset(10)
        a = [x.data[:, 0, 0].tolist() for x, _ in batch_iter(ds, 4, shuffle=True, seed=7)]
        b = [x.data[:, 0, 0].tolist() for x, _ in batch_iter(ds, 4, shuffle=True, seed=7)]
        c = [x.data[:, 0, 0].tolist() for x, _ in batch_iter(ds, 4, shuffle=True, seed=8)]
        assert a == b
        assert a != c

    def test_shuffle_covers_every_window(self):
        ds = self.dataset(10)
        seen = []
        for x, _ in batch_iter(ds, 3, shuffle=True, seed=1):
            seen.extend(x.data[:, 0, 0].tolist())
        assert sorted(seen) == [float(i) for i in range(10)]

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ConfigError):
            list(batch_iter(self.dataset(4), 0))


class TestSyntheticFrame:
    def test_shape_and_names(self):
        frame = synthetic_frame(100, 3, seed=1)
        assert frame.values.shape == (100, 3)
        assert frame.variate_names == ["v0", "v1", "v2"]
        assert frame.timestamps is None

    def test_deterministic_per_seed(self):
        a = synthetic_frame(50, 2, seed=9)
        b = synthetic_frame(50, 2, seed=9)
        c = synthetic_frame(50, 2, seed=10)
        npt.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_values_finite_and_varying(self):
        frame = synthetic_frame(500, 4, seed=2)
        assert np.all(np.isfinite(frame.values))
        assert np.all(frame.values.std(axis=0) > 0.1)
