import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        x, y = ds.sample(0)
        npt.assert_array_equal(x, [[0.0], [1.0], [2.0], [3.0]])
        npt.assert_array_equal(y, [[4.0], [5.0]])
        x, y = ds.sample(len(ds) - 1)
        npt.assert_array_equal(x, [[14.0], [15.0], [16.0], [17.0]])
        npt.assert_array_equal(y, [[18.0], [19.0]])

    def test_segment_offsets_respected(self):
        values = np.arange(30.0).reshape(30, 1)
        ds = WindowDataset(values, (10, 30), look_back=4, horizon=2)
        x, _ = ds.sample(0)
        assert x[0, 0] == 10.0

    def test_last_window_stays_inside_segment(self):
        values = np.arange(30.0).reshape(30, 1)
        ds = WindowDataset(values, (0, 20), look_back=4, horizon=2)
        _, y = ds.sample(len(ds) - 1)
        assert y[-1, 0] == 19.0  # never reads past row 20

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
        samples = [ds.sample(int(i)) for i in idx]
        assert x.data.tobytes() == np.stack([sx.T for sx, _ in samples]).tobytes()
        assert y.data.tobytes() == np.stack([sy.T for _, sy in samples]).tobytes()
        assert np.shares_memory(ds.windows, values)

    def test_too_short_segment_rejected(self):
        values = np.zeros((10, 1))
        with pytest.raises(ConfigError):
            WindowDataset(values, (0, 5), look_back=4, horizon=2)

    def test_out_of_range_index_rejected(self):
        ds = WindowDataset(np.zeros((10, 1)), (0, 10), look_back=4, horizon=2)
        with pytest.raises(ConfigError):
            ds.sample(len(ds))


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
