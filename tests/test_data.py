import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtabl.data import (
    MIN_ROWS,
    Dataset,
    RawDayMatrix,
    Windows,
    load_dataset,
    load_day,
    normalize,
    save_dataset,
    split_days,
    standardize,
    synth_generate,
    windowize,
)
from mtabl.errors import ConfigurationError, DataError, FormatError, ParseError
from mtabl.serialize import read_container


def write_day(path, n_rows=45, n_events=30, offset=0.0, seed=0):
    """Synthetic day file: features then five label rows encoded 1/2/3."""
    rng = np.random.default_rng(seed)
    features = rng.normal(offset, 1.0, (n_rows - 5, n_events))
    labels = rng.integers(1, 4, (5, n_events)).astype(float)
    grid = np.vstack([features, labels])
    with open(path, "w") as fh:
        for row in grid:
            fh.write(" ".join(f"{v:.10g}" for v in row) + "\n")
    return grid


class TestLoadDay:
    def test_full_size_fixture(self, tmp_path):
        path = tmp_path / "day1.txt"
        write_day(path, n_rows=149, n_events=1000)
        day = load_day(path)
        assert (day.n_rows, day.n_events) == (149, 1000)

    def test_transposed_flag(self, tmp_path):
        path = tmp_path / "day_t.txt"
        grid = write_day(path, n_rows=45, n_events=60)
        plain = load_day(path)
        with open(tmp_path / "tr.txt", "w") as fh:
            for row in grid.T:
                fh.write(" ".join(f"{v:.10g}" for v in row) + "\n")
        flipped = load_day(tmp_path / "tr.txt", transposed=True)
        assert np.array_equal(plain.values, flipped.values)

    def test_transposed_day_is_windowed_without_a_second_grid(self, tmp_path):
        # A 149 x 3000 day stored with events on rows (a 3.58-MB grid).
        # load_day keeps the transposed view of what it parsed and
        # windowize copies only the 40 feature rows: 4.61 MB measured,
        # 7.15 MB when load_day made a C-ordered copy of the view.
        rng = np.random.default_rng(5)
        grid = rng.normal(size=(149, 3000))
        grid[-5:] = rng.integers(1, 4, (5, 3000))
        path = tmp_path / "tr.txt"
        np.savetxt(path, grid.T, fmt="%.10g")
        tracemalloc.start()
        try:
            windows = windowize(load_day(path, transposed=True), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert windows.series.flags.c_contiguous
        assert np.array_equal(windows.series, np.loadtxt(path)[:, :40].T)
        assert peak <= 1.5 * grid.nbytes

    def test_ragged_row_names_row(self, tmp_path):
        path = tmp_path / "ragged.txt"
        lines = ["1 2 3"] * 50
        lines[6] = "1 2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="row 7"):
            load_day(path)

    def test_non_numeric_token_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        lines = ["1 2 3"] * 50
        lines[2] = "1 oops 3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="row 3, column 2"):
            load_day(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_day(path)

    def test_non_utf8_byte_offset_counts_from_the_file_start(self, tmp_path):
        # The parse decodes the file a chunk at a time; the offset it names
        # must still be the byte's offset in the file, here past 8 KB.
        path = tmp_path / "late.txt"
        write_day(path, n_events=400)
        text = path.read_bytes()
        bad = 40_007
        assert len(text) > bad > 8192
        path.write_bytes(text[:bad] + b"\xff" + text[bad:])
        with pytest.raises(FormatError, match=f"not UTF-8 text .* at byte {bad}\\)"):
            load_day(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("\n".join(["1 2 3"] * 10) + "\n")
        with pytest.raises(FormatError, match=str(MIN_ROWS)):
            load_day(path)


class TestWindowize:
    def day(self, n_events, seed=0):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(45, n_events))
        values[40:] = rng.integers(1, 4, (5, n_events))
        return RawDayMatrix(values=values, source="mem")

    def test_exact_window_gives_one_sample(self):
        samples = windowize(self.day(10), window=10)
        assert len(samples) == 1

    def test_count_and_columns(self):
        day = self.day(12)
        samples = windowize(day, window=10)
        assert len(samples) == 3
        assert not np.shares_memory(samples.series, day.values)  # the raw day may go
        for i, s in enumerate(samples):
            assert s.x.shape == (40, 10)
            assert np.array_equal(s.x, day.values[:40, i:i + 10])

    def test_label_comes_from_window_end_at_horizon_row(self):
        day = self.day(15)
        # Horizon 30 is the third of the five label rows.
        samples = windowize(day, window=10, horizon=30)
        for i, s in enumerate(samples):
            raw = day.values[42, i + 9]
            assert s.label == int(raw) - 1

    def test_label_remap(self):
        day = self.day(10)
        day.values[40, 9] = 2.0  # raw "stationary"
        assert windowize(day, window=10, horizon=10)[0].label == 1

    def test_unknown_label_value(self):
        day = self.day(10)
        day.values[40, 9] = 7.0
        with pytest.raises(DataError, match="unknown label"):
            windowize(day, window=10)

    def test_short_day_warns_and_returns_empty(self):
        with pytest.warns(UserWarning, match="shorter than window"):
            assert len(windowize(self.day(5), window=10)) == 0

    def test_unknown_horizon(self):
        with pytest.raises(ConfigurationError):
            windowize(self.day(10), window=5, horizon=15)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40))
    def test_sample_count_formula(self, n, t):
        if n < t:
            return
        assert len(windowize(self.day(n), window=t)) == n - t + 1


class TestSplitAndNormalize:
    def make_files(self, tmp_path, n=10, n_events=25):
        files = []
        for i in range(n):
            path = tmp_path / f"day{i:02d}.txt"
            # Day index offsets the features so days are distinguishable.
            write_day(path, n_events=n_events, offset=float(i), seed=i)
            files.append(str(path))
        return files

    def test_chronological_day_assignment(self, tmp_path):
        files = self.make_files(tmp_path)
        ds = split_days(files, 6, 1, 3, window=10)
        per_day = 25 - 10 + 1
        assert len(ds.train) == 6 * per_day
        assert len(ds.validation) == 1 * per_day
        assert len(ds.test) == 3 * per_day
        # Names, not paths: the cache does not depend on where the days lie.
        assert ds.provenance["files"] == [f"day{i:02d}.txt" for i in range(10)]

    def test_no_sample_leakage_between_partitions(self, tmp_path):
        files = self.make_files(tmp_path)
        ds = split_days(files, 6, 1, 3, window=10)
        # Day i features were drawn around mean i, so partition means
        # separate cleanly when days are not shared; the z-score is undone
        # to compare them in the days' own units.
        scale, shift = ds.feature_std[:, None], ds.feature_mean[:, None]
        train_mean, val_mean, test_mean = (
            np.mean([(s.x * scale + shift).mean() for s in part])
            for part in (ds.train, ds.validation, ds.test))
        assert train_mean < 3.0 < val_mean + 1.0 < test_mean

    def test_evaluation_only_split(self, tmp_path):
        files = self.make_files(tmp_path, n=3)
        ds = split_days(files, 0, 0, 3, window=10)
        assert not ds.train and not ds.validation
        assert len(ds.test) == 3 * 16

    @pytest.mark.parametrize("train_days", [0, 1])
    def test_raw_series_and_no_statistics_exactly_without_training_days(self, tmp_path,
                                                                        train_days):
        files = self.make_files(tmp_path, n=3)
        ds = split_days(files, train_days, 0, 3 - train_days, window=10)
        raw = np.hstack([load_day(f).values[:40] for f in files[train_days:]])
        assert (ds.feature_mean is None) == (ds.feature_std is None) == (train_days == 0)
        assert np.array_equal(ds.test.series, raw) == (train_days == 0)

    def test_overlapping_request_rejected(self, tmp_path):
        files = self.make_files(tmp_path, n=10)
        with pytest.raises(ConfigurationError, match="12"):
            split_days(files, 7, 2, 3)

    def test_normalization_statistics(self, tmp_path):
        # Every training event counts once, however many windows cover it.
        files = self.make_files(tmp_path, n=4)
        ds = split_days(files, 3, 0, 1, window=10)
        events = np.hstack([load_day(f).values[:40] for f in files[:3]])
        assert np.array_equal(ds.feature_mean, events.mean(axis=1))
        assert np.array_equal(ds.feature_std, events.std(axis=1))
        assert np.abs(ds.train.series.mean(axis=1)).max() <= 1e-9
        assert np.abs(ds.train.series.std(axis=1) - 1.0).max() <= 1e-6

    def test_constant_feature_centered_not_scaled(self, tmp_path):
        path = tmp_path / "const.txt"
        grid = write_day(path, n_events=20, seed=3)
        grid[0, :] = 5.0
        with open(path, "w") as fh:
            for row in grid:
                fh.write(" ".join(f"{v:.10g}" for v in row) + "\n")
        ds = split_days([str(path)], 1, 0, 0, window=10)
        for s in ds.train:
            assert np.abs(s.x[0]).max() <= 1e-12

    def test_test_partition_uses_train_statistics(self, tmp_path):
        # The test day is shifted by +10; its normalized mean must stay
        # far from zero because the statistics come from training days.
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        write_day(a, n_events=30, offset=0.0, seed=1)
        write_day(b, n_events=30, offset=10.0, seed=2)
        ds = split_days([str(a), str(b)], 1, 0, 1, window=10)
        test_mean = np.mean([s.x.mean() for s in ds.test])
        assert abs(test_mean) > 1.0

    def test_statistics_pure_function_of_train_partition(self, tmp_path):
        files = self.make_files(tmp_path, n=4)
        ds1 = split_days(files, 2, 1, 1, window=10)
        ds2 = split_days(files[:2] + files[2:], 2, 2, 0, window=10)
        assert np.array_equal(ds1.feature_mean, ds2.feature_mean)
        assert np.array_equal(ds1.feature_std, ds2.feature_std)

    def test_standardize_leaves_its_input_alone(self, tmp_path):
        raw = Dataset(*(windowize(load_day(f), 10) for f in self.make_files(tmp_path, n=3)))
        before = [part.series.copy() for _, part in raw.partitions()]
        mean, std = raw.train.series.mean(axis=1), raw.train.series.std(axis=1)
        std[0] = 0.0  # centered, not scaled
        ds = standardize(raw, mean, std)
        for (_, part), kept, (_, scaled) in zip(raw.partitions(), before, ds.partitions()):
            assert np.array_equal(part.series, kept)
            divisor = np.where(std < 1e-12, 1.0, std)[:, None]
            assert np.array_equal(scaled.series, (kept - mean[:, None]) / divisor)

    def test_split_days_peak_stays_near_what_it_returns(self, tmp_path):
        # Four FI-2010-shaped days (149 rows: 144 features, 5 labels) of
        # 3000 events. Days are parsed one at a time and only their feature
        # rows kept, so the peak is the returned dataset twice (old and
        # z-scored series side by side) plus one raw day; 7.9 MB measured,
        # 26.3 MB when every raw day and its text stayed alive to the end.
        rng = np.random.default_rng(5)
        files = []
        for i in range(4):
            grid = rng.normal(size=(149, 3000))
            grid[-5:] = rng.integers(1, 4, (5, 3000))
            files.append(tmp_path / f"day{i}.txt")
            np.savetxt(files[-1], grid, fmt="%.10g")
        tracemalloc.start()
        try:
            ds = split_days(files, 2, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        returned = sum(a.nbytes for _, part in ds.partitions()
                       for a in (part.series, part.starts, part.labels))
        assert returned > 40 * 4 * 2991 * 8
        assert peak <= 2 * returned + grid.nbytes

    def test_normalize_requires_training_data(self):
        with pytest.raises(ConfigurationError):
            normalize(Dataset())

    def test_partitions_without_windows_stay_as_they_are(self):
        # A Dataset's default partition is Windows.join(): a (0, 0) series
        # of window 0, which no (D, 1) statistics broadcast against.
        s = synth_generate(30, n_features=4, window=5, seed=0)
        ds = normalize(Dataset(train=s.train, test=s.test))
        assert ds.validation.series.shape == (0, 0) and ds.validation.window == 0
        assert ds.test.series.tobytes() == normalize(s).test.series.tobytes()
        only_test = standardize(Dataset(test=s.test), ds.feature_mean, ds.feature_std)
        assert only_test.train.series.shape == (0, 0)
        assert only_test.test.series.tobytes() == ds.test.series.tobytes()


class TestWindows:
    def partition(self, tmp_path, events=(25, 14, 31)):
        files = []
        for i, n in enumerate(events):
            files.append(tmp_path / f"day{i}.txt")
            write_day(files[-1], n_events=n, offset=float(i), seed=i)
        # No training days, so the series stay raw.
        return files, split_days(files, 0, 0, len(events), window=10).test

    @pytest.mark.parametrize("which", ["random", "contiguous", "empty", "mask"])
    def test_batch_gathers_the_single_windows(self, tmp_path, which):
        _, windows = self.partition(tmp_path)
        idx = {"random": np.random.default_rng(0).integers(0, len(windows), 20),
               "contiguous": np.arange(4, 30),
               "empty": np.arange(0),
               "mask": np.arange(len(windows)) % 3 == 1}[which]
        batch = windows[idx]
        picked = np.arange(len(windows))[idx]
        expected = (np.stack([windows[i].x for i in picked], axis=-1) if len(picked)
                    else np.empty((40, 10, 0)))
        assert batch.x.shape == expected.shape
        assert batch.x.tobytes() == expected.tobytes()
        # Laid out (D, T, B) in memory, so the layers reshape it without a copy.
        assert batch.x.flags.c_contiguous
        assert np.array_equal(batch.labels, windows.labels[idx])

    def test_gather_into_a_buffer_and_out_of_range_starts(self, tmp_path):
        _, windows = self.partition(tmp_path)
        batch = windows[[3, 40, 3]]
        out = np.empty((40, 10, 3))
        assert batch.gather(out) is out
        assert out.tobytes() == batch.x.tobytes()
        n = windows.series.shape[1]
        for starts in ([0, n - 9], [-1]):
            bad = Windows(windows.series, np.array(starts), np.zeros(len(starts), np.int64), 10)
            with pytest.raises(IndexError, match="outside"):
                bad.gather(out[..., :len(starts)])

    def test_days_sit_side_by_side_and_windows_stay_inside_one(self, tmp_path):
        events = (25, 14, 31)
        files, windows = self.partition(tmp_path, events)
        assert windows.series.shape == (40, sum(events))
        assert windows.starts.dtype == windows.labels.dtype == np.int64
        bounds = np.cumsum((0,) + events)
        for lo, hi, path in zip(bounds, bounds[1:], files):
            inside = (windows.starts >= lo) & (windows.starts + 10 <= hi)
            assert inside.sum() == hi - lo - 10 + 1
            day = load_day(path)
            for w, start in zip(windows[inside], windows.starts[inside]):
                assert np.array_equal(w.x, day.values[:40, start - lo:start - lo + 10])
        # Every window is inside exactly one day.
        assert len(windows) == sum(n - 10 + 1 for n in events)

    def test_short_day_contributes_nothing(self, tmp_path):
        with pytest.warns(UserWarning, match="shorter than window"):
            _, windows = self.partition(tmp_path, (25, 6, 12))
        assert windows.series.shape == (40, 37)
        assert len(windows) == 16 + 3

    def test_single_windows_are_views_and_assignable(self, tmp_path):
        _, windows = self.partition(tmp_path)
        sample = windows[5]
        assert np.shares_memory(sample.x, windows.series)
        assert windows[-1].label == windows.labels[-1]
        windows[5] = type(sample)(x=sample.x, label=(sample.label + 1) % 3)
        assert windows[5].label == (sample.label + 1) % 3
        assert [s.label for s in windows] == windows.labels.tolist()

    def test_synthetic_windows_are_their_own_days(self):
        ds = synth_generate(30, n_features=4, window=6, seed=2)
        assert ds.train.series.shape == (4, 6 * len(ds.train))
        assert np.array_equal(ds.train.starts, 6 * np.arange(len(ds.train)))


class TestSynth:
    def test_deterministic_per_seed(self):
        a = synth_generate(60, seed=4)
        b = synth_generate(60, seed=4)
        for pa, pb in zip(a.train, b.train):
            assert np.array_equal(pa.x, pb.x) and pa.label == pb.label
        c = synth_generate(60, seed=5)
        assert not np.array_equal(a.train[0].x, c.train[0].x)

    def test_labels_balanced(self):
        for difficulty in ("single", "multi"):
            ds = synth_generate(61, difficulty=difficulty, seed=0)
            labels = ds.labels("train") + ds.labels("validation") + ds.labels("test")
            counts = np.bincount(labels, minlength=3)
            assert counts.max() - counts.min() <= 1

    def test_single_pattern_probe(self):
        # A linear probe on the three anchor columns should separate the
        # classes nearly perfectly when one position decides the class.
        from mtabl.data import _synth_anchors

        ds = synth_generate(150, n_features=8, window=10, seed=7,
                            difficulty="single", split=(1.0, 0.0, 0.0))
        anchors = _synth_anchors(10)
        X = np.array([[s.x[:4, a].mean() for a in anchors] for s in ds.train])
        y = np.array(ds.labels("train"))
        # Tiny softmax regression, full-batch gradient descent.
        w = np.zeros((3, 3))
        b = np.zeros(3)
        onehot = np.eye(3)[y]
        for _ in range(300):
            z = X @ w.T + b
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            g = (p - onehot) / len(y)
            w -= 2.0 * (g.T @ X)
            b -= 2.0 * g.sum(axis=0)
        accuracy = (np.argmax(X @ w.T + b, axis=1) == y).mean()
        assert accuracy > 0.9

    def test_multi_pattern_anchors_are_ambiguous_singly(self):
        from mtabl.data import _MULTI_PAIRS

        # Each anchor index appears in exactly two classes.
        seen = {0: 0, 1: 0, 2: 0}
        for pair in _MULTI_PAIRS.values():
            for idx in pair:
                seen[idx] += 1
        assert all(v == 2 for v in seen.values())

    def test_bad_difficulty(self):
        with pytest.raises(ConfigurationError):
            synth_generate(10, difficulty="weird")


def _greedy_runs(starts):
    """The runs save_dataset writes, by loop: from each run's first window,
    take windows while the step to the next one repeats."""
    rows, i = [], 0
    while i < len(starts):
        step = starts[i + 1] - starts[i] if i + 1 < len(starts) else 0
        j = i + 1
        while j < len(starts) and starts[j] - starts[j - 1] == step:
            j += 1
        rows.append([starts[i], step, j - i])
        i = j
    return rows


class TestDatasetCache:
    def test_round_trip_bit_exact(self, tmp_path):
        ds = synth_generate(40, n_features=6, window=8, seed=1, difficulty="multi")
        path = tmp_path / "cache.mtabl"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        for name, part in ds.partitions():
            other = getattr(loaded, name)
            assert len(other) == len(part)
            for s, t in zip(part, other):
                assert s.x.tobytes() == t.x.tobytes()
                assert s.label == t.label
        assert loaded.provenance == ds.provenance

    def test_subset_cache_holds_only_its_windows(self, tmp_path):
        ds = synth_generate(3000, n_features=40, window=10, seed=0)
        full, sub = tmp_path / "full.mtabl", tmp_path / "sub.mtabl"
        save_dataset(full, ds)
        subset = replace(ds, train=ds.train[:10], validation=ds.validation[5:15],
                         test=ds.test[[7, 3, 3]])
        save_dataset(sub, subset)
        assert load_dataset(full).train.series.tobytes() == ds.train.series.tobytes()
        loaded = load_dataset(sub)
        for name, part in subset.partitions():
            assert getattr(loaded, name).x.tobytes() == part.x.tobytes()
            assert getattr(loaded, name).labels.tolist() == part.labels.tolist()

    @staticmethod
    def _days(tmp_path, split=(2, 0, 1), events=(40, 33, 27)):
        paths = []
        for i, n in enumerate(events):
            write_day(tmp_path / f"d{i}.txt", n_events=n, seed=i)
            paths.append(tmp_path / f"d{i}.txt")
        return split_days(paths, *split, window=10)

    # Each kind of partition with the (first, step, count) rows its starts
    # take in the cache.
    @pytest.mark.parametrize("kind", ["day split", "synthetic", "random subset",
                                      "one window", "empty partitions"])
    def test_round_trip_keeps_every_bit(self, tmp_path, kind):
        if kind == "synthetic":
            ds = synth_generate(300, n_features=4, window=5, seed=2)
        else:  # validation is empty; with "empty partitions" test is too
            ds = self._days(tmp_path, (3, 0, 0) if kind == "empty partitions" else (2, 0, 1))
        rng = np.random.default_rng(4)
        if kind == "random subset":  # unsorted, with repeats
            ds = replace(ds, train=ds.train[rng.integers(0, len(ds.train), 40)],
                         test=ds.test[rng.permutation(len(ds.test))])
        elif kind == "one window":
            ds = replace(ds, train=ds.train[[30]], test=ds.test[17:18])
        path = tmp_path / "cache.mtabl"
        save_dataset(path, ds)
        runs = {name: block.tolist() for name, block in read_container(path)[1].items()
                if name.endswith("/runs")}
        loaded = load_dataset(path)
        for name, part in ds.partitions():
            other = getattr(loaded, name)
            for a, b in ((part.series, other.series), (part.starts, other.starts),
                         (part.labels, other.labels)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert other.window == part.window
            if part:
                assert runs[f"{name}/runs"] == _greedy_runs(part.starts.tolist())
        rows = {
            "day split": {"train/runs": 2, "test/runs": 1},  # a row a day
            "synthetic": {"train/runs": 1, "validation/runs": 1, "test/runs": 1},
            "random subset": {"train/runs": 20, "test/runs": 9},  # pairs of windows
            "one window": {"train/runs": 1, "test/runs": 1},
            "empty partitions": {"train/runs": 3},
        }[kind]
        assert {name: len(block) for name, block in runs.items()} == rows
        assert np.array_equal(loaded.feature_mean, ds.feature_mean)

    def test_round_trip_with_stats(self, tmp_path):
        files_dir = tmp_path / "days"
        files_dir.mkdir()
        paths = []
        for i in range(2):
            p = files_dir / f"d{i}.txt"
            write_day(p, n_events=20, seed=i)
            paths.append(str(p))
        ds = split_days(paths, 1, 0, 1, window=10)
        cache = tmp_path / "cache.mtabl"
        save_dataset(cache, ds)
        loaded = load_dataset(cache)
        assert np.array_equal(loaded.feature_mean, ds.feature_mean)
        assert np.array_equal(loaded.feature_std, ds.feature_std)
