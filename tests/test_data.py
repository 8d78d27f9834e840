import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtabl.data import (
    MIN_ROWS,
    RawDayMatrix,
    load_dataset,
    load_day,
    normalize,
    save_dataset,
    split_days,
    synth_generate,
    windowize,
)
from mtabl.errors import ConfigurationError, DataError, FormatError, ParseError


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
        ds = split_days(files, 6, 1, 3, window=10, apply_normalization=False)
        per_day = 25 - 10 + 1
        assert len(ds.train) == 6 * per_day
        assert len(ds.validation) == 1 * per_day
        assert len(ds.test) == 3 * per_day
        assert ds.provenance["files"] == files

    def test_no_sample_leakage_between_partitions(self, tmp_path):
        files = self.make_files(tmp_path)
        ds = split_days(files, 6, 1, 3, window=10, apply_normalization=False)
        # Day i features were drawn around mean i, so partition means
        # separate cleanly when days are not shared.
        train_mean = np.mean([s.x.mean() for s in ds.train])
        val_mean = np.mean([s.x.mean() for s in ds.validation])
        test_mean = np.mean([s.x.mean() for s in ds.test])
        assert train_mean < 3.0 < val_mean + 1.0 < test_mean

    def test_evaluation_only_split(self, tmp_path):
        files = self.make_files(tmp_path, n=3)
        ds = split_days(files, 0, 0, 3, window=10, apply_normalization=False)
        assert not ds.train and not ds.validation
        assert len(ds.test) == 3 * 16

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

    def test_normalize_requires_training_data(self):
        from mtabl.data import Dataset

        with pytest.raises(ConfigurationError):
            normalize(Dataset())


class TestWindows:
    def partition(self, tmp_path, events=(25, 14, 31)):
        files = []
        for i, n in enumerate(events):
            files.append(tmp_path / f"day{i}.txt")
            write_day(files[-1], n_events=n, offset=float(i), seed=i)
        return files, split_days(files, len(events), 0, 0, window=10,
                                 apply_normalization=False).train

    @pytest.mark.parametrize("which", ["random", "contiguous", "empty", "mask"])
    def test_batch_gathers_the_single_windows(self, tmp_path, which):
        _, windows = self.partition(tmp_path)
        idx = {"random": np.random.default_rng(0).integers(0, len(windows), 20),
               "contiguous": np.arange(4, 30),
               "empty": np.arange(0),
               "mask": np.arange(len(windows)) % 3 == 1}[which]
        batch = windows[idx]
        picked = np.arange(len(windows))[idx]
        expected = (np.stack([windows[i].x for i in picked], axis=1) if len(picked)
                    else np.empty((40, 0, 10)))
        assert batch.x.shape == expected.shape
        assert batch.x.tobytes() == expected.tobytes()
        # Laid out (D, B, T) in memory, so the layers reshape it without a copy.
        assert batch.x.flags.c_contiguous
        assert np.array_equal(batch.labels, windows.labels[idx])

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
