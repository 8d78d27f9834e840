"""Order-book dataset handling.

Input files are plain-text numeric matrices, one file per trading day,
with dimensions on the rows and order events on the columns: 40 or more
feature rows (top-ten bid/ask prices and volumes first) followed by five
label rows, one per prediction horizon (10, 20, 30, 50, 100 events). Some
distributions of this data circulate transposed; ``transposed=True``
flips the parsed grid before validation.

Windowing slides a length-T view over the columns and takes the label of
the window's newest event at the requested horizon. Day files are assigned
whole to one partition, so train/validation/test never share a day.

A partition (:class:`Windows`) holds its days side by side as one (D, E)
event series plus an int64 start and label per window; no window crosses
a day, and each event is stored once however many windows cover it.
Synthetic windows are each their own length-T day. Z-score statistics
are the mean and std of every feature over the training series' events,
each event counted once. The dataset cache stores the starts as runs of
windows a fixed step apart and the labels as int8 (:func:`save_dataset`).
"""

from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, FormatError, ParseError
from .linalg import Matrix

N_FEATURES = 40
HORIZONS = (10, 20, 30, 50, 100)
N_LABEL_ROWS = len(HORIZONS)
MIN_ROWS = N_FEATURES + N_LABEL_ROWS

# The files encode up/stationary/down as 1/2/3; everything downstream
# uses the class index 0/1/2, the raw value minus one.
RAW_LABELS = (1, 2, 3)
N_CLASSES = len(RAW_LABELS)


@dataclass(frozen=True)
class RawDayMatrix:
    """One parsed day file: dimensions on rows, order events on columns.
    ``values`` is the parsed grid's transposed view with ``transposed=True``."""

    values: Matrix
    source: str = ""

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_events(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SeriesSample:
    """One input window (D, T), columns oldest to newest, plus its class.

    File-derived samples always carry the 40 book features; synthetic ones
    use whatever feature count the generator was given.
    """

    x: Matrix
    label: int


@dataclass(frozen=True, eq=False)
class Windows:
    """Window i is ``series[:, starts[i]:starts[i] + window]``, class ``labels[i]``.

    An int index gives one :class:`SeriesSample` viewing the series; a
    slice, index array or mask gives Windows over the same series, whose
    ``x`` gathers them into one (D, T, B) batch, the batch axis last.
    """

    series: Matrix
    starts: np.ndarray
    labels: np.ndarray
    window: int

    @classmethod
    def separate(cls, x: np.ndarray, labels) -> "Windows":
        """The windows of a (D, T, B) batch laid end to end, each its own day."""
        d, t, b = x.shape
        return cls(np.ascontiguousarray(x.swapaxes(1, 2)).reshape(d, b * t),
                   np.arange(b, dtype=np.int64) * t, np.asarray(labels, np.int64), t)

    @classmethod
    def join(cls, days=(), dims: tuple[int, int] = (0, 0)) -> "Windows":
        """Days side by side in one series, each day's starts shifted with
        it; ``dims`` is the windows' (D, T), and no days give an empty one."""
        none = np.empty(0, np.int64)
        offsets = np.cumsum([0] + [day.series.shape[1] for day in days])
        return cls(np.hstack([np.empty((dims[0], 0))] + [day.series for day in days]),
                   np.hstack([none] + [day.starts + o for day, o in zip(days, offsets)]),
                   np.hstack([none] + [day.labels for day in days]), dims[1])

    @property
    def x(self) -> np.ndarray:
        return self.gather()

    def gather(self, out: np.ndarray | None = None) -> np.ndarray:
        """The windows as one C-ordered (D, T, B) batch, window b being
        ``[..., b]``, which the layers reshape without a copy; written into
        ``out`` when given."""
        if len(self) and not (0 <= self.starts.min()
                              and self.starts.max() <= self.series.shape[1] - self.window):
            raise IndexError(f"window starts outside a series of {self.series.shape[1]} events")
        # Checked above, so "wrap" never wraps; unlike "raise" it writes
        # straight into ``out`` instead of through a temporary copy.
        return np.take(self.series, np.arange(self.window)[:, None] + self.starts, axis=1,
                       out=out, mode="wrap")

    def consecutive(self) -> bool:
        """Whether the windows are sorted with no gap between neighbours, as
        in a partition: then they, and every slice of them, cover
        consecutive columns, which prediction may project once per event.
        Windows laid end to end (:meth:`separate`) count as consecutive,
        yet share no event."""
        steps = self.starts[1:] - self.starts[:-1]
        return bool(((0 <= steps) & (steps <= self.window)).all())

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            start = self.starts[idx]
            return SeriesSample(self.series[:, start:start + self.window],
                                int(self.labels[idx]))
        return Windows(self.series, self.starts[idx], self.labels[idx], self.window)

    def __setitem__(self, i: int, sample: SeriesSample) -> None:
        self[i].x[...] = sample.x  # into the series, shared with overlapping windows
        self.labels[i] = sample.label

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass
class Dataset:
    train: Windows = field(default_factory=Windows.join)
    validation: Windows = field(default_factory=Windows.join)
    test: Windows = field(default_factory=Windows.join)
    feature_mean: np.ndarray | None = None
    feature_std: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def partitions(self):
        return (("train", self.train), ("validation", self.validation),
                ("test", self.test))

    def sample_dims(self) -> tuple[int, int]:
        for _, part in self.partitions():
            if part:
                return part.series.shape[0], part.window
        raise ConfigurationError("dataset has no samples")

    def labels(self, partition: str) -> list[int]:
        return getattr(self, partition).labels.tolist()


def _diagnose_text_grid(path) -> None:
    """Produce a precise error for a file numpy could not parse."""
    try:  # all at once, so that the offset counts from the file's start
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise FormatError(f"{path}: empty file")
    width = len(rows[0])
    for r, tokens in enumerate(rows):
        if len(tokens) != width:
            raise FormatError(
                f"{path}: ragged row {r + 1} has {len(tokens)} values, expected {width}"
            )
        for c, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric token {token!r} at row {r + 1}, column {c + 1}"
                ) from None


def load_day(path, *, transposed: bool = False) -> RawDayMatrix:
    """Parse one whitespace-separated day file, line by line from the file."""
    try:
        with open(path, encoding="utf-8") as lines, warnings.catch_warnings():
            # An empty grid becomes a FormatError below; numpy's own
            # warning about it is just noise.
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(lines, dtype=np.float64, ndmin=2)
    except ValueError:  # bad UTF-8 too, whose offset counts from the chunk decoded
        _diagnose_text_grid(path)
        raise
    if values.size == 0:
        raise FormatError(f"{path}: empty file")
    if transposed:
        values = values.T
    if values.shape[0] < MIN_ROWS:
        raise FormatError(
            f"{path}: {values.shape[0]} rows, need at least {MIN_ROWS} "
            f"({N_FEATURES} features + {N_LABEL_ROWS} horizon labels)"
        )
    if not np.isfinite(values).all():
        raise DataError(f"{path}: file contains non-finite values")
    return RawDayMatrix(values=values, source=str(path))


def _horizon_row(day: RawDayMatrix, horizon: int) -> int:
    if horizon not in HORIZONS:
        raise ConfigurationError(f"horizon must be one of {HORIZONS}, got {horizon}")
    return day.n_rows - N_LABEL_ROWS + HORIZONS.index(horizon)


def windowize(day: RawDayMatrix, window: int, horizon: int = 10) -> Windows:
    """Slide a length-``window`` view over the day; one window per position.

    Window i covers columns i..i+window-1 and takes the horizon label of
    its last column, so a day with N events yields N - window + 1 windows.
    """
    if window < 1:
        raise ConfigurationError(f"window must be positive, got {window}")
    n = day.n_events
    if n < window:
        warnings.warn(
            f"{day.source or 'day'}: {n} events is shorter than window {window}, "
            "no samples produced"
        )
        return Windows.join([], (N_FEATURES, window))
    raw = day.values[_horizon_row(day, horizon), window - 1:]
    unknown = ~np.isin(raw, RAW_LABELS)
    if unknown.any():
        raise DataError(f"{day.source}: unknown label value {float(raw[unknown][0])!r}")
    # A copy of the feature rows, so the raw grid is freed once windowed.
    return Windows(day.values[:N_FEATURES].copy(), np.arange(len(raw), dtype=np.int64),
                   raw.astype(np.int64) - 1, window)


def normalize(dataset: Dataset) -> Dataset:
    """Z-score every feature row with the mean and std of the training
    series' events; near-constant rows (std below 1e-12) are centered but
    not scaled."""
    if not dataset.train:
        raise ConfigurationError("cannot normalize: training partition is empty")
    series = dataset.train.series
    return standardize(dataset, series.mean(axis=1), series.std(axis=1))


def standardize(dataset: Dataset, mean: np.ndarray, std: np.ndarray) -> Dataset:
    """Apply given z-score statistics, such as those a checkpoint carries;
    a partition without windows stays as it is."""
    divisor = np.where(std < 1e-12, 1.0, std)[:, None]
    parts = {}
    for name, part in dataset.partitions():  # no second full-size temporary
        if part:  # a default empty partition has no feature rows to scale
            series = np.subtract(part.series, mean[:, None])
            parts[name] = replace(part, series=np.divide(series, divisor, out=series))
    return replace(dataset, **parts, feature_mean=mean, feature_std=std)


def split_days(files, train_days: int, val_days: int, test_days: int, *,
               window: int = 10, horizon: int = 10, transposed: bool = False) -> Dataset:
    """Load day files one at a time and assign them chronologically to the partitions.

    The first ``train_days`` files become training data, the next
    ``val_days`` validation, the next ``test_days`` test. Days are never
    shared between partitions. With training days, every partition is
    z-scored with their statistics (:func:`normalize`); with none, the
    series stay raw and the dataset carries no statistics. The provenance
    records each file's name, not its path.
    """
    files = [str(f) for f in files]
    needed = train_days + val_days + test_days
    if min(train_days, val_days, test_days) < 0:
        raise ConfigurationError("day counts must be nonnegative")
    if needed > len(files):
        raise ConfigurationError(
            f"split needs {needed} day files, only {len(files)} supplied"
        )
    bounds = (0, train_days, train_days + val_days, needed)
    train, validation, test = (
        Windows.join([windowize(load_day(path, transposed=transposed), window, horizon)
                      for path in files[lo:hi]], (N_FEATURES, window))
        for lo, hi in zip(bounds, bounds[1:]))
    dataset = Dataset(
        train=train, validation=validation, test=test,
        provenance={
            "files": [Path(f).name for f in files[:needed]], "window": window, "horizon": horizon,
            "split": [train_days, val_days, test_days], "transposed": transposed,
        },
    )
    return normalize(dataset) if dataset.train else dataset


def _synth_anchors(window: int) -> tuple[int, int, int]:
    if window < 3:
        raise ConfigurationError(f"synthetic data needs window >= 3, got {window}")
    return (window // 4, window // 2, (3 * window) // 4)


# Which anchor positions carry the pattern for each class at difficulty
# "multi". Every anchor appears in exactly two classes, so no single
# position determines the class; only the pair does.
_MULTI_PAIRS = {0: (0, 1), 1: (0, 2), 2: (1, 2)}


def synth_generate(n_samples: int, n_features: int = 8, window: int = 10,
                   seed: int = 0, difficulty: str = "single", *,
                   split=(0.7, 0.15, 0.15), noise: float = 0.3,
                   signal: float = 2.0, distractors: int = 1) -> Dataset:
    """Deterministic 3-class synthetic series for desk-scale checks.

    The class is decided by where an additive pattern sits in time. At
    difficulty "single" each class marks one anchor position, so attending
    to a single time step is enough. At difficulty "multi" each class marks
    a distinct pair of anchors and each anchor is shared by two classes,
    so only the co-occurrence pattern separates them; distractor bumps at
    non-anchor positions make indiscriminate temporal pooling costly.
    """
    if n_samples < 1 or n_features < 1:
        raise ConfigurationError("n_samples and n_features must be positive")
    if difficulty not in ("single", "multi"):
        raise ConfigurationError(f"difficulty must be 'single' or 'multi', got {difficulty!r}")
    rng = np.random.default_rng(seed)
    anchors = _synth_anchors(window)
    marked_rows = max(1, n_features // 2)
    non_anchor = [t for t in range(window) if t not in anchors]

    labels = np.arange(n_samples, dtype=np.int64) % N_CLASSES
    rng.shuffle(labels)
    batch = np.empty((n_features, window, n_samples))
    for i, label in enumerate(labels):
        x = batch[..., i]
        x[...] = rng.normal(0.0, noise, (n_features, window))
        if difficulty == "single":
            x[:marked_rows, anchors[label]] += signal
        else:
            for j in _MULTI_PAIRS[int(label)]:
                x[:marked_rows, anchors[j]] += 0.75 * signal
            if non_anchor and distractors > 0:
                cols = rng.choice(non_anchor, size=min(distractors, len(non_anchor)),
                                  replace=False)
                for col in cols:
                    x[:marked_rows, col] += 0.75 * signal

    n_train = round(split[0] * n_samples)
    bounds = (0, n_train, n_train + round(split[1] * n_samples), n_samples)
    train, validation, test = (Windows.separate(batch[..., lo:hi], labels[lo:hi])
                               for lo, hi in zip(bounds, bounds[1:]))
    return Dataset(
        train=train, validation=validation, test=test,
        provenance={
            "synthetic": True, "n_samples": n_samples, "n_features": n_features,
            "window": window, "seed": seed, "difficulty": difficulty,
            "split": list(split), "noise": noise, "signal": signal,
            "distractors": distractors,
        },
    )


def _runs(starts: np.ndarray) -> np.ndarray:
    """Window starts as (first, step, count) rows, each one maximal run of
    windows a fixed step apart taken greedily from the first window: a day
    of a split is one row, windows laid end to end are one, a lone window
    is (start, 0, 1)."""
    steps = np.diff(starts)
    # The last step of each stretch of equal steps: a run from window i
    # ends one window past the end of i's stretch.
    ends = np.flatnonzero(np.append(steps[1:] != steps[:-1], True)).tolist()
    rows, i = [], 0
    while i < len(starts) - 1:
        end = ends[bisect.bisect_left(ends, i)]
        rows.append((starts[i], steps[i], end - i + 2))
        i = end + 2
    if i == len(starts) - 1:
        rows.append((starts[i], 0, 1))
    return np.array(rows, np.int64).reshape(-1, 3)


def save_dataset(path, dataset: Dataset) -> None:
    """Binary dataset cache: per partition its whole series (``{name}/series``,
    float64), its window starts as int64 (first, step, count) rows
    (``{name}/runs``, see :func:`_runs`) and its labels as int8
    (``{name}/labels``); then the statistics. Reloading reproduces the
    windows bit-exactly; labels outside 0, 1, 2 raise DataError."""
    from .serialize import write_container

    dims = dataset.sample_dims()
    blocks = []
    for name, part in dataset.partitions():
        if part:
            if not (0 <= part.labels.min() and part.labels.max() < N_CLASSES):
                raise DataError(f"{name} labels outside 0, 1, 2")
            blocks += [(f"{name}/series", part.series), (f"{name}/runs", _runs(part.starts)),
                       (f"{name}/labels", part.labels.astype(np.int8)[:, None])]
    # Largest first: a reader allocating in file order then takes the large
    # chunks its process freed before small blocks split them.
    blocks.sort(key=lambda block: -block[1].nbytes)
    if dataset.feature_mean is not None:
        blocks += [("stats/mean", dataset.feature_mean[:, None]),
                   ("stats/std", dataset.feature_std[:, None])]
    meta = {
        "sample_dims": list(dims),
        "counts": {name: len(part) for name, part in dataset.partitions()},
        "provenance": dataset.provenance,
        "has_stats": dataset.feature_mean is not None,
    }
    write_container(path, "dataset", meta, blocks)


def _checked_block(path, blocks: dict, name: str, dtype, shape) -> np.ndarray:
    """The named block, if its dtype and shape match; None in ``shape`` is any size."""
    block = blocks.get(name)
    if block is None or block.dtype != dtype or any(
            want not in (None, got) for want, got in zip(shape, block.shape)):
        found = "missing" if block is None else f"{block.dtype} {block.shape}"
        raise FormatError(f"{path}: block {name!r} is {found}, expected {np.dtype(dtype)} {shape}")
    return block


def _starts(path, name: str, runs: np.ndarray, count: int, last_start: int) -> np.ndarray:
    """The int64 starts that :func:`_runs` encoded, after checking from the
    rows alone that they give ``count`` starts in [0, ``last_start``]: no
    start is built, and so none can wrap, before every run is in range."""
    first, step, n = runs.T
    # count and last_start are below 2**31, the cap on a block's sides; with
    # each n <= count and |step| <= last_start, no sum or product can wrap.
    if not ((1 <= n) & (n <= count)).all() or n.sum() != count:
        raise FormatError(f"{path}: {name} runs do not count its {count} windows")
    bounded = ((0 <= first) & (first <= last_start)
               & (-last_start <= step) & (step <= last_start)).all()
    last = first + step * (n - 1) if bounded else first
    if not (bounded and ((0 <= last) & (last <= last_start)).all()):
        raise FormatError(f"{path}: {name} window starts outside its series")
    starts = np.repeat(step, n)
    # Each run's first entry jumps from the previous run's last start.
    starts[np.cumsum(n) - n] = first - np.concatenate(([0], last))[:-1]
    return np.cumsum(starts, out=starts)


def load_dataset(path) -> Dataset:
    """Read a cache written by :func:`save_dataset`, rebuilding each
    partition's int64 starts and labels; metadata that does not match the
    blocks (dims, counts, window runs, labels, statistics) raises
    FormatError, as does a cache of the older per-window layout, which
    has no ``runs`` block."""
    from .serialize import read_container

    meta, blocks = read_container(path, expect_kind="dataset")
    dims, counts = meta.get("sample_dims"), meta.get("counts")
    provenance, has_stats = meta.get("provenance", {}), meta.get("has_stats", False)
    if not (isinstance(dims, list) and len(dims) == 2
            and all(type(v) is int and v > 0 for v in dims)):
        raise FormatError(f"{path}: bad sample_dims {dims!r}")
    if not (isinstance(counts, dict) and isinstance(provenance, dict)
            and type(has_stats) is bool):
        raise FormatError(f"{path}: counts, provenance or has_stats malformed")
    d, t = dims
    parts = {}
    for name in ("train", "validation", "test"):
        count = counts.get(name, 0)
        if type(count) is not int or count < 0:
            raise FormatError(f"{path}: bad {name} count {count!r}")
        keys = [f"{name}/{block}" for block in ("series", "runs", "labels")]
        if count == 0 and not any(key in blocks for key in keys):
            parts[name] = Windows.join([], (d, t))
            continue
        series = _checked_block(path, blocks, keys[0], np.float64, (d, None))
        runs = _checked_block(path, blocks, keys[1], np.int64, (None, 3))
        labels = _checked_block(path, blocks, keys[2], np.int8, (count, 1))[:, 0]
        if not ((0 <= labels) & (labels < N_CLASSES)).all():
            raise FormatError(f"{path}: {name} labels outside 0, 1, 2")
        starts = _starts(path, name, runs, count, series.shape[1] - t)
        parts[name] = Windows(series, starts, labels.astype(np.int64), t)
    mean = std = None
    if has_stats:
        mean = _checked_block(path, blocks, "stats/mean", np.float64, (d, 1))[:, 0]
        std = _checked_block(path, blocks, "stats/std", np.float64, (d, 1))[:, 0]
    elif "stats/mean" in blocks or "stats/std" in blocks:
        raise FormatError(f"{path}: statistics blocks present but has_stats is false")
    return Dataset(**parts, feature_mean=mean, feature_std=std, provenance=provenance)
