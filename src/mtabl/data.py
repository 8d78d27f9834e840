"""Order-book dataset handling.

Input files are plain-text numeric matrices, one file per trading day,
with dimensions on the rows and order events on the columns: 40 or more
feature rows (top-ten bid/ask prices and volumes first) followed by five
label rows, one per prediction horizon (10, 20, 30, 50, 100 events). Some
distributions of this data circulate transposed; ``transposed=True``
flips the parsed grid before validation.

Windowing slides a length-T view over the columns and takes the label of
the window's newest event at the requested horizon. Day files are assigned
whole to one partition, so train/validation/test never share a day, and
z-score statistics come from the training partition only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, DataError, FormatError, ParseError
from .linalg import Matrix

N_FEATURES = 40
HORIZONS = (10, 20, 30, 50, 100)
N_LABEL_ROWS = len(HORIZONS)
MIN_ROWS = N_FEATURES + N_LABEL_ROWS

# Raw annotation -> class index. The files encode up/stationary/down as
# 1/2/3; everything downstream uses 0/1/2.
RAW_LABEL_TO_CLASS = {1: 0, 2: 1, 3: 2}
CLASS_NAMES = ("up", "stationary", "down")


@dataclass(frozen=True)
class RawDayMatrix:
    """One parsed day file: dimensions on rows, order events on columns."""

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


@dataclass
class Dataset:
    train: list[SeriesSample] = field(default_factory=list)
    validation: list[SeriesSample] = field(default_factory=list)
    test: list[SeriesSample] = field(default_factory=list)
    feature_mean: np.ndarray | None = None
    feature_std: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)

    def partitions(self):
        return (("train", self.train), ("validation", self.validation),
                ("test", self.test))

    def sample_dims(self) -> tuple[int, int]:
        for _, part in self.partitions():
            if part:
                return part[0].x.shape
        raise ConfigurationError("dataset has no samples")

    def labels(self, partition: str = "train") -> list[int]:
        return [s.label for s in getattr(self, partition)]


def _diagnose_text_grid(text: str, path) -> None:
    """Produce a precise error for a grid numpy could not parse."""
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
    """Parse one whitespace-separated day file."""
    with open(path) as fh:
        text = fh.read()
    try:
        with warnings.catch_warnings():
            # An empty grid becomes a FormatError below; numpy's own
            # warning about it is just noise.
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(text.splitlines(), dtype=np.float64, ndmin=2)
    except ValueError:
        _diagnose_text_grid(text, path)
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
    return RawDayMatrix(values=np.ascontiguousarray(values), source=str(path))


def _horizon_row(day: RawDayMatrix, horizon: int) -> int:
    if horizon not in HORIZONS:
        raise ConfigurationError(f"horizon must be one of {HORIZONS}, got {horizon}")
    return day.n_rows - N_LABEL_ROWS + HORIZONS.index(horizon)


def _to_class(raw: float, source: str) -> int:
    value = int(raw)
    if value != raw or value not in RAW_LABEL_TO_CLASS:
        raise DataError(f"{source}: unknown label value {raw!r}")
    return RAW_LABEL_TO_CLASS[value]


def windowize(day: RawDayMatrix, window: int, horizon: int = 10) -> list[SeriesSample]:
    """Slide a length-``window`` view over the day; one sample per position.

    Sample i covers columns i..i+window-1 and takes the horizon label of
    its last column, so a day with N events yields N - window + 1 samples.
    """
    if window < 1:
        raise ConfigurationError(f"window must be positive, got {window}")
    n = day.n_events
    if n < window:
        warnings.warn(
            f"{day.source or 'day'}: {n} events is shorter than window {window}, "
            "no samples produced"
        )
        return []
    label_row = _horizon_row(day, horizon)
    features = day.values[:N_FEATURES]
    samples = []
    for i in range(n - window + 1):
        x = np.ascontiguousarray(features[:, i:i + window])
        label = _to_class(day.values[label_row, i + window - 1], day.source)
        samples.append(SeriesSample(x=x, label=label))
    return samples


def normalize(dataset: Dataset) -> Dataset:
    """Z-score every feature row using training-partition statistics.

    All partitions are transformed with the training mean and std;
    near-constant rows (std below 1e-12) are centered but not scaled.
    """
    if not dataset.train:
        raise ConfigurationError("cannot normalize: training partition is empty")
    stacked = np.stack([s.x for s in dataset.train])  # (n, D, T)
    return standardize(dataset, stacked.mean(axis=(0, 2)), stacked.std(axis=(0, 2)))


def standardize(dataset: Dataset, mean: np.ndarray, std: np.ndarray) -> Dataset:
    """Apply given z-score statistics, such as those a checkpoint carries."""
    divisor = np.where(std < 1e-12, 1.0, std)

    def transform(samples):
        return [
            SeriesSample(x=(s.x - mean[:, None]) / divisor[:, None], label=s.label)
            for s in samples
        ]

    return replace(
        dataset,
        train=transform(dataset.train),
        validation=transform(dataset.validation),
        test=transform(dataset.test),
        feature_mean=mean,
        feature_std=std,
    )


def split_days(files, train_days: int, val_days: int, test_days: int, *,
               window: int = 10, horizon: int = 10, apply_normalization: bool = True,
               transposed: bool = False) -> Dataset:
    """Load day files and assign them chronologically to the partitions.

    The first ``train_days`` files become training data, the next
    ``val_days`` validation, the next ``test_days`` test. Days are never
    shared between partitions.
    """
    files = [str(f) for f in files]
    needed = train_days + val_days + test_days
    if min(train_days, val_days, test_days) < 0:
        raise ConfigurationError("day counts must be nonnegative")
    if needed > len(files):
        raise ConfigurationError(
            f"split needs {needed} day files, only {len(files)} supplied"
        )
    bounds = (train_days, train_days + val_days, needed)
    parts: list[list[SeriesSample]] = [[], [], []]
    for i, path in enumerate(files[:needed]):
        day = load_day(path, transposed=transposed)
        samples = windowize(day, window=window, horizon=horizon)
        slot = 0 if i < bounds[0] else (1 if i < bounds[1] else 2)
        parts[slot].extend(samples)
    dataset = Dataset(
        train=parts[0], validation=parts[1], test=parts[2],
        provenance={
            "files": files[:needed], "window": window, "horizon": horizon,
            "split": [train_days, val_days, test_days], "transposed": transposed,
        },
    )
    if apply_normalization and dataset.train:
        dataset = normalize(dataset)
    return dataset


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

    labels = np.arange(n_samples) % 3
    rng.shuffle(labels)
    samples = []
    for label in labels:
        x = rng.normal(0.0, noise, (n_features, window))
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
        samples.append(SeriesSample(x=x, label=int(label)))

    n_train = round(split[0] * n_samples)
    n_val = round(split[1] * n_samples)
    return Dataset(
        train=samples[:n_train],
        validation=samples[n_train:n_train + n_val],
        test=samples[n_train + n_val:],
        provenance={
            "synthetic": True, "n_samples": n_samples, "n_features": n_features,
            "window": window, "seed": seed, "difficulty": difficulty,
            "split": list(split), "noise": noise, "signal": signal,
            "distractors": distractors,
        },
    )


def save_dataset(path, dataset: Dataset) -> None:
    """Binary dataset cache; reloading reproduces the samples bit-exactly."""
    from .serialize import write_container

    blocks = []
    counts = {}
    dims = None
    for name, part in dataset.partitions():
        counts[name] = len(part)
        if part:
            dims = part[0].x.shape
            blocks.append((f"{name}/x", np.vstack([s.x for s in part])))
            blocks.append((f"{name}/labels",
                           np.array([[s.label] for s in part], dtype=np.int64)))
    if dims is None:
        raise ConfigurationError("refusing to save a dataset with no samples")
    if dataset.feature_mean is not None:
        blocks.append(("stats/mean", dataset.feature_mean[:, None]))
        blocks.append(("stats/std", dataset.feature_std[:, None]))
    meta = {
        "sample_dims": list(dims),
        "counts": counts,
        "provenance": dataset.provenance,
        "has_stats": dataset.feature_mean is not None,
    }
    write_container(path, "dataset", meta, blocks)


def load_dataset(path) -> Dataset:
    from .serialize import read_container

    meta, blocks = read_container(path, expect_kind="dataset")
    d, t = meta["sample_dims"]
    parts = {}
    for name in ("train", "validation", "test"):
        count = meta["counts"].get(name, 0)
        if count == 0:
            parts[name] = []
            continue
        stacked = blocks[f"{name}/x"]
        labels = blocks[f"{name}/labels"][:, 0]
        parts[name] = [
            SeriesSample(x=np.ascontiguousarray(stacked[i * d:(i + 1) * d]),
                         label=int(labels[i]))
            for i in range(count)
        ]
    mean = std = None
    if meta.get("has_stats"):
        mean = blocks["stats/mean"][:, 0]
        std = blocks["stats/std"][:, 0]
    return Dataset(
        train=parts["train"], validation=parts["validation"], test=parts["test"],
        feature_mean=mean, feature_std=std, provenance=meta["provenance"],
    )
