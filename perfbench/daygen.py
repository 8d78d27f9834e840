"""Seeded generator of FI-2010-shaped day files.

A day file is a whitespace-separated grid with one order event per
column: 40 limit-order-book rows (ten levels of ask price, ask volume,
bid price, bid volume, best level first) followed by five label rows for
the horizons 10, 20, 30, 50 and 100 events, coded 1/2/3 for
up/stationary/down, as in Ntakaris et al. (arXiv:1705.03233).

The book carries a planted signal. A slowly varying order-flow imbalance
tilts the volumes of the three best levels toward the bid or the ask and
drifts the mid-price in the same direction, so a window's newest columns
tell which way the mid-price will move. Labels compare the mean mid-price
over the next ``h`` events with the current one, so they are learnable
from the features but not copied into them.

Everything is drawn from ``numpy.random.default_rng(seed)`` and written
with a fixed format, so one seed always gives byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

N_LEVELS = 10
N_FEATURE_ROWS = 4 * N_LEVELS
HORIZONS = (10, 20, 30, 50, 100)
SIGNAL_LEVELS = 3
# Relative mid-price move beyond which a horizon label is up or down;
# chosen so that the three classes are of similar size at horizon 10.
LABEL_THRESHOLD = 8e-5
TICK = 0.01
FMT = "%.10g"


def day_matrix(rng: np.random.Generator, n_events: int) -> np.ndarray:
    """One day as a (45, n_events) array: book rows, then label rows."""
    shocks = rng.normal(0.0, 1.0, n_events)
    imbalance = np.empty(n_events)
    level = 0.0
    for i, shock in enumerate(shocks.tolist()):
        level = 0.98 * level + 0.2 * shock
        imbalance[i] = level
    imbalance = np.tanh(imbalance)

    drift = 0.004 * imbalance
    mid = 100.0 + np.cumsum(drift + rng.normal(0.0, 0.003, n_events))
    spread = TICK * (1 + rng.integers(0, 3, n_events))

    book = np.empty((N_FEATURE_ROWS, n_events))
    depth = TICK * np.arange(N_LEVELS)
    base_volume = rng.gamma(2.0, 150.0, (2, N_LEVELS, n_events))
    tilt = np.zeros((N_LEVELS, 1))
    tilt[:SIGNAL_LEVELS, 0] = 0.8
    for side, sign in ((0, -1.0), (1, 1.0)):
        volume = base_volume[side] * (1.0 + sign * tilt * imbalance)
        book[1 + 2 * side::4] = np.maximum(np.round(volume), 1.0)
    ask = mid + spread / 2
    bid = mid - spread / 2
    book[0::4] = np.round(ask + depth[:, None], 2)
    book[2::4] = np.round(bid - depth[:, None], 2)

    labels = np.empty((len(HORIZONS), n_events))
    csum = np.concatenate(([0.0], np.cumsum(mid)))
    idx = np.arange(n_events)
    for row, h in enumerate(HORIZONS):
        end = np.minimum(idx + h, n_events - 1)
        count = end - idx
        future = np.where(count > 0, (csum[end + 1] - csum[idx + 1]) / np.maximum(count, 1), mid)
        move = (future - mid) / mid
        labels[row] = np.where(move > LABEL_THRESHOLD, 1.0,
                               np.where(move < -LABEL_THRESHOLD, 3.0, 2.0))
    return np.vstack([book, labels])


def write_days(directory, seed: int, events_per_day: list[int]) -> list[Path]:
    """Write one file per entry of ``events_per_day``; returns the paths in order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = []
    for day, n_events in enumerate(events_per_day):
        path = directory / f"day{day:02d}.txt"
        np.savetxt(path, day_matrix(rng, n_events), fmt=FMT)
        paths.append(path)
    return paths
