"""The full file-to-evaluation pipeline on generated day files.

Real order-book day files are plain-text numeric grids: feature rows
first (40 of them are used), then five label rows holding the mid-price
movement class at horizons 10/20/30/50/100 events, encoded 1/2/3 for
up/stationary/down. This demo fabricates ten small day files with a
plantable signal, then runs the whole pipeline: parse, window, split by
day, z-score with training statistics, train, evaluate, checkpoint, and
reload the checkpoint to reproduce the evaluation. A partition stores its
days side by side as one event series plus window starts; a batch is a
view into it, gathered only when the network needs it.
"""

import tempfile
from pathlib import Path

import numpy as np

from mtabl import (
    OptimConfig,
    evaluate,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
    split_days,
    topology,
    train,
)

rng = np.random.default_rng(0)
N_EVENTS = 60
WINDOW = 10


def fabricate_day(path, seed):
    """45-row grid whose horizon-10 label leaks into the last window column."""
    r = np.random.default_rng(seed)
    features = r.normal(0.0, 1.0, (40, N_EVENTS))
    labels = r.integers(1, 4, (5, N_EVENTS)).astype(float)
    # Plant the class signal on the first feature rows at each event so the
    # task is learnable from a single day of synthetic flow.
    for t in range(N_EVENTS):
        features[:6, t] += 1.5 * (labels[0, t] - 2.0)
    grid = np.vstack([features, labels])
    with open(path, "w") as fh:
        for row in grid:
            fh.write(" ".join(f"{v:.8g}" for v in row) + "\n")


with tempfile.TemporaryDirectory() as tmp:
    day_dir = Path(tmp)
    for i in range(10):
        fabricate_day(day_dir / f"day{i:02d}.txt", seed=100 + i)

    files = sorted(str(p) for p in day_dir.iterdir())
    ds = split_days(files, train_days=6, val_days=1, test_days=3,
                    window=WINDOW, horizon=10)
    print(f"windowed dataset: {len(ds.train)} train / {len(ds.validation)} "
          f"validation / {len(ds.test)} test samples of shape {ds.sample_dims()}")
    print(f"each partition keeps every event once: the training days form one "
          f"{ds.train.series.shape} series with {len(ds.train.starts)} window starts")
    print(f"feature means were standardized from the 6 training days only; "
          f"first-row std {ds.feature_std[0]:.3f}")

    spec = topology("A", input_dims=ds.sample_dims(), attention_kind="mtabl", heads=2)
    cfg = OptimConfig(max_epochs=30, batch_size=64, learning_rate=0.01, seed=0)
    params, records = train(spec, ds, cfg)
    print(f"\ntrained 30 epochs; final train loss {records[-1].train_loss:.4f}, "
          f"best val F1 {max(r.val_report.macro_f1 for r in records):.3f}")

    report = evaluate(predict_labels(spec, params, ds.test), ds.labels("test"))
    print("\ntest report:")
    print(report.to_text())

    ck = day_dir / "model.mtabl"
    save_checkpoint(ck, spec, params, meta={"demo": True})
    spec2, params2, _ = load_checkpoint(ck)
    report2 = evaluate(predict_labels(spec2, params2, ds.test), ds.labels("test"))
    print(f"\ncheckpoint round trip reproduces the report: "
          f"{report2.to_dict() == report.to_dict()}")
