"""predict_labels against the gathered forward it shortcuts.

A first layer that projects features first (topology A) takes W1 @ X once
per event its windows cover, then gathers the windows of that projected
series; a temporal-first first layer (topologies B and C) takes the
gathered (D, B, T) batch. The per-event product runs over other matrix
shapes than the gathered one, so its probabilities may differ in the last
bits: they must stay within 1e-12 relative of the gathered forward, and
the labels must be equal.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import mtabl
import mtabl.network
from mtabl.data import N_FEATURES, RawDayMatrix, Windows, windowize
from mtabl.errors import CacheMismatchError, DimensionError
from mtabl.layers import (
    SCOPE_PROJECT,
    Workspace,
    layer_backward,
    layer_forward,
    temporal_first,
)
from mtabl.linalg import count_multiplications
from mtabl.network import init_network_params, network_forward, predict_labels, topology

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import bench  # noqa: E402  (the benchmark's own cost-model reader)

REL_TOL = 1e-12
WINDOW = 10
SPECS = {
    "A/tabl": lambda: topology("A"),
    "A/mtabl3": lambda: topology("A", attention_kind="mtabl", heads=3),
    "B/mtabl3": lambda: topology("B", attention_kind="mtabl", heads=3),
    "C/mtabl5": lambda: topology("C", attention_kind="mtabl", heads=5),
    "A/mtabl5": lambda: topology("A", attention_kind="mtabl", heads=5),
    "B/mtabl3-20x5": lambda: topology("B", attention_kind="mtabl", heads=3,
                                      hidden_dims=[(20, 5)]),
    # The first BL layer projects features first, so predict_labels gathers
    # each window's 30 x 10 projection.
    "C/mtabl5-30x10-200x5": lambda: topology("C", attention_kind="mtabl", heads=5,
                                             hidden_dims=[(30, 10), (200, 5)]),
}
# Windows per predict_labels chunk: _PREDICT_DOUBLES = 256 * 600 doubles
# over the doubles per window of the widest buffer a forward writes, given
# after each entry. B and C with default hidden layers keep 256-window chunks.
CHUNK = {
    "A/tabl": 5120,  # 30: the (K, 3, 10) heads block
    "A/mtabl3": 1706,  # 90
    "A/mtabl5": 1024,  # 150
    "B/mtabl3": 256,  # 600: the (120, 5) output of the BL layer
    "B/mtabl3-20x5": 384,  # 400: the gathered (40, 10) windows
    "C/mtabl5": 256,  # 600: the outputs of both BL layers
    "C/mtabl5-30x10-200x5": 153,  # 1000: the (200, 5) output
}


def day_windows(events=(300, 250, 200), seed=0):
    """The overlapping windows of day grids (40 features, 5 label rows)
    side by side, as split_days builds a partition."""
    rng = np.random.default_rng(seed)
    days = []
    for n in events:
        grid = np.vstack([rng.normal(size=(N_FEATURES, n)),
                          rng.integers(1, 4, size=(5, n)).astype(float)])
        days.append(windowize(RawDayMatrix(grid), WINDOW))
    return Windows.join(days, (N_FEATURES, WINDOW))


def recorded(monkeypatch):
    """Every network_forward call predict_labels makes, as (x, projected, probs)."""
    calls = []
    forward = mtabl.network.network_forward

    def recording(x, spec, params, ws=None, projected=False):
        probs, caches = forward(x, spec, params, ws, projected)
        calls.append((x.copy(), projected, probs.copy()))
        return probs, caches

    monkeypatch.setattr(mtabl.network, "network_forward", recording)
    return calls


def selections():
    part = day_windows()
    rng = np.random.default_rng(1)
    return {
        "whole partition": part,
        "slice from mid-day": part[137:560],
        "gaps and repeats": part[np.r_[rng.integers(0, len(part), 300), [5, 5, 700, 3]]],
        "partial last chunk": day_windows((3000, 2510), seed=2)[:5400],
        "one window": part[[402]],
    }


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case", sorted(selections()))
@pytest.mark.parametrize("name", ["A/tabl", "A/mtabl3"])
def test_per_event_path_matches_the_gathered_forward(monkeypatch, name, case, seed):
    spec = SPECS[name]()
    params = init_network_params(spec, seed)
    windows = selections()[case]
    assert not temporal_first(params[0])
    calls = recorded(monkeypatch)
    labels = predict_labels(spec, params, windows)

    gathered = network_forward(windows.x, spec, params)[0][:, :, 0]
    assert labels == np.argmax(gathered, axis=0).tolist()
    chunk = CHUNK[name]
    assert [x.shape for x, _, _ in calls] == [
        (3, len(windows[i:i + chunk]), WINDOW) for i in range(0, len(windows), chunk)]
    assert all(projected for _, projected, _ in calls)
    probs = np.concatenate([p[:, :, 0] for _, _, p in calls], axis=1)
    assert np.all(np.abs(probs - gathered) <= REL_TOL * np.abs(gathered))


@pytest.mark.parametrize("name", ["A/tabl", "A/mtabl3"])
def test_scattered_selection_runs_chunks_its_copy_fits(monkeypatch, name):
    # A chunk of windows that are not consecutive copies the series columns
    # they cover, up to 40 x 10 doubles a window: 384 windows a chunk.
    spec = SPECS[name]()
    params = init_network_params(spec, 0)
    day = day_windows((6000,))
    windows = day[np.random.default_rng(3).choice(len(day), 1000, replace=False)]
    assert not windows.consecutive()
    calls = recorded(monkeypatch)
    labels = predict_labels(spec, params, windows)
    assert [x.shape[1] for x, _, _ in calls] == [384, 384, 232]
    gathered = network_forward(windows.x, spec, params)[0][:, :, 0]
    assert labels == np.argmax(gathered, axis=0).tolist()
    probs = np.concatenate([p[:, :, 0] for _, _, p in calls], axis=1)
    assert np.all(np.abs(probs - gathered) <= REL_TOL * np.abs(gathered))


def test_empty_selection_predicts_nothing(monkeypatch):
    spec = SPECS["A/tabl"]()
    calls = recorded(monkeypatch)
    assert predict_labels(spec, init_network_params(spec, 0), day_windows()[:0]) == []
    assert calls == []


@pytest.mark.parametrize("name", ["B/mtabl3", "C/mtabl5"])
def test_temporal_first_networks_take_the_gathered_batch(monkeypatch, name):
    spec = SPECS[name]()
    params = init_network_params(spec, 0)
    windows = day_windows()[100:400]
    assert temporal_first(params[0])
    calls = recorded(monkeypatch)
    labels = predict_labels(spec, params, windows)
    assert [(x.shape, projected) for x, projected, _ in calls] == [
        ((N_FEATURES, 256, WINDOW), False), ((N_FEATURES, 44, WINDOW), False)]
    assert calls[0][0].tobytes() == windows[:256].x.tobytes()
    probs = network_forward(windows.x, spec, params)[0]
    assert labels == np.argmax(probs[:, :, 0], axis=0).tolist()


def test_projected_input_of_the_wrong_shape_raises():
    spec = SPECS["A/tabl"]()
    params = init_network_params(spec, 0)
    with pytest.raises(DimensionError, match="projected input"):
        network_forward(np.zeros((N_FEATURES, 4, WINDOW)), spec, params, None, True)
    with pytest.raises(DimensionError, match="projected input"):
        network_forward(np.zeros((3, 4, WINDOW - 1)), spec, params, None, True)
    # A temporal-first layer has no xbar to start from.
    (bl, *_) = init_network_params(SPECS["C/mtabl5"](), 0)
    with pytest.raises(DimensionError, match="projected input"):
        layer_forward(np.zeros((60, 4, WINDOW)), bl, "relu", None, True)


def test_projected_cache_cannot_run_backward():
    spec = SPECS["A/tabl"]()
    (p,) = init_network_params(spec, 0)
    xbar = np.random.default_rng(0).normal(size=(3, 4, WINDOW))
    probs, cache = layer_forward(xbar, p, "softmax", None, True)
    assert cache.x is None and cache.xbar is xbar
    with pytest.raises(CacheMismatchError, match="projected forward"):
        layer_backward(cache, p, np.ones_like(probs), grad_wrt_preactivation=True)


def test_predict_projects_each_event_once():
    # 600 consecutive windows of one day run in one chunk, whose windows
    # cover 609 events, and W1 is 3 x 40.
    spec = SPECS["A/tabl"]()
    params = init_network_params(spec, 0)
    windows = day_windows((1000,))[200:800]
    with count_multiplications() as counter:
        predict_labels(spec, params, windows)
    assert counter.by_scope[SCOPE_PROJECT] == 609 * 120  # 600 * 10 * 120 per window


@pytest.mark.parametrize("name", sorted(CHUNK))
def test_chunks_fit_the_widest_buffer_to_the_budget(monkeypatch, name):
    spec, chunk = SPECS[name](), CHUNK[name]
    params = init_network_params(spec, 0)
    windows = day_windows((6000,))  # 5991 windows, more than one chunk of each spec
    sizes = []

    class Recording(Workspace):
        def take(self, role, shape):
            sizes.append(math.prod(shape))
            return super().take(role, shape)

    monkeypatch.setattr(mtabl.network, "Workspace", Recording)
    calls = recorded(monkeypatch)
    labels = predict_labels(spec, params, windows)
    assert [x.shape[1] for x, _, _ in calls] == [
        len(windows[i:i + chunk]) for i in range(0, len(windows), chunk)]
    # The widest buffer fits the budget, and one more window would not.
    budget = mtabl.network._PREDICT_DOUBLES
    assert max(sizes) <= budget < max(sizes) // chunk * (chunk + 1)
    probs = network_forward(windows.x, spec, params)[0]
    assert labels == np.argmax(probs[:, :, 0], axis=0).tolist()


# The benchmark counts one window's forward through network_forward: these
# are the figures it read before predict_labels took the per-event path.
BENCH_COUNTS = {
    "A/tabl": {"feature_projection": 1200, "attention_scores": 300,
               "attention_mixing": 60, "head_recombination": 0, "temporal_projection": 30},
    "B/mtabl3": {"feature_projection": 25800, "attention_scores": 225,
                 "attention_mixing": 90, "head_recombination": 135,
                 "temporal_projection": 2015},
    "C/mtabl5": {"feature_projection": 61800, "attention_scores": 375,
                 "attention_mixing": 150, "head_recombination": 225,
                 "temporal_projection": 7015},
}


@pytest.mark.parametrize("name", sorted(BENCH_COUNTS))
def test_benchmark_counts_the_gathered_forward(name):
    spec = SPECS[name]()
    params = init_network_params(spec, 0)
    measured, _ = bench.count_mults(mtabl, spec, params, day_windows()[7].x)
    assert measured == BENCH_COUNTS[name]
