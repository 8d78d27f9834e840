"""predict_labels against the gathered forward it shortcuts.

Consecutive windows take W1 @ X once per event and then copy the windows
of that projected series, whenever the first layer runs features first
and its shapes say that this writes fewer doubles a window than
gathering: D'*(T + 1) against D*T + D'*T, for the first layer's
(D, T) -> (D', T'). A consecutive selection, a day, a slice of one or
windows laid end to end, projects for A and C, and is gathered for B,
whose first layer runs temporal first. A selection that is not
consecutive takes the gathered (D, T, B) batch. The per-event product
runs over other matrix shapes than the gathered one, so its
probabilities may differ in the last bits: they must stay within 1e-12
relative of the gathered forward, and the labels must be equal. Comparisons run with nonzero biases (``biased_params``),
so that a pass which dropped a bias would fail them.
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import mtabl
import mtabl.network
from mtabl.data import N_FEATURES, RawDayMatrix, Windows, synth_generate, windowize
from mtabl.errors import CacheMismatchError, DimensionError, DivergenceError
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
from oracles import biased_params  # noqa: E402
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
    # A C whose first BL layer runs temporal first: 16,000 against 19,000.
    "C/mtabl5-20x5-120x5": lambda: topology("C", attention_kind="mtabl", heads=5,
                                            hidden_dims=[(20, 5), (120, 5)]),
}
# Windows per predict_labels chunk of a day: _PREDICT_DOUBLES = 256 * 600
# doubles over the doubles per window of the widest buffer a forward writes,
# given after each entry. B and C with default hidden layers keep 256-window chunks.
CHUNK = {
    "A/tabl": 5120,  # 30: the (K, 3, 10) heads block
    "A/mtabl3": 1706,  # 90
    "A/mtabl5": 1024,  # 150
    "B/mtabl3": 256,  # 600: the (120, 5) output of the BL layer
    "B/mtabl3-20x5": 384,  # 400: the gathered (40, 10) windows
    "C/mtabl5": 256,  # 600: the projected windows and the outputs of both BL layers
    "C/mtabl5-30x10-200x5": 153,  # 1000: the (200, 5) output
}
# A gathers windows that are not consecutive, 400 doubles a window.
SCATTERED_CHUNK = 384


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
    params = biased_params(spec, seed)
    windows = selections()[case]
    assert not temporal_first(params[0])
    calls = recorded(monkeypatch)
    labels = predict_labels(spec, params, windows)

    gathered = network_forward(windows.x, spec, params)[0][:, 0]
    assert labels == np.argmax(gathered, axis=0).tolist()
    # Windows that are not consecutive take the gathered path.
    projected = windows.consecutive()
    assert projected == (case != "gaps and repeats")
    rows, chunk = (3, CHUNK[name]) if projected else (N_FEATURES, SCATTERED_CHUNK)
    assert [(x.shape, p) for x, p, _ in calls] == [
        ((rows, WINDOW, len(windows[i:i + chunk])), projected)
        for i in range(0, len(windows), chunk)]
    probs = np.concatenate([p[:, 0] for _, _, p in calls], axis=1)
    assert np.all(np.abs(probs - gathered) <= REL_TOL * np.abs(gathered))


@pytest.mark.parametrize("name", ["A/tabl", "A/mtabl3"])
def test_scattered_selection_runs_chunks_its_copy_fits(monkeypatch, name):
    # Windows that are not consecutive are gathered in the caller's order,
    # 40 x 10 doubles a window: 384 windows a chunk.
    spec = SPECS[name]()
    params = biased_params(spec, 0)
    day = day_windows((6000,))
    windows = day[np.random.default_rng(3).choice(len(day), 1000, replace=False)]
    assert not windows.consecutive()
    calls = recorded(monkeypatch)
    labels = predict_labels(spec, params, windows)
    assert [(x.shape, p) for x, p, _ in calls] == [
        ((N_FEATURES, WINDOW, n), False) for n in (384, 384, 232)]
    expected = []
    for (x, _, probs), start in zip(calls, (0, 384, 768)):
        chunk = windows[start:start + x.shape[2]].x
        assert x.tobytes() == chunk.tobytes()
        fresh = network_forward(chunk, spec, params)[0]
        assert probs.tobytes() == fresh.tobytes()
        expected += np.argmax(fresh[:, 0], axis=0).tolist()
    assert labels == expected


def test_empty_selection_predicts_nothing(monkeypatch):
    spec = SPECS["A/tabl"]()
    calls = recorded(monkeypatch)
    assert predict_labels(spec, init_network_params(spec, 0), day_windows()[:0]) == []
    assert calls == []


@pytest.mark.parametrize("name", ["B/mtabl3", "C/mtabl5-20x5-120x5"])
def test_temporal_first_networks_take_the_gathered_batch(monkeypatch, name):
    spec = SPECS[name]()
    params = biased_params(spec, 0)
    windows = day_windows()[100:400]
    assert temporal_first(params[0])
    calls = recorded(monkeypatch)
    labels = predict_labels(spec, params, windows)
    assert [(x.shape, projected) for x, projected, _ in calls] == [
        ((N_FEATURES, WINDOW, 256), False), ((N_FEATURES, WINDOW, 44), False)]
    assert calls[0][0].tobytes() == windows[:256].x.tobytes()
    probs = network_forward(windows.x, spec, params)[0]
    assert labels == np.argmax(probs[:, 0], axis=0).tolist()


# Whether predict_labels projects a consecutive selection: its first layer
# runs features first, and D'*(T + 1) < D*T + D'*T.
PROJECTS = {
    "A/tabl": True,  # 33 against 430
    "A/mtabl3": True,  # 33 against 430
    "B/mtabl3": False,  # temporal first
    "B/mtabl3-20x5": False,  # temporal first
    "C/mtabl5": True,  # 660 against 1000
    "C/mtabl5-30x10-200x5": True,  # 330 against 700
}


@pytest.mark.parametrize("case", ["whole partition", "slice from mid-day",
                                  "windows end to end", "gaps and repeats"])
@pytest.mark.parametrize("name", sorted(PROJECTS))
def test_predict_takes_the_path_that_writes_fewer_doubles(monkeypatch, name, case):
    spec = SPECS[name]()
    params = biased_params(spec, 0)
    part = day_windows()
    windows = {
        "whole partition": part,
        "slice from mid-day": part[137:560],
        "windows end to end": Windows.separate(part[::3].x, part[::3].labels),
        "gaps and repeats": part[np.r_[400:500, 20:80, 7, 7]],
    }[case]
    expected = PROJECTS[name] and case != "gaps and repeats"
    calls = recorded(monkeypatch)
    labels = predict_labels(spec, params, windows)
    rows = len(params[0].W1) if expected else N_FEATURES
    assert [(x.shape[:2], p) for x, p, _ in calls] == [((rows, WINDOW), expected)] * len(calls)
    gathered = network_forward(windows.x, spec, params)[0][:, 0]
    probs = np.concatenate([p[:, 0] for _, _, p in calls], axis=1)
    assert np.all(np.abs(probs - gathered) <= REL_TOL * np.abs(gathered))
    assert labels == np.argmax(gathered, axis=0).tolist()


# Whether predict_labels projects consecutive windows, per topology and
# input: only a features-first first layer projects, and at 8 x 10 the BL
# layers of B and C both run temporal first.
PATHS = {("A", (40, 10)): True, ("B", (40, 10)): False, ("C", (40, 10)): True,
         ("A", (8, 10)): True, ("B", (8, 10)): False, ("C", (8, 10)): False}


@pytest.mark.parametrize("name,dims", sorted(PATHS), ids=[f"{n}-{d}x{t}" for n, (d, t) in
                                                           sorted(PATHS)])
def test_prediction_runs_every_layer_in_the_order_training_does(monkeypatch, name, dims):
    spec = topology(name, input_dims=dims, attention_kind="mtabl", heads=3)
    params = biased_params(spec, 0)
    windows = synth_generate(90, n_features=dims[0], window=dims[1], seed=0).train
    assert windows.consecutive()
    calls = recorded(monkeypatch)
    orders = []
    forward = mtabl.network.layer_forward

    def layer_recording(x, p, *args):
        y, cache = forward(x, p, *args)
        orders.append((cache.u is not None, temporal_first(p)))
        return y, cache

    monkeypatch.setattr(mtabl.network, "layer_forward", layer_recording)
    predict_labels(spec, params, windows)
    assert {projected for _, projected, _ in calls} == {PATHS[name, dims]}
    assert len(orders) == len(calls) * len(spec.layers)
    assert all(ran == rule for ran, rule in orders)
    assert any(ran for ran, _ in orders) == (name != "A")


def test_c_prediction_projects_each_event_once_a_chunk():
    # 600 windows of one day run in chunks of 256, 256 and 88, which span
    # 627 events: the first BL layer's W1 (60 x 40) takes 627 * 2400
    # multiplications where the gathered batch takes W1 @ X, 600 * 24,000.
    spec = SPECS["C/mtabl5"]()
    params = init_network_params(spec, 0)
    windows = day_windows((1000,))[200:800]
    with count_multiplications() as counter:
        predict_labels(spec, params, windows)
    assert counter.by_scope[SCOPE_PROJECT] == 24_184_800  # 37,080,000 gathered
    assert counter.total == 30_043_800  # 42,939,000 gathered


def test_backward_after_a_forward_only_pass_names_the_missing_mask():
    (bl, *_) = init_network_params(SPECS["C/mtabl5"](), 0)
    y, cache = layer_forward(day_windows()[:4].x, bl, "relu", Workspace(shared=True))
    assert cache.positive is None
    with pytest.raises(CacheMismatchError, match="no relu mask"):
        layer_backward(cache, bl, np.ones_like(y))


@pytest.mark.parametrize("dims", [(8, WINDOW), (N_FEATURES, 8)])
@pytest.mark.parametrize("name", ["A/tabl", "C/mtabl5"])
def test_windows_of_the_wrong_shape_raise_alike_on_both_paths(name, dims):
    spec = SPECS[name]()
    params = init_network_params(spec, 0)
    (d, t), n = dims, 300
    windows = Windows(np.zeros((d, n)), np.arange(n - t + 1), np.zeros(n - t + 1, np.int64), t)
    with pytest.raises(DimensionError, match="does not match network input"):
        predict_labels(spec, params, windows)


def test_projected_input_of_the_wrong_shape_raises():
    spec = SPECS["A/tabl"]()
    params = init_network_params(spec, 0)
    with pytest.raises(DimensionError, match="projected input"):
        network_forward(np.zeros((N_FEATURES, WINDOW, 4)), spec, params, None, True)
    with pytest.raises(DimensionError, match="projected input"):
        network_forward(np.zeros((3, WINDOW - 1, 4)), spec, params, None, True)
    # A BL layer takes its projected input as W1 @ X, D' rows.
    (bl, *_) = init_network_params(SPECS["C/mtabl5"](), 0)
    with pytest.raises(DimensionError, match="projected input"):
        layer_forward(np.zeros((N_FEATURES, WINDOW, 4)), bl, "relu", None, True)


@pytest.mark.parametrize("input_dims,hidden_dims", [((N_FEATURES, WINDOW), None),
                                                    ((8, 10), [(8, 2)])],
                         ids=["B", "B-square-first-layer"])
def test_projected_input_to_a_temporal_first_layer_raises(input_dims, hidden_dims):
    # Only a features-first layer has a projection W1 @ X to take. With
    # D' = D the projected input has the raw input's shape, which the
    # temporal-first branch would multiply without complaint.
    spec = topology("B", input_dims=input_dims, attention_kind="mtabl", heads=3,
                    hidden_dims=hidden_dims)
    params = init_network_params(spec, 0)
    assert temporal_first(params[0])
    d_out = params[0].W1.shape[0]
    with pytest.raises(DimensionError, match=rf"W1 \({d_out}, {input_dims[0]}\).*temporal first"):
        network_forward(np.zeros((d_out, input_dims[1], 4)), spec, params, None, True)


def test_projected_cache_cannot_run_backward():
    spec = SPECS["A/tabl"]()
    (p,) = init_network_params(spec, 0)
    xbar = np.random.default_rng(0).normal(size=(3, WINDOW, 4))
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
        def take(self, role, shape, dtype=np.float64):
            sizes.append(math.prod(shape))
            return super().take(role, shape, dtype)

    monkeypatch.setattr(mtabl.network, "Workspace", Recording)
    calls = recorded(monkeypatch)
    labels = predict_labels(spec, params, windows)
    assert [x.shape[2] for x, _, _ in calls] == [
        len(windows[i:i + chunk]) for i in range(0, len(windows), chunk)]
    # The widest buffer fits the budget, and one more window would not.
    budget = mtabl.network._PREDICT_DOUBLES
    assert max(sizes) <= budget < max(sizes) // chunk * (chunk + 1)
    probs = network_forward(windows.x, spec, params)[0]
    assert labels == np.argmax(probs[:, 0], axis=0).tolist()


# The benchmark counts one window's forward through network_forward: these
# are the figures it read before predict_labels took the per-event path,
# but for C, whose first layer now runs features first (7015 temporal
# multiplications when it ran temporal first).
BENCH_COUNTS = {
    "A/tabl": {"feature_projection": 1200, "attention_scores": 300,
               "attention_mixing": 60, "head_recombination": 0, "temporal_projection": 30},
    "B/mtabl3": {"feature_projection": 25800, "attention_scores": 225,
                 "attention_mixing": 90, "head_recombination": 135,
                 "temporal_projection": 2015},
    "C/mtabl5": {"feature_projection": 61800, "attention_scores": 375,
                 "attention_mixing": 150, "head_recombination": 225,
                 "temporal_projection": 9015},
}


@pytest.mark.parametrize("name", sorted(BENCH_COUNTS))
def test_benchmark_counts_the_gathered_forward(name):
    spec = SPECS[name]()
    params = init_network_params(spec, 0)
    measured, _ = bench.count_mults(mtabl, spec, params, day_windows()[7].x)
    assert measured == BENCH_COUNTS[name]


def _forward_returning(monkeypatch, probs_of):
    """Make network_forward return ``probs_of(call, batch)`` as its probabilities."""
    calls = []
    forward = mtabl.network.network_forward

    def patched(x, spec, params, ws=None, projected=False):
        _, caches = forward(x, spec, params, ws, projected)
        calls.append(x.shape[2])
        return probs_of(len(calls) - 1, x.shape[2]), caches

    monkeypatch.setattr(mtabl.network, "network_forward", patched)
    return calls


def test_labels_are_argmax_with_ties_to_the_lower_class(monkeypatch):
    # Every triple over {0, 0.25, 0.5}, ties of two and of three included,
    # then random probabilities, over two chunks of scattered windows.
    spec = SPECS["A/tabl"]()
    rng = np.random.default_rng(5)
    probs = np.hstack([np.array(list(itertools.product([0.0, 0.25, 0.5], repeat=3))).T,
                       rng.dirichlet(np.ones(3), 700).T])[:, None, :]
    windows = day_windows((1000,))[rng.permutation(727)]
    offsets = []

    def probs_of(call, batch):
        start = sum(offsets)
        offsets.append(batch)
        return probs[..., start:start + batch].copy()

    calls = _forward_returning(monkeypatch, probs_of)
    labels = predict_labels(spec, init_network_params(spec, 0), windows)
    assert calls == [384, 343]
    assert labels == np.argmax(probs[:, 0], axis=0).tolist()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_probability_raises_naming_its_first_window(monkeypatch, value):
    spec = SPECS["A/tabl"]()
    windows = day_windows((1000,))[np.random.default_rng(6).permutation(900)]

    def probs_of(call, batch):
        probs = np.full((3, 1, batch), 1.0 / 3.0)
        if call == 1:  # windows 391 and 400 of the selection
            probs[2, 0, 7] = probs[0, 0, 16] = value
        return probs

    _forward_returning(monkeypatch, probs_of)
    with pytest.raises(DivergenceError, match="window 391 has a non-finite"):
        predict_labels(spec, init_network_params(spec, 0), windows)
