"""Passes through a caller-owned Workspace against the same passes without one.

A workspace changes where results are written, never what they are: every
loss, gradient, parameter update and prediction must match the
no-workspace path bit for bit, and a pass through one workspace must never
touch what another call returned.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mtabl.network
from mtabl.data import Windows, synth_generate
from mtabl.layers import Workspace, layer_backward, layer_forward
from mtabl.linalg import matmul
from mtabl.losses import cross_entropy, inverse_frequency_weights
from mtabl.network import (
    LayerSpec,
    NetworkSpec,
    gather,
    init_network_params,
    network_backward,
    network_forward,
    predict_labels,
    topology,
)
from mtabl.optim import OptimConfig, TrainState, batch_gradients, step, train
from oracles import biased_params

INPUT = (40, 10)
SPECS = {
    "A/tabl": lambda: topology("A", input_dims=INPUT),
    "B/mtabl3": lambda: topology("B", input_dims=INPUT, attention_kind="mtabl", heads=3),
    "C/mtabl5": lambda: topology("C", input_dims=INPUT, attention_kind="mtabl", heads=5),
}

# Fresh allocations of one train-c step at batch 256 after a warm-up step:
# 0.28 MB measured with a workspace, 12.3 MB without one.
STEP_PEAK_BYTES = 500_000
# Fresh allocations of one 256-window C predict_labels after a warm-up call:
# 3.43 MB measured with every layer writing the same buffers, 5.30 MB when
# each layer kept its own.
PREDICT_PEAK_BYTES = 4_200_000
# Fresh allocations of one 5120-window A/TABL predict_labels after a warm-up
# call: 4.02 MB measured, three 1.2-MB time-major blocks (projected windows,
# masks, mixed heads); 5.37 MB when the scores took a fourth block and the
# masks were copied out of it.
A_PREDICT_PEAK_BYTES = 4_500_000


def _dataset(n=215):
    return synth_generate(n, n_features=INPUT[0], window=INPUT[1], seed=4)


def _snapshot(caches):
    return [[None if v is None else v.tobytes() for v in vars(c).values()
             if not isinstance(v, str)] for c in caches]


def test_step_allocates_no_batch_sized_arrays():
    spec = SPECS["C/mtabl5"]()
    data = _dataset(600)
    params = init_network_params(spec, 0)
    cfg = OptimConfig(batch_size=256)
    state = TrainState.initial(params, cfg)
    weights = inverse_frequency_weights(data.train.labels)
    batch = data.train[:256]
    ws = Workspace()

    def one_step():
        _, grads, _ = batch_gradients(spec, params, batch, weights, ws)
        step(params, grads, state, cfg)

    one_step()
    tracemalloc.start()
    try:
        one_step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < STEP_PEAK_BYTES


def _warm_backward_peaks():
    """Fresh bytes each layer's backward allocates, last layer first, in a
    second train-c step through one workspace, with its caches."""
    spec = SPECS["C/mtabl5"]()
    params = init_network_params(spec, 0)
    batch = _dataset(600).train[:256]
    ws = Workspace()

    def backward_peaks():
        probs, caches = network_forward(gather(batch, ws), spec, params, ws)
        grad = cross_entropy(probs, batch.labels)[1]
        grads = params.like(np.zeros_like(params.flat))
        peaks = []
        for i in reversed(range(len(caches))):
            tracemalloc.start()
            try:
                _, grad = layer_backward(caches[i], params[i], grad, grads[i], ws=ws,
                                         grad_wrt_preactivation=i == len(caches) - 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks, caches[::-1]

    backward_peaks()
    return backward_peaks()


def test_attention_backward_allocates_less_than_one_head_block():
    # The (T, K, D'*B) intermediates go to workspace buffers; 95 KB
    # measured, against 769 KB when each was a fresh array.
    peaks, caches = _warm_backward_peaks()
    block = caches[0].masks.nbytes
    assert block == 153_600 and peaks[0] < block


def test_bl_backward_allocates_no_batch_sized_array():
    # relu's z > 0 is a workspace buffer the forward writes; 67 KB measured
    # in each layer (dW1, the per-row dW2 products and the bias sum), against
    # 220 KB each when the backward took a fresh boolean mask.
    peaks, caches = _warm_backward_peaks()
    for peak, cache in zip(peaks[1:], caches[1:]):
        assert cache.activation == "relu" and cache.z.shape[2] == 256
        assert peak < cache.z.size  # one byte per element: the boolean mask
    assert len(peaks) == 3


def test_attention_forward_takes_its_time_major_copy_from_the_workspace():
    # The time-major xbar block and the (5, 5, 3*256) scores block come
    # from the layer's workspace: 94 KB measured (the softmax's row scratch
    # and numpy's buffer for its broadcast subtraction), against 247 KB when
    # the softmax took a fresh time-major copy of the scores.
    spec = SPECS["C/mtabl5"]()
    params = init_network_params(spec, 0)
    batch = _dataset(600).train[:256]
    ws = Workspace()
    _, caches = network_forward(gather(batch, ws), spec, params, ws)
    x = caches[2].x
    layer_forward(x, params[2], "softmax", ws.layer(2))
    tracemalloc.start()
    try:
        _, cache = layer_forward(x, params[2], "softmax", ws.layer(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cache.masks.shape == (5, 3, 5, 256) and peak < 128 * 1024


@pytest.mark.parametrize("name", sorted(SPECS))
def test_train_matches_a_loop_without_workspace(name):
    spec = SPECS[name]()
    data = _dataset()
    cfg = OptimConfig(batch_size=64, max_epochs=2, seed=7)
    n = len(data.train)
    assert n % cfg.batch_size and data.validation  # a short last batch; validation runs

    seen = []
    train(spec, data, cfg, on_step=lambda params, state: seen.append(params.flat.tobytes()))

    rng = np.random.default_rng(cfg.seed)
    params = init_network_params(spec, rng)
    state = TrainState.initial(params, cfg)
    weights = inverse_frequency_weights(data.train.labels)
    expected = []
    for _ in range(cfg.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = data.train[order[start:start + cfg.batch_size]]
            _, grads, _ = batch_gradients(spec, params, batch, weights)
            step(params, grads, state, cfg)
            expected.append(params.flat.tobytes())
    assert seen == expected


@pytest.mark.parametrize("name", sorted(SPECS))
def test_batch_gradients_bit_identical_with_workspace(name):
    spec = SPECS[name]()
    data = _dataset()
    params = init_network_params(spec, 1)
    weights = inverse_frequency_weights(data.train.labels)
    ws = Workspace()
    # Full, short, then full again: the short batch runs on buffer prefixes.
    for batch in (data.train[:64], data.train[100:111], data.train[30:94]):
        loss, grads, clamped = batch_gradients(spec, params, batch, weights)
        loss_ws, grads_ws, clamped_ws = batch_gradients(spec, params, batch, weights, ws)
        assert (loss_ws, clamped_ws) == (loss, clamped)
        assert grads_ws.flat.tobytes() == grads.flat.tobytes()


def test_hidden_softmax_layer_keeps_its_output_for_its_backward():
    # A layer's backward writes dL/dx over its input when the workspace
    # holds it; a softmax layer below it reads its own output, y, in its
    # backward, so that output must lie outside the workspace.
    spec = NetworkSpec(input_dims=(8, 10), layers=(
        LayerSpec(kind="bl", out_dims=(6, 1), activation="softmax"),
        LayerSpec(kind="tabl", out_dims=(3, 1), activation="softmax")))
    batch = synth_generate(100, n_features=8, window=10, seed=0).train[:32]
    params = init_network_params(spec, 0)
    _, grads, _ = batch_gradients(spec, params, batch, None)
    _, grads_ws, _ = batch_gradients(spec, params, batch, None, Workspace())
    assert grads_ws.flat.tobytes() == grads.flat.tobytes()


def test_backward_with_workspace_skips_only_the_input_gradient():
    spec = SPECS["C/mtabl5"]()
    params = init_network_params(spec, 2)
    batch = _dataset().train[:32]
    probs, caches = network_forward(batch.x, spec, params)
    _, grad_scores, _ = cross_entropy(probs, batch.labels)
    grads = network_backward(spec, params, caches, grad_scores)

    ws = Workspace()
    probs_ws, caches_ws = network_forward(gather(batch, ws), spec, params, ws)
    assert probs_ws.tobytes() == probs.tobytes()
    grads_ws = network_backward(spec, params, caches_ws, grad_scores, ws)
    assert grads_ws.flat.tobytes() == grads.flat.tobytes()


def test_workspace_pass_leaves_other_calls_results_alone():
    spec = SPECS["C/mtabl5"]()
    params = init_network_params(spec, 3)
    data = _dataset()
    first, second = data.train[:48], data.train[48:96]

    probs_plain, caches_plain = network_forward(first.x, spec, params)
    other = Workspace()
    probs_other, caches_other = network_forward(gather(first, other), spec, params, other)
    kept = (probs_plain.tobytes(), _snapshot(caches_plain),
            probs_other.tobytes(), _snapshot(caches_other))

    ws = Workspace()
    for batch in (second, first[:5]):
        probs, caches = network_forward(gather(batch, ws), spec, params, ws)
        network_backward(spec, params, caches, cross_entropy(probs, batch.labels)[1], ws)
        batch_gradients(spec, params, batch, None, ws)
    predict_labels(spec, params, data.test)

    assert kept == (probs_plain.tobytes(), _snapshot(caches_plain),
                    probs_other.tobytes(), _snapshot(caches_other))


def test_short_batch_uses_a_contiguous_prefix():
    ws = Workspace()
    full = ws.take("xbar", (4, 8, 3))
    short = ws.take("xbar", (4, 2, 3))
    assert short.flags.c_contiguous and short.ctypes.data == full.ctypes.data
    assert not np.shares_memory(ws.layer(1).take("xbar", (4, 2, 3)), full)
    assert not np.shares_memory(Workspace().take("xbar", (4, 2, 3)), full)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_predict_through_the_shared_workspace_is_bit_identical(monkeypatch, name):
    # Every chunk, the partial last one included, is gathered into the
    # workspace's x buffer and gives the probabilities of the same forward
    # on fresh arrays: the gathered batch for B, each event's W1 @ X for A and C.
    # B and C run 256 windows a chunk, A/tabl 5120, so all 300 in one.
    spec = SPECS[name]()
    params = biased_params(spec, 0)
    windows = _dataset(600).train[:300]
    calls = []
    forward = mtabl.network.network_forward

    def recording(x, spec, params, ws=None, projected=False):
        probs, caches = forward(x, spec, params, ws, projected)
        in_x = ws.take("x", x.shape).ctypes.data == x.ctypes.data
        calls.append((x.shape[2], projected, probs.copy(), in_x))
        return probs, caches

    monkeypatch.setattr(mtabl.network, "network_forward", recording)
    labels = predict_labels(spec, params, windows)
    widths = [n for n, *_ in calls]
    assert widths == ([300] if name == "A/tabl" else [256, 44])
    expected = []
    for (n, projected, probs, in_x), start in zip(calls, np.cumsum([0] + widths)):
        chunk = windows[start:start + n]
        assert in_x and projected == (name != "B/mtabl3")
        if projected:
            lo, hi = chunk.starts[0], chunk.starts[-1] + chunk.window
            chunk = replace(chunk, series=matmul(params[0].W1, chunk.series[:, lo:hi]),
                            starts=chunk.starts - lo)
        fresh = network_forward(chunk.gather(), spec, params, None, projected)[0]
        assert probs.tobytes() == fresh.tobytes()
        expected += np.argmax(fresh[:, 0], axis=0).tolist()
    assert labels == expected


def test_predict_layers_share_their_buffers():
    spec = SPECS["C/mtabl5"]()
    params = init_network_params(spec, 0)
    windows = _dataset(600).train[:256]
    predict_labels(spec, params, windows)
    tracemalloc.start()
    try:
        predict_labels(spec, params, windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PREDICT_PEAK_BYTES


def test_a_predict_allocates_three_blocks_a_chunk():
    spec = SPECS["A/tabl"]()
    params = init_network_params(spec, 0)
    rng = np.random.default_rng(0)
    windows = Windows(rng.normal(size=(INPUT[0], 5120 + INPUT[1] - 1)), np.arange(5120),
                      rng.integers(0, 3, 5120), INPUT[1])
    predict_labels(spec, params, windows)
    tracemalloc.start()
    try:
        predict_labels(spec, params, windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < A_PREDICT_PEAK_BYTES
