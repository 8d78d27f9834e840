"""Passes through a caller-owned Workspace against the same passes without one.

A workspace changes where results are written, never what they are: every
loss, gradient, parameter update and prediction must match the
no-workspace path bit for bit, and a pass through one workspace must never
touch what another call returned.
"""

import tracemalloc

import numpy as np
import pytest

from mtabl.data import synth_generate
from mtabl.errors import DimensionError
from mtabl.layers import Workspace, forward_sizes, layer_backward, layer_forward
from mtabl.losses import cross_entropy, inverse_frequency_weights
from mtabl.network import (
    gather,
    init_network_params,
    network_backward,
    network_forward,
    predict_labels,
    predict_workspace,
    topology,
)
from mtabl.optim import OptimConfig, TrainState, batch_gradients, step, train

INPUT = (40, 10)
SPECS = {
    "A/tabl": lambda: topology("A", input_dims=INPUT),
    "B/mtabl3": lambda: topology("B", input_dims=INPUT, attention_kind="mtabl", heads=3),
    "C/mtabl5": lambda: topology("C", input_dims=INPUT, attention_kind="mtabl", heads=5),
}

# Fresh allocations of one train-c step at batch 256 after a warm-up step:
# 0.33 MB measured with a workspace (the attention forward's time-major
# copies and the backward's (K, D', B) row sums), 16.1 MB without one.
STEP_PEAK_BYTES = 500_000


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


def test_attention_backward_allocates_less_than_one_head_block():
    # The (K, D', B, T) intermediates go to workspace buffers; 99 KB
    # measured, against 769 KB when each was a fresh array.
    spec = SPECS["C/mtabl5"]()
    params = init_network_params(spec, 0)
    batch = _dataset(600).train[:256]
    ws = Workspace()

    def attention_backward_peak():
        probs, caches = network_forward(gather(batch, ws), spec, params, ws)
        grad = cross_entropy(probs, batch.labels)[1]
        grads = params.like(np.zeros_like(params.flat))
        tracemalloc.start()
        try:
            layer_backward(caches[-1], params[-1], grad, grads[-1],
                           grad_wrt_preactivation=True, ws=ws)
            return tracemalloc.get_traced_memory()[1], caches[-1].masks.nbytes
        finally:
            tracemalloc.stop()

    attention_backward_peak()
    peak, block = attention_backward_peak()
    assert block == 153_600 and peak < block


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


def test_backward_with_workspace_skips_only_the_input_gradient():
    spec = SPECS["C/mtabl5"]()
    params = init_network_params(spec, 2)
    batch = _dataset().train[:32]
    probs, caches = network_forward(batch.x, spec, params)
    _, grad_scores = cross_entropy(probs, batch.labels)
    grads, grad_x = network_backward(spec, params, caches, grad_scores)
    assert grad_x.shape == batch.x.shape

    ws = Workspace()
    probs_ws, caches_ws = network_forward(gather(batch, ws), spec, params, ws)
    assert probs_ws.tobytes() == probs.tobytes()
    grads_ws, grad_x_ws = network_backward(spec, params, caches_ws, grad_scores, ws)
    assert grad_x_ws is None
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


def test_small_predict_forward_runs_on_fresh_arrays():
    params = init_network_params(SPECS["A/tabl"](), 0)
    assert predict_workspace(params, 256) is None  # 0.2 MB of layer arrays


@pytest.mark.parametrize("name", ["B/mtabl3", "C/mtabl5"])
def test_predict_workspace_forward_stays_in_its_block(name):
    spec = SPECS[name]()
    params = init_network_params(spec, 0)
    ws = predict_workspace(params, 256)
    buffers = dict(ws._buffers)
    assert len({id(flat.base) for flat in buffers.values()}) == 1
    # A sized workspace never grows, so a forward that ran stayed in the block.
    batch = _dataset().train[:40]
    probs, _ = network_forward(batch.x, spec, params, ws)
    assert probs.tobytes() == network_forward(batch.x, spec, params)[0].tobytes()
    assert all(ws._buffers[key] is flat for key, flat in buffers.items())
    with pytest.raises(DimensionError, match="no room for xbar"):
        ws.take("xbar", (buffers[None, "xbar"].size + 1,))
    with pytest.raises(DimensionError, match="no room for x "):
        gather(batch, ws)


@pytest.mark.parametrize("name", ["B/mtabl3", "C/mtabl5"])
def test_forward_sizes_fit_each_layer_exactly(name):
    # Each layer's forward fits the workspace its forward_sizes give, and
    # one element less of any role is too little.
    spec = SPECS[name]()
    params = init_network_params(spec, 0)
    x = _dataset().train[:40].x
    for layer, p in zip(spec.layers, params):
        sizes = forward_sizes(p, 40)
        y, _ = layer_forward(x, p, layer.activation, Workspace(sizes))
        assert y.tobytes() == layer_forward(x, p, layer.activation)[0].tobytes()
        for role, size in sizes.items():
            with pytest.raises(DimensionError, match=f"no room for {role} "):
                layer_forward(x, p, layer.activation, Workspace({**sizes, role: size - 1}))
        x = y.copy()
