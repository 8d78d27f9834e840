"""Batched (D, T, B) passes against the one-window path they replace.

A batch sums every parameter gradient inside one matrix product, so the
summation order differs from adding window by window: gradients must
agree with the per-window reference to within 1e-12 of the largest
gradient entry. Everything else (shapes of the single-window contract,
masks, predictions, multiplication counts, seeded determinism) must hold
exactly.
"""

import tracemalloc

import numpy as np
import pytest

import mtabl.layers
import mtabl.network
from mtabl.data import Windows, synth_generate
from mtabl.errors import ConstraintError, DivergenceError
from mtabl.layers import Workspace, layer_backward, layer_forward
from mtabl.linalg import count_multiplications
from mtabl.losses import inverse_frequency_weights
from mtabl.network import (
    LayerSpec,
    NetworkSpec,
    gather,
    init_network_params,
    network_forward,
    predict_labels,
    topology,
)
from mtabl.optim import OptimConfig, batch_gradients, train
from mtabl.verify import random_layer_case

from oracles import per_window_gradients

REL_TOL = 1e-12
INPUT = (40, 10)


def _fixed_diag_spec():
    layer = LayerSpec(kind="mtabl", out_dims=(3, 1), activation="softmax", heads=2,
                      fix_attention_diag=True)
    return NetworkSpec(input_dims=INPUT, layers=(layer,))


SPECS = {
    "A/tabl": lambda: topology("A", input_dims=INPUT),
    "B/mtabl3": lambda: topology("B", input_dims=INPUT, attention_kind="mtabl", heads=3),
    "C/mtabl5": lambda: topology("C", input_dims=INPUT, attention_kind="mtabl", heads=5),
    "A/mtabl2-fixed-diag": _fixed_diag_spec,
}


def windows(n, seed=0, dims=INPUT):
    """n random windows that share no events, each its own day."""
    rng = np.random.default_rng(seed)
    xs, labels = [], []
    for _ in range(n):
        xs.append(rng.normal(size=dims))
        labels.append(int(rng.integers(3)))
    return Windows.separate(np.stack(xs, axis=-1), labels)


def relative_gap(a, b):
    return float(np.abs(a - b).max() / np.abs(b).max())


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("weighting", ["uniform", "inverse"])
def test_batch_gradients_match_per_window(name, weighting):
    spec = SPECS[name]()
    params = init_network_params(spec, 3)
    batch = windows(37, seed=4)
    weights = (inverse_frequency_weights(batch.labels)
               if weighting == "inverse" else None)
    loss, grads, clamped = batch_gradients(spec, params, batch, weights)
    ref_loss, ref_grads, ref_clamped = per_window_gradients(spec, params, batch, weights)
    assert relative_gap(grads.flat, ref_grads) <= REL_TOL
    assert abs(loss - ref_loss) <= REL_TOL * abs(ref_loss)
    assert clamped == ref_clamped == 0


def test_floored_probabilities_are_counted_alike():
    # A huge bias drives classes 1 and 2 to probability 0 in every window,
    # so every window labelled 1 or 2 is floored before the log.
    spec = SPECS["C/mtabl5"]()
    params = init_network_params(spec, 1)
    params[-1].B[:, 0] = (800.0, 0.0, -800.0)
    batch = windows(24, seed=2)
    loss, grads, clamped = batch_gradients(spec, params, batch, None)
    ref_loss, ref_grads, ref_clamped = per_window_gradients(spec, params, batch)
    assert clamped == ref_clamped == np.count_nonzero(batch.labels) > 0
    assert np.isfinite(loss) and abs(loss - ref_loss) <= REL_TOL * abs(ref_loss)
    assert relative_gap(grads.flat, ref_grads) <= REL_TOL


@pytest.mark.parametrize("name", sorted(SPECS))
def test_predictions_equal_per_window_argmax(name):
    spec = SPECS[name]()
    params = init_network_params(spec, 5)
    samples = windows(600, seed=6)  # three chunks, the last one partial
    expected = [int(np.argmax(network_forward(s.x, spec, params)[0][:, 0]))
                for s in samples]
    assert predict_labels(spec, params, samples) == expected


def test_multiplication_counts_scale_with_the_batch():
    spec = SPECS["C/mtabl5"]()
    params = init_network_params(spec, 0)
    batch = windows(7)
    with count_multiplications() as one:
        network_forward(batch[0].x, spec, params)
    with count_multiplications() as seven:
        network_forward(batch.x, spec, params)
    assert set(seven.by_scope) == set(one.by_scope)
    assert all(seven.by_scope[k] == 7 * one.by_scope[k] for k in one.by_scope)


# Multiplications that one batch_gradients call records at 256 windows, by
# scope; the backward's products are unscoped. These are counts, the same
# on every machine. B's BL layer and C's second multiply as W1 @ (X @ W2)
# and C's first as (W1 @ X) @ W2, the orders temporal_first picks: with
# every BL layer features first the totals were 43,169,280 for B and
# 84,840,960 for C, and with every BL layer temporal first C's was
# 52,325,120. No layer-0 dL/dx is computed; its product, 307,200 (A),
# 512,000 (B) or 6,144,000 (C), is not counted.
STEP_MULTIPLICATIONS = {
    "A/tabl": {"feature_projection": 307200, "attention_scores": 76800,
               "attention_mixing": 15360, "temporal_projection": 7680,
               "unscoped": 476160},
    "B/mtabl3": {"feature_projection": 6604800, "attention_scores": 57600,
                 "attention_mixing": 23040, "head_recombination": 34560,
                 "temporal_projection": 515840, "unscoped": 13913600},
    "C/mtabl5": {"feature_projection": 15820800, "attention_scores": 96000,
                 "attention_mixing": 38400, "head_recombination": 57600,
                 "temporal_projection": 2307840, "unscoped": 30420480},
}
STEP_TOTALS = {"A/tabl": 883_200, "B/mtabl3": 21_149_440, "C/mtabl5": 48_741_120}


@pytest.mark.parametrize("name", sorted(STEP_MULTIPLICATIONS))
def test_training_step_multiplications_are_pinned(name):
    spec = SPECS[name]()
    params = init_network_params(spec, 0)
    with count_multiplications() as counter:
        batch_gradients(spec, params, windows(256), None)
    assert counter.by_scope == STEP_MULTIPLICATIONS[name]
    assert counter.total == STEP_TOTALS[name]


# First BL layers (D, T) -> (D', T') of a B network: D in {8, 40} and T in
# {5, 10, 11, 12, 20}, into the default hidden shapes (60, 10) and (120, 5)
# and into (20, 5) and (30, 10); and (3, 3) -> (3, 3), where both orders
# take 135 multiplications a window.
RULE_SHAPES = [((d, t), out) for d in (8, 40) for t in (5, 10, 11, 12, 20)
               for out in ((60, 10), (120, 5), (20, 5), (30, 10))] + [((3, 3), (3, 3))]


@pytest.mark.parametrize("dims,out", RULE_SHAPES,
                         ids=[f"{d}x{t}-{o}x{u}" for (d, t), (o, u) in RULE_SHAPES])
def test_association_rule_takes_the_order_with_fewer_counted_multiplications(
        monkeypatch, dims, out):
    # Each order forced in turn on the BL layer, one batch_gradients step
    # counted: the rule must pick the order that counted fewer, a tie
    # features first.
    spec = topology("B", input_dims=dims, hidden_dims=[out])
    params = init_network_params(spec, 0)
    batch = Windows.separate(np.random.default_rng(0).normal(size=(*dims, 4)), [0, 1, 2, 0])
    rule, counts = mtabl.layers.temporal_first, {}
    for forced in (True, False):
        monkeypatch.setattr(mtabl.layers, "temporal_first",
                            lambda p: forced and not len(p.heads))
        with count_multiplications() as counter:
            batch_gradients(spec, params, batch, None)
        counts[forced] = counter.total
    assert (counts[True] == counts[False]) == (dims == (3, 3))
    assert rule(params[0]) == (counts[True] < counts[False])


def test_seeded_training_is_bit_identical():
    ds = synth_generate(60, n_features=8, window=10, seed=1, split=(0.8, 0.2, 0.0))
    spec = topology("C", input_dims=ds.sample_dims(), attention_kind="mtabl", heads=5)
    cfg = OptimConfig(max_epochs=2, batch_size=16, seed=4)
    (a, log_a), (b, log_b) = train(spec, ds, cfg), train(spec, ds, cfg)
    assert a.flat.tobytes() == b.flat.tobytes()
    assert [r.to_dict() for r in log_a] == [r.to_dict() for r in log_b]


class TestBatchLayout:
    """A batch is (D, T, B), window b at ``[..., b]``: the batch axis is the
    contiguous one in every layer's input and output."""

    @pytest.mark.parametrize("workspace", [False, True])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_layers_pass_their_outputs_on_uncopied(self, name, workspace):
        spec = SPECS[name]()
        params = init_network_params(spec, 2)
        ws = Workspace() if workspace else None
        x = gather(windows(9, seed=3), ws)
        probs, caches = network_forward(x, spec, params, ws)
        inputs = [x] + [cache.y for cache in caches[:-1]]
        for cache, given, (d_out, t_out) in zip(caches, inputs, spec.shapes()[1:]):
            assert cache.x is given  # read in place by the next layer
            assert cache.y.shape == (d_out, t_out, 9) and cache.y.flags.c_contiguous
        assert probs is caches[-1].y

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_each_window_slice_is_the_window_pass(self, name):
        spec = SPECS[name]()
        params = init_network_params(spec, 2)
        batch = windows(9, seed=3)
        _, caches = network_forward(batch.x, spec, params)
        for b, sample in enumerate(batch):
            _, alone = network_forward(sample.x, spec, params)
            for many, one in zip(caches, alone):
                assert one.y.shape == many.y.shape[:2] + (1,)
                assert np.abs(many.y[..., b] - one.y[..., 0]).max() <= REL_TOL * np.abs(one.y).max()


class TestSingleWindowContract:
    """What callers of the one-window API rely on."""

    @pytest.mark.parametrize("case", ["A/tabl", "B/mtabl3", "C/mtabl5", "bl", "tabl", "mtabl"])
    def test_a_window_is_a_batch_of_one(self, case):
        # A (D, T) window gives the bits of the batch x[..., None], B = 1
        # kept: every layer's output and cache, its parameter gradients and
        # dL/dx, and a network's class probabilities.
        rng = np.random.default_rng(5)
        if case in SPECS:
            spec = SPECS[case]()
            params = init_network_params(spec, 0)
            x = windows(1)[0].x
            probs = network_forward(x, spec, params)[0]
            assert same_bits(probs, network_forward(x[..., None], spec, params)[0])
            assert probs.shape == (3, 1, 1)
            layers = [(p, layer.activation) for p, layer in zip(params, spec.layers)]
        else:
            p, activation, x = random_layer_case(case, rng, heads=3)
            layers = [(p, activation)]
        for p, activation in layers:
            y, cache = layer_forward(x, p, activation)
            y_batch, batch = layer_forward(x[..., None], p, activation)
            assert same_bits(y, y_batch) and y.shape[2:] == (1,)
            for name, a in vars(cache).items():
                if isinstance(a, np.ndarray):
                    assert same_bits(a, getattr(batch, name)) and a.shape[-1] == 1, name
                else:
                    assert a == getattr(batch, name), name
            grad_y = rng.normal(size=y.shape)
            grads, grad_x = layer_backward(cache, p, grad_y)
            grads_batch, grad_x_batch = layer_backward(batch, p, grad_y)
            assert same_bits(grads.flat, grads_batch.flat)
            assert same_bits(grad_x, grad_x_batch) and grad_x.shape == x.shape + (1,)
            x = y[..., 0]  # the next layer's window

    def test_batched_masks_match_one_window_masks(self):
        spec = SPECS["A/tabl"]()
        (p,) = init_network_params(spec, 0)
        batch = windows(5)
        _, cache = layer_forward(batch.x, p, "softmax")
        (mask,) = cache.masks
        assert mask.shape == (3, 10, 5)
        for b, sample in enumerate(batch):
            _, one = layer_forward(sample.x, p, "softmax")
            assert np.abs(mask[..., b] - one.masks[0][..., 0]).max() <= 1e-15

    def test_predict_labels_takes_lists_and_slices(self, monkeypatch):
        # Slices and index lists of a partition are partitions too.
        spec = SPECS["A/tabl"]()
        params = init_network_params(spec, 0)
        samples = windows(600)
        widths = []
        forward = mtabl.network.network_forward

        def recording(x, *args):
            widths.append(x.shape[2])
            return forward(x, *args)

        monkeypatch.setattr(mtabl.network, "network_forward", recording)
        preds = predict_labels(spec, params, samples)
        assert widths == [600]  # one chunk: A/tabl takes 5120 windows a chunk
        assert len(preds) == 600 and all(type(p) is int for p in preds)
        assert predict_labels(spec, params, samples[100:350]) == preds[100:350]
        assert predict_labels(spec, params, samples[[599, 3, 3]]) == [preds[599], preds[3],
                                                                       preds[3]]
        assert predict_labels(spec, params, samples[:0]) == []

    def test_predict_memory_does_not_grow_with_the_day(self):
        # A long selection against one chunk: C runs 256 windows a chunk, and
        # A/tabl 5120, here over the overlapping windows of one day.
        rng = np.random.default_rng(0)
        day = Windows(rng.normal(size=(INPUT[0], 4 * 5120 + INPUT[1] - 1)),
                      np.arange(4 * 5120), rng.integers(0, 3, 4 * 5120), INPUT[1])
        for name, samples, chunk in (("C/mtabl5", windows(2560), 256), ("A/tabl", day, 5120)):
            spec = SPECS[name]()
            params = init_network_params(spec, 0)

            def peak(n):
                tracemalloc.start()
                try:
                    predict_labels(spec, params, samples[:n])
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

            assert peak(len(samples)) < 1.5 * peak(chunk), name

    def test_scattered_predict_memory_stays_within_the_consecutive_bound(self):
        # Windows drawn at random from a long day cover columns with gaps
        # between them, which A's per-event path copies before projecting.
        rng = np.random.default_rng(0)
        events = 60_000
        day = Windows(rng.normal(size=(INPUT[0], events)), np.arange(events - INPUT[1] + 1),
                      rng.integers(0, 3, events - INPUT[1] + 1), INPUT[1])
        spec = SPECS["A/tabl"]()
        params = init_network_params(spec, 0)

        def peak(samples):
            tracemalloc.start()
            try:
                predict_labels(spec, params, samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        drawn = rng.choice(len(day), 5120, replace=False)
        bound = peak(day[:5120])
        assert peak(day[np.sort(drawn)]) <= bound
        assert peak(day[drawn]) <= bound

    def test_shuffled_predict_memory_stays_within_the_sorted_draw(self):
        # A's per-event path copies the columns each chunk's windows cover;
        # finding them costs the chunk's own columns, not the span of the
        # day they lie in, and a draw runs in start order however it was
        # shuffled. 1.55 MB for both here, up to a few hundred bytes of the
        # interpreter's own; 2.68 MB shuffled against 1.40 MB sorted when the
        # covered columns came from counts over that span.
        rng = np.random.default_rng(0)
        events = 60_000
        day = Windows(rng.normal(size=(INPUT[0], events)), np.arange(events - INPUT[1] + 1),
                      rng.integers(0, 3, events - INPUT[1] + 1), INPUT[1])
        spec = SPECS["A/tabl"]()
        params = init_network_params(spec, 0)

        def peak(samples):
            predict_labels(spec, params, samples)
            tracemalloc.start()
            try:
                predict_labels(spec, params, samples)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        drawn = rng.choice(len(day), 5120, replace=False)
        assert peak(day[drawn]) <= 1.02 * peak(day[np.sort(drawn)])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_checks_cover_every_window(self):
        spec = SPECS["A/tabl"]()
        (p,) = init_network_params(spec, 0)
        x = windows(6).x
        x[0, 0, 4] = np.nan  # one bad window among six
        with pytest.raises(DivergenceError, match="attention"):
            layer_forward(x, p, "softmax")
        p.lam[()] = 1.5
        with pytest.raises(ConstraintError):
            layer_forward(windows(6).x, p, "softmax")
