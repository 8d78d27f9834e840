import numpy as np
import pytest

from mtabl.errors import (
    CacheMismatchError,
    ConfigurationError,
    ConstraintError,
    DimensionError,
)
from mtabl.layers import (
    LayerParams,
    Workspace,
    activation_backward,
    layer_backward,
    layer_forward,
    layer_layout,
    temporal_first,
)
from mtabl.network import init_network_params, network_forward, topology

from oracles import (
    attention_masks_scalar,
    bl_feature_first,
    bl_forward_scalar,
    mtabl_forward_scalar,
    tabl_forward_scalar,
)


def random_base(rng, d=2, t=3, d_out=2, t_out=2):
    return dict(W1=rng.normal(size=(d_out, d)), W2=rng.normal(size=(t, t_out)),
                B=rng.normal(size=(d_out, t_out)))


def random_bl(rng, d=2, t=3, d_out=2, t_out=2):
    return LayerParams.pack(**random_base(rng, d, t, d_out, t_out))


def random_tabl(rng, d=2, t=3, d_out=2, t_out=2, lam=0.6):
    base = random_base(rng, d, t, d_out, t_out)
    return LayerParams.pack(**base, heads=[rng.normal(size=(t, t))], lam=lam)


def random_mtabl(rng, d=2, t=3, d_out=2, t_out=2, k=2, lam=0.6):
    base = random_base(rng, d, t, d_out, t_out)
    return LayerParams.pack(
        **base, heads=[rng.normal(size=(t, t)) for _ in range(k)], lam=lam,
        Wtilde1=rng.normal(size=(d_out, d_out * k)),
    )


def without_attention(p):
    """The same W1, W2 and B with no heads."""
    return LayerParams.pack(p.W1, p.W2, p.B)


class TestBLForward:
    def test_zero_input_zero_bias(self, rng):
        p = random_bl(rng)
        p.B[:] = 0.0
        y, _ = layer_forward(np.zeros((2, 3)), p)
        assert np.array_equal(y, np.zeros((2, 2)))

    def test_identity_weights_pass_input_through(self, rng):
        x = rng.normal(size=(3, 4))
        p = LayerParams.pack(W1=np.eye(3), W2=np.eye(4), B=np.zeros((3, 4)))
        y, _ = layer_forward(x, p)
        assert np.array_equal(y, x)

    def test_matches_scalar_oracle(self, rng):
        x = rng.normal(size=(2, 3))
        p = random_bl(rng)
        for act in ("identity", "relu"):
            y, _ = layer_forward(x, p, act)
            expected = np.array(bl_forward_scalar(
                x.tolist(), p.W1.tolist(), p.W2.tolist(), p.B.tolist(), act))
            assert np.abs(y - expected).max() <= 1e-12

    def test_shape_mismatch(self, rng):
        p = random_bl(rng, d=2)
        with pytest.raises(DimensionError):
            layer_forward(np.zeros((3, 3)), p)


# (D, T) -> (D', T') on both sides of the association rule, counted over a
# forward and its parameter gradients: two that are cheaper as
# W1 @ (X @ W2) (the second is topology C's second layer), two cheaper as
# (W1 @ X) @ W2 (the first is C's first layer, 66,000 against 80,000), and
# a tie, which keeps the paper's order.
ORDER_SHAPES = [((6, 5), (8, 2)), ((60, 10), (120, 5)), ((40, 10), (60, 10)), ((4, 3), (2, 6)),
                ((3, 3), (3, 3))]


class TestAssociationOrder:
    def test_rule_takes_the_cheaper_order(self, rng):
        assert [temporal_first(random_bl(rng, *dims, *out)) for dims, out in ORDER_SHAPES] \
            == [True, True, False, False, False]
        # Attention needs W1 @ X first, whatever the shapes.
        assert not temporal_first(random_tabl(rng, 6, 5, 8, 2))

    @pytest.mark.parametrize("activation", ["identity", "relu"])
    @pytest.mark.parametrize("dims,out", ORDER_SHAPES)
    def test_matches_the_feature_first_reference(self, rng, dims, out, activation):
        p = random_bl(rng, *dims, *out)
        d, t = dims
        ws = Workspace()
        # One window, then a batch and a short last batch through one workspace.
        for x, w in ((rng.normal(size=dims), None), (rng.normal(size=(d, t, 8)), ws),
                     (rng.normal(size=(d, t, 3)), ws)):
            y, cache = layer_forward(x, p, activation, w)
            y = y.copy()
            grad_y = rng.normal(size=y.shape)
            grads, grad_x = layer_backward(cache, p, grad_y, ws=w)
            want = bl_feature_first(x, p.W1, p.W2, p.B, activation, grad_y)
            for got, ref in zip((y, grads.W1, grads.W2, grads.B, grad_x), want):
                assert got.shape == ref.shape
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_temporal_first_matches_scalar_oracle(self, rng):
        p = random_bl(rng, d=6, t=5, d_out=8, t_out=2)
        assert temporal_first(p)
        x = rng.normal(size=(6, 5))
        for act in ("identity", "relu"):
            y, cache = layer_forward(x, p, act)
            assert cache.xbar is None and cache.u.shape == (6, 2)
            expected = np.array(bl_forward_scalar(
                x.tolist(), p.W1.tolist(), p.W2.tolist(), p.B.tolist(), act))
            assert np.abs(y - expected).max() <= 1e-12

    def test_bias_gradient_sums_windows_like_numpy_sum(self, rng):
        # dL/dB is dz summed over the contiguous batch axis; its bits must be
        # those of dz.sum(axis=2), whatever the shape.
        for _ in range(200):
            d, t, d_out = rng.integers(1, 7, size=3)
            t_out, b = rng.integers(1, 12), rng.integers(1, 300)
            p = random_bl(rng, d, t, d_out, t_out)
            _, cache = layer_forward(rng.normal(size=(d, t, b)), p)
            grad_y = rng.normal(size=(d_out, t_out, b))
            grads, _ = layer_backward(cache, p, grad_y, input_grad=False)
            assert grads.B.tobytes() == grad_y.sum(axis=2).tobytes()


@pytest.mark.parametrize("workspace", [False, True])
def test_relu_mask_keeps_the_bits_of_a_float_factor(workspace):
    # The forward keeps z > 0 as a boolean mask, and the backward multiplies
    # by it: dL/dz must carry the bits of g * (z > 0).astype(float), so a
    # negative g times a closed gate gives -0.0, not 0.0. W1 is zero, so z
    # is B plus W1 @ u = +0.0; the -0.0 in B arrives as +0.0 (-0 + +0 = +0),
    # which the gate treats alike.
    special = np.array([0.0, -0.0, np.nan, 1.5, -1.5])
    z = np.repeat(special, 2)[:, None]  # each row twice, for g of either sign
    p = LayerParams.pack(W1=np.zeros((len(z), 2)), W2=np.ones((3, 1)), B=z)
    assert temporal_first(p)
    ws = Workspace() if workspace else None
    _, cache = layer_forward(np.ones((2, 3, 4)), p, "relu", ws)
    g = np.tile([1.25, -1.25], len(special))[:, None, None] * np.array([1.0, 2.0, -0.0, 0.5])
    expected = g * (z[..., None] > 0).astype(float)
    # In place when the workspace holds dL/dy, as it does in a network.
    grad_y = g.copy() if ws is None else ws.take("grad", g.shape)
    grad_y[...] = g
    dz = activation_backward(grad_y, cache, ws)
    assert np.shares_memory(dz, grad_y) == workspace
    assert np.signbit(expected[expected == 0.0]).any()  # closed gates give -0.0
    assert dz.tobytes() == expected.tobytes()


class TestTABLForward:
    def test_lam_zero_equals_bl(self, rng):
        x = rng.normal(size=(2, 3))
        p = random_tabl(rng, lam=0.0)
        y_tabl, _ = layer_forward(x, p)
        y_bl, _ = layer_forward(x, without_attention(p))
        assert np.abs(y_tabl - y_bl).max() <= 1e-12

    def test_single_step_series_ignores_attention(self, rng):
        # With one time step the mask is all ones, so any lam and any W
        # leave the output at the plain bilinear value.
        x = rng.normal(size=(4, 1))
        base = random_base(rng, d=4, t=1, d_out=3, t_out=1)
        y_bl, _ = layer_forward(x, LayerParams.pack(**base))
        for lam in (0.0, 0.3, 1.0):
            p = LayerParams.pack(**base, heads=[rng.normal(size=(1, 1))], lam=lam)
            y, _ = layer_forward(x, p)
            assert np.abs(y - y_bl).max() <= 1e-12

    def test_matches_five_step_oracle(self, rng):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        p = LayerParams.pack(
            W1=np.array([[1.0, 2.0], [-1.0, 0.5]]),
            W2=np.array([[2.0], [-1.0]]),
            B=np.array([[0.1], [-0.2]]),
            heads=[np.array([[0.5, -0.25], [1.0, 0.75]])],
            lam=0.6,
        )
        y, _ = layer_forward(x, p)
        expected = np.array(tabl_forward_scalar(
            x.tolist(), p.W1.tolist(), p.heads[0].tolist(), p.W2.tolist(),
            p.B.tolist(), float(p.lam)))
        assert np.abs(y - expected).max() <= 1e-12

    def test_lam_outside_range_rejected(self, rng):
        for lam in (-0.1, 1.1):
            p = random_tabl(rng, lam=lam)
            with pytest.raises(ConstraintError):
                layer_forward(np.zeros((2, 3)), p)

    def test_wrong_attention_shape(self, rng):
        base = random_base(rng, t=3)
        with pytest.raises(DimensionError, match=r"heads \(1, 2, 2\) must be \(1, 3, 3\)"):
            LayerParams.pack(**base, heads=[np.zeros((2, 2))], lam=0.5)

    def test_mask_rows_sum_to_one(self, rng):
        _, cache = layer_forward(rng.normal(size=(3, 5)), random_tabl(rng, d=3, t=5))
        assert np.abs(cache.masks[0].sum(axis=1) - 1.0).max() <= 1e-12

    def test_mixing_is_convex_combination(self, rng):
        for lam in (0.0, 0.25, 0.8, 1.0):
            p = random_tabl(rng, d=3, t=4, lam=lam)
            _, cache = layer_forward(rng.normal(size=(3, 4)), p)
            attended = cache.xbar * cache.masks[0]
            lo = np.minimum(cache.xbar, attended)
            hi = np.maximum(cache.xbar, attended)
            assert (cache.xtilde >= lo - 1e-12).all()  # one head: xtilde is mix_1
            assert (cache.xtilde <= hi + 1e-12).all()

    def test_projection_is_homogeneous_in_input(self, rng):
        p = random_tabl(rng)
        x = rng.normal(size=(2, 3))
        _, cache1 = layer_forward(x, p)
        _, cache2 = layer_forward(2.5 * x, p)
        assert np.abs(cache2.xbar - 2.5 * cache1.xbar).max() <= 1e-12


class TestMixing:
    """The forward mixes each head as xbar*(lam*a + (1-lam)), the paper's
    lam*(xbar*a) + (1-lam)*xbar up to rounding."""

    @staticmethod
    def layer(rng, k, lam):
        dims = dict(d=4, t=5, d_out=3, t_out=2, lam=lam)
        return random_tabl(rng, **dims) if k == 1 else random_mtabl(rng, k=k, **dims)

    @pytest.mark.parametrize("lam", [0.3, 0.7])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_batch_matches_the_paper_formula_window_by_window(self, rng, k, lam):
        p = self.layer(rng, k, lam)
        x = rng.normal(size=(4, 5, 6))
        y, _ = layer_forward(x, p)
        for b in range(x.shape[2]):
            window = [x[..., b].tolist(), p.W1.tolist()]
            rest = [p.W2.tolist(), p.B.tolist(), lam]
            expected = np.array(
                tabl_forward_scalar(*window, p.heads[0].tolist(), *rest) if k == 1
                else mtabl_forward_scalar(*window, [w.tolist() for w in p.heads],
                                          p.Wtilde1.tolist(), *rest))
            assert np.abs(y[..., b] - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("k", [1, 3])
    def test_mixing_is_exact_at_either_end(self, rng, k, lam):
        # lam = 0 passes xbar through, lam = 1 gives xbar*a, bit for bit.
        p = self.layer(rng, k, lam)
        x = rng.normal(size=(4, 5, 6))
        y, cache = layer_forward(x, p)
        a, xbar = cache.masks, cache.xbar
        mixed = cache.xtilde[None] if k == 1 else cache.stacked.reshape(a.shape)
        assert mixed.tobytes() == (lam * (xbar * a) + (1.0 - lam) * xbar).tobytes()
        if k == 1 and lam == 0.0:  # the BL layer over the same xbar
            z = p.W2.T @ xbar + p.B[..., None]
            assert y.tobytes() == z.tobytes()


class TestMTABLForward:
    def test_one_head_identity_recombination_equals_single_head(self, rng):
        x = rng.normal(size=(3, 4))
        single = random_tabl(rng, d=3, t=4, d_out=2, t_out=2)
        multi = LayerParams.pack(single.W1, single.W2, single.B, heads=single.heads,
                                 Wtilde1=np.eye(2), lam=single.lam)
        y_single, _ = layer_forward(x, single)
        y_multi, _ = layer_forward(x, multi)
        assert np.abs(y_multi - y_single).max() <= 1e-12

    def test_identical_heads_mean_recombination(self, rng):
        x = rng.normal(size=(3, 4))
        single = random_tabl(rng, d=3, t=4, d_out=2, t_out=2)
        multi = LayerParams.pack(
            single.W1, single.W2, single.B, heads=np.concatenate([single.heads] * 3),
            lam=single.lam, Wtilde1=np.hstack([np.eye(2)] * 3) / 3.0,
        )
        y_single, _ = layer_forward(x, single)
        y_multi, _ = layer_forward(x, multi)
        assert np.abs(y_multi - y_single).max() <= 1e-12

    def test_matches_multi_head_oracle(self, rng):
        x = np.array([[1.0, -0.5], [2.0, 0.25]])
        p = LayerParams.pack(
            W1=np.array([[1.0, -1.0], [0.5, 2.0]]),
            W2=np.array([[1.5], [-0.5]]),
            B=np.array([[0.0], [0.3]]),
            heads=[np.array([[0.2, -0.4], [0.6, 0.1]]),
                   np.array([[-0.3, 0.8], [0.9, -0.2]])],
            lam=0.4,
            Wtilde1=np.array([[1.0, 0.0, -0.5, 0.25], [0.0, 2.0, 0.75, -1.0]]),
        )
        y, _ = layer_forward(x, p)
        expected = np.array(mtabl_forward_scalar(
            x.tolist(), p.W1.tolist(), [w.tolist() for w in p.heads],
            p.Wtilde1.tolist(), p.W2.tolist(), p.B.tolist(), float(p.lam)))
        assert np.abs(y - expected).max() <= 1e-12

    def test_no_heads_rejected(self, rng):
        # Recombination without heads, and several heads without it.
        with pytest.raises(ConfigurationError):
            LayerParams.pack(**random_base(rng), heads=[], Wtilde1=np.zeros((2, 0)))
        with pytest.raises(ConfigurationError):
            layer_layout((2, 3), (2, 2), 2, False)

    def test_bad_recombination_shape(self, rng):
        base = random_base(rng)
        heads = [rng.normal(size=(3, 3)) for _ in range(2)]
        with pytest.raises(DimensionError, match="Wtilde1"):
            LayerParams.pack(**base, heads=heads, Wtilde1=np.zeros((2, 3)), lam=0.5)

    def test_every_head_mask_normalized(self, rng):
        _, cache = layer_forward(rng.normal(size=(3, 5)),
                                 random_mtabl(rng, d=3, t=5, k=4))
        for mask in cache.masks:
            assert np.abs(mask.sum(axis=1) - 1.0).max() <= 1e-12


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self, rng):
        for params in (random_bl(rng), random_tabl(rng), random_mtabl(rng, k=3)):
            x = rng.normal(size=(2, 3))
            y, cache = layer_forward(x, params)
            grads, grad_x = layer_backward(cache, params, np.zeros_like(y))
            assert np.array_equal(grad_x, np.zeros_like(x))
            assert grads.layout == params.layout
            for name, g in grads.named_blocks():
                assert np.all(g == 0.0), name

    def test_lam_zero_kills_attention_gradient(self, rng):
        p = random_tabl(rng, lam=0.0)
        x = rng.normal(size=(2, 3))
        y, cache = layer_forward(x, p)
        grads, _ = layer_backward(cache, p, rng.normal(size=y.shape))
        assert np.array_equal(grads.heads[0], np.zeros_like(p.heads[0]))
        assert grads.lam != 0.0

    def test_softmax_activation_jacobian_matches_fused_path(self, rng):
        # dL/dy pushed through the softmax Jacobian must agree with the
        # fused probs-minus-onehot gradient of the cross-entropy.
        from mtabl.losses import cross_entropy

        p = random_tabl(rng, d=4, t=3, d_out=3, t_out=1)
        x = rng.normal(size=(4, 3))
        probs, cache = layer_forward(x, p, "softmax")
        label = 1
        _, fused, _ = cross_entropy(probs, label)
        grads_fused, gx_fused = layer_backward(cache, p, fused,
                                               grad_wrt_preactivation=True)
        grad_y = np.zeros_like(probs)
        grad_y[label, 0] = -1.0 / probs[label, 0]
        grads_plain, gx_plain = layer_backward(cache, p, grad_y)
        assert np.abs(gx_fused - gx_plain).max() <= 1e-12
        assert np.abs(grads_fused.flat - grads_plain.flat).max() <= 1e-12

    def test_cache_mismatch_detected(self, rng):
        p = random_tabl(rng)
        other = random_mtabl(rng)
        x = rng.normal(size=(2, 3))
        y, cache = layer_forward(x, p)
        with pytest.raises(CacheMismatchError):
            layer_backward(cache, other, np.zeros_like(y))
        with pytest.raises(CacheMismatchError):
            layer_backward(cache, p, np.zeros((5, 5)))
        with pytest.raises(CacheMismatchError):
            layer_backward(cache, without_attention(p), np.zeros_like(y))
        _, mt_cache = layer_forward(x, other)
        dropped = LayerParams.pack(other.W1, other.W2, other.B, heads=other.heads[:1],
                                   lam=other.lam, Wtilde1=other.Wtilde1[:, :2])
        with pytest.raises(CacheMismatchError):
            layer_backward(mt_cache, dropped, np.zeros((2, 2)))
        # One head, with and without recombination, must not mix either.
        one_head = LayerParams.pack(p.W1, p.W2, p.B, heads=p.heads, lam=p.lam,
                                    Wtilde1=np.eye(2))
        with pytest.raises(CacheMismatchError):
            layer_backward(cache, one_head, np.zeros_like(y))
        # A temporal-first cache holds u, not xbar: neither order takes the
        # other's, even where the output shapes agree.
        bl = random_bl(rng, d=6, t=5, d_out=8, t_out=2)
        y, tf_cache = layer_forward(rng.normal(size=(6, 5)), bl)
        with pytest.raises(CacheMismatchError):
            layer_backward(tf_cache, random_tabl(rng, 6, 5, 8, 2), np.zeros_like(y))
        feature_first = random_bl(rng, d=2, t=1, d_out=8, t_out=2)
        assert temporal_first(bl) and not temporal_first(feature_first)
        with pytest.raises(CacheMismatchError, match="cached products"):
            layer_backward(tf_cache, feature_first, np.zeros_like(y))
        _, ff_cache = layer_forward(rng.normal(size=(2, 1)), feature_first)
        with pytest.raises(CacheMismatchError, match="cached products"):
            layer_backward(ff_cache, bl, np.zeros_like(y))
        # An input of another width, where every cached product still fits.
        for make, cached, given in [(random_bl, (6, 5, 8, 2), (7, 5, 8, 2)),
                                    (random_bl, (4, 3, 2, 6), (5, 3, 2, 6)),
                                    (random_tabl, (6, 5, 3, 1), (7, 5, 3, 1))]:
            y, cache = layer_forward(rng.normal(size=cached[:2]), make(rng, *cached))
            with pytest.raises(CacheMismatchError, match="input do not match"):
                layer_backward(cache, make(rng, *given), np.zeros_like(y))


@pytest.mark.parametrize("kind,heads,topo", [("tabl", 1, "A"), ("mtabl", 3, "B"),
                                              ("mtabl", 5, "C")])
def test_masks_keep_the_contract_perfbench_reads(rng, kind, heads, topo):
    # cache.masks is (K, D', T[, B]), every row sums to 1, and each window's
    # masks are the scalar oracle's, for a single window and for a batch.
    spec = topology(topo, attention_kind=kind, heads=heads)
    params = init_network_params(spec, 3)
    batch = rng.normal(size=(40, 10, 6))
    p = params[-1]
    d_out, t = p.W1.shape[0], p.W2.shape[0]
    heads_ = [w.tolist() for w in p.heads]
    for x in (batch, batch[..., 4]):
        masks = network_forward(x, spec, params)[1][-1].masks
        windows = x.shape[2:]
        assert masks.shape == (heads, d_out, t) + windows
        assert np.abs(masks.sum(axis=2) - 1.0).max() <= 1e-12
        x_att = network_forward(x, spec, params)[1][-1].x
        for b in np.ndindex(windows):
            expected = attention_masks_scalar(x_att[(...,) + b].tolist(),
                                              p.W1.tolist(), heads_)
            got = masks[(...,) + b]
            assert np.abs(got - np.array(expected)).max() <= 1e-12


class TestParamPlumbing:
    def test_views_round_trip(self, rng):
        for params in (random_bl(rng), random_tabl(rng), random_mtabl(rng, k=3)):
            rebuilt = params.like(params.flat.copy())
            assert rebuilt.layout == params.layout
            for (n1, v1), (n2, v2) in zip(params.named_blocks(), rebuilt.named_blocks()):
                assert n1 == n2
                assert v1.tobytes() == v2.tobytes()
            # The named fields are views of the flat vector, in layout order.
            fields = [params.W1, params.W2, params.B, *params.heads]
            fields += [params.Wtilde1] if params.Wtilde1 is not None else []
            fields += [params.lam] if len(params.heads) else []
            assert np.concatenate([np.ravel(f) for f in fields]).tobytes() == \
                params.flat.tobytes()
            assert all(np.shares_memory(f, params.flat) for f in fields)

    def test_layout_names_follow_the_paper(self):
        assert [n for n, _ in layer_layout((4, 5), (3, 2), 0, False)] == ["W1", "W2", "B"]
        assert [n for n, _ in layer_layout((4, 5), (3, 2), 1, False)] == \
            ["W1", "W2", "B", "heads", "lam"]
        assert [n for n, _ in layer_layout((4, 5), (3, 2), 2, True)] == \
            ["W1", "W2", "B", "heads", "Wtilde1", "lam"]
        assert dict(layer_layout((4, 5), (3, 2), 1, False))["heads"] == (1, 5, 5)
        assert dict(layer_layout((4, 5), (3, 2), 2, True))["heads"] == (2, 5, 5)
        assert dict(layer_layout((4, 5), (3, 2), 2, True))["Wtilde1"] == (3, 6)

    def test_heads_keep_the_per_head_storage_order(self, rng):
        # Head k sits where the k-th separately stored (T, T) block did,
        # right after W1, W2 and B, so older checkpoints load unchanged.
        t = 3
        p = random_mtabl(rng, d=2, t=t, d_out=2, t_out=2, k=3)
        o = p.W1.size + p.W2.size + p.B.size
        assert p.heads.shape == (3, t, t)
        for k in range(3):
            assert np.array_equal(p.heads[k].ravel(), p.flat[o + k * t * t:o + (k + 1) * t * t])
            assert np.shares_memory(p.heads[k], p.flat[o + k * t * t:o + (k + 1) * t * t])

    def test_clone_is_deep(self):
        spec = topology("A", input_dims=(4, 3), attention_kind="mtabl", heads=2)
        p = init_network_params(spec, 0)
        q = p.copy()
        q[0].heads[0][0, 0] += 1.0
        q[0].W1[0, 0] += 1.0
        q[0].lam[()] = 0.25
        assert p[0].heads[0][0, 0] != q[0].heads[0][0, 0]
        assert p[0].W1[0, 0] != q[0].W1[0, 0]
        assert float(p[0].lam) == 0.5
        assert not np.shares_memory(p.flat, q.flat)

    def test_fields_are_frozen(self, rng):
        p = random_tabl(rng)
        with pytest.raises(AttributeError):
            p.lam = 0.1
