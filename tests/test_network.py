import numpy as np
import pytest

from mtabl.data import Windows
from mtabl.errors import ConfigurationError, DimensionError
from mtabl.layers import layer_backward, layer_forward
from mtabl.network import (
    LayerSpec,
    NetworkSpec,
    attention_lambdas,
    init_network_params,
    network_backward,
    network_forward,
    predict_labels,
    topology,
)


def spec_a(input_dims=(6, 4), kind="tabl", heads=1):
    return topology("A", input_dims=input_dims, attention_kind=kind, heads=heads)


class TestSpecValidation:
    def test_final_layer_must_be_three_by_one_softmax(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(input_dims=(6, 4), layers=(
                LayerSpec(kind="tabl", out_dims=(4, 1), activation="softmax"),))
        with pytest.raises(ConfigurationError):
            NetworkSpec(input_dims=(6, 4), layers=(
                LayerSpec(kind="tabl", out_dims=(3, 1), activation="identity"),))

    def test_softmax_needs_single_column(self):
        with pytest.raises(ConfigurationError):
            LayerSpec(kind="bl", out_dims=(3, 2), activation="softmax")

    def test_bl_rejects_heads(self):
        with pytest.raises(ConfigurationError):
            LayerSpec(kind="bl", out_dims=(3, 1), heads=2)

    @pytest.mark.parametrize("name", ["A", "C"])
    def test_topology_with_tabl_rejects_heads(self, name):
        with pytest.raises(ConfigurationError, match="one head"):
            topology(name, heads=3)

    def test_topology_presets_chain(self):
        for name, depth in (("A", 1), ("B", 2), ("C", 3)):
            spec = topology(name, input_dims=(40, 10), attention_kind="mtabl", heads=3)
            assert len(spec.layers) == depth
            assert spec.shapes()[0] == (40, 10)
            assert spec.shapes()[-1] == (3, 1)
            assert spec.layers[-1].activation == "softmax"
            assert all(l.kind == "bl" for l in spec.layers[:-1])

    def test_topology_b_default_hidden(self):
        spec = topology("B", input_dims=(40, 10))
        assert spec.shapes() == [(40, 10), (120, 5), (3, 1)]

    def test_topology_c_single_head_baseline_shape(self):
        spec = topology("C", input_dims=(40, 10), attention_kind="tabl")
        assert spec.shapes() == [(40, 10), (60, 10), (120, 5), (3, 1)]
        assert [l.kind for l in spec.layers] == ["bl", "bl", "tabl"]
        assert spec.layers[-1].heads == 1

    def test_hidden_override(self):
        spec = topology("C", input_dims=(40, 10),
                        hidden_dims=[(20, 10), (30, 5)])
        assert spec.shapes() == [(40, 10), (20, 10), (30, 5), (3, 1)]
        with pytest.raises(ConfigurationError):
            topology("B", hidden_dims=[(20, 10), (30, 5)])

    def test_round_trip_dict(self):
        spec = topology("B", input_dims=(12, 8), attention_kind="mtabl", heads=4)
        assert NetworkSpec.from_dict(spec.to_dict()) == spec


class TestForwardBackward:
    def test_single_layer_network_equals_layer(self, rng):
        spec = spec_a()
        params = init_network_params(spec, 7)
        x = rng.normal(size=(6, 4))
        y_net, caches = network_forward(x, spec, params)
        y_layer, _ = layer_forward(x, params[0], "softmax")
        assert np.array_equal(y_net, y_layer)
        assert len(caches) == 1

    def test_probabilities_output(self, rng):
        spec = topology("B", input_dims=(10, 6), attention_kind="mtabl", heads=2)
        params = init_network_params(spec, 3)
        y, _ = network_forward(rng.normal(size=(10, 6)), spec, params)
        assert y.shape == (3, 1, 1)
        assert abs(y.sum() - 1.0) <= 1e-12
        assert (y > 0).all()

    def test_input_shape_checked(self, rng):
        spec = spec_a()
        params = init_network_params(spec, 0)
        with pytest.raises(DimensionError):
            network_forward(rng.normal(size=(5, 4)), spec, params)

    def test_backward_input_gradient_matches_finite_differences(self, rng):
        from mtabl.losses import cross_entropy

        spec = topology("B", input_dims=(5, 4), attention_kind="mtabl", heads=2,
                        hidden_dims=[(4, 3)])
        params = init_network_params(spec, 11)
        x = rng.normal(size=(5, 4))
        label = [2]
        probs, caches = network_forward(x, spec, params)
        _, grad_scores, _ = cross_entropy(probs, label)
        # network_backward never computes layer 0's dL/dx; the layers give it,
        # along the same sweep.
        grads = params.like(np.zeros_like(params.flat))
        grad_x, last = grad_scores, len(params) - 1
        for i in range(last, -1, -1):
            _, grad_x = layer_backward(caches[i], params[i], grad_x, grads[i],
                                       grad_wrt_preactivation=i == last)
        assert grads.flat.tobytes() == network_backward(
            spec, params, caches, grad_scores).flat.tobytes()
        step = 1e-6
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                up, down = x.copy(), x.copy()
                up[i, j] += step
                down[i, j] -= step
                lu = cross_entropy(network_forward(up, spec, params)[0], label)[0]
                ld = cross_entropy(network_forward(down, spec, params)[0], label)[0]
                numeric = (lu - ld) / (2 * step)
                assert abs(grad_x[i, j, 0] - numeric) <= 1e-4 * max(1.0, abs(numeric))

    def test_predict_labels_in_range(self, rng):
        spec = spec_a(kind="mtabl", heads=2)
        params = init_network_params(spec, 5)
        samples = Windows.separate(rng.normal(size=(6, 4, 8)), np.zeros(8))
        preds = predict_labels(spec, params, samples)
        assert len(preds) == 8
        assert set(preds) <= {0, 1, 2}


class TestParamsLayout:
    def test_layers_are_views_of_one_vector(self):
        spec = topology("C", input_dims=(8, 6), attention_kind="mtabl", heads=3,
                        hidden_dims=[(5, 6), (4, 3)])
        params = init_network_params(spec, 0)
        sizes = [p.flat.size for p in params]
        assert sum(sizes) == params.flat.size
        assert np.concatenate([p.flat for p in params]).tobytes() == params.flat.tobytes()
        assert all(np.shares_memory(p.flat, params.flat) for p in params)
        assert [len(p.heads) for p in params] == [0, 0, 3]
        names = [name for name, _ in params.named_blocks()]
        assert names[:3] == ["layer0/W1", "layer0/W2", "layer0/B"]
        assert names[-3:] == ["layer2/heads", "layer2/Wtilde1", "layer2/lam"]
        assert params[2].heads.shape == (3, 3, 3)

    def test_bl_layers_report_inert_lam(self):
        # BL has no mixing coefficient; it reads as 0.0, never as None.
        spec = topology("B", input_dims=(8, 6), attention_kind="tabl")
        params = init_network_params(spec, 0)
        assert params[0].lam == 0.0 and params[0].heads.shape == (0, 6, 6)
        assert float(params[1].lam) == 0.5

    def test_wrong_vector_length_rejected(self):
        spec = spec_a()
        params = init_network_params(spec, 0)
        with pytest.raises(DimensionError):
            params.like(np.zeros(params.flat.size + 1))


class TestInit:
    def test_deterministic_per_seed(self):
        spec = topology("C", input_dims=(8, 6), attention_kind="mtabl", heads=3)
        a = init_network_params(spec, 42)
        b = init_network_params(spec, 42)
        assert a.flat.tobytes() == b.flat.tobytes()

    def test_attention_layers_start_at_half_mixing(self):
        spec = topology("B", input_dims=(8, 6), attention_kind="mtabl", heads=2)
        params = init_network_params(spec, 1)
        assert attention_lambdas(params) == [0.5]

    def test_heads_are_not_identical(self):
        spec = spec_a(input_dims=(8, 6), kind="mtabl", heads=3)
        params = init_network_params(spec, 9)
        heads = params[0].heads
        assert not np.array_equal(heads[0], heads[1])
        # Near-uniform start: every entry close to 1/T.
        assert np.abs(heads[0] - 1.0 / 6.0).max() < 0.1

    def test_fixed_diagonal_flag(self):
        spec = spec_a(input_dims=(8, 6), kind="mtabl", heads=2)
        fixed = LayerSpec(kind="mtabl", out_dims=(3, 1), activation="softmax",
                          heads=2, fix_attention_diag=True)
        spec = NetworkSpec(input_dims=(8, 6), layers=(fixed,))
        params = init_network_params(spec, 9)
        for w in params[0].heads:
            assert np.array_equal(np.diag(w), np.full(6, 1.0 / 6.0))
