import numpy as np
import pytest

from mtabl.data import SeriesSample
from mtabl.errors import ConfigurationError
from mtabl.layers import LayerParams, layer_backward, layer_forward, temporal_first
from mtabl.network import init_network_params, topology
from mtabl.verify import (
    compare_to_finite_differences,
    complexity_estimate,
    gradcheck,
    gradcheck_layer,
    measure_multiplications,
    random_layer_case,
    relative_error,
)

from oracles import check_reduction


class TestGradcheckLayer:
    def test_bl_identity_quadratic_is_exact(self, rng):
        # Per-coordinate the loss is a polynomial of degree two, so the
        # central difference equals the derivative up to rounding.
        p = LayerParams.pack(W1=rng.normal(size=(3, 4)), W2=rng.normal(size=(5, 2)),
                             B=rng.normal(size=(3, 2)))
        x = rng.normal(size=(4, 5))
        report = gradcheck_layer(p, "identity", x, target=rng.normal(size=(3, 2)))
        assert report.passed
        assert report.max_rel_err <= 1e-8

    @pytest.mark.parametrize("dims,out", [((6, 5), (8, 2)), ((4, 3), (2, 6))])
    def test_bl_both_association_orders(self, rng, dims, out):
        # The first shape is cheaper as W1 @ (X @ W2), the second as (W1 @ X) @ W2.
        (d, t), (d_out, t_out) = dims, out
        p = LayerParams.pack(W1=rng.normal(size=(d_out, d)) / np.sqrt(d),
                             W2=rng.normal(size=(t, t_out)) / np.sqrt(t),
                             B=rng.normal(0.0, 0.3, size=(d_out, t_out)))
        assert temporal_first(p) == (dims == (6, 5))
        x = rng.normal(size=dims)
        assert gradcheck_layer(p, "identity", x, target=rng.normal(size=out)).max_rel_err <= 1e-8
        report = gradcheck_layer(p, "relu", x)
        assert report.passed, report.to_text()

    @pytest.mark.parametrize("kind,heads", [("bl", 1), ("tabl", 1),
                                            ("mtabl", 2), ("mtabl", 5)])
    def test_random_layers_pass(self, kind, heads):
        rng = np.random.default_rng(100 + heads)
        for _ in range(3):
            params, activation, x = random_layer_case(kind, rng, heads=heads)
            report = gradcheck_layer(params, activation, x)
            assert report.passed, report.to_text()

    def test_corrupted_gradient_flagged_at_exact_coordinate(self, rng):
        params, activation, x = random_layer_case("tabl", np.random.default_rng(3))
        y0, cache = layer_forward(x, params, activation)
        target = np.zeros_like(y0)
        analytic, _ = layer_backward(cache, params, y0 - target)

        def loss_fn(p):
            y, _ = layer_forward(x, p, activation)
            return 0.5 * float(np.sum((y - target) ** 2))

        clean = compare_to_finite_differences(loss_fn, params, analytic)
        assert clean.passed
        # Double one entry of the W1 gradient; only a genuinely nonzero
        # coordinate can be detected.
        i, j = np.unravel_index(np.abs(analytic.W1).argmax(), analytic.W1.shape)
        corrupted = analytic.like(analytic.flat.copy())
        corrupted.W1[i, j] *= 2.0
        before = params.flat.copy()
        report = compare_to_finite_differences(loss_fn, params, corrupted)
        assert params.flat.tobytes() == before.tobytes()  # perturbations undone
        assert not report.passed
        worst = report.worst_block()
        assert worst.name == "W1"
        assert worst.worst_coord == (i, j)

    def test_corrupted_head_flagged_at_head_coordinate(self):
        params, activation, x = random_layer_case("mtabl", np.random.default_rng(8), heads=3)
        y0, cache = layer_forward(x, params, activation)
        analytic, _ = layer_backward(cache, params, y0)

        def loss_fn(p):
            y, _ = layer_forward(x, p, activation)
            return 0.5 * float(np.sum(y ** 2))

        k, i, j = np.unravel_index(np.abs(analytic.heads).argmax(), analytic.heads.shape)
        corrupted = analytic.like(analytic.flat.copy())
        corrupted.heads[k, i, j] *= 2.0
        worst = compare_to_finite_differences(loss_fn, params, corrupted).worst_block()
        assert worst.name == "heads"
        assert worst.worst_coord == (k, i, j)

    def test_tie_names_the_coordinate_furthest_off(self):
        # A linear loss: every central difference lies far within the
        # quotient's resolution (3.6e-10 here), so every coordinate scores 0.
        params, _, _ = random_layer_case("tabl", np.random.default_rng(3))
        slope = np.random.default_rng(4).normal(0.0, 1e-3, params.flat.size)
        analytic = params.like(slope.copy())
        i, j = analytic.W1.shape[0] - 1, analytic.W1.shape[1] - 1
        analytic.W1[i, j] += 1e-10
        report = compare_to_finite_differences(lambda p: float(slope @ p.flat), params, analytic)
        assert report.passed and report.max_rel_err == 0.0
        assert report.blocks["W1"].worst_coord == (i, j)

    def test_non_finite_analytic_gradient_fails(self):
        params, activation, x = random_layer_case("tabl", np.random.default_rng(3))
        y0, cache = layer_forward(x, params, activation)
        analytic, _ = layer_backward(cache, params, y0)
        i, j = analytic.W2.shape[0] - 1, analytic.W2.shape[1] - 1
        analytic.W2[i, j] = np.nan

        def loss_fn(p):
            return 0.5 * float(np.sum(layer_forward(x, p, activation)[0] ** 2))

        report = compare_to_finite_differences(loss_fn, params, analytic)
        assert not report.passed
        assert report.worst_block().name == "W2"
        assert report.worst_block().worst_coord == (i, j)

    def test_check_that_tested_nothing_fails(self):
        params, _, _ = random_layer_case("tabl", np.random.default_rng(3))
        report = compare_to_finite_differences(lambda p: float("nan"), params, params)
        assert len(report.untestable) == params.flat.size
        assert not report.blocks and not report.passed

    @pytest.mark.parametrize("step,threshold", [(0.0, 1e-4), (float("nan"), 1e-4),
                                                (float("inf"), 1e-4), (-1e-5, 1e-4),
                                                (1e-5, float("inf")), (1e-5, -1.0)])
    def test_step_and_threshold_must_be_usable(self, step, threshold):
        params, _, _ = random_layer_case("tabl", np.random.default_rng(3))
        with pytest.raises(ConfigurationError, match="step must be finite"):
            compare_to_finite_differences(lambda p: 0.0, params, params,
                                          step=step, threshold=threshold)

    def test_boundary_lam_marked_untestable_not_failed(self):
        rng = np.random.default_rng(5)
        params, activation, x = random_layer_case("tabl", rng)
        params.lam[()] = 1.0  # +step leaves the admissible range
        report = gradcheck_layer(params, activation, x)
        assert "lam[0,0]" in report.untestable
        assert "lam" not in report.blocks
        assert report.passed


class TestGradcheckNetwork:
    @pytest.mark.parametrize("heads", [2, 3, 4, 5])
    def test_topology_a_multi_head(self, heads):
        rng = np.random.default_rng(heads)
        spec = topology("A", input_dims=(5, 6), attention_kind="mtabl", heads=heads)
        params = init_network_params(spec, 1)
        sample = SeriesSample(x=rng.normal(size=(5, 6)), label=1)
        report = gradcheck(spec, params, sample)
        assert report.passed, report.to_text()
        assert list(report.blocks) == ["layer0/W1", "layer0/W2", "layer0/B", "layer0/heads",
                                       "layer0/Wtilde1", "layer0/lam"]
        assert len(report.blocks["layer0/heads"].worst_coord) == 3

    def test_deep_topology(self):
        rng = np.random.default_rng(2)
        spec = topology("C", input_dims=(6, 5), attention_kind="tabl",
                        hidden_dims=[(5, 5), (4, 4)])
        params = init_network_params(spec, 7)
        sample = SeriesSample(x=rng.normal(size=(6, 5)), label=0)
        report = gradcheck(spec, params, sample)
        assert report.passed, report.to_text()
        assert list(report.blocks) == [
            "layer0/W1", "layer0/W2", "layer0/B", "layer1/W1", "layer1/W2", "layer1/B",
            "layer2/W1", "layer2/W2", "layer2/B", "layer2/heads", "layer2/lam"]


class TestReduction:
    def test_default_seed_passes(self):
        report = check_reduction(seed=0, n_inputs=20)
        assert report.passed
        assert report.max_forward_diff <= 1e-12
        assert report.max_grad_diff <= 1e-12
        assert report.control_separated

    def test_identity_recombination_is_bit_exact(self):
        # One head with Wtilde1 = I against one head without recombination.
        rng = np.random.default_rng(4)
        base = dict(W1=rng.normal(size=(3, 4)), W2=rng.normal(size=(5, 2)),
                    B=rng.normal(size=(3, 2)))
        w = rng.normal(size=(5, 5))
        plain = LayerParams.pack(**base, heads=[w], lam=0.4)
        recombined = LayerParams.pack(**base, heads=[w], Wtilde1=np.eye(3), lam=0.4)
        for _ in range(20):
            x, grad_y = rng.normal(size=(4, 5)), rng.normal(size=(3, 2))
            y1, c1 = layer_forward(x, plain)
            y2, c2 = layer_forward(x, recombined)
            assert y1.tobytes() == y2.tobytes()
            g1, gx1 = layer_backward(c1, plain, grad_y)
            g2, gx2 = layer_backward(c2, recombined, grad_y)
            assert gx1.tobytes() == gx2.tobytes()
            for name in ("W1", "W2", "B", "lam"):
                assert np.asarray(getattr(g1, name)).tobytes() == \
                    np.asarray(getattr(g2, name)).tobytes(), name
            assert g1.heads[0].tobytes() == g2.heads[0].tobytes()

    def test_many_seeds(self):
        for seed in range(5):
            assert check_reduction(seed=seed, n_inputs=10).passed


class TestComplexity:
    def test_reference_dimension_terms(self):
        est = complexity_estimate(40, 10, 3, 1, 2)
        assert est.terms() == (1200, 30, 6, 600, 90, 180)
        assert est.total == 2106

    def test_single_head_reference_drops_recombination(self):
        for dims in ((40, 10, 3, 1), (7, 5, 4, 2)):
            est = complexity_estimate(*dims, 1)
            assert est.single_head_total == est.total - est.head_recombination

    def test_total_strictly_increasing_in_heads(self):
        totals = [complexity_estimate(40, 10, 3, 1, k).total for k in range(1, 6)]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_measured_head_terms_match_formula_exactly(self, k):
        d, t, d_out, t_out = 40, 10, 3, 1
        est = complexity_estimate(d, t, d_out, t_out, k)
        measured = measure_multiplications(d, t, d_out, t_out, k)
        assert measured["attention_scores"] == est.attention_scores
        assert measured["head_recombination"] == est.head_recombination
        assert measured["feature_projection"] == est.feature_projection
        assert measured["temporal_projection"] == est.temporal_projection

    def test_head_scaling_ratio_is_exactly_one(self):
        for k in (1, 2, 3, 4, 5):
            est = complexity_estimate(12, 7, 4, 2, k)
            measured = measure_multiplications(12, 7, 4, 2, k)
            assert measured["attention_scores"] / est.attention_scores == 1.0
            assert measured["head_recombination"] / est.head_recombination == 1.0

    def test_counts_pinned_for_k_1_to_8(self):
        # Per-step counts at the paper's output shape and topology C's
        # attention shape: projection D'*D*T, scores K*D'*T*T, mixing
        # 2K*D'*T, recombination D'*D'*K*T, output D'*T*T'.
        for d, t, d_out, t_out in ((40, 10, 3, 1), (120, 5, 3, 1)):
            for k in range(1, 9):
                expected = {
                    "feature_projection": d_out * d * t,
                    "attention_mixing": 2 * k * d_out * t,
                    "attention_scores": k * d_out * t * t,
                    "head_recombination": d_out * d_out * k * t,
                    "temporal_projection": d_out * t * t_out,
                }
                expected["total"] = sum(expected.values())
                assert measure_multiplications(d, t, d_out, t_out, k) == expected

    def test_measured_total_close_to_estimate(self):
        # The mixing step costs 2K*D'*T in this implementation, K scalings
        # of the masks by lam and K products with xbar, against the model's
        # 3*D'*T, and the bias/activation term is not made of
        # multiplications at all; everything else is exact.
        d, t, d_out, t_out, k = 40, 10, 3, 1, 4
        est = complexity_estimate(d, t, d_out, t_out, k)
        measured = measure_multiplications(d, t, d_out, t_out, k)
        mixing_measured = measured["attention_mixing"]
        assert mixing_measured == 2 * k * d_out * t
        exact_scopes = (measured["feature_projection"] + measured["temporal_projection"]
                        + measured["attention_scores"] + measured["head_recombination"])
        assert measured["total"] == exact_scopes + mixing_measured


def test_relative_error_floor():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1e-12, 0.0) < 1e-3
    assert relative_error(2.0, 1.0) == 0.5
