import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mtabl.data import Dataset, Windows, synth_generate
from mtabl.errors import ConfigurationError, DivergenceError
from mtabl.losses import cross_entropy
from mtabl.network import (
    init_network_params,
    network_backward,
    network_forward,
    topology,
)
from mtabl.layers import layer_forward
from mtabl.optim import (
    ALGORITHMS,
    OptimConfig,
    TrainState,
    _first_nonfinite_layer,
    batch_gradients,
    step,
    train,
)

from oracles import optimizer_step_as_written


def tiny_dataset(n=24, d=5, t=6, seed=0, val=True):
    split = (0.75, 0.25, 0.0) if val else (1.0, 0.0, 0.0)
    return synth_generate(n, n_features=d, window=t, seed=seed, split=split)


def spec_for(ds, kind="mtabl", heads=2, name="A"):
    return topology(name, input_dims=ds.sample_dims(), attention_kind=kind,
                    heads=heads)


def filled_like(params, value):
    """Gradients in the parameter layout, every entry ``value``."""
    return params.like(np.full_like(params.flat, value))


class TestStep:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        ds = tiny_dataset()
        spec = spec_for(ds)
        params = init_network_params(spec, 0)
        cfg = OptimConfig(seed=0)
        state = TrainState.initial(params, cfg)
        before = params.flat.copy()
        new_params, _ = step(params, filled_like(params, 0.0), state, cfg)
        assert new_params.flat.tobytes() == before.tobytes()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_update_in_place_matches_the_formulas_as_written(self, algorithm):
        ds = tiny_dataset()
        spec = spec_for(ds)
        params = init_network_params(spec, 0)
        cfg = OptimConfig(algorithm=algorithm, seed=0)
        state = TrainState.initial(params, cfg)
        moments = (state.first_moment, state.second_moment, state.velocity)
        flat, m, v, velocity = (a.copy() for a in (params.flat, *moments))
        rng = np.random.default_rng(5)
        for t in range(1, 9):
            # Gradients of changing scale; lam stays well inside [0, 1].
            grads = params.like(rng.normal(0.0, 10.0 ** rng.integers(-4, 1), flat.shape))
            given = grads.flat.copy()
            step(params, grads, state, cfg)
            flat, m, v, velocity = optimizer_step_as_written(
                flat, given, m, v, velocity, t, cfg.learning_rate, cfg)
            assert params.flat.tobytes() == flat.tobytes()
            assert [a.tobytes() for a in moments] == [m.tobytes(), v.tobytes(),
                                                     velocity.tobytes()]
            assert grads.flat.tobytes() == given.tobytes()
            assert 0.0 < params[0].lam < 1.0
        # The moments were updated in the arrays the state started with.
        assert all(a is b for a, b in zip(
            (state.first_moment, state.second_moment, state.velocity), moments))

    def test_lam_projected_onto_unit_interval(self):
        ds = tiny_dataset()
        spec = spec_for(ds, kind="tabl", heads=1)
        params = init_network_params(spec, 0)
        cfg = OptimConfig(algorithm="sgd-momentum", learning_rate=1.0, momentum=0.0)
        state = TrainState.initial(params, cfg)
        grads = filled_like(params, 0.0)
        grads[0].lam[()] = -0.8  # raw update would push lam to 1.3
        new_params, state = step(params, grads, state, cfg)
        assert new_params[0].lam == 1.0
        grads[0].lam[()] = 5.0
        new_params, _ = step(new_params, grads, state, cfg)
        assert new_params[0].lam == 0.0

    def test_adam_first_step_closed_form(self):
        # Unit gradient, fresh moments: the bias corrections cancel and
        # the update is lr / (1 + eps) regardless of beta values.
        ds = tiny_dataset()
        spec = spec_for(ds, kind="tabl", heads=1)
        params = init_network_params(spec, 3)
        cfg = OptimConfig(learning_rate=0.05)
        state = TrainState.initial(params, cfg)
        before = params[0].W1.copy()
        lam_before = float(params[0].lam)
        new_params, _ = step(params, filled_like(params, 1.0), state, cfg)
        expected = 0.05 / (1.0 + cfg.epsilon)
        assert np.abs((before - new_params[0].W1) - expected).max() <= 1e-15
        assert abs((lam_before - new_params[0].lam) - expected) <= 1e-15

    def test_sgd_single_step_hand_oracle(self):
        # One sample, one step, lr 0.1, zero momentum: every parameter
        # moves by exactly -0.1 times its analytic gradient.
        rng = np.random.default_rng(8)
        ds = Dataset(train=Windows.separate(rng.normal(size=(4, 5, 1)), [2]))
        sample = ds.train[0]
        spec = spec_for(ds, kind="tabl", heads=1)
        params = init_network_params(spec, 8)
        probs, caches = network_forward(sample.x, spec, params)
        _, grad_scores, _ = cross_entropy(probs, [sample.label])
        grads = network_backward(spec, params, caches, grad_scores)
        cfg = OptimConfig(algorithm="sgd-momentum", learning_rate=0.1, momentum=0.9)
        state = TrainState.initial(params, cfg)
        before = params.copy()
        new_params, _ = step(params, grads, state, cfg)
        for (name, value), (_, g), (_, got) in zip(before.named_blocks(), grads.named_blocks(),
                                                   new_params.named_blocks()):
            expected = value - 0.1 * g
            if name.endswith("lam"):
                expected = min(max(float(expected), 0.0), 1.0)
            assert np.abs(got - expected).max() <= 1e-12, name

    def test_fixed_diagonal_reprojected(self):
        ds = tiny_dataset()
        t = ds.sample_dims()[1]
        spec = topology("A", input_dims=ds.sample_dims(), attention_kind="mtabl",
                        heads=2, fix_attention_diag=True)
        params = init_network_params(spec, 0)
        cfg = OptimConfig(algorithm="sgd-momentum", learning_rate=1.0, momentum=0.0)
        state = TrainState.initial(params, cfg)
        grads = filled_like(params, 1.0)
        grads[0].lam[()] = 0.0
        new_params, _ = step(params, grads, state, cfg)
        for w in new_params[0].heads:
            assert np.array_equal(np.diag(w), np.full(t, 1.0 / t))


class TestBatchGradients:
    def test_mean_of_per_sample_gradients(self):
        ds = tiny_dataset(n=16)
        spec = spec_for(ds)
        params = init_network_params(spec, 2)
        batch = ds.train[:4]
        loss, grads, _ = batch_gradients(spec, params, batch, None)
        # Recompute sample by sample and average by hand.
        per_sample = []
        losses = []
        for s in batch:
            probs, caches = network_forward(s.x, spec, params)
            l, gs, _ = cross_entropy(probs, [s.label])
            g = network_backward(spec, params, caches, gs)
            per_sample.append(g)
            losses.append(l)
        assert abs(loss - np.mean(losses)) <= 1e-12
        mean = np.stack([g.flat for g in per_sample]).mean(axis=0)
        assert np.abs(grads.flat - mean).max() <= 1e-12

    def test_empty_batch_rejected(self):
        ds = tiny_dataset()
        spec = spec_for(ds)
        params = init_network_params(spec, 0)
        with pytest.raises(ConfigurationError):
            batch_gradients(spec, params, ds.train[:0], None)


class TestTrain:
    def test_zero_learning_rate_keeps_parameters_bit_identical(self):
        ds = tiny_dataset(n=18)
        spec = spec_for(ds)
        initial = init_network_params(spec, 5)
        snapshot = initial.flat.copy()
        cfg = OptimConfig(learning_rate=0.0, max_epochs=3, batch_size=6, seed=5)
        trained, records = train(spec, ds, cfg, initial_params=initial)
        assert len(records) == 3
        assert trained.flat.tobytes() == snapshot.tobytes()

    def test_initial_params_are_not_mutated(self):
        ds = tiny_dataset(n=18)
        spec = spec_for(ds)
        initial = init_network_params(spec, 5)
        snapshot = initial.flat.copy()
        cfg = OptimConfig(learning_rate=0.05, max_epochs=2, batch_size=6, seed=5)
        trained, _ = train(spec, ds, cfg, initial_params=initial)
        assert initial.flat.tobytes() == snapshot.tobytes()
        assert trained.flat.tobytes() != snapshot.tobytes()

    def test_deterministic_trajectories(self):
        ds = tiny_dataset(n=21)
        spec = spec_for(ds)
        cfg = OptimConfig(max_epochs=3, batch_size=7, seed=9)

        def run():
            snapshots = []
            # Parameters are updated in place, so each snapshot is a copy.
            train(spec, ds, cfg,
                  on_step=lambda params, state: snapshots.append(params.flat.copy()))
            return snapshots

        a, b = run(), run()
        assert len(a) == len(b) > 0
        assert len({sa.tobytes() for sa in a}) == len(a)  # every step moved
        for sa, sb in zip(a, b):
            assert sa.tobytes() == sb.tobytes()

    def test_lam_stays_in_unit_interval_every_step(self):
        ds = tiny_dataset(n=24)
        spec = spec_for(ds, heads=3)
        cfg = OptimConfig(max_epochs=10, batch_size=8, learning_rate=0.05, seed=1)
        violations = []

        def watch(params, state):
            for p in params:
                lam = getattr(p, "lam", None)
                if lam is not None and not 0.0 <= lam <= 1.0:
                    violations.append(lam)

        train(spec, ds, cfg, on_step=watch)
        assert violations == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reported_with_location(self):
        # Inflated weights overflow the output scores, the softmax of an
        # inf column is NaN, and the loss goes NaN on the first batch.
        ds = tiny_dataset(n=12, val=False)
        spec = spec_for(ds, kind="tabl", heads=1)
        params = init_network_params(spec, 0)
        params[0].W1[:] = 1e300
        params[0].heads[0][:] = 0.0
        params[0].W2[:] = 1e10
        cfg = OptimConfig(max_epochs=1, batch_size=4, seed=0)
        with pytest.raises(DivergenceError, match=r"epoch 1, batch 0.*layer 0"):
            train(spec, ds, cfg, initial_params=params)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_temporal_first_layer_is_named(self):
        # A BL layer that multiplies X @ W2 first caches that product, not
        # W1 @ X, and the divergence report must still find it.
        spec = topology("B", input_dims=(40, 10))
        params = init_network_params(spec, 0)
        x = np.random.default_rng(0).normal(size=(40, 10, 4))
        _, cache = layer_forward(x, params[0], "relu")
        assert cache.xbar is None and cache.u is not None
        assert _first_nonfinite_layer(spec, [cache]) == "loss"
        params[0].W2[:] = 1e308
        _, cache = layer_forward(x, params[0], "relu")
        assert _first_nonfinite_layer(spec, [cache]) == "layer 0 (bl)"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_via_overflowing_attention_scores(self):
        ds = tiny_dataset(n=12, val=False)
        spec = spec_for(ds, kind="tabl", heads=1)
        params = init_network_params(spec, 0)
        params[0].W1[:] = 1e308  # score products overflow, masks go NaN
        cfg = OptimConfig(max_epochs=1, batch_size=4, seed=0)
        with pytest.raises(DivergenceError, match="attention"):
            train(spec, ds, cfg, initial_params=params)

    def test_divergence_errors_do_not_depend_on_assert(self):
        # Both divergence tests again, with assert statements compiled out.
        tests = [f"{__file__}::TestTrain::test_divergence_reported_with_location",
                 f"{__file__}::TestTrain::test_divergence_via_overflowing_attention_scores"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "2 passed" in proc.stdout

    def test_learning_rate_decays_after_patience(self):
        # A vanishing rate freezes the validation metric, so the best epoch
        # never improves and the rate halves every `lr_patience` epochs.
        # Records carry the rate used during their epoch, before any decay.
        ds = tiny_dataset(n=18)
        spec = spec_for(ds)
        lr = 1e-12
        cfg = OptimConfig(max_epochs=7, batch_size=18, learning_rate=lr,
                          lr_patience=3, lr_decay=0.5, seed=2)
        _, records = train(spec, ds, cfg)
        rates = [r.learning_rate for r in records]
        assert rates == [lr, lr, lr, lr, lr / 2, lr / 2, lr / 2]
        cfg = OptimConfig(max_epochs=8, batch_size=18, learning_rate=0.08,
                          lr_patience=100, seed=2)
        _, records = train(spec, ds, cfg)
        assert all(r.learning_rate == 0.08 for r in records)

    def test_selection_returns_best_validation_epoch(self):
        ds = tiny_dataset(n=30)
        spec = spec_for(ds, heads=2)
        cfg = OptimConfig(max_epochs=6, batch_size=10, learning_rate=0.02, seed=3)
        best_params, records = train(spec, ds, cfg)
        best_f1 = max(r.val_report.macro_f1 for r in records)
        from mtabl.metrics import evaluate
        from mtabl.network import predict_labels

        preds = predict_labels(spec, best_params, ds.validation)
        report = evaluate(preds, ds.labels("validation"))
        assert report.macro_f1 == best_f1

    def test_epoch_records_carry_lambdas_and_loss(self):
        ds = tiny_dataset(n=12)
        spec = spec_for(ds, heads=2)
        cfg = OptimConfig(max_epochs=2, batch_size=6, seed=0)
        _, records = train(spec, ds, cfg)
        for r in records:
            assert len(r.lambdas) == 1
            assert math.isfinite(r.train_loss)
            d = r.to_dict()
            assert {"epoch", "train_loss", "learning_rate", "lambdas",
                    "val_f1"} <= set(d)
