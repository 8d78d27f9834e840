"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them as they complete).

Criteria covered:
  1. analytic gradients match central differences for every layer kind
  2. multi-head reductions collapse exactly onto the single-head layer
  3. attention masks stay row-normalized on every forward pass
  4. the mixing coefficient stays in [0, 1] through training; lr=0 is a no-op
  5. the multiplication cost model matches the instrumented counter
  6. networks learn the synthetic tasks; extra heads never hurt on the
     pair-structured variant
  7. the metrics module agrees with a brute-force reimplementation
  8. (conditional) real order-book data: more heads beat the single head
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from mtabl.data import split_days, synth_generate
from mtabl.layers import layer_forward
from mtabl.metrics import evaluate
from mtabl.network import (
    init_network_params,
    predict_labels,
    topology,
)
from mtabl.optim import OptimConfig, train
from mtabl.verify import (
    complexity_estimate,
    gradcheck_layer,
    measure_multiplications,
    random_layer_case,
)

from oracles import check_reduction, metrics_bruteforce


def report(criterion, passed, detail=""):
    line = f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert passed, line


class TestAcceptance:
    def test_c1_gradient_exactness(self):
        """Every layer kind, 50 seeded random configurations, dims <= 6."""
        started = time.monotonic()
        threshold = 1e-4
        worst = 0.0
        checked = 0
        for kind, heads in [("bl", 1), ("tabl", 1), ("mtabl", 1),
                            ("mtabl", 2), ("mtabl", 3), ("mtabl", 5)]:
            for seed in range(50):
                rng = np.random.default_rng(97 * heads + seed if kind != "bl" else seed)
                params, activation, x = random_layer_case(kind, rng, heads=heads)
                rep = gradcheck_layer(params, activation, x,
                                      step=1e-5, threshold=threshold)
                worst = max(worst, rep.max_rel_err)
                checked += 1
                assert rep.passed, f"{kind} K={heads} seed={seed}:\n{rep.to_text()}"
        elapsed = time.monotonic() - started
        report(1, worst <= threshold and elapsed <= 120.0,
               f"{checked} configurations, max rel err {worst:.2e}, {elapsed:.1f}s")

    def test_c2_reduction_identity(self):
        rep = check_reduction(seed=0, n_inputs=100, tol=1e-12)
        report(2, rep.passed,
               f"forward diff {rep.max_forward_diff:.2e}, "
               f"grad diff {rep.max_grad_diff:.2e}, control separated")

    def test_c3_attention_normalization(self):
        # The forward checks row normalization on every call; a violation
        # anywhere in the suite would already have raised. Exercise a broad
        # sweep here and count the checked rows explicitly.
        rng = np.random.default_rng(0)
        rows_checked = 0
        for _ in range(200):
            kind = ["tabl", "mtabl"][int(rng.integers(2))]
            heads = int(rng.integers(1, 6)) if kind == "mtabl" else 1
            params, activation, x = random_layer_case(kind, rng, heads=heads)
            _, cache = layer_forward(x, params, activation)
            for mask in cache.masks:
                assert np.abs(mask.sum(axis=1) - 1.0).max() <= 1e-12
                rows_checked += mask.shape[0]
        report(3, rows_checked > 0,
               f"{rows_checked} mask rows verified at 1e-12, zero violations")

    def test_c4_lambda_constraint_and_zero_lr(self):
        ds = synth_generate(120, n_features=8, window=10, seed=3,
                            difficulty="single", split=(0.8, 0.2, 0.0))
        spec = topology("B", input_dims=ds.sample_dims(), attention_kind="mtabl",
                        heads=2, hidden_dims=[(16, 8)])
        violations = []
        steps = [0]

        def watch(params, state):
            steps[0] += 1
            for p in params:
                lam = getattr(p, "lam", None)
                if lam is not None and not 0.0 <= lam <= 1.0:
                    violations.append(lam)

        cfg = OptimConfig(max_epochs=50, batch_size=32, learning_rate=0.02, seed=3)
        train(spec, ds, cfg, on_step=watch)

        initial = init_network_params(spec, 11)
        snapshot = initial.flat.copy()
        frozen_cfg = OptimConfig(learning_rate=0.0, max_epochs=3, batch_size=32, seed=11)
        trained, _ = train(spec, ds, frozen_cfg, initial_params=initial)
        unchanged = trained.flat.tobytes() == snapshot.tobytes()
        report(4, not violations and unchanged and steps[0] >= 150,
               f"{steps[0]} optimizer steps, zero lambda violations, "
               f"lr=0 left parameters bit-identical")

    def test_c5_complexity_formula_and_counter(self):
        est = complexity_estimate(40, 10, 3, 1, 2)
        terms_ok = est.terms() == (1200, 30, 6, 600, 90, 180) and est.total == 2106
        counter_ok = True
        for k in range(1, 6):
            e = complexity_estimate(40, 10, 3, 1, k)
            m = measure_multiplications(40, 10, 3, 1, k)
            counter_ok &= m["attention_scores"] == e.attention_scores
            counter_ok &= m["head_recombination"] == e.head_recombination
        report(5, terms_ok and counter_ok,
               "terms (1200,30,6,600,90,180), total 2106; "
               "instrumented head terms exact for K=1..5")

    def test_c6_learnability(self):
        # Separable single-position patterns: a 3-head network must fit
        # 64 samples essentially perfectly inside 500 epochs.
        ds = synth_generate(64, n_features=8, window=10, seed=0,
                            difficulty="single", split=(1.0, 0.0, 0.0))
        spec = topology("A", input_dims=ds.sample_dims(), attention_kind="mtabl",
                        heads=3)
        cfg = OptimConfig(max_epochs=300, batch_size=16, learning_rate=0.01, seed=0)
        params, _ = train(spec, ds, cfg)
        train_acc = evaluate(predict_labels(spec, params, ds.train),
                             ds.labels("train")).accuracy

        # Pair-structured patterns: across 4 seeds and an identical budget,
        # multi-head layers must do at least as well as the single head.
        multi = synth_generate(240, n_features=8, window=10, seed=0,
                               difficulty="multi", split=(0.6, 0.25, 0.15))

        def mean_f1(kind, heads):
            scores = []
            for seed in range(4):
                net = topology("A", input_dims=multi.sample_dims(),
                               attention_kind=kind, heads=heads)
                run_cfg = OptimConfig(max_epochs=80, batch_size=32,
                                      learning_rate=0.01, seed=seed)
                p, _ = train(net, multi, run_cfg)
                preds = predict_labels(net, p, multi.validation)
                scores.append(evaluate(preds, multi.labels("validation")).macro_f1)
            return float(np.mean(scores))

        f1_single = mean_f1("tabl", 1)
        f1_two = mean_f1("mtabl", 2)
        f1_three = mean_f1("mtabl", 3)
        directional = (f1_two >= f1_single - 1e-9) and (f1_three >= f1_single - 1e-9)
        report(6, train_acc >= 0.99 and directional,
               f"train acc {train_acc:.3f} on separable data; mean val F1 "
               f"single={f1_single:.4f}, K2={f1_two:.4f}, K3={f1_three:.4f}")

    def test_c7_metrics_oracle(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            preds = rng.integers(0, 3, n).tolist()
            labels = rng.integers(0, 3, n).tolist()
            rep = evaluate(preds, labels)
            expected = metrics_bruteforce(preds, labels)
            worst = max(
                worst,
                abs(rep.accuracy - expected["accuracy"]),
                abs(rep.macro_precision - expected["macro_precision"]),
                abs(rep.macro_recall - expected["macro_recall"]),
                abs(rep.macro_f1 - expected["macro_f1"]),
            )
        hand = evaluate([0, 1, 1, 1, 2, 0], [0, 0, 1, 1, 2, 2])
        hand_ok = (hand.confusion.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 1]]
                   and abs(hand.macro_f1 - 0.6556) <= 1e-4)
        report(7, worst <= 1e-12 and hand_ok,
               f"1000 random lists, max deviation {worst:.1e}; hand example ok")

    def test_c8_order_book_directional(self):
        """Only runs when a directory of real day files is supplied."""
        data_dir = os.environ.get("MTABL_FI2010_DIR")
        if not data_dir or not Path(data_dir).is_dir():
            pytest.skip("set MTABL_FI2010_DIR to a directory of day files "
                        "to run the directional check on real data")
        files = sorted(str(p) for p in Path(data_dir).iterdir() if p.is_file())
        n_test = max(1, len(files) * 3 // 10)
        n_val = 1 if len(files) > 2 else 0
        ds = split_days(files, len(files) - n_test - n_val, n_val, n_test,
                        window=10, horizon=10)

        def mean_f1(kind, heads):
            scores = []
            for seed in range(4):
                net = topology("A", input_dims=ds.sample_dims(),
                               attention_kind=kind, heads=heads)
                cfg = OptimConfig(max_epochs=30, batch_size=256,
                                  learning_rate=0.01, seed=seed)
                p, _ = train(net, ds, cfg)
                preds = predict_labels(net, p, ds.test)
                scores.append(evaluate(preds, ds.labels("test")).macro_f1)
            return float(np.mean(scores))

        f1_single = mean_f1("tabl", 1)
        f1_five = mean_f1("mtabl", 5)
        report(8, f1_five > f1_single,
               f"test macro F1 mean over 4 seeds: K=5 {f1_five:.4f} "
               f"vs single head {f1_single:.4f}")
