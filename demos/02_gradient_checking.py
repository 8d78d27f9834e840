"""Verifying the hand-derived backward passes with central differences.

Every gradient in this library is derived and coded by hand, so the
finite-difference checker is the safety net: it perturbs every entry of
the flat parameter vector, measures the loss slope, and compares against
the analytic value, which comes in the same layout. This script runs it on each layer kind, on a full network, and
then deliberately corrupts one gradient entry to show the checker
pinpointing the exact coordinate.
"""

import numpy as np

from mtabl import SeriesSample, gradcheck, init_network_params, topology
from mtabl.layers import layer_backward, layer_forward
from mtabl.verify import compare_to_finite_differences, gradcheck_layer, random_layer_case

rng = np.random.default_rng(42)

print("== single layers ==")
for kind, heads in [("bl", 1), ("tabl", 1), ("mtabl", 4)]:
    params, activation, x = random_layer_case(kind, rng, heads=heads)
    report = gradcheck_layer(params, activation, x)
    label = kind if kind != "mtabl" else f"{kind} (K={heads})"
    print(f"{label:12s} activation={activation:8s} passed={report.passed} "
          f"max rel err={report.max_rel_err:.2e}")

print("\n== full network, topology B with a 3-head output layer ==")
spec = topology("B", input_dims=(8, 6), attention_kind="mtabl", heads=3,
                hidden_dims=[(6, 5)])
params = init_network_params(spec, 1)
sample = SeriesSample(x=rng.normal(size=(8, 6)), label=2)
report = gradcheck(spec, params, sample)
print(report.to_text())

print("\n== mutation check: corrupt one entry and watch it get flagged ==")
params, activation, x = random_layer_case("tabl", np.random.default_rng(3))
y, cache = layer_forward(x, params, activation)
grads, _ = layer_backward(cache, params, y)  # quadratic loss toward zero


def loss_fn(p):
    out, _ = layer_forward(x, p, activation)
    return 0.5 * float(np.sum(out * out))


i, j = np.unravel_index(np.abs(grads.W1).argmax(), grads.W1.shape)
grads.W1[i, j] *= 2.0
report = compare_to_finite_differences(loss_fn, params, grads)
worst = report.worst_block()
print(f"doubled W1[{i},{j}]; checker reports worst block {worst.name} "
      f"at {worst.worst_coord} with rel err {worst.max_rel_err:.2f}")
