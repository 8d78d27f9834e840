"""The multiplication cost model against the instrumented counter.

The layer cost model has six terms; two of them grow with the head count
(the attention score products and the recombination of the stacked
heads). The linalg kernel can count every scalar multiplication it
actually performs, attributed to the forward step that issued it, so the
model is checkable. The head-dependent terms must match exactly; the
mixing step differs by a known bookkeeping amount because the shared
(1-lam) rescaling is computed once rather than per head.

The last table counts one training step of topology C next to the model's
forward terms. Its BL layers multiply W1 @ (X @ W2), which their shapes
make cheaper than the paper's (W1 @ X) @ W2, so the two projection steps
come in under the model; the backward's products are unscoped.
"""

import numpy as np

from mtabl import (
    Windows,
    batch_gradients,
    complexity_estimate,
    count_multiplications,
    init_network_params,
    measure_multiplications,
    topology,
)
from mtabl.layers import temporal_first

D, T, D_OUT, T_OUT = 40, 10, 3, 1
print(f"dimensions: input {D}x{T}, output {D_OUT}x{T_OUT}\n")

header = (f"{'K':>2} {'predicted':>10} {'attention':>10} {'measured':>10} "
          f"{'recombine':>10} {'measured':>10}")
print(header)
for k in range(1, 6):
    est = complexity_estimate(D, T, D_OUT, T_OUT, k)
    got = measure_multiplications(D, T, D_OUT, T_OUT, k)
    print(f"{k:>2} {est.total:>10} {est.attention_scores:>10} "
          f"{got['attention_scores']:>10} {est.head_recombination:>10} "
          f"{got['head_recombination']:>10}")

est = complexity_estimate(D, T, D_OUT, T_OUT, 1)
print(f"\nsingle-head reference total (no recombination term): "
      f"{est.single_head_total}")

got = measure_multiplications(D, T, D_OUT, T_OUT, 3)
print("\nfull measured breakdown at K=3:")
for scope, count in sorted(got.items()):
    print(f"  {scope:20s} {count}")

WINDOWS = 256
spec = topology("C", input_dims=(D, T), attention_kind="mtabl", heads=5)
params = init_network_params(spec, 0)
rng = np.random.default_rng(0)
batch = Windows.separate(rng.normal(size=(D, WINDOWS, T)),
                         rng.integers(3, size=WINDOWS).tolist())
with count_multiplications() as counter:
    batch_gradients(spec, params, batch, None)

model = {}
shapes = spec.shapes()
print(f"\ntopology C (K=5), one training step of {WINDOWS} windows:")
for i, (layer, p, (d, t), (d_out, t_out)) in enumerate(
        zip(spec.layers, params, shapes, shapes[1:])):
    order = "W1 @ (X @ W2)" if temporal_first(p) else "(W1 @ X) @ W2"
    print(f"  layer {i} {layer.kind:5s} {d}x{t} -> {d_out}x{t_out}: {order}")
    est = complexity_estimate(d, t, d_out, t_out, layer.heads)
    terms = ["feature_projection", "temporal_projection"]
    if layer.kind != "bl":
        terms += ["attention_scores", "attention_mixing"]
    if layer.kind == "mtabl":
        terms.append("head_recombination")
    for term in terms:
        model[term] = model.get(term, 0) + WINDOWS * getattr(est, term)
print(f"  {'scope':20s} {'measured':>10} {'model fwd':>10} {'ratio':>6}")
for scope, count in sorted(counter.by_scope.items()):
    if scope in model:
        print(f"  {scope:20s} {count:>10} {model[scope]:>10} {count / model[scope]:>6.3f}")
    else:
        print(f"  {scope:20s} {count:>10} {'-':>10} {'-':>6}")
print(f"  {'total':20s} {counter.total:>10}")
