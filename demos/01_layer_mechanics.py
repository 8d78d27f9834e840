"""A walking tour of the one bilinear layer at K = 0, 1 and 3 heads.

Builds a tiny input series, pushes it through the layer without attention
(BL), with one head (TABL) and with three recombined heads (MTABL), and
prints the intermediates so you can see what the attention mask actually
does: each row of the mask is a distribution over time steps, and the
mixing coefficient lam blends attended features with the plain
projection. All weights of a layer sit in one flat vector; the named
fields are views into it.
"""

import numpy as np

from mtabl import LayerParams, layer_forward

np.set_printoptions(precision=3, suppress=True)
rng = np.random.default_rng(7)

D, T = 4, 6          # input: 4 features observed at 6 time steps
D_OUT, T_OUT = 3, 2  # output: 3 features at 2 steps

x = rng.normal(size=(D, T))
print("input series X (features x time):")
print(x)

# ------------------------------------------------------- BL, K = 0
base = dict(
    W1=rng.normal(0, 0.5, (D_OUT, D)),
    W2=rng.normal(0, 0.5, (T, T_OUT)),
    B=np.zeros((D_OUT, T_OUT)),
)
bl = LayerParams.pack(**base)
y_bl, _ = layer_forward(x, bl)
print("\nBL output  y = W1 @ X @ W2 + B:")
print(y_bl)
print("BL parameter blocks:", [(name, v.shape) for name, v in bl.named_blocks()])

# ----------------------------------------------------- TABL, K = 1
w = rng.normal(0, 0.4, (T, T))
tabl = LayerParams.pack(**base, heads=[w], lam=0.7)
y_tabl, cache = layer_forward(x, tabl)
print("\nTABL attention mask (rows sum to 1):")
print(cache.masks[0])
print("row sums:", cache.masks[0].sum(axis=1))
print("TABL output:")
print(y_tabl)

# At lam = 0 the attention path is switched off entirely. lam is a view
# into the layer's flat vector, so it is written in place.
tabl.lam[()] = 0.0
y_off, _ = layer_forward(x, tabl)
print("\nlam=0 output equals the BL output, max |diff| =",
      np.abs(y_off - y_bl).max())
tabl.lam[()] = 0.7

# ---------------------------------------------------- MTABL, K = 3
K = 3
mtabl = LayerParams.pack(
    **base,
    heads=[rng.normal(0, 0.4, (T, T)) for _ in range(K)],
    lam=0.7,
    Wtilde1=rng.normal(0, 0.5, (D_OUT, D_OUT * K)),
)
y_mtabl, cache = layer_forward(x, mtabl)
print(f"\nMTABL with {K} heads; per-head mask row for feature 0:")
for k, mask in enumerate(cache.masks):
    print(f"  head {k}:", mask[0])
print("stacked attended features have shape", cache.stacked.shape,
      "-> recombined to", cache.xtilde.shape)
print("MTABL output:")
print(y_mtabl)
print("parameters:", mtabl.flat.size, "floats in one vector")

# One head with an identity recombination is exactly the single-head layer.
collapse = LayerParams.pack(**base, heads=[w], lam=0.7, Wtilde1=np.eye(D_OUT))
y_collapse, _ = layer_forward(x, collapse)
print("\nK=1 with identity recombination vs TABL, max |diff| =",
      np.abs(y_collapse - y_tabl).max())
