"""The bilinear layer with K >= 0 temporal attention heads.

One layer maps a matrix-valued series X of shape (D, T), whose columns
are consecutive time steps, to an output of shape (D', T'):

  xbar   = W1 @ X                       feature projection, (D', T)
  e_k    = xbar @ W_k                   attention scores of head k, (D', T)
  a_k    = softmax over each row        attention mask, rows sum to 1
  mix_k  = lam*(xbar*a_k) + (1-lam)*xbar
  y      = act(xtilde @ W2 + B)

The paper's three layer kinds are head counts of this one layer:

  BL     K=0: no attention, xtilde = xbar
  TABL   K=1 without recombination: xtilde = mix_1
  MTABL  K heads sharing xbar and lam; the mixed features are stacked on
         the feature axis into a (D'*K, T) block and projected back to D'
         rows by Wtilde1 (D', D'*K): xtilde = Wtilde1 @ [mix_1; ...; mix_K]

The mixing coefficient lam is constrained to [0, 1]; at lam=0 the attention
path is inert and the layer reduces to BL. Backward passes are exact
analytic gradients, derived by hand; there is no autodiff anywhere.

Parameters live in one contiguous float64 vector: :class:`LayerParams`
holds named views into it, laid out by :func:`layer_layout`, and
gradients come in the same layout. Forward passes never mutate the
parameters, so concurrent forward/backward over different samples with
shared parameters is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CacheMismatchError,
    ConfigurationError,
    ConstraintError,
    DimensionError,
    DivergenceError,
)
from .linalg import Matrix, hadamard, matmul, scale, scope, softmax_rows

ACTIVATIONS = ("identity", "relu", "softmax")

# Scope labels for the multiplication counter; the complexity checks in
# the verify module read these back per forward step.
SCOPE_PROJECT = "feature_projection"
SCOPE_ATTENTION = "attention_scores"
SCOPE_MIX = "attention_mixing"
SCOPE_RECOMBINE = "head_recombination"
SCOPE_OUTPUT = "temporal_projection"

MASK_ROW_SUM_TOL = 1e-12


def layer_layout(in_dims: tuple[int, int], out_dims: tuple[int, int],
                 heads: int, recombine: bool) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Name and shape of every parameter block of one layer, in storage order.

    W1, W2 and B come first, then the score matrices: ``W`` for a single
    head without recombination, ``head0`` .. ``head{K-1}`` otherwise. Then
    ``Wtilde1`` when the heads are recombined, and the scalar ``lam``
    whenever there is a head.
    """
    (d, t), (d_out, t_out) = in_dims, out_dims
    if recombine and heads < 1:
        raise ConfigurationError("head recombination needs at least one head")
    if heads > 1 and not recombine:
        raise ConfigurationError(f"{heads} heads need the Wtilde1 recombination")
    names = ["W"] if heads == 1 and not recombine else [f"head{k}" for k in range(heads)]
    layout = [("W1", (d_out, d)), ("W2", (t, t_out)), ("B", (d_out, t_out))]
    layout += [(name, (t, t)) for name in names]
    if recombine:
        layout.append(("Wtilde1", (d_out, d_out * heads)))
    if heads:
        layout.append(("lam", ()))
    return tuple(layout)


def layout_size(layout) -> int:
    return sum(math.prod(shape) for _, shape in layout)


@dataclass(frozen=True, eq=False)
class LayerParams:
    """One layer's weights as named views into the float64 vector ``flat``.

    W1 is (D', D), W2 (T, T'), B (D', T'); ``heads`` holds the K score
    matrices (T, T), ``Wtilde1`` the (D', D'*K) recombination or None, and
    ``lam`` a 0-d view (the constant 0.0 when K=0). The fields are frozen:
    write through the views, e.g. ``p.lam[()] = 0.3``.
    """

    flat: np.ndarray
    layout: tuple
    W1: Matrix
    W2: Matrix
    B: Matrix
    heads: tuple[Matrix, ...]
    Wtilde1: Matrix | None
    lam: np.ndarray | float

    @classmethod
    def view(cls, flat: np.ndarray, layout) -> "LayerParams":
        """Views over ``flat`` (not a copy) laid out by ``layout``."""
        if flat.dtype != np.float64 or flat.shape != (layout_size(layout),):
            raise DimensionError(
                f"parameter vector is {flat.dtype} {flat.shape}, layout needs "
                f"float64 ({layout_size(layout)},)"
            )
        blocks = dict(_blocks(flat, layout))
        heads = tuple(v for name, v in blocks.items() if name == "W" or name.startswith("head"))
        return cls(flat, tuple(layout), blocks["W1"], blocks["W2"], blocks["B"], heads,
                   blocks.get("Wtilde1"), blocks.get("lam", 0.0))

    @classmethod
    def pack(cls, W1, W2, B, heads=(), Wtilde1=None, lam: float = 0.0) -> "LayerParams":
        """Copy separate arrays into a new vector; every shape must chain."""
        (d_out, d), (t, t_out) = np.shape(W1), np.shape(W2)
        layout = layer_layout((d, t), (d_out, t_out), len(heads), Wtilde1 is not None)
        values = [W1, W2, B, *heads] + [Wtilde1] * (Wtilde1 is not None) + [lam] * bool(heads)
        for (name, shape), value in zip(layout, values):
            if np.shape(value) != shape:
                raise DimensionError(f"{name} {np.shape(value)} must be {shape}")
        flat = np.concatenate([np.ravel(np.asarray(v, dtype=np.float64)) for v in values])
        return cls.view(flat, layout)

    def like(self, flat: np.ndarray) -> "LayerParams":
        """The same layout over another vector, such as a gradient."""
        return LayerParams.view(flat, self.layout)

    def named_blocks(self) -> list[tuple[str, np.ndarray]]:
        """``(name, view)`` for every block, in storage order."""
        return _blocks(self.flat, self.layout)


def _blocks(flat: np.ndarray, layout) -> list[tuple[str, np.ndarray]]:
    out, offset = [], 0
    for name, shape in layout:
        size = math.prod(shape)
        out.append((name, flat[offset:offset + size].reshape(shape)))
        offset += size
    return out


@dataclass
class LayerCache:
    """Every intermediate the backward pass needs, kept per forward call."""

    activation: str
    x: Matrix
    xbar: Matrix
    masks: list[Matrix]
    mixed: list[Matrix]
    stacked: Matrix | None
    xtilde: Matrix
    z: Matrix
    y: Matrix


def apply_activation(z: Matrix, kind: str) -> Matrix:
    if kind == "identity":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "softmax":
        if z.shape[1] != 1:
            raise ConfigurationError(
                f"softmax activation needs a single output column, got shape {z.shape}"
            )
        col = z[:, 0]
        expd = np.exp(col - col.max())
        return (expd / expd.sum())[:, None]
    raise ConfigurationError(f"unknown activation {kind!r}")


def activation_backward(grad_y: Matrix, cache: LayerCache) -> Matrix:
    """Pull the upstream gradient back through the activation: dL/dy -> dL/dz."""
    kind = cache.activation
    if kind == "identity":
        return grad_y
    if kind == "relu":
        return grad_y * (cache.z > 0.0)
    if kind == "softmax":
        y = cache.y
        inner = float(y[:, 0] @ grad_y[:, 0])
        return y * (grad_y - inner)
    raise ConfigurationError(f"unknown activation {kind!r}")


def _check_mask(a: Matrix) -> None:
    # Written so that a NaN row fails the comparison too.
    if not np.abs(a.sum(axis=1) - 1.0).max() <= MASK_ROW_SUM_TOL:
        raise DivergenceError(
            "attention mask rows do not sum to 1 (non-finite attention scores)"
        )


def layer_forward(x: Matrix, p: LayerParams, activation: str = "identity"):
    """Forward pass of one layer; returns the output and its cache."""
    if x.shape != (p.W1.shape[1], p.W2.shape[0]):
        raise DimensionError(
            f"input {x.shape} does not fit W1 {p.W1.shape} and W2 {p.W2.shape}"
        )
    with scope(SCOPE_PROJECT):
        xbar = matmul(p.W1, x)
    masks, mixed, stacked, xtilde = [], [], None, xbar
    if p.heads:
        lam = p.lam
        if not 0.0 <= lam <= 1.0:
            raise ConstraintError(f"lam must lie in [0, 1], got {float(lam)}")
        with scope(SCOPE_MIX):
            carry = scale(xbar, 1.0 - lam)  # shared by every head
        for w in p.heads:
            with scope(SCOPE_ATTENTION):
                e = matmul(xbar, w)
            a = softmax_rows(e)
            _check_mask(a)
            with scope(SCOPE_MIX):
                mixed.append(scale(hadamard(xbar, a), lam) + carry)
            masks.append(a)
        if p.Wtilde1 is None:
            xtilde = mixed[0]
        else:
            stacked = np.vstack(mixed)
            with scope(SCOPE_RECOMBINE):
                xtilde = matmul(p.Wtilde1, stacked)
    with scope(SCOPE_OUTPUT):
        z = matmul(xtilde, p.W2) + p.B
    y = apply_activation(z, activation)
    cache = LayerCache(
        activation=activation, x=x, xbar=xbar, masks=masks,
        mixed=mixed, stacked=stacked, xtilde=xtilde, z=z, y=y,
    )
    return y, cache


def _check_cache(cache: LayerCache, params: LayerParams, grad_y: Matrix) -> None:
    if grad_y.shape != cache.y.shape:
        raise CacheMismatchError(
            f"upstream gradient {grad_y.shape} does not match output {cache.y.shape}"
        )
    if cache.xbar.shape != (params.W1.shape[0], cache.x.shape[1]):
        raise CacheMismatchError("cached projection does not match W1")
    if (len(cache.masks) != len(params.heads)
            or (cache.stacked is None) != (params.Wtilde1 is None)):
        raise CacheMismatchError(
            f"cache holds {len(cache.masks)} heads, parameters have {len(params.heads)}, "
            f"recombination {'absent' if params.Wtilde1 is None else 'present'}"
        )


def _t(a: Matrix) -> Matrix:
    # A contiguous copy, not a transposed view: numpy multiplies a view by
    # a single row or column through another BLAS kernel, which rounds
    # differently, and seeded training results are pinned bit for bit.
    return np.ascontiguousarray(a.T)


def _softmax_rows_backward(grad_a: Matrix, a: Matrix) -> Matrix:
    # Row-wise Jacobian of the softmax: de = a * (da - sum(da * a, row))
    inner = np.sum(grad_a * a, axis=1, keepdims=True)
    return a * (grad_a - inner)


def layer_backward(cache: LayerCache, params: LayerParams, grad_y: Matrix,
                   grads: LayerParams | None = None, *,
                   grad_wrt_preactivation: bool = False):
    """Exact gradients of a scalar loss w.r.t. every parameter and the input.

    ``grad_y`` is dL/dy, or dL/dz when ``grad_wrt_preactivation`` is set
    (the fused softmax + cross-entropy path supplies the latter). The
    parameter gradients are added into ``grads``, which has the layout of
    ``params`` (a zeroed one when omitted), so a batch can sum its samples
    in one buffer. Returns ``(grads, grad_x)``.
    """
    _check_cache(cache, params, grad_y)
    if grads is None:
        grads = params.like(np.zeros_like(params.flat))
    dz = grad_y if grad_wrt_preactivation else activation_backward(grad_y, cache)
    # Local names for the in-place adds: the frozen fields cannot be rebound.
    g_b, g_w2, g_w1 = grads.B, grads.W2, grads.W1
    g_b += dz
    g_w2 += matmul(_t(cache.xtilde), dz)
    dxtilde = matmul(dz, _t(params.W2))

    dxbar = dxtilde
    if params.heads:
        if params.Wtilde1 is None:
            dmixed = [dxtilde]
        else:
            g_wt = grads.Wtilde1
            g_wt += matmul(dxtilde, _t(cache.stacked))
            dstacked = matmul(_t(params.Wtilde1), dxtilde)
            d_out = cache.xbar.shape[0]
            dmixed = [dstacked[k * d_out:(k + 1) * d_out] for k in range(len(params.heads))]

        xbar = cache.xbar
        lam = params.lam
        dxbar = np.zeros_like(xbar)
        dlam = 0.0
        for dmix, a, w, g_w in zip(dmixed, cache.masks, params.heads, grads.heads):
            dlam += float(np.sum(dmix * (xbar * a - xbar)))
            dxbar += (1.0 - lam) * dmix
            da = lam * (dmix * xbar)
            dxbar += lam * (dmix * a)
            de = _softmax_rows_backward(da, a)
            g_w += matmul(_t(xbar), de)
            dxbar += matmul(de, _t(w))
        g_lam = grads.lam
        g_lam += dlam

    g_w1 += matmul(dxbar, _t(cache.x))
    grad_x = matmul(_t(params.W1), dxbar)
    return grads, grad_x
