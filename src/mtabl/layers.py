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

The K score matrices W_k are one (K, T, T) block ``heads``, and the heads
are one more array axis: scores, masks and mixed features are (K, D', T),
each computed for all heads by one operation.

A batch of B windows is one feature-major (D, B, T) array, window b being
``X[:, b, :]``. Each product is then one GEMM over a reshape, such as
``W1 @ X.reshape(D, B*T)``, or a stack of them over the heads, such as
``xbar.reshape(D'*B, T) @ heads``; each parameter gradient sums over the
batch inside its GEMM. A (D, T) window takes the same path without the
batch axis, so each head's mask is (D', T) for a window, (D', B, T) for
a batch.

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

    W1, W2 and B come first, then the (K, T, T) block ``heads`` of score
    matrices, ``Wtilde1`` when the heads are recombined, and the scalar
    ``lam``; the last three only when there is a head.
    """
    (d, t), (d_out, t_out) = in_dims, out_dims
    if recombine and heads < 1:
        raise ConfigurationError("head recombination needs at least one head")
    if heads > 1 and not recombine:
        raise ConfigurationError(f"{heads} heads need the Wtilde1 recombination")
    layout = [("W1", (d_out, d)), ("W2", (t, t_out)), ("B", (d_out, t_out))]
    if heads:
        layout.append(("heads", (heads, t, t)))
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
    matrices as one (K, T, T) block (empty when K=0), ``Wtilde1`` the
    (D', D'*K) recombination or None, and ``lam`` a 0-d view (the
    constant 0.0 when K=0). The fields are frozen:
    write through the views, e.g. ``p.lam[()] = 0.3``.
    """

    flat: np.ndarray
    layout: tuple
    W1: Matrix
    W2: Matrix
    B: Matrix
    heads: np.ndarray
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
        t = blocks["W2"].shape[0]
        return cls(flat, tuple(layout), blocks["W1"], blocks["W2"], blocks["B"],
                   blocks.get("heads", flat[:0].reshape(0, t, t)),
                   blocks.get("Wtilde1"), blocks.get("lam", 0.0))

    @classmethod
    def pack(cls, W1, W2, B, heads=(), Wtilde1=None, lam: float = 0.0) -> "LayerParams":
        """Copy separate arrays, ``heads`` as (K, T, T) or K (T, T) matrices,
        into a new vector; every shape must chain."""
        (d_out, d), (t, t_out) = np.shape(W1), np.shape(W2)
        layout = layer_layout((d, t), (d_out, t_out), len(heads), Wtilde1 is not None)
        given = dict(W1=W1, W2=W2, B=B, heads=heads, Wtilde1=Wtilde1, lam=lam)
        values = [given[name] for name, _ in layout]
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
    masks: np.ndarray  # (K, D', [B,] T), one mask per head
    stacked: Matrix | None  # the mixed heads [mix_1; ...; mix_K] when recombined
    xtilde: Matrix
    z: Matrix
    y: Matrix


def apply_activation(z: Matrix, kind: str) -> Matrix:
    if kind == "identity":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "softmax":
        # Over the feature axis, one column per window.
        if z.shape[-1] != 1:
            raise ConfigurationError(
                f"softmax activation needs a single output column, got shape {z.shape}"
            )
        expd = np.exp(z - z.max(axis=0))
        return expd / expd.sum(axis=0)
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
        return y * (grad_y - np.sum(y * grad_y, axis=0))
    raise ConfigurationError(f"unknown activation {kind!r}")


def _check_mask(a: Matrix) -> None:
    # Every row of every window; written so that a NaN row fails too.
    if not np.abs(a.sum(axis=-1) - 1.0).max() <= MASK_ROW_SUM_TOL:
        raise DivergenceError(
            "attention mask rows do not sum to 1 (non-finite attention scores)"
        )


def _cols(a: np.ndarray) -> Matrix:
    """(D, [B,] T) as (D, B*T): the feature axis against everything else."""
    return a.reshape(a.shape[0], -1)


def _rows(a: np.ndarray) -> Matrix:
    """(D, [B,] T) as (D*B, T): the time axis against everything else."""
    return a.reshape(-1, a.shape[-1])


def layer_forward(x: np.ndarray, p: LayerParams, activation: str = "identity"):
    """Forward pass over one (D, T) window or a (D, B, T) batch.

    Returns the output, (D', T') or (D', B, T'), and its cache.
    """
    (d_out, d), (t, t_out) = p.W1.shape, p.W2.shape
    if x.ndim not in (2, 3) or (x.shape[0], x.shape[-1]) != (d, t):
        raise DimensionError(
            f"input {x.shape} does not fit W1 {p.W1.shape} and W2 {p.W2.shape}"
        )
    with scope(SCOPE_PROJECT):
        xbar = matmul(p.W1, _cols(x)).reshape((d_out,) + x.shape[1:])
    k = len(p.heads)
    masks, stacked, xtilde = np.empty((0,) + xbar.shape), None, xbar
    if k:
        lam = p.lam
        if not 0.0 <= lam <= 1.0:
            raise ConstraintError(f"lam must lie in [0, 1], got {float(lam)}")
        with scope(SCOPE_ATTENTION):
            e = matmul(_rows(xbar), p.heads)
        masks = softmax_rows(e).reshape((k,) + xbar.shape)
        _check_mask(masks)
        with scope(SCOPE_MIX):
            mixed = scale(hadamard(xbar, masks), lam) + scale(xbar, 1.0 - lam)
        if p.Wtilde1 is None:
            xtilde = mixed[0]
        else:
            stacked = mixed.reshape((k * d_out,) + xbar.shape[1:])
            with scope(SCOPE_RECOMBINE):
                xtilde = matmul(p.Wtilde1, _cols(stacked)).reshape(xbar.shape)
    with scope(SCOPE_OUTPUT):
        z = matmul(_rows(xtilde), p.W2).reshape(xbar.shape[:-1] + (t_out,))
        z += p.B if x.ndim == 2 else p.B[:, None]
    y = apply_activation(z, activation)
    return y, LayerCache(activation=activation, x=x, xbar=xbar, masks=masks,
                         stacked=stacked, xtilde=xtilde, z=z, y=y)


def _check_cache(cache: LayerCache, params: LayerParams, grad_y: Matrix) -> None:
    if grad_y.shape != cache.y.shape:
        raise CacheMismatchError(
            f"upstream gradient {grad_y.shape} does not match output {cache.y.shape}"
        )
    if cache.xbar.shape != (params.W1.shape[0],) + cache.x.shape[1:]:
        raise CacheMismatchError("cached projection does not match W1")
    if (len(cache.masks) != len(params.heads)
            or (cache.stacked is None) != (params.Wtilde1 is None)):
        raise CacheMismatchError(
            f"cache holds {len(cache.masks)} heads, parameters have {len(params.heads)}, "
            f"recombination {'absent' if params.Wtilde1 is None else 'present'}"
        )


def _softmax_rows_backward(grad_a: Matrix, a: Matrix) -> Matrix:
    # Row-wise Jacobian of the softmax: de = a * (da - sum(da * a, row))
    inner = np.sum(grad_a * a, axis=-1, keepdims=True)
    return a * (grad_a - inner)


def layer_backward(cache: LayerCache, params: LayerParams, grad_y: Matrix,
                   grads: LayerParams | None = None, *,
                   grad_wrt_preactivation: bool = False):
    """Exact gradients of a scalar loss w.r.t. every parameter and the input.

    ``grad_y`` is dL/dy, or dL/dz when ``grad_wrt_preactivation`` is set
    (the fused softmax + cross-entropy path supplies the latter), in the
    shape of the output. The parameter gradients, summed over the windows
    of a batch, are added into ``grads``, which has the layout of
    ``params`` (a zeroed one when omitted). Returns ``(grads, grad_x)``.
    """
    _check_cache(cache, params, grad_y)
    if grads is None:
        grads = params.like(np.zeros_like(params.flat))
    dz = grad_y if grad_wrt_preactivation else activation_backward(grad_y, cache)
    # In-place adds through the views: the frozen fields cannot be rebound.
    grads.B[...] += dz if dz.ndim == 2 else dz.sum(axis=1)
    grads.W2[...] += matmul(_rows(cache.xtilde).T, _rows(dz))
    dxtilde = matmul(_rows(dz), params.W2.T).reshape(cache.xtilde.shape)

    dxbar = dxtilde
    k = len(params.heads)
    if k:
        if params.Wtilde1 is None:
            dmixed = dxtilde[None]
        else:
            grads.Wtilde1[...] += matmul(_cols(dxtilde), _cols(cache.stacked).T)
            dmixed = matmul(params.Wtilde1.T, _cols(dxtilde)).reshape(cache.masks.shape)

        xbar, a, lam = cache.xbar, cache.masks, params.lam
        grads.lam[...] += float(np.sum(dmixed * (xbar * a - xbar)))
        de = _softmax_rows_backward(lam * (dmixed * xbar), a).reshape(k, -1, xbar.shape[-1])
        grads.heads[...] += matmul(_rows(xbar).T, de)
        dheads = matmul(de, params.heads.transpose(0, 2, 1)).reshape(a.shape)
        dxbar = ((1.0 - lam) * dmixed + lam * (dmixed * a) + dheads).sum(axis=0)

    grads.W1[...] += matmul(_cols(dxbar), _cols(cache.x).T)
    grad_x = matmul(params.W1.T, _cols(dxbar)).reshape(cache.x.shape)
    return grads, grad_x
