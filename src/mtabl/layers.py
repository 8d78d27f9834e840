"""The bilinear layer with K >= 0 temporal attention heads.

One layer maps a matrix-valued series X of shape (D, T), whose columns
are consecutive time steps, to an output of shape (D', T'):

  xbar   = W1 @ X                       feature projection, (D', T)
  e_k    = xbar @ W_k                   attention scores of head k, (D', T)
  a_k    = softmax over each row        attention mask, rows sum to 1
  mix_k  = lam*(xbar*a_k) + (1-lam)*xbar, taken as xbar*(lam*a_k + (1-lam))
  y      = act(xtilde @ W2 + B)

The form taken costs 2K*D'*T multiplications a window, not (2K+1)*D'*T,
and rounds otherwise than the paper's (within 1e-12 relative); at lam = 0
and lam = 1 both give the same bits, so the reduction to BL is exact.

The paper's three layer kinds are head counts of this one layer:

  BL     K=0: no attention, y = act(W1 @ X @ W2 + B)
  TABL   K=1 without recombination: xtilde = mix_1
  MTABL  K heads sharing xbar and lam; the mixed features are stacked on
         the feature axis into a (D'*K, T) block and projected back to D'
         rows by Wtilde1 (D', D'*K): xtilde = Wtilde1 @ [mix_1; ...; mix_K]

The mixing coefficient lam is constrained to [0, 1]; at lam=0 the attention
path is inert and the layer reduces to BL. Backward passes are exact
analytic gradients, derived by hand; there is no autodiff anywhere.

Attention needs xbar = W1 @ X before W2 applies. BL has nothing between
the two products, so it takes whichever association costs fewer
multiplications per window in a training step's forward and parameter
gradients (:func:`temporal_first`): W1 @ (X @ W2) when

  2*d*t*t' + 3*d'*d*t'  <  2*d'*d*t + 3*d'*t*t',

else (W1 @ X) @ W2, as the paper writes it; training and prediction both
follow it. The temporal-first forward
counts U = X @ W2 under the temporal-projection scope and W1 @ U under
the feature-projection scope, and its cache holds U in place of xbar and
xtilde. The two orders differ only in rounding. In (W1 @ X) @ W2, each
event's column of xbar depends on that event alone (:func:`layer_forward`).

The K score matrices W_k are one (K, T, T) block ``heads``, and the heads
are one more array axis: masks and mixed features are (K, D', T), each
computed for all heads by one operation.

A batch of B windows is one C-ordered (D, T, B) array, window b being
``X[..., b]``; a (D, T) window runs as a batch of one and comes back as
one, B = 1, so a head's mask is (D', T, B). A temporal-first layer
takes u[d] = W2^T @ X[d] for each feature row d and z = W1 @ u as one
GEMM; its backward takes dW1 and dL/du as one GEMM each, dW2 as the sum
over d of X[d] @ dL/du[d]^T, and dL/dx[d] as W2 @ dL/du[d]. The bias
add, relu and dL/dB run along the contiguous batch axis. relu's forward
keeps z > 0 as a boolean mask (``LayerCache.positive``), and its
backward multiplies dL/dy by it, so dL/dz has the bits of
``g * (z > 0).astype(float)``, signed zeros too. A forward-only pass,
through a shared :class:`Workspace`, keeps no mask.

From xbar to z a feature-first layer works time-major, with the time
axis first in memory: the softmax (which also checks that every mask row
sums to 1) and its backward reduce over the T steps of each of the
K*D'*B mask rows in one pass over whole slices, not one short row at a
time (see :mod:`mtabl.linalg`). W1 @ X[:, t] goes for each step t
straight into a (T, D', B) block (predict_labels copies its projected
windows there), and no later step copies: the scores of all heads are
one GEMM of the (T*K, T) rows of the W_k^T with that block, a
(T, K, D'*B) block that the softmax normalises in place; the mixing
broadcasts xbar over the heads; Wtilde1 recombines the K*D' rows of each
step; and z[d'] = W2^T @ xtilde[d'] reads the xtilde block through a
transposed view. The backward works on the same blocks (dW_k and the
heads' part of dL/dxbar are one GEMM each over the (T*K, D'*B) block of
dL/de) and takes dW1 and dL/dx step by step from dL/dxbar's block. The
cache holds (D', T, B) views of the blocks, so ``masks`` is
(K, D', T, B), as in the maths.

Parameters live in one contiguous float64 vector: :class:`LayerParams`
holds named views into it, laid out by :func:`layer_layout`, and
gradients come in the same layout. Forward passes never mutate the
parameters, so concurrent forward/backward over different samples with
shared parameters is safe.

Given a :class:`Workspace`, a pass writes its outputs, cache and large
temporaries into the workspace's buffers (``out=`` of the same operations
in the same order, so bit-identical results) instead of fresh arrays,
which a training loop would fault in again every step.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CacheMismatchError,
    ConfigurationError,
    ConstraintError,
    DimensionError,
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


class Workspace:
    """Buffers that one caller reuses across the passes of a network.

    One flat array per key, float64 but for relu's boolean mask
    ``positive``; :meth:`take` returns its leading
    elements reshaped (a short last batch gets a contiguous prefix) and
    replaces it by a larger array when asked for more. ``Workspace()``
    keys buffers by layer and role, so a training step keeps every layer's
    cache for the backward; :meth:`layer` is the view a layer's forward
    writes through. ``Workspace(shared=True)`` is for forward passes that
    need only their output: all layers share one buffer per role, which
    grows to the largest layer's need on the first batch and is then
    reused. Sharing keeps a C prediction's buffers at the size of its
    largest layer, not the sum over its layers. Its caches are overwritten
    layer by layer and serve no backward, so a forward through it keeps
    no relu mask (a backward on such a cache raises
    :class:`~mtabl.errors.CacheMismatchError`).

    A result lives until a pass writes its key again: a layer's output and
    cache until the next forward through its view (any view, if shared) or
    a backward through a workspace. That backward writes dL/dz over dL/dy
    and dL/dx over the layer's input when they lie in a relu or identity
    layer's output buffer (role ``z``; a softmax writes role ``y``, which
    its backward reads), so in a network each layer's dL/dx replaces the
    previous layer's output, which that layer's backward reads next; it
    writes dL/dxtilde over
    ``xtilde`` (dL/du over ``u`` in a temporal-first layer) and its
    scratch over the stacked heads of an attention layer.
    ``network_backward`` gives all layers the unkeyed view, so they share
    the backward roles ``grad`` (dL/dz, then dL/dx, where there is no such
    array to replace), ``dmixed`` (then dW1's per-step products) and
    ``product`` (the softmax backward's scratch, then dL/dxbar). A pass without a
    workspace touches none.
    """

    def __init__(self, shared: bool = False):
        self._layer: int | None = None
        self._shared = shared
        self._buffers = {}

    def layer(self, i: int) -> "Workspace":
        """The view of layer ``i``: the same buffers, under keys of its own
        unless the workspace is shared."""
        if self._shared:
            return self
        view = copy.copy(self)
        view._layer = i
        return view

    def take(self, role: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """The buffer of ``role`` in this view, as a C-ordered array of ``shape``;
        a role always takes one ``dtype``."""
        size = math.prod(shape)
        key = (self._layer, role)
        flat = self._buffers.get(key)
        if flat is None or flat.size < size:
            flat = self._buffers[key] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def buffer(ws: Workspace | None, role: str, shape: tuple[int, ...],
           dtype=np.float64) -> np.ndarray | None:
    """``ws.take(role, shape, dtype)``, or None (a fresh result) without a workspace."""
    return None if ws is None else ws.take(role, shape, dtype)


def _over(ws: Workspace | None, a: np.ndarray) -> np.ndarray | None:
    """Where a backward writes a result shaped like ``a``, which it has
    read: over ``a`` when it is a relu or identity output in ``ws`` (role
    ``z``, which no backward reads), where the next step reads it while it
    is still in cache, else into the ``grad`` buffer of ``ws``."""
    if ws is None:
        return None
    if any(a.base is flat for (_, role), flat in ws._buffers.items() if role == "z"):
        return a
    return ws.take("grad", a.shape)


def _blocks(flat: np.ndarray, layout) -> list[tuple[str, np.ndarray]]:
    out, offset = [], 0
    for name, shape in layout:
        size = math.prod(shape)
        out.append((name, flat[offset:offset + size].reshape(shape)))
        offset += size
    return out


@dataclass
class LayerCache:
    """Every intermediate the backward pass needs, kept per forward call.

    A temporal-first BL layer keeps ``u`` = W2^T @ x, and no xbar or xtilde.
    """

    activation: str
    x: Matrix | None  # None after a projected forward, which has no backward
    xbar: Matrix | None  # from here to xtilde: views of time-major blocks
    masks: np.ndarray  # (K, D', T, B), one mask per head
    stacked: Matrix | None  # the mixed heads [mix_1; ...; mix_K] when recombined
    xtilde: Matrix | None
    z: Matrix  # with a workspace, y overwrites it
    y: Matrix
    u: Matrix | None
    positive: np.ndarray | None  # relu's z > 0, what its backward reads; None if shared


def apply_activation(z: Matrix, kind: str, out: Matrix | None = None) -> Matrix:
    """``act(z)``, into ``out`` when given; identity returns ``z`` itself."""
    if kind == "identity":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    if kind == "softmax":
        # Over the feature axis, one column per window.
        if z.shape[1] != 1:
            raise ConfigurationError(
                f"softmax activation needs a single output column, got shape {z.shape}"
            )
        expd = np.exp(np.subtract(z, z.max(axis=0), out=out), out=out)
        return np.divide(expd, expd.sum(axis=0), out=expd)
    raise ConfigurationError(f"unknown activation {kind!r}")


def activation_backward(grad_y: Matrix, cache: LayerCache, ws: Workspace | None) -> Matrix:
    """Pull the upstream gradient back through the activation: dL/dy -> dL/dz,
    with ``ws`` over ``grad_y`` or into its ``grad`` buffer (see :func:`_over`);
    identity returns ``grad_y``."""
    kind, out = cache.activation, _over(ws, grad_y)
    if kind == "identity":
        return grad_y
    if kind == "relu":  # the boolean mask multiplies as 1.0 or 0.0, so -0.0 stays
        return np.multiply(grad_y, cache.positive, out=out)
    if kind == "softmax":
        y = cache.y
        return np.multiply(y, grad_y - np.sum(y * grad_y, axis=0), out=out)
    raise ConfigurationError(f"unknown activation {kind!r}")


def temporal_first(p: LayerParams) -> bool:
    """Whether the layer multiplies W1 @ (X @ W2): it has no heads, and that
    order takes fewer multiplications per window in a forward and its
    parameter gradients (U, W1 @ U, dW1, dL/dU, dW2) than (W1 @ X) @ W2
    (xbar, z, dW2, dL/dxbar, dW1); a tie takes (W1 @ X) @ W2."""
    (d_out, d), (t, t_out) = p.W1.shape, p.W2.shape
    return (not len(p.heads) and 2 * d * t * t_out + 3 * d_out * d * t_out
            < 2 * d_out * d * t + 3 * d_out * t * t_out)


def layer_forward(x: np.ndarray, p: LayerParams, activation: str = "identity",
                  ws: Workspace | None = None, _projected: bool = False):
    """Forward pass over a (D, T, B) batch, or one (D, T) window as a batch of one.

    Returns the output, (D', T', B), and its cache, in ``ws`` (one
    layer's view of a workspace) when given. ``_projected`` (internal,
    from :func:`mtabl.network.predict_labels`, for a layer that runs
    features first): ``x`` is W1 @ X, (D', T, B), and the cache has no
    backward; a view of a time-major block is used in place, any other
    ``x`` copied.
    """
    (d_out, d), (t, t_out) = p.W1.shape, p.W2.shape
    temporal = temporal_first(p)
    if _projected and temporal:
        raise DimensionError(f"the layer with W1 {p.W1.shape} and W2 {p.W2.shape} runs "
                             "temporal first, so it takes no projected input")
    if x.ndim not in (2, 3) or x.shape[:2] != (d_out if _projected else d, t):
        raise DimensionError(f"{'projected ' * _projected}input {x.shape} does not fit "
                             f"W1 {p.W1.shape} and W2 {p.W2.shape} of this layer")
    x = x[..., None] if x.ndim == 2 else x  # one window is a batch of one
    b, k = x.shape[2], len(p.heads)
    masks, stacked, u = np.empty((0, d_out, t, b)), None, None
    if temporal:
        with scope(SCOPE_OUTPUT):
            # W2^T @ X[d] for each of the D feature rows, (T', B) each.
            u = matmul(p.W2.T, x, buffer(ws, "u", (d, t_out, b)))
        with scope(SCOPE_PROJECT):
            z = matmul(p.W1, u.reshape(d, -1), buffer(ws, "z", (d_out, t_out * b)))
        xbar = xtilde = None
    else:
        r = d_out * b  # the rows of the time-major blocks: D' x B
        if _projected:
            xbar, x = x, None
        else:
            with scope(SCOPE_PROJECT):
                # W1 @ X[:, t] for each step, straight into the (T, D', B) block.
                xbar = matmul(p.W1, x.swapaxes(0, 1),
                              buffer(ws, "xbar", (t, d_out, b))).swapaxes(0, 1)
        xb = xbar.swapaxes(0, 1).reshape(t, r)
        xtilde = xb
        if k:
            # A Python float: each scalar operation on the 0-d view takes about 1 us.
            lam = float(p.lam)
            if not 0.0 <= lam <= 1.0:
                raise ConstraintError(f"lam must lie in [0, 1], got {lam}")
            with scope(SCOPE_ATTENTION):
                # e_k^T = W_k^T @ xbar^T for all heads in one product, whose
                # row (t, k) is step t of head k: the (T, K, R) scores block.
                e = matmul(p.heads.transpose(2, 0, 1).reshape(t * k, t), xb,
                           buffer(ws, "masks", (t * k, r))).reshape(t, k, r)
            rows = e.transpose(1, 2, 0)  # (K, R, T): one mask row per window and feature
            softmax_rows(rows, rows)
            with scope(SCOPE_MIX):
                # lam*(xbar*a) + (1-lam)*xbar, taken as xbar*(lam*a + (1-lam)).
                mixed = scale(e, lam, buffer(ws, "mixed", e.shape))
                mixed += 1.0 - lam
                mixed = hadamard(xb[:, None], mixed, mixed)
            masks = e.reshape(t, k, d_out, b).transpose(1, 2, 0, 3)
            if p.Wtilde1 is None:
                xtilde = mixed[:, 0]
            else:
                # Per step, the K*D' rows [mix_1; ...; mix_K] of every window.
                stacked = mixed.reshape(t, k * d_out, b)
                with scope(SCOPE_RECOMBINE):
                    xtilde = matmul(p.Wtilde1, stacked, buffer(ws, "xtilde", (t, d_out, b)))
                stacked = stacked.swapaxes(0, 1)
        xtilde = xtilde.reshape(t, d_out, b).swapaxes(0, 1)
        with scope(SCOPE_OUTPUT):
            # W2^T @ xtilde[d'] for each of the D' rows, (T', B) each.
            z = matmul(p.W2.T, xtilde, buffer(ws, "z", (d_out, t_out, b)))
    z = z.reshape(d_out, t_out, b)
    z += p.B[..., None]
    positive = (np.greater(z, 0.0, out=buffer(ws, "positive", z.shape, np.bool_))
                if activation == "relu" and not (ws and ws._shared) else None)
    # A softmax backward reads y: its own role keeps it from the next
    # layer's backward, which writes dL/dx over a ``z`` buffer.
    y = apply_activation(z, activation, buffer(ws, "y" if activation == "softmax" else "z",
                                               z.shape))
    return y, LayerCache(activation=activation, x=x, xbar=xbar, masks=masks,
                         stacked=stacked, xtilde=xtilde, z=z, y=y, u=u, positive=positive)


def _check_cache(cache: LayerCache, params: LayerParams, grad_y: Matrix) -> None:
    if grad_y.shape != cache.y.shape:
        raise CacheMismatchError(
            f"upstream gradient {grad_y.shape} does not match output {cache.y.shape}"
        )
    if (len(cache.masks) != len(params.heads)
            or (cache.stacked is None) != (params.Wtilde1 is None)):
        raise CacheMismatchError(
            f"cache holds {len(cache.masks)} heads, parameters have {len(params.heads)}, "
            f"recombination {'absent' if params.Wtilde1 is None else 'present'}"
        )
    if cache.x is None:
        raise CacheMismatchError("the cache of a projected forward holds no input")
    if cache.activation == "relu" and cache.positive is None:
        raise CacheMismatchError("the cache holds no relu mask: a forward through a "
                                 "shared workspace keeps none")
    (d_out, d), (t, t_out) = params.W1.shape, params.W2.shape
    first, shape = ((cache.u, (d, t_out)) if temporal_first(params)
                    else (cache.xbar, (d_out, t)))
    if (first is None or first.shape != shape + cache.x.shape[2:]
            or cache.x.shape[:2] != (d, t)):
        raise CacheMismatchError("cached products or input do not match W1 and W2")


def _softmax_rows_backward(grad_a: Matrix, a: Matrix, ws: Workspace | None) -> Matrix:
    # Row-wise Jacobian of the softmax over the time axis of (T, K, R)
    # blocks: de = a * (da - sum(da * a, over t)), written over grad_a.
    prod = np.multiply(grad_a, a, out=buffer(ws, "product", a.shape))
    grad_a -= prod.sum(axis=0)
    grad_a *= a
    return grad_a


def layer_backward(cache: LayerCache, params: LayerParams, grad_y: Matrix,
                   grads: LayerParams | None = None, *,
                   grad_wrt_preactivation: bool = False, ws: Workspace | None = None,
                   input_grad: bool = True):
    """Exact gradients of a scalar loss w.r.t. every parameter and the input.

    ``grad_y`` is dL/dy, or dL/dz when ``grad_wrt_preactivation`` is set
    (the fused softmax + cross-entropy path supplies the latter), in the
    output's (D', T', B) shape. The parameter gradients, summed over the
    windows of a batch, are added into ``grads``, which has the layout of
    ``params`` (a zeroed one when omitted). Returns ``(grads, grad_x)``,
    ``grad_x`` None when ``input_grad`` is false. With a workspace, dL/dz
    goes over ``grad_y`` and ``grad_x`` over ``cache.x`` when they lie in
    a ``z`` buffer of the workspace, else to its ``grad`` buffer,
    dL/dxtilde over ``cache.xtilde`` (dL/du over ``cache.u`` in a
    temporal-first layer), and the heads' intermediates over
    ``cache.stacked`` and the workspace's buffers.
    """
    _check_cache(cache, params, grad_y)
    if grads is None:
        grads = params.like(np.zeros_like(params.flat))
    dz = grad_y if grad_wrt_preactivation else activation_backward(grad_y, cache, ws)
    # In-place adds through the views: the frozen fields cannot be rebound.
    grads.B[...] += dz.sum(axis=2)
    if cache.u is not None:
        return _temporal_first_backward(cache, params, dz, grads, ws, input_grad)
    (d_out, _), (t, _) = params.W1.shape, params.W2.shape
    r = d_out * dz.shape[2]
    grads.W2[...] += matmul(cache.xtilde, dz.swapaxes(1, 2)).sum(axis=0)
    # Nothing reads xtilde after dW2, so a workspace backward writes over it.
    block = np.empty((t, d_out, dz.shape[2])) if ws is None else cache.xtilde.swapaxes(0, 1)
    dxbar = dxtilde = matmul(params.W2, dz, block.swapaxes(0, 1)).swapaxes(0, 1).reshape(t, r)

    k = len(params.heads)
    if k:
        # Time-major (T, K, R) blocks, xbar broadcast over the heads.
        xbar = cache.xbar.swapaxes(0, 1).reshape(t, 1, r)
        a, lam = cache.masks.transpose(2, 0, 1, 3).reshape(t, k, r), float(params.lam)
        # Of the workspace's stacked heads and dmixed buffers, one holds
        # dL/dmixed and the other is free: nothing reads stacked after dWtilde1.
        if params.Wtilde1 is None:
            dmixed, free = dxtilde[:, None], buffer(ws, "dmixed", a.shape)
        else:
            stacked = cache.stacked.swapaxes(0, 1)
            dxtilde = dxtilde.reshape(t, d_out, -1)
            grads.Wtilde1[...] += matmul(dxtilde, stacked.transpose(0, 2, 1)).sum(axis=0)
            dmixed = matmul(params.Wtilde1.T, dxtilde, buffer(ws, "dmixed", stacked.shape))
            dmixed = dmixed.reshape(a.shape)
            free = None if ws is None else stacked.reshape(a.shape)

        # dL/dlam = sum(dmixed * (xbar*a - xbar)), then the softmax's upstream
        # lam * (dmixed * xbar): the operations of these expressions in their
        # order (IEEE products and sums commute), in place.
        dlam = np.multiply(xbar, a, out=free)
        dlam -= xbar
        dlam *= dmixed
        grads.lam[...] += float(np.sum(dlam))
        grad_a = np.multiply(dmixed, xbar, out=dlam)
        grad_a *= lam
        de = _softmax_rows_backward(grad_a, a, ws).reshape(t * k, r)
        # dW_k = xbar^T @ de_k, every head in one product: column (t, k)
        # of the (T, T*K) result is column t of dW_k.
        grads.heads[...] += matmul(xbar[:, 0], de.T).reshape(t, t, k).transpose(2, 0, 1)
        # dxbar = sum over heads of (de_k @ W_k^T + (1 - lam)*dmixed + lam*(dmixed*a)),
        # the first term summed over the heads inside one product.
        dxbar = matmul(params.heads.transpose(1, 2, 0).reshape(t, t * k), de,
                       buffer(ws, "product", (t, r)))
        mix = np.multiply(dmixed, a, out=de.reshape(a.shape))
        mix *= lam
        dmixed *= 1.0 - lam
        dmixed += mix
        dxbar += dmixed.sum(axis=1)

    # Step by step on the (T, D', B) block: dW1 = sum over t of
    # dxbar[t] @ X[:, t]^T, the T products in the dead dmixed buffer, and
    # dL/dx[:, t] = W1^T @ dxbar[t].
    dxbar = dxbar.reshape(t, d_out, -1)
    grads.W1[...] += matmul(dxbar, cache.x.transpose(1, 2, 0),
                            buffer(ws, "dmixed", (t, d_out, len(cache.x)))).sum(axis=0)
    if not input_grad:
        return grads, None
    # dz is dead by now, so dL/dx may take its buffer, and x was last read for dW1.
    grad_x = np.empty(cache.x.shape) if ws is None else _over(ws, cache.x)
    matmul(params.W1.T, dxbar, grad_x.swapaxes(0, 1))
    return grads, grad_x


def _temporal_first_backward(cache: LayerCache, params: LayerParams, dz: Matrix,
                             grads: LayerParams, ws: Workspace | None, input_grad: bool):
    """:func:`layer_backward` after dL/dB for z = W1 @ u + B, u[d] = W2^T @ x[d]."""
    u, d_out = cache.u, len(params.W1)
    dz = dz.reshape(d_out, -1)
    grads.W1[...] += matmul(dz, u.reshape(len(u), -1).T)
    # Nothing reads u after dW1, so a workspace backward writes dL/du over it.
    du = matmul(params.W1.T, dz, None if ws is None else u.reshape(len(u), -1))
    du = du.reshape(u.shape)
    # dW2 = sum over the feature rows d of x[d] @ du[d]^T.
    grads.W2[...] += matmul(cache.x, du.swapaxes(1, 2)).sum(axis=0)
    if not input_grad:
        return grads, None
    # dz is dead by now, so dL/dx may take its buffer, and x was last read for dW2.
    return grads, matmul(params.W2, du, _over(ws, cache.x))
