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
multiplications per window (:func:`temporal_first`): W1 @ (X @ W2) when

  d*t*t' + d'*d*t'  <  d'*d*t + d'*t*t',

else (W1 @ X) @ W2, as the paper writes it. The temporal-first forward
counts U = X @ W2 under the temporal-projection scope and W1 @ U under
the feature-projection scope, and its cache holds U in place of xbar and
xtilde. The two orders differ only in rounding. In (W1 @ X) @ W2, each
event's column of xbar depends on that event alone (:func:`layer_forward`).

The K score matrices W_k are one (K, T, T) block ``heads``, and the heads
are one more array axis: masks and mixed features are (K, D', T), each
computed for all heads by one operation.

A batch of B windows is one feature-major (D, B, T) array, window b being
``X[:, b, :]``, and W1 @ X is one GEMM over ``X.reshape(D, B*T)``. A (D, T)
window takes the same path without the batch axis, so each head's mask is
(D', T) for a window, (D', B, T) for a batch.

From xbar to z a feature-first layer works time-major, with the time
axis first in memory: the softmax (which also checks that every mask row
sums to 1) and its backward reduce over the T steps of each of the
K*D'*B mask rows in one pass over whole slices, not one short row at a
time (see :mod:`mtabl.linalg`). xbar is copied once into a (T, D'*B)
block (predict_labels writes it there directly), and no later step
copies: the scores of all heads are one GEMM of the (T*K, T) rows of the
W_k^T with that block, a (T, K, D'*B) block that the softmax normalises
in place; the mixing broadcasts xbar over the heads; Wtilde1 recombines
the K*D' rows of each step; and z = xtilde @ W2 reads the transposed
xtilde block and comes out feature-major. The backward works on the
same blocks (dW_k and the heads' part of dL/dxbar are one GEMM each over
the (T*K, D'*B) block of dL/de) and copies dL/dxbar back to (D', B, T)
for dW1 and dL/dx. The cache holds (D', [B,] T) views of the blocks, so
``masks`` is (K, D', [B,] T), as in the maths.

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

    One flat float64 array per key; :meth:`take` returns its leading
    elements reshaped (a short last batch gets a contiguous prefix) and
    replaces it by a larger array when asked for more. ``Workspace()``
    keys buffers by layer and role, so a training step keeps every layer's
    cache for the backward; :meth:`layer` is the view a layer's forward
    writes through. ``Workspace(shared=True)`` is for forward passes that
    need only their output: all layers share one buffer per role, which
    grows to the largest layer's need on the first batch and is then
    reused. Sharing keeps a C prediction's buffers at the size of its
    largest layer, not the sum over its layers.

    A result lives until a pass writes its key again: a layer's output and
    cache until the next forward through its view (any view, if shared) or
    a backward through a workspace, which writes dL/dxtilde over
    ``xtilde`` (dL/du over ``u`` in a temporal-first layer) and its
    scratch over the stacked heads of an attention layer.
    ``network_backward`` gives all layers the unkeyed view, so they share
    the backward roles ``grad`` (dL/dz, then dL/dx, over the upstream
    gradient when that is the previous dL/dx), ``dmixed``, ``product``
    (relu's z > 0 first) and ``dxbar``. A pass without a workspace
    touches none.
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

    def take(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        """The buffer of ``role`` in this view, as a C-ordered array of ``shape``."""
        size = math.prod(shape)
        key = (self._layer, role)
        flat = self._buffers.get(key)
        if flat is None or flat.size < size:
            flat = self._buffers[key] = np.empty(size)
        return flat[:size].reshape(shape)


def buffer(ws: Workspace | None, role: str, shape: tuple[int, ...]) -> np.ndarray | None:
    """``ws.take(role, shape)``, or None (a fresh result) without a workspace."""
    return None if ws is None else ws.take(role, shape)


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

    A temporal-first BL layer keeps ``u`` = x @ W2, and no xbar or xtilde.
    """

    activation: str
    x: Matrix | None  # None after a projected forward, which has no backward
    xbar: Matrix | None  # from here to xtilde: views of time-major blocks
    masks: np.ndarray  # (K, D', [B,] T), one mask per head
    stacked: Matrix | None  # the mixed heads [mix_1; ...; mix_K] when recombined
    xtilde: Matrix | None
    z: Matrix  # with a workspace, y overwrites it: the backward reads only z > 0
    y: Matrix
    u: Matrix | None


def apply_activation(z: Matrix, kind: str, out: Matrix | None = None) -> Matrix:
    """``act(z)``, into ``out`` when given; identity returns ``z`` itself."""
    if kind == "identity":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0, out=out)
    if kind == "softmax":
        # Over the feature axis, one column per window.
        if z.shape[-1] != 1:
            raise ConfigurationError(
                f"softmax activation needs a single output column, got shape {z.shape}"
            )
        expd = np.exp(np.subtract(z, z.max(axis=0), out=out), out=out)
        return np.divide(expd, expd.sum(axis=0), out=expd)
    raise ConfigurationError(f"unknown activation {kind!r}")


def activation_backward(grad_y: Matrix, cache: LayerCache, ws: Workspace | None) -> Matrix:
    """Pull the upstream gradient back through the activation: dL/dy -> dL/dz,
    into the ``grad`` buffer of ``ws`` when given; identity returns ``grad_y``."""
    kind, out = cache.activation, buffer(ws, "grad", grad_y.shape)
    if kind == "identity":
        return grad_y
    if kind == "relu":  # z > 0 as 1.0 or 0.0: the factors of a boolean mask
        mask = np.greater(cache.z, 0.0, out=buffer(ws, "product", grad_y.shape))
        return np.multiply(grad_y, mask, out=out)
    if kind == "softmax":
        y = cache.y
        return np.multiply(y, grad_y - np.sum(y * grad_y, axis=0), out=out)
    raise ConfigurationError(f"unknown activation {kind!r}")


def _cols(a: np.ndarray) -> Matrix:
    """(D, [B,] T) as (D, B*T): the feature axis against everything else."""
    return a.reshape(a.shape[0], -1)


def _rows(a: np.ndarray) -> Matrix:
    """(D, [B,] T) as (D*B, T): the time axis against everything else."""
    return a.reshape(-1, a.shape[-1])


def _time_major(a: np.ndarray, *shape: int) -> np.ndarray:
    """(..., T) as (T, ...), reshaped to ``shape`` if given: a view when ``a``
    lies time-major in memory, as the forward leaves it. Transposes cost a
    sixth of ``np.moveaxis``."""
    a = a.transpose(a.ndim - 1, *range(a.ndim - 1))
    return a.reshape(shape) if shape else a


def _steps_last(a: np.ndarray) -> np.ndarray:
    """(T, ...) as (..., T), a view."""
    return a.transpose(*range(1, a.ndim), 0)


def _copy(a: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``a`` copied C-ordered, into ``out`` when given."""
    if out is None:
        return a.copy()
    np.copyto(out, a)
    return out


def temporal_first(p: LayerParams) -> bool:
    """Whether the layer multiplies W1 @ (X @ W2): it has no heads, and that
    order takes fewer multiplications per window than (W1 @ X) @ W2."""
    (d_out, d), (t, t_out) = p.W1.shape, p.W2.shape
    return (not len(p.heads)
            and d * t * t_out + d_out * d * t_out < d_out * d * t + d_out * t * t_out)


def layer_forward(x: np.ndarray, p: LayerParams, activation: str = "identity",
                  ws: Workspace | None = None, _projected: bool = False):
    """Forward pass over one (D, T) window or a (D, B, T) batch.

    Returns the output, (D', T') or (D', B, T'), and its cache, in ``ws``
    (one layer's view of a workspace) when given. ``_projected`` (internal,
    from :func:`mtabl.network.predict_labels`): ``x`` is W1 @ X, (D', B, T),
    of a layer that is not temporal-first, and the cache has no backward;
    a view of a time-major block is used in place, any other ``x`` copied.
    """
    (d_out, d), (t, t_out) = p.W1.shape, p.W2.shape
    rows = d_out if _projected else d
    if (x.ndim not in (2, 3) or (x.shape[0], x.shape[-1]) != (rows, t)
            or _projected and temporal_first(p)):
        raise DimensionError(f"{'projected ' * _projected}input {x.shape} does not fit "
                             f"W1 {p.W1.shape} and W2 {p.W2.shape} of this layer")
    n = x.size // rows  # windows times time steps
    k = len(p.heads)
    masks, stacked, u = np.empty((0, d_out) + x.shape[1:]), None, None
    if temporal_first(p):
        with scope(SCOPE_OUTPUT):
            u = matmul(_rows(x), p.W2, buffer(ws, "u", (x.size // t, t_out)))
            u = u.reshape(x.shape[:-1] + (t_out,))
        with scope(SCOPE_PROJECT):
            z = matmul(p.W1, _cols(u), buffer(ws, "z", (d_out, u.size // d)))
        z = z.reshape((d_out,) + u.shape[1:])
        xbar = xtilde = None
    else:
        rest = (d_out,) + x.shape[1:-1]  # the rows of xbar: D' or D' x B
        if _projected:
            xbar, x = x, None
        else:
            with scope(SCOPE_PROJECT):
                # Into the mixed heads' buffer, which is free until the mixing.
                xbar = matmul(p.W1, _cols(x), buffer(ws, "mixed", (d_out, n)))
            xbar = _copy(_time_major(xbar.reshape(rest + (t,))),
                         buffer(ws, "xbar", (t,) + rest))
            xbar = _steps_last(xbar)
        xb = _time_major(xbar, t, -1)  # (T, R): R = D'*B rows of T steps
        r = xb.shape[1]
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
            masks = _steps_last(e)
            softmax_rows(masks, masks)
            with scope(SCOPE_MIX):
                # lam*(xbar*a) + (1-lam)*xbar, taken as xbar*(lam*a + (1-lam)).
                mixed = scale(e, lam, buffer(ws, "mixed", e.shape))
                mixed += 1.0 - lam
                mixed = hadamard(xb[:, None], mixed, mixed)
            masks = masks.reshape((k,) + rest + (t,))
            if p.Wtilde1 is None:
                xtilde = mixed[:, 0]
            else:
                # Per step, the K*D' rows [mix_1; ...; mix_K] of every window.
                stacked = mixed.reshape(t, k * d_out, r // d_out)
                with scope(SCOPE_RECOMBINE):
                    xtilde = matmul(p.Wtilde1, stacked,
                                    buffer(ws, "xtilde", (t, d_out, r // d_out)))
                stacked = _steps_last(stacked.reshape((t, k * d_out) + rest[1:]))
        with scope(SCOPE_OUTPUT):
            z = matmul(xtilde.reshape(t, r).T, p.W2, buffer(ws, "z", (r, t_out)))
        z = z.reshape(rest + (t_out,))
        xtilde = _steps_last(xtilde.reshape((t,) + rest))
    z += p.B if z.ndim == 2 else p.B[:, None]
    y = apply_activation(z, activation, buffer(ws, "z", z.shape))
    return y, LayerCache(activation=activation, x=x, xbar=xbar, masks=masks,
                         stacked=stacked, xtilde=xtilde, z=z, y=y, u=u)


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
    (d_out, d), (t, t_out) = params.W1.shape, params.W2.shape
    first, shape = ((cache.u, cache.x.shape[:-1] + (t_out,)) if temporal_first(params)
                    else (cache.xbar, (d_out,) + cache.x.shape[1:]))
    if (first is None or first.shape != shape
            or (cache.x.shape[0], cache.x.shape[-1]) != (d, t)):
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
    shape of the output. The parameter gradients, summed over the windows
    of a batch, are added into ``grads``, which has the layout of
    ``params`` (a zeroed one when omitted). Returns ``(grads, grad_x)``,
    ``grad_x`` None when ``input_grad`` is false. With a workspace, dL/dz
    and then ``grad_x`` go to its ``grad`` buffer, over ``grad_y`` when
    that is where it lies, dL/dxtilde over ``cache.xtilde`` (dL/du
    over ``cache.u`` in a temporal-first layer), and the heads'
    intermediates over ``cache.stacked`` and the workspace's buffers.
    """
    _check_cache(cache, params, grad_y)
    if grads is None:
        grads = params.like(np.zeros_like(params.flat))
    dz = grad_y if grad_wrt_preactivation else activation_backward(grad_y, cache, ws)
    # In-place adds through the views: the frozen fields cannot be rebound.
    grads.B[...] += dz if dz.ndim == 2 else _batch_sum(dz)
    if cache.u is not None:
        return _temporal_first_backward(cache, params, dz, grads, ws, input_grad)
    (d_out, _), (t, _) = params.W1.shape, params.W2.shape
    rest = cache.xbar.shape[:-1]
    xtilde = _time_major(cache.xtilde, t, -1)
    r = xtilde.shape[1]
    grads.W2[...] += matmul(xtilde, _rows(dz))
    # Nothing reads xtilde after dW2, so a workspace backward writes over it.
    dxbar = dxtilde = matmul(params.W2, _rows(dz).T, None if ws is None else xtilde)

    k = len(params.heads)
    if k:
        # Time-major (T, K, R) blocks, xbar broadcast over the heads.
        xbar = _time_major(cache.xbar, t, 1, r)
        a, lam = _time_major(cache.masks, t, k, r), float(params.lam)
        # Of the workspace's stacked heads and dmixed buffers, one holds
        # dL/dmixed and the other is free: nothing reads stacked after dWtilde1.
        if params.Wtilde1 is None:
            dmixed, free = dxtilde[:, None], buffer(ws, "dmixed", a.shape)
        else:
            stacked = _time_major(cache.stacked, t, k * d_out, r // d_out)
            dxtilde = dxtilde.reshape(t, d_out, r // d_out)
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

    # Feature-major again, for the products with x.
    dxbar = _copy(_steps_last(dxbar.reshape((t,) + rest)),
                  buffer(ws, "dxbar", rest + (t,)))
    grads.W1[...] += matmul(_cols(dxbar), _cols(cache.x).T)
    if not input_grad:
        return grads, None
    # dz is dead by now, so dL/dx may take its buffer.
    grad_x = matmul(params.W1.T, _cols(dxbar), buffer(ws, "grad", _cols(cache.x).shape))
    return grads, grad_x.reshape(cache.x.shape)


def _temporal_first_backward(cache: LayerCache, params: LayerParams, dz: Matrix,
                             grads: LayerParams, ws: Workspace | None, input_grad: bool):
    """:func:`layer_backward` after dL/dB for z = W1 @ u + B, u = x @ W2."""
    u = cache.u
    grads.W1[...] += matmul(_cols(dz), _cols(u).T)
    # Nothing reads u after dW1, so a workspace backward writes dL/du over it.
    du = matmul(params.W1.T, _cols(dz), None if ws is None else _cols(u)).reshape(u.shape)
    grads.W2[...] += matmul(_rows(cache.x).T, _rows(du))
    if not input_grad:
        return grads, None
    # dz is dead by now, so dL/dx may take its buffer.
    grad_x = matmul(_rows(du), params.W2.T, buffer(ws, "grad", _rows(cache.x).shape))
    return grads, grad_x.reshape(cache.x.shape)


def _batch_sum(dz: np.ndarray) -> Matrix:
    """dz (D', B, T') summed over the batch. einsum adds the windows in the
    order sum(axis=1) does, bit for bit, and about 5x faster for T' > 1;
    for T' = 1 numpy's sum adds pairwise, which einsum does not."""
    return np.einsum("dbt->dt", dz) if dz.shape[-1] > 1 else dz.sum(axis=1)
