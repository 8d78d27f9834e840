"""Network composition: layer descriptors, initialization and sequential
forward/backward over a stack of bilinear layers.

A network is an ordered list of layer descriptors whose shapes chain, with
the attention layer last producing a (3, 1) column of class probabilities
per window. Inputs are a (D, T, B) batch, the batch axis last, or one
(D, T) window, which runs and comes back as a batch of one, B = 1 (see
:mod:`mtabl.layers`).
Shape mismatches are configuration errors raised at construction, never at
run time. A network's parameters are one float64 vector whose layout
follows from the spec (:class:`NetworkParams`).

The passes take an optional :class:`~mtabl.layers.Workspace`: layer i
writes its output and cache into the workspace's layer-i view, and the
backward layers share one set of scratch buffers; each layer's dL/dx
goes over the previous layer's output, which is dead by then, while it
is still in cache. A training loop passes the same workspace to every
step, so the returned probabilities and caches are overwritten by the
next pass through it.

:func:`predict_labels` projects each event once when the windows are
consecutive, as in a partition or a slice of one
(:meth:`~mtabl.data.Windows.consecutive`), the first layer runs features
first (:func:`~mtabl.layers.temporal_first`), and its shapes say that
this writes fewer doubles a window than gathering: W1 @ X acts on each
event alone, and consecutive windows share T-1 of their T events. For
the first layer's (D, T) -> (D', T') a window one event on writes
D'*(T + 1) doubles projected and D*T + D'*T gathered, so it projects
when D' < D*T (:func:`_projects`). So A and C project any consecutive
selection, windows laid end to end too, and B gathers, as does any
network whose first layer runs temporal first. The
projected windows go straight into the time-major block the next step
works on, one strided copy per run of windows one event apart (one run
per day of a partition). Probabilities stay within 1e-12 relative,
labels equal. A selection in any other order is gathered.
It sizes its chunks by doubles, not windows: a chunk takes as many windows
as fit ``_PREDICT_DOUBLES`` (1.2 MB) in the widest buffer its forward
writes, so memory does not grow with the selection, and A, at 30 doubles
a window, runs 5120-window chunks where C, at 600, runs 256; A gathers a
selection that is not consecutive 384 windows a chunk. Its forward runs
through a shared workspace, whose caches serve no backward, so it keeps
no relu mask.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .data import N_CLASSES
from .errors import ConfigurationError, DimensionError, DivergenceError
from .layers import (
    ACTIVATIONS,
    SCOPE_PROJECT,
    LayerParams,
    Workspace,
    buffer,
    layer_backward,
    layer_forward,
    layer_layout,
    layout_size,
    temporal_first,
)
from .linalg import Matrix, matmul, scope

KIND_BL = "bl"
KIND_TABL = "tabl"
KIND_MTABL = "mtabl"
LAYER_KINDS = (KIND_BL, KIND_TABL, KIND_MTABL)

# Doubles that predict_labels' widest buffer holds per chunk (1.2 MB): a
# chunk takes this over that buffer's doubles per window. Caches live for
# one chunk only, so memory does not grow with the number of samples.
# 256 windows of topology C's 600 doubles.
_PREDICT_DOUBLES = 256 * 600
# Windows a run must average for the per-event path to copy the runs: one
# strided copy of a run costs about as much as taking 64 windows one by one.
_RUN_WINDOWS = 64

# Hidden shapes for the two- and three-layer topologies; overridable.
DEFAULT_HIDDEN = {
    "A": [],
    "B": [(120, 5)],
    "C": [(60, 10), (120, 5)],
}


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    out_dims: tuple[int, int]
    activation: str = "identity"
    heads: int = 1
    fix_attention_diag: bool = False

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ConfigurationError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"unknown activation {self.activation!r}")
        d, t = self.out_dims
        if d < 1 or t < 1:
            raise ConfigurationError(f"output dims must be positive, got {self.out_dims}")
        if self.heads < 1:
            raise ConfigurationError(f"head count must be >= 1, got {self.heads}")
        if self.kind != KIND_MTABL and self.heads != 1:
            raise ConfigurationError(f"{self.kind} layers take exactly one head")
        if self.activation == "softmax" and t != 1:
            raise ConfigurationError("softmax activation requires a single output column")

    def layout(self, in_dims: tuple[int, int]):
        """Parameter layout: BL has no heads, TABL one head without
        recombination, MTABL ``heads`` heads recombined by Wtilde1."""
        heads = 0 if self.kind == KIND_BL else self.heads
        return layer_layout(in_dims, self.out_dims, heads, self.kind == KIND_MTABL)


@dataclass(frozen=True)
class NetworkSpec:
    """Input shape plus the chained layer descriptors."""

    input_dims: tuple[int, int]
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        if len(self.layers) == 0:
            raise ConfigurationError("network needs at least one layer")
        d, t = self.input_dims
        if d < 1 or t < 1:
            raise ConfigurationError(f"input dims must be positive, got {self.input_dims}")
        last = self.layers[-1]
        if last.out_dims != (N_CLASSES, 1):
            raise ConfigurationError(
                f"final layer must output ({N_CLASSES}, 1) class scores, got {last.out_dims}"
            )
        if last.activation != "softmax":
            raise ConfigurationError("final layer must use the softmax activation")

    def shapes(self) -> list[tuple[int, int]]:
        """Shape at every layer boundary, input first."""
        return [self.input_dims] + [layer.out_dims for layer in self.layers]

    def layouts(self) -> list:
        return [layer.layout(dims) for layer, dims in zip(self.layers, self.shapes())]

    def to_dict(self) -> dict:
        return {"input_dims": list(self.input_dims),
                "layers": [{**asdict(l), "out_dims": list(l.out_dims)} for l in self.layers]}

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        layers = tuple(LayerSpec(kind=l["kind"], out_dims=tuple(l["out_dims"]),
                                 activation=l["activation"], heads=l.get("heads", 1),
                                 fix_attention_diag=l.get("fix_attention_diag", False))
                       for l in d["layers"])
        return cls(input_dims=tuple(d["input_dims"]), layers=layers)


def topology(name: str, *, input_dims: tuple[int, int] = (40, 10),
             attention_kind: str = KIND_TABL, heads: int = 1,
             hidden_dims: list[tuple[int, int]] | None = None,
             fix_attention_diag: bool = False) -> NetworkSpec:
    """Build one of the three reference topologies.

    A is the attention layer alone; B puts one BL layer in front of it;
    C puts two. Hidden shapes default to :data:`DEFAULT_HIDDEN` and can be
    overridden per layer. A tabl attention layer takes exactly one head.
    """
    name = name.upper()
    if name not in DEFAULT_HIDDEN:
        raise ConfigurationError(f"unknown topology {name!r}, expected A, B or C")
    if attention_kind not in (KIND_TABL, KIND_MTABL):
        raise ConfigurationError(f"attention layer must be tabl or mtabl, got {attention_kind!r}")
    hidden = DEFAULT_HIDDEN[name] if hidden_dims is None else hidden_dims
    if len(hidden) != len(DEFAULT_HIDDEN[name]):
        raise ConfigurationError(
            f"topology {name} takes {len(DEFAULT_HIDDEN[name])} hidden layers, got {len(hidden)}"
        )
    layers = [LayerSpec(kind=KIND_BL, out_dims=tuple(dims), activation="relu")
              for dims in hidden]
    layers.append(LayerSpec(kind=attention_kind, out_dims=(N_CLASSES, 1),
                            activation="softmax", fix_attention_diag=fix_attention_diag,
                            heads=heads))
    return NetworkSpec(input_dims=input_dims, layers=tuple(layers))


class NetworkParams(list):
    """Per-layer :class:`LayerParams` over one contiguous float64 vector.

    ``flat`` holds every parameter, layer after layer, each layer in the
    order of :meth:`LayerSpec.layout`; gradients and optimizer state use
    the same layout, so they are vectors of the same length.
    """

    def __init__(self, spec: NetworkSpec, flat: np.ndarray | None = None):
        layouts = spec.layouts()
        bounds = np.cumsum([0] + [layout_size(layout) for layout in layouts])
        self.spec = spec
        self.flat = np.zeros(bounds[-1]) if flat is None else flat
        if self.flat.shape != (bounds[-1],):
            raise DimensionError(
                f"parameter vector has shape {self.flat.shape}, the network needs "
                f"({bounds[-1]},)"
            )
        super().__init__(
            LayerParams.view(self.flat[lo:hi], layout)
            for lo, hi, layout in zip(bounds, bounds[1:], layouts)
        )

    def like(self, flat: np.ndarray) -> "NetworkParams":
        """The same layout over another vector, such as a gradient."""
        return NetworkParams(self.spec, flat)

    def copy(self) -> "NetworkParams":
        return self.like(self.flat.copy())

    def named_blocks(self) -> list[tuple[str, np.ndarray]]:
        """``("layer{i}/{name}", view)`` for every block, in storage order."""
        return [(f"layer{i}/{name}", view)
                for i, p in enumerate(self) for name, view in p.named_blocks()]


def _uniform_fan(rng: np.random.Generator, rows: int, cols: int, fan_in: int) -> Matrix:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, (rows, cols))


def _attention_heads(rng: np.random.Generator, k: int, t: int, fix_diag: bool) -> np.ndarray:
    # Uniform attention start, 1/T everywhere; the noise breaks the
    # symmetry between heads, which would otherwise receive identical
    # gradients forever.
    noise = rng.normal(0.0, 0.01, (k, t, t))
    if fix_diag:
        noise[:, range(t), range(t)] = 0.0
    return np.full((t, t), 1.0 / t) + noise


def init_layer_params(spec: LayerSpec, in_dims: tuple[int, int],
                      rng: np.random.Generator) -> LayerParams:
    layout = spec.layout(in_dims)
    p = LayerParams.view(np.zeros(layout_size(layout)), layout)
    d, t = in_dims
    p.W1[...] = _uniform_fan(rng, *p.W1.shape, fan_in=d)
    p.W2[...] = _uniform_fan(rng, *p.W2.shape, fan_in=t)
    p.heads[...] = _attention_heads(rng, len(p.heads), t, spec.fix_attention_diag)
    if p.Wtilde1 is not None:
        p.Wtilde1[...] = _uniform_fan(rng, *p.Wtilde1.shape, fan_in=p.Wtilde1.shape[1])
    if len(p.heads):
        p.lam[()] = 0.5
    return p


def init_network_params(spec: NetworkSpec, seed_or_rng) -> NetworkParams:
    rng = (seed_or_rng if isinstance(seed_or_rng, np.random.Generator)
           else np.random.default_rng(seed_or_rng))
    layers = [init_layer_params(layer, dims, rng)
              for layer, dims in zip(spec.layers, spec.shapes())]
    return NetworkParams(spec, np.concatenate([p.flat for p in layers]))


def network_forward(x: np.ndarray, spec: NetworkSpec, params: list,
                    ws: Workspace | None = None, _projected: bool = False):
    """Run the stack on a (D, T, B) batch, or one (D, T) window as B = 1;
    returns the class probabilities, (3, 1, B), and every layer's cache,
    in ``ws`` when one is given. ``_projected`` (internal, from
    :func:`predict_labels`): ``x`` is the first layer's projection W1 @ X.
    The first layer checks the input's shape."""
    caches = []
    out = x
    for i, (layer, p) in enumerate(zip(spec.layers, params)):
        out, cache = layer_forward(out, p, layer.activation, ws and ws.layer(i),
                                   _projected and i == 0)
        caches.append(cache)
    return out, caches


def network_backward(spec: NetworkSpec, params: NetworkParams, caches: list, grad,
                     ws: Workspace | None = None):
    """Reverse the stack; returns the parameter gradients, summed over the
    windows of a batch. The incoming gradient is taken with respect to the
    final layer's pre-activation scores, as produced by the fused softmax
    cross-entropy backward. With a workspace, the layers share its
    backward scratch. The first layer's dL/dx, which no parameter gradient
    needs, is never computed (:func:`~mtabl.layers.layer_backward` gives it).
    """
    grads = params.like(np.zeros_like(params.flat))
    upstream = grad
    last = len(params) - 1
    for i in range(last, -1, -1):
        _, upstream = layer_backward(
            caches[i], params[i], upstream, grads[i], grad_wrt_preactivation=i == last,
            ws=ws, input_grad=i > 0,
        )
    return grads


def gather(windows, ws: Workspace | None = None) -> np.ndarray:
    """The (D, T, B) batch of :class:`~mtabl.data.Windows`, into ``ws`` when given."""
    d, t = windows.series.shape[0], windows.window
    return windows.gather(buffer(ws, "x", (d, t, len(windows))))


def _window_doubles(params: list, projected: bool) -> int:
    """Doubles per window in the widest buffer a predict forward writes: the
    first layer's input, W1 @ X when ``projected`` and else the gathered
    D x T window, then per layer its output, and u = W2^T @ X of a
    temporal-first layer or the (max(K, 1), D', T) heads block of a
    feature-first one."""
    w = params[0].W1.shape[0 if projected else 1] * params[0].W2.shape[0]
    for p in params:
        (d_out, d), (t, t_out) = p.W1.shape, p.W2.shape
        inner = d * t_out if temporal_first(p) else max(len(p.heads), 1) * d_out * t
        w = max(w, d_out * t_out, inner)
    return w


def _projects(p: LayerParams, windows) -> bool:
    """Whether :func:`predict_labels` projects each event of ``windows`` once,
    given the first layer's ``p``: it runs features first, the windows are
    consecutive and not empty, and a window one event past the last writes
    fewer doubles projected, its new event's W1 @ x and its time-major
    block, D'*(T + 1), than gathered, the window and its xbar block,
    D*T + D'*T; that is, D' < D*T."""
    (d_out, d), t = p.W1.shape, len(p.W2)
    return not temporal_first(p) and d_out < d * t and len(windows) > 0 and windows.consecutive()


def _project(windows, w1: Matrix, ws: Workspace) -> np.ndarray:
    """W1 @ X of each of the consecutive ``windows``, as the (D', T, B) view
    of a time-major (T, D', B) block in the ``x`` buffer of ``ws``. W1
    multiplies each event of the windows' span once; a run of windows one
    event apart is then one strided copy of that product, and windows
    further apart are taken one step at a time, each straight into the
    block."""
    t, starts = windows.window, windows.starts
    with scope(SCOPE_PROJECT):
        p = matmul(w1, windows.series[:, starts[0]:starts[-1] + t])
    starts = starts - starts[0]
    block = ws.take("x", (t, len(p), len(starts)))
    breaks = np.flatnonzero(starts[1:] != starts[:-1] + 1) + 1
    if len(breaks) * _RUN_WINDOWS < len(starts):
        # steps[i, :, s] = p[:, s + i], step i of the window that starts at s.
        (row, col), n = p.strides, p.shape[1] - t + 1
        steps = as_strided(p, (t, len(p), n), (col, row, col), writeable=False)
        for lo, hi in zip([0, *breaks], [*breaks, len(starts)]):
            np.copyto(block[..., lo:hi], steps[..., starts[lo]:starts[lo] + hi - lo])
    else:
        for i in range(t):  # step i of every window, into its contiguous (D', B) slab
            np.take(p, starts + i, axis=1, out=block[i], mode="clip")
    return block.swapaxes(0, 1)


def predict_labels(spec: NetworkSpec, params: list, windows) -> list[int]:
    """Hard class decisions for :class:`~mtabl.data.Windows`, batched through
    one shared :class:`~mtabl.layers.Workspace`, whose ``x`` buffer takes
    each chunk, and every layer writes the same buffers. A chunk holds as
    many windows as fit ``_PREDICT_DOUBLES`` doubles in the widest of those
    buffers, so a narrow network runs few large chunks. Consecutive
    windows, when :func:`_projects` finds that the first layer runs
    features first and that this writes fewer doubles, get each event's
    projection W1 @ X once per chunk, copied time-major in place of the
    windows (:func:`_project`); any other selection is gathered in the
    caller's order.
    A non-finite probability raises DivergenceError naming its window."""
    dims = (windows.series.shape[0], windows.window)
    if dims != spec.input_dims:
        raise DimensionError(f"input {dims} does not match network input {spec.input_dims}")
    ws = Workspace(shared=True)
    projected = _projects(params[0], windows)
    size = max(_PREDICT_DOUBLES // _window_doubles(params, projected), 1)
    labels = np.empty(len(windows), np.int64)
    for start in range(0, len(windows), size):
        chunk = windows[start:start + size]
        x = _project(chunk, params[0].W1, ws) if projected else gather(chunk, ws)
        # Index the result so that no chunk's caches outlive its forward.
        probs = network_forward(x, spec, params, ws, projected)[0]
        if not np.isfinite(probs).all():
            bad = start + np.flatnonzero(~np.isfinite(probs).all(axis=(0, 1)))[0]
            raise DivergenceError(f"window {bad} has a non-finite class probability")
        # np.argmax's labels, ties to the lower class, in two comparisons.
        p0, p1, p2 = probs[:, 0]
        out = labels[start:start + size]
        np.greater(p1, p0, out=out)
        out[p2 > np.maximum(p0, p1)] = 2
    return labels.tolist()


def attention_lambdas(params: list) -> list[float]:
    """The mixing coefficient of every attention layer, in layer order."""
    return [float(p.lam) for p in params if len(p.heads)]
