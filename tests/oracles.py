"""Independent reference implementations used as test oracles.

Everything here is deliberately written with plain Python loops and
``math`` so it shares no code with the library: matrix products by the
naive triple loop, the layer forwards step by scalar step, and the
classification metrics recomputed directly from the raw pair list. The
exceptions are references for code that was rewritten for speed, kept in
the form it replaced: :func:`per_window_gradients`, the window-by-window
training step; :func:`bl_feature_first`, the BL layer multiplied as
(W1 @ X) @ W2 in plain numpy; :func:`optimizer_step_as_written`, the
update formulas evaluated as written, one fresh array per operation; and
:func:`softmax_over_rows`, the softmax reduced over the last axis. One
more exception is :func:`check_reduction`, which runs the library's own
layer forward and backward on multi-head parameters built to reduce to
the single head, and compares the two. :func:`biased_params` is no
oracle: it gives prediction comparisons the nonzero biases that
initialisation leaves at zero.
"""

import math
from dataclasses import dataclass

import numpy as np

from mtabl.layers import LayerParams, layer_backward, layer_forward
from mtabl.network import init_network_params


def matmul_loops(a, b):
    """Naive triple-loop product of two list-of-list matrices."""
    n, k, m = len(a), len(b), len(b[0])
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = 0.0
            for p in range(k):
                s += a[i][p] * b[p][j]
            out[i][j] = s
    return out


def _add_loops(a, b):
    return [[a[i][j] + b[i][j] for j in range(len(a[0]))] for i in range(len(a))]


def _softmax_rows_loops(e):
    out = []
    for row in e:
        m = max(row)
        exps = [math.exp(v - m) for v in row]
        s = sum(exps)
        out.append([v / s for v in exps])
    return out


def _activation_loops(z, kind):
    if kind == "identity":
        return [row[:] for row in z]
    if kind == "relu":
        return [[v if v > 0.0 else 0.0 for v in row] for row in z]
    if kind == "softmax":
        col = [row[0] for row in z]
        m = max(col)
        exps = [math.exp(v - m) for v in col]
        s = sum(exps)
        return [[v / s] for v in exps]
    raise ValueError(kind)


def bl_forward_scalar(x, w1, w2, b, activation="identity"):
    """act(W1 @ x @ W2 + B), every product written out longhand."""
    xbar = matmul_loops(w1, x)
    z = _add_loops(matmul_loops(xbar, w2), b)
    return _activation_loops(z, activation)


def tabl_forward_scalar(x, w1, w, w2, b, lam, activation="identity"):
    """The five single-head steps applied one scalar at a time."""
    xbar = matmul_loops(w1, x)
    e = matmul_loops(xbar, w)
    a = _softmax_rows_loops(e)
    mixed = [
        [lam * (xbar[i][j] * a[i][j]) + (1.0 - lam) * xbar[i][j]
         for j in range(len(xbar[0]))]
        for i in range(len(xbar))
    ]
    z = _add_loops(matmul_loops(mixed, w2), b)
    return _activation_loops(z, activation)


def attention_masks_scalar(x, w1, heads):
    """Every head's mask softmax(W1 @ x @ W_k) of one window, row by row."""
    xbar = matmul_loops(w1, x)
    return [_softmax_rows_loops(matmul_loops(xbar, w)) for w in heads]


def mtabl_forward_scalar(x, w1, heads, wtilde1, w2, b, lam, activation="identity"):
    """Multi-head forward: per-head mixing, row stacking, recombination."""
    xbar = matmul_loops(w1, x)
    stacked = []
    for w in heads:
        e = matmul_loops(xbar, w)
        a = _softmax_rows_loops(e)
        stacked.extend(
            [lam * (xbar[i][j] * a[i][j]) + (1.0 - lam) * xbar[i][j]
             for j in range(len(xbar[0]))]
            for i in range(len(xbar))
        )
    xtilde = matmul_loops(wtilde1, stacked)
    z = _add_loops(matmul_loops(xtilde, w2), b)
    return _activation_loops(z, activation)


def metrics_bruteforce(predictions, labels):
    """Per-class and macro metrics recomputed by direct counting."""
    per_class = {}
    for c in range(3):
        tp = sum(1 for p, t in zip(predictions, labels) if p == c and t == c)
        fp = sum(1 for p, t in zip(predictions, labels) if p == c and t != c)
        fn = sum(1 for p, t in zip(predictions, labels) if p != c and t == c)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        per_class[c] = (precision, recall, f1)
    correct = sum(1 for p, t in zip(predictions, labels) if p == t)
    return {
        "accuracy": correct / len(labels),
        "per_class": per_class,
        "macro_precision": sum(per_class[c][0] for c in range(3)) / 3,
        "macro_recall": sum(per_class[c][1] for c in range(3)) / 3,
        "macro_f1": sum(per_class[c][2] for c in range(3)) / 3,
    }


def per_window_gradients(spec, params, batch, class_weights=None):
    """Mean loss, mean gradient vector and clamp count of a batch, one
    (D, T) window at a time through the library's single-window path."""
    from mtabl.losses import PROB_FLOOR, cross_entropy
    from mtabl.network import network_backward, network_forward

    total = np.zeros_like(params.flat)
    loss_sum, clamped = 0.0, 0
    for sample in batch:
        probs, caches = network_forward(sample.x, spec, params)
        clamped += int(probs[sample.label, 0] < PROB_FLOOR)
        loss, grad_scores, _ = cross_entropy(probs, sample.label, class_weights)
        grads = network_backward(spec, params, caches, grad_scores)
        total += grads.flat
        loss_sum += loss
    return loss_sum / len(batch), total / len(batch), clamped


def bl_feature_first(x, w1, w2, b, activation, grad_y):
    """BL forward and backward as the paper writes it, (W1 @ X) @ W2, one
    window at a time. ``x`` is (D, T) or (D, T, B) and ``grad_y`` dL/dy in
    the output's shape; the activation is identity or relu. Returns
    (y, dW1, dW2, dB, dL/dx), the parameter gradients summed over windows."""
    batched = x.ndim == 3
    xs = [x[..., i] for i in range(x.shape[2])] if batched else [x]
    gys = [grad_y[..., i] for i in range(grad_y.shape[2])] if batched else [grad_y]
    dw1, dw2, db = np.zeros_like(w1), np.zeros_like(w2), np.zeros_like(b)
    ys, gxs = [], []
    relu = activation == "relu"
    for xw, gy in zip(xs, gys):
        xbar = w1 @ xw
        z = xbar @ w2 + b
        ys.append(np.maximum(z, 0.0) if relu else z)
        dz = gy * (z > 0.0) if relu else gy
        db += dz
        dw2 += xbar.T @ dz
        dxbar = dz @ w2.T
        dw1 += dxbar @ xw.T
        gxs.append(w1.T @ dxbar)
    if batched:
        return np.stack(ys, axis=-1), dw1, dw2, db, np.stack(gxs, axis=-1)
    return ys[0], dw1, dw2, db, gxs[0]


def optimizer_step_as_written(flat, grad, m, v, velocity, t, lr, cfg):
    """One Adam or SGD-momentum update of the flat parameter vector, each
    formula evaluated in one expression on fresh arrays. Returns the new
    (flat, m, v, velocity); the arguments are left untouched. No
    constraint projection: callers keep lam inside [0, 1]."""
    if cfg.algorithm == "adam":
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * grad
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * (grad * grad)
        m_hat = m / (1.0 - cfg.beta1 ** t)
        v_hat = v / (1.0 - cfg.beta2 ** t)
        return flat - lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon), m, v, velocity
    velocity = cfg.momentum * velocity + grad
    return flat - lr * velocity, m, v, velocity


def softmax_over_rows(e):
    """The row softmax with numpy's own last-axis max and sum, which add
    rows of 8 or more pairwise."""
    expd = np.exp(e - e.max(axis=-1, keepdims=True))
    return expd / expd.sum(axis=-1, keepdims=True)


@dataclass
class ReductionReport:
    """Outcome of the multi-head to single-head equivalence checks."""

    n_inputs: int
    tol: float
    max_forward_diff: float
    max_grad_diff: float
    control_separated: bool

    @property
    def passed(self) -> bool:
        return (self.max_forward_diff <= self.tol
                and self.max_grad_diff <= self.tol
                and self.control_separated)


def _grad_diff(a: LayerParams, b: LayerParams) -> float:
    """Largest gap between the gradients of the shared W1, W2, B and lam."""
    return max(float(np.abs(np.subtract(getattr(a, name), getattr(b, name))).max())
               for name in ("W1", "W2", "B", "lam"))


def check_reduction(seed: int = 0, n_inputs: int = 100, tol: float = 1e-12) -> ReductionReport:
    """Multi-head layers must collapse onto the single-head layer.

    With one head and an identity recombination the multi-head forward and
    every shared-parameter gradient must coincide with the single head
    without recombination; with K identical heads recombined by the
    block-averaged identity the forward must coincide too, with the head
    gradients summing to the single-head score gradient. A perturbed
    recombination serves as the control: it must separate the outputs,
    otherwise the check itself is vacuous.
    """
    rng = np.random.default_rng(seed)
    d, t, d_out, t_out = 4, 5, 3, 2
    base = dict(W1=rng.normal(size=(d_out, d)), W2=rng.normal(size=(t, t_out)),
                B=rng.normal(size=(d_out, t_out)))
    w = rng.normal(size=(t, t))
    lam = float(rng.uniform(0.1, 0.9))
    k = 3
    single = LayerParams.pack(**base, heads=[w], lam=lam)
    one_head = LayerParams.pack(**base, heads=[w], Wtilde1=np.eye(d_out), lam=lam)
    averaged = LayerParams.pack(**base, heads=[w] * k, lam=lam,
                                Wtilde1=np.hstack([np.eye(d_out)] * k) / k)
    perturbed = LayerParams.pack(**base, heads=[w], Wtilde1=np.eye(d_out) + 0.05, lam=lam)

    max_fwd = 0.0
    max_grad = 0.0
    control_separated = True
    for _ in range(n_inputs):
        x = rng.normal(size=(d, t))
        grad_y = rng.normal(size=(d_out, t_out))

        y_single, cache_single = layer_forward(x, single)
        g_single, _ = layer_backward(cache_single, single, grad_y)

        y_one, cache_one = layer_forward(x, one_head)
        g_one, _ = layer_backward(cache_one, one_head, grad_y)
        max_fwd = max(max_fwd, float(np.abs(y_single - y_one).max()))
        max_grad = max(max_grad, _grad_diff(g_single, g_one),
                       float(np.abs(g_single.heads[0] - g_one.heads[0]).max()))

        y_avg, cache_avg = layer_forward(x, averaged)
        g_avg, _ = layer_backward(cache_avg, averaged, grad_y)
        max_fwd = max(max_fwd, float(np.abs(y_single - y_avg).max()))
        max_grad = max(max_grad, _grad_diff(g_single, g_avg))
        head_sum = g_avg.heads.sum(axis=0)
        max_grad = max(max_grad, float(np.abs(head_sum - g_single.heads[0]).max()))

        y_ctrl, _ = layer_forward(x, perturbed)
        if float(np.abs(y_single - y_ctrl).max()) <= tol:
            control_separated = False

    return ReductionReport(
        n_inputs=n_inputs, tol=tol, max_forward_diff=max_fwd, max_grad_diff=max_grad,
        control_separated=control_separated,
    )


def biased_params(spec, seed, scale=0.5):
    """Seeded initial parameters with every layer's bias drawn from
    N(0, ``scale``); at zero biases, a pass that dropped one would agree."""
    params = init_network_params(spec, seed)
    rng = np.random.default_rng([seed, 1])
    for p in params:
        p.B[...] = rng.normal(0.0, scale, p.B.shape)
    return params
