"""Independent verification oracles.

Three families of check, each deliberately decoupled from the code it
verifies:

* a central finite-difference gradient checker that perturbs every entry
  of a layer's or network's flat parameter vector and compares the
  numeric slope against the analytic backward pass;
* structural-equivalence checks for the multi-head layer's reductions to
  the single-head one (one head with an identity recombination, and K
  identical heads recombined by averaging);
* a multiplication estimator for the layer cost model, paired with the
  instrumented counter in :mod:`mtabl.linalg` so the predicted and the
  actually executed head-dependent work can be compared exactly.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import ConfigurationError, MtablError
from .layers import LayerParams, layer_backward, layer_forward
from .linalg import count_multiplications
from .losses import cross_entropy
from .network import (
    KIND_BL,
    KIND_MTABL,
    KIND_TABL,
    LayerSpec,
    NetworkSpec,
    init_layer_params,
    network_backward,
    network_forward,
)

REL_ERR_FLOOR = 1e-8
DEFAULT_STEP = 1e-5
DEFAULT_THRESHOLD = 1e-4


def relative_error(a: float, n: float, floor: float = REL_ERR_FLOOR) -> float:
    return abs(a - n) / max(abs(a), abs(n), floor)


@dataclass
class BlockCheck:
    name: str
    max_rel_err: float
    worst_coord: tuple[int, ...]
    analytic_at_worst: float
    numeric_at_worst: float


@dataclass
class GradCheckReport:
    step: float
    threshold: float
    blocks: dict[str, BlockCheck] = field(default_factory=dict)
    untestable: list[str] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((b.max_rel_err for b in self.blocks.values()), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.threshold

    def worst_block(self) -> BlockCheck | None:
        if not self.blocks:
            return None
        return max(self.blocks.values(), key=lambda b: b.max_rel_err)

    def to_text(self) -> str:
        lines = [f"step={self.step:g} threshold={self.threshold:g} "
                 f"passed={self.passed} max_rel_err={self.max_rel_err:.3e}"]
        for b in self.blocks.values():
            lines.append(
                f"  {b.name}: max_rel_err={b.max_rel_err:.3e} at {b.worst_coord} "
                f"(analytic={b.analytic_at_worst:.6e}, numeric={b.numeric_at_worst:.6e})"
            )
        for coord in self.untestable:
            lines.append(f"  untestable: {coord}")
        return "\n".join(lines)


def compare_to_finite_differences(loss_fn, params, analytic, *,
                                  step: float = DEFAULT_STEP,
                                  threshold: float = DEFAULT_THRESHOLD) -> GradCheckReport:
    """Central differences of ``loss_fn`` against analytic gradients.

    ``params`` is a LayerParams or NetworkParams and ``analytic`` holds
    gradients in the same layout; ``loss_fn`` maps ``params`` to a scalar.
    Every entry of the flat parameter vector is perturbed by +-step in
    place and restored, and results are reported per named block at the
    block coordinate: (i, j) in a matrix, (k, i, j) in the heads block, and
    (0, 0) for the scalar lam. Coordinates at
    which the loss cannot be evaluated (constraint violations, non-finite
    values) are recorded as untestable instead of failing the check. A
    coordinate whose analytic value agrees with the central difference to
    within the difference quotient's own rounding resolution (a few dozen
    ulps of the loss spread over 2*step) counts as matched outright: below
    that spacing the quotient carries no information, which matters both
    for tiny true gradients and for exactly-zero ones, such as the mixing
    coefficient of a length-one series.
    """
    report = GradCheckReport(step=step, threshold=threshold)
    eps = np.finfo(np.float64).eps
    flat, grad = params.flat, analytic.flat
    offset = 0
    for name, block in params.named_blocks():
        worst = BlockCheck(name, -1.0, (0, 0), 0.0, 0.0)
        for k in range(offset, offset + block.size):
            coord = tuple(int(c) for c in np.unravel_index(k - offset, block.shape or (1, 1)))
            where = f"{name}[{','.join(map(str, coord))}]"
            original = flat[k]

            def loss_at(delta):
                flat[k] = original + delta
                try:
                    return loss_fn(params)
                finally:
                    flat[k] = original

            try:
                up, down = loss_at(step), loss_at(-step)
            except MtablError:
                report.untestable.append(where)
                continue
            if not (math.isfinite(up) and math.isfinite(down)):
                report.untestable.append(where)
                continue
            numeric = (up - down) / (2.0 * step)
            a = float(grad[k])
            resolution = 32.0 * eps * max(abs(up), abs(down), 1.0) / (2.0 * step)
            err = 0.0 if abs(a - numeric) <= resolution else relative_error(a, numeric)
            if err > worst.max_rel_err:
                worst = BlockCheck(name, err, coord, a, numeric)
        if worst.max_rel_err >= 0.0:
            report.blocks[name] = worst
        offset += block.size
    return report


def _quadratic_loss(y: np.ndarray, target: np.ndarray):
    diff = y - target
    return 0.5 * float(np.sum(diff * diff)), diff


def gradcheck_layer(params, activation: str, x: np.ndarray, *,
                    step: float = DEFAULT_STEP, threshold: float = DEFAULT_THRESHOLD,
                    target: np.ndarray | None = None) -> GradCheckReport:
    """Check one layer's analytic gradients under a quadratic loss."""
    y0, cache = layer_forward(x, params, activation)
    if target is None:
        target = np.zeros_like(y0)
    _, grad_y = _quadratic_loss(y0, target)
    analytic, _ = layer_backward(cache, params, grad_y)

    def loss_fn(p):
        y, _ = layer_forward(x, p, activation)
        return _quadratic_loss(y, target)[0]

    return compare_to_finite_differences(loss_fn, params, analytic,
                                         step=step, threshold=threshold)


def gradcheck(spec: NetworkSpec, params, sample, *,
              step: float = DEFAULT_STEP,
              threshold: float = DEFAULT_THRESHOLD) -> GradCheckReport:
    """Check a whole network's gradients under the cross-entropy loss.

    Perturbs every parameter of every layer; block names are prefixed with
    the layer index. The analytic side uses the fused softmax+cross-entropy
    backward, the numeric side re-evaluates the actual loss.
    """
    probs, caches = network_forward(sample.x, spec, params)
    _, grad_scores = cross_entropy(probs, sample.label)
    grads, _ = network_backward(spec, params, caches, grad_scores)

    def loss_fn(p):
        out, _ = network_forward(sample.x, spec, p)
        return cross_entropy(out, sample.label)[0]

    return compare_to_finite_differences(loss_fn, params, grads,
                                         step=step, threshold=threshold)


def random_layer_case(kind: str, rng: np.random.Generator, *, max_dim: int = 6,
                      heads: int = 1, step: float = DEFAULT_STEP):
    """Draw a random small layer configuration for gradient checking.

    Weights are fan-scaled so the attention scores land in the softmax's
    responsive range; a saturated mask has pathological curvature and
    central differences stop being informative there long before the
    analytic gradient is at fault. The mixing coefficient is kept inside
    (0, 1) so finite differences stay feasible, and relu inputs are
    re-drawn until every pre-activation is at least 10 steps away from
    the kink.
    """
    d, t = rng.integers(1, max_dim + 1), rng.integers(1, max_dim + 1)
    d_out, t_out = rng.integers(1, max_dim + 1), rng.integers(1, max_dim + 1)
    activation = rng.choice(["identity", "relu"]) if t_out != 1 else rng.choice(
        ["identity", "relu", "softmax"])

    def draw_params():
        base = dict(
            W1=rng.normal(0.0, 1.0 / math.sqrt(d), (d_out, d)),
            W2=rng.normal(0.0, 1.0 / math.sqrt(t), (t, t_out)),
            B=rng.normal(0.0, 0.3, (d_out, t_out)),
        )
        if kind == KIND_BL:
            return LayerParams.pack(**base)
        lam = float(rng.uniform(0.2, 0.8))
        k = 1 if kind == KIND_TABL else heads
        score_mats = [rng.normal(0.0, 1.0 / math.sqrt(t), (t, t)) for _ in range(k)]
        recombine = (None if kind == KIND_TABL else
                     rng.normal(0.0, 1.0 / math.sqrt(d_out * k), (d_out, d_out * k)))
        return LayerParams.pack(**base, heads=score_mats, Wtilde1=recombine, lam=lam)

    params = draw_params()
    for _ in range(64):
        x = rng.normal(0.0, 1.0, (d, t))
        if activation != "relu":
            break
        _, cache = layer_forward(x, params, activation)
        if np.abs(cache.z).min() >= 10.0 * step:
            break
    return params, str(activation), x


def draw_gradcheck_sample(spec: NetworkSpec, params: list, rng: np.random.Generator,
                          *, step: float = DEFAULT_STEP, max_tries: int = 64):
    """Random labeled input for a network check, re-drawn until every relu
    pre-activation is at least 10 steps clear of its kink."""
    from .data import SeriesSample

    x = rng.normal(size=spec.input_dims)
    for _ in range(max_tries):
        _, caches = network_forward(x, spec, params)
        if all(cache.activation != "relu" or np.abs(cache.z).min() >= 10.0 * step
               for cache in caches):
            break
        x = rng.normal(size=spec.input_dims)
    return SeriesSample(x=x, label=int(rng.integers(3)))


@dataclass
class ReductionReport:
    """Outcome of the multi-head to single-head equivalence checks."""

    n_inputs: int
    tol: float
    max_forward_diff: float
    max_grad_diff: float
    mean_forward_diff: float
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
    fwd_sum = 0.0
    control_separated = True
    for _ in range(n_inputs):
        x = rng.normal(size=(d, t))
        grad_y = rng.normal(size=(d_out, t_out))

        y_single, cache_single = layer_forward(x, single)
        g_single, _ = layer_backward(cache_single, single, grad_y)

        y_one, cache_one = layer_forward(x, one_head)
        g_one, _ = layer_backward(cache_one, one_head, grad_y)
        diff = float(np.abs(y_single - y_one).max())
        max_fwd = max(max_fwd, diff)
        fwd_sum += diff
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
        n_inputs=n_inputs, tol=tol, max_forward_diff=max_fwd,
        max_grad_diff=max_grad, mean_forward_diff=fwd_sum / n_inputs,
        control_separated=control_separated,
    )


@dataclass(frozen=True)
class ComplexityEstimate:
    """Multiplication counts for one multi-head layer forward, by step.

    Only multiplications are counted; additions and the softmax divisions
    are excluded. The attention-score term covers all K head products and
    the recombination term the projection of the stacked heads; with one
    head and the recombination term dropped, the total is the single-head
    layer's cost.
    """

    head_count: int
    feature_projection: int
    temporal_projection: int
    bias_activation: int
    attention_scores: int
    attention_mixing: int
    head_recombination: int

    def terms(self) -> tuple[int, ...]:
        return astuple(self)[1:]  # every field after head_count

    @property
    def total(self) -> int:
        return sum(self.terms())

    @property
    def single_head_total(self) -> int:
        """Reference cost of the single-head layer at these dimensions."""
        per_head = self.attention_scores // self.head_count
        return (self.feature_projection + self.temporal_projection
                + self.bias_activation + per_head + self.attention_mixing)


def complexity_estimate(d: int, t: int, d_out: int, t_out: int, k: int) -> ComplexityEstimate:
    """Evaluate the six-term multiplication model at the given dimensions."""
    if min(d, t, d_out, t_out, k) < 1:
        raise ConfigurationError("all dimensions and the head count must be >= 1")
    return ComplexityEstimate(
        head_count=k,
        feature_projection=d_out * d * t,
        temporal_projection=d_out * t * t_out,
        bias_activation=2 * d_out * t_out,
        attention_scores=k * d_out * t * t,
        attention_mixing=3 * d_out * t,
        head_recombination=d_out * (d_out * k) * t,
    )


def tabl_complexity_total(d: int, t: int, d_out: int, t_out: int) -> int:
    """Single-head reference: one head, no recombination term."""
    return complexity_estimate(d, t, d_out, t_out, 1).single_head_total


def measure_multiplications(d: int, t: int, d_out: int, t_out: int, k: int,
                            seed: int = 0) -> dict[str, int]:
    """Run an instrumented multi-head forward and return counts by step."""
    rng = np.random.default_rng(seed)
    spec = LayerSpec(kind=KIND_MTABL, out_dims=(d_out, t_out),
                     activation="identity", heads=k)
    params = init_layer_params(spec, (d, t), rng)
    x = rng.normal(size=(d, t))
    with count_multiplications() as counter:
        layer_forward(x, params, "identity")
    counts = dict(counter.by_scope)
    counts["total"] = counter.total
    return counts
