"""Independent verification oracles.

Two families of check, each deliberately decoupled from the code it
verifies:

* a central finite-difference gradient checker that perturbs every entry
  of a layer's or network's flat parameter vector and compares the
  numeric slope against the analytic backward pass;
* a multiplication estimator for the layer cost model, paired with the
  instrumented counter in :mod:`mtabl.linalg` so the predicted and the
  actually executed head-dependent work can be compared exactly.

The multi-head to single-head reduction checks live with the tests, in
``tests/oracles.py``.
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


def relative_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), REL_ERR_FLOOR)


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
        """At least one coordinate was tested and none missed the threshold."""
        return bool(self.blocks) and self.max_rel_err <= self.threshold

    def worst_block(self) -> BlockCheck | None:
        return max(self.blocks.values(), key=lambda b: b.max_rel_err, default=None)

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
    coefficient of a length-one series. Of coordinates with equal error, a
    block reports the one whose analytic and numeric values differ most.
    """
    if not (0.0 < step < math.inf and 0.0 <= threshold < math.inf):
        raise ConfigurationError(f"step must be finite and > 0 and threshold finite and >= 0, "
                                 f"got {step} and {threshold}")
    report = GradCheckReport(step=step, threshold=threshold)
    eps = np.finfo(np.float64).eps
    flat, grad = params.flat, analytic.flat
    offset = 0
    for name, block in params.named_blocks():
        worst, worst_key = None, (-1.0, 0.0)
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
            gap = abs(a - numeric)
            err = (0.0 if gap <= resolution else
                   relative_error(a, numeric) if math.isfinite(a) else math.inf)
            if (err, gap) > worst_key:
                worst_key, worst = (err, gap), BlockCheck(name, err, coord, a, numeric)
        if worst is not None:
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
    grad_scores = cross_entropy(probs, sample.label)[1]
    grads = network_backward(spec, params, caches, grad_scores)

    def loss_fn(p):
        out, _ = network_forward(sample.x, spec, p)
        return cross_entropy(out, sample.label)[0]

    return compare_to_finite_differences(loss_fn, params, grads,
                                         step=step, threshold=threshold)


def _clear_of_kinks(draw, caches_of, step: float) -> np.ndarray:
    """The first of up to 64 inputs from ``draw`` whose relu pre-activations
    (in the caches ``caches_of`` gives for it) clear the kink by 10 steps, else the 64th."""
    for _ in range(64):
        x = draw()
        if all(cache.activation != "relu" or np.abs(cache.z).min() >= 10.0 * step
               for cache in caches_of(x)):
            break
    return x


def random_layer_case(kind: str, rng: np.random.Generator, *, heads: int = 1):
    """Draw a random layer configuration, dimensions 1 to 6, for gradient checking.

    Weights are fan-scaled so the attention scores land in the softmax's
    responsive range; a saturated mask has pathological curvature and
    central differences stop being informative there long before the
    analytic gradient is at fault. The mixing coefficient is kept inside
    (0, 1) so finite differences stay feasible, and relu inputs are
    re-drawn until every pre-activation is at least 10 steps away from
    the kink.
    """
    d, t = rng.integers(1, 7), rng.integers(1, 7)
    d_out, t_out = rng.integers(1, 7), rng.integers(1, 7)
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
    x = _clear_of_kinks(lambda: rng.normal(0.0, 1.0, (d, t)),
                        lambda x: [layer_forward(x, params, activation)[1]], DEFAULT_STEP)
    return params, str(activation), x


def draw_gradcheck_sample(spec: NetworkSpec, params: list, rng: np.random.Generator,
                          *, step: float = DEFAULT_STEP):
    """Random labeled input for a network check, re-drawn until every relu
    pre-activation is at least 10 steps clear of its kink."""
    from .data import N_CLASSES, SeriesSample

    x = _clear_of_kinks(lambda: rng.normal(size=spec.input_dims),
                        lambda x: network_forward(x, spec, params)[1], step)
    return SeriesSample(x=x, label=int(rng.integers(N_CLASSES)))


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


def measure_multiplications(d: int, t: int, d_out: int, t_out: int, k: int) -> dict[str, int]:
    """Run an instrumented multi-head forward and return counts by step."""
    rng = np.random.default_rng(0)  # the counts depend on the shapes alone
    spec = LayerSpec(kind=KIND_MTABL, out_dims=(d_out, t_out),
                     activation="identity", heads=k)
    params = init_layer_params(spec, (d, t), rng)
    x = rng.normal(size=(d, t))
    with count_multiplications() as counter:
        layer_forward(x, params, "identity")
    counts = dict(counter.by_scope)
    counts["total"] = counter.total
    return counts
