"""Mini-batch training: gradient accumulation, Adam / SGD-momentum updates,
the [0, 1] projection of the attention mixing coefficient, and epoch
orchestration with seeded shuffling.

The loop is sequential over optimizer steps. A batch is one (D, T, B)
forward and backward pass whose GEMMs sum each gradient over the windows
in BLAS order (dW2 of a BL layer per feature row, then across the rows;
dL/dB by numpy's pairwise sum over the batch axis), so the mean gradient
matches the mean of one-window gradients to 1e-12 of its largest entry
(5.2e-16 measured at batch 256), not bit for bit; two runs with the same
seed, config and data stay bit-identical for a given BLAS thread count.
Parameters, gradients and optimizer moments are flat vectors of one
layout, so an update is a few vector operations applied in place. Model
selection keeps the parameters of the best validation macro-F1 epoch
(best training loss when there is no validation split).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import Dataset, Windows
from .errors import ConfigurationError, DivergenceError
from .losses import cross_entropy, inverse_frequency_weights, uniform_weights
from .metrics import EvalReport, evaluate
from .network import (
    NetworkParams,
    NetworkSpec,
    Workspace,
    attention_lambdas,
    gather,
    init_network_params,
    network_backward,
    network_forward,
    predict_labels,
)

ALGORITHMS = ("adam", "sgd-momentum")


def check_choices(config) -> None:
    """Raise ConfigurationError naming a field whose value is not in its ``choices``."""
    for f in fields(config):
        choices, value = f.metadata.get("choices"), getattr(config, f.name)
        if choices is not None and value not in choices:
            raise ConfigurationError(f"{f.name} must be one of {list(choices)}, got {value!r}")


@dataclass
class OptimConfig:
    algorithm: str = field(default="adam", metadata={"choices": ALGORITHMS})
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    momentum: float = 0.9
    batch_size: int = 256
    max_epochs: int = 200
    lr_decay: float = 0.1
    lr_patience: int = 10
    seed: int = 0
    class_weighting: str = field(default="inverse", metadata={"choices": ("inverse", "uniform")})

    def __post_init__(self):
        check_choices(self)
        if self.learning_rate < 0:
            raise ConfigurationError("learning_rate must be nonnegative")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigurationError("beta1 and beta2 must lie in [0, 1)")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigurationError("batch_size and max_epochs must be >= 1")


@dataclass
class TrainState:
    """Optimizer accumulators, vectors in the parameter layout."""

    step_count: int
    learning_rate: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    velocity: np.ndarray

    @classmethod
    def initial(cls, params: NetworkParams, cfg: OptimConfig) -> "TrainState":
        zeros = [np.zeros_like(params.flat) for _ in range(3)]
        return cls(0, cfg.learning_rate, *zeros)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    learning_rate: float
    lambdas: list[float]
    clamp_events: int
    val_report: EvalReport | None

    def to_dict(self) -> dict:
        d = {k: v for k, v in vars(self).items() if k != "val_report"}
        if self.val_report is not None:
            r = self.val_report
            d.update(val_accuracy=r.accuracy, val_precision=r.macro_precision,
                     val_recall=r.macro_recall, val_f1=r.macro_f1)
        return d


def _apply_constraints(params: NetworkParams) -> None:
    """Clamp lam onto [0, 1]; re-pin attention diagonals when frozen."""
    for layer, p in zip(params.spec.layers, params):
        if len(p.heads):
            lam = min(max(float(p.lam), 0.0), 1.0)
            if not 0.0 <= lam <= 1.0:
                raise DivergenceError(f"non-finite lam after the update ({lam})")
            p.lam[()] = lam
        if layer.fix_attention_diag:
            t = p.heads.shape[-1]
            p.heads[:, range(t), range(t)] = 1.0 / t


def step(params: NetworkParams, grads: NetworkParams, state: TrainState, cfg: OptimConfig):
    """One optimizer update of ``params`` in place; returns (params, state).

    Adam uses bias-corrected moment estimates; SGD uses classic momentum.
    The mixing coefficient is projected back onto [0, 1] after every update.
    """
    lr = state.learning_rate
    t = state.step_count + 1
    grad = grads.flat
    # In place, one operation at a time in the order of the formula in each
    # comment, so the bits are those of evaluating the formula as written.
    if cfg.algorithm == "adam":
        m, v = state.first_moment, state.second_moment
        # m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*(g*g)
        m *= cfg.beta1
        m_hat = np.multiply(1.0 - cfg.beta1, grad)
        m += m_hat
        v *= cfg.beta2
        v_hat = np.multiply(grad, grad)
        v_hat *= 1.0 - cfg.beta2
        v += v_hat
        # params -= lr * m_hat / (sqrt(v_hat) + eps), the bias-corrected
        # moments written over the two temporaries above
        np.divide(m, 1.0 - cfg.beta1 ** t, out=m_hat)
        np.divide(v, 1.0 - cfg.beta2 ** t, out=v_hat)
        m_hat *= lr
        np.sqrt(v_hat, out=v_hat)
        v_hat += cfg.epsilon
        m_hat /= v_hat
        params.flat -= m_hat
    else:
        # velocity = momentum*velocity + g;  params -= lr * velocity
        state.velocity *= cfg.momentum
        state.velocity += grad
        params.flat -= lr * state.velocity
    _apply_constraints(params)
    state.step_count = t
    return params, state


def _first_nonfinite_layer(spec: NetworkSpec, caches) -> str:
    for i, (layer, cache) in enumerate(zip(spec.layers, caches)):
        first = cache.xbar if cache.u is None else cache.u
        if not all(np.isfinite(v).all() for v in (first, cache.z, cache.y)):
            return f"layer {i} ({layer.kind})"
    return "loss"


def batch_gradients(spec: NetworkSpec, params: NetworkParams, batch: Windows,
                    class_weights, ws: Workspace | None = None):
    """Mean loss and mean gradients over one batch of windows, in one
    batched pass, whose batch, caches and scratch live in ``ws`` when one
    is given (and are overwritten by the next call with it).

    Returns (loss, grads, clamp_events) where grads is in the parameter
    layout and clamp_events counts samples whose true-class probability
    had to be floored before the log.
    """
    if not batch:
        raise ConfigurationError("batch must be nonempty")
    probs, caches = network_forward(gather(batch, ws), spec, params, ws)
    loss_sum, grad_scores, clamped = cross_entropy(probs, batch.labels, class_weights)
    if not math.isfinite(loss_sum):
        raise DivergenceError(
            f"non-finite loss, first bad values in {_first_nonfinite_layer(spec, caches)}"
        )
    grads = network_backward(spec, params, caches, grad_scores, ws)
    inv = 1.0 / len(batch)
    grads.flat *= inv
    return loss_sum * inv, grads, clamped


def _class_weights(cfg: OptimConfig, dataset: Dataset):
    if cfg.class_weighting == "uniform" or not dataset.train:
        return uniform_weights()
    return inverse_frequency_weights(dataset.train.labels)


def train(spec: NetworkSpec, dataset: Dataset, cfg: OptimConfig, *,
          initial_params: NetworkParams | None = None, log_sink=None, on_step=None):
    """Full training run; returns (best parameters, list of EpochRecord).

    Shuffled mini-batches per epoch, mean-gradient updates, validation
    after every epoch. The learning rate is multiplied by ``lr_decay``
    whenever the selection metric fails to improve for ``lr_patience``
    epochs. ``log_sink`` receives every EpochRecord as it is produced;
    ``on_step`` is called with (params, state) after every optimizer step;
    the parameters are updated in place, so copy them to keep a snapshot.
    Every step reuses one :class:`~mtabl.layers.Workspace`, so a step
    allocates no batch-sized arrays once the first has run.
    """
    if not dataset.train:
        raise ConfigurationError("training partition is empty")
    if dataset.sample_dims() != spec.input_dims:
        raise ConfigurationError(
            f"dataset samples are {dataset.sample_dims()}, network expects {spec.input_dims}"
        )
    rng = np.random.default_rng(cfg.seed)
    # Updates happen in place, so a caller's initial parameters are copied.
    params = (initial_params.copy() if initial_params is not None
              else init_network_params(spec, rng))
    state = TrainState.initial(params, cfg)
    weights = _class_weights(cfg, dataset)

    best_params = params.copy()
    best_metric = -math.inf
    stale = 0
    records: list[EpochRecord] = []
    n = len(dataset.train)
    ws = Workspace()

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        clamp_events = 0
        for start in range(0, n, cfg.batch_size):
            batch = dataset.train[order[start:start + cfg.batch_size]]
            try:
                loss, grads, clamped = batch_gradients(spec, params, batch, weights, ws)
                step(params, grads, state, cfg)
            except DivergenceError as err:
                raise DivergenceError(
                    f"epoch {epoch}, batch {start // cfg.batch_size}: {err}"
                ) from err
            if on_step is not None:
                on_step(params, state)
            loss_sum += loss * len(batch)
            clamp_events += clamped

        val_report = None
        if dataset.validation:
            preds = predict_labels(spec, params, dataset.validation)
            val_report = evaluate(preds, dataset.validation.labels)
            metric = val_report.macro_f1
        else:
            metric = -loss_sum / n

        record = EpochRecord(
            epoch=epoch, train_loss=loss_sum / n, learning_rate=state.learning_rate,
            lambdas=attention_lambdas(params), clamp_events=clamp_events,
            val_report=val_report,
        )
        records.append(record)
        if log_sink is not None:
            log_sink(record)

        if metric > best_metric:
            best_metric = metric
            best_params = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.lr_patience:
                state.learning_rate *= cfg.lr_decay
                stale = 0

    return best_params, records
