"""The repository benchmark: day files in, training and inference out.

Every workload is a closed loop with one caller in one process. It runs
rounds of the same phases until ``--seconds`` have passed; the workloads
differ in network and data size, and so in which modules do most of the
work:

  prepare    write the seeded day files, ``split_days``, ``init_network_params``
             (``setup_s``, with ``prep_s`` its split part), then
             ``save_dataset`` and ``load_dataset`` of the dataset
  train      ``train`` at batch 256 for a fixed number of epochs
  infer      ``predict_labels`` over the test day, then over consecutive
             256-window slices of it

Interleaving the phases makes every metric sample the whole run, which
matters on a shared machine whose speed drifts within a minute. After the
rounds come the checks: checkpoint round trip and attention masks.

The library is driven only through its public functions; it sees nothing
of the generator but the written files. With tracing on, each phase runs
once under a :class:`tracing.Tracer` and the per-module metrics come from
its spans.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from . import daygen, tracing

BATCH = 256
EPOCHS = 4
STEPS = ("feature_projection", "attention_scores", "attention_mixing",
         "head_recombination", "temporal_projection")
KINDS = ("bl", "tabl", "mtabl")
SWEEP_HEADS = range(1, 9)
# Input and output of topology C's attention layer, where the head sweep runs.
SWEEP_SHAPE = ((120, 5), (3, 1))
MASK_TOL = 1e-12
# Training steps between two interleaved predictions of a test-day slice.
SLICE_EVERY = 2
# A round repeats its prepare phase until it has run this share of
# --seconds, so that the small-data workload samples it several times.
PHASE_SHARE = 0.05
# The traced run trains on this many windows, twice: untraced and traced.
TRACE_TRAIN_WINDOWS = 10 * BATCH


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str
    attention: str
    heads: int
    train_events: tuple[int, ...]
    test_events: int
    # Caps on the windows the train and infer phases use; None keeps all.
    train_windows: int | None = None
    test_windows: int | None = None
    # Rounds run until --seconds have passed, and at least this many.
    min_rounds: int = 2


# 2 x 3209 events give 6400 training windows, 25 batches, so a round
# trains 100 steps; fewer leave the final loss too dependent on the seed.
# The test day gives 6400 windows, 25 slices; two rounds make 100 slices.
_TRAIN_DAYS = (3209, 3209)
_TEST_DAY = 6409

WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-a-tabl", "A", "tabl", 1, _TRAIN_DAYS, _TEST_DAY),
        Workload("train-c-mtabl5", "C", "mtabl", 5, _TRAIN_DAYS, _TEST_DAY),
        Workload("prep-days", "A", "tabl", 1, (50_000, 50_000), 50_000,
                 train_windows=6_400, test_windows=6_400, min_rounds=3),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "train_step_ms_p90": "ms",
    "train_loss_final": "nats",
    "infer_samples_per_s": "samples/s",
    "infer_batch_ms_p90": "ms",
    "prep_s": "s",
    "cache_save_s": "s",
    "cache_load_s": "s",
    "cache_bytes": "bytes",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units = {
        "linalg.matmul.calls_per_sample": "calls",
        "linalg.matmul.us_per_sample": "us",
        "linalg.softmax_rows.us_per_sample": "us",
    }
    for step in STEPS:
        units[f"linalg.scope.{step}.us_per_sample"] = "us"
        units[f"linalg.mults.{step}.per_sample"] = "mults"
        units[f"linalg.mults.{step}.model_ratio"] = "1"
    for direction in ("forward", "backward"):
        for kind in KINDS:
            units[f"layers.{direction}.{kind}.us_per_sample"] = "us"
    for k in SWEEP_HEADS:
        units[f"layers.mtabl.forward.k{k}.us"] = "us"
    units.update({
        "network.forward.self_us_per_sample": "us",
        "network.backward.self_us_per_sample": "us",
        "network.predict_labels.us_per_sample": "us",
        "losses.cross_entropy.us_per_sample": "us",
        "optim.batch_gradients.ms_per_step": "ms",
        "optim.step.ms_per_step": "ms",
        "optim.loop.self_ms_per_step": "ms",
        "optim.divergence.count": "count",
        "metrics.evaluate.ms": "ms",
        "data.load_day.s": "s",
        "data.windowize.s": "s",
        "data.normalize.s": "s",
        "data.windows.count": "count",
        "serialize.save_dataset.s": "s",
        "serialize.load_dataset.s": "s",
        "serialize.save_checkpoint.ms": "ms",
        "serialize.load_checkpoint.ms": "ms",
        "trace.overhead_pct": "%",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()

# Printed with the end-to-end metrics but left out of the result line and
# of BENCHMARK.json's bounds: on a machine whose speed alternates between
# two levels, a run's median step or slice time falls in one level or the
# other depending on how its time splits between them, and spread up to
# 0.25 of its value over ten runs, against 0.10 for the 90th percentile.
REPORTED_UNITS = {"train_step_ms_p50": "ms", "infer_batch_ms_p50": "ms"}


class Checks:
    """Attempted and failed operations: training steps and correctness checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def step(self, params) -> None:
        """A training step counts as failed if any parameter left its domain."""
        arrays, lams = _walk_params(params)
        ok = all(np.isfinite(a).all() for a in arrays)
        ok = ok and all(0.0 <= lam <= 1.0 for lam in lams)
        self.record("training step left a parameter non-finite or lam outside [0, 1]", ok)


def _walk_params(obj, arrays=None, lams=None):
    """Every parameter array, and every ``lam``, of a network's parameters."""
    if arrays is None:
        arrays, lams = [], []
    if isinstance(obj, np.ndarray):
        arrays.append(obj)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _walk_params(item, arrays, lams)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if f.name == "lam":
                lams.append(float(value))
            _walk_params(value, arrays, lams)
    return arrays, lams


def params_digest(params) -> str:
    arrays, lams = _walk_params(params)
    h = hashlib.sha256()
    for a in arrays:
        h.update(str(a.shape).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(np.array(lams, dtype=np.float64).tobytes())
    return h.hexdigest()


def dataset_digest(dataset) -> str:
    """Hash of every window, label and z-score statistic, in order."""
    h = hashlib.sha256()
    for name, part in dataset.partitions():
        h.update(f"{name}:{len(part)}".encode())
        for s in part:
            h.update(f"{s.x.shape}{s.x.dtype}{int(s.label)}".encode())
            h.update(s.x.tobytes())
    for stat in (dataset.feature_mean, dataset.feature_std):
        h.update(b"none" if stat is None else np.asarray(stat).tobytes())
    return h.hexdigest()


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ---------------------------------------------------------------- phases


@dataclass
class Samples:
    """Every timing a run takes, one entry per repetition."""

    setup_s: list[float] = field(default_factory=list)
    prep_s: list[float] = field(default_factory=list)
    save_s: list[float] = field(default_factory=list)
    load_s: list[float] = field(default_factory=list)
    train_s: list[float] = field(default_factory=list)
    train_samples: int = 0
    step_s: list[float] = field(default_factory=list)
    day_s: list[float] = field(default_factory=list)
    test_windows: int = 0
    slice_s: list[float] = field(default_factory=list)
    cache_bytes: int = 0
    windows: int = 0


def prepare(lib, wl: Workload, seed: int, workdir: Path, import_s: float,
            s: Samples, checks: Checks, verify: bool):
    """Day files to dataset, then through the dataset cache and back.

    Returns the windows the train and infer phases use, the network spec
    and its initial weights.
    """
    t0 = perf_counter()
    paths = daygen.write_days(workdir / "days", seed,
                              list(wl.train_events) + [wl.test_events])
    t1 = perf_counter()
    dataset = lib.split_days(paths, len(wl.train_events), 0, 1)
    t2 = perf_counter()
    spec = lib.topology(wl.topology, attention_kind=wl.attention, heads=wl.heads)
    params0 = lib.init_network_params(spec, seed)
    t3 = perf_counter()
    s.setup_s.append(import_s + t3 - t0)
    s.prep_s.append(t2 - t1)
    s.windows = sum(len(part) for _, part in dataset.partitions())

    digest = dataset_digest(dataset) if verify else None
    path = workdir / "dataset.mtabl"
    t0 = perf_counter()
    lib.save_dataset(path, dataset)
    s.save_s.append(perf_counter() - t0)
    s.cache_bytes = path.stat().st_size
    data = subset(dataset, wl.train_windows, wl.test_windows)
    dataset = None  # only the windows in use stay alive while the cache loads
    t0 = perf_counter()
    loaded = lib.load_dataset(path)
    s.load_s.append(perf_counter() - t0)
    if verify:
        checks.record("load_dataset differs from split_days",
                      dataset_digest(loaded) == digest)
    return data, spec, params0


def subset(dataset, train_windows: int | None, test_windows: int | None):
    if train_windows is None and test_windows is None:
        return dataset
    return dataclasses.replace(
        dataset, train=dataset.train[:train_windows], test=dataset.test[:test_windows],
    )


def train_once(lib, spec, params0, data, seed: int, s: Samples, checks: Checks,
               interleave: bool):
    """One fixed training run; returns (best weights, last-epoch loss,
    test-day predictions after the last step), or None if it diverged.

    With ``interleave`` the ``on_step`` callback also predicts the next
    256-window slice of the test day every SLICE_EVERY steps, and the whole
    test day after every second epoch, so that inference samples the
    machine's speed across the run instead of in one burst. A step's time
    runs from the end of the previous callback (or from the call) to the
    start of the next, so the callback's own work never counts as training.
    """
    cfg = lib.OptimConfig(batch_size=BATCH, max_epochs=EPOCHS, seed=seed)
    test = data.test
    starts = range(0, len(test) - BATCH + 1, BATCH)
    day_every = 2 * -(-len(data.train) // BATCH)
    steps = 0
    aside = 0.0
    predictions = None

    def on_step(params, state):
        nonlocal steps, aside, mark, predictions
        entered = perf_counter()
        s.step_s.append(entered - mark)
        steps += 1
        checks.step(params)
        if interleave and steps % SLICE_EVERY == 0:
            start = starts[(steps // SLICE_EVERY - 1) % len(starts)]
            t0 = perf_counter()
            lib.predict_labels(spec, params, test[start:start + BATCH])
            s.slice_s.append(perf_counter() - t0)
        if interleave and steps % day_every == 0:
            t0 = perf_counter()
            predictions = lib.predict_labels(spec, params, test)
            s.day_s.append(perf_counter() - t0)
            s.test_windows += len(test)
        mark = perf_counter()
        aside += mark - entered

    begin = mark = perf_counter()
    try:
        best, records = lib.train(spec, data, cfg, initial_params=params0, on_step=on_step)
    except lib.DivergenceError:
        checks.record("training diverged", False)
        return None
    s.train_s.append(perf_counter() - begin - aside)
    s.train_samples += EPOCHS * len(data.train)
    return best, records[-1].train_loss, predictions


def check_checkpoint(lib, spec, params, test, path: Path, checks: Checks) -> None:
    lib.save_checkpoint(path, spec, params)
    spec2, params2, _ = lib.load_checkpoint(path)
    checks.record("checkpoint changed the weights",
                  spec2 == spec and params_digest(params2) == params_digest(params))
    probe = test[:4 * BATCH]
    checks.record("checkpoint predictions differ",
                  lib.predict_labels(spec2, params2, probe)
                  == lib.predict_labels(spec, params, probe))


def check_masks(lib, spec, params, x, checks: Checks) -> None:
    """Every attention mask row of a probe window sums to 1."""
    seen = 0
    for layer, p in zip(spec.layers, params):
        x, cache = lib.layer_forward(x, p, layer.activation)
        for mask in cache.masks:
            seen += 1
            checks.record("attention mask row does not sum to 1",
                          float(np.abs(mask.sum(axis=1) - 1.0).max()) <= MASK_TOL)
    checks.record("network has no attention mask", seen > 0)


def check_lam(params, checks: Checks) -> None:
    _, lams = _walk_params(params)
    checks.record("final lam outside [0, 1]", bool(lams) and all(0 <= v <= 1 for v in lams))


# ---------------------------------------------------------------- machine


def _blas_threads():
    """Threads OpenBLAS will use, asked from the loaded library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_info() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------- runs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(lib, wl: Workload, seed: int, seconds: float, workdir: Path,
               import_s: float):
    """The untraced run; returns (metrics, checks, detail).

    The phases run in rounds (prepare, then train with inference
    interleaved) until ``seconds`` have passed, so every metric samples the
    whole run. Each round repeats the same work, and must repeat its
    results bit for bit.
    """
    checks = Checks()
    s = Samples()
    begin = perf_counter()
    reference = None
    rounds = 0
    while True:
        data = None
        phase_end = perf_counter() + PHASE_SHARE * seconds
        while data is None or perf_counter() < phase_end:
            data = None
            data, spec, params0 = prepare(lib, wl, seed, workdir, import_s, s, checks,
                                          verify=not s.prep_s)
        trained = train_once(lib, spec, params0, data, seed, s, checks, interleave=True)
        if trained is None:
            return None, checks, {}
        params, loss, predictions = trained
        fingerprint = (loss, params_digest(params), predictions)
        if reference is None:
            reference = fingerprint
        else:
            checks.record("a repeated round is not bit-identical", fingerprint == reference)
        rounds += 1
        elapsed = perf_counter() - begin
        # Stop unless another round would end less than half a round past the deadline.
        if rounds >= wl.min_rounds and elapsed + 0.5 * elapsed / rounds >= seconds:
            break

    check_lam(params, checks)
    report = lib.evaluate(predictions, data.labels("test"))
    check_checkpoint(lib, spec, params, data.test, workdir / "model.mtabl", checks)
    check_masks(lib, spec, params, data.test[0].x, checks)

    metrics = {
        "setup_s": _median(s.setup_s),
        "train_samples_per_s": s.train_samples / sum(s.train_s),
        "train_step_ms_p50": 1e3 * _median(s.step_s),
        "train_step_ms_p90": 1e3 * _percentile(s.step_s, 90),
        "train_loss_final": loss,
        "infer_samples_per_s": s.test_windows / sum(s.day_s),
        "infer_batch_ms_p50": 1e3 * _median(s.slice_s),
        "infer_batch_ms_p90": 1e3 * _percentile(s.slice_s, 90),
        "prep_s": _median(s.prep_s),
        "cache_save_s": _median(s.save_s),
        "cache_load_s": _median(s.load_s),
        "cache_bytes": float(s.cache_bytes),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "rounds": rounds,
        "train_steps": len(s.step_s),
        "train_samples": s.train_samples,
        "infer_slices": len(s.slice_s),
        "test_windows": len(data.test),
        "test_macro_f1": report.macro_f1,
        "test_accuracy": report.accuracy,
        "samples": dataclasses.asdict(s),
    }
    return metrics, checks, detail


def _targets(tracer: tracing.Tracer, kinds: list[str]):
    """What to patch for one tracer: (module, attr, make_wrapper, span names)."""

    def named(module, attr, span):
        return (module, attr, lambda fn: tracer.wrap(fn, span), [span])

    return [
        named("mtabl.layers", "matmul", "linalg.matmul"),
        named("mtabl.layers", "softmax_rows", "linalg.softmax_rows"),
        ("mtabl.layers", "scope", tracing.scope_wrapper(tracer),
         [f"linalg.scope.{step}" for step in STEPS]),
        ("mtabl.network", "layer_forward",
         tracing.positional_wrapper(tracer, "layers.forward", kinds),
         [f"layers.forward.{kind}" for kind in KINDS]),
        ("mtabl.network", "layer_backward",
         tracing.positional_wrapper(tracer, "layers.backward", kinds[::-1]),
         [f"layers.backward.{kind}" for kind in KINDS]),
        named("mtabl.network", "network_forward", "network.forward"),
        named("mtabl.optim", "network_forward", "network.forward"),
        named("mtabl.optim", "network_backward", "network.backward"),
        named("mtabl.optim", "cross_entropy", "losses.cross_entropy"),
        named("mtabl.optim", "batch_gradients", "optim.batch_gradients"),
        named("mtabl.optim", "step", "optim.step"),
        named("mtabl.data", "load_day", "data.load_day"),
        named("mtabl.data", "windowize", "data.windowize"),
        named("mtabl.data", "normalize", "data.normalize"),
        named("mtabl", "split_days", "data.split_days"),
        named("mtabl", "train", "optim.train"),
        named("mtabl", "predict_labels", "network.predict_labels"),
        named("mtabl", "evaluate", "metrics.evaluate"),
        named("mtabl", "save_dataset", "serialize.save_dataset"),
        named("mtabl", "load_dataset", "serialize.load_dataset"),
        named("mtabl", "save_checkpoint", "serialize.save_checkpoint"),
        named("mtabl", "load_checkpoint", "serialize.load_checkpoint"),
    ]


def count_mults(lib, spec, params, x) -> tuple[dict, dict]:
    """Forward multiplications per step, counted and as the cost model predicts."""
    with lib.count_multiplications() as counter:
        lib.network_forward(x, spec, params)
    measured = {step: counter.by_scope.get(step, 0) for step in STEPS}
    model = dict.fromkeys(STEPS, 0)
    shapes = spec.shapes()
    for layer, (d, t), (d_out, t_out) in zip(spec.layers, shapes, shapes[1:]):
        est = lib.complexity_estimate(d, t, d_out, t_out, layer.heads)
        terms = ["feature_projection", "temporal_projection"]
        if layer.kind != "bl":
            terms += ["attention_scores", "attention_mixing"]
        if layer.kind == "mtabl":
            terms.append("head_recombination")
        for term in terms:
            model[term] += getattr(est, term)
    return measured, model


def head_sweep(lib, seed: int, calls: int = 300, blocks: int = 5) -> dict:
    """Forward time of one multi-head layer at topology C's attention shape, K=1..8."""
    (d, t), (d_out, t_out) = SWEEP_SHAPE
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(d, t))
    out = {}
    for k in SWEEP_HEADS:
        layer = lib.LayerSpec(kind="mtabl", out_dims=(d_out, t_out),
                              activation="softmax", heads=k)
        spec = lib.NetworkSpec(input_dims=(d, t), layers=(layer,))
        (p,) = lib.init_network_params(spec, seed)
        per_call = []
        for _ in range(blocks):
            t0 = perf_counter()
            for _ in range(calls // blocks):
                lib.layer_forward(x, p, "softmax")
            per_call.append((perf_counter() - t0) / (calls // blocks))
        with lib.count_multiplications() as counter:
            lib.layer_forward(x, p, "softmax")
        out[k] = {
            "us": 1e6 * _median(per_call),
            "mults": counter.total,
            "model_mults": lib.complexity_estimate(d, t, d_out, t_out, k).total,
        }
    return out


def traced(lib, wl: Workload, seed: int, workdir: Path, import_s: float):
    """The traced run: each phase once under its own tracer; returns
    (metrics, checks, detail, tracers, absent)."""
    checks = Checks()
    kinds = [layer.kind for layer in lib.topology(
        wl.topology, attention_kind=wl.attention, heads=wl.heads).layers]
    tracers = {name: tracing.Tracer() for name in ("prep", "train", "infer", "checkpoint")}
    absent: set[str] = set()
    dropped: set[str] = set()

    @contextmanager
    def under(name):
        targets = _targets(tracers[name], kinds)
        spans = {f"{module}.{attr}": names for module, attr, _, names in targets}
        with tracing.patched([t[:3] for t in targets]) as missing:
            yield
        absent.update(missing)
        dropped.update(span for target in missing for span in spans[target])

    s = Samples()
    with under("prep"):
        data, spec, params0 = prepare(lib, wl, seed, workdir, import_s, s, checks,
                                      verify=True)

    short = dataclasses.replace(data, train=data.train[:TRACE_TRAIN_WINDOWS])
    plain = Samples()
    untraced = train_once(lib, spec, params0, short, seed, plain, checks, interleave=False)
    with under("train"):
        trained = train_once(lib, spec, params0, short, seed, s, checks, interleave=False)
    if untraced is None or trained is None:
        return None, checks, {}, tracers, sorted(absent)
    params = trained[0]
    checks.record("traced training differs from untraced",
                  params_digest(untraced[0]) == params_digest(params))
    check_lam(params, checks)

    with under("infer"):
        predictions = lib.predict_labels(spec, params, data.test)
        lib.evaluate(predictions, data.labels("test"))
    with under("checkpoint"):
        check_checkpoint(lib, spec, params, data.test, workdir / "model.mtabl", checks)
    check_masks(lib, spec, params, data.test[0].x, checks)
    measured, model = count_mults(lib, spec, params, data.test[0].x)
    sweep = head_sweep(lib, seed)

    stats = {name: tracing.summarize(t) for name, t in tracers.items()}
    metrics = {}

    def put(name, span, phase, value_of):
        if span in dropped:
            return
        metrics[name] = value_of(stats[phase].get(span, tracing.SpanStats(0, 0.0, 0.0)))

    n_train, steps = s.train_samples, len(s.step_s)
    n_infer = len(data.test)
    for span in ("linalg.matmul", "linalg.softmax_rows"):
        put(f"{span}.us_per_sample", span, "train", lambda sp: 1e6 * sp.total_s / n_train)
    put("linalg.matmul.calls_per_sample", "linalg.matmul", "train",
        lambda sp: sp.calls / n_train)
    for step in STEPS:
        put(f"linalg.scope.{step}.us_per_sample", f"linalg.scope.{step}", "train",
            lambda sp: 1e6 * sp.total_s / n_train)
        metrics[f"linalg.mults.{step}.per_sample"] = float(measured[step])
        # A step the model gives no cost and the counter sees none of matches it.
        metrics[f"linalg.mults.{step}.model_ratio"] = (
            measured[step] / model[step] if model[step] else float(measured[step] == 0))
    for direction in ("forward", "backward"):
        for kind in KINDS:
            span = f"layers.{direction}.{kind}"
            put(f"{span}.us_per_sample", span, "train", lambda sp: 1e6 * sp.total_s / n_train)
    for k, row in sweep.items():
        metrics[f"layers.mtabl.forward.k{k}.us"] = row["us"]
    put("network.forward.self_us_per_sample", "network.forward", "train",
        lambda sp: 1e6 * sp.self_s / n_train)
    put("network.backward.self_us_per_sample", "network.backward", "train",
        lambda sp: 1e6 * sp.self_s / n_train)
    put("network.predict_labels.us_per_sample", "network.predict_labels", "infer",
        lambda sp: 1e6 * sp.total_s / n_infer)
    put("losses.cross_entropy.us_per_sample", "losses.cross_entropy", "train",
        lambda sp: 1e6 * sp.total_s / n_train)
    put("optim.batch_gradients.ms_per_step", "optim.batch_gradients", "train",
        lambda sp: 1e3 * sp.total_s / steps)
    put("optim.step.ms_per_step", "optim.step", "train", lambda sp: 1e3 * sp.total_s / steps)
    put("optim.loop.self_ms_per_step", "optim.train", "train",
        lambda sp: 1e3 * sp.self_s / steps)
    metrics["optim.divergence.count"] = float(
        sum(f == "training diverged" for f in checks.failures))
    put("metrics.evaluate.ms", "metrics.evaluate", "infer", lambda sp: 1e3 * sp.total_s)
    for span in ("data.load_day", "data.windowize", "data.normalize"):
        put(f"{span}.s", span, "prep", lambda sp: sp.total_s)
    metrics["data.windows.count"] = float(s.windows)
    put("serialize.save_dataset.s", "serialize.save_dataset", "prep", lambda sp: sp.total_s)
    put("serialize.load_dataset.s", "serialize.load_dataset", "prep", lambda sp: sp.total_s)
    put("serialize.save_checkpoint.ms", "serialize.save_checkpoint", "checkpoint",
        lambda sp: 1e3 * sp.total_s)
    put("serialize.load_checkpoint.ms", "serialize.load_checkpoint", "checkpoint",
        lambda sp: 1e3 * sp.total_s)
    metrics["trace.overhead_pct"] = 100.0 * (s.train_s[0] / plain.train_s[0] - 1.0)

    detail = {
        "train_samples": n_train,
        "train_steps": steps,
        "untraced_train_s": plain.train_s[0],
        "traced_train_s": s.train_s[0],
        "mults_measured": measured,
        "mults_model": model,
        "head_sweep": sweep,
        "spans": {phase: {name: dataclasses.asdict(sp) for name, sp in st.items()}
                  for phase, st in stats.items()},
    }
    return metrics, checks, detail, tracers, sorted(absent)


def run(lib, workload: str, seed: int, seconds: float, trace: bool, *,
        workdir: Path, results_dir: Path | None, import_s: float = 0.0,
        overrides: dict | None = None) -> dict:
    """One benchmark run; returns its record, whose ``result`` is the result line."""
    wl = WORKLOADS[workload]
    if overrides:
        wl = dataclasses.replace(wl, **overrides)
    workdir.mkdir(parents=True, exist_ok=True)
    tracers, absent = {}, []
    if trace:
        metrics, checks, detail, tracers, absent = traced(
            lib, wl, seed, workdir, import_s)
    else:
        metrics, checks, detail = end_to_end(lib, wl, seed, seconds, workdir, import_s)
    attempted = max(checks.attempted, 1)
    failed_ratio = checks.failed / attempted
    correct = metrics is not None and checks.failed == 0
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = metrics or {}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items() if name in units},
    }
    reported = {name: {"value": metrics[name], "unit": unit}
                for name, unit in REPORTED_UNITS.items() if name in metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_info(), "failed_ratio": failed_ratio,
        "failures": checks.failures, "absent": absent, "result": result,
        "reported": reported,
        "detail": detail, "workload_config": dataclasses.asdict(wl),
    }
    if results_dir is not None:
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-seed{seed}-trace{int(trace)}"
        (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if tracers:
            arrays = {}
            for phase, t in tracers.items():
                for key, value in t.arrays().items():
                    arrays[f"{phase}/{key}"] = value
                arrays[f"{phase}/names"] = np.array(t.names, dtype=str)
            np.savez_compressed(results_dir / f"{stem}-spans.npz", **arrays)
    return record


def print_report(out, record: dict) -> None:
    """Human-readable lines; the result JSON goes on the last line separately."""
    m = record["machine"]
    print(f"# workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={int(record['trace'])}", file=out)
    print(f"# machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas']!r} blas_threads={m['blas_threads']}",
          file=out)
    metrics = {**record["result"]["metrics"], **record["reported"]}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}", file=out)
    print(f"failed_ratio = {record['failed_ratio']:.6g} 1", file=out)
    for target in record["absent"]:
        print(f"# absent: {target}", file=out)
    for failure in record["failures"]:
        print(f"# FAILED: {failure}", file=out)
