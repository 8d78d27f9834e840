"""Command-line entry point.

Subcommands: train, eval, gradcheck, complexity. train and gradcheck run a
:class:`RunConfig`: its defaults, overridden by a JSON file (``--config``,
which may hold a whole run), overridden by flags for the keys the command
reads. A run's data come from day files (``data``) or the generator
(``synth``), never both. train writes the effective configuration next to
its outputs; fed back in, it reproduces the run.

Exit codes: 0 success, 2 usage/configuration error, 3 data error,
4 numeric failure (divergence or a failed gradient check).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import data as data_mod
from .errors import (
    ConfigurationError,
    ConstraintError,
    DataError,
    DimensionError,
    DivergenceError,
    FormatError,
)
from .metrics import EvalReport, evaluate
from .network import (
    KIND_MTABL,
    KIND_TABL,
    NetworkSpec,
    init_network_params,
    predict_labels,
    topology,
)
from .optim import OptimConfig, check_choices, train
from .serialize import load_checkpoint, save_checkpoint
from .verify import (
    complexity_estimate,
    draw_gradcheck_sample,
    gradcheck,
    measure_multiplications,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, the keys of ``--config`` files and ``config.json``. Every
    field but ``seeds`` and ``optim``, and every OptimConfig field but ``seed`` and
    ``learning_rate`` (``--lr``), has a flag ``--field-name`` shaped by its metadata."""

    topology: str = field(default="A", metadata={"choices": ("A", "B", "C")})
    layer: str = field(default=KIND_TABL, metadata={"choices": (KIND_TABL, KIND_MTABL)})
    heads: int = field(default=1, metadata={"help": "attention heads for mtabl layers"})
    horizon: int = field(default=10, metadata={"choices": data_mod.HORIZONS})
    window: int = field(default=10, metadata={"help": "input window length T"})
    data: str | None = field(default=None, metadata={"help": "directory of day files"})
    synth: bool = field(default=False, metadata={"help": "train on synthetic data, not day files"})
    synth_samples: int = 240
    synth_features: int = 8
    synth_difficulty: str = field(default="single", metadata={"choices": ("single", "multi")})
    synth_seed: int = 0
    seeds: list[int] = field(default_factory=lambda: [0])
    train_days: int = 6
    val_days: int = 1
    test_days: int = 3
    transposed: bool = field(default=False, metadata={"help": "day files store events on rows"})
    fix_attention_diag: bool = False
    out: str = field(default="runs/latest", metadata={"help": "output directory"})
    optim: OptimConfig = field(default_factory=OptimConfig)

    def __post_init__(self):
        check_choices(self)
        if not 1 <= self.heads <= 8:
            raise ConfigurationError(f"heads must lie in [1, 8], got {self.heads}")
        if self.window < 1:
            raise ConfigurationError("window must be positive")
        if not self.seeds or min(self.seeds) < 0 or self.synth_seed < 0:
            raise ConfigurationError(f"seeds must be one or more ints >= 0 and synth_seed an "
                                     f"int >= 0, got {self.seeds} and {self.synth_seed}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError(f"seeds must not repeat, got {self.seeds}")
        if self.optim.seed != 0:
            raise ConfigurationError("optim.seed must be 0: each run takes its seed from seeds")
        if self.synth and self.data is not None:
            raise ConfigurationError("data and synth exclude each other: pick one data source")


def _add_run_flags(p: argparse.ArgumentParser, keys) -> None:
    """--config, --seed and a flag for each RunConfig or OptimConfig field in ``keys``."""
    p.add_argument("--config", help="JSON config file; flags override its values")
    if "seeds" in keys:
        p.add_argument("--seeds", type=int, help="number of independent seeded runs")
    p.add_argument("--seed", type=int, help="base seed for the first run")
    if "learning_rate" in keys:
        p.add_argument("--lr", type=float, dest="learning_rate")
    for cls in (RunConfig, OptimConfig):
        kinds = get_type_hints(cls)
        for f in fields(cls):
            if f.name not in keys or f.name in ("seeds", "optim", "seed", "learning_rate"):
                continue
            flag, kind = "--" + f.name.replace("_", "-"), kinds[f.name]
            if kind is bool:
                p.add_argument(flag, action="store_true", default=None, **f.metadata)
            else:
                p.add_argument(flag, type=kind if kind in (int, float) else None, **f.metadata)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtabl",
        description="Train and inspect temporal-attention bilinear networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one network per seed and aggregate")
    _add_run_flags(p_train, [f.name for cls in (RunConfig, OptimConfig) for f in fields(cls)])

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    source = p_eval.add_mutually_exclusive_group()
    source.add_argument("--dataset-cache", help="dataset container written by train "
                        "(default: the one the checkpoint records)")
    source.add_argument("--data", help="directory of day files")
    p_eval.add_argument("--split", choices=["train", "validation", "test"],
                        default="test")
    p_eval.add_argument("--out", help="where to write the report files")

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    _add_run_flags(p_grad, ["topology", "layer", "heads", "window", "synth_features",
                            "fix_attention_diag"])
    p_grad.add_argument("--step", type=float, default=1e-5)
    p_grad.add_argument("--threshold", type=float, default=1e-4)

    p_cx = sub.add_parser("complexity", help="multiplication cost model")
    p_cx.add_argument("--dims", type=int, nargs=4, metavar=("D", "T", "DOUT", "TOUT"),
                      default=[40, 10, 3, 1])
    p_cx.add_argument("--heads-range", type=int, nargs=2, metavar=("LO", "HI"),
                      default=[1, 5], dest="heads_range")
    p_cx.add_argument("--measure", action="store_true",
                      help="also run the instrumented forward and compare")
    p_cx.add_argument("--out", help="optional JSON output path")
    return parser


def _check_value(value, kind, key: str) -> None:
    """Raise ConfigurationError naming ``key`` unless the JSON ``value`` has
    the type ``kind``: a bool is no int, an int is a float, ``X | None``
    admits null and a dataclass is an object of its fields."""
    if is_dataclass(kind) and type(value) is dict:
        kinds = get_type_hints(kind)
        for k, v in value.items():
            name = f"{key}.{k}" if key else k
            if k not in kinds:
                raise ConfigurationError(f"unknown config key {name!r}")
            _check_value(v, kinds[k], name)
        return
    args = get_args(kind)
    ok = (type(value) is list and all(type(v) is args[0] for v in value)
          if get_origin(kind) is list
          else type(value) in (args or (kind,)) or (kind is float and type(value) is int))
    if not ok:
        kind_name = str(kind) if args else kind.__name__
        raise ConfigurationError(f"config key {key!r} must be {kind_name}, got {value!r}")


def run_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < explicit flags; returns the effective config."""
    values = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_bytes())
        except OSError as err:
            raise DataError(f"cannot read config file {args.config} ({err.strerror})") from None
        except ValueError as err:  # bad UTF-8 and bad JSON are ValueErrors
            raise ConfigurationError(f"config file {args.config} is not JSON ({err})") from None
        if not isinstance(values, dict):
            raise ConfigurationError(f"config file {args.config} must hold a JSON object")
        _check_value(values, RunConfig, "")
    flags = {k: v for k, v in vars(args).items() if v is not None}
    seed, count = flags.pop("seed", None), flags.pop("seeds", None)
    optim_flags = {f.name: flags[f.name] for f in fields(OptimConfig) if f.name in flags}
    optim = OptimConfig(**{**values.pop("optim", {}), **optim_flags})
    run_flags = {f.name: flags[f.name] for f in fields(RunConfig) if f.name in flags}
    cfg = RunConfig(**{**values, **run_flags, "optim": optim})
    if seed is None and count is None:
        return cfg
    base = cfg.seeds[0] if seed is None else seed
    count = len(cfg.seeds) if count is None else count
    return replace(cfg, seeds=list(range(base, base + count)))


def _network(cfg: RunConfig) -> NetworkSpec:
    """The run's network; only day files give N_FEATURES feature rows."""
    features = cfg.synth_features if cfg.data is None else data_mod.N_FEATURES
    return topology(cfg.topology, input_dims=(features, cfg.window), attention_kind=cfg.layer,
                    heads=cfg.heads, fix_attention_diag=cfg.fix_attention_diag)


def _day_files(directory) -> list[str]:
    day_dir = Path(directory)
    if not day_dir.is_dir():
        raise DataError(f"data directory not found: {day_dir}")
    return sorted(str(p) for p in day_dir.iterdir() if p.is_file())


def _build_dataset(cfg: RunConfig) -> data_mod.Dataset:
    if cfg.synth:
        return data_mod.synth_generate(
            cfg.synth_samples, n_features=cfg.synth_features,
            window=cfg.window, seed=cfg.synth_seed, difficulty=cfg.synth_difficulty,
        )
    if cfg.data is None:
        raise ConfigurationError("either --data DIR or --synth is required")
    return data_mod.split_days(
        _day_files(cfg.data), cfg.train_days, cfg.val_days, cfg.test_days,
        window=cfg.window, horizon=cfg.horizon, transposed=cfg.transposed,
    )


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_report(report: EvalReport, stem: Path) -> None:
    stem.with_suffix(".txt").write_text(report.to_text() + "\n")
    stem.with_suffix(".json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def cmd_train(args) -> int:
    # Everything that can reject the run does so before --out is touched.
    cfg = run_config(args)
    seed_cfgs = [replace(cfg.optim, seed=seed) for seed in cfg.seeds]
    spec = _network(cfg)
    dataset = _build_dataset(cfg)
    if not dataset.train:
        raise ConfigurationError("training partition is empty")
    out_dir = Path(cfg.out)
    config = (json.dumps(asdict(cfg), indent=2) + "\n").encode()
    # The same run may write over its outputs; another would orphan their checkpoints.
    if (out_dir / "config.json").is_file() and (out_dir / "config.json").read_bytes() != config:
        raise ConfigurationError(f"{out_dir} holds another run's config.json: pick another --out")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_bytes(config)
    data_mod.save_dataset(out_dir / "dataset.mtabl", dataset)
    cache_sha256 = _sha256(out_dir / "dataset.mtabl")  # eval checks it
    # Everything eval --data needs to rebuild the inputs the model saw;
    # JSON float repr round-trips the statistics exactly.
    preprocessing = {
        "window": cfg.window, "horizon": cfg.horizon, "transposed": cfg.transposed,
        "feature_mean": None if dataset.feature_mean is None else dataset.feature_mean.tolist(),
        "feature_std": None if dataset.feature_std is None else dataset.feature_std.tolist(),
    }

    split_name = next(name for name, part in dataset.partitions()[::-1] if part)
    eval_split = getattr(dataset, split_name)
    test_reports = []
    for seed, optim_cfg in zip(cfg.seeds, seed_cfgs):
        run_dir = out_dir / f"seed{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        log_path = run_dir / "training_log.jsonl"
        with open(log_path, "w") as log_file:
            def sink(record):
                log_file.write(json.dumps(record.to_dict()) + "\n")
                log_file.flush()

            params, _ = train(spec, dataset, optim_cfg, log_sink=sink)
        report = evaluate(predict_labels(spec, params, eval_split), eval_split.labels)
        test_reports.append(report)
        save_checkpoint(
            run_dir / "checkpoint.mtabl", spec, params,
            meta={"seed": seed, "eval_split": split_name,
                  "dataset_cache": "../dataset.mtabl",  # from run_dir
                  "dataset_sha256": cache_sha256, **preprocessing},
        )
        _write_report(report, run_dir / "report")
        print(f"seed {seed}: {split_name} macro_f1={report.macro_f1:.4f} "
              f"accuracy={report.accuracy:.4f}")

    aggregate = {}
    for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1"):
        values = np.array([getattr(r, key) for r in test_reports])
        std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        aggregate[key] = {"mean": float(values.mean()), "std": std}
    (out_dir / "aggregate.json").write_text(json.dumps(aggregate, indent=2) + "\n")
    lines = [f"{k}: {v['mean']:.4f} +- {v['std']:.4f}" for k, v in aggregate.items()]
    (out_dir / "aggregate.txt").write_text("\n".join(lines) + "\n")
    print("aggregate over seeds " + ", ".join(str(s) for s in cfg.seeds) + ":")
    for line in lines:
        print("  " + line)
    return EXIT_OK


def _check_preprocessing(path, meta: dict) -> None:
    """Check the preprocessing a checkpoint's meta records; a key that is
    missing or holds what no training run writes raises FormatError naming it."""

    def statistics(floor):
        return lambda v: v is None or (type(v) is list and len(v) == data_mod.N_FEATURES and all(
            type(x) in (int, float) and math.isfinite(x) and x >= floor for x in v))

    checks = {
        "window": (lambda v: type(v) is int and v >= 1, "an int >= 1"),
        "horizon": (lambda v: type(v) is int and v in data_mod.HORIZONS,
                    f"one of {data_mod.HORIZONS}"),
        "transposed": (lambda v: type(v) is bool, "true or false"),
        "feature_mean": (statistics(-math.inf), f"null or {data_mod.N_FEATURES} finite numbers"),
        "feature_std": (statistics(0.0), f"null or {data_mod.N_FEATURES} finite numbers >= 0"),
    }
    for key, (ok, expected) in checks.items():
        if key not in meta or not ok(meta[key]):
            found = repr(meta[key]) if key in meta else "missing"
            raise FormatError(f"{path}: preprocessing key {key!r} is {found}, expected {expected}")
    if (meta["feature_mean"] is None) != (meta["feature_std"] is None):
        raise FormatError(f"{path}: preprocessing keys 'feature_mean' and 'feature_std' "
                          "must both be null or both be set")


def cmd_eval(args) -> int:
    spec, params, meta = load_checkpoint(args.checkpoint)
    if args.data:
        files = _day_files(args.data)
        _check_preprocessing(args.checkpoint, meta)
        # No training days, so the series stay raw for the recorded statistics.
        dataset = data_mod.split_days(files, 0, 0, len(files), window=meta["window"],
                                      horizon=meta["horizon"], transposed=meta["transposed"])
        if meta["feature_mean"] is not None:
            dataset = data_mod.standardize(dataset, np.array(meta["feature_mean"]),
                                           np.array(meta["feature_std"]))
    else:
        cache = args.dataset_cache
        if cache is None:
            cache = meta.get("dataset_cache")
            if cache is None:
                raise DataError("no dataset: pass --dataset-cache or --data")
            if not isinstance(cache, str):
                raise FormatError(f"{args.checkpoint}: dataset_cache is {cache!r}, not a path")
            cache = Path(args.checkpoint).parent / cache  # recorded relative to the checkpoint
        if not Path(cache).is_file():
            raise DataError(f"no dataset cache at {cache}")
        dataset = data_mod.load_dataset(cache)
        recorded = meta.get("dataset_sha256")
        if recorded is not None and recorded != _sha256(cache):
            raise DataError(f"{args.checkpoint} was trained on a cache of sha256 {recorded}, "
                            f"but {cache} has sha256 {_sha256(cache)}")
    windows = getattr(dataset, args.split)
    if not windows:
        raise DataError(f"dataset has no {args.split} samples")
    report = evaluate(predict_labels(spec, params, windows), windows.labels)
    print(report.to_text())
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_report(report, out_dir / f"report_{args.split}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    # Runs on random data: a run's data source only sets the feature count.
    cfg = run_config(args)
    rng = np.random.default_rng(cfg.seeds[0])
    spec = _network(cfg)
    params = init_network_params(spec, rng)
    sample = draw_gradcheck_sample(spec, params, rng, step=args.step)
    report = gradcheck(spec, params, sample, step=args.step, threshold=args.threshold)
    print(report.to_text())
    return EXIT_OK if report.passed else EXIT_NUMERIC


def cmd_complexity(args) -> int:
    d, t, d_out, t_out = args.dims
    lo, hi = args.heads_range
    if lo < 1 or hi < lo:
        raise ConfigurationError(f"bad head range [{lo}, {hi}]")
    rows = []
    header = ["K"] + ["feature_proj", "temporal_proj", "bias_act",
                      "attention", "mixing", "recombination", "total"]
    if args.measure:
        header += ["measured_attention", "measured_recombination"]
    print("\t".join(header))
    for k in range(lo, hi + 1):
        est = complexity_estimate(d, t, d_out, t_out, k)
        row = {"K": k, "terms": list(est.terms()), "total": est.total}
        cells = [str(k), *[str(v) for v in est.terms()], str(est.total)]
        if args.measure:
            measured = measure_multiplications(d, t, d_out, t_out, k)
            row["measured"] = measured
            cells.append(str(measured.get("attention_scores", 0)))
            cells.append(str(measured.get("head_recombination", 0)))
        rows.append(row)
        print("\t".join(cells))
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=2) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"train": cmd_train, "eval": cmd_eval, "gradcheck": cmd_gradcheck,
                "complexity": cmd_complexity}
    try:
        return handlers[args.command](args)
    except (ConfigurationError, ConstraintError, DimensionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileNotFoundError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
