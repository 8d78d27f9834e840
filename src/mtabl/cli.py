"""Command-line entry point.

Subcommands: train, eval, gradcheck, complexity, synth. Configuration can
come from a JSON file (``--config``) with individual flags taking
precedence; the effective merged configuration is always written next to
the outputs so any run can be reproduced by feeding that file back in.

Exit codes: 0 success, 2 usage/configuration error, 3 data error,
4 numeric failure (divergence or a failed gradient check).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from .errors import (
    ConfigurationError,
    ConstraintError,
    DataError,
    DimensionError,
    DivergenceError,
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
from .optim import OptimConfig, train
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

OPTIM_KEYS = ("algorithm", "learning_rate", "beta1", "beta2", "epsilon", "momentum",
              "batch_size", "max_epochs", "lr_decay", "lr_patience", "class_weighting")

RUN_DEFAULTS = {
    "topology": "A", "layer": "tabl", "heads": 1, "horizon": 10, "window": 10,
    "data": None, "synth": False, "synth_samples": 240, "synth_features": 8,
    "synth_difficulty": "single", "synth_seed": 0, "seeds": [0],
    "train_days": 6, "val_days": 1, "test_days": 3, "transposed": False,
    "fix_attention_diag": False, "out": "runs/latest",
}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--topology", choices=["A", "B", "C"])
    p.add_argument("--layer", choices=[KIND_TABL, KIND_MTABL])
    p.add_argument("--heads", type=int, help="attention heads for mtabl layers")
    p.add_argument("--horizon", type=int, choices=list(data_mod.HORIZONS))
    p.add_argument("--window", type=int, help="input window length T")
    p.add_argument("--data", help="directory of day files")
    p.add_argument("--synth", action="store_true", default=None,
                   help="train on generated synthetic data instead of files")
    p.add_argument("--synth-samples", type=int, dest="synth_samples")
    p.add_argument("--synth-features", type=int, dest="synth_features")
    p.add_argument("--synth-difficulty", choices=["single", "multi"],
                   dest="synth_difficulty")
    p.add_argument("--synth-seed", type=int, dest="synth_seed")
    p.add_argument("--seeds", type=int, help="number of independent seeded runs")
    p.add_argument("--seed", type=int, help="base seed for the first run")
    p.add_argument("--train-days", type=int, dest="train_days")
    p.add_argument("--val-days", type=int, dest="val_days")
    p.add_argument("--test-days", type=int, dest="test_days")
    p.add_argument("--transposed", action="store_true", default=None,
                   help="day files store events on rows")
    p.add_argument("--fix-attention-diag", action="store_true", default=None,
                   dest="fix_attention_diag")
    p.add_argument("--out", help="output directory")
    # optimizer overrides
    p.add_argument("--algorithm", choices=["adam", "sgd-momentum"])
    p.add_argument("--lr", type=float, dest="learning_rate")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--lr-decay", type=float, dest="lr_decay")
    p.add_argument("--lr-patience", type=int, dest="lr_patience")
    p.add_argument("--momentum", type=float)
    p.add_argument("--class-weighting", choices=["inverse", "uniform"],
                   dest="class_weighting")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtabl",
        description="Train and inspect temporal-attention bilinear networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one network per seed and aggregate")
    _add_run_flags(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset-cache", help="dataset container written by train")
    p_eval.add_argument("--data", help="directory of day files")
    p_eval.add_argument("--split", choices=["train", "validation", "test"],
                        default="test")
    p_eval.add_argument("--out", help="where to write the report files")

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    _add_run_flags(p_grad)
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

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset cache")
    p_synth.add_argument("--samples", type=int, default=240)
    p_synth.add_argument("--features", type=int, default=8)
    p_synth.add_argument("--window", type=int, default=10)
    p_synth.add_argument("--difficulty", choices=["single", "multi"], default="single")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="cache file to write")
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags; returns the effective config."""
    cfg = dict(RUN_DEFAULTS)
    cfg["optim"] = OptimConfig().to_dict()
    file_cfg = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise DataError(f"config file not found: {path}")
        try:
            file_cfg = json.loads(path.read_bytes())
        except ValueError as err:  # bad UTF-8 and bad JSON are ValueErrors
            raise ConfigurationError(f"config file {path} is not JSON ({err})") from None
        if not isinstance(file_cfg, dict):
            raise ConfigurationError(f"config file {path} must hold a JSON object")
    for key, value in file_cfg.items():
        if key == "optim":
            cfg["optim"].update(value)
        elif key in cfg:
            cfg[key] = value
        else:
            raise ConfigurationError(f"unknown config key {key!r}")
    explicit_seed = None
    for key, value in vars(args).items():
        if value is None or key in ("command", "config", "step", "threshold"):
            continue
        if key in OPTIM_KEYS:
            cfg["optim"][key] = value
        elif key == "seeds":
            base = args.seed if args.seed is not None else cfg["seeds"][0]
            cfg["seeds"] = [base + i for i in range(value)]
        elif key == "seed":
            explicit_seed = value
        elif key in cfg:
            cfg[key] = value
    if explicit_seed is not None and (args.seeds is None):
        cfg["seeds"] = [explicit_seed + i for i in range(len(cfg["seeds"]))]
    _validate_run_config(cfg)
    return cfg


def _validate_run_config(cfg: dict) -> None:
    if not 1 <= cfg["heads"] <= 8:
        raise ConfigurationError(f"--heads must lie in [1, 8], got {cfg['heads']}")
    if cfg["layer"] == KIND_TABL and cfg["heads"] != 1:
        raise ConfigurationError("--heads above 1 requires --layer mtabl")
    if not cfg["synth"] and cfg["data"] is None:
        raise ConfigurationError("either --data DIR or --synth is required")
    if cfg["window"] < 1:
        raise ConfigurationError("--window must be positive")
    if not cfg["seeds"]:
        raise ConfigurationError("at least one seed is required")


def _build_network(cfg: dict, input_dims) -> NetworkSpec:
    return topology(
        cfg["topology"], input_dims=input_dims, attention_kind=cfg["layer"],
        heads=cfg["heads"] if cfg["layer"] == KIND_MTABL else 1,
        fix_attention_diag=cfg["fix_attention_diag"],
    )


def _day_files(directory) -> list[str]:
    day_dir = Path(directory)
    if not day_dir.is_dir():
        raise DataError(f"data directory not found: {day_dir}")
    return sorted(str(p) for p in day_dir.iterdir() if p.is_file())


def _build_dataset(cfg: dict) -> data_mod.Dataset:
    if cfg["synth"]:
        return data_mod.synth_generate(
            cfg["synth_samples"], n_features=cfg["synth_features"],
            window=cfg["window"], seed=cfg["synth_seed"],
            difficulty=cfg["synth_difficulty"],
        )
    return data_mod.split_days(
        _day_files(cfg["data"]), cfg["train_days"], cfg["val_days"], cfg["test_days"],
        window=cfg["window"], horizon=cfg["horizon"], transposed=cfg["transposed"],
    )


def _write_report(report: EvalReport, stem: Path) -> None:
    stem.with_suffix(".txt").write_text(report.to_text() + "\n")
    stem.with_suffix(".json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")


def cmd_train(args) -> int:
    cfg = _merge_config(args)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(cfg, indent=2) + "\n")

    dataset = _build_dataset(cfg)
    data_mod.save_dataset(out_dir / "dataset.mtabl", dataset)
    spec = _build_network(cfg, dataset.sample_dims())
    # Everything eval --data needs to rebuild the inputs the model saw;
    # JSON float repr round-trips the statistics exactly.
    preprocessing = {
        "window": cfg["window"], "horizon": cfg["horizon"],
        "transposed": cfg["transposed"],
        "feature_mean": None if dataset.feature_mean is None else dataset.feature_mean.tolist(),
        "feature_std": None if dataset.feature_std is None else dataset.feature_std.tolist(),
    }

    split_name = next(name for name, part in dataset.partitions()[::-1] if part)
    eval_split = getattr(dataset, split_name)
    test_reports = []
    for seed in cfg["seeds"]:
        run_dir = out_dir / f"seed{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        optim_cfg = OptimConfig(**{**cfg["optim"], "seed": seed})
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
                  "dataset_cache": str(out_dir / "dataset.mtabl"), **preprocessing},
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
    print("aggregate over seeds " + ", ".join(str(s) for s in cfg["seeds"]) + ":")
    for line in lines:
        print("  " + line)
    return EXIT_OK


def cmd_eval(args) -> int:
    spec, params, meta = load_checkpoint(args.checkpoint)
    cache = args.dataset_cache or meta.get("dataset_cache")
    if args.data:
        files = _day_files(args.data)
        if "window" not in meta:
            raise DataError("checkpoint does not record its preprocessing; "
                            "use --dataset-cache")
        dataset = data_mod.split_days(
            files, 0, 0, len(files), window=meta["window"], horizon=meta["horizon"],
            transposed=meta["transposed"], apply_normalization=False,
        )
        if meta.get("feature_mean") is not None:
            dataset = data_mod.standardize(dataset, np.array(meta["feature_mean"]),
                                           np.array(meta["feature_std"]))
    elif cache and Path(cache).exists():
        dataset = data_mod.load_dataset(cache)
    else:
        raise DataError("no dataset: pass --dataset-cache or --data")
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
    # Runs on random data, so a dataset is optional.
    if args.synth is None and args.data is None:
        args.synth = True
    cfg = _merge_config(args)
    rng = np.random.default_rng(cfg["seeds"][0])
    input_dims = (cfg["synth_features"] if cfg["synth"] else data_mod.N_FEATURES,
                  cfg["window"])
    spec = _build_network(cfg, input_dims)
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


def cmd_synth(args) -> int:
    dataset = data_mod.synth_generate(
        args.samples, n_features=args.features, window=args.window,
        seed=args.seed, difficulty=args.difficulty,
    )
    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    data_mod.save_dataset(out, dataset)
    counts = {name: len(part) for name, part in dataset.partitions()}
    print(f"wrote {out}: {counts}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"train": cmd_train, "eval": cmd_eval, "gradcheck": cmd_gradcheck,
                "complexity": cmd_complexity, "synth": cmd_synth}
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
