import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mtabl.cli import build_parser, main, run_config
from mtabl.data import load_dataset, save_dataset, synth_generate
from mtabl.serialize import load_checkpoint, read_container, save_checkpoint, write_container


def run(argv):
    return main(argv)


def cli_subprocess(*argv):
    """The command line in a fresh interpreter, with this checkout's sources."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "mtabl.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def write_days(day_dir, n=4, events=30):
    day_dir.mkdir()
    for i in range(n):
        r = np.random.default_rng(i)
        grid = np.vstack([r.normal(size=(40, events)),
                          r.integers(1, 4, (5, events)).astype(float)])
        with open(day_dir / f"day{i}.txt", "w") as fh:
            for row in grid:
                fh.write(" ".join(f"{v:.8g}" for v in row) + "\n")


def train_args(out, seeds=2, epochs=3, extra=()):
    return ["train", "--synth", "--synth-samples", "60", "--synth-features", "6",
            "--window", "8", "--topology", "A", "--layer", "mtabl", "--heads", "2",
            "--seeds", str(seeds), "--max-epochs", str(epochs),
            "--batch-size", "16", "--out", str(out), *extra]


# train's and gradcheck's flags before RunConfig generated them from its
# fields: option -> (dest, type or action, choices); every default was None.
PARENT_RUN_FLAGS = {
    "--config": ("config", None, None),
    "--topology": ("topology", None, ["A", "B", "C"]),
    "--layer": ("layer", None, ["tabl", "mtabl"]),
    "--heads": ("heads", int, None),
    "--horizon": ("horizon", int, [10, 20, 30, 50, 100]),
    "--window": ("window", int, None),
    "--data": ("data", None, None),
    "--synth": ("synth", "store_true", None),
    "--synth-samples": ("synth_samples", int, None),
    "--synth-features": ("synth_features", int, None),
    "--synth-difficulty": ("synth_difficulty", None, ["single", "multi"]),
    "--synth-seed": ("synth_seed", int, None),
    "--seeds": ("seeds", int, None),
    "--seed": ("seed", int, None),
    "--train-days": ("train_days", int, None),
    "--val-days": ("val_days", int, None),
    "--test-days": ("test_days", int, None),
    "--transposed": ("transposed", "store_true", None),
    "--fix-attention-diag": ("fix_attention_diag", "store_true", None),
    "--out": ("out", None, None),
    "--algorithm": ("algorithm", None, ["adam", "sgd-momentum"]),
    "--lr": ("learning_rate", float, None),
    "--batch-size": ("batch_size", int, None),
    "--max-epochs": ("max_epochs", int, None),
    "--lr-decay": ("lr_decay", float, None),
    "--lr-patience": ("lr_patience", int, None),
    "--momentum": ("momentum", float, None),
    "--class-weighting": ("class_weighting", None, ["inverse", "uniform"]),
}
# Flags for optimizer keys that config files already accepted.
ADDED_RUN_FLAGS = {
    "--beta1": ("beta1", float, None),
    "--beta2": ("beta2", float, None),
    "--epsilon": ("epsilon", float, None),
}

# The config.json that train wrote for train_args(out) before RunConfig,
# with its "out" changed to a relative path.
PARENT_CONFIG = {
    "topology": "A", "layer": "mtabl", "heads": 2, "horizon": 10, "window": 8,
    "data": None, "synth": True, "synth_samples": 60, "synth_features": 6,
    "synth_difficulty": "single", "synth_seed": 0, "seeds": [0, 1],
    "train_days": 6, "val_days": 1, "test_days": 3, "transposed": False,
    "fix_attention_diag": False, "out": "runs/parent",
    "optim": {"algorithm": "adam", "learning_rate": 0.01, "beta1": 0.9, "beta2": 0.999,
              "epsilon": 1e-08, "momentum": 0.9, "batch_size": 16, "max_epochs": 3,
              "lr_decay": 0.1, "lr_patience": 10, "seed": 0, "class_weighting": "inverse"},
}


def flag_surface(command):
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    surface = {}
    for action in sub._actions:
        if action.dest != "help":
            kind = "store_true" if action.const is True else action.type
            choices = None if action.choices is None else list(action.choices)
            surface[action.option_strings[0]] = (action.dest, kind, choices, action.default)
    return surface


RUN_FLAGS = {**PARENT_RUN_FLAGS, **ADDED_RUN_FLAGS}
# The run flags each command keeps: gradcheck reads only the network's keys
# and the first run's seed; its feature count comes from --synth-features.
COMMAND_RUN_FLAGS = {
    "train": list(RUN_FLAGS),
    "gradcheck": ["--config", "--seed", "--topology", "--layer", "--heads", "--window",
                  "--synth-features", "--fix-attention-diag"],
}


@pytest.mark.parametrize("command,extra", [
    ("train", {}),
    ("gradcheck", {"--step": ("step", float, None, 1e-5),
                   "--threshold": ("threshold", float, None, 1e-4)}),
])
def test_run_flags_keep_the_parents(command, extra):
    expected = {option: (*RUN_FLAGS[option], None) for option in COMMAND_RUN_FLAGS[command]}
    assert flag_surface(command) == {**expected, **extra}


class TestTrainCommand:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(train_args(out, seeds=4)) == 0
        assert (out / "config.json").exists()
        assert (out / "dataset.mtabl").exists()
        assert (out / "aggregate.json").exists()
        assert (out / "aggregate.txt").exists()
        for seed in (0, 1, 2, 3):
            seed_dir = out / f"seed{seed}"
            assert (seed_dir / "checkpoint.mtabl").exists()
            assert (seed_dir / "report.txt").exists()
            assert (seed_dir / "report.json").exists()
            log_lines = (seed_dir / "training_log.jsonl").read_text().splitlines()
            assert len(log_lines) == 3
            record = json.loads(log_lines[0])
            assert {"epoch", "train_loss", "learning_rate", "lambdas",
                    "val_f1"} <= set(record)
        aggregate = json.loads((out / "aggregate.json").read_text())
        assert set(aggregate) == {"accuracy", "macro_precision", "macro_recall",
                                  "macro_f1"}
        captured = capsys.readouterr().out
        assert "aggregate over seeds 0, 1, 2, 3" in captured

    def test_config_round_trip_reproduces_results(self, tmp_path):
        first = tmp_path / "first"
        assert run(train_args(first)) == 0
        second = tmp_path / "second"
        assert run(["train", "--config", str(first / "config.json"),
                    "--out", str(second)]) == 0
        for seed in (0, 1):
            a = (first / f"seed{seed}" / "report.json").read_text()
            b = (second / f"seed{seed}" / "report.json").read_text()
            assert a == b

    def test_parent_config_file_gives_the_same_config(self, tmp_path):
        config = tmp_path / "parent.json"
        config.write_text(json.dumps(PARENT_CONFIG))
        out = tmp_path / "run"
        assert run(["train", "--config", str(config), "--out", str(out)]) == 0
        effective = json.loads((out / "config.json").read_text())
        assert effective == {**PARENT_CONFIG, "out": str(out)}

    def test_synthetic_run_writes_the_generators_cache(self, tmp_path):
        out = tmp_path / "run"
        assert run(["train", "--synth", "--synth-samples", "45", "--synth-features", "5",
                    "--window", "6", "--synth-difficulty", "multi", "--synth-seed", "3",
                    "--max-epochs", "1", "--out", str(out)]) == 0
        ds = load_dataset(out / "dataset.mtabl")
        assert sum(len(part) for _, part in ds.partitions()) == 45
        assert ds.sample_dims() == (5, 6)
        assert ds.provenance["difficulty"] == "multi"
        # The library call that writes a cache without training writes the same bytes.
        save_dataset(tmp_path / "lib.mtabl",
                     synth_generate(45, n_features=5, window=6, seed=3, difficulty="multi"))
        assert (tmp_path / "lib.mtabl").read_bytes() == (out / "dataset.mtabl").read_bytes()

    def test_default_config_keeps_the_parents(self, tmp_path):
        out = tmp_path / "run"
        assert run(["train", "--synth", "--max-epochs", "1", "--out", str(out)]) == 0
        effective = json.loads((out / "config.json").read_text())
        assert effective == {
            **PARENT_CONFIG, "layer": "tabl", "heads": 1, "window": 10, "synth_samples": 240,
            "synth_features": 8, "seeds": [0], "out": str(out),
            "optim": {**PARENT_CONFIG["optim"], "batch_size": 256, "max_epochs": 1},
        }

    def test_int_stands_for_float_and_data_may_be_null(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"data": null, "optim": {"learning_rate": 1, "momentum": 0}}')
        cfg = run_config(build_parser().parse_args(["train", "--synth", "--config", str(config)]))
        assert (cfg.data, cfg.optim.learning_rate, cfg.optim.momentum) == (None, 1, 0)

    @pytest.mark.parametrize("extra,config,code", [
        (["--synth", "--batch-size", "0"], None, 2),
        ([], {"topology": "Z", "synth": True}, 2),
        (["--data", "absent"], None, 3),
        (["--synth", "--seed", "-1"], None, 2),
        (["--synth", "--heads", "2"], None, 2),
        (["--synth", "--data", "X"], None, 2),
    ], ids=["batch-size-0", "topology-z", "missing-data-dir", "negative-seed", "tabl-two-heads",
            "synth-and-data"])
    def test_failed_run_writes_nothing(self, tmp_path, monkeypatch, extra, config, code):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            Path("config.json").write_text(json.dumps(config))
            extra = [*extra, "--config", "config.json"]
        assert run(["train", *extra, "--out", "run"]) == code
        assert not Path("run").exists()

    def test_heads_zero_is_usage_error(self, tmp_path, capsys):
        code = run(["train", "--synth", "--layer", "mtabl", "--heads", "0",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert "heads" in capsys.readouterr().err

    def test_missing_data_dir_is_data_error(self, tmp_path):
        code = run(["train", "--data", str(tmp_path / "absent"),
                    "--out", str(tmp_path / "x")])
        assert code == 3

    def test_trains_from_day_files(self, tmp_path, capsys):
        day_dir = tmp_path / "days"
        write_days(day_dir)
        out = tmp_path / "run"
        code = run(["train", "--data", str(day_dir), "--train-days", "2",
                    "--val-days", "1", "--test-days", "1", "--window", "10",
                    "--horizon", "20", "--topology", "A", "--layer", "tabl",
                    "--seeds", "1", "--max-epochs", "2", "--batch-size", "16",
                    "--out", str(out)])
        assert code == 0
        assert (out / "seed0" / "checkpoint.mtabl").exists()
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["horizon"] == 20 and cfg["data"] == str(day_dir)
        ds = load_dataset(out / "dataset.mtabl")
        assert ds.sample_dims() == (40, 10)
        assert len(ds.train) == 2 * 21 and len(ds.test) == 21

    def test_requires_some_dataset(self, tmp_path):
        assert run(["train", "--out", str(tmp_path / "x")]) == 2

    def test_non_utf8_day_file_is_format_error(self, tmp_path, capsys):
        day_dir = tmp_path / "days"
        write_days(day_dir)
        (day_dir / "day1.txt").write_bytes(b"1.0 2.0\n\xff\xfe 3.0\n")
        code = run(["train", "--data", str(day_dir), "--train-days", "2",
                    "--val-days", "1", "--test-days", "1", "--out", str(tmp_path / "x")])
        assert code == 3
        assert "day1.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("content,code,named", [
        ("[1, 2]", 2, "config"), ("{not json", 2, "config"), (None, 3, "config"),
        ('{"heads": "x"}', 2, "'heads'"),
        ('{"heads": 2.0, "layer": "mtabl"}', 2, "'heads'"),
        ('{"optim": [1, 2]}', 2, "'optim'"),
        ('{"seeds": 3}', 2, "'seeds'"),
        ('{"optim": {"bogus": 1}}', 2, "'optim.bogus'"),
        ('{"optim": {"learning_rate": "0.1"}}', 2, "'optim.learning_rate'"),
        ('{"synth": "no"}', 2, "'synth'"),
        ('{"horizon": 7}', 2, "horizon"),
        ('{"seeds": [0, 0]}', 2, "seeds must not repeat"),
        ('{"optim": {"seed": 5}}', 2, "optim.seed"),
    ], ids=["json-list", "not-json", "directory", "heads-str", "heads-float", "optim-list",
            "seeds-int", "optim-unknown-key", "lr-str", "synth-str", "horizon-choice",
            "seeds-repeated", "optim-seed"])
    def test_bad_config_file(self, tmp_path, capsys, content, code, named):
        config = tmp_path / "config.json"
        if content is None:
            config.mkdir()
        else:
            config.write_text(content)
        # In process, so an exception escaping main fails the test.
        assert run(["train", "--synth", "--config", str(config),
                    "--out", str(tmp_path / "x")]) == code
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()


class TestEvalCommand:
    def test_reproduces_training_report_bit_exactly(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(train_args(out, seeds=1)) == 0
        capsys.readouterr()
        eval_out = tmp_path / "eval"
        code = run(["eval", "--checkpoint", str(out / "seed0" / "checkpoint.mtabl"),
                    "--dataset-cache", str(out / "dataset.mtabl"),
                    "--split", "test", "--out", str(eval_out)])
        assert code == 0
        train_report = json.loads((out / "seed0" / "report.json").read_text())
        eval_report = json.loads((eval_out / "report_test.json").read_text())
        assert eval_report == train_report

    def test_checkpoint_meta_locates_dataset(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(train_args(out, seeds=1)) == 0
        capsys.readouterr()
        code = run(["eval", "--checkpoint", str(out / "seed0" / "checkpoint.mtabl")])
        assert code == 0
        assert "macro_f1=" in capsys.readouterr().out

    def test_checkpoint_locates_dataset_from_another_directory(self, tmp_path, monkeypatch):
        # train records the cache relative to the checkpoint, not to the
        # directory it ran in, so a relative --out still evaluates elsewhere.
        (tmp_path / "work").mkdir()
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        assert run(train_args(Path("tb") / "c", seeds=1, epochs=1)) == 0
        monkeypatch.chdir(tmp_path / "elsewhere")
        checkpoint = Path("..") / "work" / "tb" / "c" / "seed0" / "checkpoint.mtabl"
        assert run(["eval", "--checkpoint", str(checkpoint), "--out", "eval"]) == 0
        train_report = (tmp_path / "work" / "tb" / "c" / "seed0" / "report.json").read_text()
        assert (tmp_path / "elsewhere" / "eval" / "report_test.json").read_text() == train_report

    def test_missing_checkpoint(self, tmp_path):
        code = run(["eval", "--checkpoint", str(tmp_path / "nope.mtabl")])
        assert code == 3

    def test_day_files_reproduce_training_report_bit_exactly(self, tmp_path, capsys):
        # Horizon 20 and z-scoring both differ from what a bare split of
        # the test day would give, so only the preprocessing stored in the
        # checkpoint can reproduce the report.
        day_dir = tmp_path / "days"
        write_days(day_dir)
        out = tmp_path / "run"
        assert run(["train", "--data", str(day_dir), "--train-days", "2",
                    "--val-days", "1", "--test-days", "1", "--horizon", "20",
                    "--layer", "tabl", "--seeds", "1", "--max-epochs", "3",
                    "--batch-size", "16", "--out", str(out)]) == 0
        test_dir = tmp_path / "test_day"
        test_dir.mkdir()
        shutil.copy(day_dir / "day3.txt", test_dir / "day3.txt")
        eval_out = tmp_path / "eval"
        assert run(["eval", "--checkpoint", str(out / "seed0" / "checkpoint.mtabl"),
                    "--data", str(test_dir), "--split", "test",
                    "--out", str(eval_out)]) == 0
        train_report = json.loads((out / "seed0" / "report.json").read_text())
        eval_report = json.loads((eval_out / "report_test.json").read_text())
        assert eval_report == train_report

    def test_corrupt_checkpoint_exits_3_without_traceback(self, tmp_path):
        out = tmp_path / "run"
        assert run(train_args(out, seeds=1, epochs=1)) == 0
        checkpoint = out / "seed0" / "checkpoint.mtabl"
        raw = checkpoint.read_bytes()
        # A list where the header object belongs.
        checkpoint.write_bytes(raw[:8] + raw[8:12] + (2).to_bytes(4, "little") + b"[]")
        proc = cli_subprocess("eval", "--checkpoint", str(checkpoint))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "data error" in proc.stderr

    @pytest.mark.parametrize("key,value", [
        ("horizon", None), ("feature_std", None), ("window", "10"), ("window", 0),
        ("horizon", 7), ("transposed", "no"), ("feature_mean", [0.0] * 5),
        ("feature_mean", [float("nan")] * 40), ("feature_mean", [-float("inf")] * 40),
        ("feature_std", [-1.0] * 40), ("feature_mean", None),
    ], ids=["no-horizon", "no-std", "window-str", "window-0", "horizon-7", "transposed-str",
            "mean-5-values", "mean-nan", "mean-minus-inf", "std-negative", "mean-null-std-set"])
    def test_damaged_preprocessing_record_exits_3_without_traceback(self, tmp_path, capsys,
                                                                    key, value):
        day_dir = tmp_path / "days"
        write_days(day_dir)
        out = tmp_path / "run"
        assert run(["train", "--data", str(day_dir), "--train-days", "2", "--val-days", "1",
                    "--test-days", "1", "--seeds", "1", "--max-epochs", "1",
                    "--out", str(out)]) == 0
        checkpoint = out / "seed0" / "checkpoint.mtabl"
        spec, params, meta = load_checkpoint(checkpoint)
        if value is None and key != "feature_mean":
            del meta[key]
        else:
            meta[key] = value
        save_checkpoint(checkpoint, spec, params, meta)
        capsys.readouterr()
        # In process, so an exception escaping main fails the test.
        assert run(["eval", "--checkpoint", str(checkpoint), "--data", str(day_dir)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and repr(key) in err and "Traceback" not in err

    def test_recorded_dataset_cache_that_is_no_path_exits_3(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(train_args(out, seeds=1, epochs=1)) == 0
        checkpoint = out / "seed0" / "checkpoint.mtabl"
        spec, params, meta = load_checkpoint(checkpoint)
        meta["dataset_cache"] = 5
        save_checkpoint(checkpoint, spec, params, meta)
        capsys.readouterr()
        # In process, so an exception escaping main fails the test.
        assert run(["eval", "--checkpoint", str(checkpoint)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "dataset_cache is 5" in err

    def test_data_and_dataset_cache_together_exit_2(self, tmp_path, capsys):
        # Each names the whole evaluation set, so one of them would go unread.
        out = tmp_path / "run"
        assert run(train_args(out, seeds=1, epochs=1)) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            run(["eval", "--checkpoint", str(out / "seed0" / "checkpoint.mtabl"),
                 "--data", str(tmp_path), "--dataset-cache", str(out / "dataset.mtabl")])
        assert exit_.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("named_by", ["flag", "checkpoint"])
    def test_missing_dataset_cache_exits_3_naming_the_path(self, tmp_path, capsys, named_by):
        out = tmp_path / "run"
        assert run(train_args(out, seeds=1, epochs=1)) == 0
        checkpoint = out / "seed0" / "checkpoint.mtabl"
        missing = tmp_path / "nowhere" / "cache.mtabl"
        argv = ["eval", "--checkpoint", str(checkpoint)]
        if named_by == "flag":
            argv += ["--dataset-cache", str(missing)]
        else:
            spec, params, meta = load_checkpoint(checkpoint)
            save_checkpoint(checkpoint, spec, params, {**meta, "dataset_cache": str(missing)})
        capsys.readouterr()
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert "data error" in err and str(missing) in err

    def test_second_run_into_the_same_out_leaves_the_first_runs_data(self, tmp_path, capsys):
        # A run with another synthetic seed once overwrote config.json and
        # dataset.mtabl, and eval of the first run's checkpoint then scored
        # the second run's data (macro-F1 0.19 against its own 0.30).
        out = tmp_path / "stale"
        first = ["train", "--synth", "--seeds", "1", "--max-epochs", "2", "--out", str(out)]
        assert run(first) == 0
        written = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert run(["train", "--synth", "--synth-seed", "7", "--seed", "1", "--seeds", "1",
                    "--max-epochs", "2", "--out", str(out)]) == 2
        assert "another run's config.json" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == written
        assert run(["eval", "--checkpoint", str(out / "seed0" / "checkpoint.mtabl"),
                    "--out", str(tmp_path / "eval")]) == 0
        report = (out / "seed0" / "report.json").read_text()
        assert (tmp_path / "eval" / "report_test.json").read_text() == report
        # The same run may write over its own outputs, with the same bytes.
        assert run(first) == 0
        assert (out / "seed0" / "report.json").read_text() == report

    @pytest.mark.parametrize("named_by", ["flag", "checkpoint"])
    def test_cache_of_another_run_exits_3_naming_both_digests(self, tmp_path, capsys, named_by):
        out, other = tmp_path / "run", tmp_path / "other"
        assert run(train_args(out, seeds=1, epochs=1)) == 0
        assert run(train_args(other, seeds=1, epochs=1, extra=["--synth-seed", "7"])) == 0
        checkpoint = out / "seed0" / "checkpoint.mtabl"
        argv = ["eval", "--checkpoint", str(checkpoint)]
        if named_by == "flag":
            argv += ["--dataset-cache", str(other / "dataset.mtabl")]
        else:
            shutil.copy(other / "dataset.mtabl", out / "dataset.mtabl")
        recorded = load_checkpoint(checkpoint)[2]["dataset_sha256"]
        found = hashlib.sha256((other / "dataset.mtabl").read_bytes()).hexdigest()
        assert recorded != found
        capsys.readouterr()
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert "data error" in err and recorded in err and found in err

    def test_checkpoint_without_a_digest_evaluates_any_cache(self, tmp_path, capsys):
        out, other = tmp_path / "run", tmp_path / "other"
        assert run(train_args(out, seeds=1, epochs=1)) == 0
        assert run(train_args(other, seeds=1, epochs=1, extra=["--synth-seed", "7"])) == 0
        checkpoint = out / "seed0" / "checkpoint.mtabl"
        spec, params, meta = load_checkpoint(checkpoint)
        del meta["dataset_sha256"]
        save_checkpoint(checkpoint, spec, params, meta)
        assert run(["eval", "--checkpoint", str(checkpoint),
                    "--dataset-cache", str(other / "dataset.mtabl")]) == 0

    def test_inconsistent_dataset_cache_exits_3_without_traceback(self, tmp_path):
        out = tmp_path / "run"
        assert run(train_args(out, seeds=1, epochs=1)) == 0
        cache = out / "dataset.mtabl"
        meta, blocks = read_container(cache, expect_kind="dataset")
        blocks["test/labels"][0, 0] = 7  # a label the model cannot have seen
        write_container(cache, "dataset", meta, list(blocks.items()))
        proc = cli_subprocess("eval", "--checkpoint", str(out / "seed0" / "checkpoint.mtabl"),
                              "--dataset-cache", str(cache))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "data error" in proc.stderr and "labels" in proc.stderr


class TestGradcheckCommand:
    def test_topology_a_exits_zero(self, capsys):
        assert run(["gradcheck", "--topology", "A", "--layer", "mtabl",
                    "--heads", "3", "--window", "6",
                    "--synth-features", "5"]) == 0
        assert "passed=True" in capsys.readouterr().out

    def test_train_config_gives_the_flags_check(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(train_args(out, seeds=1, epochs=1, extra=["--seed", "3"])) == 0
        capsys.readouterr()
        assert run(["gradcheck", "--config", str(out / "config.json")]) == 0
        from_config = capsys.readouterr().out
        assert run(["gradcheck", "--synth-features", "6", "--window", "8",
                    "--layer", "mtabl", "--heads", "2", "--seed", "3"]) == 0
        from_flags = capsys.readouterr().out
        assert from_config.splitlines()[0] == from_flags.splitlines()[0]
        assert "passed=True" in from_config

    def test_day_file_run_config_checks_forty_features(self, tmp_path, capsys):
        day_dir = tmp_path / "days"
        write_days(day_dir)
        out = tmp_path / "run"
        assert run(["train", "--data", str(day_dir), "--train-days", "2", "--val-days", "1",
                    "--test-days", "1", "--seeds", "1", "--max-epochs", "1",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["gradcheck", "--config", str(out / "config.json")]) == 0
        from_config = capsys.readouterr().out
        assert run(["gradcheck", "--synth-features", "40"]) == 0
        assert from_config == capsys.readouterr().out and "passed=True" in from_config

    @pytest.mark.parametrize("flag", ["--step=0", "--step=nan", "--step=inf", "--step=-1e-5",
                                      "--threshold=inf", "--threshold=nan"])
    def test_step_and_threshold_that_test_nothing_exit_2(self, capsys, flag):
        # In process, so an exception escaping main fails the test.
        assert run(["gradcheck", "--window", "4", "--synth-features", "3", flag]) == 2
        err = capsys.readouterr().err
        assert "step must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--max-epochs=999", "--horizon=100", "--lr-decay=5",
                                      "--out=run", "--seeds=2", "--data=.", "--synth"])
    def test_train_only_flags_are_refused(self, flag):
        with pytest.raises(SystemExit) as exc:
            run(["gradcheck", flag])
        assert exc.value.code == 2


class TestComplexityCommand:
    def test_table_monotonic_in_heads(self, capsys, tmp_path):
        out = tmp_path / "table.json"
        assert run(["complexity", "--dims", "40", "10", "3", "1",
                    "--heads-range", "1", "5", "--measure",
                    "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        totals = [r["total"] for r in rows]
        assert totals == sorted(totals) and len(set(totals)) == 5
        assert rows[1]["terms"] == [1200, 30, 6, 600, 90, 180]
        for r in rows:
            assert r["measured"]["attention_scores"] == r["terms"][3]

    def test_bad_range(self):
        assert run(["complexity", "--heads-range", "3", "1"]) == 2


def test_usage_error_on_unknown_command():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
