import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mtabl.cli import main
from mtabl.data import load_dataset
from mtabl.serialize import read_container, write_container


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

    @pytest.mark.parametrize("content,code", [("[1, 2]", 2), ("{not json", 2), (None, 3)],
                             ids=["json-list", "not-json", "directory"])
    def test_bad_config_file(self, tmp_path, capsys, content, code):
        config = tmp_path / "config.json"
        if content is None:
            config.mkdir()
        else:
            config.write_text(content)
        assert run(["train", "--config", str(config), "--out", str(tmp_path / "x")]) == code
        assert "config" in capsys.readouterr().err


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


class TestSynthCommand:
    def test_writes_loadable_cache(self, tmp_path, capsys):
        out = tmp_path / "synth.mtabl"
        assert run(["synth", "--samples", "45", "--features", "5",
                    "--window", "6", "--difficulty", "multi",
                    "--seed", "3", "--out", str(out)]) == 0
        ds = load_dataset(out)
        total = sum(len(part) for _, part in ds.partitions())
        assert total == 45
        assert ds.sample_dims() == (5, 6)
        assert ds.provenance["difficulty"] == "multi"


def test_usage_error_on_unknown_command():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2
