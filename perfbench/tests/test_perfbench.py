"""Tests of the benchmark itself: generator, tracing arithmetic, result names
and a tiny run of every workload.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import bench, daygen, tracing

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {"train_events": (300, 300), "test_events": 300, "min_rounds": 2}
TINY_CAPS = {"train_windows": 400, "test_windows": 256}


def tiny(name):
    overrides = dict(TINY)
    if bench.WORKLOADS[name].train_windows is not None:
        overrides.update(TINY_CAPS)
    return overrides


def test_same_seed_gives_identical_files(tmp_path):
    a = daygen.write_days(tmp_path / "a", 7, [250, 180])
    b = daygen.write_days(tmp_path / "b", 7, [250, 180])
    c = daygen.write_days(tmp_path / "c", 8, [250, 180])
    for pa, pb, pc in zip(a, b, c):
        assert pa.read_bytes() == pb.read_bytes()
        assert pa.read_bytes() != pc.read_bytes()


def test_files_are_fi2010_shaped(tmp_path, lib):
    (path,) = daygen.write_days(tmp_path, 3, [400])
    day = lib.load_day(path)
    assert day.values.shape == (45, 400)
    labels = day.values[40:]
    assert set(np.unique(labels)) <= {1.0, 2.0, 3.0}
    # All three classes occur at the shortest horizon.
    assert set(np.unique(labels[0])) == {1.0, 2.0, 3.0}
    asks, bids = day.values[0:40:4], day.values[2:40:4]
    assert (asks > bids).all()
    assert (day.values[1:40:2] >= 1).all()  # volumes


def test_self_time_on_a_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # a second root d [11, 12] with no children.
    names = ["root", "a", "b", "c", "d"]
    name_id = [0, 1, 2, 3, 4]
    start = [0.0, 1.0, 5.0, 2.0, 11.0]
    end = [10.0, 4.0, 9.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, -1]
    stats = tracing.aggregate(names, name_id, start, end, parent)
    assert stats["root"] == tracing.SpanStats(1, 10.0, 3.0)
    assert stats["a"] == tracing.SpanStats(1, 3.0, 2.0)
    assert stats["b"] == tracing.SpanStats(1, 4.0, 4.0)
    assert stats["c"] == tracing.SpanStats(1, 1.0, 1.0)
    assert stats["d"] == tracing.SpanStats(1, 1.0, 1.0)


def test_self_time_sums_repeated_names():
    names = ["loop", "step"]
    stats = tracing.aggregate(names, [0, 1, 1, 1], [0.0, 1.0, 3.0, 5.0],
                              [8.0, 2.0, 4.0, 7.0], [-1, 0, 0, 0])
    assert stats["step"] == tracing.SpanStats(3, 4.0, 4.0)
    assert stats["loop"] == tracing.SpanStats(1, 8.0, 4.0)


def test_tracer_records_nesting():
    t = tracing.Tracer()
    inner = t.wrap(lambda: None, "inner")
    t.wrap(inner, "outer")()
    a = t.arrays()
    assert t.names == ["outer", "inner"]
    assert a["parent"].tolist() == [-1, 0]
    assert (a["end"] >= a["start"]).all()


def test_missing_target_is_absent_and_originals_come_back():
    import mtabl.layers

    original = mtabl.layers.matmul
    t = tracing.Tracer()
    targets = [
        ("mtabl.layers", "matmul", lambda fn: t.wrap(fn, "linalg.matmul")),
        ("mtabl.layers", "no_such_function", lambda fn: t.wrap(fn, "x")),
        ("mtabl.no_such_module", "f", lambda fn: t.wrap(fn, "y")),
    ]
    with tracing.patched(targets) as absent:
        assert mtabl.layers.matmul is not original
        mtabl.layers.matmul(np.eye(2), np.eye(2))
    assert absent == ["mtabl.layers.no_such_function", "mtabl.no_such_module.f"]
    assert mtabl.layers.matmul is original
    assert tracing.summarize(t)["linalg.matmul"].calls == 1


def test_benchmark_json_lists_the_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == set(bench.END_TO_END_UNITS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(bench.PER_LAYER_UNITS)
    for group, units in (("end_to_end", bench.END_TO_END_UNITS),
                         ("per_layer", bench.PER_LAYER_UNITS)):
        for m in SPEC[group]:
            assert m["unit"] == units[m["name"]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_tiny_run_passes_every_check(tmp_path, lib, name, trace, capsys):
    record = bench.run(lib, name, seed=5, seconds=0.0, trace=trace,
                       workdir=tmp_path / "work", results_dir=tmp_path / "results",
                       overrides=tiny(name))
    result = record["result"]
    assert record["failed_ratio"] == 0, record["failures"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    group = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}
    assert record["absent"] == []
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"])

    bench.print_report(sys.stdout, record)
    printed = {line.split(" = ")[0] for line in capsys.readouterr().out.splitlines()
               if " = " in line and not line.startswith("#")}
    expected = set(result["metrics"]) | {"failed_ratio"}
    if not trace:
        expected |= set(bench.REPORTED_UNITS)
    assert printed == expected
    written = json.loads((tmp_path / "results" / f"{name}-seed5-trace{int(trace)}.json")
                         .read_text())
    assert {"nproc", "cpu_model", "python", "numpy", "blas", "blas_threads"} <= set(
        written["machine"])


def test_metrics_of_an_absent_function_are_left_out(tmp_path, lib, monkeypatch):
    original = bench._targets

    def renamed(tracer, kinds):
        return [(m, "softmax_rows_gone" if a == "softmax_rows" else a, make, spans)
                for m, a, make, spans in original(tracer, kinds)]

    monkeypatch.setattr(bench, "_targets", renamed)
    record = bench.run(lib, "train-a-tabl", seed=2, seconds=0.0, trace=True,
                       workdir=tmp_path / "work", results_dir=None,
                       overrides=tiny("train-a-tabl"))
    assert record["absent"] == ["mtabl.layers.softmax_rows_gone"]
    metrics = record["result"]["metrics"]
    assert "linalg.softmax_rows.us_per_sample" not in metrics
    assert "linalg.matmul.us_per_sample" in metrics


def test_end_to_end_values_are_positive(tmp_path, lib):
    record = bench.run(lib, "train-a-tabl", seed=2, seconds=0.0, trace=False,
                       workdir=tmp_path / "work", results_dir=None,
                       overrides=tiny("train-a-tabl"))
    for name, metric in record["result"]["metrics"].items():
        assert metric["value"] > 0, name


class _CorruptingLibrary:
    """The library, except that a loaded dataset cache comes back altered."""

    def __init__(self, lib):
        self._lib = lib

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def load_dataset(self, path):
        dataset = self._lib.load_dataset(path)
        sample = dataset.train[0]
        dataset.train[0] = type(sample)(x=sample.x, label=(sample.label + 1) % 3)
        return dataset


def test_a_wrong_output_fails_the_run(tmp_path, lib):
    record = bench.run(_CorruptingLibrary(lib), "train-a-tabl", seed=2, seconds=0.0,
                       trace=False, workdir=tmp_path / "work", results_dir=None,
                       overrides=tiny("train-a-tabl"))
    assert not record["result"]["correct"]
    assert record["result"]["failed"] == 1
    assert record["failures"] == ["load_dataset differs from split_days"]


def test_without_the_library_it_fails_quietly(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-a-tabl",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
