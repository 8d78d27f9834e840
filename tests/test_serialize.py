import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mtabl.data import load_dataset, normalize, save_dataset, synth_generate
from mtabl.errors import FormatError
from mtabl.network import init_network_params, topology
from mtabl.serialize import (
    MAGIC,
    VERSION,
    load_checkpoint,
    read_container,
    save_checkpoint,
    write_container,
)


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        path = tmp_path / "blob.mtabl"
        a = rng.normal(size=(4, 7))
        b = np.array([[1, -2], [3, 4]], dtype=np.int64)
        meta = {"nested": {"x": 1}, "tag": "hello"}
        write_container(path, "test", meta, [("a", a), ("ints", b)])
        meta2, blocks = read_container(path, expect_kind="test")
        assert meta2 == meta
        assert blocks["a"].tobytes() == a.tobytes()
        assert np.array_equal(blocks["ints"], b)
        assert blocks["ints"].dtype == np.int64

    def test_int8_block_takes_one_byte_a_value(self, tmp_path):
        path = tmp_path / "blob.mtabl"
        small = np.array([[0], [2], [-128], [127]], dtype=np.int8)
        write_container(path, "test", {}, [("small", small), ("after", np.ones((1, 2)))])
        wide = tmp_path / "wide.mtabl"
        write_container(wide, "test", {}, [("small", small.astype(np.int64)),
                                           ("after", np.ones((1, 2)))])
        assert wide.stat().st_size - path.stat().st_size == 4 * 7  # 7 more bytes a value
        _, blocks = read_container(path)
        assert blocks["small"].dtype == np.int8 and blocks["small"].tobytes() == small.tobytes()
        assert blocks["after"].tobytes() == np.ones((1, 2)).tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            read_container(path)

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "blob.mtabl"
        write_container(path, "test", {}, [("a", rng.normal(size=(8, 8)))])
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(FormatError, match="truncated"):
            read_container(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "blob.mtabl"
        write_container(path, "dataset", {}, [("a", np.zeros((1, 1)))])
        with pytest.raises(FormatError, match="expected"):
            read_container(path, expect_kind="checkpoint")

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "blob.mtabl"
        write_container(path, "test", {}, [("a", np.zeros((1, 1)))])
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            read_container(path)


def _with_header(header) -> bytes:
    body = header if isinstance(header, bytes) else json.dumps(header).encode()
    return MAGIC + struct.pack("<II", VERSION, len(body)) + body


class TestHeaderValidation:
    @pytest.mark.parametrize("header", [
        [],
        {"kind": "test", "meta": {}},
        {"kind": "test", "blocks": []},
        {"kind": 3, "meta": {}, "blocks": []},
        {"kind": "test", "meta": [], "blocks": []},
        {"kind": "test", "meta": {}, "blocks": {}},
        {"kind": "test", "meta": {}, "blocks": [7]},
        {"kind": "test", "meta": {}, "blocks": [{"rows": 1, "cols": 1, "dtype": "f8"}]},
        {"kind": "test", "meta": {}, "blocks": [
            {"name": "a", "rows": 0, "cols": 1, "dtype": "f8"},
            {"name": "a", "rows": 0, "cols": 1, "dtype": "f8"}]},
        {"kind": "test", "meta": {}, "blocks": [
            {"name": "a", "rows": -1, "cols": 2, "dtype": "f8"}]},
        {"kind": "test", "meta": {}, "blocks": [
            {"name": "a", "rows": 1.0, "cols": 2, "dtype": "f8"}]},
        {"kind": "test", "meta": {}, "blocks": [
            {"name": "a", "rows": True, "cols": 2, "dtype": "f8"}]},
        {"kind": "test", "meta": {}, "blocks": [
            {"name": "a", "rows": 1, "cols": 2, "dtype": "f4"}]},
        {"kind": "test", "meta": {}, "blocks": [
            {"name": "a", "rows": 10**30, "cols": 0, "dtype": "f8"}]},
    ])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.mtabl"
        path.write_bytes(_with_header(header) + b"\x00" * 64)
        with pytest.raises(FormatError):
            read_container(path)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_containers_raise_only_format_error(self, tmp_path, data):
        path = tmp_path / "ck.mtabl"
        spec = topology("B", input_dims=(4, 3), attention_kind="mtabl", heads=2,
                        hidden_dims=[(3, 2)])
        save_checkpoint(path, spec, init_network_params(spec, 0), meta={"seed": 0})
        raw = path.read_bytes()
        header_end = len(MAGIC) + 8 + struct.unpack_from("<I", raw, len(MAGIC) + 4)[0]
        how = data.draw(st.sampled_from(["truncate", "flip", "garbage", "json"]))
        if how == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif how == "flip":
            at = data.draw(st.integers(0, header_end - 1))
            raw = bytearray(raw)
            raw[at] ^= 1 << data.draw(st.integers(0, 7))
            raw = bytes(raw)
        elif how == "garbage":
            raw = _with_header(data.draw(st.binary(max_size=200))) + raw[header_end:]
        else:
            value = data.draw(st.recursive(
                st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(st.sampled_from(
                    ["kind", "meta", "blocks", "name", "rows", "cols", "dtype", "spec"]),
                    inner, max_size=4),
                max_leaves=12))
            raw = _with_header(value) + raw[header_end:]
        path.write_bytes(raw)
        try:
            load_checkpoint(path)
        except FormatError:
            pass


class TestCheckpoint:
    @pytest.mark.parametrize("kind,heads", [("tabl", 1), ("mtabl", 4)])
    def test_round_trip_bit_exact(self, tmp_path, kind, heads):
        spec = topology("B", input_dims=(12, 6), attention_kind=kind, heads=heads)
        params = init_network_params(spec, 77)
        path = tmp_path / "ck.mtabl"
        save_checkpoint(path, spec, params, meta={"seed": 77})
        spec2, params2, meta = load_checkpoint(path)
        assert spec2 == spec
        assert meta == {"seed": 77}
        assert params2.flat.tobytes() == params.flat.tobytes()
        for p, q in zip(params, params2):
            for (n1, v1), (n2, v2) in zip(p.named_blocks(), q.named_blocks()):
                assert n1 == n2
                assert v1.tobytes() == v2.tobytes()

    def test_missing_block(self, tmp_path):
        spec = topology("A", input_dims=(6, 4))
        path = tmp_path / "ck.mtabl"
        save_checkpoint(path, spec, init_network_params(spec, 1))
        meta, blocks = read_container(path, expect_kind="checkpoint")
        write_container(path, "checkpoint", meta, [("other", blocks["params"])])
        with pytest.raises(FormatError, match="missing block"):
            load_checkpoint(path)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_vector_length_must_match_spec(self, tmp_path, delta):
        spec = topology("A", input_dims=(6, 4), attention_kind="mtabl", heads=2)
        path = tmp_path / "ck.mtabl"
        save_checkpoint(path, spec, init_network_params(spec, 1))
        meta, blocks = read_container(path, expect_kind="checkpoint")
        n = blocks["params"].shape[1]
        write_container(path, "checkpoint", meta, [("params", np.zeros((1, n + delta)))])
        with pytest.raises(FormatError, match="parameter vector"):
            load_checkpoint(path)

    @pytest.mark.parametrize("block,value,named", [
        ("layer1/B", np.nan, "non-finite"), ("layer0/W1", -np.inf, "non-finite"),
        ("layer1/lam", 2.0, "outside"), ("layer1/lam", -0.5, "outside"),
    ], ids=["nan-in-last-B", "inf-in-W1", "lam-2", "lam-negative"])
    def test_parameters_no_training_run_saves_rejected(self, tmp_path, block, value, named):
        spec = topology("B", input_dims=(6, 4), attention_kind="mtabl", heads=2,
                        hidden_dims=[(4, 3)])
        params = init_network_params(spec, 1)
        dict(params.named_blocks())[block].reshape(-1)[-1] = value
        path = tmp_path / "ck.mtabl"
        save_checkpoint(path, spec, params)
        with pytest.raises(FormatError, match=f"{block}.*{named}|{named}.*{block}"):
            load_checkpoint(path)

    def test_meta_that_is_no_object_rejected(self, tmp_path):
        spec = topology("A", input_dims=(6, 4))
        path = tmp_path / "ck.mtabl"
        # save_checkpoint refuses such a meta, so the file is written directly.
        write_container(path, "checkpoint", {"spec": spec.to_dict(), "extra": ["seed", 1]},
                        [("params", init_network_params(spec, 1).flat[None, :])])
        with pytest.raises(FormatError, match="checkpoint meta is list"):
            load_checkpoint(path)

    @pytest.mark.parametrize("meta", [[{"seed": 1}], [], "seed", 0],
                             ids=["list", "empty-list", "str", "int"])
    def test_save_rejects_meta_that_is_no_dict(self, tmp_path, meta):
        spec = topology("A", input_dims=(6, 4))
        path = tmp_path / "ck.mtabl"
        with pytest.raises(FormatError, match="checkpoint meta is"):
            save_checkpoint(path, spec, init_network_params(spec, 1), meta=meta)
        assert not path.exists()

    def test_integer_vector_rejected(self, tmp_path):
        spec = topology("A", input_dims=(6, 4))
        path = tmp_path / "ck.mtabl"
        save_checkpoint(path, spec, init_network_params(spec, 1))
        meta, blocks = read_container(path, expect_kind="checkpoint")
        ints = np.zeros(blocks["params"].shape, dtype=np.int64)
        write_container(path, "checkpoint", meta, [("params", ints)])
        with pytest.raises(FormatError):
            load_checkpoint(path)


def _dataset_cache(path):
    """A small normalized dataset cache; returns its meta and blocks."""
    save_dataset(path, normalize(synth_generate(30, n_features=4, window=5, seed=0)))
    return read_container(path, expect_kind="dataset")


def _set(mapping, key, value):
    mapping[key] = value


def _per_window_layout(blocks):
    """Rewrite the blocks as the older cache layout stored them: an int64
    start and an int64 label per window, no runs."""
    for name in ("train", "validation", "test"):
        first, step, count = blocks.pop(f"{name}/runs")[0]
        blocks[f"{name}/starts"] = (first + step * np.arange(count))[:, None]
        blocks[f"{name}/labels"] = blocks[f"{name}/labels"].astype(np.int64)


class TestDatasetValidation:
    @pytest.mark.parametrize("corrupt", [
        lambda meta, blocks: meta.pop("sample_dims"),
        lambda meta, blocks: _set(meta, "sample_dims", [3, 5]),
        lambda meta, blocks: _set(meta, "sample_dims", [4.0, 5]),
        lambda meta, blocks: _set(meta, "counts", [21, 4, 5]),
        lambda meta, blocks: _set(meta["counts"], "train", meta["counts"]["train"] + 1),
        lambda meta, blocks: _set(meta["counts"], "test", -1),
        lambda meta, blocks: blocks.pop("test/series"),
        lambda meta, blocks: _set(blocks, "train/series", blocks["train/series"][:-1]),
        lambda meta, blocks: _set(blocks, "train/labels", blocks["train/labels"][:-1]),
        lambda meta, blocks: _set(blocks, "train/labels", blocks["train/labels"] * 1.0),
        lambda meta, blocks: blocks["validation/labels"].__setitem__((0, 0), 7),
        lambda meta, blocks: blocks["test/labels"].__setitem__((1, 0), -1),
        lambda meta, blocks: _set(meta, "has_stats", False),
        lambda meta, blocks: blocks.pop("stats/std"),
        lambda meta, blocks: _set(blocks, "stats/mean", blocks["stats/mean"][:2]),
        lambda meta, blocks: _set(meta, "provenance", "days"),
        # Window runs: a last start past the series end, a negative first
        # start, not int64, a column short, missing.
        lambda meta, blocks: blocks["train/runs"].__setitem__((0, 0), 1),
        lambda meta, blocks: blocks["test/runs"].__setitem__((0, 0), -1),
        lambda meta, blocks: _set(blocks, "validation/runs", blocks["validation/runs"] * 1.0),
        lambda meta, blocks: _set(blocks, "train/runs", blocks["train/runs"][:, :2]),
        lambda meta, blocks: blocks.pop("validation/runs"),
        # Counts one short, a run of no windows, counts whose int64 sum
        # wraps to the partition's count.
        lambda meta, blocks: blocks["train/runs"].__setitem__((0, 2), 20),
        lambda meta, blocks: _set(blocks, "train/runs",
                                  np.vstack([blocks["train/runs"], [[0, 0, 0]]])),
        lambda meta, blocks: _set(blocks, "train/runs", np.vstack(
            [blocks["train/runs"], [[0, 0, 2**63 - 1], [0, 0, 2**63 - 1], [0, 0, 2]]])),
        # Steps whose product with the train run's 20 steps wraps to 0, so
        # that first and last start look in range.
        lambda meta, blocks: blocks["train/runs"].__setitem__((0, 1), 2**62),
        lambda meta, blocks: blocks["train/runs"].__setitem__((0, 1), -2**63),
        # Labels as int64, the per-window layout's dtype.
        lambda meta, blocks: _set(blocks, "test/labels", blocks["test/labels"].astype(np.int64)),
    ])
    def test_metadata_must_match_the_blocks(self, tmp_path, corrupt):
        path = tmp_path / "ds.mtabl"
        meta, blocks = _dataset_cache(path)
        corrupt(meta, blocks)
        write_container(path, "dataset", meta, list(blocks.items()))
        with pytest.raises(FormatError):
            load_dataset(path)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_metadata_raises_only_format_error(self, tmp_path, data):
        path = tmp_path / "ds.mtabl"
        meta, blocks = _dataset_cache(path)
        value = st.none() | st.booleans() | st.integers(-2, 40) | st.text(max_size=3)
        value = st.recursive(value, lambda inner: st.lists(inner, max_size=3)
                             | st.dictionaries(st.sampled_from(
                                 ["train", "validation", "test", "files"]), inner, max_size=3),
                             max_leaves=6)
        for _ in range(data.draw(st.integers(1, 3))):
            how = data.draw(st.sampled_from(["meta", "count", "drop", "label", "run"]))
            if how == "meta":
                key = data.draw(st.sampled_from(
                    ["sample_dims", "counts", "has_stats", "provenance"]))
                if data.draw(st.booleans()):
                    meta.pop(key, None)
                else:
                    meta[key] = data.draw(value)
            elif how == "count" and isinstance(meta.get("counts"), dict):
                part = data.draw(st.sampled_from(["train", "validation", "test"]))
                meta["counts"][part] = data.draw(value)
            elif how == "drop" and blocks:
                blocks.pop(data.draw(st.sampled_from(sorted(blocks))))
            elif how == "label":
                name = data.draw(st.sampled_from(["train", "validation", "test"]))
                labels = blocks.get(f"{name}/labels")
                if labels is not None and labels.size:
                    labels[data.draw(st.integers(0, len(labels) - 1)), 0] = \
                        data.draw(st.integers(-3, 5))
            elif how == "run":
                name = data.draw(st.sampled_from(["train", "validation", "test"]))
                runs = blocks.get(f"{name}/runs")
                if runs is not None and runs.size:
                    at = (data.draw(st.integers(0, len(runs) - 1)), data.draw(st.integers(0, 2)))
                    runs[at] = data.draw(st.integers(-3, 200) | st.sampled_from(
                        [2**62, -2**62, 2**63 - 1, -2**63]))
        write_container(path, "dataset", meta, list(blocks.items()))
        try:
            loaded = load_dataset(path)
        except FormatError:
            return
        # Whatever loads must be consistent with what it claims.
        for _, part in loaded.partitions():
            assert part.x.shape == (*meta["sample_dims"], len(part))
            for sample in part:
                assert sample.x.shape == tuple(meta["sample_dims"])
                assert sample.label in (0, 1, 2)

    def test_version_1_cache_rejected_by_version(self, tmp_path):
        path = tmp_path / "ds.mtabl"
        _dataset_cache(path)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC):len(MAGIC) + 4] = struct.pack("<I", 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unsupported format version 1"):
            load_dataset(path)

    def test_per_window_cache_names_its_missing_runs_block(self, tmp_path):
        path = tmp_path / "ds.mtabl"
        meta, blocks = _dataset_cache(path)
        _per_window_layout(blocks)
        write_container(path, "dataset", meta, list(blocks.items()))
        with pytest.raises(FormatError, match="block 'train/runs' is missing"):
            load_dataset(path)

    def test_load_peak_memory_stays_near_the_cache_size(self, tmp_path):
        # Blocks are read straight into their arrays, so loading holds the
        # cache's payload once, not the file's bytes as well.
        path = tmp_path / "ds.mtabl"
        save_dataset(path, synth_generate(6000, n_features=40, window=10, seed=0))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size > 15e6 and peak < 1.1 * size
