import json
import struct

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


class TestDatasetValidation:
    @pytest.mark.parametrize("corrupt", [
        lambda meta, blocks: meta.pop("sample_dims"),
        lambda meta, blocks: _set(meta, "sample_dims", [3, 5]),
        lambda meta, blocks: _set(meta, "sample_dims", [4.0, 5]),
        lambda meta, blocks: _set(meta, "counts", [21, 4, 5]),
        lambda meta, blocks: _set(meta["counts"], "train", meta["counts"]["train"] + 1),
        lambda meta, blocks: _set(meta["counts"], "test", -1),
        lambda meta, blocks: blocks.pop("test/x"),
        lambda meta, blocks: _set(blocks, "train/x", blocks["train/x"][:, :-1]),
        lambda meta, blocks: _set(blocks, "train/labels", blocks["train/labels"][:-1]),
        lambda meta, blocks: _set(blocks, "train/labels", blocks["train/labels"] * 1.0),
        lambda meta, blocks: blocks["validation/labels"].__setitem__((0, 0), 7),
        lambda meta, blocks: blocks["test/labels"].__setitem__((1, 0), -1),
        lambda meta, blocks: _set(meta, "has_stats", False),
        lambda meta, blocks: blocks.pop("stats/std"),
        lambda meta, blocks: _set(blocks, "stats/mean", blocks["stats/mean"][:2]),
        lambda meta, blocks: _set(meta, "provenance", "days"),
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
            how = data.draw(st.sampled_from(["meta", "count", "drop", "label"]))
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
        write_container(path, "dataset", meta, list(blocks.items()))
        try:
            loaded = load_dataset(path)
        except FormatError:
            return
        # Whatever loads must be consistent with what it claims.
        for _, part in loaded.partitions():
            for sample in part:
                assert sample.x.shape == tuple(meta["sample_dims"])
                assert sample.label in (0, 1, 2)
