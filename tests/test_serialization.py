import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offlang.models import build_blstm_attention, build_blstm_bgru, build_cnn
from offlang.nn import ModelFormatError, load_model, predict_proba, save_model
from offlang.nn.layers import layer_class


def small_models(tiny_matrix):
    return [
        build_cnn(tiny_matrix, filters=4, hidden=4, expected_dim=16, seed=1),
        build_blstm_attention(tiny_matrix, units=3, hidden=4, expected_dim=16, seed=2),
        build_blstm_bgru(tiny_matrix, units=3, hidden=4, expected_dim=16, seed=3),
    ]


@pytest.mark.parametrize("index", [0, 1, 2], ids=["cnn", "blstm_att", "blstm_bgru"])
def test_round_trip_is_bit_exact(tmp_path, tiny_matrix, index):
    model = small_models(tiny_matrix)[index]
    vocab = {"hello": 2, "world": 3}
    path = tmp_path / "model.bin"
    save_model(path, model, vocab, max_len=12)
    loaded, loaded_vocab, max_len = load_model(path)
    assert loaded_vocab == vocab
    assert max_len == 12
    assert loaded.architecture == model.architecture
    for original, restored in zip(model.parameters(), loaded.parameters()):
        assert original.name == restored.name
        assert np.array_equal(original.value, restored.value)
    # a second save byte-matches the first
    second = tmp_path / "model2.bin"
    save_model(second, loaded, loaded_vocab, max_len)
    assert path.read_bytes() == second.read_bytes()


def test_loaded_model_predicts_identically(tmp_path, tiny_matrix):
    model = build_cnn(tiny_matrix, filters=4, hidden=4, expected_dim=16, seed=4)
    X = np.random.default_rng(0).integers(0, 20, size=(5, 12)).astype(np.int32)
    lengths = np.array([12, 8, 4, 2, 0], dtype=np.int32)
    before = predict_proba(model, X, lengths)
    path = tmp_path / "m.bin"
    save_model(path, model, {"w": 2}, max_len=12)
    loaded, _, _ = load_model(path)
    after = predict_proba(loaded, X, lengths)
    assert np.array_equal(before, after)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(path)


def test_truncated_file_rejected(tmp_path, tiny_matrix):
    model = build_cnn(tiny_matrix, filters=4, hidden=4, expected_dim=16, seed=4)
    path = tmp_path / "m.bin"
    save_model(path, model, {"w": 2}, max_len=12)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(path)


@pytest.mark.parametrize("index", [0, 1, 2], ids=["cnn", "blstm_att", "blstm_bgru"])
def test_parameter_count_of_each_layer_config(tiny_matrix, index):
    model = small_models(tiny_matrix)[index]
    for layer in model.layers:
        config = layer.config()
        shapes = layer_class(config).parameter_shapes(config)
        assert shapes == [p.value.shape for p in layer.parameters()]


def _container(header: bytes, declared_len: int | None = None) -> bytes:
    length = len(header) if declared_len is None else declared_len
    return b"OFNN" + struct.pack("<I", 1) + struct.pack("<Q", length) + header


def _rewrite_header(path, edit):
    blob = path.read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + length])
    edit(header)
    path.write_bytes(_container(json.dumps(header).encode()) + blob[16 + length :])


@pytest.mark.parametrize("header", [b"{not json", b"\xff\xfe{}"], ids=["json", "utf8"])
def test_undecodable_header_rejected(tmp_path, header):
    path = tmp_path / "m.bin"
    path.write_bytes(_container(header))
    with pytest.raises(ModelFormatError, match="bad header"):
        load_model(path)


@pytest.mark.parametrize("key", ["architecture", "layers", "parameters", "vocabulary", "max_len"])
def test_header_missing_key_rejected(tmp_path, tiny_matrix, key):
    model = build_cnn(tiny_matrix, filters=4, hidden=4, expected_dim=16, seed=4)
    path = tmp_path / "m.bin"
    save_model(path, model, {"w": 2}, max_len=12)
    _rewrite_header(path, lambda header: header.pop(key))
    with pytest.raises(ModelFormatError, match=key):
        load_model(path)


@pytest.mark.parametrize("size", [4, 6, 8, 12], ids=["no-version", "half-version",
                                                      "no-length", "half-length"])
def test_file_ending_before_header_rejected(tmp_path, size):
    path = tmp_path / "m.bin"
    path.write_bytes(_container(b"{}")[:size])
    with pytest.raises(ModelFormatError, match="file ends inside"):
        load_model(path)


def test_header_length_beyond_file_rejected(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(_container(b"{}", declared_len=2**62))
    with pytest.raises(ModelFormatError, match="exceeds"):
        load_model(path)


@pytest.mark.parametrize(
    "index, layer_type, key",
    [(0, "embedding", "vocab_size"), (1, "bilstm", "units"), (2, "bigru", "units")],
    ids=["embedding-vocab", "bilstm-units", "bigru-units"],
)
def test_huge_layer_size_rejected_before_allocation(tmp_path, tiny_matrix, index, layer_type, key):
    path = tmp_path / "m.bin"
    save_model(path, small_models(tiny_matrix)[index], {"w": 2}, max_len=12)

    def edit(header):
        layer = next(c for c in header["layers"] if c["type"] == layer_type)
        layer[key] = 10**12  # 10^12 x 16 floats of embedding alone would be 64 TB

    _rewrite_header(path, edit)
    with pytest.raises(ModelFormatError, match="the layers need"):
        load_model(path)


INF = float("inf")  # json writes it as the bare word Infinity


@pytest.mark.parametrize("edit", [
    lambda header: header["layers"][0].update(vocab_size=INF),
    lambda header: header.update(max_len=INF),
    lambda header: header["vocabulary"].update(w=INF),
], ids=["vocab_size", "max_len", "vocabulary"])
def test_infinite_size_or_index_rejected(tmp_path, tiny_matrix, edit):
    path = tmp_path / "m.bin"
    save_model(path, small_models(tiny_matrix)[0], {"w": 2}, max_len=12)
    _rewrite_header(path, edit)
    with pytest.raises(ModelFormatError, match="bad header"):
        load_model(path)


@pytest.mark.parametrize("header", [
    b'{"layers": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    b'{"architecture": "cnn", "max_len": 3, "parameters": [], "vocabulary": {}, "layers": ['
    + b'{"type": "parallel", "branches": [[' * 3000
    + b'{"type": "dropout", "rate": 0.5}' + b"]]}" * 3000 + b"]}",
], ids=["nested-lists", "nested-parallel"])
def test_deeply_nested_header_rejected(tmp_path, header):
    path = tmp_path / "m.bin"
    path.write_bytes(_container(header))
    with pytest.raises(ModelFormatError, match="bad header"):
        load_model(path)


@pytest.fixture(scope="module")
def bgru_container(tmp_path_factory):
    matrix = np.random.default_rng(1).uniform(-0.05, 0.05, size=(20, 16)).astype(np.float32)
    path = tmp_path_factory.mktemp("bgru") / "m.bin"
    save_model(path, build_blstm_bgru(matrix, units=3, hidden=4, expected_dim=16, seed=3),
               {"w": 2, "x": 3}, max_len=12)
    return path.read_bytes()


def _value_paths(node, path=()):
    """Every path to a value inside the parsed header, nested ones included."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from _value_paths(child, path + (key,))


def _truncated(blob, data):
    return blob[: data.draw(st.integers(0, len(blob) - 1), label="size")]


def _flipped(blob, data):
    (length,) = struct.unpack("<Q", blob[8:16])
    flips = data.draw(st.lists(st.tuples(st.integers(0, 15 + length), st.integers(1, 255)),
                               min_size=1, max_size=4), label="flips")
    out = bytearray(blob)
    for index, mask in flips:
        out[index] ^= mask
    return bytes(out)


def _swapped(blob, data):
    (length,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + length])
    *parents, last = data.draw(st.sampled_from(list(_value_paths(header))), label="path")
    node = header
    for key in parents:
        node = node[key]
    node[last] = data.draw(st.sampled_from([None, -1, 2**64, 1e400, "", [], {}]), label="value")
    return _container(json.dumps(header).encode()) + blob[16 + length :]


@given(mutate=st.sampled_from([_truncated, _flipped, _swapped]), data=st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_container_raises_only_model_format_error(
    tmp_path_factory, bgru_container, mutate, data
):
    path = tmp_path_factory.getbasetemp() / "mutated.bin"
    path.write_bytes(mutate(bgru_container, data))
    try:
        load_model(path)
    except ModelFormatError:
        pass
