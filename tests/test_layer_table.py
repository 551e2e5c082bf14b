"""The table of layer types in `nn.layers`, and the model header built from it."""
import hashlib
import json
import struct

import pytest

from conftest import write_olid
from offlang.cli import EXIT_RUNTIME, main
from offlang.nn import ModelFormatError, load_model, save_model
from offlang.nn import layers as L
from test_serialization import _rewrite_header, small_models

ARCHS = ["cnn", "blstm_att", "blstm_bgru"]

# SHA-256 of the JSON header `save_model` writes for each of `small_models`,
# so that key order and int/float types cannot drift without a test failing
HEADER_SHA256 = {
    "cnn": "819417f2d314804c22d593e0100b76b28901dc0dfd2aa06c1c9325a81a2c0b6b",
    "blstm_att": "4135fe9f000a19fc79e030ee2a0c0e909a4dbda1471307e5263ef172a2d57e5c",
    "blstm_bgru": "2044f8e685f1691773dc53d739ddbc0cc5df99a1b4d68c3bfe84ee37ec5dcbf1",
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _nested(configs):
    for config in configs:
        yield config
        for branch in config.get("branches", []):
            yield from _nested(branch)


def test_every_layer_class_has_one_table_entry():
    layers = {c for c in _subclasses(L.Layer) if c.__module__ == L.__name__}
    concrete = {c for c in layers if not c.__subclasses__()}  # Bidirectional is a base
    assert len({c.type for c in concrete}) == len(concrete)
    assert {c.type: c for c in concrete} == L.LAYER_TYPES


@pytest.mark.parametrize("index", [0, 1, 2], ids=ARCHS)
def test_build_layer_gives_back_each_config(tiny_matrix, index):
    model = small_models(tiny_matrix)[index]
    for config in _nested([layer.config() for layer in model.layers]):
        rebuilt = L.build_layer(config).config()
        assert rebuilt == config
        assert json.dumps(rebuilt) == json.dumps(config)  # key order and int/float types too


@pytest.mark.parametrize("index", [0, 1, 2], ids=ARCHS)
def test_header_bytes_are_pinned(tmp_path, tiny_matrix, index):
    model = small_models(tiny_matrix)[index]
    path = tmp_path / "model.bin"
    save_model(path, model, {"hello": 2, "world": 3}, max_len=12)
    blob = path.read_bytes()
    (length,) = struct.unpack("<Q", blob[8:16])
    assert hashlib.sha256(blob[16 : 16 + length]).hexdigest() == HEADER_SHA256[ARCHS[index]]


@pytest.mark.parametrize("nested", [False, True], ids=["top-level", "in-branch"])
def test_unknown_layer_type_rejected(tmp_path, tiny_matrix, nested):
    path = tmp_path / "m.bin"
    save_model(path, small_models(tiny_matrix)[0], {"w": 2}, max_len=12)

    def edit(header):
        parallel = next(c for c in header["layers"] if "branches" in c)
        layer = parallel["branches"][0][-1] if nested else header["layers"][-1]
        layer["type"] = "dense_v2"

    _rewrite_header(path, edit)
    with pytest.raises(ModelFormatError, match="unknown layer type.*dense_v2"):
        load_model(path)


@pytest.mark.parametrize("max_len", [0, -3])
def test_max_len_below_one_rejected(tmp_path, tiny_matrix, max_len):
    path = tmp_path / "m.bin"
    save_model(path, small_models(tiny_matrix)[0], {"w": 2}, max_len=max_len)
    with pytest.raises(ModelFormatError, match="max_len"):
        load_model(path)


def test_predict_names_a_bad_max_len(tmp_path, tiny_matrix, capsys):
    model = tmp_path / "m.bin"
    save_model(model, small_models(tiny_matrix)[0], {"w": 2}, max_len=-3)
    data = write_olid(tmp_path / "test.tsv", [("1", "w w", "OFF", "TIN")])
    code = main(["predict", str(model), "--data", str(data), "--out", str(tmp_path / "p.tsv")])
    assert code == EXIT_RUNTIME
    assert "max_len -3 is below 1" in capsys.readouterr().err
