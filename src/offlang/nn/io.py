"""Versioned binary model container.

Layout: 4-byte magic, little-endian uint32 format version, uint64 JSON
header length, the UTF-8 JSON header, then the raw parameter arrays
concatenated in declaration order as little-endian 32-bit floats. The
header records the architecture tag, layer configs, parameter shapes, the
sequence length, and the vocabulary, so a write/read round trip is exact.
"""
from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from . import layers as L

MAGIC = b"OFNN"
FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """The file is not a valid model container."""


def _build_layer(config: dict, dtype=np.float32):
    kind = config.get("type")
    if kind == "embedding":
        matrix = np.zeros((config["vocab_size"], config["dim"]), dtype=dtype)
        return L.Embedding(matrix, config["word_dropout"])
    if kind == "dropout":
        return L.Dropout(config["rate"])
    if kind == "dense":
        return L.Dense(config["in_dim"], config["units"], config["activation"], rng=None, dtype=dtype)
    if kind == "conv1d":
        return L.Conv1D(config["in_dim"], config["filters"], config["width"], rng=None, dtype=dtype)
    if kind == "max_over_time":
        return L.MaxOverTime()
    if kind == "avg_over_time":
        return L.AvgOverTime()
    if kind == "attention":
        return L.AdditiveAttention(config["in_dim"], config["units"], rng=None, dtype=dtype)
    if kind == "bilstm":
        return L.BiLSTM(
            config["in_dim"], config["units"], config["dropout"], config["return_sequences"],
            rng=None, dtype=dtype,
        )
    if kind == "bigru":
        return L.BiGRU(config["in_dim"], config["units"], config["dropout"], rng=None, dtype=dtype)
    if kind == "parallel":
        return L.ParallelConcat(
            [[_build_layer(s, dtype) for s in branch] for branch in config["branches"]]
        )
    raise ModelFormatError(f"unknown layer type in model file: {kind!r}")


def _parameter_count(config: dict) -> int:
    """Number of floats the layer ``_build_layer(config)`` holds, found
    without allocating it, so a header cannot make the loader allocate
    more than the file could fill. A negative size counts as 0; building
    the layer rejects it."""

    def size(key):
        return max(int(config[key]), 0)

    kind = config.get("type")
    if kind == "embedding":
        return size("vocab_size") * size("dim")
    if kind == "dense":
        return (size("in_dim") + 1) * size("units")
    if kind == "conv1d":
        return (size("width") * size("in_dim") + 1) * size("filters")
    if kind == "attention":  # W, b and the score vector v
        return (size("in_dim") + 2) * size("units")
    if kind in ("bilstm", "bigru"):  # W, U and b per gate block, for both directions
        units, gates = size("units"), (L.BiLSTM if kind == "bilstm" else L.BiGRU).gates
        return 2 * gates * units * (size("in_dim") + units + 1)
    if kind == "parallel":
        return sum(_parameter_count(c) for branch in config["branches"] for c in branch)
    return 0


def save_model(path, model: L.ModelGraph, vocabulary: dict[str, int], max_len: int):
    """Write the model; parameters are stored as little-endian float32."""
    params = model.parameters()
    header = {
        "format_version": FORMAT_VERSION,
        "architecture": model.architecture,
        "max_len": int(max_len),
        "layers": [layer.config() for layer in model.layers],
        "parameters": [{"name": p.name, "shape": list(p.value.shape)} for p in params],
        "vocabulary": dict(vocabulary),
    }
    header_bytes = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for p in params:
            fh.write(np.ascontiguousarray(p.value, dtype="<f4").tobytes())


def _read_exact(fh, size: int, path, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ModelFormatError(f"{path}: file ends inside the {what}")
    return data


def load_model(path):
    """Read a model container; returns (model, vocabulary, max_len).

    Any malformed or truncated file raises ModelFormatError.
    """
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ModelFormatError(f"{path}: bad magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path, "format version"))
        if version != FORMAT_VERSION:
            raise ModelFormatError(f"{path}: unsupported format version {version}")
        (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, path, "header length"))
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if header_len > remaining:
            raise ModelFormatError(
                f"{path}: header length {header_len} exceeds the {remaining} bytes left"
            )
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            needed = 4 * sum(_parameter_count(c) for c in header["layers"])
            if needed > remaining - header_len:
                raise ModelFormatError(
                    f"{path}: truncated parameter data: the layers need {needed} bytes,"
                    f" {remaining - header_len} follow the header"
                )
            model = L.ModelGraph(
                header["architecture"], [_build_layer(c) for c in header["layers"]]
            )
            declared = [(str(m["name"]), tuple(m["shape"])) for m in header["parameters"]]
            vocabulary = {str(k): int(v) for k, v in header["vocabulary"].items()}
            max_len = int(header["max_len"])
        except ModelFormatError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError, OverflowError,
                RecursionError) as exc:
            # ValueError covers undecodable UTF-8, invalid JSON and bad layer values,
            # OverflowError an Infinity size or index, RecursionError deep nesting
            raise ModelFormatError(f"{path}: bad header: {exc!r}") from None
        params = model.parameters()
        if len(declared) != len(params):
            raise ModelFormatError(f"{path}: parameter list does not match architecture")
        for p, (name, shape) in zip(params, declared):
            if p.value.shape != shape:
                raise ModelFormatError(
                    f"{path}: shape mismatch for {name}: "
                    f"{shape} in header vs {p.value.shape} in graph"
                )
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            raw = fh.read(count * 4)
            if len(raw) != count * 4:
                raise ModelFormatError(f"{path}: truncated parameter data")
            p.value[...] = np.frombuffer(raw, dtype="<f4").reshape(shape)
        trailing = fh.read(1)
        if trailing:
            raise ModelFormatError(f"{path}: trailing bytes after parameter data")
    return model, vocabulary, max_len
