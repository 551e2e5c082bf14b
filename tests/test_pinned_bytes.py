"""Seeded runs write the pinned bytes.

Through ``offlang.cli.main``, in child processes with one BLAS thread, the
three architectures train on the inputs ``test_thread_count.py`` builds
(2 epochs, seed 1) and a three-member ``predict`` follows. The SHA-256 of
every file written must match the pins recorded for the OpenBLAS core the
run uses: kernels for another core may sum in another order, so on a core
with no pins that test skips and names the core. ``build-lexicon`` and a
``taskb`` with that lexicon run no BLAS code, so their pins hold on every
core. ``OPENBLAS_CORETYPE=Haswell`` makes OpenBLAS run (and report) its
Haswell kernels on any x86-64 host, so the ``Haswell`` pins can be checked
anywhere.

A change that keeps the bytes leaves ``PINS`` and ``TASKB_PINS`` alone; a
change of behaviour updates them, and says which files moved.
"""
import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import write_small_paper_inputs

SRC = Path(__file__).resolve().parents[1] / "src"

ARCHS = ("cnn", "blstm-att", "blstm-bgru")

PINS = {
    "SkylakeX": {
        "blstm-att.bin": "ad9cf73249b104f9c5394e75f048332f307bc768f5a389b03a9f2a1ec96a7c93",
        "blstm-att.bin.history.json":
            "143f39652de998441b0f91ea36d6af44c917cf247576980ebfcdc8f1e87cf728",
        "blstm-bgru.bin": "9254b86f9167eeb2934a38bb45561ada80e4993e932727d9e4ae3854d4aa0a79",
        "blstm-bgru.bin.history.json":
            "bd4d6282afd9829a3acb4f9433b477f0a4b00d1274ecf5c774b6b94edd28e3f9",
        "cnn.bin": "0ddb8727bbf2212640aa5f600075c03b25915130a956d64632352a51d307b344",
        "cnn.bin.history.json": "843e27f5fabd43c03862790a4c9d6741a883669b973962eaa90ab52ac9975c76",
        "preds.tsv": "973a535b8cec46b3e9572bf0918d5aa14170048c94cc6b03939717107acea975",
    },
    "Haswell": {
        "blstm-att.bin": "1f8baa9c77b977bba783d0f06aa2b35666d318c5753b447512379bef2bb212d8",
        "blstm-att.bin.history.json":
            "859db7a5eb96f4b70a672cf2b3bde1284664aa04634496642d3fdcb1f0a3f4a1",
        "blstm-bgru.bin": "2ee201c13ed11d712a87292bc90c29a4265c2f5cf2c6b1d99adfa1c2c8eb4e59",
        "blstm-bgru.bin.history.json":
            "6099ecd3c1adca69cc7bb0705492120e7c3bc55e51e0a36963fd58550591a745",
        "cnn.bin": "6d91e8beb7f77d4d54b7e21526384b57a9e1c13c21418942965b29e5ea8c513d",
        "cnn.bin.history.json": "a21b892f700e3a45f6a9f9c9b12c7640fa972eb3b7ef40f5f43b4db118eb5dae",
        "preds.tsv": "973a535b8cec46b3e9572bf0918d5aa14170048c94cc6b03939717107acea975",
    },
}

TASKB_PINS = {
    "lexicon.txt": "c174963cbf4d5f9371255278ead7aae7d2273a41c2ecbb44ce7e8f4b8dca6004",
    "taskb.tsv": "da020fc8846dc8e619074fdb05204afd8c2783e6eb9bc47f34c58893ae8b52b9",
}


def openblas_core() -> str | None:
    """The core numpy's bundled OpenBLAS chose at run time, or None if unknown."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def run_cli(*argv):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "offlang.cli", *map(str, argv)],
                            env=env, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr[-2000:]


def digests(out):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


def test_seeded_runs_write_the_pinned_bytes(tmp_path):
    core = openblas_core()
    if core not in PINS:
        pytest.skip(f"no pins for OpenBLAS core {core!r}")
    data, embeddings = write_small_paper_inputs(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    models = [out / f"{arch}.bin" for arch in ARCHS]
    for arch, model in zip(ARCHS, models):
        run_cli("train", "--arch", arch, "--data", data, "--embeddings", embeddings,
                "--out", model, "--max-epochs", "2", "--seed", "1")
    run_cli("predict", *models, "--data", data, "--out", out / "preds.tsv")
    assert digests(out) == PINS[core]


def test_taskb_writes_the_pinned_bytes_on_any_core(tmp_path):
    data, _ = write_small_paper_inputs(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    run_cli("build-lexicon", "--data", data, "--k", "5", "--out", out / "lexicon.txt")
    run_cli("taskb", "--data", data, "--lexicon", out / "lexicon.txt",
            "--out", out / "taskb.tsv")
    assert digests(out) == TASKB_PINS
