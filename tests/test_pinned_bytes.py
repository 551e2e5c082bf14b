"""Seeded runs write the pinned bytes.

Through ``offlang.cli.main``, in child processes with one BLAS thread, the
three architectures train on the inputs ``test_thread_count.py`` builds
(2 epochs, seed 1) and a three-member ``predict`` follows. The SHA-256 of
every file written must match the pins recorded for the OpenBLAS core the
run uses: kernels for another core may sum in another order, so on a core
with no pins that test skips and names the core. ``build-lexicon`` and a
``taskb`` with that lexicon run no BLAS code, so their pins hold on every
core.

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
        "blstm-att.bin": "0c4cb0c91f5feaefb473ec88170def8dc404f9d5060649458123b96cedec0e4d",
        "blstm-att.bin.history.json":
            "143f39652de998441b0f91ea36d6af44c917cf247576980ebfcdc8f1e87cf728",
        "blstm-bgru.bin": "e75ffc8720ed1f3b2f26ad4a53e31c275d85f3b08fde4003c9b5cbac0471abb5",
        "blstm-bgru.bin.history.json":
            "ee3fe01437079bf9ebf42df2731a0507520242eb765466e76c03235d39f5e95e",
        "cnn.bin": "0ddb8727bbf2212640aa5f600075c03b25915130a956d64632352a51d307b344",
        "cnn.bin.history.json": "843e27f5fabd43c03862790a4c9d6741a883669b973962eaa90ab52ac9975c76",
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
