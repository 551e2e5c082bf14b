"""Trained bytes do not depend on the BLAS thread count.

Each architecture is trained at paper size (200-d vectors, 200 steps) in
two child processes, one with one BLAS thread and one with two; the model
files must be byte-identical. The split leaves a last training batch of 6
rows: OpenBLAS sums a product over 6 x 200 positions in an order that
depends on the thread count, unless the sum is cut into fixed chunks.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_small_paper_inputs

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="two BLAS threads need two cores"
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("threads")
    return (root, *write_small_paper_inputs(root))


def train_digest(inputs, arch, threads):
    root, data, embeddings = inputs
    out = root / f"{arch}-{threads}.bin"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "offlang.cli", "train", "--arch", arch, "--data", str(data),
         "--embeddings", str(embeddings), "--out", str(out), "--max-epochs", "2",
         "--seed", "1"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("arch", ["cnn", "blstm-att", "blstm-bgru"])
def test_trained_bytes_match_at_one_and_two_blas_threads(inputs, arch):
    assert train_digest(inputs, arch, 1) == train_digest(inputs, arch, 2)
