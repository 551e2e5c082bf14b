"""Mini-batch training with early stopping that restores the best weights."""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .layers import Conv1D, ModelGraph
from .losses import bce_loss, bce_loss_grad
from .optim import Adam

logger = logging.getLogger(__name__)


class TrainingError(RuntimeError):
    """Training hit a non-finite loss or another unrecoverable state."""


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 50
    patience: int = 3
    seed: int = 42

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size <= 0 or self.max_epochs <= 0 or self.patience <= 0:
            raise ValueError("batch_size, max_epochs and patience must be positive")


@dataclass(frozen=True)
class EncodedDataset:
    """Index sequences, true lengths, and binary labels ready for a model."""

    X: np.ndarray
    lengths: np.ndarray
    y: np.ndarray
    ids: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.X.ndim != 2:
            raise ValueError("X must be (n, steps)")
        n = self.X.shape[0]
        if self.lengths.shape != (n,) or self.y.shape != (n,):
            raise ValueError("lengths and y must be one entry per row of X")
        if self.ids and len(self.ids) != n:
            raise ValueError("ids must match the number of rows")

    def __len__(self) -> int:
        return self.X.shape[0]


class EarlyStopper:
    """Stop after `patience` consecutive epochs without a lower loss."""

    def __init__(self, patience: int):
        self.patience = int(patience)
        self.best = math.inf
        self.best_epoch = None
        self.waited = 0

    def update(self, epoch: int, loss: float) -> bool:
        """Record an epoch's loss; returns True if it improved on the best."""
        if loss < self.best:
            self.best = loss
            self.best_epoch = epoch
            self.waited = 0
            return True
        self.waited += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.waited >= self.patience


# Inference runs 128-row batches, each in blocks of at most 128 x 96 cells
# (61 rows at the full 200 columns), so the largest inference arrays, and
# peak memory, hardly depend on how long the longest tweets are.
INFERENCE_BATCH = 128
INFERENCE_CELLS = 128 * 96
# BLAS multiplies a matrix of only a few rows with other kernels, which sum
# in another order (OpenBLAS on AVX-512 does so below 6 rows for cnn's hidden
# Dense layer at paper size), so no block is smaller.
MIN_BLOCK_ROWS = 8


def _inference_width(model: ModelGraph, steps: int, longest: int) -> int:
    """How many of ``steps`` padded columns a batch with rows up to ``longest`` needs.

    Every inference layer ignores padding exactly, so the longest row would
    do, but the width also covers the widest convolution window, which the
    fallback for rows shorter than it reads, and is at least 16: a
    convolution's GEMM over only a few output rows can take a BLAS
    small-matrix kernel that sums its 600- or 800-long inner dimension in
    another order (OpenBLAS on AVX-512 does so for width 8 at paper size).
    """
    layers = list(model.layers)
    for layer in layers:  # appending while iterating also walks nested branches
        layers.extend(l for branch in getattr(layer, "branches", ()) for l in branch)
    widest = max((l.width for l in layers if isinstance(l, Conv1D)), default=1)
    return min(steps, max(longest, widest, 16))


def predict_proba(model: ModelGraph, X, lengths) -> np.ndarray:
    """Deterministic inference probabilities, computed in batches.

    Rows run in length order and their probabilities are put back in input
    order, so each batch holds rows of similar length and the cost follows
    each row's own length. Each batch is cut to the columns its longest row
    needs (see ``_inference_width``) and runs in blocks of at most
    ``INFERENCE_CELLS`` cells; a block of fewer than ``MIN_BLOCK_ROWS`` rows
    is filled up with copies of its own rows, whose outputs are dropped. A
    row's probability is the same bit for bit whatever the padding and
    whichever rows share its batch.
    """
    lengths = np.asarray(lengths)
    order = np.argsort(lengths, kind="stable")
    X, lengths = np.asarray(X)[order], lengths[order]
    pieces = []
    for start in range(0, X.shape[0], INFERENCE_BATCH):
        stop = min(start + INFERENCE_BATCH, X.shape[0])
        width = _inference_width(model, X.shape[1], int(lengths[start:stop].max()))
        rows = max(MIN_BLOCK_ROWS, min(INFERENCE_BATCH, INFERENCE_CELLS // max(width, 1)))
        for block in range(start, stop, rows):
            n = min(rows, stop - block)
            idx = block + np.arange(max(n, MIN_BLOCK_ROWS)) % n
            pieces.append(model.forward(X[idx, :width], lengths[idx], train=False)[:n])
    probs = np.concatenate(pieces) if pieces else np.zeros(0)
    out = np.empty_like(probs)
    out[order] = probs
    return out


def binary_accuracy(probs, targets, threshold: float = 0.5) -> float:
    probs = np.asarray(probs)
    targets = np.asarray(targets)
    return float(np.mean((probs >= threshold) == (targets >= 0.5)))


def train(
    model: ModelGraph,
    train_data: EncodedDataset,
    val_data: EncodedDataset,
    config: TrainConfig,
) -> dict:
    """Train in place; returns a history dict.

    Stops when the validation loss fails to improve for ``config.patience``
    consecutive epochs or at ``config.max_epochs``; the weights of the best
    validation epoch are restored before returning. Deterministic for a
    fixed seed.
    """
    if len(train_data) == 0 or len(val_data) == 0:
        raise ValueError("train and validation sets must be non-empty")
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    stopper = EarlyStopper(config.patience)
    best_weights = None
    history: dict = {"train_loss": [], "val_loss": []}
    n = len(train_data)
    epochs_run = 0

    for epoch in range(1, config.max_epochs + 1):
        epochs_run = epoch
        order = rng.permutation(n)
        total = 0.0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            model.zero_grad()
            probs = model.forward(
                train_data.X[idx], train_data.lengths[idx], train=True, rng=rng
            )
            loss, dprobs = bce_loss_grad(probs, train_data.y[idx])
            if not math.isfinite(loss):
                raise TrainingError(
                    f"non-finite training loss at epoch {epoch}, batch {batch_index}"
                )
            model.backward(dprobs)
            optimizer.step()
            total += loss * len(idx)
        train_loss = total / n

        val_probs = predict_proba(model, val_data.X, val_data.lengths)
        val_loss = bce_loss(val_probs, val_data.y)
        if not math.isfinite(val_loss):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")

        history["train_loss"].append(train_loss)
        history["val_loss"].append(val_loss)
        logger.info(
            "epoch %d/%d train_loss=%.4f val_loss=%.4f",
            epoch, config.max_epochs, train_loss, val_loss,
        )

        if stopper.update(epoch, val_loss):
            best_weights = model.get_weights()
        if stopper.should_stop:
            logger.info("early stop at epoch %d (best epoch %d)", epoch, stopper.best_epoch)
            break

    if best_weights is not None:
        model.set_weights(best_weights)
    history["best_epoch"] = stopper.best_epoch
    history["epochs_run"] = epochs_run
    return history
