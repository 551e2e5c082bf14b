"""The three offensive/not-offensive architectures and their averaging ensemble.

All three stacks share the same front (trainable embedding lookup with 0.3
word dropout) and back (sigmoid output unit); they differ in how the token
sequence is pooled into one feature vector:

  cnn        parallel width-2/3/4 convolutions, 256 filters each, masked
             max-over-time, concat (768), dropout 0.3, dense 256 relu
  blstm_att  BiLSTM 64 units/direction (input dropout 0.2), additive
             attention over the state sequence (128), dense 128 relu
  blstm_bgru BiLSTM 64 (dropout 0.3) into BiGRU 64 (dropout 0.3), masked
             max-over-time and mean-over-time concatenated (256),
             dense 128 relu
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset, DatasetRecord, NOT, OFF, stratified_split
from .embeddings import MAX_LEN, Vocabulary, build_vocabulary, encode_batch
from .nn import (
    AdditiveAttention,
    AvgOverTime,
    BiGRU,
    BiLSTM,
    Conv1D,
    Dense,
    Dropout,
    Embedding,
    EncodedDataset,
    MaxOverTime,
    ModelGraph,
    ParallelConcat,
    predict_proba,
)
from .nn.training import MIN_WIDTH
from .preprocess import PreprocessConfig, preprocess_pipeline

ARCH_CNN = "cnn"
ARCH_BLSTM_ATT = "blstm_att"
ARCH_BLSTM_BGRU = "blstm_bgru"

EMBEDDING_DIM = 200
WORD_DROPOUT = 0.3
# cnn's convolution windows; a sequence shorter than the widest cannot pass
CNN_WIDTHS = (2, 3, 4)


def _check_matrix(matrix: np.ndarray, expected_dim: int) -> np.ndarray:
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[1] != expected_dim:
        raise ValueError(
            f"embedding matrix must be (vocab, {expected_dim}), got {matrix.shape}"
        )
    return matrix


def build_cnn(
    matrix,
    *,
    filters: int = 256,
    hidden: int = 256,
    expected_dim: int = EMBEDDING_DIM,
    seed: int = 0,
    dtype=np.float32,
) -> ModelGraph:
    matrix = _check_matrix(matrix, expected_dim)
    rng = np.random.default_rng(seed)
    dim = matrix.shape[1]
    branches = [
        [Conv1D(dim, filters, width, rng=rng, dtype=dtype), MaxOverTime()] for width in CNN_WIDTHS
    ]
    layers = [
        Embedding(matrix.astype(dtype), WORD_DROPOUT),
        ParallelConcat(branches),
        Dropout(0.3),
        Dense(3 * filters, hidden, "relu", rng=rng, dtype=dtype),
        Dense(hidden, 1, "sigmoid", rng=rng, dtype=dtype),
    ]
    return ModelGraph(ARCH_CNN, layers)


def build_blstm_attention(
    matrix,
    *,
    units: int = 64,
    hidden: int = 128,
    expected_dim: int = EMBEDDING_DIM,
    seed: int = 0,
    dtype=np.float32,
) -> ModelGraph:
    matrix = _check_matrix(matrix, expected_dim)
    rng = np.random.default_rng(seed)
    dim = matrix.shape[1]
    state_dim = 2 * units
    layers = [
        Embedding(matrix.astype(dtype), WORD_DROPOUT),
        BiLSTM(dim, units, 0.2, return_sequences=True, rng=rng, dtype=dtype),
        AdditiveAttention(state_dim, state_dim, rng=rng, dtype=dtype),
        Dense(state_dim, hidden, "relu", rng=rng, dtype=dtype),
        Dense(hidden, 1, "sigmoid", rng=rng, dtype=dtype),
    ]
    return ModelGraph(ARCH_BLSTM_ATT, layers)


def build_blstm_bgru(
    matrix,
    *,
    units: int = 64,
    hidden: int = 128,
    expected_dim: int = EMBEDDING_DIM,
    seed: int = 0,
    dtype=np.float32,
) -> ModelGraph:
    matrix = _check_matrix(matrix, expected_dim)
    rng = np.random.default_rng(seed)
    dim = matrix.shape[1]
    state_dim = 2 * units
    layers = [
        Embedding(matrix.astype(dtype), WORD_DROPOUT),
        BiLSTM(dim, units, 0.3, return_sequences=True, rng=rng, dtype=dtype),
        BiGRU(state_dim, units, 0.3, rng=rng, dtype=dtype),
        ParallelConcat([[MaxOverTime()], [AvgOverTime()]]),
        Dense(2 * state_dim, hidden, "relu", rng=rng, dtype=dtype),
        Dense(hidden, 1, "sigmoid", rng=rng, dtype=dtype),
    ]
    return ModelGraph(ARCH_BLSTM_BGRU, layers)


BUILDERS = {
    ARCH_CNN: build_cnn,
    ARCH_BLSTM_ATT: build_blstm_attention,
    ARCH_BLSTM_BGRU: build_blstm_bgru,
}


@dataclass(frozen=True)
class PredictionResult:
    id: str
    probability: float
    label: str

    def __post_init__(self):
        if self.label not in (OFF, NOT):
            raise ValueError(f"unknown label: {self.label!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability out of range: {self.probability}")


def label_for(probability: float, threshold: float = 0.5) -> str:
    """OFF on or above the threshold, NOT below it."""
    return OFF if probability >= threshold else NOT


def _encode_records(records: Sequence[DatasetRecord], token_lists: Sequence[Sequence[str]],
                    vocabulary: Vocabulary, max_len: int) -> EncodedDataset:
    """Encode each record's preprocessed tokens; OFF maps to label 1.0, NOT to 0.0.

    Rows are padded to ``min(max_len, max(longest row, MIN_WIDTH))`` columns,
    no fewer than any batch cut from them needs while no convolution window
    is wider than ``MIN_WIDTH`` (cnn's widest is 4).
    """
    longest = max(map(len, token_lists), default=0)
    X, lengths = encode_batch(token_lists, vocabulary, min(max_len, max(longest, MIN_WIDTH)))
    y = np.array([1.0 if r.label_a == OFF else 0.0 for r in records], dtype=np.float32)
    return EncodedDataset(X, lengths, y, tuple(r.id for r in records))


def _tokens(records: Sequence[DatasetRecord], pre: PreprocessConfig | None) -> list[list[str]]:
    pre = pre or PreprocessConfig()
    return [preprocess_pipeline(r.text, pre.table, pre.dictionary) for r in records]


def encode_dataset(
    dataset: Dataset | Iterable[DatasetRecord],
    vocabulary: Vocabulary,
    preprocessing: PreprocessConfig | None = None,
    max_len: int = MAX_LEN,
) -> EncodedDataset:
    """Preprocess and encode records; OFF maps to label 1.0, NOT to 0.0."""
    records = list(dataset)
    return _encode_records(records, _tokens(records, preprocessing), vocabulary, max_len)


def encode_split(
    dataset: Dataset,
    preprocessing: PreprocessConfig | None = None,
    validation_fraction: float = 0.1,
    split_seed: int = 42,
    min_count: int = 1,
    max_len: int = MAX_LEN,
) -> tuple[Vocabulary, EncodedDataset, EncodedDataset]:
    """Stratified train/validation split, both encoded against a vocabulary of
    the training tweets only; ensemble members that share the split fraction
    and seed share the vocabulary. Each training tweet is preprocessed once."""
    train_set, val_set = stratified_split(dataset, validation_fraction, split_seed)
    token_lists = _tokens(train_set.records, preprocessing)
    vocabulary = build_vocabulary(token_lists, min_count)
    encoded_train = _encode_records(train_set.records, token_lists, vocabulary, max_len)
    encoded_val = encode_dataset(val_set, vocabulary, preprocessing, max_len)
    return vocabulary, encoded_train, encoded_val


def ensemble_proba(member_probs: Sequence[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of member probabilities.

    Members are sorted per example before summation so the result is
    bit-identical under permutation of the model list, and the mean is
    clamped into the member min/max envelope to pin down the bounding
    invariant against rounding.
    """
    if len(member_probs) == 0:
        raise ValueError("ensemble needs at least one member model")
    stacked = np.sort(np.stack([np.asarray(p, dtype=np.float64) for p in member_probs]), axis=0)
    mean = stacked.sum(axis=0) / stacked.shape[0]
    return np.clip(mean, stacked[0], stacked[-1])


def ensemble_predict(
    models: Sequence[ModelGraph],
    dataset: Dataset | Iterable[DatasetRecord],
    vocabulary: Vocabulary,
    preprocessing: PreprocessConfig | None = None,
    max_len: int = MAX_LEN,
    threshold: float = 0.5,
) -> list[PredictionResult]:
    """Average member probabilities, then threshold (OFF on the boundary)."""
    if len(models) == 0:
        raise ValueError("ensemble needs at least one member model")
    encoded = encode_dataset(dataset, vocabulary, preprocessing, max_len)
    member_probs = [predict_proba(m, encoded.X, encoded.lengths) for m in models]
    probs = ensemble_proba(member_probs)
    return [
        PredictionResult(rid, float(p), label_for(float(p), threshold))
        for rid, p in zip(encoded.ids, probs)
    ]
