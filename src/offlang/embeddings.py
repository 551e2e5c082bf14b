"""Pre-trained word vectors, vocabulary construction, and sequence encoding.

Index 0 is reserved for padding and index 1 for out-of-vocabulary tokens;
real words get contiguous indices from 2 in descending frequency order.
Sequences are truncated/post-padded to a fixed length (200 by default).
"""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import read_lines

logger = logging.getLogger(__name__)

PAD_INDEX = 0
OOV_INDEX = 1
MAX_LEN = 200


class EmbeddingFormatError(ValueError):
    """The vector file is not UTF-8 or yielded no usable entries."""


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    vectors: dict[str, np.ndarray]
    skipped_lines: int = 0

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("embedding dimension must be positive")

    def __contains__(self, word: str) -> bool:
        return word in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)


def load_embeddings(
    path: str | Path, expected_dim: int, only: set[str] | None = None
) -> EmbeddingTable:
    """Parse a plain-text vector file: ``word v1 v2 ... v_dim`` per line.

    Lines with the wrong number of values (or unparseable floats) are
    skipped and counted; duplicate words keep their first vector. A file
    with no valid line at all, or one that is not UTF-8, is an error.

    ``only`` restricts the table to the given words, which keeps memory
    flat when the vector file is far larger than the corpus vocabulary.
    Once one valid line has been seen, the line of a word outside ``only``
    is dropped after reading its first field, without parsing its values;
    so with ``only``, ``skipped_lines`` counts the malformed lines of
    wanted words alone. The lines of wanted words, and every line when
    ``only`` is None, are parsed in full, duplicates included.
    """
    path = Path(path)
    vectors: dict[str, np.ndarray] = {}
    skipped = 0
    any_valid = False
    for _, line in read_lines(path, EmbeddingFormatError):
        wanted = True
        if only is not None:
            head = line.split(None, 1)
            wanted = bool(head) and head[0] in only
            if not wanted and any_valid:
                continue
        parts = line.split()
        if len(parts) != expected_dim + 1:
            skipped += wanted
            continue
        word = parts[0]
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float32)
        except ValueError:
            skipped += wanted
            continue
        any_valid = True
        if wanted and word not in vectors:
            vectors[word] = vec
    if not any_valid:
        raise EmbeddingFormatError(f"{path}: no valid {expected_dim}-dimensional vectors found")
    if skipped:
        logger.warning("%s: skipped %d malformed line(s)", path, skipped)
    return EmbeddingTable(expected_dim, vectors, skipped)


@dataclass(frozen=True)
class Vocabulary:
    """word -> index map; indices run 2..size-1 (0 = padding, 1 = OOV)."""

    index: dict[str, int]

    def __post_init__(self):
        object.__setattr__(self, "index", dict(self.index))
        expected = set(range(2, len(self.index) + 2))
        if set(self.index.values()) != expected:
            raise ValueError("vocabulary indices must be contiguous starting at 2")

    @property
    def size(self) -> int:
        return len(self.index) + 2

    def lookup(self, word: str) -> int:
        return self.index.get(word, OOV_INDEX)

    def words_by_index(self) -> list[str]:
        return sorted(self.index, key=self.index.get)


def build_vocabulary(corpus: Iterable[Sequence[str]], min_count: int = 1) -> Vocabulary:
    """Index words with corpus frequency >= min_count.

    Words are assigned indices in descending frequency order, ties broken
    lexicographically, so the result is deterministic and invariant to
    tweet order.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: Counter[str] = Counter()
    for tokens in corpus:
        counts.update(tokens)
    kept = sorted(
        (w for w, c in counts.items() if c >= min_count),
        key=lambda w: (-counts[w], w),
    )
    return Vocabulary({w: i + 2 for i, w in enumerate(kept)})


def build_embedding_matrix(
    vocabulary: Vocabulary, table: EmbeddingTable, seed: int = 0
) -> np.ndarray:
    """(size, dim) float32 matrix: row 0 zeros, known words copied from the
    table, the OOV row and unknown words drawn uniformly from [-0.05, 0.05]."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((vocabulary.size, table.dim), dtype=np.float32)
    matrix[OOV_INDEX] = rng.uniform(-0.05, 0.05, size=table.dim).astype(np.float32)
    for word in vocabulary.words_by_index():
        row = vocabulary.index[word]
        vec = table.vectors.get(word)
        if vec is not None:
            matrix[row] = vec
        else:
            matrix[row] = rng.uniform(-0.05, 0.05, size=table.dim).astype(np.float32)
    return matrix


def encode_batch(
    token_lists: Sequence[Sequence[str]], vocabulary: Vocabulary, max_len: int = MAX_LEN
) -> tuple[np.ndarray, np.ndarray]:
    """(n, max_len) int32 indices and (n,) true lengths: tokens map to their
    index (OOV -> 1), are truncated to max_len and post-padded with 0."""
    X = np.full((len(token_lists), max_len), PAD_INDEX, dtype=np.int32)
    lengths = np.zeros(len(token_lists), dtype=np.int32)
    for row, tokens in enumerate(token_lists):
        kept = min(len(tokens), max_len)
        X[row, :kept] = [vocabulary.lookup(token) for token in tokens[:kept]]
        lengths[row] = kept
    return X, lengths
