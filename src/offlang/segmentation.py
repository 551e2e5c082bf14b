"""Unigram word segmentation for hashtag bodies.

A candidate split is scored as the product of unigram probabilities
(count / total). Chunks absent from the dictionary are penalised by length:
p = 1 / (total * 10**(len-1)), so a long unknown chunk still beats spelling
it out character by character. The best split is found by dynamic
programming over break points, and remembered per dictionary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from .data import read_lines, resource

_LOG10 = math.log(10.0)
# Splits remembered per dictionary; a tag first met once the memo is full
# is split on every call. It bounds memory on an unbounded stream of tags,
# while a corpus repeats a far smaller set of hashtags than this.
MEMO_LIMIT = 65_536


def _entry_error(word: str, count: int) -> str | None:
    if word != word.lower():
        return f"dictionary words must be lowercase: {word!r}"
    if count <= 0:
        return f"dictionary counts must be positive: {word!r} -> {count}"
    return None


@dataclass(frozen=True)
class SegmentationDictionary:
    """Word frequency counts backing the unigram model.

    ``counts`` is stored as a read-only copy, so the splits that
    :func:`segment_hashtag` remembers in the dictionary (keyed by the
    lowercased tag, at most ``MEMO_LIMIT`` of them) never go stale.
    """

    counts: Mapping[str, int]
    total: int = 0
    _memo: dict[str, tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        counts = dict(self.counts)
        for word, count in counts.items():
            error = _entry_error(word, count)
            if error:
                raise ValueError(error)
        object.__setattr__(self, "counts", MappingProxyType(counts))
        object.__setattr__(self, "total", sum(counts.values()))

    @classmethod
    def from_file(cls, path: str | Path) -> "SegmentationDictionary":
        """Read ``word<TAB>count`` lines (UTF-8, blank lines skipped).

        A malformed line raises ``ValueError`` naming ``path:lineno``.
        """
        counts: dict[str, int] = {}
        for lineno, line in read_lines(path):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'word<TAB>count'")
            word, count = parts
            try:
                count = int(count)
                error = _entry_error(word, count)
            except ValueError:
                error = f"count {count!r} is not an integer"
            if error:
                raise ValueError(f"{path}:{lineno}: {error}")
            counts[word] = counts.get(word, 0) + count
        return cls(counts)

    def log_prob(self, chunk: str) -> float:
        total = max(self.total, 1)
        count = self.counts.get(chunk)
        if count:
            return math.log(count) - math.log(total)
        # Unknown-chunk fallback: 1 / (total * 10**(len-1)).
        return -math.log(total) - (len(chunk) - 1) * _LOG10


def segment_hashtag(tag: str, dictionary: SegmentationDictionary | None = None) -> list[str]:
    """Best unigram split of a hashtag body (without the leading ``#``).

    The concatenation of the returned pieces always equals the lowercased
    input. An input the model cannot beat stays one piece. Each call
    returns a new list; the split itself is computed once per dictionary.
    """
    if not tag:
        raise ValueError("cannot segment an empty hashtag body")
    if dictionary is None:
        dictionary = default_dictionary()
    tag = tag.lower()
    pieces = dictionary._memo.get(tag)
    if pieces is None:
        pieces = _best_split(tag, dictionary)
        if len(dictionary._memo) < MEMO_LIMIT:
            dictionary._memo[tag] = pieces
    return list(pieces)


def _best_split(tag: str, dictionary: SegmentationDictionary) -> tuple[str, ...]:
    n = len(tag)
    best_score = [-math.inf] * (n + 1)
    best_score[0] = 0.0
    back = [0] * (n + 1)
    for end in range(1, n + 1):
        for start in range(end):
            if best_score[start] == -math.inf:
                continue
            score = best_score[start] + dictionary.log_prob(tag[start:end])
            if score > best_score[end]:
                best_score[end] = score
                back[end] = start
    pieces: list[str] = []
    end = n
    while end > 0:
        start = back[end]
        pieces.append(tag[start:end])
        end = start
    return tuple(reversed(pieces))


@lru_cache(maxsize=1)
def default_dictionary() -> SegmentationDictionary:
    """The shipped English word-frequency list."""
    return SegmentationDictionary.from_file(resource("wordlist.tsv"))
