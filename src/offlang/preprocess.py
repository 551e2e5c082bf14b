"""Tweet-aware tokenization and normalization.

The tokenizer is total: every non-whitespace character of the input lands in
exactly one token, so no text is ever silently dropped. It is also
chunk-local: no token spans whitespace, so a text's tokens are those of each
chunk of ``text.split()`` in turn, and each distinct chunk is tokenized once
per process and remembered, up to ``MEMO_BUDGET`` characters of chunks.
Normalization then removes mentions and URLs, strips ``#`` from hashtags,
lowercases, and maps censored/variant profanity spellings to a canonical form.
"""
from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .data import read_lines
from .segmentation import SegmentationDictionary, default_dictionary, segment_hashtag

WORD = "word"
HASHTAG = "hashtag"
MENTION = "mention"
URL = "url"
EMOTICON = "emoticon"
NUMBER = "number"
PUNCTUATION = "punctuation"

TOKEN_KINDS = (WORD, HASHTAG, MENTION, URL, EMOTICON, NUMBER, PUNCTUATION)

# Western-style emoticons; matched before punctuation so ":)" stays whole.
# Lowercase twins are listed so that a lowercased emoticon is still one token.
EMOTICONS = (
    ":)", ":-)", ":(", ":-(", ";)", ";-)", ":D", ":-D", ":d", ":-d", ":P", ":-P",
    ":p", ":-p", ":/", ":-/", ":|", ":-|", ":o", ":O", ":'(", ":')", "=)", "=(",
    "<3", "xD", "XD", "xd", ":*", ";D", ";d", ":c", ":3",
)

_EMOTICON_ALT = "|".join(re.escape(e) for e in sorted(EMOTICONS, key=len, reverse=True))

# Alternatives are tried in order; the trailing \S catch-all guarantees
# totality. Censored spellings like "b**ch" must stay one token so the
# normalization table can match them. An emoticon ending in a letter (e.g.
# "xd") is not split off the front of a longer word ("xd0" stays one word),
# or a word that lowercases into such a prefix would re-tokenize differently.
_TOKEN_RE = re.compile(
    rf"""
      (?P<url>https?://\S+
             |www\.\S+
             |(?<![^\W\d_])[Uu][Rr][Ll](?!\w))
    | (?P<emoticon>(?:{_EMOTICON_ALT})(?!(?<=[^\W\d_])[\w*]))
    | (?P<hashtag>\#\w*)
    | (?P<mention>@\w*)
    | (?P<word>[^\W\d_]\w*(?:\*+\w*)*)
    | (?P<number>\d+)
    | (?P<punctuation>\S)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    surface: str
    kind: str

    def __post_init__(self):
        if not self.surface:
            raise ValueError("token surface must be non-empty")
        if self.kind not in TOKEN_KINDS:
            raise ValueError(f"unknown token kind: {self.kind!r}")
        if (self.kind == HASHTAG) != self.surface.startswith("#"):
            raise ValueError(f"hashtag kind/surface mismatch: {self.surface!r}")
        if (self.kind == MENTION) != self.surface.startswith("@"):
            raise ValueError(f"mention kind/surface mismatch: {self.surface!r}")


@dataclass(frozen=True)
class TokenizedTweet:
    tokens: tuple[Token, ...]
    source: str

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        squashed = "".join(t.surface for t in self.tokens)
        if squashed != "".join(self.source.split()):
            raise ValueError("tokenization must preserve all non-whitespace characters")


# Chunk tokenizations remembered for the life of the process, counted in the
# characters of their chunks. Every token has at least one character, so the
# budget bounds the entries and the tokens they hold alike.
MEMO_BUDGET = 2**18
_chunk_memo: dict[str, tuple[Token, ...]] = {}
_memo_chars = 0
_memo_lock = threading.Lock()


def _chunk_tokens(chunk: str) -> tuple[Token, ...]:
    global _memo_chars
    tokens = tuple(Token(m.group(), m.lastgroup) for m in _TOKEN_RE.finditer(chunk))
    with _memo_lock:  # a count that lost an update to another thread would break the bound
        if chunk not in _chunk_memo and _memo_chars + len(chunk) <= MEMO_BUDGET:
            _chunk_memo[chunk] = tokens
            _memo_chars += len(chunk)
    return tokens


def tokenize(text: str) -> TokenizedTweet:
    """Split raw tweet text into typed tokens.

    Hashtags, mentions, URLs (scheme-style, ``www.``, or the literal ``URL``
    placeholder) and known emoticons each become one token; words are letter
    runs (digits and censoring ``*`` may follow the first letter), digit runs
    are numbers, and any other character is a single punctuation token.

    Every alternative matches only non-whitespace, and the look-arounds see a
    space and either end of the text alike, so each chunk of ``text.split()``
    is tokenized on its own. Its validated tokens are remembered and reused
    while the chunks held stay within ``MEMO_BUDGET`` (2**18) characters: at
    most about 62 MiB on 64-bit CPython 3.11, where one-character non-Latin-1
    chunks take about 245 bytes per character and ASCII words about 55. A
    chunk that no longer fits is tokenized on every call.
    """
    tokens: list[Token] = []
    for chunk in text.split():
        tokens += _chunk_memo.get(chunk) or _chunk_tokens(chunk)
    return TokenizedTweet(tokens, text)


# Variant -> canonical profanity spellings. Multi-word canonicals are split
# into separate tokens during normalization.
DEFAULT_NORMALIZATION_ENTRIES = {
    "bi*ch": "bitch",
    "b**ch": "bitch",
    "bi**h": "bitch",
    "biatch": "bitch",
    "sob": "son of bitch",
    "sobi*ch": "son of bitch",
}


@dataclass(frozen=True)
class NormalizationTable:
    """Single-pass mapping from variant spellings to canonical forms."""

    entries: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "entries", dict(self.entries))
        for key, value in self.entries.items():
            if key != key.lower():
                raise ValueError(f"normalization keys must be lowercase: {key!r}")
            for word in value.split():
                if word in self.entries and word != key:
                    raise ValueError(
                        f"table is not single-pass: {key!r} -> {value!r} contains key {word!r}"
                    )

    @classmethod
    def default(cls) -> "NormalizationTable":
        return cls(dict(DEFAULT_NORMALIZATION_ENTRIES))

    @classmethod
    def from_file(cls, path: str | Path) -> "NormalizationTable":
        """Read ``variant<TAB>canonical`` lines (UTF-8, blank lines skipped)."""
        entries = {}
        for lineno, line in read_lines(path):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ValueError(f"{path}:{lineno}: expected 'variant<TAB>canonical'")
            entries[parts[0]] = parts[1]
        return cls(entries)


def normalize(
    tokens: TokenizedTweet | Iterable[Token], table: NormalizationTable | None = None
) -> list[str]:
    """Reduce tokens to lowercase word strings.

    Mentions and URLs are dropped, the leading ``#`` is stripped from
    hashtags, everything is lowercased, and table matches are replaced by
    their canonical form (splitting multi-word canonicals).
    """
    if table is None:
        table = NormalizationTable.default()
    if isinstance(tokens, TokenizedTweet):
        tokens = tokens.tokens
    out: list[str] = []
    for token in tokens:
        if token.kind in (MENTION, URL):
            continue
        surface = token.surface
        if token.kind == HASHTAG:
            surface = surface[1:]
            if not surface:
                continue
        word = surface.lower()
        if word == "url":  # placeholder can resurface from hashtag segmentation
            continue
        canonical = table.entries.get(word)
        if canonical is not None:
            out.extend(canonical.split())
        else:
            out.append(word)
    return out


@dataclass(frozen=True)
class PreprocessConfig:
    """Normalization table and segmentation dictionary used by the pipeline."""

    table: NormalizationTable = field(default_factory=NormalizationTable.default)
    dictionary: SegmentationDictionary = field(default_factory=default_dictionary)


def preprocess_pipeline(
    text: str,
    table: NormalizationTable | None = None,
    dictionary: SegmentationDictionary | None = None,
) -> list[str]:
    """tokenize -> segment hashtag bodies -> normalize.

    Deterministic for fixed table/dictionary; idempotent on its own output
    re-joined with spaces.
    """
    if table is None:
        table = NormalizationTable.default()
    if dictionary is None:
        dictionary = default_dictionary()
    tweet = tokenize(text)
    expanded: list[Token] = []
    for token in tweet.tokens:
        if token.kind == HASHTAG:
            body = token.surface[1:].lower()
            if not body:
                continue
            # re-tokenize each piece so digit-leading or placeholder-like
            # chunks get the same type they would have as plain text
            for piece in segment_hashtag(body, dictionary):
                expanded.extend(tokenize(piece).tokens)
        else:
            expanded.append(token)
    return normalize(expanded, table)
