"""Targeted/untargeted offense rule engine with a pluggable annotator.

Rules run strictly in order, first match wins:

  1  any token is one of the lexicon hashtags          -> TIN
  2  any token is one of the lexicon tokens            -> TIN
  3  no entity, no personal pronoun, no proper noun    -> UNT
  4  contains "he is" / "she is" / "you are" bigram    -> TIN
  5  starts with a hashtag and a verb is later
     followed by a named entity                        -> TIN
  6  any named entity present                          -> TIN
  7  everything else                                   -> UNT

Input tokens are raw (pre-normalization), so hashtags keep their ``#`` and
mentions their ``@``. The builtin annotator is deliberately naive and can be
replaced by pre-annotated files from stronger external taggers. It tags each
token from the token alone and from whether it starts the tweet, so each
distinct (token, first or not) pair is annotated once per process and
remembered, up to ``MEMO_BUDGET`` characters of tokens.
"""
from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .data import DataFormatError, Dataset, TIN, UNT, read_items, read_lines, resource
from .preprocess import HASHTAG, WORD, tokenize

POS_N = "N"
POS_V = "V"
POS_PRP = "PRP"
POS_NNP = "NNP"
POS_HASHTAG = "HASHTAG"
POS_MENTION = "MENTION"
POS_OTHER = "OTHER"

POS_TAGS = (POS_N, POS_V, POS_PRP, POS_NNP, POS_HASHTAG, POS_MENTION, POS_OTHER)

ENTITY_TYPES = ("PERSON", "ORG", "LOCATION", "FACILITY")

RULE_LABELS = {1: TIN, 2: TIN, 3: UNT, 4: TIN, 5: TIN, 6: TIN, 7: UNT}

TARGET_BIGRAMS = frozenset({("he", "is"), ("she", "is"), ("you", "are")})


class AnnotationError(ValueError):
    """An external annotation file is missing or malformed."""


@dataclass(frozen=True)
class EntitySpan:
    start: int
    end: int
    type: str

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad entity span [{self.start}, {self.end})")
        if self.type not in ENTITY_TYPES:
            raise ValueError(f"unknown entity type: {self.type!r}")


@dataclass(frozen=True)
class AnnotatedTweet:
    tokens: tuple[str, ...]
    pos_tags: tuple[str, ...]
    entities: tuple[EntitySpan, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "pos_tags", tuple(self.pos_tags))
        object.__setattr__(self, "entities", tuple(self.entities))
        if len(self.tokens) != len(self.pos_tags):
            raise ValueError("one POS tag per token required")
        for tag in self.pos_tags:
            if tag not in POS_TAGS:
                raise ValueError(f"unknown POS tag: {tag!r}")
        previous_end = 0
        for span in sorted(self.entities, key=lambda s: s.start):
            if span.end > len(self.tokens):
                raise ValueError(f"entity span {span} exceeds token count")
            if span.start < previous_end:
                raise ValueError("entity spans must not overlap")
            previous_end = span.end


@dataclass(frozen=True)
class HeuristicLexicon:
    """Frequent hashtags (with ``#``) and plain tokens, lowercase."""

    hashtags: frozenset[str] = frozenset()
    tokens: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "hashtags", frozenset(self.hashtags))
        object.__setattr__(self, "tokens", frozenset(self.tokens))
        for item in self.hashtags | self.tokens:
            # the rules compare lowercased tokens, so any other item could never match
            if not item or item != item.lower():
                raise ValueError(f"lexicon items must be lowercase and non-empty: {item!r}")
            # tokens come from the chunks of str.split(), so none holds whitespace
            if item.split() != [item]:
                raise ValueError(f"lexicon items must not contain whitespace: {item!r}")
        for item in self.hashtags:
            if not item.startswith("#"):
                raise ValueError(f"lexicon hashtag missing '#': {item!r}")
        for item in self.tokens:
            if item.startswith("#"):
                raise ValueError(f"lexicon token must not start with '#': {item!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "HeuristicLexicon":
        """One item per line; entries starting with ``#`` are hashtags."""
        items = {item.lower() for item in read_items(path)}
        hashtags = frozenset(item for item in items if item.startswith("#"))
        try:
            return cls(hashtags, frozenset(items - hashtags))
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from None

    def to_file(self, path: str | Path):
        with Path(path).open("w", encoding="utf-8") as fh:
            for item in sorted(self.hashtags):
                fh.write(item + "\n")
            for item in sorted(self.tokens):
                fh.write(item + "\n")


@dataclass(frozen=True)
class RuleTrace:
    rule_fired: int
    label: str

    def __post_init__(self):
        if self.rule_fired not in RULE_LABELS:
            raise ValueError(f"rule number must be 1..7, got {self.rule_fired}")
        if RULE_LABELS[self.rule_fired] != self.label:
            raise ValueError(f"rule {self.rule_fired} cannot yield label {self.label!r}")


def build_lexicon(
    train: Dataset,
    stoplist: Iterable[str] = (),
    k: int = 100,
    overrides: Iterable[str] = (),
) -> HeuristicLexicon:
    """Top-k hashtags and top-k tokens of the training tweets by frequency.

    Stoplist words are removed from the token counts; override items (either
    form) are removed from both. Ties break lexicographically, so the result
    is deterministic.
    """
    if len(train) == 0:
        raise ValueError("cannot build a lexicon from an empty dataset")
    if k < 0:
        raise ValueError("k must be >= 0")
    stop = {w.lower() for w in stoplist}
    removed = {w.lower() for w in overrides}
    hashtag_counts: Counter[str] = Counter()
    token_counts: Counter[str] = Counter()
    for record in train:
        for token in tokenize(record.text).tokens:
            low = token.surface.lower()
            if token.kind == HASHTAG and len(low) > 1:
                if low not in removed:
                    hashtag_counts[low] += 1
            elif token.kind == WORD:
                if low not in stop and low not in removed:
                    token_counts[low] += 1

    def top(counts: Counter[str]) -> frozenset[str]:
        ranked = sorted(counts, key=lambda w: (-counts[w], w))
        return frozenset(ranked[:k])

    return HeuristicLexicon(top(hashtag_counts), top(token_counts))


@lru_cache(maxsize=None)
def _resource_words(name: str) -> frozenset[str]:
    return read_items(resource(name))


# The only (POS tag, entity type or None) pairs the builtin annotator gives,
# shared by every memo entry and every call.
_UNTYPED = {tag: (tag, None) for tag in POS_TAGS}
_PROPER = {kind: (POS_NNP, kind) for kind in ENTITY_TYPES}


@lru_cache(maxsize=1)
def _gazetteer() -> dict[str, tuple[str, str]]:
    """Each lowercase name's (NNP, entity type) pair."""
    names = dict(line.split("\t") for _, line in read_lines(resource("gazetteer.tsv"))
                 if line.strip())
    return {name: _PROPER[kind] for name, kind in names.items()}


def _is_verb(word: str, stems: frozenset[str]) -> bool:
    if word in stems:
        return True
    for suffix in ("ing", "ed", "s"):
        if word.endswith(suffix) and len(word) > len(suffix) + 1:
            base = word[: -len(suffix)]
            if base in stems or base + "e" in stems:
                return True
            if len(base) >= 2 and base[-1] == base[-2] and base[:-1] in stems:
                return True
    return False


# Token annotations remembered for the life of the process, keyed on the token
# and on whether it starts the tweet, and counted in the characters of their
# tokens, as ``preprocess`` counts its chunks. Only the empty token has no
# character, so the memo holds at most MEMO_BUDGET + 2 entries.
MEMO_BUDGET = 2**18
_token_memo: dict[tuple[str, bool], tuple[str, str | None]] = {}
_memo_chars = 0
_memo_lock = threading.Lock()


def _annotate_token(token: str, first: bool) -> tuple[str, str | None]:
    """The (POS tag, entity type or None) of ``token``, remembered while it fits."""
    global _memo_chars
    low = token.lower()
    capitalized = token[:1].isupper()
    gazetteer = _gazetteer()
    if token.startswith("#"):
        annotation = _UNTYPED[POS_HASHTAG]
    elif token.startswith("@"):
        annotation = _UNTYPED[POS_MENTION]
    elif low in _resource_words("pronouns.txt"):
        annotation = _UNTYPED[POS_PRP]
    elif capitalized and low in gazetteer:
        annotation = gazetteer[low]
    elif capitalized and not first:
        annotation = _PROPER["PERSON"]
    elif _is_verb(low, _resource_words("verb_stems.txt")):
        annotation = _UNTYPED[POS_V]
    elif low in _resource_words("nouns.txt"):
        annotation = _UNTYPED[POS_N]
    else:
        annotation = _UNTYPED[POS_OTHER]
    with _memo_lock:  # a count that lost an update to another thread would break the bound
        key = (token, first)
        if key not in _token_memo and _memo_chars + len(token) <= MEMO_BUDGET:
            _token_memo[key] = annotation
            _memo_chars += len(token)
    return annotation


def annotate_builtin(tokens: Sequence[str]) -> AnnotatedTweet:
    """Tag tokens with the naive rules and collect single-token entities.

    A capitalized token that is not sentence-initial becomes a proper noun
    and a PERSON entity unless the gazetteer assigns another type; gazetteer
    names are promoted regardless of position.

    A token's tag and entity type depend only on the token and on whether it
    is at position 0, so each (token, position 0 or not) pair is annotated
    once and its answer reused, while the tokens held stay within
    ``MEMO_BUDGET`` (2**18) characters: at most about 44 MiB on 64-bit
    CPython 3.11, where distinct one-character tokens take about 175 bytes
    per character and five-letter words about 29. A token that no longer
    fits is annotated on every call. The spans and the tweet are still built
    through their constructors, so every check still runs.
    """
    tags: list[str] = []
    entities: list[EntitySpan] = []
    for i, token in enumerate(tokens):
        tag, kind = _token_memo.get((token, i == 0)) or _annotate_token(token, i == 0)
        tags.append(tag)
        if kind is not None:
            entities.append(EntitySpan(i, i + 1, kind))
    return AnnotatedTweet(tuple(tokens), tuple(tags), tuple(entities))


def load_annotations(path: str | Path) -> dict[str, AnnotatedTweet]:
    """Read a pre-annotated file.

    Line format: ``id<TAB>token/POS token/POS ...<TAB>spans`` where spans is
    comma-separated ``start:end:TYPE`` or ``-`` for none.
    """
    path = Path(path)
    annotations: dict[str, AnnotatedTweet] = {}
    for lineno, line in read_lines(path, AnnotationError):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise AnnotationError(f"{path}:{lineno}: expected 3 tab-separated fields")
        tweet_id, tagged, span_field = parts
        if tweet_id in annotations:
            raise AnnotationError(f"{path}:{lineno}: duplicate id {tweet_id!r}")
        tokens: list[str] = []
        tags: list[str] = []
        for pair in tagged.split():
            token, sep, tag = pair.rpartition("/")
            if not sep or not token:
                raise AnnotationError(f"{path}:{lineno}: bad token/POS pair {pair!r}")
            tokens.append(token)
            tags.append(tag)
        spans: list[EntitySpan] = []
        if span_field != "-":
            for chunk in span_field.split(","):
                try:
                    start, end, kind = chunk.split(":")
                    spans.append(EntitySpan(int(start), int(end), kind))
                except ValueError as exc:
                    raise AnnotationError(f"{path}:{lineno}: bad span {chunk!r}: {exc}") from None
        try:
            annotations[tweet_id] = AnnotatedTweet(tuple(tokens), tuple(tags), tuple(spans))
        except ValueError as exc:
            raise AnnotationError(f"{path}:{lineno}: {exc}") from None
    return annotations


def annotate(
    tokens: Sequence[str],
    annotations: Mapping[str, AnnotatedTweet] | None = None,
    tweet_id: str | None = None,
) -> AnnotatedTweet:
    """Builtin annotation, or with ``annotations`` a lookup of ``tweet_id``
    in pre-annotated external data."""
    if annotations is None:
        return annotate_builtin(tokens)
    if tweet_id is None:
        raise AnnotationError("external annotation needs a tweet id")
    try:
        return annotations[tweet_id]
    except KeyError:
        raise AnnotationError(f"no external annotation for tweet id {tweet_id!r}") from None


def classify_target(tweet: AnnotatedTweet, lexicon: HeuristicLexicon) -> tuple[str, RuleTrace]:
    """Apply the ordered rules; total and deterministic."""
    lows = [t.lower() for t in tweet.tokens]

    def fire(rule: int) -> tuple[str, RuleTrace]:
        label = RULE_LABELS[rule]
        return label, RuleTrace(rule, label)

    if not lexicon.hashtags.isdisjoint(lows):
        return fire(1)
    if not lexicon.tokens.isdisjoint(lows):
        return fire(2)
    has_entity = bool(tweet.entities)
    has_pronoun = POS_PRP in tweet.pos_tags
    has_proper = POS_NNP in tweet.pos_tags
    if not has_entity and not has_pronoun and not has_proper:
        return fire(3)
    if any((lows[i], lows[i + 1]) in TARGET_BIGRAMS for i in range(len(lows) - 1)):
        return fire(4)
    if tweet.pos_tags and tweet.pos_tags[0] == POS_HASHTAG:
        verb_positions = [i for i, tag in enumerate(tweet.pos_tags) if tag == POS_V]
        if verb_positions:
            first_verb = min(verb_positions)
            if any(span.start > first_verb for span in tweet.entities):
                return fire(5)
    if has_entity:
        return fire(6)
    return fire(7)


@lru_cache(maxsize=1)
def default_stoplist() -> frozenset[str]:
    """The shipped English stopword list used when building lexicons."""
    return _resource_words("stopwords.txt")


@lru_cache(maxsize=1)
def seed_lexicon() -> HeuristicLexicon:
    """A small starter lexicon of items known to mark targeted offense."""
    return HeuristicLexicon.from_file(resource("seed_lexicon.txt"))
