"""Seeded, paper-shaped synthetic inputs for the benchmark.

Everything here is a pure function of the seed: the same seed gives
byte-identical files. Nothing is read from the network or from the
program's own resources, so a change to the program cannot change its
inputs. Why each input property exists is recorded in NOTES.md.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

N_TWEETS = 13_240          # OLID training set size
N_OFF = 4_400              # OLID has 4,400 OFF tweets (one third)
N_TIN = 3_876              # of which targeted (task B)
N_TEST = 860               # OLID test set size
N_TEST_OFF = 240           # and its OFF tweets
N_TEST_TIN = 213           # of which targeted
N_TYPES = 20_000           # Zipf word universe
ZIPF_S = 1.07
N_HASHTAGS = 1_500         # hashtag pool, drawn Zipf-wise so tags repeat
HASHTAG_S = 1.1
DIM = 200
VECTOR_FACTOR = 10         # vector file lines per corpus word type
MISSING_SHARE = 0.10       # share of corpus word types without a vector
N_MALFORMED = 40           # malformed vector lines, all for corpus words
MAX_TOKENS = 199           # always under MAX_LEN = 200

# Function words first so the Zipf head looks like English; pronouns and
# "is"/"are" feed task-B rules 3 and 4.
COMMON = (
    "the to and a i you of is in it that he she for on are this be my so with "
    "they we was just not have your me at all but what like do people can about "
    "no if get out up who will one how know his her them by an why did from "
    "would should want think love go say make really gun control liberals "
    "vote right time good now even need him their there because when than "
    "more our us only been look back trying still being going never said "
    "women men country police shit fuck stupid idiot"
).split()
NAMES = ("Trump", "Obama", "Hillary", "Pelosi", "Kavanaugh", "Antifa", "John", "Maria",
         "Sessions", "Mueller", "Biden", "Schumer")
PROFANITY = ("b**ch", "bi*ch", "bi**h", "f**k", "sh*t", "biatch", "sob", "a**hole")
PUNCT = (",", ".", "!", "?", "...", ":)", "!!")
TARGET_PHRASES = ("you are", "he is", "she is")  # task-B rule 4 bigrams
SYLLABLES = ("ka zo ri ma ne lu ta vi so pe gar tul mon dex fa bri cho len "
             "sa mi ro tel van qui dor pa ne hu ist ak").split()


def _zipf_probs(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return p / p.sum()


def _word_universe(rng: np.random.Generator) -> list[str]:
    words = list(COMMON)
    seen = set(words)
    while len(words) < N_TYPES:
        k = int(rng.integers(2, 5))
        w = "".join(SYLLABLES[i] for i in rng.integers(0, len(SYLLABLES), size=k))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def _hashtag_pool(rng: np.random.Generator, words: list[str]) -> list[str]:
    head = 600  # hashtag bodies are built from the frequent words
    tags, seen = [], set()
    while len(tags) < N_HASHTAGS:
        k = int(rng.integers(1, 4))
        parts = [words[i] for i in rng.integers(0, head, size=k)]
        style = int(rng.integers(0, 3))
        body = ("".join(p.capitalize() for p in parts) if style == 0
                else "".join(parts).upper() if style == 1 and k == 1
                else "".join(parts))
        if body.lower() not in seen:
            seen.add(body.lower())
            tags.append("#" + body)
    return tags


def _tweets(rng, offensive, words, tags, p_words, p_tags):
    """Tweet texts, with more profanity where ``offensive``; returns
    (texts, word types used)."""
    n = len(offensive)
    lengths = np.clip(np.rint(rng.lognormal(np.log(16.0), 0.6, size=n)), 3, MAX_TOKENS)
    lengths = lengths.astype(int)
    total = int(lengths.sum())
    kinds = rng.random(total)
    word_ids = rng.choice(len(words), size=total, p=p_words)
    tag_ids = rng.choice(len(tags), size=total, p=p_tags)
    extra = rng.integers(0, 1 << 30, size=total)
    caps = rng.random(total)
    texts, used = [], set()
    pos = 0
    for t in range(n):
        toks = []
        prof = 0.08 if offensive[t] else 0.01
        for j in range(pos, pos + lengths[t]):
            r = kinds[j]
            if r < 0.05:
                toks.append("@USER")
            elif r < 0.07:
                toks.append("URL")
            elif r < 0.12:
                toks.append(tags[tag_ids[j]])
            elif r < 0.12 + prof:
                toks.append(PROFANITY[extra[j] % len(PROFANITY)])
            elif r < 0.17 + prof:
                toks.append(PUNCT[extra[j] % len(PUNCT)])
            elif r < 0.20 + prof:
                toks.append(NAMES[extra[j] % len(NAMES)])
            elif r < 0.21 + prof:
                toks.append(TARGET_PHRASES[extra[j] % len(TARGET_PHRASES)])
            else:
                w = words[word_ids[j]]
                used.add(w)
                toks.append(w.capitalize() if caps[j] < 0.04 else w)
        pos += lengths[t]
        texts.append(" ".join(toks))
    return texts, used


def _write_tsv(path: Path, rows) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n")
        for rid, text, a, b in rows:
            fh.write(f"{rid}\t{text}\t{a}\t{b}\tNULL\n")


def _labels(rng, n, n_off, n_tin):
    a = np.array(["OFF"] * n_off + ["NOT"] * (n - n_off))
    rng.shuffle(a)
    b = np.array(["NULL"] * n, dtype=object)
    off_idx = np.flatnonzero(a == "OFF")
    tin = rng.permutation(off_idx)[:n_tin]
    b[off_idx] = "UNT"
    b[tin] = "TIN"
    return a, b


def _write_vectors(path: Path, rng, corpus_words, lines, n_malformed) -> dict:
    """GloVe-style vector file; returns what was planted in it."""
    corpus_words = sorted(corpus_words)
    n_missing = int(round(MISSING_SHARE * len(corpus_words)))
    missing = set(rng.choice(corpus_words, size=n_missing, replace=False).tolist())
    present = [w for w in corpus_words if w not in missing]
    fillers = []
    while len(present) + len(fillers) < lines - n_malformed:
        fillers.append(f"zz{len(fillers):06d}w")
    body_words = present + fillers
    order = rng.permutation(len(body_words))
    # Formatting floats dominates generation; a pool of formatted vectors
    # keeps set-up short while every line still has DIM numbers to parse.
    pool = [" ".join(f"{v:.5f}" for v in row)
            for row in rng.uniform(-1.0, 1.0, size=(512, DIM))]
    picks = rng.integers(0, len(pool), size=len(body_words))
    # Each malformed line sits just before the valid line of the same
    # frequent word, so it counts as skipped whether a loader checks
    # membership, duplicates or format first.
    bad_words = set([w for w in COMMON if w in present][:n_malformed])
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        chunk = []
        for k, i in enumerate(order):
            word = body_words[i]
            if word in bad_words:
                bad = pool[0].rsplit(" ", 1)[0] + ("" if k % 2 else " 0.1x")
                chunk.append(f"{word} {bad}\n")
            chunk.append(f"{word} {pool[picks[k]]}\n")
            if len(chunk) >= 4096:
                fh.write("".join(chunk))
                chunk = []
        fh.write("".join(chunk))
    return {"lines": len(body_words) + len(bad_words), "malformed": len(bad_words),
            "corpus_types": len(corpus_words), "missing_types": n_missing}


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def generate(out: Path, seed: int, parts: set[str], small_size: int = 0) -> dict:
    """Write the corpus and the requested ``parts`` under ``out``.

    Parts: ``off`` (the OFF tweets of the corpus), ``test`` (860 unseen
    tweets), ``vectors`` (10x the corpus word types), ``small`` (the first
    ``small_size`` corpus rows, one third OFF, and a vector file of twice its
    word types). Each part draws from its own stream of the seed, so the
    parts a workload asks for do not change the others' bytes.
    """
    out.mkdir(parents=True, exist_ok=True)
    stream = lambda k: np.random.default_rng([seed, k])
    rng = stream(0)
    words = _word_universe(rng)
    tags = _hashtag_pool(rng, words)
    p_words = _zipf_probs(len(words), ZIPF_S)
    p_tags = _zipf_probs(len(tags), HASHTAG_S)
    rng = stream(1)
    a, b = _labels(rng, N_TWEETS, N_OFF, N_TIN)
    texts, used = _tweets(rng, a == "OFF", words, tags, p_words, p_tags)
    ids = rng.permutation(np.arange(10_000, 100_000))[: N_TWEETS + N_TEST].astype(str)
    rows = list(zip(ids[:N_TWEETS], texts, a, b))
    _write_tsv(out / "corpus.tsv", rows)
    manifest = {"seed": seed, "tweets": N_TWEETS, "off": N_OFF,
                "hashtag_pool": len(tags), "word_universe": len(words)}
    if "off" in parts:
        _write_tsv(out / "off.tsv", [r for r in rows if r[2] == "OFF"])
    if "test" in parts:
        rng = stream(2)
        test_a, test_b = _labels(rng, N_TEST, N_TEST_OFF, N_TEST_TIN)
        test_texts, _ = _tweets(rng, test_a == "OFF", words, tags, p_words, p_tags)
        _write_tsv(out / "test.tsv", list(zip(ids[N_TWEETS:], test_texts, test_a, test_b)))
        manifest["test"] = N_TEST
    if "vectors" in parts:
        corpus_words = used | {"bitch"}
        manifest["vectors"] = _write_vectors(out / "vectors.txt", stream(3), corpus_words,
                                             VECTOR_FACTOR * len(corpus_words), N_MALFORMED)
    if "small" in parts:
        off_rows = [r for r in rows if r[2] == "OFF"][: small_size // 3]
        not_rows = [r for r in rows if r[2] == "NOT"][: small_size - len(off_rows)]
        small = sorted(off_rows + not_rows, key=lambda r: r[0])
        _write_tsv(out / "train_small.tsv", small)
        small_words = {w.lower() for r in small for w in r[1].split()}
        manifest["vectors_small"] = _write_vectors(
            out / "vectors_small.txt", stream(4), small_words, 2 * len(small_words), 4)
        manifest["train_small"] = len(small)
    return manifest
