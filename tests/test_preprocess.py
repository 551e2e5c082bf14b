import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offlang import preprocess
from offlang.preprocess import (
    _TOKEN_RE,
    EMOTICONS,
    NormalizationTable,
    Token,
    TokenizedTweet,
    normalize,
    preprocess_pipeline,
    tokenize,
)


def kinds(text):
    return [(t.surface, t.kind) for t in tokenize(text).tokens]


def test_tokenize_mention_hashtag_punct():
    # Hand trace: mention, two words, hashtag, two punctuation marks.
    assert kinds("@USER she is #fatbastard!!") == [
        ("@USER", "mention"),
        ("she", "word"),
        ("is", "word"),
        ("#fatbastard", "hashtag"),
        ("!", "punctuation"),
        ("!", "punctuation"),
    ]


def test_tokenize_empty():
    assert tokenize("").tokens == ()


def test_tokenize_emoticon_before_punctuation():
    assert kinds("gr8 :)") == [("gr8", "word"), (":)", "emoticon")]


def test_tokenize_letter_emoticon_not_split_from_word():
    assert kinds("xd0 XDD xd") == [("xd0", "word"), ("XDD", "word"), ("xd", "emoticon")]
    assert kinds("<3a") == [("<3", "emoticon"), ("a", "word")]


def test_tokenize_urls():
    assert kinds("see http://t.co/abc now") == [
        ("see", "word"),
        ("http://t.co/abc", "url"),
        ("now", "word"),
    ]
    assert kinds("go URL")[1] == ("URL", "url")
    assert kinds("go url")[1] == ("url", "url")
    assert kinds("curl up")[0] == ("curl", "word")


def test_tokenize_numbers_and_censored_words():
    assert kinds("2019 b**ch") == [("2019", "number"), ("b**ch", "word")]


def test_tokenize_bare_marker_keeps_kind_invariant():
    for token in tokenize("# @ #tag @who").tokens:
        assert (token.kind == "hashtag") == token.surface.startswith("#")
        assert (token.kind == "mention") == token.surface.startswith("@")


@given(st.text(max_size=80))
@settings(max_examples=300, deadline=None)
def test_tokenize_never_loses_characters(text):
    tweet = tokenize(text)  # TokenizedTweet validates the reconstruction itself
    assert "".join(t.surface for t in tweet.tokens) == "".join(text.split())


def fresh_kinds(text):
    return [(m.group(), m.lastgroup) for m in _TOKEN_RE.finditer(text)]


# the last piece, \u200b, is not whitespace, so it must stay inside its chunk
SPACES = [" ", "\t", "\n", "\x1c", "\x85", "\u00a0", "\u2028", "\u3000"]
PIECES = [*EMOTICONS, "URL", "url", "Url#", "http://t.co/x", "https://a.b/c?d", "www.",
          "www.x.y", "#", "@", "#tag", "@who", "b**ch", "*", "_", "7", "2019", "é", "Ωmega",
          "日本", "x", "d", "!", ":", "\u200b"]


@given(st.lists(st.one_of(st.sampled_from(PIECES + SPACES), st.text(max_size=3)), max_size=25)
       .map("".join))
@settings(max_examples=500, deadline=None)
def test_no_token_spans_whitespace(text):
    chunked = [pair for chunk in text.split() for pair in fresh_kinds(chunk)]
    assert fresh_kinds(text) == chunked
    assert kinds(text) == chunked


@pytest.fixture
def empty_memo(monkeypatch):
    monkeypatch.setattr(preprocess, "_chunk_memo", {})
    monkeypatch.setattr(preprocess, "_memo_chars", 0)


def test_memo_gives_the_fresh_tokenization(empty_memo):
    texts = [" ".join(PIECES), "".join(PIECES), " x".join(reversed(PIECES))]
    for text in texts + texts:  # the second pass hits the memo for every chunk
        assert kinds(text) == fresh_kinds(text)
    assert set(preprocess._chunk_memo) == {c for text in texts for c in text.split()}


def test_memo_reuses_the_tokens_of_a_chunk(empty_memo):
    first = tokenize("so :) #tag")
    again = tokenize("#tag so")
    assert again.tokens[0] is first.tokens[2] and again.tokens[1] is first.tokens[0]
    assert preprocess._chunk_memo == {
        "so": (Token("so", "word"),),
        ":)": (Token(":)", "emoticon"),),
        "#tag": (Token("#tag", "hashtag"),),
    }


def test_memo_respects_its_budget(empty_memo, monkeypatch):
    monkeypatch.setattr(preprocess, "MEMO_BUDGET", 10)
    texts = ["abc #x", ":)!", "hello abc", "b**ch 42", "hello"]
    for text in texts:
        assert kinds(text) == fresh_kinds(text)
        assert sum(map(len, preprocess._chunk_memo)) == preprocess._memo_chars <= 10
    # "hello" and "b**ch" did not fit in the room left; the shorter "42" did
    assert list(preprocess._chunk_memo) == ["abc", "#x", ":)!", "42"]
    assert tokenize("hello").tokens[0] is not tokenize("hello").tokens[0]
    assert tokenize("abc").tokens[0] is tokenize("abc").tokens[0]


def test_memo_budget_holds_across_threads(empty_memo, monkeypatch):
    monkeypatch.setattr(preprocess, "MEMO_BUDGET", 30_000)
    chunks = [f"w{i}" for i in range(8000)]  # 38,890 characters, more than the budget
    start = threading.Barrier(8)

    def work():
        start.wait(timeout=60)
        for chunk in chunks:
            tokenize(chunk)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sum(map(len, preprocess._chunk_memo)) == preprocess._memo_chars <= 30_000


def test_token_invariants():
    with pytest.raises(ValueError):
        Token("", "word")
    with pytest.raises(ValueError):
        Token("nohash", "hashtag")
    with pytest.raises(ValueError):
        TokenizedTweet((Token("abc", "word"),), "abx")


def test_normalize_profanity_variants():
    table = NormalizationTable.default()
    for variant in ("bi*ch", "b**ch", "bi**h", "biatch"):
        toks = tokenize(f"@USER You are a {variant}")
        assert normalize(toks, table) == ["you", "are", "a", "bitch"]


def test_normalize_multiword_canonical():
    assert normalize(tokenize("that sob")) == ["that", "son", "of", "bitch"]


def test_normalize_empty():
    assert normalize(tokenize("")) == []


def test_normalize_drops_mentions_urls_strips_hashtags():
    out = normalize(tokenize("@USER check URL #Maga now"))
    assert out == ["check", "maga", "now"]


def test_normalize_output_clean():
    out = normalize(tokenize("@a #B http://x.y UPPER bi*ch"))
    table = NormalizationTable.default()
    for word in out:
        assert not word.startswith("@") and not word.startswith("#")
        assert word == word.lower()
        assert word not in table.entries


def test_table_validation():
    with pytest.raises(ValueError):
        NormalizationTable({"UPPER": "x"})
    with pytest.raises(ValueError):
        NormalizationTable({"a": "b c", "b": "d"})  # value of one key is another key


def test_table_from_file(tmp_path):
    path = tmp_path / "norm.tsv"
    path.write_text("u\tyou\ngr8\tgreat\n", encoding="utf-8")
    table = NormalizationTable.from_file(path)
    assert normalize(tokenize("u gr8"), table) == ["you", "great"]


def test_pipeline_golden():
    assert preprocess_pipeline("@USER #fatbastard lol") == ["fat", "bastard", "lol"]
    assert preprocess_pipeline("plain words here") == ["plain", "words", "here"]
    assert preprocess_pipeline("b**ch #maga URL") == ["bitch", "maga"]


def test_pipeline_idempotent():
    texts = [
        "@USER #fatbastard lol",
        "b**ch #maga URL",
        "that sob :) 99 !!",
        "#GunControl now",
        # regression cases: tokens whose first-pass output used to re-tokenize
        # differently on a second pass
        "#urlworld link",        # segmentation can emit the bare "url" placeholder
        "great day :D XD",       # uppercase emoticons lowercase into other emoticons
        "#snake_case mixed",     # underscores inside segmented hashtag bodies
        "f*** that",
        "Xd0 Xd*ck",             # letter-ending emoticon prefix of a longer word
    ]
    for text in texts:
        once = preprocess_pipeline(text)
        again = preprocess_pipeline(" ".join(once))
        assert once == again, text


@given(st.text(alphabet=st.characters(codec="ascii", categories=["L", "N", "P", "S", "Z"]),
               max_size=50))
@settings(max_examples=400, deadline=None)
def test_pipeline_idempotent_property(text):
    once = preprocess_pipeline(text)
    again = preprocess_pipeline(" ".join(once))
    assert once == again


@given(st.text(alphabet=st.characters(codec="ascii"), max_size=60))
@settings(max_examples=200, deadline=None)
def test_pipeline_never_emits_marked_tokens(text):
    for word in preprocess_pipeline(text):
        assert not word.startswith("#")
        assert not word.startswith("@")
        assert word == word.lower()
