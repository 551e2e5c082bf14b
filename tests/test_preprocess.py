import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offlang.preprocess import (
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
