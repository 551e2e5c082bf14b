import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offlang import segmentation
from offlang.segmentation import (
    SegmentationDictionary,
    default_dictionary,
    segment_hashtag,
)


def brute_force_best(tag, dictionary):
    """Independent oracle: enumerate all 2^(n-1) splits, score each directly."""
    n = len(tag)
    best_score, best_split = -math.inf, None
    for mask in range(1 << (n - 1)):
        pieces, start = [], 0
        for i in range(n - 1):
            if mask & (1 << i):
                pieces.append(tag[start : i + 1])
                start = i + 1
        pieces.append(tag[start:])
        score = sum(dictionary.log_prob(p) for p in pieces)
        if score > best_score:
            best_score, best_split = score, pieces
    return best_split, best_score


def test_guncontrol_matches_brute_force():
    dictionary = SegmentationDictionary({"gun": 1000, "control": 800, "gu": 1, "ncontrol": 1})
    expected, expected_score = brute_force_best("guncontrol", dictionary)
    assert expected == ["gun", "control"]
    result = segment_hashtag("guncontrol", dictionary)
    assert result == expected
    assert math.isclose(
        sum(dictionary.log_prob(p) for p in result), expected_score, rel_tol=1e-12
    )


def test_shipped_dictionary_golden_cases():
    assert segment_hashtag("fatbastard") == ["fat", "bastard"]
    assert segment_hashtag("maga") == ["maga"]
    assert segment_hashtag("guncontrol") == ["gun", "control"]


def test_unknown_tag_stays_whole():
    # A long unknown chunk beats per-character fallbacks under the length penalty.
    dictionary = SegmentationDictionary({"real": 10})
    assert segment_hashtag("qzvxkjw", dictionary) == ["qzvxkjw"]


def test_uppercase_input_is_lowercased():
    assert segment_hashtag("FatBastard") == ["fat", "bastard"]


def test_empty_tag_rejected():
    with pytest.raises(ValueError):
        segment_hashtag("", SegmentationDictionary({}))


@given(st.text(alphabet="abcdefgh", min_size=1, max_size=18))
@settings(max_examples=200, deadline=None)
def test_concatenation_property(tag):
    pieces = segment_hashtag(tag, default_dictionary())
    assert "".join(pieces) == tag.lower()


@given(st.text(alphabet="abcde", min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_dp_matches_brute_force(tag):
    dictionary = SegmentationDictionary({"a": 50, "ab": 30, "bcd": 20, "de": 10, "abcde": 5})
    pieces = segment_hashtag(tag, dictionary)
    _, best_score = brute_force_best(tag, dictionary)
    score = sum(dictionary.log_prob(p) for p in pieces)
    assert math.isclose(score, best_score, rel_tol=1e-9, abs_tol=1e-9)


def test_dictionary_validation():
    with pytest.raises(ValueError):
        SegmentationDictionary({"UPPER": 3})
    with pytest.raises(ValueError):
        SegmentationDictionary({"ok": 0})


def test_dictionary_from_file_and_merge(tmp_path):
    path = tmp_path / "dict.tsv"
    path.write_text("alpha\t5\nbeta\t3\nalpha\t2\n", encoding="utf-8")
    d = SegmentationDictionary.from_file(path)
    assert d.counts == {"alpha": 7, "beta": 3}
    assert d.total == 10


@pytest.mark.parametrize("line, message", [
    ("abc\tx1", "count 'x1' is not an integer"),
    ("abc\t0", "dictionary counts must be positive: 'abc' -> 0"),
    ("ABC\t2", "dictionary words must be lowercase: 'ABC'"),
])
def test_dictionary_file_errors_name_the_line(tmp_path, line, message):
    path = tmp_path / "dict.tsv"
    path.write_text(f"alpha\t5\n\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"dict.tsv:3: {message}"):
        SegmentationDictionary.from_file(path)


def fresh_split(tag, counts):
    return segment_hashtag(tag, SegmentationDictionary(counts))


@given(st.lists(st.text(alphabet="abcdeAB", min_size=1, max_size=10), max_size=20))
@settings(max_examples=60, deadline=None)
def test_memo_gives_the_fresh_split(tags):
    counts = {"a": 50, "ab": 30, "bcd": 20, "de": 10, "abcde": 5}
    dictionary = SegmentationDictionary(counts)
    for tag in tags + tags:
        assert segment_hashtag(tag, dictionary) == fresh_split(tag, counts)


def test_memo_returns_a_new_list_each_call():
    dictionary = SegmentationDictionary({"gun": 1000, "control": 800})
    first = segment_hashtag("GunControl", dictionary)
    first.append("corrupted")
    first[0] = "x"
    assert segment_hashtag("guncontrol", dictionary) == ["gun", "control"]
    assert segment_hashtag("guncontrol", dictionary) is not segment_hashtag("guncontrol", dictionary)


def test_memo_is_per_dictionary():
    one = SegmentationDictionary({"gun": 1000, "control": 800})
    other = SegmentationDictionary({"guncon": 1000, "trol": 800})
    assert segment_hashtag("guncontrol", one) == ["gun", "control"]
    assert segment_hashtag("guncontrol", other) == ["guncon", "trol"]
    assert one._memo == {"guncontrol": ("gun", "control")}
    assert other._memo == {"guncontrol": ("guncon", "trol")}
    assert one == SegmentationDictionary({"gun": 1000, "control": 800})  # the memo is not compared


def test_memo_respects_its_limit(monkeypatch):
    monkeypatch.setattr(segmentation, "MEMO_LIMIT", 3)
    dictionary = SegmentationDictionary({"ab": 5, "c": 2})
    tags = ["abc", "cab", "abab", "cc", "abcab"]
    for tag in tags:
        assert segment_hashtag(tag, dictionary) == fresh_split(tag, {"ab": 5, "c": 2})
    assert list(dictionary._memo) == tags[:3]
    assert segment_hashtag("cc", dictionary) == ["c", "c"]


def test_dictionary_counts_are_read_only():
    source = {"gun": 1000}
    dictionary = SegmentationDictionary(source)
    source["gu"] = 10**9  # the dictionary holds its own copy
    assert dict(dictionary.counts) == {"gun": 1000}
    with pytest.raises(TypeError):
        dictionary.counts["gun"] = 1
    with pytest.raises(TypeError):
        del dictionary.counts["gun"]
