import sys
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offlang import heuristics
from offlang.data import Dataset, DatasetRecord, read_items, read_lines, resource
from offlang.heuristics import (
    POS_TAGS,
    AnnotatedTweet,
    AnnotationError,
    EntitySpan,
    HeuristicLexicon,
    RuleTrace,
    annotate,
    annotate_builtin,
    build_lexicon,
    classify_target,
    default_stoplist,
    load_annotations,
    seed_lexicon,
)

LEX = HeuristicLexicon(frozenset({"#maga", "#qanon"}), frozenset({"antifa", "trump"}))


def test_annotate_you_are_stupid():
    out = annotate_builtin(["you", "are", "stupid"])
    assert out.pos_tags == ("PRP", "V", "OTHER")
    assert out.entities == ()


def test_annotate_gazetteer_promotes_sentence_initial_name():
    # Position-0 capitalization alone is not proper-noun evidence, but the
    # gazetteer entry is.
    out = annotate_builtin(["Trump", "lies"])
    assert out.pos_tags == ("NNP", "V")
    assert out.entities == (EntitySpan(0, 1, "PERSON"),)
    out = annotate_builtin(["Unknownword", "lies"])
    assert out.pos_tags[0] == "OTHER"
    assert out.entities == ()


def test_annotate_capitalized_mid_sentence_is_person():
    out = annotate_builtin(["meet", "Zorblat"])
    assert out.pos_tags == ("V", "NNP")
    assert out.entities == (EntitySpan(1, 2, "PERSON"),)


def test_annotate_gazetteer_types():
    out = annotate_builtin(["leaving", "America", "for", "CNN"])
    assert out.entities == (EntitySpan(1, 2, "LOCATION"), EntitySpan(3, 4, "ORG"))


def test_annotate_marks_hashtags_and_mentions():
    out = annotate_builtin(["#maga", "@USER", "Hi"])
    assert out.pos_tags == ("HASHTAG", "MENTION", "NNP")


def test_annotate_empty():
    out = annotate_builtin([])
    assert out.tokens == () and out.pos_tags == () and out.entities == ()


def test_annotated_tweet_validation():
    with pytest.raises(ValueError):
        AnnotatedTweet(("a",), ("V", "V"), ())
    with pytest.raises(ValueError):
        AnnotatedTweet(("a",), ("BAD",), ())
    with pytest.raises(ValueError):
        AnnotatedTweet(("a", "b"), ("N", "N"), (EntitySpan(0, 2, "PERSON"), EntitySpan(1, 2, "ORG")))


def test_rule_trace_validation():
    RuleTrace(1, "TIN")
    RuleTrace(3, "UNT")
    with pytest.raises(ValueError):
        RuleTrace(3, "TIN")
    with pytest.raises(ValueError):
        RuleTrace(8, "TIN")


# Each entry: (tokens, expected label, expected rule). Expected traces were
# derived by hand from the annotator rules and the rule order, with LEX as
# the lexicon. Several cases pin order sensitivity where multiple rules match.
RULE_CASES = [
    (["#maga", "wins"], "TIN", 1),                       # lexicon hashtag
    (["#MAGA", "forever"], "TIN", 1),                    # hashtag match is case-insensitive
    (["antifa", "everywhere"], "TIN", 2),                # lexicon token
    (["Trump", "ruined", "everything"], "TIN", 2),       # R2 beats R6 though an entity exists
    (["complete", "garbage", "everywhere"], "UNT", 3),   # nothing personal anywhere
    (["you", "are", "a", "disgrace"], "TIN", 4),         # PRP blocks R3, bigram fires
    (["he", "is", "awful"], "TIN", 4),
    (["She", "Is", "The", "Worst"], "TIN", 4),           # R4 beats R6 (capitalized words
                                                         # become naive PERSON entities)
    (["America", "sucks"], "TIN", 6),                    # entity, no bigram, no hashtag start
    (["#losers", "destroy", "Obama"], "TIN", 5),         # hashtag start, verb then entity
    (["#losers", "Obama", "destroys"], "TIN", 6),        # entity BEFORE verb: R5 skipped
    (["utter", "rubbish"], "UNT", 3),
    (["they", "are", "pathetic"], "UNT", 7),             # PRP present but no rule matches
    (["Kavanaugh", "is", "a", "joke"], "TIN", 6),
    (["trump", "2020"], "TIN", 2),                       # lowercase lexicon token
    (["#qanon", "nonsense"], "TIN", 1),
    (["@USER", "you", "are", "scum"], "TIN", 4),
    (["so", "much", "winning"], "UNT", 3),               # verb alone does not make a target
    (["#maga", "you", "are", "done"], "TIN", 1),         # R1 beats R4
    ([], "UNT", 3),                                      # empty post has no target signals
    (["Hitler", "would", "be", "proud"], "TIN", 6),
    (["lock", "her", "up"], "UNT", 7),                   # pronoun but no pattern or entity
]


@pytest.mark.parametrize("tokens,expected_label,expected_rule", RULE_CASES,
                         ids=[" ".join(c[0]) or "<empty>" for c in RULE_CASES])
def test_rule_engine_hand_traces(tokens, expected_label, expected_rule):
    label, trace = classify_target(annotate_builtin(tokens), LEX)
    assert (label, trace.rule_fired) == (expected_label, expected_rule)
    assert trace.label == label


def test_rule_one_ignores_annotations_entirely():
    # If R1 fires, any change to tags/entities cannot alter the outcome.
    tokens = ("#maga", "you", "are", "done")
    variants = [
        AnnotatedTweet(tokens, ("HASHTAG", "PRP", "V", "OTHER"), ()),
        AnnotatedTweet(tokens, ("OTHER", "OTHER", "OTHER", "OTHER"), ()),
        AnnotatedTweet(tokens, ("N", "N", "N", "N"), (EntitySpan(1, 2, "ORG"),)),
    ]
    results = {classify_target(v, LEX) for v in variants}
    assert results == {("TIN", RuleTrace(1, "TIN"))}


def test_classifier_is_total_over_tag_combinations():
    tweet = AnnotatedTweet(("a", "b"), ("N", "V"), ())
    label, trace = classify_target(tweet, HeuristicLexicon())
    assert label in ("TIN", "UNT") and 1 <= trace.rule_fired <= 7


def test_lexicon_validation_and_file_round_trip(tmp_path):
    with pytest.raises(ValueError):
        HeuristicLexicon(frozenset({"maga"}), frozenset())
    with pytest.raises(ValueError):
        HeuristicLexicon(frozenset(), frozenset({"#maga"}))
    path = tmp_path / "lex.txt"
    LEX.to_file(path)
    assert HeuristicLexicon.from_file(path) == LEX


@pytest.mark.parametrize("hashtags,tokens,item", [
    ({"#MAGA"}, set(), "'#MAGA'"),   # the rules lowercase tokens, so these never match
    (set(), {"Antifa"}, "'Antifa'"),
    (set(), {""}, "''"),             # and an empty item does not survive to_file/from_file
    (set(), {"foo bar"}, "'foo bar'"),  # tokens never contain whitespace
    ({"#foo\u00a0bar"}, set(), r"'#foo\\xa0bar'"),
])
def test_lexicon_rejects_items_that_can_never_match(hashtags, tokens, item):
    with pytest.raises(ValueError, match=item):
        HeuristicLexicon(frozenset(hashtags), frozenset(tokens))


def test_lexicon_file_items_are_lowercased(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("#MAGA\n  Antifa \nTRUMP\n#QAnon\n", encoding="utf-8")
    assert HeuristicLexicon.from_file(path) == LEX


def test_seed_lexicon_contents():
    lex = seed_lexicon()
    assert "#maga" in lex.hashtags and "#qanon" in lex.hashtags
    assert "antifa" in lex.tokens and "nigga" in lex.tokens


def _training_set():
    rows = (
        ("1", "#maga #maga #kag antifa antifa the the the", "OFF", "TIN"),
        ("2", "#maga #kag antifa trump the the", "OFF", "TIN"),
        ("3", "#resist trump trump the boring", "OFF", "UNT"),
    )
    return Dataset(tuple(DatasetRecord(*r) for r in rows))


def test_build_lexicon_top_k_and_stoplist():
    lex = build_lexicon(_training_set(), stoplist={"the"}, k=2)
    # hashtag counts: #maga 3, #kag 2, #resist 1 -> top 2
    assert lex.hashtags == {"#maga", "#kag"}
    # token counts (stoplist removes "the"): antifa 3, trump 3, boring 1;
    # tie between antifa/trump broken alphabetically is irrelevant at k=2
    assert lex.tokens == {"antifa", "trump"}


def test_build_lexicon_overrides_and_ordering():
    lex = build_lexicon(_training_set(), stoplist={"the"}, k=2, overrides={"#maga", "trump"})
    assert lex.hashtags == {"#kag", "#resist"}
    assert lex.tokens == {"antifa", "boring"}


def test_build_lexicon_k_zero():
    lex = build_lexicon(_training_set(), k=0)
    assert lex.hashtags == frozenset() and lex.tokens == frozenset()


def test_build_lexicon_deterministic_ties():
    a = build_lexicon(_training_set(), stoplist=default_stoplist(), k=1)
    b = build_lexicon(_training_set(), stoplist=default_stoplist(), k=1)
    assert a == b
    assert a.tokens == {"antifa"}  # antifa ties trump at 3, wins alphabetically


def test_external_annotations_round_trip(tmp_path):
    path = tmp_path / "ann.tsv"
    path.write_text(
        "42\tyou/PRP are/V Trump/NNP\t2:3:PERSON\n"
        "43\tnothing/OTHER here/OTHER\t-\n",
        encoding="utf-8",
    )
    table = load_annotations(path)
    tweet = annotate(["ignored"], annotations=table, tweet_id="42")
    assert tweet.tokens == ("you", "are", "Trump")
    assert tweet.entities == (EntitySpan(2, 3, "PERSON"),)
    assert annotate([], table, "43").entities == ()


def test_external_annotations_missing_id_fatal(tmp_path):
    path = tmp_path / "ann.tsv"
    path.write_text("42\ta/N\t-\n", encoding="utf-8")
    table = load_annotations(path)
    with pytest.raises(AnnotationError, match="99"):
        annotate(["x"], table, "99")
    with pytest.raises(AnnotationError, match="tweet id"):
        annotate(["x"], table)


def test_external_annotations_bad_file(tmp_path):
    path = tmp_path / "ann.tsv"
    path.write_text("42\ta/N b/BADTAG\t-\n", encoding="utf-8")
    with pytest.raises(AnnotationError):
        load_annotations(path)


@contextmanager
def memo_emptied():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heuristics, "_token_memo", {})
        patch.setattr(heuristics, "_memo_chars", 0)
        yield


@pytest.fixture
def empty_memo():
    with memo_emptied():
        yield


def fresh(tokens):
    """The builtin annotation of ``tokens`` from an empty memo."""
    with memo_emptied():
        return annotate_builtin(tokens)


def test_memo_keys_on_the_position_within_one_tweet(empty_memo):
    out = annotate_builtin(["Zorblat", "met", "Zorblat"])
    assert out.pos_tags == ("OTHER", "V", "NNP")
    assert out.entities == (EntitySpan(2, 3, "PERSON"),)


@pytest.mark.parametrize("first_tweet", [0, 1])
def test_memo_keys_on_the_position_across_tweets(empty_memo, first_tweet):
    tweets = [["Zorblat", "lies"], ["meet", "Zorblat"]]
    expected = [(("OTHER", "V"), ()), (("V", "NNP"), (EntitySpan(1, 2, "PERSON"),))]
    for i in (first_tweet, 1 - first_tweet):
        out = annotate_builtin(tweets[i])
        assert (out.pos_tags, out.entities) == expected[i]
    assert set(heuristics._token_memo) == {
        ("Zorblat", True), ("lies", False), ("meet", True), ("Zorblat", False)}


GAZETTEER_NAMES = sorted(line.split("\t")[0] for _, line in read_lines(resource("gazetteer.tsv"))
                         if line.strip())
PRONOUNS = sorted(read_items(resource("pronouns.txt")))
VERB_STEMS = sorted(read_items(resource("verb_stems.txt")))


def _verb_forms(stem, suffix):
    # plain, final-e dropped ("hate" -> "hating") and doubled consonant ("stop" -> "stopped")
    return st.sampled_from([stem + suffix, stem[:-1] + suffix, stem + stem[-1] + suffix])


VERB_FORMS = st.tuples(st.sampled_from(VERB_STEMS), st.sampled_from(["", "ing", "ed", "s"])
                       ).flatmap(lambda pair: _verb_forms(*pair))
WORDS = st.one_of(
    st.sampled_from(GAZETTEER_NAMES),
    st.sampled_from(PRONOUNS),
    VERB_FORMS,
    st.from_regex(r"[A-Z][a-z]{0,8}", fullmatch=True),   # capitalized, mostly unknown
    st.sampled_from(["Zorblat", "Qux", "Z"]),            # ... and often repeated
)
TOKENS = st.one_of(
    st.tuples(WORDS, st.sampled_from([str, str.capitalize, str.upper, str.lower]))
    .map(lambda pair: pair[1](pair[0])),
    WORDS.map("#".__add__),
    WORDS.map("@".__add__),
    st.text(max_size=6),
)


@given(st.lists(st.lists(TOKENS, max_size=8), min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_memo_gives_the_fresh_annotation(tweets):
    with memo_emptied():
        # the second pass finds every token in the memo
        memoized = [annotate_builtin(tokens) for tokens in tweets + tweets]
    assert memoized == [fresh(tokens) for tokens in tweets + tweets]


def test_memo_respects_its_budget(empty_memo, monkeypatch):
    monkeypatch.setattr(heuristics, "MEMO_BUDGET", 10)
    tweets = [["Zorblat", "is"], ["you", "Zorblat"], ["a", "b"], ["Zorblat", "is", "a"]]
    for tokens in tweets:
        assert annotate_builtin(tokens) == fresh(tokens)
        held = sum(len(token) for token, _ in heuristics._token_memo)
        assert held == heuristics._memo_chars <= 10
    # ("you", first) did not fit in the room left; the shorter ("a", first) did
    assert list(heuristics._token_memo) == [("Zorblat", True), ("is", False), ("a", True)]


def test_memo_budget_holds_across_threads(empty_memo, monkeypatch):
    monkeypatch.setattr(heuristics, "MEMO_BUDGET", 30_000)
    tokens = [f"w{i}" for i in range(8000)]  # 38,890 characters, more than the budget
    start = threading.Barrier(8)

    def work():
        start.wait(timeout=60)
        for token in tokens:
            annotate_builtin(["x", token])

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
    held = sum(len(token) for token, _ in heuristics._token_memo)
    assert held == heuristics._memo_chars <= 30_000


# lowercase items without whitespace: the only items a lexicon accepts
LOWER_ITEMS = st.text(min_size=1, max_size=4).map(str.lower).filter(lambda w: w.split() == [w])


@st.composite
def lexicons_and_tweets(draw):
    hashtags = draw(st.frozensets(LOWER_ITEMS.map("#".__add__), max_size=4))
    words = draw(st.frozensets(LOWER_ITEMS.filter(lambda w: not w.startswith("#")), max_size=4))
    lexicon = HeuristicLexicon(hashtags, words)
    item = st.sampled_from(sorted(hashtags | words)) if hashtags | words else st.nothing()
    token = st.one_of(
        st.tuples(item, st.sampled_from([str, str.upper, str.capitalize]))
        .map(lambda pair: pair[1](pair[0])),
        st.text(max_size=4),
    )
    tokens = draw(st.lists(token, max_size=6))
    tags = draw(st.lists(st.sampled_from(POS_TAGS), min_size=len(tokens), max_size=len(tokens)))
    entity_at = draw(st.sets(st.integers(0, len(tokens) - 1))) if tokens else set()
    entities = tuple(EntitySpan(i, i + 1, "PERSON") for i in sorted(entity_at))
    return lexicon, AnnotatedTweet(tuple(tokens), tuple(tags), entities)


@given(lexicons_and_tweets())
@settings(max_examples=500, deadline=None)
def test_rules_one_and_two_fire_on_a_lowercased_lexicon_token(case):
    lexicon, tweet = case
    _, trace = classify_target(tweet, lexicon)
    if any(t.lower() in lexicon.hashtags for t in tweet.tokens):
        assert trace.rule_fired == 1
    elif any(t.lower() in lexicon.tokens for t in tweet.tokens):
        assert trace.rule_fired == 2
    else:
        assert trace.rule_fired not in (1, 2)
