import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_olid
from offlang.cli import UsageError, _load_config_file, _read_items, _read_predictions
from offlang.data import (
    DataFormatError,
    Dataset,
    DatasetRecord,
    ExclusionList,
    apply_exclusions,
    class_distribution,
    load_olid,
    read_lines,
    stratified_split,
)
from offlang.embeddings import EmbeddingFormatError, load_embeddings
from offlang.heuristics import AnnotationError, HeuristicLexicon, load_annotations
from offlang.preprocess import NormalizationTable
from offlang.segmentation import SegmentationDictionary

# Every reader of a text file: how to call it, the error a non-UTF-8 file
# raises, and a valid first line and a valid later line.
READERS = {
    "olid": (load_olid, DataFormatError,
             b"id\ttweet\tsubtask_a\tsubtask_b\n", b"1\tan ordinary tweet\tNOT\tNULL\n"),
    "embeddings": (lambda path: load_embeddings(path, 2), EmbeddingFormatError,
                   b"a 0.1 0.2\n", b"b 0.3 -4\n"),
    "config": (_load_config_file, UsageError, b"k=3\n", b"# a comment\n"),
    "exclusion-list": (ExclusionList.from_file, DataFormatError, b"# ids\n", b"12\n"),
    "norm-table": (NormalizationTable.from_file, DataFormatError, b"b*tch\tbitch\n", b"sob\tson\n"),
    "seg-dict": (SegmentationDictionary.from_file, DataFormatError, b"alpha\t5\n", b"beta\t3\n"),
    "lexicon": (HeuristicLexicon.from_file, DataFormatError, b"#maga\n", b"scum\n"),
    "annotations": (load_annotations, AnnotationError,
                    b"7\tyou/PRP are/V\t-\n", b"8\tBob/NNP\t0:1:PERSON\n"),
    "stoplist": (lambda path: _read_items(path, "--stoplist"), DataFormatError, b"the\n", b"#a\n"),
    "predictions": (lambda path: _read_predictions(path, "A"), DataFormatError,
                    b"1\t0.900000\tOFF\n", b"2\t0.100000\tNOT\n"),
}
# Readers whose malformed lines raise a plain ValueError.
MALFORMED = {"norm-table": ValueError, "seg-dict": ValueError}


def test_load_two_rows(tmp_path):
    # Hand-traced parse of a 2-line fixture.
    path = write_olid(tmp_path / "d.tsv", [("1", "hi", "NOT", None), ("2", "ugh @USER", "OFF", "UNT")])
    ds = load_olid(path)
    assert len(ds) == 2
    assert ds.records[0] == DatasetRecord("1", "hi", "NOT", None)
    assert ds.records[1].label_a == "OFF"
    assert ds.records[1].label_b == "UNT"


def test_load_header_only(tmp_path):
    path = write_olid(tmp_path / "d.tsv", [])
    assert len(load_olid(path)) == 0


def test_load_rejects_unknown_label(tmp_path):
    path = write_olid(tmp_path / "d.tsv", [("1", "x", "BAD", None)])
    with pytest.raises(DataFormatError, match="BAD"):
        load_olid(path)


def test_load_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text("id\ttweet\tsubtask_a\tsubtask_b\n1\tno labels here\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=":2"):
        load_olid(path)


@pytest.mark.parametrize("reader, bad_line", [
    pytest.param("olid", 2, id="2"),
    pytest.param("olid", 900, id="900"),
    *(pytest.param(reader, 2, id=reader) for reader in READERS if reader != "olid"),
])
def test_load_rejects_non_utf8_naming_the_line(tmp_path, reader, bad_line):
    # text mode decodes many lines at once; the message names the bad one
    read, error, first, good = READERS[reader]
    path = tmp_path / "d.tsv"
    path.write_bytes(first + good * (bad_line - 2) + b"caf\xe9 au lait\n" + good)
    with pytest.raises(error, match=f"d.tsv:{bad_line}: not UTF-8") as excinfo:
        read(path)
    assert excinfo.type is error


FRAGMENTS = [b"\t", b"\n", b"\r", b"\r\n", b" ", b"#", b"=", b"/", b":", b",", b"-", b"*",
             b"a", b"A", b"1", b"0.5", b"NOT", b"OFF", b"NULL", b"PERSON", b"PRP",
             b"id\ttweet\tsubtask_a\tsubtask_b\n", b"\xe9", b"\xc3\xa9", b"\xff", b"\x85",
             b"\xe2\x80\xa8", b"\x00"]


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(content=st.binary(max_size=48)
       | st.lists(st.sampled_from(FRAGMENTS), max_size=24).map(b"".join))
def test_readers_raise_only_their_own_errors(tmp_path_factory, reader, content):
    read, error, _, _ = READERS[reader]
    path = tmp_path_factory.getbasetemp() / f"fuzz-{reader}"
    path.write_bytes(content)
    try:
        read(path)
    except Exception as exc:  # noqa: BLE001 - the type is what is tested
        # UnicodeDecodeError is itself a ValueError
        assert isinstance(exc, (error, MALFORMED.get(reader, error)))
        assert not isinstance(exc, UnicodeDecodeError), exc


@pytest.mark.parametrize("content, lines", [
    (b"a\r\n\r\nb\rc\nd", [(1, "a"), (2, ""), (3, "b"), (4, "c"), (5, "d")]),
    # str.splitlines would also cut at each of these
    ("a\x85b\u2028c\x0bd\x0ce\n".encode(), [(1, "a\x85b\u2028c\x0bd\x0ce")]),
], ids=["newlines", "other-separators"])
def test_read_lines_splits_only_at_newlines(tmp_path, content, lines):
    path = tmp_path / "t.txt"
    path.write_bytes(content)
    assert list(read_lines(path)) == lines


def test_read_lines_counts_lines_as_text_mode_does(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"a\rb\r\ncaf\xe9\n")
    with pytest.raises(DataFormatError, match="t.txt:3: not UTF-8"):
        list(read_lines(path))


def test_load_unlabeled(tmp_path):
    path = write_olid(tmp_path / "d.tsv", [("1", "hello"), ("2", "there")], has_labels=False)
    ds = load_olid(path, has_labels=False)
    assert [r.label_a for r in ds] == [None, None]


def test_load_ignores_extra_columns(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text(
        "id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n1\thi\tOFF\tTIN\tIND\n",
        encoding="utf-8",
    )
    ds = load_olid(path)
    assert ds.records[0].label_b == "TIN"


def test_duplicate_ids_rejected(tmp_path):
    path = write_olid(tmp_path / "d.tsv", [("1", "a", "NOT", None), ("1", "b", "NOT", None)])
    with pytest.raises(DataFormatError, match="duplicate"):
        load_olid(path)


def test_label_b_requires_off():
    with pytest.raises(DataFormatError):
        DatasetRecord("1", "x", "NOT", "TIN")


def _dataset(n_not, n_off):
    records = [DatasetRecord(f"n{i}", "x", "NOT") for i in range(n_not)]
    records += [DatasetRecord(f"o{i}", "y", "OFF") for i in range(n_off)]
    return Dataset(tuple(records))


def test_apply_exclusions_basic():
    ds = Dataset(tuple(DatasetRecord(str(i), "t", "NOT") for i in (1, 2, 3)))
    out = apply_exclusions(ds, ExclusionList(frozenset({"2"})))
    assert out.ids() == ["1", "3"]
    assert len(ds) == 3  # input unmodified


def test_apply_exclusions_empty_is_identity():
    ds = _dataset(3, 2)
    assert apply_exclusions(ds, ExclusionList()).records == ds.records


def test_apply_exclusions_four_percent_scale():
    # 13240 records minus 530 matching ids leaves 12710.
    ds = _dataset(13000, 240)
    excl = ExclusionList(frozenset(f"n{i}" for i in range(530)))
    assert len(apply_exclusions(ds, excl)) == 12710


def test_exclusion_file_comments(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("# comment\n12\n\n34\n", encoding="utf-8")
    assert ExclusionList.from_file(path).ids == {"12", "34"}


def test_class_distribution_test_set_shape():
    # 0.7209 * 860 rounds to 620 NOT, so OFF = 240; sanity: they sum to 860.
    n_not = round(0.7209 * 860)
    assert n_not == 620
    ds = _dataset(620, 240)
    assert class_distribution(ds, "A") == {"NOT": 620, "OFF": 240}
    assert sum(class_distribution(ds, "A").values()) == 860


def test_class_distribution_task_b():
    # 0.8875 * 240 = 213 TIN.
    assert round(0.8875 * 240) == 213
    records = [DatasetRecord(f"t{i}", "x", "OFF", "TIN") for i in range(213)]
    records += [DatasetRecord(f"u{i}", "x", "OFF", "UNT") for i in range(27)]
    records += [DatasetRecord("plain", "x", "NOT")]  # no label_b: not counted
    ds = Dataset(tuple(records))
    assert class_distribution(ds, "B") == {"TIN": 213, "UNT": 27}


def test_class_distribution_empty():
    assert class_distribution(Dataset(()), "A") == {}


def test_stratified_split_proportions():
    ds = _dataset(80, 20)
    train, val = stratified_split(ds, 0.1, seed=7)
    val_counts = class_distribution(val, "A")
    assert val_counts == {"NOT": 8, "OFF": 2}
    assert len(train) + len(val) == 100
    assert set(train.ids()) | set(val.ids()) == set(ds.ids())
    assert not set(train.ids()) & set(val.ids())


def test_stratified_split_deterministic():
    ds = _dataset(80, 20)
    first = stratified_split(ds, 0.1, seed=7)
    second = stratified_split(ds, 0.1, seed=7)
    assert first[0].ids() == second[0].ids()
    assert first[1].ids() == second[1].ids()


def test_stratified_split_rejects_bad_fraction():
    ds = _dataset(4, 4)
    with pytest.raises(ValueError):
        stratified_split(ds, 1.5)
    with pytest.raises(ValueError):
        stratified_split(ds, 0.0)
