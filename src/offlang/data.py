"""Loading, filtering, and splitting of the labelled tweet dataset.

The distributed format is a tab-separated file with a header row. Tweet
text is treated as opaque: the format guarantees tabs never occur inside
a tweet, so no quoting or escaping rules apply.
"""
from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

logger = logging.getLogger(__name__)

OFF = "OFF"
NOT = "NOT"
TIN = "TIN"
UNT = "UNT"

LABELS_A = (NOT, OFF)
LABELS_B = (TIN, UNT)

SPLIT_TAGS = ("train", "validation", "test")


class DataFormatError(ValueError):
    """A dataset or support file violates its declared format."""


def read_lines(path: str | Path, error: type[Exception] = DataFormatError
               ) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, line)`` for each line of a UTF-8 text file, from 1,
    without its ending (``\\n``, ``\\r\\n`` or ``\\r``); blank lines included.

    A file that is not UTF-8 raises ``error("path:N: not UTF-8 (reason)")``,
    naming the first line N that does not decode: text mode decodes a block
    of lines at a time, so the error can surface on an earlier line.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line.rstrip("\n")  # universal newlines end every line in \n
            return
        except UnicodeDecodeError as exc:
            reason = exc.reason
    with open(path, "rb") as fh:
        # bytes.splitlines cuts at \n, \r\n and \r, as text mode does
        raw_lines = (raw for chunk in fh for raw in chunk.splitlines())
        for lineno, raw in enumerate(raw_lines, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                raise error(f"{path}:{lineno}: not UTF-8 ({reason})") from None
    raise error(f"{path}: not UTF-8 ({reason})")  # the file changed while it was read


def read_items(path: str | Path) -> frozenset[str]:
    """The stripped non-blank lines of a text file (see :func:`read_lines`)."""
    return frozenset(item for _, line in read_lines(path) if (item := line.strip()))


def resource(name: str) -> Path:
    """The path of a file shipped in the package's ``resources`` directory."""
    return Path(__file__).parent / "resources" / name


@dataclass(frozen=True)
class DatasetRecord:
    """One labelled tweet. ``label_b`` is only meaningful for offensive tweets."""

    id: str
    text: str
    label_a: str | None = None
    label_b: str | None = None

    def __post_init__(self):
        if not self.id:
            raise DataFormatError("record id must be non-empty")
        if self.label_a is not None and self.label_a not in LABELS_A:
            raise DataFormatError(f"unknown sub-task A label: {self.label_a!r}")
        if self.label_b is not None and self.label_b not in LABELS_B:
            raise DataFormatError(f"unknown sub-task B label: {self.label_b!r}")
        if self.label_b is not None and self.label_a != OFF:
            raise DataFormatError(
                f"record {self.id!r}: sub-task B label requires label_a == OFF"
            )


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of records with unique ids."""

    records: tuple[DatasetRecord, ...]
    split_tag: str = "train"

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if self.split_tag not in SPLIT_TAGS:
            raise ValueError(f"split_tag must be one of {SPLIT_TAGS}, got {self.split_tag!r}")
        seen = set()
        for record in self.records:
            if record.id in seen:
                raise DataFormatError(f"duplicate record id: {record.id!r}")
            seen.add(record.id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def ids(self) -> list[str]:
        return [r.id for r in self.records]


@dataclass(frozen=True)
class ExclusionList:
    """Record ids to drop from a dataset (e.g. suspected mislabelled rows)."""

    ids: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "ids", frozenset(self.ids))

    @classmethod
    def from_file(cls, path: str | Path) -> "ExclusionList":
        """Read one id per line; blank lines and ``#`` comment lines are ignored."""
        return cls(frozenset(line for line in read_items(path) if not line.startswith("#")))


def _parse_label(raw: str, allowed: tuple[str, ...], path: Path, lineno: int) -> str | None:
    if raw in ("NULL", ""):
        return None
    if raw not in allowed:
        raise DataFormatError(f"{path}:{lineno}: unknown label {raw!r}")
    return raw


def load_olid(path: str | Path, has_labels: bool = True, split_tag: str = "train") -> Dataset:
    """Parse a tab-separated tweet file into a :class:`Dataset`.

    The header row must name ``id`` and ``tweet`` columns, plus ``subtask_a``
    and ``subtask_b`` when ``has_labels`` is set. Extra columns are ignored.
    A ``NULL`` (or empty) label cell maps to an absent label.
    """
    path = Path(path)
    lines = read_lines(path)
    first = next(lines, None)
    if first is None:
        raise DataFormatError(f"{path}: empty file, expected a header row")
    header = first[1].split("\t")
    required = ["id", "tweet"] + (["subtask_a", "subtask_b"] if has_labels else [])
    try:
        cols = {name: header.index(name) for name in required}
    except ValueError:
        missing = [name for name in required if name not in header]
        raise DataFormatError(f"{path}: header is missing column(s) {missing}") from None

    records = []
    for lineno, line in lines:
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(header):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(header)} tab-separated fields, "
                f"got {len(fields)}"
            )
        label_a = label_b = None
        if has_labels:
            label_a = _parse_label(fields[cols["subtask_a"]], LABELS_A, path, lineno)
            label_b = _parse_label(fields[cols["subtask_b"]], LABELS_B, path, lineno)
        try:
            records.append(
                DatasetRecord(fields[cols["id"]], fields[cols["tweet"]], label_a, label_b)
            )
        except DataFormatError as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    return Dataset(tuple(records), split_tag)


def apply_exclusions(dataset: Dataset, exclusions: ExclusionList) -> Dataset:
    """Drop excluded ids, preserving record order. The input is unmodified.

    Exclusion ids absent from the dataset are ignored; their count is logged.
    """
    present = {r.id for r in dataset.records}
    unmatched = len(exclusions.ids - present)
    if unmatched:
        logger.info("exclusion list: %d id(s) not present in the dataset", unmatched)
    kept = tuple(r for r in dataset.records if r.id not in exclusions.ids)
    return Dataset(kept, dataset.split_tag)


def class_distribution(dataset: Dataset, task: str) -> dict[str, int]:
    """Count labels for sub-task ``"A"`` or ``"B"``; unlabelled records are skipped."""
    if task not in ("A", "B"):
        raise ValueError(f"task must be 'A' or 'B', got {task!r}")
    counts: Counter[str] = Counter()
    for record in dataset.records:
        label = record.label_a if task == "A" else record.label_b
        if label is not None:
            counts[label] += 1
    return dict(counts)


def stratified_split(
    dataset: Dataset, validation_fraction: float = 0.1, seed: int = 42
) -> tuple[Dataset, Dataset]:
    """Split into train/validation keeping per-class proportions.

    Each class contributes ``round(fraction * class_size)`` records to the
    validation set, so per-class proportions land within one record of the
    request. Deterministic for a fixed seed.
    """
    if not 0.0 < validation_fraction < 1.0:
        raise ValueError(f"validation_fraction must be in (0, 1), got {validation_fraction}")
    by_class: dict[str, list[int]] = {}
    for i, record in enumerate(dataset.records):
        by_class.setdefault(str(record.label_a), []).append(i)
    for label, members in by_class.items():
        if len(members) < 2:
            raise ValueError(f"class {label!r} has fewer than 2 records; cannot stratify")

    rng = np.random.default_rng(seed)
    val_indices: set[int] = set()
    for label in sorted(by_class):
        indices = np.array(by_class[label])
        rng.shuffle(indices)
        n_val = int(np.floor(validation_fraction * len(indices) + 0.5))
        val_indices.update(int(i) for i in indices[:n_val])

    train_records = tuple(r for i, r in enumerate(dataset.records) if i not in val_indices)
    val_records = tuple(r for i, r in enumerate(dataset.records) if i in val_indices)
    return Dataset(train_records, "train"), Dataset(val_records, "validation")
