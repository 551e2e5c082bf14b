"""The four workloads: set-up, one round of operations, and output checks.

Each workload is a closed loop: one client in one process sends its next
operation only after the previous one returned. An operation is one CLI
call (through ``offlang.cli.main``) or one ingest sequence; it fails if it
returns a nonzero exit code, raises, or fails an output check. Programs are
looked up through their modules at call time (``cli.main``, ``D.load_olid``)
so that the tracer's wrappers, when installed, are the ones called.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import gen

ARCH_FLAGS = ("cnn", "blstm-att", "blstm-bgru")
TRAIN_ROWS = 96         # reduced training file: 87 train + 9 validation rows
TRAIN_EPOCHS = 1
VALIDATION_FRACTION = 0.1
SPLIT_SEED = 42
LEXICON_K = 10
PREDICT_VOCABULARY = 15_000  # most frequent corpus words; every seed has more
PROB_TOL = 1e-6
# End-to-end metrics of the result line (BENCHMARK.json), with their units.
END_TO_END = {"tweets_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


class Op:
    """One timed operation and the verdict of its output checks."""

    __slots__ = ("name", "wall", "ok", "note", "timings")

    def __init__(self, name):
        self.name, self.wall, self.ok, self.note, self.timings = name, 0.0, False, "", {}


def _quiet_cli(argv: list[str]) -> int:
    import offlang.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    name = ""
    parts: set[str] = set()
    # Rounds a measuring run makes at least: the repeat checks need two.
    # ingest and predict rounds take 8-15 s, so the run budget allows no more.
    min_rounds = 2

    def __init__(self, inputs: Path, out: Path):
        self.inputs, self.out = inputs, out
        self.tracer = None
        self.first_seen: dict = {}

    # -- set-up (timed as setup_s, in a separate process) -------------------
    def setup(self, seed: int) -> dict:
        return gen.generate(self.inputs, seed, self.parts)

    # -- untimed preparation in the measuring process ------------------------
    def prepare(self, manifest: dict) -> None:
        self.manifest = manifest

    def vector_lines(self) -> dict[str, int]:
        return {}

    def tweets_per_round(self) -> int:
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def throughput(self, rounds: list[list[Op]]) -> float:
        """Input tweets per wall second in the fastest round.

        Interference from other tenants of the machine only ever slows a
        round, so the fastest of a run's rounds is the steadiest estimate of
        the program's own cost (NOTES.md has the measurements).
        """
        return max(self.tweets_per_round() / sum(op.wall for op in ops) for ops in rounds)

    def details(self, rounds: list[list[Op]]) -> dict[str, tuple[float, str]]:
        return {}

    def _run(self, name, fn, check) -> Op:
        """Time ``fn()`` as one operation, then ``check(result, op)``."""
        op = Op(name)
        tracer = self.tracer
        if tracer is not None:
            tracer.op += 1
            index = tracer.open("bench.op")
        start = time.perf_counter()
        try:
            result = fn(op)
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            op.note = f"raised {type(exc).__name__}: {exc}"
            return op
        finally:
            op.wall = time.perf_counter() - start
            if tracer is not None:
                tracer.close(index)
        try:
            op.ok = bool(check(result, op))
        except Exception as exc:  # noqa: BLE001 - a check that cannot run fails the op
            op.note = f"check raised {type(exc).__name__}: {exc}"
        return op

    def _same_as_first(self, key, value, op) -> bool:
        first = self.first_seen.setdefault(key, value)
        if first != value:
            op.note = f"{key} differs from the first repeat"
            return False
        return True


class Train(Workload):
    """offlang train for each architecture on a reduced training file."""

    name = "train"
    parts = {"small"}
    min_rounds = 6

    def setup(self, seed):
        return gen.generate(self.inputs, seed, self.parts, small_size=TRAIN_ROWS)

    def prepare(self, manifest):
        from offlang import data as D

        super().prepare(manifest)
        train_set, _ = D.stratified_split(D.load_olid(self.inputs / "train_small.tsv"),
                                          VALIDATION_FRACTION, SPLIT_SEED)
        self.train_examples = len(train_set) * TRAIN_EPOCHS

    def vector_lines(self):
        return {str(self.inputs / "vectors_small.txt"): self.manifest["vectors_small"]["lines"]}

    def tweets_per_round(self):
        return len(ARCH_FLAGS) * self.manifest["train_small"]

    def round(self):
        return [self._train(i, flag) for i, flag in enumerate(ARCH_FLAGS)]

    def _train(self, index, flag):
        model = self.out / f"{flag}.bin"
        argv = ["train", "--arch", flag, "--data", str(self.inputs / "train_small.tsv"),
                "--embeddings", str(self.inputs / "vectors_small.txt"), "--out", str(model),
                "--max-epochs", str(TRAIN_EPOCHS), "--seed", str(index + 1),
                "--split-seed", str(SPLIT_SEED),
                "--validation-fraction", str(VALIDATION_FRACTION)]

        def check(rc, op):
            if rc != 0:
                op.note = f"exit code {rc}"
                return False
            history = json.loads(model.with_suffix(".bin.history.json").read_text())
            losses = history["train_loss"] + history["val_loss"]
            if history["epochs_run"] != TRAIN_EPOCHS or not all(map(math.isfinite, losses)):
                op.note = f"bad history {history}"
                return False
            return self._same_as_first(f"sha256:{flag}", gen.sha256(model), op)

        return self._run(f"train:{flag}", lambda op: _quiet_cli(argv), check)

    def _best_walls(self, rounds):
        return {flag: min(op.wall for ops in rounds for op in ops if op.name == f"train:{flag}")
                for flag in ARCH_FLAGS}

    def details(self, rounds):
        return {f"train_s.{flag.replace('-', '_')}": (wall, "s")
                for flag, wall in self._best_walls(rounds).items()}

    def throughput(self, rounds):
        """Training examples per wall second over the three calls, each
        call taken at its fastest repeat."""
        walls = self._best_walls(rounds)
        return len(walls) * self.train_examples / sum(walls.values())


class Ingest(Workload):
    """The library calls cmd_train makes before its first epoch, full scale."""

    name = "ingest"
    parts = {"vectors"}

    def vector_lines(self):
        return {str(self.inputs / "vectors.txt"): self.manifest["vectors"]["lines"]}

    def tweets_per_round(self):
        return self.manifest["tweets"]

    def round(self):
        corpus, vectors = self.inputs / "corpus.tsv", self.inputs / "vectors.txt"

        def sequence(op):
            from offlang import data as D
            from offlang import embeddings as E
            from offlang import models as M
            from offlang import preprocess as P

            clock = time.perf_counter
            t0 = clock()
            pre = P.PreprocessConfig()
            dataset = D.load_olid(corpus, has_labels=True)
            train_set, val_set = D.stratified_split(dataset, VALIDATION_FRACTION, SPLIT_SEED)
            t1 = clock()
            tokens = [P.preprocess_pipeline(r.text, pre.table, pre.dictionary)
                      for r in train_set]
            t2 = clock()
            vocabulary = E.build_vocabulary(tokens, 1)
            t3 = clock()
            table = E.load_embeddings(str(vectors), gen.DIM, only=set(vocabulary.index))
            t4 = clock()
            matrix = E.build_embedding_matrix(vocabulary, table, SPLIT_SEED)
            t5 = clock()
            encoded = (M.encode_dataset(train_set, vocabulary, pre, 200),
                       M.encode_dataset(val_set, vocabulary, pre, 200))
            t6 = clock()
            op.timings = {"preprocess_tweets": len(train_set),
                          "stages": [t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5]}
            return vocabulary, table, matrix, encoded

        def check(result, op):
            vocabulary, table, matrix, (enc_train, enc_val) = result
            planted = self.manifest["vectors"]["malformed"]
            if table.skipped_lines != planted:
                op.note = f"skipped_lines {table.skipped_lines} != planted {planted}"
                return False
            if len(enc_train) + len(enc_val) != self.manifest["tweets"]:
                op.note = "encoded rows do not cover the corpus"
                return False
            digest = hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()
            return (self._same_as_first("vocabulary_size", vocabulary.size, op)
                    and self._same_as_first("matrix_sha256", digest, op))

        return [self._run("ingest", sequence, check)]

    def details(self, rounds):
        ops = [ops[0] for ops in rounds if ops[0].timings]
        if not ops:
            return {}
        return {
            "vector_lines_per_s": (max(
                self.manifest["vectors"]["lines"] / op.timings["stages"][3] for op in ops), "1/s"),
            "preprocess_tweets_per_s": (max(
                op.timings["preprocess_tweets"] / op.timings["stages"][1] for op in ops), "1/s"),
        }


def _read_rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


def _ids(path: Path) -> list[str]:
    return [row[0] for row in _read_rows(path)[1:]]


class Predict(Workload):
    """offlang predict with a three-member ensemble over an 860-tweet file."""

    name = "predict"
    parts = {"test"}
    ARCHS = ("cnn", "blstm_att", "blstm_bgru")

    def setup(self, seed):
        from offlang import data as D
        from offlang.embeddings import Vocabulary, build_vocabulary
        from offlang.models import BUILDERS
        from offlang.nn import save_model

        manifest = super().setup(seed)
        corpus = D.load_olid(self.inputs / "corpus.tsv")
        counted = build_vocabulary([r.text.lower().split() for r in corpus])
        # A fixed size keeps the model files, and so peak memory, the same
        # on every seed.
        vocabulary = Vocabulary({w: i for w, i in counted.index.items()
                                 if i < 2 + PREDICT_VOCABULARY})
        rng = np.random.default_rng([seed, 10])
        matrix = rng.uniform(-0.05, 0.05, size=(vocabulary.size, gen.DIM)).astype(np.float32)
        for k, arch in enumerate(self.ARCHS):
            model = BUILDERS[arch](matrix, seed=seed + k)
            save_model(self.inputs / f"{arch}.bin", model, vocabulary.index, 200)
        manifest["vocabulary_size"] = vocabulary.size
        return manifest

    def prepare(self, manifest):
        """Reference probabilities from the library, outside any timing."""
        from offlang import data as D
        from offlang.embeddings import Vocabulary, encode_batch
        from offlang.models import ensemble_proba
        from offlang.nn import load_model, predict_proba
        from offlang.preprocess import preprocess_pipeline

        super().prepare(manifest)
        self.models = [str(self.inputs / f"{arch}.bin") for arch in self.ARCHS]
        members = [load_model(path) for path in self.models]
        dataset = D.load_olid(self.inputs / "test.tsv")
        tokens = [preprocess_pipeline(r.text) for r in dataset]
        X, lengths = encode_batch(tokens, Vocabulary(members[0][1]), members[0][2])
        self.expected = ensemble_proba([predict_proba(m, X, lengths) for m, _, _ in members])
        self.ids = dataset.ids()

    def tweets_per_round(self):
        return self.manifest["test"]

    def round(self):
        out = self.out / "predictions.tsv"
        argv = ["predict", *self.models, "--data", str(self.inputs / "test.tsv"),
                "--out", str(out)]

        def check(rc, op):
            if rc != 0:
                op.note = f"exit code {rc}"
                return False
            rows = _read_rows(out)
            if [r[0] for r in rows] != self.ids:
                op.note = "prediction ids do not match the input rows"
                return False
            probs = np.array([float(r[1]) for r in rows])
            worst = float(np.max(np.abs(probs - self.expected)))
            if worst > PROB_TOL:
                op.note = f"probability off the library ensemble by {worst:.3g}"
                return False
            return self._same_as_first("predictions_sha256", gen.sha256(out), op)

        return [self._run("predict", lambda op: _quiet_cli(argv), check)]


class TaskB(Workload):
    """offlang taskb with the builtin annotator over the corpus's OFF tweets."""

    name = "taskb"
    parts = {"off"}

    def setup(self, seed):
        manifest = super().setup(seed)
        rc = _quiet_cli(["build-lexicon", "--data", str(self.inputs / "corpus.tsv"),
                         "--out", str(self.inputs / "lexicon.txt"), "--k", str(LEXICON_K)])
        if rc != 0:
            raise RuntimeError(f"offlang build-lexicon exited with {rc}")
        return manifest

    def prepare(self, manifest):
        super().prepare(manifest)
        self.ids = _ids(self.inputs / "off.tsv")

    def tweets_per_round(self):
        return self.manifest["off"]

    def round(self):
        from offlang.heuristics import RULE_LABELS

        out = self.out / "taskb.tsv"
        argv = ["taskb", "--data", str(self.inputs / "off.tsv"),
                "--lexicon", str(self.inputs / "lexicon.txt"), "--out", str(out)]

        def check(rc, op):
            if rc != 0:
                op.note = f"exit code {rc}"
                return False
            rows = _read_rows(out)
            if [r[0] for r in rows] != self.ids:
                op.note = "taskb ids do not match the input rows"
                return False
            histogram = [0] * 8
            for _, label, rule in rows:
                if RULE_LABELS.get(int(rule)) != label:
                    op.note = f"rule {rule} cannot give label {label!r}"
                    return False
                histogram[int(rule)] += 1
            return self._same_as_first("rule_histogram", histogram, op)

        return [self._run("taskb", lambda op: _quiet_cli(argv), check)]


WORKLOADS = {w.name: w for w in (Train, Ingest, Predict, TaskB)}
