"""Command-line entry point wiring the toolkit into reproducible runs.

Exit codes: 0 success, 1 usage/config error, 2 runtime error. All
randomness flows from explicit seeds, so reruns of a command with the same
config produce byte-identical outputs.

Options may come from a flat ``key=value`` config file (``--config``) whose
keys are the long flag names with ``_`` for ``-``. A flag wins over a config
value, which wins over the option's default.
"""
from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import data as D
from . import heuristics as H
from .embeddings import Vocabulary, build_embedding_matrix, load_embeddings
from .evaluation import confusion, report
from .models import (
    ARCH_BLSTM_ATT,
    ARCH_BLSTM_BGRU,
    ARCH_CNN,
    BUILDERS,
    encode_split,
    ensemble_predict,
)
from .nn import (
    TrainConfig,
    bce_loss,
    binary_accuracy,
    load_model,
    predict_proba,
    save_model,
    train,
)
from .preprocess import NormalizationTable, PreprocessConfig, preprocess_pipeline, tokenize
from .segmentation import SegmentationDictionary

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

ARCH_FLAGS = {"cnn": ARCH_CNN, "blstm-att": ARCH_BLSTM_ATT, "blstm-bgru": ARCH_BLSTM_BGRU}


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_config_file(path: str) -> dict:
    values = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _require_path(value, flag: str) -> Path:
    if value is None:
        raise UsageError(f"missing required option {flag}")
    path = Path(value)
    if not path.exists():
        raise UsageError(f"{flag}: path does not exist: {path}")
    return path


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The option table: the top-level parser and its subcommand parsers by name."""
    parser = _Parser(prog="offlang", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def add(name, help):
        p = subparsers[name] = sub.add_parser(name, help=help)
        p.add_argument("--config", help="flat key=value config file; flags win")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--norm-table", help="normalization table file (variant<TAB>canonical)")
        p.add_argument("--seg-dict", help="segmentation dictionary file (word<TAB>count)")
        return p

    p = add("preprocess", "write id<TAB>normalized-tokens for a dataset")
    p.add_argument("--data", help="input dataset TSV")
    p.add_argument("--out", help="output file")
    p.add_argument("--unlabeled", action="store_true", help="input has no label columns")

    p = add("train", "train one architecture and save the model")
    p.add_argument("--arch", choices=sorted(ARCH_FLAGS))
    p.add_argument("--data", help="labelled training TSV")
    p.add_argument("--embeddings", help="pre-trained word vector file")
    p.add_argument("--exclude", help="exclusion list file (one id per line)")
    p.add_argument("--out", help="model output path")
    p.add_argument("--split-seed", type=int, default=42,
                   help="seed for the train/validation split; keep it fixed across "
                        "ensemble members so their vocabularies match (default 42)")
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--max-epochs", type=int, default=50)
    p.add_argument("--patience", type=int, default=3)
    p.add_argument("--validation-fraction", type=float, default=0.1)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--embedding-dim", type=int, default=200)
    p.add_argument("--max-len", type=int, default=200)

    p = add("predict", "single-model or ensemble predictions")
    p.add_argument("models", nargs="+", help="model file(s); more than one averages")
    p.add_argument("--data", help="input dataset TSV")
    p.add_argument("--out", help="predictions TSV output")
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--unlabeled", action="store_true", help="input has no label columns")

    p = add("evaluate", "score a predictions file against gold labels")
    p.add_argument("predictions", help="predictions TSV")
    p.add_argument("gold", help="gold dataset TSV")
    p.add_argument("--task", choices=("A", "B"), default="A")
    p.add_argument("--out", help="also write the report as JSON here")

    p = add("taskb", "rule-engine targeted/untargeted predictions")
    p.add_argument("--data", help="input dataset TSV")
    p.add_argument("--lexicon", help="lexicon file (hashtags keep '#')")
    p.add_argument("--annotations", help="pre-annotated file; default is the builtin annotator")
    p.add_argument("--out", help="output TSV: id<TAB>label<TAB>rule")
    p.add_argument("--unlabeled", action="store_true", help="input has no label columns")

    p = add("build-lexicon", "compile top-k hashtags/tokens from training data")
    p.add_argument("--data", help="labelled training TSV")
    p.add_argument("--out", help="lexicon output file")
    p.add_argument("--stoplist", help="stopword file; defaults to the shipped English list")
    p.add_argument("--overrides", help="file of items to remove (manual elimination)")
    p.add_argument("--k", type=int, default=100)

    return parser, subparsers


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse ``argv``; with ``--config``, parse it again with the config values,
    converted by each option's ``type``, as the subcommand's defaults, so flags
    still win. Keys naming no value option of the subcommand are ignored."""
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        values = _load_config_file(args.config)
        sub = subparsers[args.command]
        # not a pre-filled namespace: a subparser's defaults would overwrite it
        sub.set_defaults(**{
            a.dest: a.type(values[a.dest]) if a.type else values[a.dest]
            for a in sub._actions
            if a.option_strings and a.nargs != 0 and a.dest != "config" and a.dest in values
        })
        args = parser.parse_args(argv)
    return args


def _load_preprocessing(args) -> PreprocessConfig:
    table, seg = args.norm_table, args.seg_dict
    kwargs = {}
    if table:
        kwargs["table"] = NormalizationTable.from_file(_require_path(table, "--norm-table"))
    if seg:
        kwargs["dictionary"] = SegmentationDictionary.from_file(_require_path(seg, "--seg-dict"))
    return PreprocessConfig(**kwargs)


def _load_dataset(args) -> D.Dataset:
    has_labels = not getattr(args, "unlabeled", False)
    return D.load_olid(_require_path(args.data, "--data"), has_labels=has_labels)


def _out_path(args) -> Path:
    if not args.out:
        raise UsageError("missing required option --out")
    return Path(args.out)


def _read_items(value, flag: str) -> frozenset[str]:
    """The stripped non-blank lines of a file; '#' lines are items too, because
    overrides may name hashtags."""
    lines = _require_path(value, flag).read_text("utf-8").splitlines()
    return frozenset(line.strip() for line in lines if line.strip())


def cmd_preprocess(args) -> int:
    dataset = _load_dataset(args)
    pre = _load_preprocessing(args)
    out = _out_path(args)
    with out.open("w", encoding="utf-8") as fh:
        for record in dataset:
            tokens = preprocess_pipeline(record.text, pre.table, pre.dictionary)
            fh.write(f"{record.id}\t{' '.join(tokens)}\n")
    logger.info("wrote %d preprocessed tweet(s) to %s", len(dataset), out)
    return EXIT_OK


def cmd_train(args) -> int:
    if not args.arch:
        raise UsageError("missing required option --arch")
    architecture = ARCH_FLAGS[args.arch]
    data_path = _require_path(args.data, "--data")
    emb_path = _require_path(args.embeddings, "--embeddings")
    out = _out_path(args)
    pre = _load_preprocessing(args)

    dataset = D.load_olid(data_path, has_labels=True)
    if args.exclude:
        dataset = D.apply_exclusions(dataset, D.ExclusionList.from_file(
            _require_path(args.exclude, "--exclude")))
    vocabulary, encoded_train, encoded_val = encode_split(
        dataset, pre, args.validation_fraction, args.split_seed, args.min_count, args.max_len,
    )
    table = load_embeddings(emb_path, args.embedding_dim, only=set(vocabulary.index))
    matrix = build_embedding_matrix(vocabulary, table, args.seed)
    model = BUILDERS[architecture](matrix, expected_dim=args.embedding_dim, seed=args.seed)

    config = TrainConfig(learning_rate=args.learning_rate, batch_size=args.batch_size,
                         max_epochs=args.max_epochs, patience=args.patience, seed=args.seed)
    history = train(model, encoded_train, encoded_val, config)

    save_model(out, model, vocabulary.index, args.max_len)
    history_path = out.with_suffix(out.suffix + ".history.json")
    history_path.write_text(json.dumps(history, indent=2), encoding="utf-8")

    val_probs = predict_proba(model, encoded_val.X, encoded_val.lengths)
    val_loss = bce_loss(val_probs, encoded_val.y)
    val_acc = binary_accuracy(val_probs, encoded_val.y)
    print(
        f"trained {args.arch}: epochs={history['epochs_run']} "
        f"best_epoch={history['best_epoch']} "
        f"val_loss={val_loss:.4f} val_accuracy={val_acc:.4f}"
    )
    logger.info("model written to %s, history to %s", out, history_path)
    return EXIT_OK


def cmd_predict(args) -> int:
    model_paths = [Path(p) for p in args.models]
    for path in model_paths:
        if not path.exists():
            raise UsageError(f"model file does not exist: {path}")
    dataset = _load_dataset(args)
    out = _out_path(args)
    pre = _load_preprocessing(args)

    loaded = [load_model(p) for p in model_paths]
    _, vocabulary0, max_len0 = loaded[0]
    for path, (_, vocabulary, max_len) in zip(model_paths[1:], loaded[1:]):
        if vocabulary != vocabulary0 or max_len != max_len0:
            raise ValueError(
                f"model {path} does not share the vocabulary/length configuration of "
                f"{model_paths[0]}; ensemble members must be trained on the same split "
                f"(same --split-seed and --validation-fraction)"
            )

    results = ensemble_predict([model for model, _, _ in loaded], dataset,
                               Vocabulary(vocabulary0), pre, max_len0, args.threshold)
    with out.open("w", encoding="utf-8") as fh:
        for r in results:
            fh.write(f"{r.id}\t{r.probability:.6f}\t{r.label}\n")
    logger.info("wrote %d prediction(s) to %s", len(results), out)
    return EXIT_OK


def _read_predictions(path: Path, task: str) -> dict[str, str]:
    preds = {}
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) < 2:
                raise D.DataFormatError(f"{path}:{lineno}: expected at least 2 fields")
            # task A rows are id/probability/label; task B rows are id/label/rule
            label = fields[2] if task == "A" and len(fields) >= 3 else fields[1]
            preds[fields[0]] = label
    return preds


def cmd_evaluate(args) -> int:
    pred_path = _require_path(args.predictions, "predictions")
    gold_path = _require_path(args.gold, "gold")
    preds = _read_predictions(pred_path, args.task)
    gold_dataset = D.load_olid(gold_path, has_labels=True)

    golds = {}
    for record in gold_dataset:
        label = record.label_a if args.task == "A" else record.label_b
        if label is not None:
            golds[record.id] = label
    missing = sorted(set(golds) - set(preds))
    extra = sorted(set(preds) - set(golds))
    if missing:
        raise ValueError(f"prediction file is missing id {missing[0]!r} "
                         f"({len(missing)} missing in total)")
    if extra:
        raise ValueError(f"gold file is missing id {extra[0]!r} "
                         f"({len(extra)} extra prediction(s))")

    ordered_ids = [r.id for r in gold_dataset if r.id in golds]
    result = report(confusion([preds[i] for i in ordered_ids],
                              [golds[i] for i in ordered_ids]))
    print(result.to_text())
    if args.out:
        Path(args.out).write_text(result.to_json() + "\n", encoding="utf-8")
        logger.info("report written to %s", args.out)
    return EXIT_OK


def cmd_taskb(args) -> int:
    lexicon_path = _require_path(args.lexicon, "--lexicon")
    dataset = _load_dataset(args)
    out = _out_path(args)
    lexicon = H.HeuristicLexicon.from_file(lexicon_path)
    annotations = None
    if args.annotations:
        annotations = H.load_annotations(_require_path(args.annotations, "--annotations"))

    with out.open("w", encoding="utf-8") as fh:
        for record in dataset:
            # an annotation table replaces the tokens, so only the builtin annotator needs them
            tokens = ([] if annotations is not None
                      else [t.surface for t in tokenize(record.text).tokens])
            annotated = H.annotate(tokens, annotations, record.id)
            label, trace = H.classify_target(annotated, lexicon)
            fh.write(f"{record.id}\t{label}\t{trace.rule_fired}\n")
    logger.info("wrote %d rule prediction(s) to %s", len(dataset), out)
    return EXIT_OK


def cmd_build_lexicon(args) -> int:
    dataset = _load_dataset(args)
    out = _out_path(args)
    if args.k == 0:
        logger.warning("k=0 produces an empty lexicon")
    stoplist = _read_items(args.stoplist, "--stoplist") if args.stoplist else H.default_stoplist()
    overrides = _read_items(args.overrides, "--overrides") if args.overrides else frozenset()
    lexicon = H.build_lexicon(dataset, stoplist, args.k, overrides)
    lexicon.to_file(out)
    logger.info(
        "lexicon with %d hashtag(s) and %d token(s) written to %s",
        len(lexicon.hashtags), len(lexicon.tokens), out,
    )
    return EXIT_OK


HANDLERS = {
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "taskb": cmd_taskb,
    "build-lexicon": cmd_build_lexicon,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = parse_args(argv)
        return HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
