"""Command-line entry point wiring the toolkit into reproducible runs.

Exit codes: 0 success, 1 usage/config error, 2 runtime error. All
randomness flows from explicit seeds, so reruns of a command with the same
config produce byte-identical outputs.

Options may come from a flat ``key=value`` config file (``--config``);
command-line flags win over config values.
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

CONFIG_DEFAULTS = {
    "seed": 42,
    "split_seed": 42,
    "threshold": 0.5,
    "task": "A",
    "k": 100,
    "learning_rate": 1e-3,
    "batch_size": 32,
    "max_epochs": 50,
    "patience": 3,
    "validation_fraction": 0.1,
    "min_count": 1,
    "embedding_dim": 200,
    "max_len": 200,
}

_FLOAT_KEYS = {"threshold", "learning_rate", "validation_fraction"}
_INT_KEYS = {"seed", "split_seed", "k", "batch_size", "max_epochs", "patience", "min_count",
             "embedding_dim", "max_len"}


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


def _resolve(args, key, default=None):
    """Flag value if given, else config-file value, else default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    config = getattr(args, "_config_values", {})
    if key in config:
        raw = config[key]
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        return raw
    if default is not None:
        return default
    return CONFIG_DEFAULTS.get(key)


def _require_path(value, flag: str) -> Path:
    if value is None:
        raise UsageError(f"missing required option {flag}")
    path = Path(value)
    if not path.exists():
        raise UsageError(f"{flag}: path does not exist: {path}")
    return path


def build_parser() -> _Parser:
    parser = _Parser(prog="offlang", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file; flags win")
        p.add_argument("--seed", type=int)
        p.add_argument("--norm-table", help="normalization table file (variant<TAB>canonical)")
        p.add_argument("--seg-dict", help="segmentation dictionary file (word<TAB>count)")

    p = sub.add_parser("preprocess", help="write id<TAB>normalized-tokens for a dataset")
    common(p)
    p.add_argument("--data", help="input dataset TSV")
    p.add_argument("--out", help="output file")
    p.add_argument("--unlabeled", action="store_true", help="input has no label columns")

    p = sub.add_parser("train", help="train one architecture and save the model")
    common(p)
    p.add_argument("--arch", choices=sorted(ARCH_FLAGS))
    p.add_argument("--data", help="labelled training TSV")
    p.add_argument("--embeddings", help="pre-trained word vector file")
    p.add_argument("--exclude", help="exclusion list file (one id per line)")
    p.add_argument("--out", help="model output path")
    p.add_argument("--split-seed", type=int,
                   help="seed for the train/validation split; keep it fixed across "
                        "ensemble members so their vocabularies match (default 42)")
    for key in ("learning-rate", "batch-size", "max-epochs", "patience"):
        p.add_argument(f"--{key}", type=float if key == "learning-rate" else int)
    p.add_argument("--validation-fraction", type=float)
    p.add_argument("--min-count", type=int)
    p.add_argument("--embedding-dim", type=int)
    p.add_argument("--max-len", type=int)

    p = sub.add_parser("predict", help="single-model or ensemble predictions")
    common(p)
    p.add_argument("models", nargs="+", help="model file(s); more than one averages")
    p.add_argument("--data", help="input dataset TSV")
    p.add_argument("--out", help="predictions TSV output")
    p.add_argument("--threshold", type=float)
    p.add_argument("--unlabeled", action="store_true", help="input has no label columns")

    p = sub.add_parser("evaluate", help="score a predictions file against gold labels")
    common(p)
    p.add_argument("predictions", help="predictions TSV")
    p.add_argument("gold", help="gold dataset TSV")
    p.add_argument("--task", choices=("A", "B"))
    p.add_argument("--out", help="also write the report as JSON here")

    p = sub.add_parser("taskb", help="rule-engine targeted/untargeted predictions")
    common(p)
    p.add_argument("--data", help="input dataset TSV")
    p.add_argument("--lexicon", help="lexicon file (hashtags keep '#')")
    p.add_argument("--annotations", help="pre-annotated file; default is the builtin annotator")
    p.add_argument("--out", help="output TSV: id<TAB>label<TAB>rule")
    p.add_argument("--unlabeled", action="store_true", help="input has no label columns")

    p = sub.add_parser("build-lexicon", help="compile top-k hashtags/tokens from training data")
    common(p)
    p.add_argument("--data", help="labelled training TSV")
    p.add_argument("--out", help="lexicon output file")
    p.add_argument("--stoplist", help="stopword file; defaults to the shipped English list")
    p.add_argument("--overrides", help="file of items to remove (manual elimination)")
    p.add_argument("--k", type=int)

    return parser


def _load_preprocessing(args) -> PreprocessConfig:
    table = None
    dictionary = None
    table_path = _resolve(args, "norm_table", default="")
    if table_path:
        table = NormalizationTable.from_file(_require_path(table_path, "--norm-table"))
    dict_path = _resolve(args, "seg_dict", default="")
    if dict_path:
        dictionary = SegmentationDictionary.from_file(_require_path(dict_path, "--seg-dict"))
    kwargs = {}
    if table is not None:
        kwargs["table"] = table
    if dictionary is not None:
        kwargs["dictionary"] = dictionary
    return PreprocessConfig(**kwargs)


def _load_dataset(args, flag="--data") -> D.Dataset:
    path = _require_path(_resolve(args, flag.lstrip("-").replace("-", "_")), flag)
    has_labels = not getattr(args, "unlabeled", False)
    return D.load_olid(path, has_labels=has_labels)


def _out_path(args) -> Path:
    value = _resolve(args, "out", default="")
    if not value:
        raise UsageError("missing required option --out")
    return Path(value)


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
    arch_flag = _resolve(args, "arch", default="")
    if not arch_flag:
        raise UsageError("missing required option --arch")
    architecture = ARCH_FLAGS[arch_flag]
    data_path = _require_path(_resolve(args, "data"), "--data")
    emb_path = _require_path(_resolve(args, "embeddings"), "--embeddings")
    out = _out_path(args)
    seed = int(_resolve(args, "seed"))
    max_len = int(_resolve(args, "max_len"))
    dim = int(_resolve(args, "embedding_dim"))
    pre = _load_preprocessing(args)

    dataset = D.load_olid(data_path, has_labels=True)
    exclude = _resolve(args, "exclude", default="")
    if exclude:
        dataset = D.apply_exclusions(dataset, D.ExclusionList.from_file(
            _require_path(exclude, "--exclude")))
    vocabulary, encoded_train, encoded_val = encode_split(
        dataset, pre, float(_resolve(args, "validation_fraction")),
        int(_resolve(args, "split_seed")), int(_resolve(args, "min_count")), max_len,
    )
    table = load_embeddings(emb_path, dim, only=set(vocabulary.index))
    matrix = build_embedding_matrix(vocabulary, table, seed)
    model = BUILDERS[architecture](matrix, expected_dim=dim, seed=seed)

    config = TrainConfig(
        learning_rate=float(_resolve(args, "learning_rate")),
        batch_size=int(_resolve(args, "batch_size")),
        max_epochs=int(_resolve(args, "max_epochs")),
        patience=int(_resolve(args, "patience")),
        seed=seed,
    )
    history = train(model, encoded_train, encoded_val, config)

    save_model(out, model, vocabulary.index, max_len)
    history_path = out.with_suffix(out.suffix + ".history.json")
    history_path.write_text(json.dumps(history, indent=2), encoding="utf-8")

    val_probs = predict_proba(model, encoded_val.X, encoded_val.lengths)
    val_loss = bce_loss(val_probs, encoded_val.y)
    val_acc = binary_accuracy(val_probs, encoded_val.y)
    print(
        f"trained {arch_flag}: epochs={history['epochs_run']} "
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
    threshold = float(_resolve(args, "threshold"))
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
                               Vocabulary(vocabulary0), pre, max_len0, threshold)
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
    task = _resolve(args, "task")
    preds = _read_predictions(pred_path, task)
    gold_dataset = D.load_olid(gold_path, has_labels=True)

    golds = {}
    for record in gold_dataset:
        label = record.label_a if task == "A" else record.label_b
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
    out = _resolve(args, "out", default="")
    if out:
        Path(out).write_text(result.to_json() + "\n", encoding="utf-8")
        logger.info("report written to %s", out)
    return EXIT_OK


def cmd_taskb(args) -> int:
    lexicon_path = _require_path(_resolve(args, "lexicon"), "--lexicon")
    dataset = _load_dataset(args)
    out = _out_path(args)
    lexicon = H.HeuristicLexicon.from_file(lexicon_path)
    annotations = None
    ann_path = _resolve(args, "annotations", default="")
    if ann_path:
        annotations = H.load_annotations(_require_path(ann_path, "--annotations"))

    with out.open("w", encoding="utf-8") as fh:
        for record in dataset:
            tokens = [t.surface for t in tokenize(record.text).tokens]
            annotated = H.annotate(tokens, annotations, record.id)
            label, trace = H.classify_target(annotated, lexicon)
            fh.write(f"{record.id}\t{label}\t{trace.rule_fired}\n")
    logger.info("wrote %d rule prediction(s) to %s", len(dataset), out)
    return EXIT_OK


def cmd_build_lexicon(args) -> int:
    dataset = _load_dataset(args)
    out = _out_path(args)
    k = int(_resolve(args, "k"))
    if k == 0:
        logger.warning("k=0 produces an empty lexicon")
    stop_path = _resolve(args, "stoplist", default="")
    stoplist = (
        H.default_stoplist()
        if not stop_path
        else frozenset(
            line.strip()
            for line in _require_path(stop_path, "--stoplist").read_text("utf-8").splitlines()
            if line.strip()
        )
    )
    overrides: frozenset[str] = frozenset()
    over_path = _resolve(args, "overrides", default="")
    if over_path:
        overrides = frozenset(
            line.strip()
            for line in _require_path(over_path, "--overrides").read_text("utf-8").splitlines()
            if line.strip()
        )
    lexicon = H.build_lexicon(dataset, stoplist, k, overrides)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config_path = getattr(args, "config", None)
        args._config_values = _load_config_file(config_path) if config_path else {}
        return HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
