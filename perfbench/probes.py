"""Where the tracer wraps offlang, and the per-layer metrics derived from spans.

Each public function is wrapped at every module that looks it up by name
(``from .x import f`` copies the name, so ``offlang.cli.f`` and
``offlang.x.f`` are separate slots). Layer classes get their
``forward``/``backward`` wrapped on the class itself. Nothing under ``src/``
is edited; :meth:`Tracer.uninstall` puts every original back.

Left out: ``evaluation`` works only on confusion counts, ``nn.gradcheck`` is
used only by tests, and ``nn.losses`` takes well under 1% of a step (its
time stays in the self time of ``nn.training.<arch>.train``).
"""
from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict

import numpy as np

from tracer import ATTRS, END, NAME, PARENT, START, Tracer

ARCHS = ("cnn", "blstm_att", "blstm_bgru")
# Layer classes each architecture is built from (models.build_*).
ARCH_LAYERS = {
    "cnn": ("Embedding", "ParallelConcat", "Conv1D", "MaxOverTime", "Dropout", "Dense"),
    "blstm_att": ("Embedding", "BiLSTM", "AdditiveAttention", "Dense"),
    "blstm_bgru": ("Embedding", "BiLSTM", "BiGRU", "ParallelConcat", "MaxOverTime",
                   "AvgOverTime", "Dense"),
}
LAYER_CLASSES = sorted({c for layers in ARCH_LAYERS.values() for c in layers})

# span name -> (defining module, function name)
FUNCTIONS = {
    "data.load_olid": ("data", "load_olid"),
    "data.stratified_split": ("data", "stratified_split"),
    "preprocess.pipeline": ("preprocess", "preprocess_pipeline"),
    "preprocess.tokenize": ("preprocess", "tokenize"),
    "segmentation.segment": ("segmentation", "segment_hashtag"),
    "embeddings.load": ("embeddings", "load_embeddings"),
    "embeddings.vocab": ("embeddings", "build_vocabulary"),
    "embeddings.matrix": ("embeddings", "build_embedding_matrix"),
    "embeddings.encode": ("embeddings", "encode_batch"),
    "nn.io.save_model": ("nn.io", "save_model"),
    "nn.io.load_model": ("nn.io", "load_model"),
    "models.encode_dataset": ("models", "encode_dataset"),
    "models.ensemble_proba": ("models", "ensemble_proba"),
    "heuristics.annotate": ("heuristics", "annotate"),
    "heuristics.classify": ("heuristics", "classify_target"),
    "cli.main": ("cli", "main"),
}


def _mod(name):
    return importlib.import_module(f"offlang.{name}")


def _patch_everywhere(tracer: Tracer, original, wrapped) -> None:
    """Replace ``original`` in every offlang module global that holds it.

    ``from .x import f`` copies the name, so ``offlang.cli.f`` and
    ``offlang.x.f`` are separate slots and callers use their own.
    """
    for name, module in sorted(sys.modules.items()):
        if name == "offlang" or name.startswith("offlang."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    tracer.patch(module, attr, wrapped)


def _arch_of(args):
    return {"arch": args[0].architecture}


def _rows(span_attrs, args, kwargs, result):
    span_attrs["rows"] = int(np.shape(args[1])[0])


def _padding(span_attrs, args, kwargs, result):
    indices, lengths = np.asarray(args[1]), args[2]
    batch, steps = indices.shape
    real = batch * steps if lengths is None else \
        int(np.minimum(np.asarray(lengths), steps).sum())
    span_attrs["steps"] = batch * steps
    span_attrs["padded"] = batch * steps - real


def _observers(vector_lines):
    def load(span_attrs, args, kwargs, result):
        span_attrs["lines"] = vector_lines.get(str(args[0]), 0)
        span_attrs["kept"] = len(result)
        span_attrs["skipped"] = result.skipped_lines

    def segment(span_attrs, args, kwargs, result):
        span_attrs["body"] = args[0]

    def classify(span_attrs, args, kwargs, result):
        span_attrs["rule"] = result[1].rule_fired

    return {"embeddings.load": load, "segmentation.segment": segment,
            "heuristics.classify": classify}


def _arch_label(kind):
    return lambda tracer, args: f"nn.training.{args[0].architecture}.{kind}"


def _layer_label(cls_name, tag):
    return lambda tracer, args: f"nn.layers.{tracer.current_attr('arch')}.{cls_name}.{tag}"


def install(tracer: Tracer, vector_lines: dict[str, int]) -> None:
    """Wrap every traced offlang entry point; ``tracer.uninstall()`` undoes it.

    ``vector_lines`` maps a vector file path to its line count, which the
    ``embeddings.lines_read`` metric needs. A function missing from its
    module is skipped, so its metrics read 0.
    """
    import offlang.cli  # noqa: F401  (loads every module that gets wrapped)

    observers = _observers(vector_lines)
    for span, (module, fn_name) in FUNCTIONS.items():
        original = getattr(_mod(module), fn_name, None)
        if original is not None:
            wrapped = tracer.wrap(original, span, observers.get(span))
            _patch_everywhere(tracer, original, wrapped)
    training = _mod("nn.training")
    for kind in ("train", "predict_proba"):
        original = getattr(training, kind)
        _patch_everywhere(tracer, original,
                          tracer.wrap(original, _arch_label(kind), attrs=_arch_of))

    adam = _mod("nn.optim").Adam
    tracer.patch(adam, "step", tracer.wrap(
        adam.step, lambda t, args: f"nn.optim.{t.current_attr('arch')}.adam_step"))
    layers = _mod("nn.layers")
    graph = layers.ModelGraph
    tracer.patch(graph, "forward", tracer.wrap(
        graph.forward, lambda t, args: f"nn.layers.{args[0].architecture}.ModelGraph.fwd",
        observe=_padding, attrs=_arch_of))
    tracer.patch(graph, "backward", tracer.wrap(
        graph.backward, lambda t, args: f"nn.layers.{args[0].architecture}.ModelGraph.bwd",
        attrs=_arch_of))
    for cls_name in LAYER_CLASSES:
        cls = getattr(layers, cls_name, None)
        if cls is None:
            continue
        for method, tag in (("forward", "fwd"), ("backward", "bwd")):
            tracer.patch(cls, method, tracer.wrap(
                getattr(cls, method), _layer_label(cls_name, tag), _rows))


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for arch in ARCHS:
        for cls in ARCH_LAYERS[arch]:
            for tag in ("fwd", "bwd"):
                names += [(f"nn.layers.{arch}.{cls}.{tag}_ms", "ms"),
                          (f"nn.layers.{arch}.{cls}.{tag}_calls", "count")]
        names.append((f"nn.layers.{arch}.padding_ratio", "ratio"))
    for arch in ARCHS:
        names += [(f"nn.optim.{arch}.adam_step_ms", "ms"),
                  (f"nn.optim.{arch}.adam_step_calls", "count"),
                  (f"nn.training.{arch}.val_s", "s"),
                  (f"nn.training.{arch}.val_calls", "count")]
    names += [
        ("nn.training.predict_proba_s", "s"), ("nn.training.predict_proba_calls", "count"),
        ("embeddings.load_s", "s"), ("embeddings.load_calls", "count"),
        ("embeddings.lines_read", "count"), ("embeddings.lines_kept_ratio", "ratio"),
        ("embeddings.vocab_s", "s"), ("embeddings.vocab_calls", "count"),
        ("embeddings.matrix_s", "s"), ("embeddings.matrix_calls", "count"),
        ("embeddings.encode_s", "s"), ("embeddings.encode_calls", "count"),
        ("preprocess.pipeline_s", "s"), ("preprocess.pipeline_calls", "count"),
        ("preprocess.tokenize_s", "s"), ("preprocess.tokenize_calls", "count"),
        ("preprocess.pipeline_calls_per_tweet", "ratio"),
        ("segmentation.segment_s", "s"), ("segmentation.calls", "count"),
        ("segmentation.distinct_ratio", "ratio"),
        ("nn.io.save_model_s", "s"), ("nn.io.save_model_calls", "count"),
        ("nn.io.load_model_s", "s"), ("nn.io.load_model_calls", "count"),
        ("models.encode_dataset_s", "s"), ("models.encode_dataset_calls", "count"),
        ("models.ensemble_proba_ms", "ms"), ("models.ensemble_proba_calls", "count"),
        ("heuristics.annotate_s", "s"), ("heuristics.annotate_calls", "count"),
        ("heuristics.classify_s", "s"), ("heuristics.classify_calls", "count"),
    ]
    names += [(f"heuristics.rule_{k}_fired", "count") for k in range(1, 8)]
    names += [("data.load_olid_s", "s"), ("data.load_olid_calls", "count"),
              ("cli.self_s", "s"), ("cli.main_calls", "count"),
              ("trace_overhead_s", "s")]
    return names


def per_layer_metrics(tracer: Tracer, rounds: int, tweets_per_round: int,
                      overhead_s: float) -> dict[str, float]:
    """Per-layer values from the traced pass, normalised per round.

    ``_s`` values are self seconds per round, ``_ms`` values self
    milliseconds per call (per 32 rows for layer ``fwd``/``bwd``), ``_calls``
    calls per round. ``val_s``, ``predict_proba_s`` and ``encode_dataset_s``
    are inclusive: those functions only batch calls into traced layers.
    """
    self_t = tracer.self_times()
    spans = tracer.spans
    self_sum: dict[str, float] = defaultdict(float)
    incl_sum: dict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    rows: Counter[str] = Counter()
    steps: Counter[str] = Counter()
    padded: Counter[str] = Counter()
    val_s: dict[str, float] = defaultdict(float)
    val_calls: Counter[str] = Counter()
    rules: Counter[int] = Counter()
    bodies: set[str] = set()
    lines = kept = skipped = 0
    for span, own in zip(spans, self_t):
        name, attrs = span[NAME], span[ATTRS] or {}
        self_sum[name] += own
        incl_sum[name] += span[END] - span[START]
        calls[name] += 1
        rows[name] += attrs.get("rows", 0)
        if name.endswith("ModelGraph.fwd"):
            steps[attrs["arch"]] += attrs["steps"]
            padded[attrs["arch"]] += attrs["padded"]
        elif name.endswith(".predict_proba"):
            incl_sum["predict_proba"] += span[END] - span[START]
            calls["predict_proba"] += 1
            parent = span[PARENT]
            if parent is not None and spans[parent][NAME].endswith(".train"):
                val_s[attrs["arch"]] += span[END] - span[START]
                val_calls[attrs["arch"]] += 1
        elif name == "heuristics.classify":
            rules[attrs["rule"]] += 1
        elif name == "segmentation.segment":
            bodies.add(attrs["body"])
        elif name == "embeddings.load":
            lines += attrs["lines"]
            kept += attrs["kept"]
            skipped += attrs["skipped"]

    r = float(rounds)
    ratio = lambda a, b: a / b if b else 0.0
    out: dict[str, float] = {}

    def per_round(metric, span, seconds=self_sum, calls_key=None):
        out[f"{metric}_s"] = seconds[span] / r
        out[calls_key or f"{metric}_calls"] = calls[span] / r

    for arch in ARCHS:
        for cls in ARCH_LAYERS[arch]:
            for tag in ("fwd", "bwd"):
                key = f"nn.layers.{arch}.{cls}.{tag}"
                out[f"{key}_ms"] = 1000.0 * 32 * ratio(self_sum[key], rows[key])
                out[f"{key}_calls"] = calls[key] / r
        out[f"nn.layers.{arch}.padding_ratio"] = ratio(padded[arch], steps[arch])
    for arch in ARCHS:
        key = f"nn.optim.{arch}.adam_step"
        out[f"{key}_ms"] = 1000.0 * ratio(self_sum[key], calls[key])
        out[f"{key}_calls"] = calls[key] / r
        out[f"nn.training.{arch}.val_s"] = val_s[arch] / r
        out[f"nn.training.{arch}.val_calls"] = val_calls[arch] / r
    per_round("nn.training.predict_proba", "predict_proba", incl_sum)
    per_round("embeddings.load", "embeddings.load")
    out["embeddings.lines_read"] = lines / r
    out["embeddings.lines_kept_ratio"] = ratio(kept, lines - skipped)
    for part in ("vocab", "matrix", "encode"):
        per_round(f"embeddings.{part}", f"embeddings.{part}")
    per_round("preprocess.pipeline", "preprocess.pipeline")
    per_round("preprocess.tokenize", "preprocess.tokenize")
    out["preprocess.pipeline_calls_per_tweet"] = ratio(calls["preprocess.pipeline"] / r,
                                                       tweets_per_round)
    per_round("segmentation.segment", "segmentation.segment", calls_key="segmentation.calls")
    out["segmentation.distinct_ratio"] = ratio(len(bodies), calls["segmentation.segment"])
    per_round("nn.io.save_model", "nn.io.save_model")
    per_round("nn.io.load_model", "nn.io.load_model")
    per_round("models.encode_dataset", "models.encode_dataset", incl_sum)
    out["models.ensemble_proba_ms"] = 1000.0 * ratio(self_sum["models.ensemble_proba"],
                                                     calls["models.ensemble_proba"])
    out["models.ensemble_proba_calls"] = calls["models.ensemble_proba"] / r
    per_round("heuristics.annotate", "heuristics.annotate")
    per_round("heuristics.classify", "heuristics.classify")
    for k in range(1, 8):
        out[f"heuristics.rule_{k}_fired"] = rules[k] / r
    per_round("data.load_olid", "data.load_olid")
    out["cli.self_s"] = self_sum["cli.main"] / r
    out["cli.main_calls"] = calls["cli.main"] / r
    out["trace_overhead_s"] = overhead_s
    return out
