"""Unit tests for the benchmark's tracer and its offlang probes.

Run with ``python -m pytest perfbench`` from the repository root.
"""
import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import probes  # noqa: E402
from tracer import NAME, PARENT, Tracer  # noqa: E402
from workloads import END_TO_END  # noqa: E402


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_nested_self_time_subtracts_children_only():
    # a: 0..10, holding b: 1..4 (which holds c: 2..3) and d: 5..6
    tracer = Tracer(clock=FakeClock(0, 1, 2, 3, 4, 5, 6, 10))
    a = tracer.open("a")
    b = tracer.open("b")
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(b)
    d = tracer.open("d")
    tracer.close(d)
    tracer.close(a)
    assert [s[PARENT] for s in tracer.spans] == [None, a, b, a]
    assert tracer.self_times() == [6, 2, 1, 1]
    assert sum(tracer.self_times()) == tracer.root_wall() == 10


def test_wrap_records_parent_attrs_and_observed_counts():
    tracer = Tracer()

    def inner(x):
        return x * 2

    wrapped_inner = tracer.wrap(inner, "inner",
                                observe=lambda attrs, args, kw, result: attrs.update(out=result))
    outer = tracer.wrap(lambda x: wrapped_inner(x) + 1,
                        lambda t, args: f"outer.{args[0]}", attrs=lambda args: {"arch": "k"})
    assert outer(3) == 7
    names = [s[NAME] for s in tracer.spans]
    assert names == ["outer.3", "inner"]
    assert tracer.spans[1][PARENT] == 0
    assert tracer.spans[1][-1] == {"out": 6}


def test_span_closes_when_the_wrapped_function_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    try:
        tracer.wrap(boom, "boom")()
    except ValueError:
        pass
    assert tracer.open("next") == 1
    assert tracer.spans[1][PARENT] is None


def test_uninstall_restores_module_and_class_attributes():
    module = types.SimpleNamespace(f=len)

    class Base:
        def forward(self):
            return "base"

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.patch(module, "f", tracer.wrap(len, "len"))
    tracer.patch(Child, "forward", tracer.wrap(Child.forward, "fwd"))
    assert module.f([1, 2]) == 2 and Child().forward() == "base"
    assert len(tracer.spans) == 2
    tracer.uninstall()
    assert module.f is len
    assert "forward" not in Child.__dict__
    assert Child().forward() == "base"


def test_offlang_probes_trace_callers_and_are_removed_afterwards():
    import offlang.cli as cli
    import offlang.models as models
    import offlang.nn.layers as layers
    import offlang.preprocess as preprocess

    originals = {
        (cli, "preprocess_pipeline"): cli.preprocess_pipeline,
        (models, "preprocess_pipeline"): models.preprocess_pipeline,
        (preprocess, "segment_hashtag"): preprocess.segment_hashtag,
        (cli, "main"): cli.main,
    }
    class_dicts = {name: dict(vars(getattr(layers, name))) for name in probes.LAYER_CLASSES}
    tracer = Tracer()
    probes.install(tracer, {})
    try:
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in originals.items())
        tokens = cli.preprocess_pipeline("Go #BuildTheWall now")
    finally:
        tracer.uninstall()
    assert tokens[0] == "go"
    names = [s[NAME] for s in tracer.spans]
    assert names[0] == "preprocess.pipeline"
    assert "segmentation.segment" in names and "preprocess.tokenize" in names
    assert all(s[PARENT] == 0 for s in tracer.spans[1:])
    assert abs(sum(tracer.self_times()) - tracer.root_wall()) < 1e-9
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in originals.items())
    assert {name: dict(vars(getattr(layers, name))) for name in probes.LAYER_CLASSES} \
        == class_dicts


def test_per_layer_metrics_cover_every_declared_name():
    tracer = Tracer()
    metrics = probes.per_layer_metrics(tracer, rounds=1, tweets_per_round=1, overhead_s=0.0)
    assert list(metrics) == [name for name, _ in probes.per_layer_names()]
    assert len(metrics) <= 128


def test_benchmark_json_lists_the_metrics_the_runs_print():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {(m["name"], m["unit"]) for m in bench["end_to_end"]} == set(END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == probes.per_layer_names()
