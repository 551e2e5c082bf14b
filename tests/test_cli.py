import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import offlang.cli as cli
import offlang.heuristics as heuristics
from conftest import write_olid
from offlang.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from offlang.embeddings import EmbeddingTable, Vocabulary
from offlang.models import ARCH_CNN, BUILDERS
from offlang.nn import save_model

SRC = Path(__file__).resolve().parents[1] / "src"

TRAIN_ROWS = [
    ("1", "you are a total disgrace", "OFF", "TIN"),
    ("2", "what a lovely morning", "NOT", None),
    ("3", "complete garbage everywhere", "OFF", "UNT"),
    ("4", "have a great day friends", "NOT", None),
    ("5", "you are pathetic trash", "OFF", "TIN"),
    ("6", "the weather is nice today", "NOT", None),
    ("7", "utter rubbish and nonsense", "OFF", "UNT"),
    ("8", "looking forward to the weekend", "NOT", None),
]


@pytest.fixture
def train_tsv(tmp_path):
    return write_olid(tmp_path / "train.tsv", TRAIN_ROWS)


@pytest.fixture
def embeddings_file(tmp_path):
    words = sorted({w for _, text, _, _ in TRAIN_ROWS for w in text.split()})
    lines = []
    for i, word in enumerate(words):
        values = " ".join(f"{0.01 * ((i + j) % 7 - 3):.3f}" for j in range(8))
        lines.append(f"{word} {values}")
    path = tmp_path / "vectors.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def train_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "embedding_dim=8\nmax_len=16\nmax_epochs=2\nvalidation_fraction=0.34\n"
        "batch_size=4\nseed=11\n",
        encoding="utf-8",
    )
    return path


def test_preprocess_command(tmp_path):
    data = write_olid(
        tmp_path / "d.tsv",
        [("1", "@USER #fatbastard lol", "OFF", None), ("2", "", "NOT", None)],
    )
    out = tmp_path / "pre.tsv"
    assert main(["preprocess", "--data", str(data), "--out", str(out)]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "1\tfat bastard lol"
    assert lines[1] == "2\t"
    first = out.read_bytes()
    assert main(["preprocess", "--data", str(data), "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == first  # reruns byte-identical


def test_preprocess_missing_file(tmp_path):
    out = tmp_path / "pre.tsv"
    assert main(["preprocess", "--data", str(tmp_path / "nope.tsv"), "--out", str(out)]) == EXIT_USAGE


def test_unknown_arch_is_usage_error(train_tsv, embeddings_file, tmp_path):
    code = main([
        "train", "--arch", "transformer", "--data", str(train_tsv),
        "--embeddings", str(embeddings_file), "--out", str(tmp_path / "m.bin"),
    ])
    assert code == EXIT_USAGE


def test_train_predict_evaluate_round_trip(train_tsv, embeddings_file, train_config, tmp_path, capsys):
    model_path = tmp_path / "cnn.bin"
    args = [
        "train", "--arch", "cnn", "--data", str(train_tsv),
        "--embeddings", str(embeddings_file), "--out", str(model_path),
        "--config", str(train_config),
    ]
    assert main(args) == EXIT_OK
    assert model_path.exists()
    history = json.loads((tmp_path / "cnn.bin.history.json").read_text(encoding="utf-8"))
    assert history["epochs_run"] == 2
    printed = capsys.readouterr().out
    assert "val_loss=" in printed and "val_accuracy=" in printed

    # determinism: identical config and seed give identical model files
    first_bytes = model_path.read_bytes()
    assert main(args) == EXIT_OK
    assert model_path.read_bytes() == first_bytes

    preds = tmp_path / "preds.tsv"
    assert main([
        "predict", str(model_path), "--data", str(train_tsv),
        "--out", str(preds), "--config", str(train_config),
    ]) == EXIT_OK
    lines = preds.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(TRAIN_ROWS)
    fields = lines[0].split("\t")
    assert fields[0] == "1" and fields[2] in ("OFF", "NOT")
    assert len(fields[1].split(".")[1]) == 6  # probability printed to 6 decimals

    # an ensemble listing the same model twice yields the same labels
    preds2 = tmp_path / "preds2.tsv"
    assert main([
        "predict", str(model_path), str(model_path), "--data", str(train_tsv),
        "--out", str(preds2), "--config", str(train_config),
    ]) == EXIT_OK
    labels = [line.split("\t")[2] for line in preds.read_text().splitlines()]
    labels2 = [line.split("\t")[2] for line in preds2.read_text().splitlines()]
    assert labels == labels2

    capsys.readouterr()
    report_json = tmp_path / "report.json"
    assert main([
        "evaluate", str(preds), str(train_tsv), "--task", "A", "--out", str(report_json),
    ]) == EXIT_OK
    shown = capsys.readouterr().out
    assert "accuracy" in shown and "macro F1" in shown
    payload = json.loads(report_json.read_text(encoding="utf-8"))
    assert 0.0 <= payload["macro_f1"] <= 1.0


def test_ensemble_members_with_distinct_seeds_share_a_split(
    train_tsv, embeddings_file, train_config, tmp_path
):
    # distinct --seed per member, same (default) split seed: the saved
    # vocabularies match, so ensemble prediction works
    models = []
    for seed, arch in (("1", "cnn"), ("2", "cnn")):
        path = tmp_path / f"m{seed}.bin"
        assert main([
            "train", "--arch", arch, "--data", str(train_tsv),
            "--embeddings", str(embeddings_file), "--out", str(path),
            "--config", str(train_config), "--seed", seed,
        ]) == EXIT_OK
        models.append(str(path))
    assert models[0] != models[1]
    preds = tmp_path / "ens.tsv"
    assert main(["predict", *models, "--data", str(train_tsv),
                 "--out", str(preds), "--config", str(train_config)]) == EXIT_OK
    assert len(preds.read_text().splitlines()) == len(TRAIN_ROWS)

    # a member trained on a different split is rejected as incompatible
    # (split seed 43 selects different validation rows than the default 42,
    # so the training vocabulary differs)
    other = tmp_path / "other.bin"
    assert main([
        "train", "--arch", "cnn", "--data", str(train_tsv),
        "--embeddings", str(embeddings_file), "--out", str(other),
        "--config", str(train_config), "--seed", "1", "--split-seed", "43",
    ]) == EXIT_OK
    assert main(["predict", models[0], str(other), "--data", str(train_tsv),
                 "--out", str(preds), "--config", str(train_config)]) == EXIT_RUNTIME


def test_predict_missing_model(train_tsv, tmp_path):
    code = main([
        "predict", str(tmp_path / "ghost.bin"), "--data", str(train_tsv),
        "--out", str(tmp_path / "p.tsv"),
    ])
    assert code == EXIT_USAGE


def test_evaluate_perfect_predictions(train_tsv, tmp_path, capsys):
    preds = tmp_path / "perfect.tsv"
    rows = [f"{rid}\t1.000000\t{label}" for rid, _, label, _ in TRAIN_ROWS]
    preds.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["evaluate", str(preds), str(train_tsv), "--task", "A"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "accuracy  1.0000" in out
    assert "macro F1  1.0000" in out


def test_evaluate_mismatched_ids(train_tsv, tmp_path, capsys):
    preds = tmp_path / "short.tsv"
    preds.write_text("1\t0.900000\tOFF\n", encoding="utf-8")
    assert main(["evaluate", str(preds), str(train_tsv), "--task", "A"]) == EXIT_RUNTIME
    assert "missing id" in capsys.readouterr().err


def test_evaluate_constant_baseline_matches_published_row(tmp_path, capsys):
    # An all-NOT predictions file against a 620/240 gold split must print the
    # published 0.4189 macro-F1 and 0.7209 accuracy.
    rows = [(f"g{i}", "text", "NOT" if i < 620 else "OFF", None) for i in range(860)]
    gold = write_olid(tmp_path / "gold.tsv", rows)
    preds = tmp_path / "allnot.tsv"
    preds.write_text(
        "".join(f"g{i}\t0.000000\tNOT\n" for i in range(860)), encoding="utf-8"
    )
    assert main(["evaluate", str(preds), str(gold), "--task", "A"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "macro F1  0.4189" in out
    assert "accuracy  0.7209" in out


def test_build_lexicon_and_taskb(train_tsv, tmp_path):
    lexicon_path = tmp_path / "lex.txt"
    assert main([
        "build-lexicon", "--data", str(train_tsv), "--out", str(lexicon_path), "--k", "5",
    ]) == EXIT_OK
    first = lexicon_path.read_bytes()
    assert main([
        "build-lexicon", "--data", str(train_tsv), "--out", str(lexicon_path), "--k", "5",
    ]) == EXIT_OK
    assert lexicon_path.read_bytes() == first

    taskb_out = tmp_path / "taskb.tsv"
    data = write_olid(
        tmp_path / "b.tsv",
        [("10", "#maga crowd", "OFF", "TIN"), ("11", "pure drivel", "OFF", "UNT")],
    )
    seed_lex = tmp_path / "seed.txt"
    seed_lex.write_text("#maga\n", encoding="utf-8")
    assert main([
        "taskb", "--data", str(data), "--lexicon", str(seed_lex), "--out", str(taskb_out),
    ]) == EXIT_OK
    lines = taskb_out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "10\tTIN\t1"
    assert lines[1].startswith("11\tUNT")
    first = taskb_out.read_bytes()
    assert main([
        "taskb", "--data", str(data), "--lexicon", str(seed_lex), "--out", str(taskb_out),
    ]) == EXIT_OK
    assert taskb_out.read_bytes() == first


def test_train_with_exclusion_list(train_tsv, embeddings_file, train_config, tmp_path):
    excl = tmp_path / "exclude.txt"
    excl.write_text("# suspected mislabels\n7\n8\n", encoding="utf-8")
    model_path = tmp_path / "m.bin"
    args = [
        "train", "--arch", "cnn", "--data", str(train_tsv),
        "--embeddings", str(embeddings_file), "--out", str(model_path),
        "--config", str(train_config),
    ]
    assert main(args + ["--exclude", str(excl)]) == EXIT_OK
    excluded_bytes = model_path.read_bytes()
    assert main(args) == EXIT_OK
    # dropping rows changes the split and vocabulary, so the model differs
    assert model_path.read_bytes() != excluded_bytes


def test_predict_on_unlabeled_input(train_tsv, embeddings_file, train_config, tmp_path):
    model_path = tmp_path / "m.bin"
    assert main([
        "train", "--arch", "cnn", "--data", str(train_tsv),
        "--embeddings", str(embeddings_file), "--out", str(model_path),
        "--config", str(train_config),
    ]) == EXIT_OK
    unlabeled = write_olid(
        tmp_path / "unlabeled.tsv", [("x1", "you are trash"), ("x2", "nice day")],
        has_labels=False,
    )
    preds = tmp_path / "p.tsv"
    assert main([
        "predict", str(model_path), "--data", str(unlabeled), "--unlabeled",
        "--out", str(preds), "--config", str(train_config),
    ]) == EXIT_OK
    lines = preds.read_text(encoding="utf-8").splitlines()
    assert [l.split("\t")[0] for l in lines] == ["x1", "x2"]


def test_evaluate_task_b_round_trip(tmp_path, capsys):
    gold = write_olid(
        tmp_path / "goldb.tsv",
        [
            ("1", "#maga wins", "OFF", "TIN"),
            ("2", "utter rubbish", "OFF", "UNT"),
            ("3", "you are a disgrace", "OFF", "TIN"),
        ],
    )
    lex = tmp_path / "lex.txt"
    lex.write_text("#maga\n", encoding="utf-8")
    preds = tmp_path / "taskb.tsv"
    assert main(["taskb", "--data", str(gold), "--lexicon", str(lex),
                 "--out", str(preds)]) == EXIT_OK
    assert main(["evaluate", str(preds), str(gold), "--task", "B"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "accuracy  1.0000" in out  # rules 1, 3, 4 each fire correctly

    # choices are not checked on config values: any task but A scores task B
    cfg = tmp_path / "c.cfg"
    cfg.write_text("task=C\n", encoding="utf-8")
    assert main(["evaluate", str(preds), str(gold), "--config", str(cfg)]) == EXIT_OK
    assert "accuracy  1.0000" in capsys.readouterr().out


def test_taskb_missing_lexicon(train_tsv, tmp_path):
    code = main([
        "taskb", "--data", str(train_tsv), "--lexicon", str(tmp_path / "no.txt"),
        "--out", str(tmp_path / "o.tsv"),
    ])
    assert code == EXIT_USAGE


def test_taskb_external_annotations(tmp_path, monkeypatch):
    def no_tokenizer(text):
        raise AssertionError("an annotation table needs no tokens")

    monkeypatch.setattr(cli, "tokenize", no_tokenizer)
    data = write_olid(tmp_path / "b.tsv", [("7", "anything at all", "OFF", "UNT")])
    ann = tmp_path / "ann.tsv"
    ann.write_text("7\tyou/PRP are/V scum/OTHER\t-\n", encoding="utf-8")
    lex = tmp_path / "lex.txt"
    lex.write_text("unrelated\n", encoding="utf-8")
    out = tmp_path / "o.tsv"
    assert main([
        "taskb", "--data", str(data), "--lexicon", str(lex),
        "--annotations", str(ann), "--out", str(out),
    ]) == EXIT_OK
    assert out.read_text(encoding="utf-8") == "7\tTIN\t4\n"

    # a dataset id absent from the annotations is a runtime failure
    data2 = write_olid(tmp_path / "b2.tsv", [("8", "more text", "OFF", "UNT")])
    assert main([
        "taskb", "--data", str(data2), "--lexicon", str(lex),
        "--annotations", str(ann), "--out", str(out),
    ]) == EXIT_RUNTIME


def test_config_flag_precedence(train_tsv, tmp_path):
    # config says k=1, the flag overrides with 2
    cfg = tmp_path / "c.cfg"
    cfg.write_text("k=1\n", encoding="utf-8")
    out = tmp_path / "lex.txt"
    assert main([
        "build-lexicon", "--data", str(train_tsv), "--out", str(out),
        "--config", str(cfg), "--k", "2",
    ]) == EXIT_OK
    tokens = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(tokens) == 2


def test_train_preprocesses_each_row_once(train_tsv, embeddings_file, train_config, tmp_path,
                                          monkeypatch):
    import offlang.cli as cli
    import offlang.models as models
    from offlang.preprocess import preprocess_pipeline

    texts = []

    def counting(text, *args, **kwargs):
        texts.append(text)
        return preprocess_pipeline(text, *args, **kwargs)

    for module in (cli, models):
        monkeypatch.setattr(module, "preprocess_pipeline", counting)
    assert main([
        "train", "--arch", "cnn", "--data", str(train_tsv),
        "--embeddings", str(embeddings_file), "--out", str(tmp_path / "cnn.bin"),
        "--config", str(train_config),
    ]) == EXIT_OK
    assert sorted(texts) == sorted(text for _, text, _, _ in TRAIN_ROWS)


# option: (default, config value, flag value), for every option with a type;
# the first ten are train's
TYPED_OPTIONS = {
    "seed": (42, 7, 5),
    "split_seed": (42, 8, 6),
    "learning_rate": (1e-3, 0.01, 0.05),
    "batch_size": (32, 4, 2),
    "max_epochs": (50, 2, 3),
    "patience": (3, 1, 2),
    "validation_fraction": (0.1, 0.34, 0.25),
    "min_count": (1, 2, 3),
    "embedding_dim": (200, 8, 6),
    "max_len": (200, 16, 12),
    "threshold": (0.5, 0.25, 0.75),
    "k": (100, 3, 5),
    "task": ("A", "B", "A"),
}


class _Reached(BaseException):
    """Stops a command once its option values have reached the library."""


def _values_reaching_library(monkeypatch, argvs) -> dict:
    seen = {}

    def stand_in(module, name, params, result=None):
        bind = inspect.signature(getattr(module, name)).bind

        def fake(*args, **kwargs):
            bound = bind(*args, **kwargs).arguments
            seen.update((option, bound[param]) for param, option in params.items())
            if result is None:
                raise _Reached
            return result(bound)

        monkeypatch.setattr(module, name, fake)

    same = lambda *names: {name: name for name in names}
    stand_in(cli, "encode_split",
             same("validation_fraction", "split_seed", "min_count", "max_len"),
             lambda bound: (Vocabulary({}), None, None))
    stand_in(cli, "load_embeddings", {"expected_dim": "embedding_dim"},
             lambda bound: EmbeddingTable(bound["expected_dim"], {}))
    stand_in(cli, "TrainConfig", same("learning_rate", "batch_size", "max_epochs", "patience",
                                      "seed"))
    stand_in(cli, "ensemble_predict", same("threshold"))
    stand_in(cli, "_read_predictions", same("task"))
    stand_in(heuristics, "build_lexicon", same("k"))
    monkeypatch.setattr(cli, "load_model", lambda path: (None, {}, 16))
    for argv in argvs:
        with pytest.raises(_Reached):
            main(argv)
    return seen


@pytest.mark.parametrize("source", ["default", "config", "flag"])
def test_typed_options_reach_the_library_with_their_types(source, train_tsv, tmp_path,
                                                          monkeypatch):
    # a flag wins over a config value, which wins over the default
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k}={v[1]}\n" for k, v in TYPED_OPTIONS.items()), encoding="utf-8")

    def options(*names):
        config = ["--config", str(cfg)] if source != "default" else []
        flags = [f"--{n.replace('_', '-')}={TYPED_OPTIONS[n][2]}" for n in names]
        return config + (flags if source == "flag" else [])

    data = ["--data", str(train_tsv)]
    seen = _values_reaching_library(monkeypatch, [
        ["train", "--arch", "cnn", *data, "--embeddings", str(train_tsv),
         "--out", str(tmp_path / "m.bin"), *options(*list(TYPED_OPTIONS)[:10])],
        ["predict", str(train_tsv), *data, "--out", str(tmp_path / "p.tsv"),
         *options("threshold")],
        ["evaluate", str(train_tsv), str(train_tsv), *options("task")],
        ["build-lexicon", *data, "--out", str(tmp_path / "l.txt"), *options("k")],
    ])
    column = ("default", "config", "flag").index(source)
    expected = {k: v[column] for k, v in TYPED_OPTIONS.items()}
    assert seen == expected
    assert {k: type(v) for k, v in seen.items()} == {k: type(v) for k, v in expected.items()}


@pytest.fixture
def untrained_model(tmp_path):
    words = sorted({w for _, text, _, _ in TRAIN_ROWS for w in text.split()})
    matrix = np.random.default_rng(0).uniform(-0.05, 0.05, (len(words) + 2, 8))
    path = tmp_path / "untrained.bin"
    save_model(path, BUILDERS[ARCH_CNN](matrix.astype(np.float32), expected_dim=8, seed=0),
               {w: i for i, w in enumerate(words, start=2)}, 16)
    return path


@pytest.mark.parametrize("command, flags, config, code", [
    # choices are not checked on config values; the lookup of the arch fails
    ("train", [], "arch=lstm", EXIT_RUNTIME),
    # a malformed config value fails like a malformed flag value after parsing,
    # also where a flag overrides it or the subcommand does not read it
    ("train", ["--arch", "cnn", "--batch-size", "4"], "batch_size=x", EXIT_RUNTIME),
    ("predict", [], "seed=abc", EXIT_RUNTIME),
    ("predict", [], "seed=3", EXIT_OK),
    # a key naming no option is ignored
    ("build-lexicon", [], "learnign_rate=5", EXIT_OK),
    # so is a flag that takes no value: this input stays read as labelled
    ("preprocess", [], "unlabeled=true", EXIT_RUNTIME),
])
def test_config_file_values(command, flags, config, code, train_tsv, embeddings_file,
                            untrained_model, tmp_path):
    unlabeled = write_olid(tmp_path / "u.tsv", [("x1", "nice day")], has_labels=False)
    argv = {
        "train": ["--data", str(train_tsv), "--embeddings", str(embeddings_file),
                  "--embedding-dim", "8", "--max-len", "16", "--max-epochs", "1",
                  "--validation-fraction", "0.34"],
        "predict": [str(untrained_model), "--data", str(train_tsv)],
        "build-lexicon": ["--data", str(train_tsv)],
        "preprocess": ["--data", str(unlabeled)],
    }[command]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config + "\n", encoding="utf-8")
    assert main([command, *argv, *flags, "--out", str(tmp_path / "out"),
                 "--config", str(cfg)]) == code


HELP_FLAGS = {
    "preprocess": "--config --data --help --norm-table --out --seed --seg-dict --unlabeled",
    "train": "--arch --batch-size --config --data --embedding-dim --embeddings --exclude --help "
             "--learning-rate --max-epochs --max-len --min-count --norm-table --out --patience "
             "--seed --seg-dict --split-seed --validation-fraction",
    "predict": "--config --data --help --norm-table --out --seed --seg-dict --threshold "
               "--unlabeled",
    "evaluate": "--config --help --norm-table --out --seed --seg-dict --task",
    "taskb": "--annotations --config --data --help --lexicon --norm-table --out --seed "
             "--seg-dict --unlabeled",
    "build-lexicon": "--config --data --help --k --norm-table --out --overrides --seed "
                     "--seg-dict --stoplist",
}


@pytest.mark.parametrize("command", list(HELP_FLAGS))
def test_entry_point_help_lists_the_flags(command):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "offlang.cli", command, "--help"], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert set(re.findall(r"--[a-z][a-z-]*", result.stdout)) == set(HELP_FLAGS[command].split())
