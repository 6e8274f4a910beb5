"""Fixed points: annotate, serialize, stats and eval-gst output bytes on
small synthetic corpora.

Any change to profiles, coverage, slot rows, fill, model files, the
fine-tuning examples, the gold slot view that eval-gst scores against or
the report encoding moves the digests. Each case runs the real CLI in-process.
"""

import hashlib
import json

import pytest

from pbpstate.cli import main
from pbpstate.models import TurnState
from pbpstate.records import state_slot_values

DENSE = ("--seed", "43", "--campaigns", "2", "--turns", "200")
SPARSE = ("--seed", "43", "--campaigns", "8", "--turns", "50", "--signal-rate", "0.3")

ANNOTATE_SHA256 = {
    "dense": "53600d85612580963b2a4f65c466a85be06899191b50c620b958afa0454ed762",
}
DENSE_MODEL_SHA256 = "a72e6f2bfbb9f3ab33f69095b958eaa7bfc588d5356ebdfd41aac6dfd08d00bd"
SPARSE_MODEL_SHA256 = "ca647b752d051a23dd817b51b4a431294c684b9aee36269fb24bceefc577483d"
SPARSE_ANNOTATE_SHA256 = "f4f5789e020b7fa21f1b978d9cccfbb3430955cac07132f682eff066d11e912f"
EVAL_GST_SHA256 = {
    "dense": "276657e58ab28cb3f7a03fdcbcdfcc36527d96b6ebeb6ee32e830e925303666d",
    "sparse": "32686467f50224f1a5cf31b2f6788879d0d30955c195e46df1a60cdd02fee5bc",
}
# The reports on the dense corpus: stats as JSON and as a table, and the
# eval-gst table (its JSON is EVAL_GST_SHA256["dense"]).
REPORT_SHA256 = {
    ("stats", "--json"): "4e0f669dac6d70cb05d26864aa6176ad4876473eb8381edc25b214493977a68c",
    ("stats",): "70e6b9f0f39e8a53de15d3a9d6460f974e601f86400e656ef78455e34cf77cef",
    ("eval-gst",): "58e51bf25d6bcb06d6eb603dbd8e22127e6a7b8ca9ab5446a476bcfc670d7a33",
}
SERIALIZE_SHA256 = {
    ("all", "7"): "df7bba0ada13d579df6c4571f48e61df0cf90443856ac13247995572844f5536",
    ("curr", "3"): "e5a6974176d8eec3fb025ca0ec0f23a62ba6e3feb2c3707b2c89ea98a89522a4",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def eval_gst_sha256(annotated, gold, capsys):
    capsys.readouterr()
    assert main(["eval-gst", "--pred", str(annotated), "--gold", str(gold), "--json"]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def synth(tmp_path, name, args):
    corpus, gold = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.gold.jsonl"
    assert main(["synth", *args, "--out", str(corpus), "--gold", str(gold)]) == 0
    return corpus, gold


@pytest.fixture(scope="module")
def dense_files(tmp_path_factory):
    return synth(tmp_path_factory.mktemp("dense"), "dense", DENSE)


@pytest.fixture(scope="module")
def dense_corpus(dense_files):
    return dense_files[0]


@pytest.mark.parametrize("case, flags", [("dense", [])])
def test_dense_annotate_bytes(dense_corpus, tmp_path, case, flags):
    out = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--in", str(dense_corpus), "--out", str(out), *flags]) == 0
    assert sha256(out) == ANNOTATE_SHA256[case]


def test_dense_eval_gst_report_bytes(dense_files, tmp_path, capsys):
    corpus, gold = dense_files
    annotated = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--in", str(corpus), "--out", str(annotated)]) == 0
    assert eval_gst_sha256(annotated, gold, capsys) == EVAL_GST_SHA256["dense"]


@pytest.mark.parametrize("command", sorted(REPORT_SHA256))
def test_dense_report_bytes(dense_files, tmp_path, capsys, command):
    corpus, gold = dense_files
    if command[0] == "stats":
        argv = ["stats", "--in", str(corpus), *command[1:]]
    else:
        annotated = tmp_path / "annotated.jsonl"
        assert main(["annotate", "--in", str(corpus), "--out", str(annotated)]) == 0
        argv = ["eval-gst", "--pred", str(annotated), "--gold", str(gold)]
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == REPORT_SHA256[command]


@pytest.mark.parametrize("variant, window", sorted(SERIALIZE_SHA256))
def test_dense_serialize_bytes(dense_corpus, tmp_path, variant, window):
    annotated, out = tmp_path / "annotated.jsonl", tmp_path / "finetune.jsonl"
    assert main(["annotate", "--in", str(dense_corpus), "--out", str(annotated)]) == 0
    assert main(
        ["serialize", "--in", str(annotated), "--out", str(out),
         "--variant", variant, "--window", window]
    ) == 0
    assert sha256(out) == SERIALIZE_SHA256[variant, window]


def test_dense_train_icooc_model_bytes(dense_files, tmp_path):
    corpus, gold = dense_files
    model = tmp_path / "icooc.model"
    assert main(
        ["train-icooc", "--corpus", str(corpus), "--gold", str(gold), "--out", str(model)]
    ) == 0
    assert sha256(model) == DENSE_MODEL_SHA256


def test_sparse_annotate_with_icooc_model_bytes(tmp_path, capsys):
    corpus, gold = synth(tmp_path, "sparse", SPARSE)
    model, out = tmp_path / "icooc.model", tmp_path / "annotated.jsonl"
    assert main(
        ["train-icooc", "--corpus", str(corpus), "--gold", str(gold), "--out", str(model)]
    ) == 0
    assert sha256(model) == SPARSE_MODEL_SHA256
    assert main(
        ["annotate", "--in", str(corpus), "--out", str(out), "--icooc-model", str(model)]
    ) == 0
    assert sha256(out) == SPARSE_ANNOTATE_SHA256
    assert eval_gst_sha256(out, gold, capsys) == EVAL_GST_SHA256["sparse"]


def test_every_output_reads_back_through_every_command_that_reads_it(
    dense_files, tmp_path, capsys
):
    """No record that synth, ingest or annotate writes at seed 43 is
    rejected by a command that reads it, and each reads to the same bytes
    whichever of the equivalent files it is given."""

    def run(*argv):
        capsys.readouterr()
        assert main(list(map(str, argv))) == 0, argv
        return capsys.readouterr().out

    corpus, gold = dense_files
    ingested, again = tmp_path / "ingested.jsonl", tmp_path / "again.jsonl"
    run("ingest", "--in", corpus, "--out", ingested)
    run("ingest", "--in", ingested, "--out", again)
    assert again.read_bytes() == ingested.read_bytes()
    model = tmp_path / "model"
    run("train-icooc", "--corpus", corpus, "--gold", gold, "--out", model)
    read_as = {}
    for name, transcript in [("corpus", corpus), ("ingested", ingested)]:
        trained, annotated, labeled = (
            tmp_path / f"{name}.{step}" for step in ("model", "annotated", "labels")
        )
        run("train-icooc", "--corpus", transcript, "--gold", gold, "--out", trained)
        assert sha256(trained) == DENSE_MODEL_SHA256
        run("annotate", "--in", transcript, "--out", annotated)
        assert sha256(annotated) == ANNOTATE_SHA256["dense"]
        run("classify", "--model", model, "--in", transcript, "--out", labeled)
        read_as[name] = labeled.read_bytes(), run("stats", "--in", transcript)
    assert read_as["ingested"] == read_as["corpus"]

    examples = tmp_path / "examples.jsonl"
    run("serialize", "--in", annotated, "--out", examples, "--variant", "all")
    assert sha256(examples) == SERIALIZE_SHA256["all", "7"]
    report = run("eval-gst", "--pred", annotated, "--gold", gold, "--json")
    # An outside predictor writes only the slot view.
    prediction = tmp_path / "prediction.jsonl"
    prediction.write_text("".join(
        json.dumps({"campaign_id": r["campaign_id"], "turn_slots": r["turn_slots"]})
        + "\n"
        for r in map(json.loads, annotated.read_text(encoding="utf-8").splitlines())
    ), encoding="utf-8")
    assert run("eval-gst", "--pred", prediction, "--gold", gold, "--json") == report
    # Each reader of eval-gst takes one record kind, so gold is no
    # prediction and a prediction no gold; gold's own slot view, written
    # as an outside prediction, scores 1.0.
    for pred, problem in [
        (gold, "paragraph_labels: not an annotated record field"),
        (annotated, "posts: not a gold record field"),
    ]:
        capsys.readouterr()
        assert main(["eval-gst", "--pred", str(pred), "--gold", str(pred)]) == 2
        assert problem in capsys.readouterr().err
    gold_view = tmp_path / "gold-view.jsonl"
    gold_view.write_text("".join(
        json.dumps({"campaign_id": r["campaign_id"], "turn_slots": [
            {slot: {"value": v} for slot, v in state_slot_values(state).items()}
            for state in map(TurnState.from_dict, r["turn_states"])
        ]}) + "\n"
        for r in map(json.loads, gold.read_text(encoding="utf-8").splitlines())
    ), encoding="utf-8")
    assert json.loads(run("eval-gst", "--pred", gold_view, "--gold", gold, "--json"))[
        "joint_accuracy"
    ] == 1.0

    corpus, gold = synth(tmp_path, "sparse", SPARSE)
    run("ingest", "--in", corpus, "--out", ingested)
    run("train-icooc", "--corpus", ingested, "--gold", gold, "--out", model)
    assert sha256(model) == SPARSE_MODEL_SHA256
    run("annotate", "--in", corpus, "--out", annotated, "--icooc-model", model)
    assert sha256(annotated) == SPARSE_ANNOTATE_SHA256
    run("serialize", "--in", annotated, "--out", examples)
    run("eval-gst", "--pred", annotated, "--gold", gold)
