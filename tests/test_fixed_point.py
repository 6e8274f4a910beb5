"""Fixed points: annotate output bytes on small synthetic corpora.

The digests were recorded before the per-post facts refactor and the
count-table fit; any change to profiles, coverage, fill or model files
moves them. Each case runs the real CLI in-process.
"""

import hashlib

import pytest

from pbpstate.cli import main

DENSE = ("--seed", "43", "--campaigns", "2", "--turns", "200")
SPARSE = ("--seed", "43", "--campaigns", "8", "--turns", "50", "--signal-rate", "0.3")

ANNOTATE_SHA256 = {
    "dense": "fb8ffe06a41e3b858e4897b491d0a2d8f97cda8345176f4496376c93a4d59a6c",
    "inventory-fallback": "2ba5a71d6bb76595aa70aedc8021d2aa0a5a9cc84d5a93c569159b0ae13c8333",
    "no-fill": "263da41a5fb5c448dfbcf05b28c118fdb3b9fe5fc0fa7278643f5b0082c23934",
}
SPARSE_MODEL_SHA256 = "0d34cf53ebfa8400b818f3db9566436adbaabf852d738425b6d65718bd90987e"
SPARSE_ANNOTATE_SHA256 = "0d054e91dbda2f33888bd4076a7c730df7089c804aa9e6f262281364c370bb22"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def synth(tmp_path, name, args):
    corpus, gold = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.gold.jsonl"
    assert main(["synth", *args, "--out", str(corpus), "--gold", str(gold)]) == 0
    return corpus, gold


@pytest.fixture(scope="module")
def dense_corpus(tmp_path_factory):
    return synth(tmp_path_factory.mktemp("dense"), "dense", DENSE)[0]


@pytest.mark.parametrize(
    "case, flags",
    [("dense", []), ("inventory-fallback", ["--inventory-fallback"]), ("no-fill", ["--no-fill"])],
)
def test_dense_annotate_bytes(dense_corpus, tmp_path, case, flags):
    out = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--in", str(dense_corpus), "--out", str(out), *flags]) == 0
    assert sha256(out) == ANNOTATE_SHA256[case]


def test_sparse_annotate_with_icooc_model_bytes(tmp_path):
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
