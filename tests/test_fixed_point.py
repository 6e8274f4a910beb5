"""Fixed points: annotate output bytes on small synthetic corpora.

Any change to profiles, coverage, slot rows, fill or model files moves
the digests. Each case runs the real CLI in-process.
"""

import hashlib

import pytest

from pbpstate.cli import main

DENSE = ("--seed", "43", "--campaigns", "2", "--turns", "200")
SPARSE = ("--seed", "43", "--campaigns", "8", "--turns", "50", "--signal-rate", "0.3")

ANNOTATE_SHA256 = {
    "dense": "ff1716c5b5d0e7c77774fed7ea94fd55dcc23848958301f76f6a6eb38a080297",
    "inventory-fallback": "1c3a0c4f1c06c88cf8bcf5db3dd1d2045ad9a8cd22ed51b9ae87e7392afb2484",
    "no-fill": "2923402070c8bb898092d2af67f702617e0aad71747fa77fd8bf4defb12deb7c",
}
SPARSE_MODEL_SHA256 = "0d34cf53ebfa8400b818f3db9566436adbaabf852d738425b6d65718bd90987e"
SPARSE_ANNOTATE_SHA256 = "8a79ede08f386dfe1c21ee933ef83c388a72a8845b0782f651828af7a1a73a65"


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
