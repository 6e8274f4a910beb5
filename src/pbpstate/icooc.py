"""In-character vs. out-of-character paragraph classification.

A smoothed multinomial bag-of-words model with three engineered indicator
features: dice notation, second-person address, and a digit-density bucket.
Out-of-character text talks rules and dice at the reader; in-character text
narrates, and those indicators separate the two even with a small
vocabulary. Training is a pure function of its arguments, so identical
inputs always reproduce the same model.

``fit_from_counts`` is the one estimator. It reads only per-label counts
of documents and of ``(token, count)`` items, so ``train`` folds each
paragraph into those counts as it reads it and holds no feature table;
slot fill feeds it the same way.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, Mapping

from .dice import contains_dice_expr
from .errors import (
    ConfigError,
    DegenerateDataError,
    EmptyInputError,
    ModelIOError,
    VersionMismatchError,
)
from .models import Campaign, GoldAnnotations, Post, _names, _object, _typed
from .transcripts import write_lines

MODEL_MAGIC = "ICOOC-MODEL v1"

IC = "IC"
OOC = "OOC"

DICE_FEATURE = "__dice__"
SECOND_PERSON_FEATURE = "__second_person__"

_TOKEN_RE = re.compile(r"[a-z0-9']+")
_SECOND_PERSON = frozenset({"you", "your", "yours"})


@dataclass(frozen=True)
class LabeledParagraph:
    text: str
    label: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("text: must be a non-empty string")
        if self.label not in (IC, OOC):
            raise ValueError(f"label: must be {IC!r} or {OOC!r}")

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "LabeledParagraph":
        d = _object(d, "a labeled paragraph", _names(cls))
        return cls(text=_typed(d, "text", str), label=_typed(d, "label", str))


def labeled_paragraphs(
    pairs: Iterable[tuple[Campaign, GoldAnnotations]],
) -> list[LabeledParagraph]:
    """Flatten campaigns and their gold paragraph labels into labeled IC/OOC
    training paragraphs."""
    out: list[LabeledParagraph] = []
    for campaign, gold in pairs:
        for post, labels in zip(campaign.posts, gold.paragraph_labels):
            for paragraph, label in zip(post.paragraphs, labels):
                out.append(LabeledParagraph(text=paragraph, label=label))
    return out


def _digit_bucket(text: str) -> str:
    ratio = sum(map(str.isdigit, text)) / max(1, len(text))
    if ratio == 0:
        bucket = "none"
    elif ratio <= 0.05:
        bucket = "low"
    elif ratio <= 0.15:
        bucket = "mid"
    else:
        bucket = "high"
    return f"__digits:{bucket}__"


def featurize(paragraph: str) -> dict[str, int]:
    """Lowercased unigram counts plus the three indicator features."""
    if not paragraph.strip():
        raise EmptyInputError("paragraph is empty")
    features: dict[str, int] = {}
    for token in _TOKEN_RE.findall(paragraph.lower()):
        features[token] = features.get(token, 0) + 1
    if contains_dice_expr(paragraph):
        features[DICE_FEATURE] = 1
    if not _SECOND_PERSON.isdisjoint(features):
        features[SECOND_PERSON_FEATURE] = 1
    features[_digit_bucket(paragraph)] = 1
    return features


@dataclass(frozen=True)
class IcOocModel:
    """Linear scores over the featurizer's space, one column per label.

    Scores are log-prior plus count-weighted token weights; posteriors come
    from a softmax over the label scores, so they always sum to one.
    Tokens unseen in training are ignored.
    """

    labels: tuple[str, ...]
    priors: tuple[float, ...]
    weights: dict[str, tuple[float, ...]]
    smoothing: float

    def scores(self, features: dict[str, int]) -> tuple[float, ...]:
        totals = list(self.priors)
        for token, count in features.items():
            token_weights = self.weights.get(token)
            if token_weights is None:
                continue
            for j, w in enumerate(token_weights):
                totals[j] += count * w
        return tuple(totals)

    def posteriors(self, features: dict[str, int]) -> dict[str, float]:
        scores = self.scores(features)
        peak = max(scores)
        exp = [math.exp(s - peak) for s in scores]
        total = sum(exp)
        return {label: e / total for label, e in zip(self.labels, exp)}


def train(data: Iterable[LabeledParagraph], smoothing: float = 1.0) -> IcOocModel:
    """Fit the multinomial model with additive smoothing.

    ``data`` is read once, one paragraph at a time: each paragraph is
    featurized, folded into per-label counts and dropped, and
    ``fit_from_counts`` fits the counts. So memory grows with the
    vocabulary, not with the data, and ``data`` may be a generator.
    A closed-form estimator over integer sums, so the same paragraphs
    and smoothing give the same model in any order. Raises
    DegenerateDataError unless both IC and OOC are present.

    The dice-notation feature is sign-constrained after fitting so that a
    dice match can never push a paragraph toward IC.
    """
    pair_counts: dict[str, Counter[tuple[str, int]]] = {IC: Counter(), OOC: Counter()}
    doc_counts: Counter[str] = Counter()
    for paragraph in data:
        pair_counts[paragraph.label].update(featurize(paragraph.text).items())
        doc_counts[paragraph.label] += 1
    return fit_from_counts(
        pair_counts, doc_counts, (IC, OOC), smoothing, constrain_dice=True
    )


def fit_from_counts(
    pair_counts: Mapping[str, Counter[tuple[str, int]]],
    doc_counts: Mapping[str, int],
    labels: tuple[str, ...],
    smoothing: float,
    constrain_dice: bool = False,
) -> IcOocModel:
    """Fit from per-label counts of documents and of (token, count) items.

    ``pair_counts[label][(token, n)]`` is the number of ``label``
    documents in which ``token`` occurs ``n`` times; ``doc_counts[label]``
    is the number of ``label`` documents. Folding a document in is
    ``pair_counts[label].update(features.items())``, which runs in C, so
    a caller can count documents as they stream by and drop them. The
    sums are integers, so the model does not depend on the order in which
    documents were counted.
    """
    if not 0 < smoothing < math.inf:
        raise ConfigError("smoothing: must be positive and finite")
    missing = [label for label in labels if not doc_counts.get(label)]
    if missing or len(labels) < 2:
        raise DegenerateDataError(
            f"need examples for every label; missing {missing or labels}"
        )

    # Per label, token -> summed count.
    tables: dict[str, dict[str, int]] = {}
    for label in labels:
        table: dict[str, int] = {}
        for (token, count), documents in pair_counts.get(label, {}).items():
            table[token] = table.get(token, 0) + count * documents
        tables[label] = table

    total_docs = sum(doc_counts[label] for label in labels)
    priors = tuple(math.log(doc_counts[lab] / total_docs) for lab in labels)
    vocabulary = sorted(set().union(*tables.values()))
    denominators = [
        sum(tables[lab].values()) + smoothing * len(vocabulary) for lab in labels
    ]
    weights = {
        token: tuple(
            math.log((tables[lab].get(token, 0) + smoothing) / denominator)
            for lab, denominator in zip(labels, denominators)
        )
        for token in vocabulary
    }

    if constrain_dice and DICE_FEATURE in weights and IC in labels and OOC in labels:
        ic, ooc = labels.index(IC), labels.index(OOC)
        w = list(weights[DICE_FEATURE])
        if w[ic] > w[ooc]:
            w[ic] = w[ooc]
            weights[DICE_FEATURE] = tuple(w)

    return IcOocModel(
        labels=labels, priors=priors, weights=weights, smoothing=smoothing
    )


def predict(model: IcOocModel, paragraph: str) -> tuple[str, float]:
    """(most probable label, posterior probability of IC)."""
    posteriors = model.posteriors(featurize(paragraph))
    label = max(model.labels, key=lambda lab: posteriors[lab])
    return label, posteriors.get(IC, posteriors[label])


def turn_label(labels: Iterable[str | None]) -> str:
    """The turn's label from its paragraphs' labels: the majority of the
    labels that are not ``None``, IC on a tie and when none votes. The
    one place the turn vote is taken, by ``annotate`` and by the
    synthetic oracle's gold ``in_character`` alike."""
    votes = [label for label in labels if label is not None]
    ic_count = votes.count(IC)
    return IC if ic_count >= len(votes) - ic_count else OOC


def label_turn(model: IcOocModel, post: Post) -> tuple[list[str | None], str]:
    """Label each paragraph and the turn (``turn_label``).

    A blank paragraph gets the label ``None`` and does not vote.
    """
    labels = [predict(model, p)[0] if p.strip() else None for p in post.paragraphs]
    return labels, turn_label(labels)


def rule_based_turn_label(post: Post) -> str:
    """Fallback when no trained model is supplied: a paragraph with dice
    notation votes OOC and any other, a blank one too, votes IC."""
    return turn_label(OOC if contains_dice_expr(p) else IC for p in post.paragraphs)


def save_model(model: IcOocModel, path: str | Path) -> None:
    lines = [MODEL_MAGIC]
    lines.append("labels\t" + "\t".join(model.labels))
    lines.append(f"smoothing\t{model.smoothing!r}")
    lines.append("priors\t" + "\t".join(repr(p) for p in model.priors))
    lines.append(f"tokens\t{len(model.weights)}")
    for token in sorted(model.weights):
        weights = model.weights[token]
        lines.append(token + "\t" + "\t".join(repr(w) for w in weights))
    write_lines(path, lines)


def load_model(path: str | Path) -> IcOocModel:
    """Read a model file written by ``save_model``; a malformed one, or
    one holding a non-finite number, raises an error naming the file."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise VersionMismatchError(
            f"{path}: expected header {MODEL_MAGIC!r},"
            f" found {(lines[0] if lines else '')!r}"
        )
    try:
        cursor = 1
        parts = lines[cursor].split("\t")
        if parts[0] != "labels":
            raise ModelIOError(
                f"{path}: expected labels line, found {lines[cursor]!r}"
            )
        labels = tuple(parts[1:])
        cursor += 1
        smoothing = float(lines[cursor].split("\t", 1)[1])
        cursor += 1
        priors = tuple(float(v) for v in lines[cursor].split("\t")[1:])
        cursor += 1
        token_count = int(lines[cursor].split("\t", 1)[1])
        cursor += 1
        weights: dict[str, tuple[float, ...]] = {}
        for line in lines[cursor : cursor + token_count]:
            fields = line.split("\t")
            if len(fields) != 1 + len(labels):
                raise ModelIOError(f"{path}: malformed weight line {line!r}")
            weights[fields[0]] = tuple(float(v) for v in fields[1:])
        if len(weights) != token_count:
            raise ModelIOError(
                f"{path}: expected {token_count} tokens, found {len(weights)}"
            )
    except (IndexError, ValueError) as exc:
        raise ModelIOError(f"{path}: truncated or corrupt model file: {exc}") from exc
    if len(set(labels)) < max(2, len(labels)) or len(priors) != len(labels):
        raise ModelIOError(f"{path}: needs two or more distinct labels, one prior each")
    if not all(map(math.isfinite, chain([smoothing], priors, *weights.values()))):
        raise ModelIOError(f"{path}: holds a number that is not finite")
    return IcOocModel(
        labels=labels, priors=priors, weights=weights, smoothing=smoothing
    )
