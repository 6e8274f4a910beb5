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
slot fill feeds it the same way. ``IcOocModel.predict`` is the one
predictor, for ``label_turn`` and slot fill alike. A model file is one
JSON line, an ``IcOocModel`` record, read by the one record decoder.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from .dice import contains_dice_expr
from .errors import ConfigError, FormatError, PbpError
from .models import Campaign, GoldAnnotations, Post, _Codec, _fail, _require
from .transcripts import dump_json_line, read_jsonl, write_lines

IC = "IC"
OOC = "OOC"

DICE_FEATURE = "__dice__"
SECOND_PERSON_FEATURE = "__second_person__"

_TOKEN_RE = re.compile(r"[a-z0-9']+")
_SECOND_PERSON = frozenset({"you", "your", "yours"})


@dataclass(frozen=True)
class LabeledParagraph(_Codec):
    _what = "a labeled paragraph"
    text: str
    label: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("text: must be a non-empty string")
        if self.label not in (IC, OOC):
            raise ValueError(f"label: must be {IC!r} or {OOC!r}")


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
        raise PbpError("paragraph is empty")
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
class IcOocModel(_Codec):
    """Linear scores over the featurizer's space, one column per label.

    Scores are log-prior plus count-weighted token weights; posteriors come
    from a softmax over the label scores, so they always sum to one.
    Tokens unseen in training are ignored.
    """

    _what = "an IC/OOC model"
    labels: tuple[str, ...]
    priors: tuple[float, ...]
    weights: dict[str, tuple[float, ...]]
    smoothing: float

    def __post_init__(self) -> None:
        n = len(self.labels)
        _require(len(set(self.labels)) == n > 1, "labels", "must be 2 or more, unique")
        _require(math.isfinite(self.smoothing), "smoothing", "must be finite")
        # Priors, then each token's weights; json.loads reads NaN and Infinity.
        for token, numbers in [(None, self.priors), *self.weights.items()]:
            if len(numbers) != n or not all(map(math.isfinite, numbers)):
                where = "priors" if token is None else f"weights[{token!r}]"
                _fail(where, f"must be {n} finite numbers, one per label")

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

    def predict(self, features: dict[str, int]) -> tuple[str, float]:
        """(most probable label, its posterior); the first label on a tie."""
        posteriors = self.posteriors(features)
        label = max(self.labels, key=lambda lab: posteriors[lab])
        return label, posteriors[label]


def train(data: Iterable[LabeledParagraph], smoothing: float = 1.0) -> IcOocModel:
    """Fit the multinomial model with additive smoothing.

    ``data`` is read once, one paragraph at a time: each paragraph is
    featurized, folded into per-label counts and dropped, and
    ``fit_from_counts`` fits the counts. So memory grows with the
    vocabulary, not with the data, and ``data`` may be a generator.
    A closed-form estimator over integer sums, so the same paragraphs
    and smoothing give the same model in any order. Raises PbpError
    unless both IC and OOC are present.

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
        raise PbpError(f"need examples for every label; missing {missing or labels}")

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
    labels = [
        model.predict(featurize(p))[0] if p.strip() else None for p in post.paragraphs
    ]
    return labels, turn_label(labels)


def rule_based_turn_label(post: Post) -> str:
    """Fallback when no trained model is supplied: a paragraph that one of
    ``post.rolls`` points at votes OOC, and any other, a blank one too, IC."""
    rolled = {roll.paragraph_index for roll in post.rolls}
    return turn_label(OOC if i in rolled else IC for i in range(len(post.paragraphs)))


def save_model(model: IcOocModel, path: str | Path) -> None:
    """Write ``model`` to ``path``, all or nothing: a JSON line, floats by ``repr``."""
    write_lines(path, [dump_json_line(model.to_dict())])


def load_model(path: str | Path) -> IcOocModel:
    """The IC/OOC model in a ``save_model`` file. A bad record, one whose
    labels are not IC and OOC (a slot model's, say), a second record or
    none raises FormatError naming the file, and the line where there is
    one."""
    decoded: list[IcOocModel] = []

    def first(record: dict[str, Any]) -> IcOocModel:
        if decoded:
            raise ValueError("a second record: a model file holds one")
        model = IcOocModel.from_dict(record)
        if set(model.labels) != {IC, OOC}:
            _fail("labels", f"must be IC and OOC, not {', '.join(model.labels)}")
        decoded.append(model)
        return model

    if not list(read_jsonl(path, first)):
        raise FormatError(f"{path}: holds no model record")
    return decoded[0]
