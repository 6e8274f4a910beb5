"""Fallback classifiers for the profile slots the heuristics leave unvalued.

One multinomial model per slot in ``FILLABLE_SLOTS`` (class, race,
pronouns), sharing the IC/OOC featurizer, trained on the turns where the
heuristic produced a value and using only the current post's text as
input. Filling never overwrites a heuristic value: the models only
propose labels for uncovered turns, and only when the posterior clears
the confidence threshold. The DM's turns are neither learned from nor
filled: the DM plays no character, so these slots stay empty there.
A slot's heuristic value is its ``TurnState`` field, and a fill is kept
apart from the states, in the campaign's ``fills``.

``fill_inputs`` reads each player post once. It folds the post's
features into per-slot, per-label counts, which are all that training
needs, and keeps the features only of the posts that have an empty
fillable cell, the only posts filling reads. So memory grows with the
vocabulary and the posts left to fill, not with the text.

Name and inventory have no useful closed label set. ``in_combat`` and
``action`` need no model: the combat spans and the turn's own rolls
decide them on every turn.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .icooc import IcOocModel, featurize, fit_from_counts
from .records import AnnotatedCampaign

FILLABLE_SLOTS = ("character_class", "race", "pronouns")


@dataclass(frozen=True)
class FillInputs:
    """What training and filling read of a corpus, from ``fill_inputs``.

    ``pair_counts[slot][label]`` and ``doc_counts[slot][label]`` are the
    ``fit_from_counts`` counts of the player turns whose ``slot`` holds
    the heuristic value ``label``. ``pending[c][i]`` holds the features
    of post ``i`` of campaign ``c`` (by position in the corpus) when that
    post is a player's and leaves a fillable slot empty: ``{}`` for a
    blank post, which is never featurized.
    """

    pair_counts: dict[str, dict[str, Counter[tuple[str, int]]]]
    doc_counts: dict[str, Counter[str]]
    pending: dict[int, dict[int, dict[str, int]]]


def fill_inputs(annotated: Sequence[AnnotatedCampaign]) -> FillInputs:
    """Featurize each non-blank player post once: fold its features into
    the counts of the slots its state holds a value for, and keep them
    only if it leaves a fillable slot empty. The DM's posts are skipped."""
    pair_counts = {slot: defaultdict(Counter) for slot in FILLABLE_SLOTS}
    doc_counts: dict[str, Counter[str]] = {slot: Counter() for slot in FILLABLE_SLOTS}
    pending: dict[int, dict[int, dict[str, int]]] = {}
    for c, ac in enumerate(annotated):
        for i, (post, state) in enumerate(zip(ac.campaign.posts, ac.turn_states)):
            if ac.profiles[post.author_id].is_dm:
                continue
            text = post.text()
            features = featurize(text) if text.strip() else {}
            empty = False
            for slot in FILLABLE_SLOTS:
                value = getattr(state, slot)
                if value is None:
                    empty = True
                else:
                    pair_counts[slot][value].update(features.items())
                    doc_counts[slot][value] += 1
            if empty:
                pending.setdefault(c, {})[i] = features
    return FillInputs(pair_counts, doc_counts, pending)


def train_slot_models(inputs: FillInputs) -> dict[str, IcOocModel]:
    """Train each fillable slot on its heuristic-covered player turns.

    ``inputs`` comes from ``fill_inputs``. A slot with fewer than two
    observed labels gets no model.
    """
    models: dict[str, IcOocModel] = {}
    for slot, doc_counts in inputs.doc_counts.items():
        labels = tuple(sorted(doc_counts))
        if len(labels) >= 2:
            models[slot] = fit_from_counts(
                inputs.pair_counts[slot], doc_counts, labels, smoothing=1.0
            )
    return models


def predict_slot(
    model: IcOocModel, features: dict[str, int]
) -> tuple[str, float]:
    """(argmax label, posterior of that label)."""
    posteriors = model.posteriors(features)
    label = max(model.labels, key=lambda lab: posteriors[lab])
    return label, posteriors[label]


def fill_missing(
    annotated: Sequence[AnnotatedCampaign],
    models: Mapping[str, IcOocModel],
    inputs: FillInputs,
    min_score: float = 0.5,
) -> list[AnnotatedCampaign]:
    """Fill the empty slots of player turns with model labels scoring at
    least min_score.

    Only the posts ``inputs.pending`` holds are read; ``inputs`` comes
    from ``fill_inputs(annotated)``. A campaign with a cell filled comes
    back with those cells, and only those, as its ``fills``; one with
    none is returned as it is. The turn states are never touched, so a
    heuristic value and the DM's turns keep their own cells.
    """
    filled: list[AnnotatedCampaign] = []
    for c, ac in enumerate(annotated):
        fills: dict[int, dict[str, str]] = {}
        for i, features in inputs.pending.get(c, {}).items():
            for slot, model in models.items():
                if getattr(ac.turn_states[i], slot) is not None:
                    continue
                label, score = predict_slot(model, features)
                if score >= min_score:
                    fills.setdefault(i, {})[slot] = label
        filled.append(replace(ac, fills=fills) if fills else ac)
    return filled
