"""Fallback classifiers for the profile slots the heuristics leave unvalued.

One multinomial model per slot in ``FILLABLE_SLOTS`` (class, race,
pronouns), sharing the IC/OOC featurizer, trained on the turns where the
heuristic produced a value and using only the current post's text as
input. Filling never overwrites a heuristic value: the models only
propose labels for uncovered turns, and only when the posterior clears
the confidence threshold. The DM's turns are neither learned from nor
filled: the DM plays no character, so these slots stay empty there.

Name and inventory have no useful closed label set. ``in_combat`` and
``action`` need no model: the combat spans and the turn's own rolls
decide them on every turn.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .icooc import IcOocModel, fit_from_features, featurize
from .pipeline import FILLABLE_SLOTS, HEURISTIC, MODEL, AnnotatedCampaign, SlotValue


def post_features(
    annotated: Sequence[AnnotatedCampaign],
) -> list[list[dict[str, int]]]:
    """Per campaign, the featurized text of each post: {} for a blank post
    and for the DM's posts, which training and filling skip.

    Computed once and shared by training and filling.
    """
    return [
        [
            {}
            if ac.profiles[post.author_id].is_dm or not (text := post.text()).strip()
            else featurize(text)
            for post in ac.campaign.posts
        ]
        for ac in annotated
    ]


def train_slot_models(
    annotated: Sequence[AnnotatedCampaign],
    features: Sequence[Sequence[dict[str, int]]],
) -> dict[str, IcOocModel]:
    """Train each fillable slot on its heuristic-covered player turns.

    ``features`` comes from ``post_features(annotated)``. A slot with fewer
    than two observed labels gets no model.
    """
    training: dict[str, list[tuple[dict[str, int], str]]] = {
        s: [] for s in FILLABLE_SLOTS
    }
    for ac, campaign_features in zip(annotated, features):
        for feats, slot_row, post in zip(
            campaign_features, ac.slot_values, ac.campaign.posts
        ):
            if ac.profiles[post.author_id].is_dm:
                continue
            for slot in FILLABLE_SLOTS:
                value, source = slot_row.get(slot, (None, None))
                if source == HEURISTIC and value is not None:
                    training[slot].append((feats, value))

    models: dict[str, IcOocModel] = {}
    for slot, featurized in training.items():
        labels = tuple(sorted({label for _, label in featurized}))
        if len(labels) >= 2:
            models[slot] = fit_from_features(featurized, labels=labels, smoothing=1.0)
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
    features: Sequence[Sequence[dict[str, int]]],
    min_score: float = 0.5,
) -> list[AnnotatedCampaign]:
    """Fill uncovered slots of player turns with model labels scoring at
    least min_score.

    ``features`` comes from ``post_features(annotated)``. Heuristic values
    and the DM's turns are never touched; filled cells carry source "model".
    """
    filled: list[AnnotatedCampaign] = []
    for ac, campaign_features in zip(annotated, features):
        new_rows: list[dict[str, SlotValue]] = []
        for feats, slot_row, post in zip(
            campaign_features, ac.slot_values, ac.campaign.posts
        ):
            row = dict(slot_row)
            new_rows.append(row)
            if ac.profiles[post.author_id].is_dm:
                continue
            for slot, model in models.items():
                value, source = row.get(slot, (None, None))
                if source is not None or value is not None:
                    continue
                label, score = predict_slot(model, feats)
                if score >= min_score:
                    row[slot] = (label, MODEL)
        filled.append(ac.with_slot_values(new_rows))
    return filled
