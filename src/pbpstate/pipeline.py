"""End-to-end heuristic annotation of campaigns.

Couples the per-player property heuristics, the combat state machine, roll
classification, and IC/OOC labeling into one annotated record per campaign.
The record's posts are the transcript's own; the turn states are its one
per-turn record, holding each turn's actions and their rolls, and the slot
view the evaluation tools read is written from them. A turn state's
character fields are its author's profile (``TurnState.of``). The record
format itself, which the downstream commands read without loading any of
this, is in ``pbpstate.records``.

A turn's slot view is its state's own: a character slot holds a value on
every turn whose author earned a profile value, ``in_combat`` comes from
the combat spans on every turn, and ``action`` is empty on a turn without
a roll. Only the slots in ``FILLABLE_SLOTS`` (class, race, pronouns) are
left for the slot-fill models, where no profile value was earned;
``annotate_corpus`` always applies them, and keeps what they set apart,
as the campaign's ``fills``. Each cell names its source: ``HEURISTIC`` for
the state's own value, ``MODEL`` for a fill, ``None`` for an empty cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .characters import build_profiles, post_facts
from .combat import annotate_turn_actions, detect_combat_spans, extract_monsters
from .errors import ConfigError
from .gazetteers import Gazetteers
from .icooc import IC, IcOocModel, label_turn, rule_based_turn_label
from .models import Campaign, CharacterProfile, CombatSpan, TurnState
from .records import SLOT_KEYS  # re-exported: the keys of every slot row
from .records import slot_rows_from_record, state_slot_values, turns_from_record

FILLABLE_SLOTS = ("character_class", "race", "pronouns")

HEURISTIC = "heuristic"
MODEL = "model"


@dataclass(frozen=True)
class AnnotatedCampaign:
    campaign: Campaign
    profiles: dict[str, CharacterProfile]
    combat_spans: tuple[CombatSpan, ...]
    turn_states: tuple[TurnState, ...]
    coverage: float
    # post index -> {slot: label} for the cells slots.fill_missing set
    fills: Mapping[int, Mapping[str, str]] = field(default_factory=dict)


def annotate_campaign(
    campaign: Campaign,
    gazetteers: Gazetteers,
    gap_turns: int = 3,
    icooc_model: IcOocModel | None = None,
) -> AnnotatedCampaign:
    """Run every heuristic over one campaign.

    Without a trained IC/OOC model the turn flavor falls back to the dice
    rule: paragraphs containing roll notation count as OOC. Each post is
    read once; a post counts toward coverage when it holds a roll or any
    character cue.
    """
    facts = [post_facts(p.paragraphs, gazetteers, p.index) for p in campaign.posts]
    profiles = build_profiles(campaign, gazetteers, facts=facts)
    bare_spans = detect_combat_spans(campaign, facts, gap_turns)
    spans = tuple(
        CombatSpan(
            start_index=s.start_index,
            end_index=s.end_index,
            monsters=tuple(extract_monsters(campaign, s, facts)),
        )
        for s in bare_spans
    )
    actions_per_post = annotate_turn_actions(campaign, facts)

    states: list[TurnState] = []
    covered_posts = 0
    for post, facts_of_post, actions in zip(campaign.posts, facts, actions_per_post):
        if icooc_model is None:
            turn_label = rule_based_turn_label(post)
        else:
            _, turn_label = label_turn(icooc_model, post)
        states.append(
            TurnState.of(
                profiles[post.author_id],
                in_combat=any(s.contains(post.index) for s in spans),
                in_character=turn_label == IC,
                actions=actions,
            )
        )
        if post.rolls or facts_of_post.cues():
            covered_posts += 1

    return AnnotatedCampaign(
        campaign=campaign,
        profiles=profiles,
        combat_spans=spans,
        turn_states=tuple(states),
        coverage=covered_posts / len(campaign.posts),
    )


def annotate_corpus(
    campaigns: Iterable[Campaign],
    gazetteers: Gazetteers,
    gap_turns: int = 3,
    icooc_model: IcOocModel | None = None,
) -> list[AnnotatedCampaign]:
    """Annotate many campaigns in input order, then train and apply the
    slot-fill models.

    Fill models are trained on the corpus's own heuristic-covered turns,
    mirroring how the fallback classifiers are meant to be bootstrapped;
    slots with a single observed label get no model. A model fills a cell
    only when its label's posterior is at least 0.5; the filled cells are
    the campaign's ``fills``. Each player post is featurized once;
    training keeps only per-label counts of the features, and only the
    posts with an empty fillable cell keep theirs until filling ends.
    """
    from .slots import fill_inputs, fill_missing, train_slot_models

    # Checked here too, so that an empty corpus does not hide a bad value.
    if gap_turns < 1:
        raise ConfigError("gap_turns must be at least 1")
    annotated = [
        annotate_campaign(campaign, gazetteers, gap_turns, icooc_model)
        for campaign in campaigns
    ]
    inputs = fill_inputs(annotated)
    models = train_slot_models(inputs)
    if models:
        annotated = fill_missing(annotated, models, inputs)
    return annotated


def annotated_to_record(annotated: AnnotatedCampaign) -> dict[str, Any]:
    record = annotated.campaign.to_dict()
    record["coverage"] = annotated.coverage
    record["profiles"] = {
        pid: p.to_dict() for pid, p in sorted(annotated.profiles.items())
    }
    record["combat_spans"] = [s.to_dict() for s in annotated.combat_spans]
    record["turn_states"] = [t.to_dict() for t in annotated.turn_states]
    record["turn_slots"] = []
    for index, state in enumerate(annotated.turn_states):
        filled = annotated.fills.get(index, {})
        cells = {}
        for key, value in sorted(state_slot_values(state).items()):
            source = None if value is None else HEURISTIC
            if key in filled:
                value, source = filled[key], MODEL
            cells[key] = {"value": value, "source": source}
        record["turn_slots"].append(cells)
    return record


def validate_record(record: Mapping[str, Any]) -> None:
    """Decode every field of an annotated record, with the checks that
    ``serialize`` makes (``turns_from_record``) and those of its slot
    view; a bad field raises naming it. Run by ``annotate`` on each
    record before it is written."""
    turns_from_record(record)
    slot_rows_from_record(record)
