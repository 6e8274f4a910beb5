"""End-to-end heuristic annotation of campaigns.

Couples the per-player property heuristics, the combat state machine, roll
classification, and IC/OOC labeling into one annotated record per campaign,
including the per-turn slot view consumed by the fill models and the
evaluation tools. The record format itself, which the downstream commands
read without loading any of this, is in ``pbpstate.records``.

Every slot row is the turn state's own view: a character slot holds a
value on every turn whose author earned a profile value, ``in_combat``
comes from the combat spans on every turn, and ``action`` is empty on a
turn without a roll. Only the slots in ``FILLABLE_SLOTS`` (class, race,
pronouns) are left for the slot-fill models, where no profile value was
earned. ``annotate_corpus`` always trains and applies those models, and
each cell names its source: ``HEURISTIC`` for the turn state's own value,
``MODEL`` for a fill, ``None`` for an empty cell. The heuristic-only view
is the cells whose source is ``HEURISTIC``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Sequence

from .characters import build_profiles, post_facts
from .combat import annotate_turn_actions, detect_combat_spans, extract_monsters
from .errors import ConfigError
from .gazetteers import Gazetteers
from .icooc import IC, IcOocModel, label_turn, rule_based_turn_label
from .models import Campaign, CharacterProfile, CombatSpan, TurnState
from .models import profiles_and_spans
from .records import SLOT_KEYS  # re-exported: the keys of every slot row
from .records import slot_rows_from_record, state_slot_values, turns_from_record

FILLABLE_SLOTS = ("character_class", "race", "pronouns")

HEURISTIC = "heuristic"
MODEL = "model"

SlotValue = tuple[str | None, str | None]


@dataclass(frozen=True)
class AnnotatedCampaign:
    campaign: Campaign
    profiles: dict[str, CharacterProfile]
    combat_spans: tuple[CombatSpan, ...]
    turn_states: tuple[TurnState, ...]
    slot_values: tuple[dict[str, SlotValue], ...]
    coverage: float

    def with_slot_values(
        self, slot_values: Sequence[Mapping[str, SlotValue]]
    ) -> "AnnotatedCampaign":
        return replace(self, slot_values=tuple(dict(sv) for sv in slot_values))


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
    bare_spans = detect_combat_spans(campaign, gazetteers, gap_turns)
    spans = tuple(
        CombatSpan(
            start_index=s.start_index,
            end_index=s.end_index,
            monsters=tuple(extract_monsters(campaign, s, gazetteers)),
        )
        for s in bare_spans
    )
    actions_per_post = annotate_turn_actions(campaign, gazetteers)

    states: list[TurnState] = []
    slot_values: list[dict[str, SlotValue]] = []
    covered_posts = 0
    for post, facts_of_post, actions in zip(campaign.posts, facts, actions_per_post):
        profile = profiles[post.author_id]
        in_combat = any(s.contains(post.index) for s in spans)
        if icooc_model is None:
            turn_label = rule_based_turn_label(post)
        else:
            _, turn_label = label_turn(icooc_model, post)
        state = TurnState(
            player_id=post.author_id,
            character_name=profile.name,
            character_class=profile.character_class,
            race=profile.race,
            pronouns=profile.pronouns,
            inventory=profile.inventory,
            in_combat=in_combat,
            in_character=turn_label == IC,
            actions=tuple(actions),
        )
        states.append(state)

        slot_values.append(
            {
                key: (value, HEURISTIC) if value is not None else (None, None)
                for key, value in state_slot_values(state).items()
            }
        )

        if post.rolls or facts_of_post.cues():
            covered_posts += 1

    return AnnotatedCampaign(
        campaign=campaign,
        profiles=profiles,
        combat_spans=spans,
        turn_states=tuple(states),
        slot_values=tuple(slot_values),
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
    only when its label's posterior is at least 0.5, and the cell's source
    says which cells it filled. Each post is featurized once, and the
    features live only until filling ends.
    """
    from .slots import fill_missing, post_features, train_slot_models

    # Checked here too, so that an empty corpus does not hide a bad value.
    if gap_turns < 1:
        raise ConfigError("gap_turns must be at least 1")
    annotated = [
        annotate_campaign(campaign, gazetteers, gap_turns, icooc_model)
        for campaign in campaigns
    ]
    features = post_features(annotated)
    models = train_slot_models(annotated, features)
    if models:
        annotated = fill_missing(annotated, models, features)
    return annotated


def annotated_to_record(annotated: AnnotatedCampaign) -> dict[str, Any]:
    record = annotated.campaign.to_dict(include_rolls=True)
    for post_dict, state in zip(record["posts"], annotated.turn_states):
        post_dict["actions"] = [a.to_dict() for a in state.actions]
    record["coverage"] = annotated.coverage
    record["profiles"] = {
        pid: p.to_dict() for pid, p in sorted(annotated.profiles.items())
    }
    record["combat_spans"] = [s.to_dict() for s in annotated.combat_spans]
    record["turn_states"] = [t.to_dict() for t in annotated.turn_states]
    record["turn_slots"] = [
        {
            key: {"value": value, "source": source}
            for key, (value, source) in sorted(slots.items())
        }
        for slots in annotated.slot_values
    ]
    return record


def validate_record(record: Mapping[str, Any]) -> None:
    """Decode every field of an annotated record and check its turn states
    against its posts and profiles; a bad field raises naming it. Run by
    ``annotate`` on each record before it is written."""
    profiles, _ = profiles_and_spans(record)
    turns_from_record(record, profiles)
    slot_rows_from_record(record)
