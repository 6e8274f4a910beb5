"""End-to-end heuristic annotation of campaigns.

Couples the per-player property heuristics, the combat state machine, roll
classification, IC/OOC labeling and slot fill into one ``AnnotatedCampaign``
per campaign: the transcript's posts, one turn state per post holding its
actions and their rolls, whose character fields are its author's profile
(``TurnState.of``), and the fills. ``pbpstate.records`` writes and checks
the annotated record; the commands that read it load none of this.
"""

from __future__ import annotations

from typing import Iterable

from .characters import build_profiles, post_facts
from .combat import annotate_turn_actions, detect_combat_spans, extract_monsters
from .errors import ConfigError
from .gazetteers import Gazetteers
from .icooc import IC, IcOocModel, label_turn, rule_based_turn_label
from .models import Campaign, CombatSpan, TurnState
from .records import AnnotatedCampaign
from .slots import fill_inputs, fill_missing, train_slot_models

# Re-exported only for the benchmark under perfbench/, which reads these
# names here; the program and its tests import them from records and slots.
from .records import HEURISTIC, MODEL, SLOT_KEYS
from .records import annotated_to_record, turns_from_record, validate_record
from .slots import FILLABLE_SLOTS


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
    facts = [post_facts(p.paragraphs, gazetteers) for p in campaign.posts]
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
    the campaign's ``fills``; ``slots.fill_inputs`` featurizes each
    player post once.
    """
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
