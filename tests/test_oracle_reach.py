"""The synthetic oracle's reach: each row breaks one heuristic rule and
names the ``eval-gst`` slots that must then score below the unbroken run.

A row names its mutation, applied with ``monkeypatch`` to one rule, a
small corpus and the slots that drop on it. Rows enter as the oracle
learns to see a mutation; the ones it misses today (a possessive kept on
a name, race by mention count only, no sentence-start rule, two-word
names split, ``gap_turns - 1``) have no row yet.
"""

from collections import Counter
from functools import cache

import pytest

from pbpstate import characters, pipeline
from pbpstate.evaluation import slot_accuracy
from pbpstate.models import SLOT_KEYS
from pbpstate.records import annotated_to_record, slot_rows_from_record
from pbpstate.records import state_slot_values
from pbpstate.synth import SynthConfig, generate_corpus

# The benchmark's corpus shapes, at a third of their campaigns.
DENSE = SynthConfig(seed=43, num_campaigns=4, turns_per_campaign=200)
SPARSE = SynthConfig(seed=43, num_campaigns=16, turns_per_campaign=50, signal_rate=0.3)

_detect_combat_spans = pipeline.detect_combat_spans
_annotate_turn_actions = pipeline.annotate_turn_actions
_most_mentioned = characters._most_mentioned


def _one_more_gap_turn(campaign, facts, gap_turns):
    return _detect_combat_spans(campaign, facts, gap_turns + 1)


def _without_the_last_action(campaign, facts):
    return [actions[:-1] for actions in _annotate_turn_actions(campaign, facts)]


def _race_from_the_last_post_first(facts):
    if facts and facts[-1].races:
        return facts[-1].races[0]
    return _most_mentioned(facts, lambda f: f.races)


def _ties_to_the_last_candidate(facts, keys):
    tally = Counter(key for f in facts for key in keys(f))
    return max(reversed(tally), key=tally.__getitem__, default=None)


ROWS = [
    pytest.param(
        pipeline, "detect_combat_spans", _one_more_gap_turn, DENSE, ["in_combat"],
        id="gap-turns-plus-one",
    ),
    pytest.param(
        pipeline, "annotate_turn_actions", _without_the_last_action, DENSE, ["action"],
        id="last-action-dropped",
    ),
    pytest.param(
        characters, "_race", _race_from_the_last_post_first, SPARSE, ["race"],
        id="race-from-the-last-post-first",
    ),
    pytest.param(
        characters, "_most_mentioned", _ties_to_the_last_candidate, SPARSE,
        ["name", "character_class", "race"],
        id="ties-to-the-last-candidate",
    ),
]


@cache
def _pairs(config):
    return generate_corpus(config).pairs


def _slot_scores(config, gaz):
    """Per-slot accuracy of ``annotate`` on ``config``'s corpus, as
    ``eval-gst`` scores its records against gold."""
    pairs = _pairs(config)
    annotated = pipeline.annotate_corpus(
        (campaign for campaign, _ in pairs), gaz, gap_turns=config.gap_turns
    )
    turns = (
        turn
        for ac, (_, gold) in zip(annotated, pairs)
        for turn in zip(
            slot_rows_from_record(annotated_to_record(ac))[1],
            map(state_slot_values, gold.turn_states),
        )
    )
    return slot_accuracy(turns, SLOT_KEYS).per_slot


_unbroken = cache(_slot_scores)


@pytest.mark.parametrize("module, rule, mutation, config, slots", ROWS)
def test_the_oracle_sees_a_broken_rule(
    monkeypatch, gaz, module, rule, mutation, config, slots
):
    before = _unbroken(config, gaz)
    monkeypatch.setattr(module, rule, mutation)
    after = _slot_scores(config, gaz)
    assert all(after[slot] < before[slot] for slot in slots), (before, after)
