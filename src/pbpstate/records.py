"""The per-campaign JSONL record format read by serialize, eval-gst and synth.

An annotated or gold record carries the campaign's posts, one turn state
per post and, under ``turn_slots``, each turn's slot view: one
``{"value", "source"}`` cell per name in ``SLOT_KEYS``. This module reads
and writes that format without any of the annotation code, so the
commands that only consume records load none of it. Its decoders are
listed, with every other, in ``pbpstate.models``.

The annotated and gold records' own keys are listed here, once each,
and the transcript's in ``transcripts``; the one key rule is stated in
``pbpstate.models``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from .models import SLOT_KEYS, Action, Campaign, GoldAnnotations, TurnState
from .models import check_turn_states, profiles_and_spans
from .models import _OPTIONAL_STR, _at, _items, _names, _object, _typed
from .transcripts import TRANSCRIPT_KEYS, campaign_from_record

# SLOT_KEYS, the slot names of this format, is defined beside TurnState
# so that the CLI's parser can list the slots without loading this module.

GOLD = "gold"

ANNOTATED_KEYS = TRANSCRIPT_KEYS | {
    "coverage", "profiles", "combat_spans", "turn_states", "turn_slots"
}
GOLD_KEYS = _names(GoldAnnotations) | {"campaign_id", "turn_slots"}
_SLOT_RECORD_KEYS = ANNOTATED_KEYS | GOLD_KEYS
_SLOT_ROW_KEYS = frozenset(SLOT_KEYS)
_SLOT_CELL_KEYS = frozenset({"value", "source"})


def action_slot_value(actions: Sequence[Action]) -> str | None:
    """Canonical slot value for a turn's actions: kinds in roll order."""
    if not actions:
        return None
    return ",".join(a.kind.value for a in actions)


def state_slot_values(state: TurnState) -> dict[str, str | None]:
    """Flatten a TurnState into the per-slot comparison view."""
    return {
        "name": state.character_name,
        "character_class": state.character_class,
        "race": state.race,
        "pronouns": state.pronouns,
        "in_combat": "true" if state.in_combat else "false",
        "action": action_slot_value(state.actions),
    }


def gold_to_record(campaign: Campaign, gold: GoldAnnotations) -> dict[str, Any]:
    """Gold annotations in the same slot-record shape the evaluator reads."""
    record: dict[str, Any] = {"campaign_id": campaign.campaign_id}
    record.update(gold.to_dict())
    record["turn_slots"] = [
        {
            key: {"value": value, "source": GOLD}
            for key, value in sorted(state_slot_values(state).items())
        }
        for state in gold.turn_states
    ]
    return record


def slot_rows_from_record(
    record: Mapping[str, Any],
) -> tuple[dict[str, str | None], ...]:
    """Decode the per-turn slot values of a record of any kind.

    The record may hold the keys of an annotated or a gold record, so an
    outside predictor's ``{campaign_id, turn_slots}`` is one too.
    ``turn_slots`` must be a list of objects whose cells, each keyed by a
    name in ``SLOT_KEYS``, are ``{"value", "source"}`` objects with a
    string or null ``value``; anything else raises ValueError naming the
    turn and the slot, as ``turn_slots[i]: slot: ...``. A slot without a
    cell is left out of its row, which the evaluator reads as null.
    """
    _object(record, "an annotated or gold record", _SLOT_RECORD_KEYS)
    return _items(record, "turn_slots", _slot_row)


def _slot_row(slots: Any) -> dict[str, str | None]:
    slots = _object(slots, "a slot row", _SLOT_ROW_KEYS, named=False)
    return {key: _at(key, _slot_value, cell) for key, cell in slots.items()}


def _slot_value(cell: Any) -> str | None:
    cell = _object(cell, "a slot cell", _SLOT_CELL_KEYS, named=False)
    return _typed(cell, "value", _OPTIONAL_STR)


def turns_from_record(
    record: Mapping[str, Any],
) -> tuple[str, list[tuple[str, TurnState]]]:
    """(campaign_id, [(turn text, state), ...]) from an annotated record.

    A missing or mistyped field and a key outside ``ANNOTATED_KEYS``
    raise naming it, as do overlapping ``combat_spans`` and a state that
    ``check_turn_states`` rejects against the posts and the record's own
    ``profiles``. The record's ``coverage`` and ``turn_slots`` are not
    read here.
    """
    record = _object(record, "an annotated record", ANNOTATED_KEYS)
    campaign = campaign_from_record(record)
    profiles, _ = profiles_and_spans(record)
    states = _items(record, "turn_states", TurnState.from_dict)
    check_turn_states(states, campaign.posts, profiles)
    turns = [(" ".join(post.paragraphs), s) for post, s in zip(campaign.posts, states)]
    return campaign.campaign_id, turns
