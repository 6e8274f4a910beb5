"""The per-campaign JSONL record format read by serialize, eval-gst and synth.

An annotated or gold record carries the campaign's posts, one turn state
per post and, under ``turn_slots``, each turn's slot view: one
``{"value", "source"}`` cell per name in ``SLOT_KEYS``. This module reads
and writes that format without any of the annotation code, so the
commands that only consume records load none of it. Its decoders are
listed, with every other, in ``pbpstate.models``.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from .models import SLOT_KEYS, Action, Campaign, GoldAnnotations, TurnState
from .models import check_turn_states, profiles_and_spans
from .models import _OPTIONAL_STR, _is, _items, _typed  # the field checkers
from .transcripts import campaign_from_record

# SLOT_KEYS, the slot names of this format, is defined beside TurnState
# so that the CLI's parser can list the slots without loading this module.

GOLD = "gold"


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


def slot_rows_from_record(record: Mapping[str, Any]) -> list[dict[str, str | None]]:
    """Decode the per-turn slot values of an annotated or gold record.

    ``turn_slots`` must be a list of objects whose cells, each keyed by a
    name in ``SLOT_KEYS``, are objects with a string or null ``value``;
    anything else raises ValueError naming the turn and the slot, as
    ``turn_slots[i].slot``. A slot without a cell is left out of its row,
    which the evaluator reads as null.
    """
    rows = []
    for index, slots in enumerate(_typed(record, "turn_slots", list)):
        row: dict[str, str | None] = {}
        key = None
        try:
            for key, cell in _is(slots, dict).items():
                if key not in SLOT_KEYS:
                    raise ValueError(f"not a slot; choose from {', '.join(SLOT_KEYS)}")
                row[key] = _typed(_is(cell, dict), "value", _OPTIONAL_STR)
        except ValueError as exc:
            where = f"turn_slots[{index}]" + ("" if key is None else f".{key}")
            raise ValueError(f"{where}: {exc}") from exc
        rows.append(row)
    return rows


def turns_from_record(
    record: Mapping[str, Any],
) -> tuple[str, list[tuple[str, TurnState]]]:
    """(campaign_id, [(turn text, state), ...]) from an annotated record.

    A missing or mistyped field raises naming it, as do overlapping
    ``combat_spans`` and a state that ``check_turn_states`` rejects
    against the posts and the record's own ``profiles``.
    """
    campaign = campaign_from_record(record)
    profiles, _ = profiles_and_spans(record)
    states = _items(record, "turn_states", TurnState.from_dict)
    check_turn_states(states, campaign.posts, profiles)
    turns = [(" ".join(post.paragraphs), s) for post, s in zip(campaign.posts, states)]
    return campaign.campaign_id, turns
