"""The per-campaign JSONL record format read by serialize, eval-gst and synth.

An annotated or gold record carries the campaign's posts, one turn state
per post and, under ``turn_slots``, each turn's slot view: one
``{"value", "source"}`` cell per name in ``SLOT_KEYS``. This module reads
and writes that format without any of the annotation code, so the
commands that only consume records load none of it.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from .errors import FormatError
from .models import SLOT_KEYS, Action, Campaign, GoldAnnotations, TurnState
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
    """Per-turn slot values from an annotated or gold JSONL record.

    ``turn_slots`` must be a list of objects whose cells are objects with a
    string or null ``value``; anything else raises FormatError.
    """
    try:
        turn_slots = record["turn_slots"]
    except KeyError as exc:
        raise FormatError("record carries no turn_slots") from exc
    if not isinstance(turn_slots, list):
        raise FormatError("turn_slots: must be a list")
    rows = []
    for index, slots in enumerate(turn_slots):
        if not isinstance(slots, dict):
            raise FormatError(f"turn_slots[{index}]: must be an object")
        row = {}
        for key, cell in slots.items():
            if not (
                isinstance(cell, dict)
                and "value" in cell
                and isinstance(cell["value"], (str, type(None)))
            ):
                raise FormatError(
                    f"turn_slots[{index}].{key}: must be an object with a"
                    " string or null value"
                )
            row[key] = cell["value"]
        rows.append(row)
    return rows


def turns_from_record(
    record: Mapping[str, Any],
) -> tuple[str, list[tuple[str, TurnState]]]:
    """(campaign_id, [(turn text, state), ...]) from an annotated record.

    A missing or mistyped field, or a turn state whose player is not its
    post's author, raises FormatError naming it.
    """
    try:
        campaign = campaign_from_record(
            {"campaign_id": record["campaign_id"], "posts": record["posts"]}
        )
        raw_states = record["turn_states"]
    except KeyError as exc:
        raise FormatError(f"annotated record missing field {exc}") from exc
    if not isinstance(raw_states, list):
        raise FormatError("turn_states: must be a list")
    if len(raw_states) != len(campaign.posts):
        raise FormatError("turn_states do not align with posts")
    turns = []
    for index, (post, raw) in enumerate(zip(campaign.posts, raw_states)):
        try:
            state = TurnState.from_dict(raw)
        except ValueError as exc:
            raise FormatError(f"turn_states[{index}]: {exc}") from exc
        if state.player_id != post.author_id:
            raise FormatError(
                f"turn_states[{index}]: player_id {state.player_id!r} is not"
                f" the author of post {index}, {post.author_id!r}"
            )
        turns.append((" ".join(post.paragraphs), state))
    return campaign.campaign_id, turns
