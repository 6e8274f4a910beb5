"""The annotated and gold records: the per-campaign JSONL format that
``annotate`` and ``synth --gold`` write and ``serialize``, ``eval-gst``
and ``train-icooc`` read.

This module owns both records: the annotated record as an object
(``AnnotatedCampaign``), the writers and readers, each kind's keys and
the cells' sources. It loads none of the annotation code, so the
commands that only read records load none of it. Its decoders are
listed, and the one key rule is stated, in ``pbpstate.models``.

A turn's slot view is its state's ``state_slot_values``; a gold record
holds only the states. An annotated record also writes the view under
``turn_slots``, one ``{"value", "source"}`` cell per name in
``SLOT_KEYS``: a character slot holds a value on every turn whose author
earned a profile value, ``in_combat`` comes from the combat spans, and
``action`` is empty on a turn without a roll. Only the slots in
``slots.FILLABLE_SLOTS`` (class, race, pronouns) are left for the
slot-fill models, where no profile value was earned; ``annotate`` keeps
what they set apart as the campaign's ``fills``. Each cell names its
source: ``HEURISTIC`` for the state's own value, ``MODEL`` for a fill
and ``None`` for an empty cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .models import SLOT_KEYS, Campaign, CharacterProfile, CombatSpan
from .models import GoldAnnotations, TurnState, check_turn_states, profiles_and_spans
from .models import _OPTIONAL_STR, _at, _items, _keys, _object, _typed
from .transcripts import TRANSCRIPT_KEYS, campaign_from_record

# SLOT_KEYS, the slot names of this format, is defined beside TurnState
# so that the CLI's parser can list the slots without loading this module.

HEURISTIC = "heuristic"
MODEL = "model"

ANNOTATED_KEYS = TRANSCRIPT_KEYS | {
    "coverage", "profiles", "combat_spans", "turn_states", "turn_slots"
}
GOLD_KEYS = _keys(GoldAnnotations) | {"campaign_id"}
_SLOT_ROW_KEYS = frozenset(SLOT_KEYS)
_SLOT_CELL_KEYS = frozenset({"value", "source"})
SlotRows = tuple[dict[str, str | None], ...]


@dataclass(frozen=True)
class AnnotatedCampaign:
    campaign: Campaign
    profiles: dict[str, CharacterProfile]
    combat_spans: tuple[CombatSpan, ...]
    turn_states: tuple[TurnState, ...]
    coverage: float
    # post index -> {slot: label} for the cells slots.fill_missing set
    fills: Mapping[int, Mapping[str, str]] = field(default_factory=dict)


def state_slot_values(state: TurnState) -> dict[str, str | None]:
    """Flatten a TurnState into the per-slot comparison view; ``action``
    is the turn's action kinds in roll order, or None."""
    return {
        "name": state.character_name,
        "character_class": state.character_class,
        "race": state.race,
        "pronouns": state.pronouns,
        "in_combat": "true" if state.in_combat else "false",
        "action": ",".join(a.kind.value for a in state.actions) or None,
    }


def _slot_cells(
    state: TurnState, filled: Mapping[str, str]
) -> dict[str, dict[str, str | None]]:
    """One turn's ``turn_slots`` row: each value of the state under
    ``HEURISTIC`` (None when empty), but a ``filled`` slot's label under
    ``MODEL``."""
    cells = {
        key: {"value": value, "source": None if value is None else HEURISTIC}
        for key, value in sorted(state_slot_values(state).items())
    }
    for key, label in filled.items():
        cells[key] = {"value": label, "source": MODEL}
    return cells


def annotated_to_record(annotated: AnnotatedCampaign) -> dict[str, Any]:
    record = annotated.campaign.to_dict()
    record["coverage"] = annotated.coverage
    record["profiles"] = {
        pid: p.to_dict() for pid, p in sorted(annotated.profiles.items())
    }
    record["combat_spans"] = [s.to_dict() for s in annotated.combat_spans]
    record["turn_states"] = [t.to_dict() for t in annotated.turn_states]
    record["turn_slots"] = [
        _slot_cells(state, annotated.fills.get(index, {}))
        for index, state in enumerate(annotated.turn_states)
    ]
    return record


def gold_to_record(campaign: Campaign, gold: GoldAnnotations) -> dict[str, Any]:
    """A gold record: the campaign's id and its gold annotations."""
    return {"campaign_id": campaign.campaign_id, **gold.to_dict()}


def gold_from_record(record: Mapping[str, Any]) -> tuple[str, GoldAnnotations]:
    """(campaign_id, gold) from a gold record; a missing or mistyped field
    and a key outside ``GOLD_KEYS`` raise naming it. The gold is not
    checked against its campaign's posts."""
    record = _object(record, "a gold record", GOLD_KEYS)
    return _typed(record, "campaign_id", str), GoldAnnotations.from_dict(record)


def gold_slot_rows(record: Mapping[str, Any]) -> tuple[str, SlotRows]:
    """(campaign_id, each gold state's ``state_slot_values``) from a gold
    record, read by ``gold_from_record``."""
    campaign_id, gold = gold_from_record(record)
    return campaign_id, tuple(map(state_slot_values, gold.turn_states))


def slot_rows_from_record(record: Mapping[str, Any]) -> tuple[str, SlotRows]:
    """(campaign_id, per-turn slot values) from the ``turn_slots`` of an
    annotated record or an outside predictor's ``{campaign_id,
    turn_slots}``; a key outside ``ANNOTATED_KEYS`` raises naming it.

    Each cell, keyed by a name in ``SLOT_KEYS``, is a ``{"value",
    "source"}`` object whose ``value`` and, when present, ``source`` are
    strings or null; anything else raises ValueError naming the turn and
    the slot, as ``turn_slots[i]: slot: ...``. A slot without a cell is
    left out of its row, which the evaluator reads as null.
    """
    _object(record, "an annotated record", ANNOTATED_KEYS)
    campaign_id = _typed(record, "campaign_id", str)
    return campaign_id, _items(record, "turn_slots", _slot_row)


def _slot_row(slots: Any) -> dict[str, str | None]:
    slots = _object(slots, "a slot row", _SLOT_ROW_KEYS, named=False)
    return {key: _at(key, _slot_value, cell) for key, cell in slots.items()}


def _slot_value(cell: Any) -> str | None:
    cell = _object(cell, "a slot cell", _SLOT_CELL_KEYS, named=False)
    # A builtin test per cell; the checker runs only to name a bad source.
    if not isinstance(cell.get("source"), _OPTIONAL_STR):
        _typed(cell, "source", _OPTIONAL_STR)
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


def validate_record(record: Mapping[str, Any]) -> None:
    """Decode every field of an annotated record, with the checks that
    ``serialize`` makes (``turns_from_record``) and those of its slot
    view; a bad field raises naming it. Run by ``annotate`` on each
    record before it is written."""
    turns_from_record(record)
    slot_rows_from_record(record)
