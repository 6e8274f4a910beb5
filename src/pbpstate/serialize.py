"""Next-utterance fine-tuning examples with control-feature conditioning.

Each example pairs a sliding context window (up to seven preceding turns
by default) with the following turn as the target. The four variants
differ only in where per-turn state blocks are attached:

    none  - plain text everywhere
    all   - state blocks on every context turn and on the target
    prev  - state blocks on context turns only
    curr  - a state block on the target only

Output is deterministic byte-for-byte: identical inputs yield identical
files, so fixtures can be golden-tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable, Sequence

from .errors import ConfigError
from .models import DUNGEON_MASTER, Action, ActionKind, ControlVariant, TurnState
from .transcripts import dump_json_line, write_lines


_ABSENT = "N/A"


def _render_action(action: Action) -> str:
    if action.kind is ActionKind.ATTACK:
        return "Attack"
    if action.kind is ActionKind.DAMAGE_OR_HEAL:
        return "Damage"
    if action.kind is ActionKind.SKILL_CHECK:
        return f"{action.skill.title()} Check"
    return "Check"


def _yes_no(flag: bool) -> str:
    return "Yes" if flag else "No"


def render_turn_block(state: TurnState, text: str) -> str:
    """The fixed-order control-feature block for one turn.

    Field order and value conventions follow the training-data layout:
    absent values render as N/A, booleans as Yes/No, and multi-item fields
    comma-joined. The DM renders with Character and Class "Dungeon Master".
    """
    if state.character_name is not None:
        character = state.character_name
    elif state.character_class == DUNGEON_MASTER:
        character = DUNGEON_MASTER
    else:
        character = _ABSENT

    if state.character_class is None:
        rendered_class = _ABSENT
    elif state.character_class == DUNGEON_MASTER:
        rendered_class = DUNGEON_MASTER
    else:
        rendered_class = state.character_class.title()

    inventory = (
        ", ".join(item.title() for item in sorted(state.inventory))
        if state.inventory
        else _ABSENT
    )
    actions = (
        ", ".join(_render_action(a) for a in state.actions)
        if state.actions
        else _ABSENT
    )
    lines = (
        f"Text: {text}",
        f"Player ID: {state.player_id}",
        f"Character: {character}",
        f"Race: {state.race.title() if state.race else _ABSENT}",
        f"Class: {rendered_class}",
        f"Pronouns: {state.pronouns if state.pronouns else _ABSENT}",
        f"Inventory: {inventory}",
        f"In combat?: {_yes_no(state.in_combat)}",
        f"In character?: {_yes_no(state.in_character)}",
        f"Action: {actions}",
    )
    return "\n".join(lines)


@dataclass(frozen=True)
class TurnEntry:
    """One turn as it appears in examples, with or without its state.

    ``build_examples`` makes one entry per turn and role and shares it
    across every example that holds the turn, so its block is rendered
    and its JSON encoded at most once.
    """

    index: int
    text: str
    state: TurnState | None

    @cached_property
    def rendered(self) -> str:
        if self.state is None:
            return f"Text: {self.text}"
        return render_turn_block(self.state, self.text)

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "text": self.text,
            "state": self.state.to_dict() if self.state is not None else None,
            "rendered": self.rendered,
        }

    @cached_property
    def json(self) -> str:
        return dump_json_line(self.to_dict())


@dataclass(frozen=True)
class FinetuneExample:
    campaign_id: str
    target_index: int
    variant: ControlVariant
    context: tuple[TurnEntry, ...]
    target: TurnEntry

    def json_line(self) -> str:
        """The example as one canonical JSON line, without the newline.

        An object of campaign_id, target_index, variant, context (a list
        of turn objects) and target, spliced from the entries' own JSON.
        """
        head = dump_json_line(
            {
                "campaign_id": self.campaign_id,
                "target_index": self.target_index,
                "variant": self.variant.value,
            }
        )
        context = ",".join(entry.json for entry in self.context)
        return f'{head[:-1]},"context":[{context}],"target":{self.target.json}}}'


def build_examples(
    campaign_id: str,
    turns: Sequence[tuple[str, TurnState]],
    variant: ControlVariant,
    window: int = 7,
) -> list[FinetuneExample]:
    """One example per target turn index >= 1, sliding by one.

    Early targets use however many turns exist instead of being skipped.
    Examples share their turns' entries.
    """
    if window < 1:
        raise ConfigError("window: must be positive")

    def entries(with_state: bool) -> list[TurnEntry]:
        return [
            TurnEntry(index=i, text=text, state=state if with_state else None)
            for i, (text, state) in enumerate(turns)
        ]

    context_states = variant in (ControlVariant.ALL_CTRL, ControlVariant.PREV_CTRL)
    target_states = variant in (ControlVariant.ALL_CTRL, ControlVariant.CURR_CTRL)
    context_entries = entries(context_states)
    target_entries = (
        context_entries if target_states == context_states else entries(target_states)
    )
    return [
        FinetuneExample(
            campaign_id=campaign_id,
            target_index=target_index,
            variant=variant,
            context=tuple(context_entries[max(0, target_index - window) : target_index]),
            target=target_entries[target_index],
        )
        for target_index in range(1, len(turns))
    ]


def write_examples(
    path: str | Path, examples: Iterable[FinetuneExample]
) -> int:
    """Write one JSON line per example, all or nothing; returns the count."""
    return write_lines(path, (example.json_line() for example in examples))
