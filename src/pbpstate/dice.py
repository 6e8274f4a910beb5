"""Parsing and formatting of inline dice-roll notation.

The forum notation is ``(COUNTdFACES±MOD)[RESULT]``, e.g. ``(1d20+6)[20]``.
Roll tags are machine-generated, so whitespace inside an expression is
rejected rather than normalized; permissive parsing would make reported
character offsets ambiguous.
"""

from __future__ import annotations

import re

from .errors import GrammarError
from .models import DiceRoll

_DICE_RE = re.compile(r"\((\d+)d(\d+)([+-]\d+)?\)\[(-?\d+)\]")
_DICE_EXACT_RE = re.compile(rf"^{_DICE_RE.pattern}$")


def parse_dice_expr(text: str) -> DiceRoll:
    """Parse one dice expression, ignoring surrounding whitespace.

    Raises GrammarError when the text does not match the notation and
    ValueError when it matches but encodes an impossible die (zero dice or
    fewer than two faces).
    """
    m = _DICE_EXACT_RE.match(text.strip())
    if m is None:
        raise GrammarError(f"not a dice expression: {text!r}")
    count, faces = int(m.group(1)), int(m.group(2))
    modifier = int(m.group(3)) if m.group(3) else 0
    result = int(m.group(4))
    return DiceRoll(count=count, faces=faces, modifier=modifier, result=result)


def format_dice_expr(roll: DiceRoll) -> str:
    """Render a roll in canonical notation; parse(format(r)) == r."""
    if roll.modifier > 0:
        mod = f"+{roll.modifier}"
    elif roll.modifier < 0:
        mod = str(roll.modifier)
    else:
        mod = ""
    return f"({roll.count}d{roll.faces}{mod})[{roll.result}]"


def extract_rolls(paragraphs: list[str] | tuple[str, ...]) -> list[DiceRoll]:
    """Find every dice expression across paragraphs, in document order.

    Matches are maximal and non-overlapping; each returned roll carries the
    paragraph index and the character offset of its opening parenthesis.
    Expressions with impossible dice (e.g. ``(0d6)[1]``) are skipped the
    same way arbitrary text is.
    """
    rolls: list[DiceRoll] = []
    for p_index, paragraph in enumerate(paragraphs):
        for m in _DICE_RE.finditer(paragraph):
            count, faces = int(m.group(1)), int(m.group(2))
            if count < 1 or faces < 2:
                continue
            rolls.append(
                DiceRoll(
                    count=count,
                    faces=faces,
                    modifier=int(m.group(3)) if m.group(3) else 0,
                    result=int(m.group(4)),
                    paragraph_index=p_index,
                    char_offset=m.start(),
                )
            )
    return rolls


def contains_dice_expr(text: str) -> bool:
    return _DICE_RE.search(text) is not None
