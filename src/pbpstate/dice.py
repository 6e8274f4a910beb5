"""Parsing and formatting of inline dice-roll notation.

The forum notation is ``(COUNTdFACES±MOD)[RESULT]``, e.g. ``(1d20+6)[20]``.
``extract_rolls`` is the one parser. Roll tags are machine-generated, so
an expression with whitespace inside is skipped as text, not normalized:
permissive parsing would make reported character offsets ambiguous.
"""

from __future__ import annotations

import re

from .models import DiceRoll

_DICE_RE = re.compile(r"\((\d+)d(\d+)([+-]\d+)?\)\[(-?\d+)\]")

# A number in a roll tag has at most this many digits (under a billion).
# A longer one encodes an impossible die, and is never handed to ``int``.
MAX_DIGITS = 9


def format_dice_expr(roll: DiceRoll) -> str:
    """Render a roll in canonical notation, which ``extract_rolls`` reads
    back to the same roll."""
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
    Expressions with impossible dice (e.g. ``(0d6)[1]``, or a number of
    more than ``MAX_DIGITS`` digits) are skipped the same way arbitrary
    text is.
    """
    rolls: list[DiceRoll] = []
    for p_index, paragraph in enumerate(paragraphs):
        for m in _DICE_RE.finditer(paragraph):
            if any(len(g.lstrip("+-")) > MAX_DIGITS for g in m.groups("")):
                continue
            try:
                rolls.append(DiceRoll(
                    count=int(m[1]),
                    faces=int(m[2]),
                    modifier=int(m[3]) if m[3] else 0,
                    result=int(m[4]),
                    paragraph_index=p_index,
                    char_offset=m.start(),
                ))
            except ValueError:  # zero dice or fewer than two faces
                continue
    return rolls


def contains_dice_expr(text: str) -> bool:
    return _DICE_RE.search(text) is not None
