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


def _is_roll(m: re.Match[str]) -> bool:
    """Whether the ``_DICE_RE`` match ``m`` is a roll: no number of more than
    ``MAX_DIGITS`` digits, at least one die and at least two faces. The one
    roll rule, of ``extract_rolls`` and ``contains_dice_expr`` alike."""
    short = all(len(n.lstrip("+-")) <= MAX_DIGITS for n in m.groups(""))
    return short and int(m[1]) >= 1 and int(m[2]) >= 2  # ``int`` only if short


def extract_rolls(paragraphs: list[str] | tuple[str, ...]) -> list[DiceRoll]:
    """Find every dice expression across paragraphs, in document order.

    Matches are maximal and non-overlapping; each returned roll carries the
    paragraph index and the character offset of its opening parenthesis.
    Expressions with impossible dice (e.g. ``(0d6)[1]``, or a number of
    more than ``MAX_DIGITS`` digits) are skipped the same way arbitrary
    text is.
    """
    return [
        DiceRoll(int(m[1]), int(m[2]), int(m[3] or 0), int(m[4]), p_index, m.start())
        for p_index, paragraph in enumerate(paragraphs)
        for m in _DICE_RE.finditer(paragraph)
        if _is_roll(m)
    ]


def contains_dice_expr(text: str) -> bool:
    """Whether ``text`` holds a roll, by the rule of ``extract_rolls``."""
    return any(map(_is_roll, _DICE_RE.finditer(text)))
