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

# A number in a roll tag has at most this many digits (under a billion).
# A longer one encodes an impossible die, and is never handed to ``int``.
MAX_DIGITS = 9


def _roll(m: re.Match[str], paragraph_index: int = 0) -> DiceRoll:
    """The roll a notation match encodes; ValueError for an impossible die."""
    if any(g is not None and len(g.lstrip("+-")) > MAX_DIGITS for g in m.groups()):
        raise ValueError(f"impossible die: a number has over {MAX_DIGITS} digits")
    return DiceRoll(
        count=int(m[1]),
        faces=int(m[2]),
        modifier=int(m[3]) if m[3] else 0,
        result=int(m[4]),
        paragraph_index=paragraph_index,
        char_offset=m.start(),
    )


def parse_dice_expr(text: str) -> DiceRoll:
    """Parse one dice expression, ignoring surrounding whitespace.

    Raises GrammarError when the text does not match the notation and
    ValueError when it matches but encodes an impossible die (zero dice,
    fewer than two faces, or a number of more than ``MAX_DIGITS`` digits).
    """
    m = _DICE_EXACT_RE.match(text.strip())
    if m is None:
        raise GrammarError(f"not a dice expression: {text!r}")
    return _roll(m)


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
    Expressions with impossible dice (e.g. ``(0d6)[1]``, or a number of
    more than ``MAX_DIGITS`` digits) are skipped the same way arbitrary
    text is.
    """
    rolls: list[DiceRoll] = []
    for p_index, paragraph in enumerate(paragraphs):
        for m in _DICE_RE.finditer(paragraph):
            try:
                rolls.append(_roll(m, p_index))
            except ValueError:
                continue
    return rolls


def contains_dice_expr(text: str) -> bool:
    return _DICE_RE.search(text) is not None
