"""Combat span detection and per-roll action classification.

Combat opens on an initiative roll or an attack roll (surprise rounds),
persists while rolls keep appearing, and closes once a configurable number
of consecutive posts pass without any roll. Spans always start on a post
with an opening roll and end on the last roll-bearing post.

Action classification follows the die: a d20 is a check whose flavor comes
from the nearest keyword in its paragraph, any other die is a damage or
healing roll when a damage keyword sits nearby and otherwise yields no
action at all.
"""

from __future__ import annotations

import re

from .errors import ConfigError
from .gazetteers import Gazetteers, fold
from .models import Action, ActionKind, Campaign, CombatSpan, DiceRoll

_INITIATIVE_RE = re.compile(r"(?<!\w)initiative(?!\w)", re.IGNORECASE)
_NUMERAL_RE = re.compile(r"\d+")

NUMBER_WORDS = {
    word: value
    for value, word in enumerate(
        (
            "one two three four five six seven eight nine ten "
            "eleven twelve thirteen fourteen fifteen sixteen seventeen "
            "eighteen nineteen twenty"
        ).split(),
        start=1,
    )
}
_NUMBER_WORD_RE = re.compile(
    r"(?<!\w)(?:" + "|".join(NUMBER_WORDS) + r")(?!\w)", re.IGNORECASE
)


# A keyword is near a roll, and a number near a monster mention, when
# their offsets differ by at most this many characters.
WINDOW_CHARS = 100


def _within_window(positions: list[int], offset: int) -> bool:
    return any(abs(pos - offset) <= WINDOW_CHARS for pos in positions)


def is_initiative_roll(roll: DiceRoll, context: str) -> bool:
    """A d20 with the word "initiative" near it in its paragraph."""
    if roll.faces != 20:
        return False
    positions = [m.start() for m in _INITIATIVE_RE.finditer(context)]
    return _within_window(positions, roll.char_offset)


def is_attack_roll(roll: DiceRoll, context: str, gazetteers: Gazetteers) -> bool:
    """A d20 with an attack keyword near it in its paragraph."""
    if roll.faces != 20:
        return False
    positions = [p for _, p in gazetteers.attack_matcher.finditer(context)]
    return _within_window(positions, roll.char_offset)


def _post_opens_combat(post, gazetteers: Gazetteers) -> bool:
    for roll in post.rolls:
        context = post.paragraphs[roll.paragraph_index]
        if is_initiative_roll(roll, context) or is_attack_roll(
            roll, context, gazetteers
        ):
            return True
    return False


def detect_combat_spans(
    campaign: Campaign,
    gazetteers: Gazetteers,
    gap_turns: int = 3,
) -> list[CombatSpan]:
    """Run the combat state machine over posts in order; a span closes
    after ``gap_turns`` posts without a roll.

    Returned spans are disjoint, sorted, and carry no monsters; use
    extract_monsters to fill those in.
    """
    if gap_turns < 1:
        raise ConfigError("gap_turns must be at least 1")
    spans: list[CombatSpan] = []
    in_combat = False
    span_start = 0
    last_roll_index = 0
    quiet_posts = 0

    for post in campaign.posts:
        has_roll = bool(post.rolls)
        if not in_combat:
            if _post_opens_combat(post, gazetteers):
                in_combat = True
                span_start = post.index
                last_roll_index = post.index
                quiet_posts = 0
            continue
        if has_roll:
            last_roll_index = post.index
            quiet_posts = 0
        else:
            quiet_posts += 1
            if quiet_posts >= gap_turns:
                spans.append(
                    CombatSpan(start_index=span_start, end_index=last_roll_index)
                )
                in_combat = False
    if in_combat:
        spans.append(CombatSpan(start_index=span_start, end_index=last_roll_index))
    return spans


def extract_monsters(
    campaign: Campaign, span: CombatSpan, gazetteers: Gazetteers
) -> list[tuple[str, int]]:
    """Monsters mentioned inside the span with a guessed headcount.

    The count is the largest numeral or number word within the keyword
    window of any mention, searched within the mention's own paragraph;
    with no number nearby the count defaults to one. Monsters are listed
    in order of first mention.
    """
    counts: dict[str, int] = {}
    order: list[str] = []
    for post in campaign.posts[span.start_index : span.end_index + 1]:
        for paragraph in post.paragraphs:
            for monster, offset in gazetteers.monster_matcher.finditer(paragraph):
                if monster not in counts:
                    counts[monster] = 1
                    order.append(monster)
                best = counts[monster]
                for m in _NUMERAL_RE.finditer(paragraph):
                    if abs(m.start() - offset) <= WINDOW_CHARS:
                        best = max(best, int(m.group(0)))
                for m in _NUMBER_WORD_RE.finditer(paragraph):
                    if abs(m.start() - offset) <= WINDOW_CHARS:
                        best = max(best, NUMBER_WORDS[fold(m.group(0))])
                counts[monster] = best
    return [(name, counts[name]) for name in order]


def classify_roll_action(
    roll: DiceRoll, context: str, gazetteers: Gazetteers
) -> Action | None:
    """Classify one roll from the keywords around it.

    d20: nearest keyword in the window decides between an attack and a
    skill check (ties in distance go to the leftmost keyword); with no
    keyword it is an unclassified check. Other dice yield a damage/heal
    action only when a damage keyword is nearby, otherwise nothing.
    """
    offset = roll.char_offset
    if roll.faces == 20:
        candidates: list[tuple[int, int, str, str | None]] = []
        for _, pos in gazetteers.attack_matcher.finditer(context):
            if abs(pos - offset) <= WINDOW_CHARS:
                candidates.append((abs(pos - offset), pos, "attack", None))
        for skill, pos in gazetteers.skill_matcher.finditer(context):
            if abs(pos - offset) <= WINDOW_CHARS:
                candidates.append((abs(pos - offset), pos, "skill", skill))
        if not candidates:
            return Action(kind=ActionKind.UNKNOWN_CHECK, source_roll=roll)
        _, _, kind, skill = min(candidates)
        if kind == "attack":
            return Action(kind=ActionKind.ATTACK, source_roll=roll)
        return Action(kind=ActionKind.SKILL_CHECK, source_roll=roll, skill=skill)
    positions = [p for _, p in gazetteers.damage_matcher.finditer(context)]
    if _within_window(positions, offset):
        return Action(kind=ActionKind.DAMAGE_OR_HEAL, source_roll=roll)
    return None


def annotate_turn_actions(
    campaign: Campaign, gazetteers: Gazetteers
) -> list[list[Action]]:
    """Per-post action lists for the whole campaign."""
    actions_per_post: list[list[Action]] = []
    for post in campaign.posts:
        actions = []
        for roll in post.rolls:
            context = post.paragraphs[roll.paragraph_index]
            action = classify_roll_action(roll, context, gazetteers)
            if action is not None:
                actions.append(action)
        actions_per_post.append(actions)
    return actions_per_post
