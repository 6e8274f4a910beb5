"""Combat span detection and per-roll action classification.

Combat opens on an initiative roll or an attack roll (surprise rounds),
persists while rolls keep appearing, and closes once a configurable number
of consecutive posts pass without any roll. Spans always start on a post
with an opening roll and end on the last roll-bearing post.

Action classification follows the die: a d20 is a check whose flavor comes
from the nearest keyword in its paragraph, any other die is a damage or
healing roll when a damage keyword sits nearby and otherwise yields no
action at all.

Keywords, monsters and number words are read from the post facts'
per-paragraph ``Gazetteers.find`` hits, not from the text; a roll's
``hits`` are those of its paragraph, where its ``char_offset`` lies.
"""

from __future__ import annotations

import re
from typing import Sequence

from .characters import PostFacts
from .errors import ConfigError
from .gazetteers import NUMBER_WORDS, Hits
from .models import Action, ActionKind, Campaign, CombatSpan, DiceRoll

_NUMERAL_RE = re.compile(r"\d+")

# A headcount is a small number: a numeral of more than this many digits
# is not one, and is skipped without being read.
MAX_HEADCOUNT_DIGITS = 4


# A keyword is near a roll, and a number near a monster mention, when
# their offsets differ by at most this many characters.
WINDOW_CHARS = 100


def _near(section_hits: list[tuple[str, int]], offset: int) -> bool:
    return any(abs(pos - offset) <= WINDOW_CHARS for _, pos in section_hits)


def is_initiative_roll(roll: DiceRoll, hits: Hits) -> bool:
    """A d20 with the word "initiative" near it in its paragraph."""
    return roll.faces == 20 and _near(hits["initiative"], roll.char_offset)


def is_attack_roll(roll: DiceRoll, hits: Hits) -> bool:
    """A d20 with an attack keyword near it in its paragraph."""
    return roll.faces == 20 and _near(hits["attack_words"], roll.char_offset)


def detect_combat_spans(
    campaign: Campaign,
    facts: Sequence[PostFacts],
    gap_turns: int = 3,
) -> list[CombatSpan]:
    """Run the combat state machine over posts in order; a span closes
    after ``gap_turns`` posts without a roll. ``facts`` are the posts'
    facts, in post order.

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

    for post, facts_of_post in zip(campaign.posts, facts):
        has_roll = bool(post.rolls)
        if not in_combat:
            hits = facts_of_post.hits
            if any(
                is_initiative_roll(roll, hits[roll.paragraph_index])
                or is_attack_roll(roll, hits[roll.paragraph_index])
                for roll in post.rolls
            ):
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
    campaign: Campaign, span: CombatSpan, facts: Sequence[PostFacts]
) -> list[tuple[str, int]]:
    """Monsters mentioned inside the span with a guessed headcount.

    The count is the largest numeral or number word within the keyword
    window of any mention, searched within the mention's own paragraph;
    with no number nearby the count defaults to one. A numeral of more
    than ``MAX_HEADCOUNT_DIGITS`` (4) digits is skipped. Monsters are listed
    in order of first mention. ``facts`` are the campaign's post facts,
    in post order.
    """
    counts: dict[str, int] = {}
    order: list[str] = []
    in_span = slice(span.start_index, span.end_index + 1)
    for post, facts_of_post in zip(campaign.posts[in_span], facts[in_span]):
        for paragraph, hits in zip(post.paragraphs, facts_of_post.hits):
            if not hits["monsters"]:
                continue
            numerals = [
                (int(m[0]), m.start())
                for m in _NUMERAL_RE.finditer(paragraph)
                if len(m[0]) <= MAX_HEADCOUNT_DIGITS
            ]
            for monster, offset in hits["monsters"]:
                if monster not in counts:
                    counts[monster] = 1
                    order.append(monster)
                best = counts[monster]
                for number, pos in numerals:
                    if abs(pos - offset) <= WINDOW_CHARS:
                        best = max(best, number)
                for word, pos in hits["number_words"]:
                    if abs(pos - offset) <= WINDOW_CHARS:
                        best = max(best, NUMBER_WORDS[word])
                counts[monster] = best
    return [(name, counts[name]) for name in order]


def classify_roll_action(roll: DiceRoll, hits: Hits) -> Action | None:
    """Classify one roll from the keywords around it.

    d20: nearest keyword in the window decides between an attack and a
    skill check (ties in distance go to the leftmost keyword); with no
    keyword it is an unclassified check. Other dice yield a damage/heal
    action only when a damage keyword is nearby, otherwise nothing.
    ``hits`` are those of the roll's paragraph.
    """
    offset = roll.char_offset
    if roll.faces == 20:
        candidates: list[tuple[int, int, str, str | None]] = []
        for _, pos in hits["attack_words"]:
            if abs(pos - offset) <= WINDOW_CHARS:
                candidates.append((abs(pos - offset), pos, "attack", None))
        for skill, pos in hits["skills"]:
            if abs(pos - offset) <= WINDOW_CHARS:
                candidates.append((abs(pos - offset), pos, "skill", skill))
        if not candidates:
            return Action(kind=ActionKind.UNKNOWN_CHECK, source_roll=roll)
        _, _, kind, skill = min(candidates)
        if kind == "attack":
            return Action(kind=ActionKind.ATTACK, source_roll=roll)
        return Action(kind=ActionKind.SKILL_CHECK, source_roll=roll, skill=skill)
    if _near(hits["damage_words"], offset):
        return Action(kind=ActionKind.DAMAGE_OR_HEAL, source_roll=roll)
    return None


def annotate_turn_actions(
    campaign: Campaign, facts: Sequence[PostFacts]
) -> list[list[Action]]:
    """Per-post action lists for the whole campaign; ``facts`` are its
    post facts, in post order."""
    actions_per_post: list[list[Action]] = []
    for post, facts_of_post in zip(campaign.posts, facts):
        actions = []
        for roll in post.rolls:
            hits = facts_of_post.hits[roll.paragraph_index]
            action = classify_roll_action(roll, hits)
            if action is not None:
                actions.append(action)
        actions_per_post.append(actions)
    return actions_per_post
