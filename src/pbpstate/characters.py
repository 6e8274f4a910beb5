"""Per-player character property inference from post text.

The extraction rules are frequency heuristics over whole-word matches:
the most frequently mentioned candidate wins, with ties broken by earliest
first occurrence so results are stable under appending new posts. Name
candidates come from a capitalization heuristic rather than a neural NER
model, which keeps the pipeline dependency-free and deterministic.

Each post is read once: ``post_facts`` tokenizes it a single time, looks
its terms up with one ``Gazetteers.find`` per paragraph, and records every
cue the heuristics use. Profiles aggregate those facts per player,
coverage accounting asks whether any cue fired, and combat reads the
paragraphs' term hits that the facts keep.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, islice
from typing import Callable, Iterable, Sequence

from .gazetteers import Gazetteers, Hits, pronoun_section
from .models import DUNGEON_MASTER, Campaign, CharacterProfile

# A word token, or (unnamed) a sentence-break character between words.
_TOKEN_RE = re.compile(r"([A-Za-zÀ-ɏ]+(?:['’-][A-Za-zÀ-ɏ]+)*)|[.!?\n]")

_MAX_SPELL_TOKENS = 4

# (surface, start, end, sentence_initial)
Token = tuple[str, int, int, bool]


@dataclass
class MentionCounts:
    """Tallies per candidate plus the order each was first seen.

    ``best()`` returns the most frequent key; ties go to the earliest first
    occurrence (post index, then in-post order).
    """

    counts: dict[str, int] = field(default_factory=dict)
    first_seen: dict[str, tuple[int, int]] = field(default_factory=dict)
    _order: int = 0

    def add(self, key: str, post_index: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1
        self.first_seen.setdefault(key, (post_index, self._order))
        self._order += 1

    def best(self) -> str | None:
        if not self.counts:
            return None
        return min(
            self.counts, key=lambda k: (-self.counts[k], self.first_seen[k])
        )


def identify_dm(campaign: Campaign) -> str:
    """The DM is the author of the campaign's first post."""
    return campaign.posts[0].author_id


def _tokenize(text: str) -> list[Token]:
    """Word tokens in order; one scan finds words and sentence breaks.

    A token is sentence-initial when it is the first word of the text or
    a break character (``.!?`` or a newline) lies between it and the
    previous word.
    """
    tokens = []
    at_sentence_start = True
    for m in _TOKEN_RE.finditer(text):
        surface = m[1]
        if surface is None:
            at_sentence_start = True
            continue
        tokens.append((surface, m.start(), m.end(), at_sentence_start))
        at_sentence_start = False
    return tokens


def _is_capitalized(surface: str) -> bool:
    return (
        len(surface) >= 2
        and surface[0].isupper()
        and any(c.islower() for c in surface[1:])
    )


def _strip_possessive(surface: str) -> str:
    for suffix in ("'s", "’s"):
        if surface.endswith(suffix):
            return surface[: -len(suffix)]
    return surface


def extract_proper_names(
    text: str, gazetteers: Gazetteers, tokens: Sequence[Token] | None = None
) -> list[str]:
    """Candidate person names, one entry per occurrence, in order.

    A capitalized token qualifies unless it is a stopword or a gazetteer
    term. A token type capitalized only at sentence starts is kept only
    when the same word never occurs lowercased in the text, since a
    lowercase occurrence marks the capitalization as purely positional.
    Adjacent qualifying tokens merge into a two-token name. ``tokens``
    are the text's tokens when the caller already has them.
    """
    if tokens is None:
        tokens = _tokenize(text)
    blocklist = gazetteers.name_blocklist

    lowercase_types: set[str] = set()
    capitalized_mid_sentence: set[str] = set()
    # Per token: (possessive-stripped surface, its lowercase) if capitalized.
    capitalized: list[tuple[str, str] | None] = []
    for surface, _, _, initial in tokens:
        if surface.islower():
            lowercase_types.add(surface.lower())
        if _is_capitalized(surface):
            stripped = _strip_possessive(surface)
            lowered = stripped.lower()
            if not initial:
                capitalized_mid_sentence.add(lowered)
            capitalized.append((stripped, lowered))
        else:
            capitalized.append(None)

    qualified = [
        c[0]
        if c is not None
        and c[1] not in blocklist
        and (c[1] in capitalized_mid_sentence or c[1] not in lowercase_types)
        else None
        for c in capitalized
    ]

    names: list[str] = []
    i = 0
    while i < len(tokens):
        candidate = qualified[i]
        if candidate is None:
            i += 1
            continue
        if i + 1 < len(tokens) and qualified[i + 1] is not None:
            between = text[tokens[i][2] : tokens[i + 1][1]]
            if between.strip() == "" and "\n" not in between:
                names.append(f"{candidate} {qualified[i + 1]}")
                i += 2
                continue
        names.append(candidate)
        i += 1
    return names


@dataclass(frozen=True)
class PostFacts:
    """Every cue the character heuristics read from one post.

    ``races`` pairs each term with its offset. ``pronouns`` lists the
    pronoun-set labels in offset order. ``items`` holds lowercased
    (possessive, gazetteer item) pairs whose gap is whitespace. ``spells``
    are the title-cased phrases after each cast verb. ``hits`` are each
    paragraph's ``Gazetteers.find`` hits, offsets within the paragraph.
    """

    index: int
    names: tuple[str, ...]
    classes: tuple[str, ...]
    races: tuple[tuple[str, int], ...]
    pronouns: tuple[str, ...]
    items: tuple[tuple[str, str], ...]
    spells: tuple[str, ...]
    hits: tuple[Hits, ...]

    def cues(self) -> set[str]:
        """The cue families that fire."""
        families = (
            ("name", self.names),
            ("class", self.classes),
            ("race", self.races),
            ("pronouns", self.pronouns),
            ("inventory", self.items),
            ("spells", self.spells),
        )
        return {family for family, hits in families if hits}


def _possessions(
    text: str, tokens: Sequence[Token], gazetteers: Gazetteers
) -> list[tuple[str, str]]:
    """The ``items`` pairs described on ``PostFacts``."""
    possessives = gazetteers.all_possessives
    item_words = gazetteers.item_words
    items: list[tuple[str, str]] = []
    for (surface, _, end, _), (nxt_surface, nxt_start, _, _) in zip(
        tokens, islice(tokens, 1, None)
    ):
        possessive = surface.lower()
        if possessive not in possessives or text[end:nxt_start].strip():
            continue
        word = nxt_surface.lower()
        if word in item_words:
            items.append((possessive, word))
    return items


def _cast_phrases(
    text: str,
    tokens: Sequence[Token],
    verbs: Sequence[tuple[int, int]],
    stopwords: frozenset[str],
) -> list[str]:
    """Spell names following each cast verb in one post, title-cased.

    ``verbs`` are each verb's end and its paragraph's end in ``text``.
    Capture runs over at most four word tokens and stops at a stopword,
    punctuation or a paragraph end, so "cast sacred flame at ..." yields
    "Sacred Flame". Paragraph ends come from the paragraphs themselves, so
    a newline inside a paragraph is whitespace, not a break.
    """
    if not verbs:
        return []
    starts = [t[1] for t in tokens]
    phrases: list[str] = []
    for verb_end, paragraph_end in verbs:
        phrase: list[str] = []
        previous_end = verb_end
        for surface, start, end, _ in islice(
            tokens, bisect_left(starts, verb_end), None
        ):
            if (
                start >= paragraph_end
                or text[previous_end:start].strip()
                or len(phrase) >= _MAX_SPELL_TOKENS
                or surface.lower() in stopwords
            ):
                break
            phrase.append(surface)
            previous_end = end
        if phrase:
            phrases.append(" ".join(w.capitalize() for w in phrase))
    return phrases


def post_facts(
    paragraphs: Sequence[str], gazetteers: Gazetteers, index: int = 0
) -> PostFacts:
    """Read one post's paragraphs once; ``index`` is the post's index.
    A paragraph's term hit lies in the post's text at the paragraph's offset."""
    text = "\n".join(paragraphs)
    tokens = _tokenize(text)
    hits = tuple(gazetteers.find(p) for p in paragraphs)
    offsets = [0, *accumulate(len(p) + 1 for p in paragraphs)]

    def in_text(section: str) -> list[tuple[str, int]]:
        return [
            (term, start + offset)
            for start, found in zip(offsets, hits)
            for term, offset in found[section]
        ]

    pronoun_hits = sorted(
        (offset, label)
        for i, (label, _) in enumerate(gazetteers.pronoun_sets)
        for _, offset in in_text(pronoun_section(i))
    )
    verbs = [
        (start + offset + len(verb), start + len(paragraph))
        for start, paragraph, found in zip(offsets, paragraphs, hits)
        for verb, offset in found["cast"]
    ]
    return PostFacts(
        index=index,
        names=tuple(extract_proper_names(text, gazetteers, tokens)),
        classes=tuple(term for term, _ in in_text("classes")),
        races=tuple(in_text("races")),
        pronouns=tuple(label for _, label in pronoun_hits),
        items=tuple(_possessions(text, tokens, gazetteers)),
        spells=tuple(_cast_phrases(text, tokens, verbs, gazetteers.stopwords)),
        hits=hits,
    )


def _most_mentioned(
    facts: Iterable[PostFacts], keys: Callable[[PostFacts], Iterable[str]]
) -> str | None:
    """The most mentioned key; ties go to the earliest first occurrence."""
    tally = MentionCounts()
    for f in facts:
        for key in keys(f):
            tally.add(key, f.index)
    return tally.best()


def _race(facts: Sequence[PostFacts]) -> str | None:
    """Race from the player's first post when present, else most frequent.

    Several races in the first post resolve to the earliest by offset.
    """
    if not facts:
        return None
    if facts[0].races:
        return min(facts[0].races, key=lambda hit: hit[1])[0]
    return _most_mentioned(facts, lambda f: (term for term, _ in f.races))


def _inventory(
    facts: Iterable[PostFacts], pronouns: str | None, gazetteers: Gazetteers
) -> frozenset[str]:
    """Gazetteer items named right after a possessive pronoun ("her sword").

    First-person possessives always count; third-person ones only for the
    player's own pronoun set.
    """
    wanted = gazetteers.possessives_for(pronouns)
    return frozenset(
        word for f in facts for possessive, word in f.items if possessive in wanted
    )


def text_signals(text: str, gazetteers: Gazetteers) -> set[str]:
    """Which character-cue families fire in ``text``, read as one paragraph.

    The families are those of ``PostFacts.cues``, so detection is the
    extractors' own. Annotation reads each post's facts directly.
    """
    return post_facts((text,), gazetteers).cues()


def build_profiles(
    campaign: Campaign,
    gazetteers: Gazetteers,
    facts: Sequence[PostFacts] | None = None,
) -> dict[str, CharacterProfile]:
    """Run all property heuristics per player; the DM profile is scrubbed.

    Name, class and pronouns are each the player's most mentioned
    candidate, ties going to the earliest first occurrence; pronoun ties
    break by offset within a post. Race, inventory and spells follow
    ``_race``, ``_inventory`` and ``_cast_phrases``. The DM, the first
    poster, is always the Dungeon Master.

    ``facts`` are the campaign's post facts in post order, when the caller
    has already read the posts.
    """
    if facts is None:
        facts = [
            post_facts(p.paragraphs, gazetteers, p.index) for p in campaign.posts
        ]
    dm_id = identify_dm(campaign)
    by_player: dict[str, list[PostFacts]] = {}
    for post, facts_of_post in zip(campaign.posts, facts):
        by_player.setdefault(post.author_id, []).append(facts_of_post)

    profiles: dict[str, CharacterProfile] = {
        dm_id: CharacterProfile(
            player_id=dm_id, is_dm=True, character_class=DUNGEON_MASTER
        )
    }
    for player_id, player_facts in by_player.items():
        if player_id == dm_id:
            continue
        pronouns = _most_mentioned(player_facts, lambda f: f.pronouns)
        profiles[player_id] = CharacterProfile(
            player_id=player_id,
            is_dm=False,
            name=_most_mentioned(player_facts, lambda f: f.names),
            character_class=_most_mentioned(player_facts, lambda f: f.classes),
            race=_race(player_facts),
            pronouns=pronouns,
            inventory=_inventory(player_facts, pronouns, gazetteers),
            spells=frozenset(spell for f in player_facts for spell in f.spells),
        )
    return profiles
