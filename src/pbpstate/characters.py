"""Per-player character property inference from post text.

The extraction rules are frequency heuristics over whole-word matches:
the most frequently mentioned candidate wins, with ties broken by earliest
first occurrence so results are stable under appending new posts. Name
candidates come from a capitalization heuristic rather than a neural NER
model, which keeps the pipeline dependency-free and deterministic.

Each post is read once: ``post_facts`` splits its text once into words
and the gaps between them (a word starts a sentence when it is the first
or its gap holds one of ``.!?`` or a newline), looks its terms up with
one ``Gazetteers.find`` per paragraph, and records every cue the
heuristics use. Names are the words ``_CAPITALIZED_RE`` matches; a spell
is one ``_PHRASE_RE`` match after a cast verb, so no rule needs a word's
offset. Profiles aggregate the facts per player, coverage accounting asks
whether any cue fired, and combat reads the paragraphs' term hits that
the facts keep.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, compress, count, takewhile
from typing import Callable, Iterable, Sequence

from .gazetteers import Gazetteers, Hits, pronoun_section
from .models import DUNGEON_MASTER, Campaign, CharacterProfile

# A letter, and a word: letters joined by apostrophes or hyphens. Its one
# group makes ``split`` alternate gaps and words: gap 0, word 0, gap 1,
# word 1, ...
_LETTER = "[A-Za-zÀ-ɏ]"
_WORD = f"{_LETTER}+(?:['’-]{_LETTER}+)*"
_WORD_RE = re.compile(f"({_WORD})")
# Every letter of the class.
_LETTERS = "".join(filter(re.compile(_LETTER).match, map(chr, range(ord("ɏ") + 1))))
# A capitalized word: an uppercase letter, then a lowercase one somewhere.
_UPPER = "".join(filter(str.isupper, _LETTERS))
_LOWER = "".join(filter(str.islower, _LETTERS))
_CAPITALIZED_RE = re.compile(f"[{_UPPER}][^{_LOWER}]*[{_LOWER}]")
# A spell phrase: up to four words separated by whitespace. The lookbehind
# stops a word the cast verb ends inside from starting one: "×" is a
# letter here, but not a ``\w`` character to ``find`` ("cast×").
_PHRASE_RE = re.compile(rf"\s*(?<!{_LETTER}){_WORD}(?:\s+{_WORD}){{0,3}}")
# A gap holding one of these starts a sentence at the word after it.
_SENTENCE_BREAKS = frozenset(".!?\n")


def identify_dm(campaign: Campaign) -> str:
    """The DM is the author of the campaign's first post."""
    return campaign.posts[0].author_id


def _strip_possessive(surface: str) -> str:
    for suffix in ("'s", "’s"):
        if surface.endswith(suffix):
            return surface[: -len(suffix)]
    return surface


def extract_proper_names(
    words: Sequence[str], gaps: Sequence[str], gazetteers: Gazetteers
) -> list[str]:
    """Candidate person names in one post, one entry per occurrence, in order.

    ``words`` and ``gaps`` are the post's split (see ``post_facts``); a
    word is sentence-initial when it is the first or its gap holds one of
    ``.!?`` or a newline. A capitalized word (one ``_CAPITALIZED_RE``
    matches: an uppercase letter, then a lowercase one) qualifies unless it
    is a stopword or a gazetteer term. A word type capitalized only at
    sentence starts is kept only when it never occurs lowercased in the
    post, since a lowercase occurrence marks the capitalization as purely
    positional.
    Adjacent qualifying words merge into a two-word name when the gap
    between them is whitespace without a newline.
    """
    blocklist = gazetteers.name_blocklist
    lowercase = set(filter(str.islower, words))
    capitalized = [
        (k, stripped, stripped.lower())
        for k in compress(count(), map(_CAPITALIZED_RE.match, words))
        for stripped in [_strip_possessive(words[k])]
    ]
    mid_sentence = {
        lowered
        for k, _, lowered in capitalized
        if k and _SENTENCE_BREAKS.isdisjoint(gaps[k])
    }

    names: list[str] = []
    joinable = -1  # the word after one that began a one-word name
    for k, stripped, lowered in capitalized:
        if lowered in blocklist or (
            lowered in lowercase and lowered not in mid_sentence
        ):
            continue
        if k == joinable and gaps[k].isspace() and "\n" not in gaps[k]:
            names[-1] += " " + stripped
        else:
            names.append(stripped)
            joinable = k + 1
    return names


@dataclass(frozen=True)
class PostFacts:
    """Every cue the character heuristics read from one post.

    ``classes`` and ``races`` list the terms in text order. ``pronouns``
    lists the pronoun-set labels in offset order. ``items`` holds lowercased
    (possessive, gazetteer item) pairs whose gap is whitespace. ``spells``
    are the title-cased phrases after each cast verb. ``hits`` are each
    paragraph's ``Gazetteers.find`` hits, offsets within the paragraph.
    """

    names: tuple[str, ...]
    classes: tuple[str, ...]
    races: tuple[str, ...]
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
    words: Sequence[str], gaps: Sequence[str], gazetteers: Gazetteers
) -> list[tuple[str, str]]:
    """The ``items`` pairs described on ``PostFacts``."""
    possessives = gazetteers.all_possessives
    item_words = gazetteers.item_words
    items: list[tuple[str, str]] = []
    for surface, gap, nxt in zip(words, gaps[1:], words[1:]):
        possessive = surface.lower()
        if possessive not in possessives or gap.strip():
            continue
        word = nxt.lower()
        if word in item_words:
            items.append((possessive, word))
    return items


def _cast_phrases(
    text: str, verbs: Sequence[tuple[int, int]], gazetteers: Gazetteers
) -> list[str]:
    """Spell names following each cast verb in one post, title-cased.

    ``verbs`` are each verb's end and its paragraph's end in ``text``.
    Capture is one ``_PHRASE_RE`` match from the verb's end: at most four
    words separated by whitespace, cut at the first stopword and stopped
    by punctuation or the paragraph's end, so "cast sacred flame at ..."
    yields "Sacred Flame" and a verb ending inside a word ("cast-iron")
    none. Paragraph ends come from the paragraphs themselves, so a
    newline inside a paragraph is whitespace, not a break.
    """
    phrases: list[str] = []
    for verb_end, paragraph_end in verbs:
        match = _PHRASE_RE.match(text, verb_end, paragraph_end)
        words = match.group().split() if match else []
        phrase = takewhile(lambda w: w.lower() not in gazetteers.stopwords, words)
        if spell := " ".join(w.capitalize() for w in phrase):
            phrases.append(spell)
    return phrases


def post_facts(paragraphs: Sequence[str], gazetteers: Gazetteers) -> PostFacts:
    """Read one post's paragraphs once.

    ``_WORD_RE.split`` of the newline-joined text gives ``words`` and
    ``gaps``: ``gaps[k]`` comes before ``words[k]`` and starts a sentence
    when it holds one of ``.!?`` or a newline. Names and possessions read
    that split; spells read the text after each cast verb. A paragraph's
    term hit lies in the post's text at the paragraph's offset.
    """
    text = "\n".join(paragraphs)
    parts = _WORD_RE.split(text)
    words, gaps = parts[1::2], parts[0::2]
    hits = tuple(gazetteers.find(p) for p in paragraphs)
    offsets = [0, *accumulate(len(p) + 1 for p in paragraphs)]

    def terms(section: str) -> tuple[str, ...]:
        return tuple(term for found in hits for term, _ in found[section])

    pronoun_hits = sorted(
        (start + offset, label)
        for i, (label, _) in enumerate(gazetteers.pronoun_sets)
        for start, found in zip(offsets, hits)
        for _, offset in found[pronoun_section(i)]
    )
    verbs = [
        (start + offset + len(verb), start + len(paragraph))
        for start, paragraph, found in zip(offsets, paragraphs, hits)
        for verb, offset in found["cast"]
    ]
    return PostFacts(
        names=tuple(extract_proper_names(words, gaps, gazetteers)),
        classes=terms("classes"),
        races=terms("races"),
        pronouns=tuple(label for _, label in pronoun_hits),
        items=tuple(_possessions(words, gaps, gazetteers)),
        spells=tuple(_cast_phrases(text, verbs, gazetteers)),
        hits=hits,
    )


def _most_mentioned(
    facts: Iterable[PostFacts], keys: Callable[[PostFacts], Iterable[str]]
) -> str | None:
    """The most mentioned key; ties go to the earliest first occurrence,
    which is the ``Counter``'s own order because facts come in post order."""
    tally = Counter(key for f in facts for key in keys(f))
    return max(tally, key=tally.__getitem__, default=None)


def _race(facts: Sequence[PostFacts]) -> str | None:
    """Race from the player's first post when present, else most frequent.

    Several races in the first post resolve to the first in the text.
    """
    if facts and facts[0].races:
        return facts[0].races[0]
    return _most_mentioned(facts, lambda f: f.races)


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
    campaign: Campaign, gazetteers: Gazetteers, facts: Sequence[PostFacts]
) -> dict[str, CharacterProfile]:
    """Run all property heuristics per player; the DM profile is scrubbed.

    Name, class and pronouns are each the player's most mentioned
    candidate, ties going to the earliest first occurrence; pronoun ties
    break by offset within a post. Race, inventory and spells follow
    ``_race``, ``_inventory`` and ``_cast_phrases``. The DM, the first
    poster, is always the Dungeon Master.

    ``facts`` are the campaign's post facts (``post_facts``) in post order.
    """
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
