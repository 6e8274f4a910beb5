r"""Configured vocabularies used by the rule-based extractors.

Gazetteers live in a plain-text config file (one term per line under
``[section]`` headers) rather than in code, so the shipped class/race/skill
lists can be swapped for house rules without touching the package. The
default file bundled under ``data/`` covers the standard twelve classes,
nine races, and eighteen skills. Every gazetteer file, the bundled one
too, is read by ``transcripts.read_lines``, so a bad line reads ``line N:
FILE: problem``, as in every other input file.

Pronoun sets use the line form ``label: form1, form2, form3``. Possessive
adjectives used for inventory matching are recognized from each set's forms
against a fixed English list (his, her, their, its).

``Gazetteers.find`` is the one term lookup. Each section is matched on
its own, case-insensitively, as whole words by Python's ``\w`` (``dark-elf``
holds ``elf``, ``3goblins`` no ``goblin``), longest term first; monsters
also match a plural ``s``/``es``. One scan of the text's ``\w`` runs looks
each run's fold up among the terms' first runs, and the section's pattern
confirms a match there, so every term must start with a word character.
Besides the configured sections, ``find`` reports three fixed
vocabularies: ``initiative``, the cast verbs and the number words.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import cached_property
from importlib import resources
from pathlib import Path

from .transcripts import read_lines

# The configured sections ``find`` matches, besides the pronoun sets.
MATCHED = ("classes", "races", "skills", "monsters", "attack_words", "damage_words")

POSSESSIVE_ADJECTIVES = frozenset({"his", "her", "their", "its"})

FIRST_PERSON_POSSESSIVES = ("my", "our")

# The gazetteer file that ``load_gazetteers`` reads when given none.
_BUNDLED = resources.files(__package__) / "data" / "gazetteers.txt"

# Used when a gazetteer file leaves these sections empty or absent.
DEFAULT_ATTACK_WORDS = ("attack",)
DEFAULT_DAMAGE_WORDS = ("damage", "dmg", "cure", "heal", "healing", "points")

NUMBER_WORDS = {
    word: value
    for value, word in enumerate(
        "one two three four five six seven eight nine ten eleven twelve thirteen"
        " fourteen fifteen sixteen seventeen eighteen nineteen twenty".split(),
        start=1,
    )
}

# The fixed sections ``find`` reports besides the configured ones.
FIXED_SECTIONS = {
    "initiative": ("initiative",),
    "cast": ("cast", "casts", "casting"),
    "number_words": tuple(NUMBER_WORDS),
}

# (canonical term, offset) hits per section, in text order.
Hits = dict[str, list[tuple[str, int]]]

# re.IGNORECASE matches the dotted and dotless i to "i"; casefold() does not.
_TURKIC_I = str.maketrans("\u0130\u0131", "ii")

# U+0345 is the one character that re.IGNORECASE matches to word
# characters (the iotas) without being one. Where a text spells a term's
# iota so, its run ends there, or is that lone character.
_IOTAS = frozenset("\u0345\u0399\u03b9\u1fbe")
_RUN_RE = re.compile(r"\w+|\u0345")
_TERM_RUN_RE = re.compile(r"[\w\u0345]*")
_WORD_START_RE = re.compile(r"\w")


def fold(text: str) -> str:
    """The lookup key of a ``re.IGNORECASE`` match: ``ſix`` folds to ``six``."""
    if text.isascii():
        return text.lower()
    return text.translate(_TURKIC_I).casefold()


def pronoun_section(index: int) -> str:
    """The ``find`` section of the ``index``-th pronoun set."""
    return f"pronoun_sets[{index}]"


class _Section:
    """One section's whole-word pattern, longest term first ("animal
    handling" before "animal"), and each match's canonical term by its
    fold; with ``plural=True`` a trailing ``s``/``es`` names the singular."""

    def __init__(self, terms: tuple[str, ...], plural: bool):
        canonical = {fold(t): t.lower() for t in terms}
        if plural:  # a whole term wins over an "s" plural, which wins over "es"
            canonical = {
                **{key + "es": term for key, term in canonical.items()},
                **{key + "s": term for key, term in canonical.items()},
                **canonical,
            }
        self.canonical = canonical
        ordered = sorted((t.lower() for t in terms), key=len, reverse=True)
        suffix = r"(?:e?s)?" if plural else ""
        body = "|".join(re.escape(t) for t in ordered)
        self.pattern = re.compile(
            rf"(?<!\w)(?:{body}){suffix}(?!\w)", re.IGNORECASE
        )
        # The folds of every text run that a match can start with.
        self.run_keys: set[str] = set()
        for term in ordered:
            run = _TERM_RUN_RE.match(term)[0]
            self.run_keys.update(
                fold(run[: max(i, 1)]) for i, c in enumerate(run) if c in _IOTAS
            )
            self.run_keys.add(fold(run))
            if plural and run == term:
                self.run_keys.update((fold(run + "s"), fold(run + "es")))


@dataclass(frozen=True)
class Gazetteers:
    classes: tuple[str, ...]
    races: tuple[str, ...]
    skills: tuple[str, ...]
    pronoun_sets: tuple[tuple[str, tuple[str, ...]], ...]
    items: tuple[str, ...]
    monsters: tuple[str, ...]
    stopwords: frozenset[str] = frozenset()
    attack_words: tuple[str, ...] = DEFAULT_ATTACK_WORDS
    damage_words: tuple[str, ...] = DEFAULT_DAMAGE_WORDS

    @cached_property
    def item_words(self) -> frozenset[str]:
        return frozenset(t.lower() for t in self.items)

    @cached_property
    def _index(self) -> tuple[dict[str, _Section], dict[str, list[str]]]:
        """Each section by name, and the sections whose terms a run's fold
        can start, by that fold."""
        vocabularies = {
            **{name: getattr(self, name) for name in MATCHED},
            **{pronoun_section(i): f for i, (_, f) in enumerate(self.pronoun_sets)},
            **FIXED_SECTIONS,
        }
        sections: dict[str, _Section] = {}
        starts: dict[str, list[str]] = {}
        for name, terms in vocabularies.items():
            sections[name] = _Section(terms, plural=name == "monsters")
            for key in sections[name].run_keys:
                starts.setdefault(key, []).append(name)
        return sections, starts

    def find(self, text: str) -> Hits:
        """Every section's (canonical term, offset) hits in ``text``, in
        text order: the hits ``pattern.finditer`` would give, for one scan
        of the text's runs."""
        sections, starts = self._index
        sections_of = starts.get
        hits: Hits = {name: [] for name in sections}
        ends = dict.fromkeys(sections, 0)
        for run in _RUN_RE.finditer(text):
            names = sections_of(fold(run[0]))
            if names is None:
                continue
            start = run.start()
            for name in names:
                if start < ends[name]:
                    continue
                section = sections[name]
                m = section.pattern.match(text, start)
                if m is not None:
                    hits[name].append((section.canonical[fold(m[0])], start))
                    ends[name] = m.end()
        return hits

    @cached_property
    def name_blocklist(self) -> frozenset[str]:
        """Lowercased terms that can never be proper-name candidates."""
        blocked = set(self.stopwords)
        for section in (self.classes, self.races, self.monsters):
            blocked.update(t.lower() for t in section)
        for term in self.skills:
            blocked.update(term.lower().split())
        return frozenset(blocked)

    def possessives_for(self, pronoun_label: str | None) -> tuple[str, ...]:
        """First-person possessives plus the player's own, when known."""
        forms: list[str] = list(FIRST_PERSON_POSSESSIVES)
        for label, set_forms in self.pronoun_sets:
            if label == pronoun_label:
                forms.extend(f for f in set_forms if f in POSSESSIVE_ADJECTIVES)
        return tuple(forms)

    @cached_property
    def all_possessives(self) -> frozenset[str]:
        """Every possessive an inventory match can start with, whatever
        the player's pronouns."""
        forms = {form for _, set_forms in self.pronoun_sets for form in set_forms}
        return frozenset(FIRST_PERSON_POSSESSIVES) | (forms & POSSESSIVE_ADJECTIVES)


def _term(text: str) -> str:
    """``text`` lowercased. It must start with a word character: a match
    starts where a ``\\w`` run does, and an item or stopword is a word."""
    term = text.lower()
    if not _WORD_START_RE.match(term):
        raise ValueError(f"term {text!r} does not start with a word character")
    return term


def _pronoun_set(line: str) -> tuple[str, tuple[str, ...]]:
    if ":" not in line:
        raise ValueError("pronoun set needs 'label: forms'")
    label, _, rest = line.partition(":")
    forms = tuple(_term(f.strip()) for f in rest.split(",") if f.strip())
    if not forms:
        raise ValueError(f"pronoun set {label!r} has no forms")
    return label.strip(), forms


def load_gazetteers(path: str | Path | None = None) -> Gazetteers:
    """Load a gazetteer file, or the bundled defaults when no path given.

    Each line is parsed as it is read, so a malformed line raises
    FormatError reading ``line N: FILE: problem``.
    """
    if path is None:
        with resources.as_file(_BUNDLED) as bundled:
            return load_gazetteers(bundled)
    sections: dict[str, list] = {f.name: [] for f in fields(Gazetteers)}
    current: str | None = None

    def parse(line: str) -> None:
        nonlocal current
        line = line.strip()
        if line.startswith("#"):
            return
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in sections:
                raise ValueError(f"unknown section {current!r}")
        elif current is None:
            raise ValueError("term appears before any [section]")
        elif current == "pronoun_sets":
            sections[current].append(_pronoun_set(line))
        else:
            sections[current].append(_term(line))

    for _ in read_lines(path, parse):  # parse files each line's term
        pass

    terms = {name: tuple(entries) for name, entries in sections.items()}
    return Gazetteers(
        **{
            **terms,
            "stopwords": frozenset(terms["stopwords"]),
            "attack_words": terms["attack_words"] or DEFAULT_ATTACK_WORDS,
            "damage_words": terms["damage_words"] or DEFAULT_DAMAGE_WORDS,
        }
    )
