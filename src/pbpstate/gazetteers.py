"""Configured vocabularies used by the rule-based extractors.

Gazetteers live in a plain-text config file (one term per line under
``[section]`` headers) rather than in code, so the shipped class/race/skill
lists can be swapped for house rules without touching the package. The
default file bundled under ``data/`` covers the standard twelve classes,
nine races, and eighteen skills.

Pronoun sets use the line form ``label: form1, form2, form3``. Possessive
adjectives used for inventory matching are recognized from each set's forms
against a fixed English list (his, her, their, its).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

from .errors import ConfigError

SECTIONS = (
    "classes",
    "races",
    "skills",
    "pronoun_sets",
    "items",
    "monsters",
    "stopwords",
    "attack_words",
    "damage_words",
)

POSSESSIVE_ADJECTIVES = frozenset({"his", "her", "their", "its"})

FIRST_PERSON_POSSESSIVES = ("my", "our")

# Used when a gazetteer file leaves these sections empty or absent.
DEFAULT_ATTACK_WORDS = ("attack",)
DEFAULT_DAMAGE_WORDS = ("damage", "dmg", "cure", "heal", "healing", "points")

# re.IGNORECASE matches the dotted and dotless i to "i"; casefold() does not.
_TURKIC_I = str.maketrans("\u0130\u0131", "ii")


def fold(text: str) -> str:
    """The lookup key of a ``re.IGNORECASE`` match: ``ſix`` folds to ``six``."""
    return text.translate(_TURKIC_I).casefold()


class TermMatcher:
    """Case-insensitive whole-word matcher over a fixed term list.

    Longer terms win over their prefixes ("animal handling" before
    "animal"); with ``plural=True`` a trailing ``s``/``es`` on the text is
    accepted and the canonical singular is reported.
    """

    def __init__(self, terms: tuple[str, ...], plural: bool = False):
        self._canonical = {fold(t): t.lower() for t in terms}
        if not terms:
            self._pattern = None
            return
        ordered = sorted((t.lower() for t in terms), key=len, reverse=True)
        suffix = r"(?:e?s)?" if plural else ""
        body = "|".join(re.escape(t) for t in ordered)
        self._pattern = re.compile(
            rf"(?<!\w)(?:{body}){suffix}(?!\w)", re.IGNORECASE
        )

    def finditer(self, text: str):
        """Yield (canonical_term, start_offset) in document order."""
        if self._pattern is None:
            return
        for m in self._pattern.finditer(text):
            surface = fold(m.group(0))
            if surface not in self._canonical:
                base = surface[:-1] if surface.endswith("s") else surface
                if base not in self._canonical and base.endswith("e"):
                    base = base[:-1]
                surface = base
            yield self._canonical[surface], m.start()


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
    def class_matcher(self) -> TermMatcher:
        return TermMatcher(self.classes)

    @cached_property
    def race_matcher(self) -> TermMatcher:
        return TermMatcher(self.races)

    @cached_property
    def skill_matcher(self) -> TermMatcher:
        return TermMatcher(self.skills)

    @cached_property
    def item_words(self) -> frozenset[str]:
        return frozenset(t.lower() for t in self.items)

    @cached_property
    def monster_matcher(self) -> TermMatcher:
        return TermMatcher(self.monsters, plural=True)

    @cached_property
    def attack_matcher(self) -> TermMatcher:
        return TermMatcher(self.attack_words)

    @cached_property
    def damage_matcher(self) -> TermMatcher:
        return TermMatcher(self.damage_words)

    @cached_property
    def pronoun_matchers(self) -> tuple[tuple[str, TermMatcher], ...]:
        return tuple(
            (label, TermMatcher(forms)) for label, forms in self.pronoun_sets
        )

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
    def all_pronoun_forms(self) -> frozenset[str]:
        return frozenset(
            form for _, forms in self.pronoun_sets for form in forms
        )

    @cached_property
    def all_possessives(self) -> frozenset[str]:
        """Every possessive an inventory match can start with, whatever
        the player's pronouns."""
        return frozenset(self.possessives_for(None)) | (
            self.all_pronoun_forms & POSSESSIVE_ADJECTIVES
        )


def _parse_pronoun_line(line: str, lineno: int) -> tuple[str, tuple[str, ...]]:
    if ":" not in line:
        raise ConfigError(f"line {lineno}: pronoun set needs 'label: forms'")
    label, _, rest = line.partition(":")
    forms = tuple(f.strip().lower() for f in rest.split(",") if f.strip())
    if not forms:
        raise ConfigError(f"line {lineno}: pronoun set {label!r} has no forms")
    return label.strip(), forms


def parse_gazetteers(text: str) -> Gazetteers:
    sections: dict[str, list[str]] = {name: [] for name in SECTIONS}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in sections:
                raise ConfigError(f"line {lineno}: unknown section {current!r}")
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: term appears before any [section]")
        sections[current].append((line, lineno))  # type: ignore[arg-type]

    pronoun_sets = tuple(
        _parse_pronoun_line(line, lineno) for line, lineno in sections["pronoun_sets"]
    )

    def plain(name: str) -> tuple[str, ...]:
        return tuple(line.lower() for line, _ in sections[name])

    return Gazetteers(
        classes=plain("classes"),
        races=plain("races"),
        skills=plain("skills"),
        pronoun_sets=pronoun_sets,
        items=plain("items"),
        monsters=plain("monsters"),
        stopwords=frozenset(plain("stopwords")),
        attack_words=plain("attack_words") or DEFAULT_ATTACK_WORDS,
        damage_words=plain("damage_words") or DEFAULT_DAMAGE_WORDS,
    )


def load_gazetteers(path: str | Path | None = None) -> Gazetteers:
    """Load a gazetteer file, or the bundled defaults when no path given.

    A malformed file raises ConfigError naming the file and the line.
    """
    if path is None:
        text = (
            resources.files("pbpstate").joinpath("data/gazetteers.txt").read_text("utf-8")
        )
        return parse_gazetteers(text)
    try:
        return parse_gazetteers(Path(path).read_text("utf-8"))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
