import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pbpstate.errors import FormatError
from pbpstate.gazetteers import (
    FIXED_SECTIONS,
    MATCHED,
    Gazetteers,
    fold,
    load_gazetteers,
    pronoun_section,
)


class TermMatcher:
    """The matcher every lookup used before ``Gazetteers.find``, kept
    verbatim as the reference ``find`` must agree with."""

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


class RegexMatcher:
    """The fixed vocabularies' module regexes before ``Gazetteers.find``,
    kept verbatim; a match is reported by its fold."""

    def __init__(self, pattern: str):
        self._pattern = re.compile(pattern, re.IGNORECASE)

    def finditer(self, text: str):
        for m in self._pattern.finditer(text):
            yield fold(m.group(0)), m.start()


_NUMBER_WORDS = tuple(FIXED_SECTIONS["number_words"])
REFERENCE_FIXED = {
    "initiative": RegexMatcher(r"(?<!\w)initiative(?!\w)"),
    "cast": RegexMatcher(r"(?<!\w)cast(?:s|ing)?(?!\w)"),
    "number_words": RegexMatcher(
        r"(?<!\w)(?:" + "|".join(_NUMBER_WORDS) + r")(?!\w)"
    ),
}


def reference_matchers(gaz):
    """Every ``find`` section's reference matcher, by section."""
    matchers = {
        name: TermMatcher(getattr(gaz, name), plural=name == "monsters")
        for name in MATCHED
    }
    for i, (_, forms) in enumerate(gaz.pronoun_sets):
        matchers[pronoun_section(i)] = TermMatcher(forms)
    return {**matchers, **REFERENCE_FIXED}


def gazetteer_file(directory, text):
    """``text`` written to ``directory`` as the gazetteer file ``gaz.txt``."""
    path = Path(directory, "gaz.txt")
    path.write_text(text, encoding="utf-8")
    return path


def gazetteers_with(**sections):
    empty = dict(classes=(), races=(), skills=(), pronoun_sets=(), items=(), monsters=())
    return Gazetteers(**{**empty, **sections})


# A term in two sections ("hit", "elf"), non-ASCII terms, a term ending in
# punctuation, multi-word terms, a form in two pronoun sets, and Greek
# terms with an iota, which re.IGNORECASE matches to U+0345, and with
# U+0345, which is no word character.
CUSTOM_FILE = (
    "[classes]\nstraße\nélan knight\nmr.\n"
    "[races]\nelf\nhalf-elf\ndark elf\n"
    "[skills]\nsleight of hand\nanimal handling\nanimal\n"
    "[monsters]\nelf\nwolf\nιχώρ\nbus\nω\u0345δη\n"
    "[attack_words]\nattack\nhit\n"
    "[damage_words]\ndamage\nhit\n"
    "[pronoun_sets]\nhe/him: he, him, his\nshe/her: she, her\nxe/her: xe, her\n"
)
with tempfile.TemporaryDirectory() as directory:
    CUSTOM = load_gazetteers(gazetteer_file(directory, CUSTOM_FILE))

GAZETTEERS = {"shipped": load_gazetteers(), "custom": CUSTOM}
REFERENCES = {name: reference_matchers(gaz) for name, gaz in GAZETTEERS.items()}

# Spellings that re.IGNORECASE matches to a term's letter besides its cases.
SPELLINGS = {"s": "sSſ", "i": "iIıİ", "k": "kKK", "ι": "ιΙ\u0345", "\u0345": "\u0345ιΙ"}
SUFFIXES = ("", "s", "es", "ves", "'s", "’s")
GLUE = ("", " ", "  ", "-", "\n", ".", ",", "3", "_", "α", *"ſıİßẞﬁK\u0345")


@st.composite
def texts(draw, terms):
    """Terms in random case and spelling, with suffixes and glue."""
    rng = draw(st.randoms(use_true_random=True))
    pieces = []
    for _ in range(rng.randint(0, 8)):
        if rng.random() < 0.5:
            term = rng.choice(terms).replace(" ", rng.choice((" ", "  ")))
            spelled = (rng.choice(SPELLINGS.get(c, c + c.upper())) for c in term)
            pieces.append("".join(spelled) + rng.choice(SUFFIXES))
        else:
            pieces.append(rng.choice(GLUE))
    return "".join(pieces)


def every_term(gaz):
    terms = [t for name in MATCHED for t in getattr(gaz, name)]
    terms += [f for _, forms in gaz.pronoun_sets for f in forms]
    return sorted({*terms, *(t for ts in FIXED_SECTIONS.values() for t in ts)})


@pytest.mark.parametrize("which", sorted(GAZETTEERS))
def test_find_agrees_with_the_reference_matchers(which):
    gaz, references = GAZETTEERS[which], REFERENCES[which]

    @settings(max_examples=1000, deadline=None)
    @given(text=texts(every_term(gaz)))
    def check(text):
        found = gaz.find(text)
        assert found.keys() == references.keys()
        for section, matcher in references.items():
            assert found[section] == list(matcher.finditer(text)), section

    check()


@pytest.mark.parametrize(
    "text, section, expected",
    [
        ("a dark-elf", "races", [("elf", 7)]),
        ("the goblin's axe", "monsters", [("goblin", 4)]),
        ("the goblin’s axe", "monsters", [("goblin", 4)]),
        ("a half-elf's bow", "races", [("half-elf", 2)]),
        ("3goblins", "monsters", []),
        ("goblinα", "monsters", []),
        ("_goblin", "monsters", []),
        ("half-elves", "races", []),
    ],
)
def test_word_boundaries(gaz, text, section, expected):
    assert gaz.find(text)[section] == expected
    assert list(reference_matchers(gaz)[section].finditer(text)) == expected


def test_default_gazetteers_ship_complete(gaz):
    assert len(gaz.classes) == 12
    assert len(gaz.races) == 9
    assert len(gaz.skills) == 18
    assert [label for label, _ in gaz.pronoun_sets] == [
        "he/him", "she/her", "they/them"
    ]
    assert "goblin" in gaz.monsters
    assert "axe" in gaz.items
    assert "the" in gaz.stopwords


def test_parse_custom_file(tmp_path):
    path = tmp_path / "gaz.txt"
    path.write_text(
        "# comment\n"
        "[classes]\n"
        "artificer\n"
        "[races]\n"
        "goliath\n"
        "[skills]\n"
        "tinkering\n"
        "[pronoun_sets]\n"
        "ze/zir: ze, zir\n"
        "[items]\n"
        "hammer\n"
        "[monsters]\n"
        "mimic\n"
        "[stopwords]\n"
        "the\n",
        encoding="utf-8",
    )
    custom = load_gazetteers(path)
    assert custom.classes == ("artificer",)
    assert custom.pronoun_sets == (("ze/zir", ("ze", "zir")),)
    # Unconfigured sections fall back to built-in keyword defaults.
    assert custom.attack_words == ("attack",)


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(FormatError, match="unknown section"):
        load_gazetteers(gazetteer_file(tmp_path, "[nonsense]\nfoo\n"))


# The line separators of str.splitlines that do not end a line in any
# input of the package: only \n, \r and \r\n do, as in read_jsonl.
_NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("separator", _NOT_LINE_ENDS, ids=ascii)
def test_only_newlines_end_a_gazetteer_line(tmp_path, separator):
    path = tmp_path / "gaz.txt"
    path.write_text(f"[classes]\nwiz{separator}ard\n[bogus]\n", encoding="utf-8")
    with pytest.raises(FormatError) as raised:
        load_gazetteers(path)
    assert str(raised.value) == f"line 3: {path}: unknown section 'bogus'"


@pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=ascii)
def test_each_newline_ends_a_gazetteer_line(tmp_path, end):
    path = tmp_path / "gaz.txt"
    path.write_bytes(f"[classes]{end}wizard{end}[bogus]{end}".encode())
    with pytest.raises(FormatError, match=r"^line 3: .*: unknown section 'bogus'$"):
        load_gazetteers(path)
    path.write_bytes(f"[classes]{end}wizard{end}\xff{end}".encode("latin-1"))
    with pytest.raises(FormatError, match=r"^line 3: .*: not UTF-8"):
        load_gazetteers(path)


def test_term_before_section_rejected(tmp_path):
    with pytest.raises(FormatError, match="^line 1: .*: term appears before any"):
        load_gazetteers(gazetteer_file(tmp_path, "orphan\n[classes]\n"))


def test_pronoun_line_needs_colon(tmp_path):
    with pytest.raises(FormatError, match="^line 2: .*: pronoun set"):
        load_gazetteers(gazetteer_file(tmp_path, "[pronoun_sets]\nhe him his\n"))


@pytest.mark.parametrize(
    "text, line",
    [
        ("[monsters]\ngoblin\n-goblin\n", "line 3: term '-goblin'"),
        ("[classes]\n...\n", "line 2: term '...'"),
        ("[attack_words]\n'tack\n", "line 2: term \"'tack\""),
        ("[pronoun_sets]\nze/zir: ze, -zir\n", "line 2: term '-zir'"),
        ("[items]\nrope\n-spare\n", "line 3: term '-spare'"),
    ],
)
def test_term_must_start_with_a_word_character(tmp_path, text, line):
    # A match starts where a \w run does, so no text could match these; an
    # item or a stopword is looked up as a word.
    path = gazetteer_file(tmp_path, text)
    with pytest.raises(FormatError) as raised:
        load_gazetteers(path)
    number, term = line.split(": ", 1)
    assert str(raised.value) == (
        f"{number}: {path}: {term} does not start with a word character"
    )


def test_matcher_whole_word_case_insensitive():
    gaz = gazetteers_with(races=("elf", "half-elf"))
    assert gaz.find("An Elf and a half-elf but not himself")["races"] == [
        ("elf", 3),
        ("half-elf", 13),
    ]


def test_matcher_prefers_longer_terms():
    gaz = gazetteers_with(skills=("animal handling", "animal"))
    assert gaz.find("an animal handling check")["skills"] == [
        ("animal handling", 3)
    ]


def test_plural_matcher_reports_singular():
    gaz = gazetteers_with(monsters=("goblin", "wolf"))
    found = gaz.find("goblins and wolves? no, goblin")["monsters"]
    assert [t for t, _ in found] == ["goblin", "goblin"]


@pytest.mark.parametrize(
    "text, term",
    [("the ſorcerer", "sorcerer"), ("the wızard", "wizard"),
     ("the WİZARD", "wizard"), ("the KNIGHT", "knight")],
)
def test_every_spelling_the_pattern_matches_is_reported_canonically(text, term):
    # re.IGNORECASE matches the long s, the dotless and dotted i and the
    # Kelvin sign to ASCII letters, which str.lower() leaves as they are.
    gaz = gazetteers_with(classes=("sorcerer", "wizard", "knight"))
    assert gaz.find(text)["classes"] == [(term, 4)]


def test_empty_matcher_matches_nothing():
    gaz = gazetteers_with(classes=())
    assert gaz.find("anything at all")["classes"] == []


def test_possessives_for_pronoun_sets(gaz):
    assert gaz.possessives_for(None) == ("my", "our")
    assert gaz.possessives_for("she/her") == ("my", "our", "her")
    assert gaz.possessives_for("he/him") == ("my", "our", "his")


def test_name_blocklist_covers_gazetteers(gaz):
    for term in ("fighter", "dwarf", "goblin", "the", "perception"):
        assert term in gaz.name_blocklist
