import pytest

from pbpstate.errors import ConfigError
from pbpstate.gazetteers import TermMatcher, load_gazetteers, parse_gazetteers


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


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_gazetteers("[nonsense]\nfoo\n")


def test_term_before_section_rejected():
    with pytest.raises(ConfigError, match="before any"):
        parse_gazetteers("orphan\n[classes]\n")


def test_pronoun_line_needs_colon():
    with pytest.raises(ConfigError, match="pronoun set"):
        parse_gazetteers("[pronoun_sets]\nhe him his\n")


def test_matcher_whole_word_case_insensitive():
    matcher = TermMatcher(("elf", "half-elf"))
    assert list(matcher.finditer("An Elf and a half-elf but not himself")) == [
        ("elf", 3),
        ("half-elf", 13),
    ]


def test_matcher_prefers_longer_terms():
    matcher = TermMatcher(("animal handling", "animal"))
    assert list(matcher.finditer("an animal handling check")) == [
        ("animal handling", 3)
    ]


def test_plural_matcher_reports_singular():
    matcher = TermMatcher(("goblin", "wolf"), plural=True)
    assert [t for t, _ in matcher.finditer("goblins and wolves? no, goblin")] == [
        "goblin",
        "goblin",
    ]


@pytest.mark.parametrize(
    "text, term",
    [("the ſorcerer", "sorcerer"), ("the wızard", "wizard"),
     ("the WİZARD", "wizard"), ("the \u212aNIGHT", "knight")],
)
def test_every_spelling_the_pattern_matches_is_reported_canonically(text, term):
    # re.IGNORECASE matches the long s, the dotless and dotted i and the
    # Kelvin sign to ASCII letters, which str.lower() leaves as they are.
    matcher = TermMatcher(("sorcerer", "wizard", "knight"))
    assert list(matcher.finditer(text)) == [(term, 4)]


def test_empty_matcher_matches_nothing():
    matcher = TermMatcher(())
    assert list(matcher.finditer("anything at all")) == []


def test_possessives_for_pronoun_sets(gaz):
    assert gaz.possessives_for(None) == ("my", "our")
    assert gaz.possessives_for("she/her") == ("my", "our", "her")
    assert gaz.possessives_for("he/him") == ("my", "our", "his")


def test_name_blocklist_covers_gazetteers(gaz):
    for term in ("fighter", "dwarf", "goblin", "the", "perception"):
        assert term in gaz.name_blocklist
