import pytest
from hypothesis import given, strategies as st

from pbpstate.dice import MAX_DIGITS, extract_rolls, format_dice_expr
from pbpstate.models import DiceRoll


def one_roll(text):
    """The only roll ``extract_rolls`` finds in ``text``."""
    [roll] = extract_rolls([text])
    return roll


def test_parse_attack_roll():
    roll = one_roll("(1d20+6)[20]")
    assert (roll.count, roll.faces, roll.modifier, roll.result) == (1, 20, 6, 20)


def test_parse_damage_roll():
    roll = one_roll("(1d8+2)[10]")
    assert (roll.count, roll.faces, roll.modifier, roll.result) == (1, 8, 2, 10)


def test_parse_without_modifier():
    roll = one_roll("(2d6)[7]")
    assert (roll.count, roll.faces, roll.modifier, roll.result) == (2, 6, 0, 7)


# An impossible die, which DiceRoll rejects with a ValueError, is no roll.
def test_parse_zero_dice_is_value_error():
    assert extract_rolls(["(0d6)[3]"]) == []


def test_parse_one_face_is_value_error():
    assert extract_rolls(["(1d1)[1]"]) == []


@pytest.mark.parametrize(
    "text",
    ["", "1d20", "(1d20+6)", "[20]", "( 1d20 +6 )[20]", "(1d20 + 6)[20]", "xd20[3]"],
)
def test_parse_rejects_non_matching_text(text):
    assert extract_rolls([text]) == []


def test_parse_trims_surrounding_whitespace():
    roll = one_roll("  (1d6)[4]  ")
    assert (roll.faces, roll.char_offset) == (6, 2)


def test_format_with_positive_modifier():
    roll = DiceRoll(count=1, faces=20, modifier=6, result=20)
    assert format_dice_expr(roll) == "(1d20+6)[20]"


def test_format_omits_zero_modifier():
    roll = DiceRoll(count=2, faces=6, modifier=0, result=7)
    assert format_dice_expr(roll) == "(2d6)[7]"


def test_format_negative_modifier():
    roll = DiceRoll(count=1, faces=4, modifier=-1, result=2)
    assert format_dice_expr(roll) == "(1d4-1)[2]"


def test_extract_two_rolls_with_offsets():
    # Offsets counted by hand over the literal string: the opening
    # parentheses sit at indices 8 and 29.
    rolls = extract_rolls(["Attack: (1d20+6)[20] Damage: (1d8+2)[10]"])
    assert [(r.char_offset, r.faces) for r in rolls] == [(8, 20), (29, 8)]


def test_extract_no_dice():
    assert extract_rolls(["no dice here"]) == []


def test_extract_tracks_paragraph_index():
    rolls = extract_rolls(["(1d20+6)[20]", "(1d6)[4]"])
    assert [r.paragraph_index for r in rolls] == [0, 1]


@pytest.mark.parametrize(
    "text",
    ["(1{0}d6)[3]", "(1d2{0})[3]", "(1d6+1{0})[3]", "(1d6-1{0})[3]", "(1d6)[-1{0}]"],
)
def test_a_number_over_max_digits_is_an_impossible_die(text):
    assert one_roll(text.format("0" * (MAX_DIGITS - 1))).count >= 1
    too_long = text.format("0" * MAX_DIGITS)
    assert extract_rolls([too_long]) == []
    assert extract_rolls([too_long + " (1d6)[4]"]) == [
        DiceRoll(count=1, faces=6, modifier=0, result=4, char_offset=len(too_long) + 1)
    ]


def test_extract_skips_impossible_dice():
    assert extract_rolls(["(0d6)[3] then (1d6)[3]"]) == [
        DiceRoll(count=1, faces=6, modifier=0, result=3, char_offset=14)
    ]


def test_consistency_inside_range():
    assert one_roll("(1d20+6)[20]").consistent


def test_consistency_below_forced_minimum():
    assert not one_roll("(1d8+2)[1]").consistent


def test_consistency_at_maximum_face():
    assert one_roll("(1d20)[20]").consistent


roll_strategy = st.builds(
    DiceRoll,
    count=st.integers(min_value=1, max_value=40),
    faces=st.integers(min_value=2, max_value=100),
    modifier=st.integers(min_value=-30, max_value=30),
    result=st.integers(min_value=-50, max_value=500),
)


@given(roll_strategy)
def test_format_parse_round_trip(roll):
    assert extract_rolls([format_dice_expr(roll)]) == [roll]


@given(st.lists(st.text(max_size=40), max_size=4))
def test_extract_offsets_point_at_open_paren(paragraphs):
    for roll in extract_rolls(paragraphs):
        paragraph = paragraphs[roll.paragraph_index]
        assert paragraph[roll.char_offset] == "("
        assert one_roll(
            paragraph[roll.char_offset :].split("]")[0] + "]"
        ).count == roll.count
