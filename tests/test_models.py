import re

import pytest
from hypothesis import given, strategies as st

from pbpstate.errors import FormatError
from pbpstate.evaluation import ratings_from_record
from pbpstate.icooc import LabeledParagraph
from pbpstate.models import (
    DUNGEON_MASTER,
    Action,
    ActionKind,
    Campaign,
    CharacterProfile,
    CombatSpan,
    DiceRoll,
    GoldAnnotations,
    Post,
    TurnState,
    validate_spans,
)
from pbpstate.records import slot_rows_from_record
from pbpstate.transcripts import campaign_from_record

ROLL = DiceRoll(count=1, faces=20, modifier=0, result=11)


def test_dice_roll_rejects_zero_count():
    with pytest.raises(ValueError, match="count"):
        DiceRoll(count=0, faces=6, modifier=0, result=1)


def test_dice_roll_rejects_one_face():
    with pytest.raises(ValueError, match="faces"):
        DiceRoll(count=1, faces=1, modifier=0, result=1)


def test_inconsistent_roll_is_constructible():
    roll = DiceRoll(count=1, faces=6, modifier=0, result=99)
    assert not roll.consistent


def test_post_rejects_roll_outside_paragraphs():
    with pytest.raises(ValueError, match="rolls"):
        Post(
            post_id="p",
            author_id="a",
            index=0,
            paragraphs=("x",),
            rolls=(DiceRoll(1, 6, 0, 3, paragraph_index=2),),
        )


def test_post_rejects_empty_paragraphs_without_rolls():
    with pytest.raises(ValueError, match="paragraphs"):
        Post(post_id="p", author_id="a", index=0, paragraphs=())


def test_campaign_requires_contiguous_indices():
    posts = (
        Post(post_id="a", author_id="x", index=0, paragraphs=("hi",)),
        Post(post_id="b", author_id="x", index=2, paragraphs=("there",)),
    )
    with pytest.raises(ValueError, match="posts"):
        Campaign(campaign_id="c", posts=posts)


def test_campaign_requires_at_least_one_post():
    with pytest.raises(ValueError, match="posts"):
        Campaign(campaign_id="c", posts=())


def test_campaign_player_ids_derived():
    posts = (
        Post(post_id="a", author_id="x", index=0, paragraphs=("hi",)),
        Post(post_id="b", author_id="y", index=1, paragraphs=("yo",)),
    )
    assert Campaign(campaign_id="c", posts=posts).player_ids == {"x", "y"}


def test_dm_profile_must_be_scrubbed():
    with pytest.raises(ValueError, match="name"):
        CharacterProfile(
            player_id="dm", is_dm=True, character_class=DUNGEON_MASTER, name="Bob"
        )
    with pytest.raises(ValueError, match="character_class"):
        CharacterProfile(player_id="dm", is_dm=True, character_class="wizard")


def test_action_skill_presence_tied_to_kind():
    with pytest.raises(ValueError, match="skill"):
        Action(kind=ActionKind.SKILL_CHECK, source_roll=ROLL)
    with pytest.raises(ValueError, match="skill"):
        Action(kind=ActionKind.ATTACK, source_roll=ROLL, skill="arcana")
    ok = Action(kind=ActionKind.SKILL_CHECK, source_roll=ROLL, skill="arcana")
    assert ok.skill == "arcana"


def test_combat_span_ordering():
    with pytest.raises(ValueError, match="end_index"):
        CombatSpan(start_index=4, end_index=2)


def test_validate_spans_rejects_overlap():
    spans = [CombatSpan(0, 3), CombatSpan(3, 5)]
    with pytest.raises(ValueError, match="spans"):
        validate_spans(spans)
    validate_spans([CombatSpan(0, 3), CombatSpan(4, 5)])


def test_turn_state_consistency_with_profile():
    profile = CharacterProfile(
        player_id="p1", name="Aldric", character_class="fighter", race="human"
    )
    match = TurnState(player_id="p1", character_name="Aldric", race="human")
    clash = TurnState(player_id="p1", character_name="Someone")
    assert match.consistent_with(profile)
    assert not clash.consistent_with(profile)


def test_gold_requires_exactly_one_dm():
    state = TurnState(player_id="p0")
    with pytest.raises(ValueError, match="profiles"):
        GoldAnnotations(turn_states=(state,), profiles={})


def test_gold_alignment_check():
    posts = (Post(post_id="a", author_id="p0", index=0, paragraphs=("hi",)),)
    campaign = Campaign(campaign_id="c", posts=posts)
    gold = GoldAnnotations(
        turn_states=(TurnState(player_id="p0"), TurnState(player_id="p0")),
        profiles={
            "p0": CharacterProfile(
                player_id="p0", is_dm=True, character_class=DUNGEON_MASTER
            )
        },
    )
    with pytest.raises(ValueError, match="turn_states"):
        gold.validate_against(campaign)


profile_strategy = st.builds(
    CharacterProfile,
    player_id=st.text(min_size=1, max_size=6),
    is_dm=st.just(False),
    name=st.none() | st.text(min_size=1, max_size=8),
    character_class=st.none() | st.sampled_from(["fighter", "wizard", "rogue"]),
    race=st.none() | st.sampled_from(["human", "elf", "dwarf"]),
    pronouns=st.none() | st.sampled_from(["he/him", "she/her", "they/them"]),
    inventory=st.frozensets(st.sampled_from(["axe", "rope", "torch"]), max_size=3),
    spells=st.frozensets(st.sampled_from(["Ember Lance", "Frost Coil"]), max_size=2),
)


@given(profile_strategy)
def test_profile_dict_round_trip(profile):
    assert CharacterProfile.from_dict(profile.to_dict()) == profile


@given(
    st.builds(
        DiceRoll,
        count=st.integers(1, 10),
        faces=st.integers(2, 20),
        modifier=st.integers(-5, 5),
        result=st.integers(-10, 100),
        paragraph_index=st.integers(0, 3),
        char_offset=st.integers(0, 50),
    )
)
def test_dice_roll_dict_round_trip(roll):
    assert DiceRoll.from_dict(roll.to_dict()) == roll


def test_turn_state_dict_round_trip():
    state = TurnState(
        player_id="p2",
        character_name="Brenna",
        character_class="wizard",
        race="elf",
        pronouns="she/her",
        inventory=frozenset({"staff", "spellbook"}),
        in_combat=True,
        in_character=False,
        actions=(
            Action(kind=ActionKind.ATTACK, source_roll=ROLL),
            Action(kind=ActionKind.SKILL_CHECK, source_roll=ROLL, skill="arcana"),
        ),
    )
    assert TurnState.from_dict(state.to_dict()) == state


def test_combat_span_dict_round_trip():
    span = CombatSpan(start_index=2, end_index=5, monsters=(("goblin", 3),))
    assert CombatSpan.from_dict(span.to_dict()) == span


@pytest.mark.parametrize(
    "decode, d, problem",
    [
        pytest.param(
            DiceRoll.from_dict,
            {"count": True, "faces": 20, "modifier": 0, "result": 5},
            "count: must be an integer, not bool",
            id="roll-count",
        ),
        pytest.param(
            DiceRoll.from_dict,
            {"count": 1, "faces": 20, "modifier": False, "result": 5},
            "modifier: must be an integer, not bool",
            id="roll-modifier",
        ),
        pytest.param(
            CombatSpan.from_dict,
            {"start_index": False, "end_index": 1},
            "start_index: must be an integer, not bool",
            id="span-start",
        ),
        pytest.param(
            CombatSpan.from_dict,
            {"start_index": 0, "end_index": 1, "monsters": [["goblin", True]]},
            "monsters[0]: count: must be an integer, not bool",
            id="monster-count",
        ),
        pytest.param(
            GoldAnnotations.from_dict,
            {"turn_states": [], "cue_posts": [0, True]},
            "cue_posts[1]: must be an integer, not bool",
            id="cue-posts",
        ),
    ],
)
def test_json_booleans_are_not_integers(decode, d, problem):
    with pytest.raises(ValueError) as excinfo:
        decode(d)
    assert str(excinfo.value) == problem


ROLL_JSON = {"count": 1, "faces": 20, "modifier": 0, "result": 5}


@pytest.mark.parametrize(
    "decode, d, problem",
    [
        pytest.param(
            DiceRoll.from_dict, {**ROLL_JSON, "result": "5"},
            "result: must be an integer, not str", id="roll",
        ),
        pytest.param(
            Action.from_dict, {"kind": "attack", "roll": {**ROLL_JSON, "faces": 2.5}},
            "roll: faces: must be an integer, not float", id="action",
        ),
        pytest.param(
            TurnState.from_dict,
            {"player_id": "p1",
             "actions": [{"kind": "attack", "roll": {**ROLL_JSON, "count": "1"}}]},
            "actions[0]: roll: count: must be an integer, not str", id="turn-state",
        ),
        pytest.param(
            CharacterProfile.from_dict, {"player_id": "p1", "spells": ["light", 3]},
            "spells[1]: must be a string, not int", id="profile",
        ),
        pytest.param(
            CombatSpan.from_dict,
            {"start_index": 0, "end_index": 1, "monsters": [["goblin", "2"]]},
            "monsters[0]: count: must be an integer, not str", id="span",
        ),
        pytest.param(
            GoldAnnotations.from_dict,
            {"turn_states": [],
             "profiles": {"p1": {"player_id": "p1", "race": ["elf"]}}},
            "profiles['p1']: race: must be a string or null, not list", id="gold",
        ),
        pytest.param(
            LabeledParagraph.from_dict, {"text": "a road", "label": None},
            "label: must be a string, not NoneType", id="labeled-paragraph",
        ),
        pytest.param(
            campaign_from_record,
            {"campaign_id": "c1", "posts": [
                {"post_id": "a", "author_id": "p1", "paragraphs": ["hi", 7]}]},
            "post 0 of campaign 'c1': paragraphs[1]: must be a string, not int",
            id="transcript",
        ),
        pytest.param(
            slot_rows_from_record,
            {"campaign_id": "c1", "turn_slots": [{"race": {"value": 3}}]},
            "turn_slots[0]: race: value: must be a string or null, not int",
            id="slot-rows",
        ),
        pytest.param(
            slot_rows_from_record,
            {"campaign_id": "c1", "turn_slots": [
                {"race": {"value": "elf", "source": ["heuristic"]}}]},
            "turn_slots[0]: race: source: must be a string or null, not list",
            id="slot-source",
        ),
        pytest.param(
            lambda d: ratings_from_record(d, None), {"scores": [4, "5"]},
            "scores[1]: must be a number, not str", id="ratings",
        ),
    ],
)
def test_each_decoder_names_the_path_to_a_mistyped_field(decode, d, problem):
    # Every decoder checks types through the models field checkers, so a
    # mistyped field reads "path: field: must be ..., not ...".
    with pytest.raises((ValueError, FormatError)) as excinfo:
        decode(d)
    assert str(excinfo.value) == problem
    assert re.fullmatch(r"(.+?: )+must be [^,]+, not \w+", problem)


def test_boolean_fields_still_take_booleans():
    state = TurnState.from_dict({"player_id": "p1", "in_combat": True})
    assert state.in_combat is True
    profile = CharacterProfile.from_dict({"player_id": "dm", "is_dm": True,
                                          "character_class": DUNGEON_MASTER})
    assert profile.is_dm is True
