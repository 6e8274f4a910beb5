import re
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from pbpstate.evaluation import SlotReport, ratings_from_record
from pbpstate.icooc import IC, OOC, IcOocModel, LabeledParagraph
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
    _Codec,
    _encode,
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


ACTION = Action(kind=ActionKind.SKILL_CHECK, source_roll=ROLL, skill="arcana")
GOLD = GoldAnnotations(
    turn_states=(
        TurnState(player_id="p1", actions=(ACTION,)), TurnState(player_id="dm")
    ),
    profiles={
        "p1": CharacterProfile(
            player_id="p1", name="Brenna", spells=frozenset({"b", "a"})
        ),
        "dm": CharacterProfile(
            player_id="dm", is_dm=True, character_class=DUNGEON_MASTER
        ),
    },
    combat_spans=(CombatSpan(0, 0, (("goblin", 2), ("orc", 1))), CombatSpan(1, 1)),
    paragraph_labels=(("IC", "OOC"), ("IC",)),
    cue_posts=(0,),
)


@pytest.mark.parametrize(
    "obj, keys",
    [
        pytest.param(
            ROLL,
            ["count", "faces", "modifier", "result", "paragraph_index", "char_offset",
             "consistent"],
            id="roll",
        ),
        pytest.param(ACTION, ["kind", "skill", "roll"], id="action"),
        pytest.param(
            GOLD.turn_states[0],
            ["player_id", "character_name", "character_class", "race", "pronouns",
             "inventory", "in_combat", "in_character", "actions"],
            id="turn-state",
        ),
        pytest.param(
            GOLD.profiles["p1"],
            ["player_id", "is_dm", "name", "character_class", "race", "pronouns",
             "inventory", "spells"],
            id="profile",
        ),
        pytest.param(GOLD.combat_spans[0], ["start_index", "end_index", "monsters"],
                     id="span"),
        pytest.param(
            GOLD,
            ["turn_states", "profiles", "combat_spans", "paragraph_labels",
             "cue_posts"],
            id="gold",
        ),
        pytest.param(LabeledParagraph(text="a road", label="IC"), ["text", "label"],
                     id="labeled-paragraph"),
    ],
)
def test_record_type_dict_round_trip(obj, keys):
    # The written key order is part of every output's bytes.
    assert list(obj.to_dict()) == keys
    assert type(obj).from_dict(obj.to_dict()) == obj


# Instances of every class with a derived codec, drawn from the same field
# plan the codec reads: each field ``__init__`` takes is drawn by its
# annotation, except where ``_VALID`` names a narrower strategy that keeps
# the class's own checks.
_SCALARS = {
    str: st.text(max_size=8),
    str | None: st.none() | st.text(max_size=8),
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),
}


def _values(tp):
    """A strategy for values of the field type ``tp``."""
    origin, args = get_origin(tp), get_args(tp)
    if tp in _VALID:
        return _VALID[tp]
    if is_dataclass(tp):
        return _records(tp)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return st.sampled_from(tp)
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(_values(args[0]), max_size=3).map(tuple)
    if origin is tuple:
        return st.tuples(*map(_values, args))
    if origin is frozenset:
        return st.frozensets(_values(args[0]), max_size=3)
    if origin is dict:
        return st.dictionaries(_values(args[0]), _values(args[1]), max_size=3)
    return _SCALARS[tp]


def _records(cls, **drawn):
    """Instances of ``cls``, each field from ``drawn`` or by its annotation."""
    hints = get_type_hints(cls)
    return st.builds(cls, **{
        f.name: drawn[f.name] if f.name in drawn else _values(hints[f.name])
        for f in fields(cls)
        if f.init
    })


def _span(start, end):
    return _records(CombatSpan, start_index=st.just(start), end_index=st.just(end),
                    monsters=_MONSTERS)


def _spans(ends):
    """Sorted, disjoint spans from sorted, distinct ends, two per span."""
    return st.tuples(*(_span(*pair) for pair in zip(ends[::2], ends[1::2])))


def _gold(states):
    labels = st.lists(_values(tuple[str, ...]), min_size=len(states),
                      max_size=len(states)).map(tuple)
    return _records(
        GoldAnnotations,
        turn_states=st.just(tuple(states)),
        # One DM, last, so that no player filed under its id replaces it.
        profiles=st.tuples(st.lists(_PLAYER, max_size=3), _DM).map(
            lambda drawn: {p.player_id: p for p in [*drawn[0], drawn[1]]}
        ),
        combat_spans=st.lists(_NATURALS, max_size=6, unique=True).map(sorted)
        .flatmap(_spans),
        paragraph_labels=st.just(()) | labels,
    )


def _model(n):
    scores = st.tuples(*[_SCALARS[float]] * n)
    return _records(
        IcOocModel,
        labels=st.lists(st.text(max_size=4), min_size=n, max_size=n, unique=True)
        .map(tuple),
        priors=scores,
        weights=st.dictionaries(st.text(max_size=4), scores, max_size=3),
    )


_NATURALS = st.integers(0, 10**6)
_MONSTERS = st.lists(
    st.tuples(st.text(max_size=8), st.integers(1, 10**6)), max_size=3
).map(tuple)
_VALID = {}
_VALID[DiceRoll] = _records(
    DiceRoll, count=st.integers(1, 10**6), faces=st.integers(2, 10**6),
    paragraph_index=_NATURALS, char_offset=_NATURALS,
)
_UNSKILLED = [kind for kind in ActionKind if kind != ActionKind.SKILL_CHECK]
_VALID[Action] = _records(
    Action, kind=st.sampled_from(_UNSKILLED), skill=st.none()
) | _records(Action, kind=st.just(ActionKind.SKILL_CHECK), skill=st.text(max_size=8))
_PLAYER = _records(CharacterProfile, is_dm=st.just(False))
_DM = st.builds(CharacterProfile, st.text(max_size=8), is_dm=st.just(True),
                character_class=st.just(DUNGEON_MASTER))
_VALID[CharacterProfile] = _PLAYER | _DM
_VALID[CombatSpan] = st.tuples(_NATURALS, _NATURALS).map(sorted).flatmap(
    lambda ends: _span(*ends)
)
_VALID[GoldAnnotations] = st.lists(_values(TurnState), max_size=3).flatmap(_gold)
_VALID[LabeledParagraph] = _records(
    LabeledParagraph, text=st.text(min_size=1).filter(str.strip),
    label=st.sampled_from((IC, OOC)),
)
_VALID[IcOocModel] = st.integers(2, 3).flatmap(_model)


@pytest.mark.parametrize(
    "cls", _Codec.__subclasses__(), ids=lambda cls: cls.__name__
)
def test_every_codec_round_trips_and_writes_its_keys_in_field_order(cls):
    keys = [f.metadata.get("key", f.name) for f in fields(cls)]

    @settings(max_examples=40, deadline=None)
    @given(_values(cls))
    def round_trip(obj):
        d = obj.to_dict()
        assert list(d) == keys
        assert cls.from_dict(d) == obj

    round_trip()


def test_gold_writes_sorted_sets_and_profiles_and_pairs():
    d = GOLD.to_dict()
    assert list(d["profiles"]) == ["dm", "p1"]
    assert d["profiles"]["p1"]["spells"] == ["a", "b"]
    assert d["combat_spans"][0]["monsters"] == [["goblin", 2], ["orc", 1]]
    assert d["paragraph_labels"] == [["IC", "OOC"], ["IC"]]
    assert d["turn_states"][0]["actions"][0] == {
        "kind": "skill_check", "skill": "arcana", "roll": ROLL.to_dict()
    }
    # A dict of scalars, as a report holds, is written by sorted key.
    report = SlotReport(
        per_slot={"race": 0.5, "name": 1.0}, support={"race": 2, "name": 1},
        joint_accuracy=0.5, joint_support=2, overfill={"race": 0, "name": 3},
    )
    encoded = _encode(report)
    assert list(encoded.items()) == [
        ("per_slot", {"name": 1.0, "race": 0.5}),
        ("support", {"name": 1, "race": 2}),
        ("mean_accuracy", 0.75),
        ("joint_accuracy", 0.5),
        ("joint_support", 2),
        ("overfill", {"name": 3, "race": 0}),
    ]
    assert [list(encoded[key]) for key in ("per_slot", "support", "overfill")] == [
        ["name", "race"]
    ] * 3


def test_a_post_writes_its_rolls_only_on_request():
    post = Post(post_id="a", author_id="p1", index=0, paragraphs=("hi (1d20)[11]",),
                rolls=(ROLL,))
    campaign = Campaign(campaign_id="c", posts=(post,))
    assert campaign.to_dict() == {
        "campaign_id": "c",
        "posts": [{"post_id": "a", "author_id": "p1", "paragraphs": ["hi (1d20)[11]"]}],
    }
    with_rolls = campaign.to_dict(include_rolls=True)["posts"][0]
    assert list(with_rolls) == ["post_id", "author_id", "paragraphs", "rolls"]
    assert with_rolls["rolls"] == [ROLL.to_dict()]


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
        pytest.param(
            GoldAnnotations.from_dict,
            {"turn_states": [], "paragraph_labels": ["IC"]},
            "paragraph_labels[0]: must be a list, not str", id="gold-labels",
        ),
        pytest.param(
            Action.from_dict, {"kind": 3, "roll": ROLL_JSON},
            "kind: must be a string, not int", id="action-kind",
        ),
        pytest.param(
            DiceRoll.from_dict, {**ROLL_JSON, "consistent": "yes"},
            "consistent: must be true or false, not str", id="roll-consistent",
        ),
    ],
)
def test_each_decoder_names_the_path_to_a_mistyped_field(decode, d, problem):
    # Every decoder checks types through the models field checkers, so a
    # mistyped field reads "path: field: must be ..., not ...".
    with pytest.raises(ValueError) as excinfo:
        decode(d)
    assert str(excinfo.value) == problem
    assert re.fullmatch(r"(.+?: )+must be [^,]+, not \w+", problem)


@pytest.mark.parametrize(
    "decode, d, problem",
    [
        pytest.param(
            DiceRoll.from_dict, {"faces": 20, "modifier": 0, "result": 5},
            "count: missing", id="roll-missing",
        ),
        pytest.param(
            CharacterProfile.from_dict, {"is_dm": False},
            "player_id: missing", id="profile-missing",
        ),
        pytest.param(
            TurnState.from_dict, {"in_combat": True},
            "player_id: missing", id="turn-state-missing",
        ),
        pytest.param(
            CombatSpan.from_dict, {"end_index": 1},
            "start_index: missing", id="span-missing",
        ),
        pytest.param(
            Action.from_dict, {"roll": ROLL_JSON},
            "kind: missing", id="action-kind-missing",
        ),
        pytest.param(
            Action.from_dict, {"kind": "attack"},
            "roll: missing", id="action-roll-missing",
        ),
        pytest.param(
            GoldAnnotations.from_dict, {"cue_posts": []},
            "turn_states: missing", id="gold-missing",
        ),
        pytest.param(
            LabeledParagraph.from_dict, {"label": "IC"},
            "text: missing", id="labeled-paragraph-missing",
        ),
        pytest.param(
            Action.from_dict, {"kind": "bogus", "roll": ROLL_JSON},
            "kind: 'bogus' is not a valid ActionKind", id="action-kind-value",
        ),
        pytest.param(
            DiceRoll.from_dict, {**ROLL_JSON, "result": 50, "consistent": True},
            "consistent: must be false, as the other fields give",
            id="roll-consistent",
        ),
        pytest.param(
            CombatSpan.from_dict,
            {"start_index": 0, "end_index": 1, "monsters": [["goblin", 2, 9]]},
            "monsters[0]: must be a [name, count] pair, not 3 items",
            id="monster-arity",
        ),
        pytest.param(
            GoldAnnotations.from_dict,
            {"turn_states": [], "profiles": {"p1": {"player_id": "p2"}}},
            "profiles['p1']: player_id: must be 'p1', not 'p2'", id="misfiled-profile",
        ),
        pytest.param(
            TurnState.from_dict, "p1",
            "a turn state must be an object, not str", id="turn-state-object",
        ),
        pytest.param(
            GoldAnnotations.from_dict, {"turn_states": [["p1"]]},
            "turn_states[0]: a turn state must be an object, not list",
            id="gold-state-object",
        ),
        pytest.param(
            TurnState.from_dict, {"player_id": "p1", "actions": ["attack"]},
            "actions[0]: must be an object, not str", id="action-object",
        ),
        pytest.param(
            Action.from_dict, {"kind": "attack", "roll": [1, 20]},
            "roll: must be an object, not list", id="roll-object",
        ),
        pytest.param(
            CombatSpan.from_dict, {"start_index": 0, "end_index": 1, "bogus": 1},
            "bogus: not a combat span field", id="span-key",
        ),
        pytest.param(
            DiceRoll.from_dict, {**ROLL_JSON, "bogus": 1},
            "bogus: not a roll field", id="roll-key",
        ),
    ],
)
def test_each_decoder_names_a_missing_or_invalid_field(decode, d, problem):
    with pytest.raises(ValueError) as excinfo:
        decode(d)
    assert str(excinfo.value) == problem


def test_boolean_fields_still_take_booleans():
    state = TurnState.from_dict({"player_id": "p1", "in_combat": True})
    assert state.in_combat is True
    profile = CharacterProfile.from_dict({"player_id": "dm", "is_dm": True,
                                          "character_class": DUNGEON_MASTER})
    assert profile.is_dm is True
