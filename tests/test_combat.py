"""Combat span machine and action classification, against hand traces."""

import pytest
from hypothesis import given, strategies as st

from pbpstate.characters import post_facts
from pbpstate.combat import (
    WINDOW_CHARS,
    annotate_turn_actions,
    classify_roll_action,
    detect_combat_spans,
    extract_monsters,
    is_attack_roll,
    is_initiative_roll,
)
from pbpstate.dice import extract_rolls
from pbpstate.errors import ConfigError
from pbpstate.models import ActionKind, CombatSpan

from conftest import make_campaign

NO_ROLL = "The road winds on."
INITIATIVE = "Roll initiative! (1d20+2)[15]"
ATTACK = "Attack: (1d20+6)[20]"
CHECK = "Perception: (1d20+3)[9]"


def campaign_of(texts):
    return make_campaign([("p", t) for t in texts])


def facts_of(campaign, gaz):
    return [post_facts(p.paragraphs, gaz) for p in campaign.posts]


def detect_spans(campaign, gaz, **kwargs):
    return detect_combat_spans(campaign, facts_of(campaign, gaz), **kwargs)


def monsters_of(campaign, span, gaz):
    return extract_monsters(campaign, span, facts_of(campaign, gaz))


def actions_of(campaign, gaz):
    return annotate_turn_actions(campaign, facts_of(campaign, gaz))


def roll_and_context(text):
    rolls = extract_rolls([text])
    assert len(rolls) == 1
    return rolls[0], text


def test_config_validation(gaz):
    with pytest.raises(ConfigError, match="gap_turns must be at least 1"):
        detect_spans(campaign_of([INITIATIVE]), gaz, gap_turns=0)


class TestInitiativeAndAttack:
    def test_initiative_keyword_with_d20(self, gaz):
        roll, context = roll_and_context(INITIATIVE)
        assert is_initiative_roll(roll, gaz.find(context))

    def test_d20_without_keyword(self, gaz):
        roll, context = roll_and_context(CHECK)
        assert not is_initiative_roll(roll, gaz.find(context))

    def test_non_d20_with_keyword(self, gaz):
        roll, context = roll_and_context("initiative bonus (1d6)[3]")
        assert not is_initiative_roll(roll, gaz.find(context))

    def test_attack_keyword_with_d20(self, gaz):
        roll, context = roll_and_context(ATTACK)
        assert is_attack_roll(roll, gaz.find(context))

    def test_skill_keyword_is_not_attack(self, gaz):
        roll, context = roll_and_context("athletics (1d20+1)[7]")
        assert not is_attack_roll(roll, gaz.find(context))

    def test_damage_die_with_attack_keyword(self, gaz):
        roll, context = roll_and_context("attack damage (1d8)[5]")
        assert not is_attack_roll(roll, gaz.find(context))

    def test_keyword_outside_window(self, gaz):
        # A keyword exactly WINDOW_CHARS before the roll counts; one more
        # character of distance puts it outside.
        for gap, near in [(WINDOW_CHARS, True), (WINDOW_CHARS + 1, False)]:
            text = "initiative" + " " * (gap - len("initiative")) + "(1d20)[9]"
            roll = extract_rolls([text])[0]
            assert roll.char_offset == gap
            assert is_initiative_roll(roll, gaz.find(text)) is near


class TestDetectSpans:
    def test_hand_traced_span(self, gaz):
        texts = [NO_ROLL, NO_ROLL, INITIATIVE, ATTACK, ATTACK] + [NO_ROLL] * 4
        spans = detect_spans(campaign_of(texts), gaz, gap_turns=3)
        assert [(s.start_index, s.end_index) for s in spans] == [(2, 4)]

    def test_no_rolls_no_spans(self, gaz):
        assert detect_spans(campaign_of([NO_ROLL] * 5), gaz) == []

    def test_surprise_attack_runs_to_campaign_end(self, gaz):
        texts = [ATTACK, ATTACK, ATTACK, ATTACK, ATTACK, ATTACK]
        spans = detect_spans(campaign_of(texts), gaz)
        assert [(s.start_index, s.end_index) for s in spans] == [(0, 5)]

    def test_check_roll_does_not_open_combat(self, gaz):
        spans = detect_spans(campaign_of([CHECK, CHECK, NO_ROLL]), gaz)
        assert spans == []

    def test_check_roll_sustains_open_combat(self, gaz):
        texts = [INITIATIVE, CHECK, CHECK, NO_ROLL, NO_ROLL, NO_ROLL]
        spans = detect_spans(campaign_of(texts), gaz, gap_turns=3)
        assert [(s.start_index, s.end_index) for s in spans] == [(0, 2)]

    def test_span_end_is_last_roll_before_gap(self, gaz):
        texts = [INITIATIVE, NO_ROLL, ATTACK] + [NO_ROLL] * 3 + [INITIATIVE, NO_ROLL]
        spans = detect_spans(campaign_of(texts), gaz, gap_turns=3)
        assert [(s.start_index, s.end_index) for s in spans] == [(0, 2), (6, 6)]

    def test_gap_one_closes_immediately(self, gaz):
        texts = [INITIATIVE, NO_ROLL, ATTACK, NO_ROLL]
        spans = detect_spans(campaign_of(texts), gaz, gap_turns=1)
        # The single quiet post at index 1 already closes the span; the
        # attack at index 2 then opens a fresh one.
        assert [(s.start_index, s.end_index) for s in spans] == [(0, 0), (2, 2)]


@given(
    pattern=st.lists(st.sampled_from("ni.ac"), min_size=1, max_size=30),
    gap=st.integers(min_value=1, max_value=5),
)
def test_span_invariants_and_gap_monotonicity(gaz, pattern, gap):
    symbol_text = {
        "n": NO_ROLL,
        ".": NO_ROLL,
        "i": INITIATIVE,
        "a": ATTACK,
        "c": CHECK,
    }
    campaign = campaign_of([symbol_text[s] for s in pattern])
    opens = {"i", "a"}

    def bounds(g):
        return [
            (s.start_index, s.end_index)
            for s in detect_spans(campaign, gaz, gap_turns=g)
        ]

    spans = bounds(gap)
    previous_end = -1
    for start, end in spans:
        assert start > previous_end
        assert pattern[start] in opens
        assert pattern[end] in {"i", "a", "c"}
        previous_end = end

    wider = bounds(gap + 1)
    assert len(wider) <= len(spans)
    for (_, end), (_, wider_end) in zip(spans, wider):
        assert wider_end >= end


class TestMonsters:
    def test_number_word_count(self, gaz, sample_game):
        span = CombatSpan(start_index=7, end_index=11)
        monsters = monsters_of(sample_game, span, gaz)
        assert monsters == [("goblin", 3)]

    def test_count_defaults_to_one(self, gaz):
        campaign = campaign_of(["a goblin lurks."])
        assert monsters_of(campaign, CombatSpan(0, 0), gaz) == [("goblin", 1)]

    def test_no_gazetteer_monsters(self, gaz):
        campaign = campaign_of(["a large badger lurks."])
        assert monsters_of(campaign, CombatSpan(0, 0), gaz) == []

    def test_largest_nearby_number_wins(self, gaz):
        campaign = campaign_of(["a few goblins close in. Two of the goblins charge."])
        assert monsters_of(campaign, CombatSpan(0, 0), gaz) == [("goblin", 2)]

    def test_numbers_outside_window_ignored(self, gaz):
        # A number exactly WINDOW_CHARS after the mention counts; one more
        # character of distance puts it outside.
        for gap, count in [(WINDOW_CHARS, 5), (WINDOW_CHARS + 1, 1)]:
            text = "goblins" + " " * (gap - len("goblins")) + "5 somethings"
            assert text.index("5") == gap
            assert monsters_of(campaign_of([text]), CombatSpan(0, 0), gaz) == [
                ("goblin", count)
            ]


class TestClassifyRoll:
    def test_skill_check(self, gaz):
        roll, context = roll_and_context("Perception: (1d20+3)[15]")
        action = classify_roll_action(roll, gaz.find(context))
        assert action.kind is ActionKind.SKILL_CHECK
        assert action.skill == "perception"

    def test_damage(self, gaz):
        roll, context = roll_and_context("Damage: (1d8+2)[10]")
        action = classify_roll_action(roll, gaz.find(context))
        assert action.kind is ActionKind.DAMAGE_OR_HEAL

    def test_bare_d20_is_unknown_check(self, gaz):
        roll, context = roll_and_context("(1d20)[11]")
        action = classify_roll_action(roll, gaz.find(context))
        assert action.kind is ActionKind.UNKNOWN_CHECK

    def test_heal_keyword(self, gaz):
        roll, context = roll_and_context("heal (2d4+2)[7]")
        assert classify_roll_action(roll, gaz.find(context)).kind is (
            ActionKind.DAMAGE_OR_HEAL
        )

    def test_non_d20_without_damage_keyword_yields_nothing(self, gaz):
        roll, context = roll_and_context("rolling hard (2d6)[9]")
        assert classify_roll_action(roll, gaz.find(context)) is None

    def test_nearest_keyword_wins(self, gaz):
        context = "athletics or not, attack now: (1d20)[12]"
        roll = extract_rolls([context])[0]
        action = classify_roll_action(roll, gaz.find(context))
        assert action.kind is ActionKind.ATTACK

    def test_equidistant_keywords_take_leftmost(self, gaz):
        # "arcana" and "attack" both start exactly 10 chars from the roll;
        # the leftmost keyword (the skill) must win the tie.
        context = "arcana    (1d20)[9] attack"
        roll = extract_rolls([context])[0]
        assert abs(context.index("arcana") - roll.char_offset) == abs(
            context.index("attack") - roll.char_offset
        )
        action = classify_roll_action(roll, gaz.find(context))
        assert action.kind is ActionKind.SKILL_CHECK
        assert action.skill == "arcana"


class TestAnnotateTurnActions:
    def test_attack_then_damage(self, gaz):
        campaign = campaign_of(
            ["I attack. Attack: (1d20+6)[20] Damage: (1d8+2)[10]"]
        )
        actions = actions_of(campaign, gaz)
        assert [a.kind for a in actions[0]] == [
            ActionKind.ATTACK,
            ActionKind.DAMAGE_OR_HEAL,
        ]

    def test_roll_free_post(self, gaz):
        assert actions_of(campaign_of([NO_ROLL]), gaz) == [[]]

    def test_skill_check_outside_combat(self, gaz):
        campaign = campaign_of(["athletics try (1d20+1)[14]"])
        actions = actions_of(campaign, gaz)
        assert [a.kind for a in actions[0]] == [ActionKind.SKILL_CHECK]
        assert actions[0][0].skill == "athletics"

    def test_actions_reference_their_posts_rolls(self, gaz):
        campaign = campaign_of([ATTACK, "Damage: (2d6+1)[8]"])
        per_post = actions_of(campaign, gaz)
        for post, actions in zip(campaign.posts, per_post):
            for action in actions:
                assert action.source_roll in post.rolls
