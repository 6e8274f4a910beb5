"""Turn-block rendering and example building, golden-file pinned."""

import io
import json
from collections import Counter
from pathlib import Path

import pytest

from pbpstate.models import (
    DUNGEON_MASTER,
    Action,
    ActionKind,
    DiceRoll,
    TurnState,
)
from pbpstate import serialize
from pbpstate.serialize import (
    ControlVariant,
    FinetuneExample,
    build_examples,
    render_turn_block,
    write_examples,
)
from pbpstate.transcripts import dump_json_line

DATA_DIR = Path(__file__).parent / "data"

ATTACK_ACTION = Action(
    kind=ActionKind.ATTACK, source_roll=DiceRoll(1, 20, 6, 20)
)


def magnus_turn():
    state = TurnState(
        player_id="1",
        character_name="Magnus",
        character_class="fighter",
        race="human",
        pronouns="he/him",
        inventory=frozenset({"axe"}),
        in_combat=True,
        in_character=True,
        actions=(ATTACK_ACTION,),
    )
    text = "I grab my axe and bring it down on the wounded goblin."
    return state, text


def dm_turn():
    state = TurnState(
        player_id="0",
        character_class=DUNGEON_MASTER,
        in_combat=True,
        in_character=True,
        actions=(ATTACK_ACTION,),
    )
    text = (
        "You attack. You launch some fire onto the goblin closest to the "
        "wagon. What do you do next?"
    )
    return state, text


def fixture_turns():
    """A fixed ten-turn campaign exercising every rendering branch."""
    turns = [dm_turn(), magnus_turn()]
    skill_roll = DiceRoll(1, 20, 3, 15)
    damage_roll = DiceRoll(2, 6, 1, 8)
    turns.append(
        (
            TurnState(
                player_id="2",
                character_name="Brenna",
                character_class="wizard",
                race="elf",
                pronouns="she/her",
                inventory=frozenset({"staff", "spellbook"}),
                in_combat=True,
                in_character=False,
                actions=(
                    Action(
                        kind=ActionKind.SKILL_CHECK,
                        source_roll=skill_roll,
                        skill="arcana",
                    ),
                    Action(kind=ActionKind.DAMAGE_OR_HEAL, source_roll=damage_roll),
                ),
            ),
            "An arcana check, then the spark lands. (1d20+3)[15] (2d6+1)[8]",
        )
    )
    turns.append(
        (
            TurnState(player_id="3", in_combat=False, in_character=True),
            "A newcomer lingers by the door.",
        )
    )
    for i in range(4, 10):
        pid = str(i % 3)
        turns.append(
            (
                TurnState(
                    player_id=pid,
                    character_name="Magnus" if pid == "1" else None,
                    character_class="fighter" if pid == "1" else None,
                    in_combat=False,
                    in_character=(i % 2 == 0),
                    actions=(
                        (
                            Action(
                                kind=ActionKind.UNKNOWN_CHECK,
                                source_roll=DiceRoll(1, 20, 0, i),
                            ),
                        )
                        if i == 7
                        else ()
                    ),
                ),
                f"Turn number {i} keeps the story moving along.",
            )
        )
    return [(text, state) for state, text in turns]


class TestRenderTurnBlock:
    def test_magnus_block_field_for_field(self):
        state, text = magnus_turn()
        assert render_turn_block(state, text) == (
            "Text: I grab my axe and bring it down on the wounded goblin.\n"
            "Player ID: 1\n"
            "Character: Magnus\n"
            "Race: Human\n"
            "Class: Fighter\n"
            "Pronouns: he/him\n"
            "Inventory: Axe\n"
            "In combat?: Yes\n"
            "In character?: Yes\n"
            "Action: Attack"
        )

    def test_dm_block(self):
        state, text = dm_turn()
        block = render_turn_block(state, text)
        assert "Character: Dungeon Master" in block
        assert "Class: Dungeon Master" in block
        assert "Race: N/A" in block
        assert "Pronouns: N/A" in block
        assert "Inventory: N/A" in block

    def test_empty_inventory_renders_absent(self):
        state = TurnState(player_id="9")
        assert "Inventory: N/A" in render_turn_block(state, "hello there")

    def test_multi_item_fields_comma_joined(self):
        _, turns = 0, fixture_turns()
        block = render_turn_block(turns[2][1], turns[2][0])
        assert "Inventory: Spellbook, Staff" in block
        assert "Action: Arcana Check, Damage" in block

    def test_field_order_is_fixed(self):
        state, text = magnus_turn()
        fields = [line.split(":")[0] for line in render_turn_block(state, text).split("\n")]
        assert fields == [
            "Text",
            "Player ID",
            "Character",
            "Race",
            "Class",
            "Pronouns",
            "Inventory",
            "In combat?",
            "In character?",
            "Action",
        ]


class TestBuildExamples:
    def test_ten_turns_make_nine_examples(self):
        examples = build_examples("c", fixture_turns(), ControlVariant.NONE)
        assert len(examples) == 9
        last = examples[-1]
        assert last.target_index == 9
        assert [entry.index for entry in last.context] == [2, 3, 4, 5, 6, 7, 8]

    def test_two_turn_campaign(self):
        examples = build_examples("c", fixture_turns()[:2], ControlVariant.NONE)
        assert len(examples) == 1
        assert [entry.index for entry in examples[0].context] == [0]

    def test_prev_ctrl_leaves_target_bare(self):
        examples = build_examples("c", fixture_turns(), ControlVariant.PREV_CTRL)
        for example in examples:
            assert example.target.state is None
            assert all(entry.state is not None for entry in example.context)

    @pytest.mark.parametrize(
        "variant,expected",
        [
            (ControlVariant.NONE, lambda ctx: 0),
            (ControlVariant.ALL_CTRL, lambda ctx: ctx + 1),
            (ControlVariant.PREV_CTRL, lambda ctx: ctx),
            (ControlVariant.CURR_CTRL, lambda ctx: 1),
        ],
    )
    def test_block_count_invariants(self, variant, expected):
        for example in build_examples("c", fixture_turns(), variant):
            entries = (*example.context, example.target)
            blocks = sum(entry.state is not None for entry in entries)
            assert blocks == expected(len(example.context))

    def test_window_truncation_arithmetic(self):
        examples = build_examples("c", fixture_turns(), ControlVariant.NONE, window=3)
        for example in examples:
            start = max(0, example.target_index - 3)
            assert [e.index for e in example.context] == list(
                range(start, example.target_index)
            )

    def test_targets_enumerate_every_index_once(self):
        examples = build_examples("c", fixture_turns(), ControlVariant.ALL_CTRL)
        assert [e.target_index for e in examples] == list(range(1, 10))

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            build_examples("c", fixture_turns(), ControlVariant.NONE, window=0)


def _serialized_bytes(variant):
    examples = build_examples("golden", fixture_turns(), variant)
    buffer = io.StringIO()
    for example in examples:
        buffer.write(example.json_line())
        buffer.write("\n")
    return buffer.getvalue().encode("utf-8")


class TestGoldenFiles:
    @pytest.mark.parametrize("variant", list(ControlVariant))
    def test_output_matches_golden(self, variant):
        golden = DATA_DIR / f"finetune_{variant.value}.jsonl"
        assert _serialized_bytes(variant) == golden.read_bytes()

    @pytest.mark.parametrize("variant", list(ControlVariant))
    def test_output_is_stable_across_runs(self, variant):
        assert _serialized_bytes(variant) == _serialized_bytes(variant)

    def test_write_examples_matches_golden(self, tmp_path):
        out = tmp_path / "out.jsonl"
        write_examples(
            out, build_examples("golden", fixture_turns(), ControlVariant.ALL_CTRL)
        )
        golden = DATA_DIR / "finetune_all.jsonl"
        assert out.read_bytes() == golden.read_bytes()


AWKWARD = 'a "quote", a \\ backslash,\na newline,\ta tab, it\u2019s caf\u00e9 \U0001f409'


def awkward_turns():
    return [(f"{AWKWARD} #{i}", state) for i, (_, state) in enumerate(fixture_turns())]


def expected_entry(index, text, state):
    return {
        "index": index,
        "text": text,
        "state": state.to_dict() if state is not None else None,
        "rendered": (
            render_turn_block(state, text) if state is not None else f"Text: {text}"
        ),
    }


@pytest.mark.parametrize("variant", list(ControlVariant))
def test_written_lines_decode_to_the_example_structure(tmp_path, variant):
    turns = awkward_turns()
    campaign_id = f"camp {AWKWARD}"
    out = tmp_path / "out.jsonl"
    count = write_examples(out, build_examples(campaign_id, turns, variant, window=3))
    lines = out.read_text(encoding="utf-8").split("\n")
    assert lines.pop() == "" and len(lines) == count == len(turns) - 1
    context_states = variant in (ControlVariant.ALL_CTRL, ControlVariant.PREV_CTRL)
    target_states = variant in (ControlVariant.ALL_CTRL, ControlVariant.CURR_CTRL)
    for target_index, line in enumerate(lines, start=1):
        expected = {
            "campaign_id": campaign_id,
            "target_index": target_index,
            "variant": variant.value,
            "context": [
                expected_entry(i, turns[i][0], turns[i][1] if context_states else None)
                for i in range(max(0, target_index - 3), target_index)
            ],
            "target": expected_entry(
                target_index,
                turns[target_index][0],
                turns[target_index][1] if target_states else None,
            ),
        }
        assert json.loads(line) == expected
        assert line == dump_json_line(expected)


@pytest.mark.parametrize(
    "variant, renders",
    [
        (ControlVariant.NONE, lambda n: 0),
        (ControlVariant.ALL_CTRL, lambda n: n),
        (ControlVariant.PREV_CTRL, lambda n: n - 1),
        (ControlVariant.CURR_CTRL, lambda n: n - 1),
    ],
)
def test_each_turn_block_renders_at_most_once(tmp_path, monkeypatch, variant, renders):
    calls = Counter()

    def counting_render(state, text):
        calls[text] += 1
        return render_turn_block(state, text)

    monkeypatch.setattr(serialize, "render_turn_block", counting_render)
    turns = fixture_turns()
    write_examples(tmp_path / "out.jsonl", build_examples("c", turns, variant))
    assert max(calls.values(), default=0) <= 1
    assert sum(calls.values()) == renders(len(turns))
