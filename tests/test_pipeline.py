"""Annotation pipeline composition and record round trips."""

import json
import re

import pytest

from pbpstate.cli import main
from pbpstate import slots
from pbpstate.icooc import featurize, labeled_paragraphs, train
from pbpstate.models import TurnState
from pbpstate.pipeline import annotate_campaign, annotate_corpus
from pbpstate.records import (
    HEURISTIC,
    MODEL,
    annotated_to_record,
    gold_slot_rows,
    gold_to_record,
    slot_rows_from_record,
    state_slot_values,
    turns_from_record,
    validate_record,
)
from pbpstate.slots import FILLABLE_SLOTS
from pbpstate.synth import SynthConfig, generate

from conftest import make_campaign, slot_cells


@pytest.fixture(scope="module")
def synth_pairs():
    config = SynthConfig(seed=17, num_campaigns=4, players_per_campaign=4,
                         turns_per_campaign=40, combat_density=0.06,
                         loose_check_rate=0.08)
    return generate(config)


def test_annotated_structure(gaz, synth_pairs):
    campaign, gold = synth_pairs[0]
    annotated = annotate_campaign(campaign, gaz, gap_turns=3)
    assert len(annotated.turn_states) == len(campaign.posts)
    assert len(slot_cells(annotated)) == len(campaign.posts)
    assert annotated.fills == {}
    assert 0.0 <= annotated.coverage <= 1.0
    dm = campaign.posts[0].author_id
    assert annotated.profiles[dm].is_dm


def test_turn_states_consistent_with_profiles(gaz, synth_pairs):
    campaign, _ = synth_pairs[0]
    annotated = annotate_campaign(campaign, gaz)
    for state in annotated.turn_states:
        assert state.consistent_with(annotated.profiles[state.player_id])


def test_in_combat_slot_follows_spans_on_every_turn(gaz, synth_pairs):
    campaigns = [c for c, _ in synth_pairs]
    assert any(not post.rolls for c in campaigns for post in c.posts)
    for annotated in annotate_corpus(campaigns, gaz):
        for state, row in zip(annotated.turn_states, slot_cells(annotated)):
            expected = "true" if state.in_combat else "false"
            assert row["in_combat"] == (expected, HEURISTIC)


def test_action_slot_empty_without_a_roll(gaz, synth_pairs):
    campaigns = [c for c, _ in synth_pairs]
    for campaign, annotated in zip(campaigns, annotate_corpus(campaigns, gaz)):
        for post, row in zip(campaign.posts, slot_cells(annotated)):
            if not post.rolls:
                assert row["action"] == (None, None)


def test_trained_icooc_model_drives_in_character(gaz, synth_pairs):
    model = train(labeled_paragraphs(synth_pairs), smoothing=1.0)
    campaign, gold = synth_pairs[1]
    annotated = annotate_campaign(campaign, gaz, icooc_model=model)
    agreements = sum(
        ann.in_character == g.in_character
        for ann, g in zip(annotated.turn_states, gold.turn_states)
    )
    assert agreements / len(gold.turn_states) >= 0.9


def test_record_round_trip(gaz, synth_pairs):
    campaign, _ = synth_pairs[0]
    annotated = annotate_campaign(campaign, gaz)
    record = annotated_to_record(annotated)
    campaign_id, turns = turns_from_record(record)
    assert campaign_id == campaign.campaign_id
    assert len(turns) == len(campaign.posts)
    assert turns[0][1] == annotated.turn_states[0]
    campaign_id, rows = slot_rows_from_record(record)
    assert campaign_id == campaign.campaign_id
    assert len(rows) == len(campaign.posts)


def _contradict_a_profile(record):
    named = {pid for pid, p in record["profiles"].items() if p["name"]}
    index, state = next(
        (i, s) for i, s in enumerate(record["turn_states"]) if s["player_id"] in named
    )
    state["character_name"] = "Nobody In Particular"
    return f"turn_states[{index}]: contradicts the profile of {state['player_id']!r}"


def _profiles_not_an_object(record):
    record["profiles"] = list(record["profiles"])
    return "profiles: must be an object, not list"


def _overlapping_spans(record):
    record["combat_spans"] = [
        {"start_index": 0, "end_index": 3, "monsters": []},
        {"start_index": 2, "end_index": 5, "monsters": []},
    ]
    return "spans: span starting at 2 overlaps or is out of order"


@pytest.mark.parametrize(
    "edit", [_contradict_a_profile, _profiles_not_an_object, _overlapping_spans]
)
def test_validate_record_rejects_a_bad_record(gaz, synth_pairs, edit):
    record = annotated_to_record(annotate_campaign(synth_pairs[0][0], gaz))
    validate_record(record)
    problem = edit(record)
    with pytest.raises(ValueError, match=re.escape(problem)):
        validate_record(record)


def test_record_posts_are_the_transcript_posts(gaz, synth_pairs):
    campaign, _ = synth_pairs[0]
    record = annotated_to_record(annotate_campaign(campaign, gaz))
    transcript = campaign.to_dict()
    assert record["campaign_id"] == transcript["campaign_id"]
    assert record["posts"] == transcript["posts"]


def test_gold_record_slot_rows(synth_pairs):
    campaign, gold = synth_pairs[0]
    campaign_id, rows = gold_slot_rows(gold_to_record(campaign, gold))
    assert campaign_id == campaign.campaign_id
    assert rows[0]["character_class"] == gold.turn_states[0].character_class
    assert rows == tuple(map(state_slot_values, gold.turn_states))


def test_corpus_without_fill_is_campaigns_in_input_order(gaz, synth_pairs):
    # Everything but the slot rows, which fill may change.
    def unfilled(ac):
        return ac.campaign, ac.profiles, ac.combat_spans, ac.turn_states, ac.coverage

    campaigns = [c for c, _ in reversed(synth_pairs)]
    assert [unfilled(ac) for ac in annotate_corpus(campaigns, gaz)] == [
        unfilled(annotate_campaign(c, gaz)) for c in campaigns
    ]


def test_fill_featurizes_each_post_once(gaz, synth_pairs, monkeypatch):
    calls = []

    def counting_featurize(text):
        calls.append(text)
        return featurize(text)

    monkeypatch.setattr(slots, "featurize", counting_featurize)
    annotate_corpus([c for c, _ in synth_pairs], gaz)
    # Training and filling skip the DM's turns, so only player posts are read.
    texts = [
        p.text()
        for c, gold in synth_pairs
        for p in c.posts
        if p.text().strip() and not gold.profiles[p.author_id].is_dm
    ]
    assert len(texts) < sum(len(c.posts) for c, _ in synth_pairs)
    assert sorted(calls) == sorted(texts)


def test_coverage_counts_posts_with_any_signal(gaz):
    campaign = make_campaign(
        [
            ("dm", "The night passes without trouble."),
            ("p1", "Kessa keeps watch by the fire."),
            ("p2", "Attack: (1d20+2)[14]"),
            ("p1", "The morning arrives at last."),
        ]
    )
    annotated = annotate_campaign(campaign, gaz)
    assert annotated.coverage == pytest.approx(2 / 4)


def test_coverage_ignores_cast_phrases_across_paragraphs(gaz):
    # The spell extractor stops at a paragraph break, so a cast verb at the
    # end of one paragraph is no cue and the post is uncovered.
    campaign = make_campaign([("dm", ["and then i cast", "sacred flame at the door."])])
    assert annotate_campaign(campaign, gaz).coverage == 0.0


def test_source_tag_splits_the_written_cells(tmp_path):
    """The heuristic-only view is the cells whose source is "heuristic"."""
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "annotated.jsonl"
    assert main(["synth", "--seed", "43", "--campaigns", "8", "--turns", "50",
                 "--signal-rate", "0.3", "--out", str(corpus)]) == 0
    assert main(["annotate", "--in", str(corpus), "--out", str(out)]) == 0
    sources = set()
    for line in out.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        for raw_state, cells in zip(record["turn_states"], record["turn_slots"]):
            heuristic = state_slot_values(TurnState.from_dict(raw_state))
            assert set(cells) == set(heuristic)
            for slot, cell in cells.items():
                sources.add(cell["source"])
                if cell["source"] == HEURISTIC:
                    assert cell["value"] is not None
                    assert cell["value"] == heuristic[slot]
                elif cell["source"] == MODEL:
                    assert slot in FILLABLE_SLOTS and heuristic[slot] is None
                    assert cell["value"] is not None
                else:
                    assert cell == {"value": None, "source": None}
                    assert heuristic[slot] is None
    assert sources == {HEURISTIC, MODEL, None}
