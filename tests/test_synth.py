"""Generator correctness: determinism, inertness, gold-by-construction."""

import pytest

from pbpstate.characters import build_profiles, text_signals
from pbpstate.combat import detect_combat_spans, extract_monsters
from pbpstate.errors import ConfigError
from pbpstate.icooc import IC, OOC, labeled_paragraphs, turn_label
from pbpstate.models import validate_spans
from pbpstate.synth import SynthConfig, generate, generate_corpus

from conftest import facts_of

SMALL = SynthConfig(seed=7, num_campaigns=3, players_per_campaign=4,
                    turns_per_campaign=40, combat_density=0.06)


def test_same_seed_same_corpus():
    first = generate(SMALL)
    second = generate(SMALL)
    for (c1, g1), (c2, g2) in zip(first, second):
        assert c1 == c2
        assert g1.to_dict() == g2.to_dict()


def test_different_seed_differs():
    other = SynthConfig(seed=8, num_campaigns=3, players_per_campaign=4,
                        turns_per_campaign=40, combat_density=0.06)
    assert generate(SMALL)[0][0] != generate(other)[0][0]


def test_zero_combat_density_means_no_spans():
    config = SynthConfig(seed=1, num_campaigns=3, players_per_campaign=4,
                         turns_per_campaign=30, combat_density=0.0,
                         loose_check_rate=0.0)
    for _, gold in generate(config):
        assert gold.combat_spans == ()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_campaigns": 0},
        {"players_per_campaign": 1},
        {"turns_per_campaign": 1},
        {"turns_per_campaign": 3, "players_per_campaign": 5},
        {"combat_density": 1.5},
        {"ooc_fraction": -0.1},
        {"gap_turns": 0},
        {"signal_rate": 1.2},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        SynthConfig(**kwargs)


def test_dm_posts_first():
    for campaign, gold in generate(SMALL):
        dm = campaign.posts[0].author_id
        assert gold.profiles[dm].is_dm


def test_generated_rolls_are_consistent():
    for campaign, _ in generate(SMALL):
        for post in campaign.posts:
            for roll in post.rolls:
                assert roll.consistent


def test_gold_spans_satisfy_invariants():
    for _, gold in generate(SMALL):
        validate_spans(gold.combat_spans)
        for span in gold.combat_spans:
            for name, count in span.monsters:
                assert count >= 1


def test_gold_alignment_and_consistency():
    for campaign, gold in generate(SMALL):
        gold.validate_against(campaign)
        assert len(gold.paragraph_labels) == len(campaign.posts)


def test_in_character_matches_majority_of_paragraph_labels():
    for _, gold in generate(SMALL):
        for state, labels in zip(gold.turn_states, gold.paragraph_labels):
            ic = sum(1 for lab in labels if lab == IC)
            assert state.in_character == (ic >= len(labels) - ic)
            assert state.in_character == (turn_label(labels) == IC)


def test_cue_bookkeeping_matches_detected_signals(gaz):
    config = SynthConfig(seed=5, num_campaigns=4, players_per_campaign=5,
                         turns_per_campaign=50, distractor_rate=0.0,
                         combat_density=0.05,
                         signal_rate=0.5)
    for campaign, gold in generate(config):
        detected = {
            post.index
            for post in campaign.posts
            if post.rolls or text_signals(post.text(), gaz)
        }
        assert detected == set(gold.cue_posts)


def test_distractor_posts_count_as_signal_posts(gaz):
    config = SynthConfig(seed=5, num_campaigns=3, players_per_campaign=5,
                         turns_per_campaign=50, distractor_rate=1.0,
                         combat_density=0.02,
                         signal_rate=0.0)
    for campaign, gold in generate(config):
        detected = {
            post.index
            for post in campaign.posts
            if post.rolls or text_signals(post.text(), gaz)
        }
        assert detected == set(gold.cue_posts)


def test_full_rate_corpus_recovers_all_players(gaz):
    config = SynthConfig(seed=2, num_campaigns=4, players_per_campaign=5,
                         turns_per_campaign=60, distractor_rate=0.0,
                         combat_density=0.05)
    for campaign, gold in generate(config):
        profiles = build_profiles(campaign, gaz, facts_of(campaign, gaz))
        for pid, expected in gold.profiles.items():
            assert profiles[pid] == expected


def test_detector_matches_gold_spans_and_monsters(gaz):
    for campaign, gold in generate(SMALL):
        facts = facts_of(campaign, gaz)
        spans = detect_combat_spans(campaign, facts, gap_turns=SMALL.gap_turns)
        assert [
            (s.start_index, s.end_index) for s in spans
        ] == [(s.start_index, s.end_index) for s in gold.combat_spans]
        for span, gold_span in zip(spans, gold.combat_spans):
            monsters = extract_monsters(campaign, span, facts)
            assert tuple(monsters) == gold_span.monsters


def test_labeled_paragraph_export():
    pairs = generate(SMALL)
    paragraphs = labeled_paragraphs(pairs)
    total = sum(len(p.paragraphs) for c, _ in pairs for p in c.posts)
    assert len(paragraphs) == total
    assert {p.label for p in paragraphs} == {IC, OOC}


def test_gold_record_round_trip():
    from pbpstate.records import gold_from_record, gold_to_record

    for campaign, gold in generate(SMALL):
        record = gold_to_record(campaign, gold)
        assert "turn_slots" not in record
        assert gold_from_record(record) == (campaign.campaign_id, gold)


def test_bookkeeping_matches_recount():
    corpus = generate_corpus(SMALL)
    stats = corpus.expected_stats
    assert stats["total_turns"] == sum(
        len(c.posts) for c, _ in corpus.pairs
    )
    assert stats["num_campaigns"] == len(corpus.pairs)
    assert stats["avg_turns_per_campaign"] == stats["total_turns"] / len(corpus.pairs)
