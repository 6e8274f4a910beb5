"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one pass/fail line
per criterion. The two large corpora (100 campaigns x 200 turns) are
shared across criteria through module-scoped fixtures.
"""

import random
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest

from pbpstate.dice import format_dice_expr, parse_dice_expr
from pbpstate.evaluation import (
    baseline_predictions,
    corpus_stats,
    kendall_tau,
    majority_baseline,
    randolph_kappa,
    slot_accuracy,
)
from pbpstate.icooc import labeled_paragraphs, predict, train
from pbpstate.models import DiceRoll
from pbpstate.pipeline import annotate_campaign, annotate_corpus
from pbpstate.records import HEURISTIC
from pbpstate.serialize import ControlVariant, build_examples
from pbpstate.slots import FILLABLE_SLOTS, fill_inputs, fill_missing, train_slot_models
from pbpstate.synth import SynthConfig, generate, generate_corpus
from pbpstate.transcripts import load_campaigns, write_campaigns

from conftest import slot_cells
from test_evaluation import brute_force_tau_b
from test_serialize import _serialized_bytes, fixture_turns, magnus_turn
from pbpstate.serialize import render_turn_block


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {label}: FAIL")
        raise
    print(f"[criterion {number}] {label}: PASS")


CLEAN_CONFIG = SynthConfig(
    seed=42, num_campaigns=100, players_per_campaign=5, turns_per_campaign=200,
    distractor_rate=0.0, combat_density=0.04,
)
DISTRACTOR_CONFIG = SynthConfig(
    seed=43, num_campaigns=100, players_per_campaign=5, turns_per_campaign=200,
    distractor_rate=0.1, combat_density=0.04,
)


@pytest.fixture(scope="module")
def clean_corpus(gaz):
    pairs = generate(CLEAN_CONFIG)
    start = time.perf_counter()
    annotated = annotate_corpus(
        (c for c, _ in pairs),
        gaz,
        gap_turns=CLEAN_CONFIG.gap_turns,
    )
    elapsed = time.perf_counter() - start
    return pairs, annotated, elapsed


@pytest.fixture(scope="module")
def distractor_corpus(gaz):
    pairs = generate(DISTRACTOR_CONFIG)
    annotated = annotate_corpus(
        (c for c, _ in pairs),
        gaz,
        gap_turns=DISTRACTOR_CONFIG.gap_turns,
    )
    return pairs, annotated


def _profile_accuracy(pairs, annotated):
    correct = {"name": 0, "character_class": 0, "race": 0, "pronouns": 0}
    total = 0
    for (_, gold), ac in zip(pairs, annotated):
        for pid, gold_profile in gold.profiles.items():
            if gold_profile.is_dm:
                continue
            total += 1
            ours = ac.profiles[pid]
            correct["name"] += ours.name == gold_profile.name
            correct["character_class"] += (
                ours.character_class == gold_profile.character_class
            )
            correct["race"] += ours.race == gold_profile.race
            correct["pronouns"] += ours.pronouns == gold_profile.pronouns
    return {slot: count / total for slot, count in correct.items()}


def test_criterion_1_dice_parsing_exact():
    with criterion(1, "dice parsing reproduces literals and round-trips 10k"):
        start = time.perf_counter()
        roll = parse_dice_expr("(1d20+6)[20]")
        assert (roll.count, roll.faces, roll.modifier, roll.result) == (1, 20, 6, 20)
        roll = parse_dice_expr("(1d8+2)[10]")
        assert (roll.count, roll.faces, roll.modifier, roll.result) == (1, 8, 2, 10)
        rng = random.Random(1)
        for _ in range(10_000):
            original = DiceRoll(
                count=rng.randint(1, 30),
                faces=rng.randint(2, 100),
                modifier=rng.randint(-20, 20),
                result=rng.randint(-40, 400),
            )
            text = format_dice_expr(original)
            parsed = parse_dice_expr(text)
            assert (
                parsed.count, parsed.faces, parsed.modifier, parsed.result
            ) == (
                original.count, original.faces, original.modifier, original.result
            )
            assert format_dice_expr(parsed) == text
        assert time.perf_counter() - start < 1.0


def test_criterion_2_agreement_math_exact():
    with criterion(2, "kappa matches reported pair; tau matches pair oracle"):
        assert abs(randolph_kappa(0.8, 2) - 0.6) <= 1e-12
        rng = random.Random(2)
        checked = 0
        while checked < 1_000:
            n = rng.randint(2, 12)
            x = [rng.randint(0, 6) for _ in range(n)]
            y = [rng.randint(0, 6) for _ in range(n)]
            if len(set(x)) == 1 or len(set(y)) == 1:
                continue
            assert abs(kendall_tau(x, y) - brute_force_tau_b(x, y)) <= 1e-12
            checked += 1


def test_criterion_3_heuristic_oracle_equivalence(clean_corpus, distractor_corpus):
    with criterion(3, "full-signal recovery, span equality, runtime budget"):
        pairs, annotated, elapsed = clean_corpus
        accuracy = _profile_accuracy(pairs, annotated)
        assert accuracy == {
            "name": 1.0, "character_class": 1.0, "race": 1.0, "pronouns": 1.0
        }
        for (_, gold), ac in zip(pairs, annotated):
            assert [
                (s.start_index, s.end_index) for s in ac.combat_spans
            ] == [(s.start_index, s.end_index) for s in gold.combat_spans]

        noisy_pairs, noisy_annotated = distractor_corpus
        noisy_accuracy = _profile_accuracy(noisy_pairs, noisy_annotated)
        assert all(value >= 0.95 for value in noisy_accuracy.values())

        true_positive = false_positive = false_negative = 0
        for (_, gold), ac in zip(noisy_pairs, noisy_annotated):
            detected = {(s.start_index, s.end_index) for s in ac.combat_spans}
            expected = {(s.start_index, s.end_index) for s in gold.combat_spans}
            true_positive += len(detected & expected)
            false_positive += len(detected - expected)
            false_negative += len(expected - detected)
        f1 = (
            2 * true_positive / (2 * true_positive + false_positive + false_negative)
            if true_positive
            else 0.0
        )
        assert f1 >= 0.95

        assert elapsed < 30.0


def test_criterion_4_coverage_equals_planted_rate(gaz, clean_corpus):
    with criterion(4, "heuristic coverage equals the generator's signal rate"):
        pairs, annotated, _ = clean_corpus
        total_posts = 0
        total_cues = 0
        for (campaign, gold), ac in zip(pairs, annotated):
            planted = len(gold.cue_posts) / len(campaign.posts)
            assert ac.coverage == planted
            total_posts += len(campaign.posts)
            total_cues += len(gold.cue_posts)
        corpus_coverage = sum(
            ac.coverage * len(ac.campaign.posts) for ac in annotated
        ) / total_posts
        assert corpus_coverage == total_cues / total_posts


def test_criterion_5_gst_metric_properties():
    with criterion(5, "joint <= min slot accuracy; majority self-eval identity"):
        rng = random.Random(5)
        slots = ["a", "b", "c"]
        for _ in range(1_000):
            n = rng.randint(1, 20)
            gold = [{s: rng.choice("uvw") for s in slots} for _ in range(n)]
            pred = [{s: rng.choice("uvw") for s in slots} for _ in range(n)]
            report = slot_accuracy(pred, gold, slots)
            assert report.joint_accuracy <= min(report.per_slot.values()) + 1e-12

        for _ in range(200):
            n = rng.randint(1, 40)
            rows = [
                {s: rng.choice("uvwx") for s in slots} for _ in range(n)
            ]
            baseline = majority_baseline(rows, slots)
            report = slot_accuracy(
                baseline_predictions(baseline, n), rows, slots
            )
            for slot in slots:
                values = [row[slot] for row in rows]
                top = max(values.count(v) for v in set(values))
                assert report.per_slot[slot] == top / n


def test_criterion_6_icooc_classifier():
    with criterion(6, "IC/OOC held-out accuracy and reference passages"):
        config = SynthConfig(
            seed=6, num_campaigns=30, players_per_campaign=5,
            turns_per_campaign=60, combat_density=0.05,
        )
        paragraphs = labeled_paragraphs(generate(config))
        assert len(paragraphs) >= 2_000
        rng = random.Random(6)
        order = list(range(len(paragraphs)))
        rng.shuffle(order)
        split = int(len(order) * 0.8)
        start = time.perf_counter()
        model = train([paragraphs[i] for i in order[:split]], smoothing=1.0)
        assert time.perf_counter() - start < 60.0
        held_out = [paragraphs[i] for i in order[split:]]
        accuracy = sum(
            predict(model, p.text)[0] == p.label for p in held_out
        ) / len(held_out)
        assert accuracy >= 0.90

        ic_passage = (
            "Kuros pulls the feathered shaft of the arrow back to his cheek "
            "winning easily against the resistance of the bowstring. He pulls "
            "a lungful of air to keep himself steady, takes aim at the Bandit "
            "with the deer, and lets fly."
        )
        ooc_passage = (
            "Surprise round so only 1 standard or move action. "
            "Shoot the bow: (1d20+6)[20] vs Flat Footed AC at Bandit 1. "
            "Damage: (1d8+2)[10]"
        )
        assert predict(model, ic_passage)[0] == "IC"
        assert predict(model, ooc_passage)[0] == "OOC"


def test_criterion_7_serializer_golden_files():
    with criterion(7, "serializer byte determinism and reference block"):
        import pathlib

        data_dir = pathlib.Path(__file__).parent / "data"
        for variant in ControlVariant:
            rendered = _serialized_bytes(variant)
            assert rendered == _serialized_bytes(variant)
            golden = (data_dir / f"finetune_{variant.value}.jsonl").read_bytes()
            assert rendered == golden

        expectations = {
            ControlVariant.NONE: lambda ctx: 0,
            ControlVariant.ALL_CTRL: lambda ctx: ctx + 1,
            ControlVariant.PREV_CTRL: lambda ctx: ctx,
            ControlVariant.CURR_CTRL: lambda ctx: 1,
        }
        for variant, expected in expectations.items():
            for example in build_examples("g", fixture_turns(), variant):
                assert example.block_count() == expected(len(example.context))

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


def test_criterion_8_stats_identity(tmp_path):
    with criterion(8, "corpus stats equal generator bookkeeping exactly"):
        config = SynthConfig(
            seed=8, num_campaigns=12, players_per_campaign=6,
            turns_per_campaign=70, combat_density=0.05,
        )
        corpus = generate_corpus(config)
        path = tmp_path / "corpus.jsonl"
        write_campaigns(path, (c for c, _ in corpus.pairs))
        stats = corpus_stats(load_campaigns(path)).to_dict()
        assert stats == corpus.expected_stats


def test_criterion_9_slot_filler(gaz, distractor_corpus):
    with criterion(9, "fill precedence over 1000 randomized sets; accuracy"):
        config = SynthConfig(
            seed=9, num_campaigns=1, players_per_campaign=4,
            turns_per_campaign=30, combat_density=0.08, loose_check_rate=0.1,
        )
        campaign, _ = generate(config)[0]
        base = annotate_campaign(campaign, gaz)
        models = train_slot_models(fill_inputs([base]))
        labels = {slot: model.labels for slot, model in models.items()}
        assert labels
        rng = random.Random(9)
        for _ in range(1_000):
            states = []
            for state in base.turn_states:
                values = {}
                for slot in FILLABLE_SLOTS:
                    if slot in labels and rng.random() < 0.5:
                        values[slot] = rng.choice(labels[slot])
                    else:
                        values[slot] = None
                states.append(replace(state, **values))
            doctored = replace(base, turn_states=tuple(states))
            filled = fill_missing(
                [doctored], models, fill_inputs([doctored]), min_score=0.0
            )[0]
            for row, filled_row in zip(slot_cells(doctored), slot_cells(filled)):
                for slot, cell in row.items():
                    if cell[1] == HEURISTIC:
                        assert filled_row[slot] == cell

        pairs, annotated = distractor_corpus
        correct = wrong = 0
        for (campaign, gold), ac in zip(pairs, annotated):
            for post, row, state in zip(
                campaign.posts, slot_cells(ac), gold.turn_states
            ):
                if post.rolls:
                    continue
                truth = "true" if state.in_combat else "false"
                if row["in_combat"][0] == truth:
                    correct += 1
                else:
                    wrong += 1
        assert correct + wrong > 0
        assert correct / (correct + wrong) >= 0.85
