"""Slot-fill models: precedence, thresholds, degenerate slots."""

import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from pbpstate import slots
from pbpstate.models import DUNGEON_MASTER
from pbpstate.icooc import IcOocModel, featurize
from pbpstate.pipeline import annotate_campaign, annotate_corpus
from pbpstate.records import HEURISTIC, MODEL, state_slot_values
from pbpstate.slots import (
    FILLABLE_SLOTS,
    fill_inputs,
    fill_missing,
    train_slot_models,
)
from pbpstate.synth import SynthConfig, generate
from pbpstate.transcripts import dump_json_line

from conftest import make_campaign, slot_cells


def annotate_synth(gaz, signal_rate):
    config = SynthConfig(seed=21, num_campaigns=6, players_per_campaign=5,
                         turns_per_campaign=60, combat_density=0.05,
                         loose_check_rate=0.08,
                         signal_rate=signal_rate)
    pairs = generate(config)
    annotated = [
        annotate_campaign(c, gaz, gap_turns=config.gap_turns)
        for c, _ in pairs
    ]
    return pairs, annotated


@pytest.fixture(scope="module")
def annotated_corpus(gaz):
    return annotate_synth(gaz, 0.6)


@pytest.fixture(scope="module")
def sparse_annotated_corpus(gaz):
    """Some players here earn no profile value, so their turns get filled."""
    return annotate_synth(gaz, 0.3)


def test_single_label_slot_gets_no_model(gaz):
    campaign = make_campaign(
        [
            ("dm", "The road is long. (1d20+1)[12]"),
            ("p1", "Kessa the elf wizard follows. (1d20+3)[9]"),
            ("p2", "Brom the elf fighter keeps pace."),
        ]
    )
    annotated = [annotate_campaign(campaign, gaz)]
    covered = {
        row["race"] for row in slot_cells(annotated[0]) if row["race"][1] == HEURISTIC
    }
    assert covered == {("elf", HEURISTIC)}
    models = train_slot_models(fill_inputs(annotated))
    assert "race" not in models
    assert "character_class" in models


def test_models_train_per_slot(annotated_corpus):
    _, annotated = annotated_corpus
    inputs = fill_inputs(annotated)
    models = train_slot_models(inputs)
    assert set(models) <= set(FILLABLE_SLOTS)
    assert "in_combat" not in models and "action" not in models
    assert set(models["pronouns"].labels) == {"he/him", "she/her", "they/them"}


def test_heuristic_values_never_overwritten(annotated_corpus):
    _, annotated = annotated_corpus
    inputs = fill_inputs(annotated)
    models = train_slot_models(inputs)
    filled = fill_missing(annotated, models, inputs, min_score=0.0)
    for before, after in zip(annotated, filled):
        for row_before, row_after in zip(slot_cells(before), slot_cells(after)):
            for slot, (value, source) in row_before.items():
                if source == HEURISTIC:
                    assert row_after[slot] == (value, HEURISTIC)


def valued_cells(annotated):
    """Per slot, the number of turns holding a value, whatever its source."""
    return Counter(
        slot
        for row in slot_cells(annotated)
        for slot, (value, _) in row.items()
        if value is not None
    )


def test_coverage_never_decreases(annotated_corpus):
    _, annotated = annotated_corpus
    inputs = fill_inputs(annotated)
    models = train_slot_models(inputs)
    filled = fill_missing(annotated, models, inputs, min_score=0.5)
    for before, after in zip(annotated, filled):
        cov_before = valued_cells(before)
        cov_after = valued_cells(after)
        for slot in cov_before:
            assert cov_after[slot] >= cov_before[slot]


def test_threshold_blocks_low_confidence(annotated_corpus):
    _, annotated = annotated_corpus
    inputs = fill_inputs(annotated)
    models = train_slot_models(inputs)
    strict = fill_missing(annotated, models, inputs, min_score=1.1)
    for before, after in zip(annotated, strict):
        assert after is before


def is_dm_turn(ac, index):
    return ac.profiles[ac.campaign.posts[index].author_id].is_dm


def test_filled_cells_are_tagged_model(sparse_annotated_corpus):
    _, annotated = sparse_annotated_corpus
    inputs = fill_inputs(annotated)
    models = train_slot_models(inputs)
    filled = fill_missing(annotated, models, inputs, min_score=0.0)
    model_cells = 0
    for before, after in zip(annotated, filled):
        rows = enumerate(zip(slot_cells(before), slot_cells(after)))
        for index, (row_before, row_after) in rows:
            if is_dm_turn(before, index):
                continue
            for slot in FILLABLE_SLOTS:
                if row_before[slot] == (None, None) and slot in models:
                    value, source = row_after[slot]
                    assert source == MODEL and value is not None
                    model_cells += 1
    assert model_cells > 0


def test_dm_turns_are_never_filled(sparse_annotated_corpus):
    _, annotated = sparse_annotated_corpus
    inputs = fill_inputs(annotated)
    models = train_slot_models(inputs)
    filled = fill_missing(annotated, models, inputs, min_score=0.0)
    dm_turns = 0
    for before, after in zip(annotated, filled):
        rows_before = slot_cells(before)
        for index, row in enumerate(slot_cells(after)):
            if is_dm_turn(after, index):
                dm_turns += 1
                assert index not in after.fills
                assert row == rows_before[index]
                assert all(source != MODEL for _, source in row.values())
    assert dm_turns > 0
    assert DUNGEON_MASTER not in models["character_class"].labels


def test_fill_determinism(annotated_corpus):
    _, annotated = annotated_corpus
    inputs = fill_inputs(annotated)
    models = train_slot_models(inputs)
    once = fill_missing(annotated, models, inputs, min_score=0.5)
    twice = fill_missing(annotated, models, inputs, min_score=0.5)
    for a, b in zip(once, twice):
        assert a.fills == b.fills
        assert slot_cells(a) == slot_cells(b)


def test_slot_model_codec_round_trip(annotated_corpus):
    # The program never writes a slot model to a file; the IC/OOC model
    # file's reader takes only IC and OOC labels.
    _, annotated = annotated_corpus
    inputs = fill_inputs(annotated)
    models = train_slot_models(inputs)
    model = models["pronouns"]
    loaded = IcOocModel.from_dict(json.loads(dump_json_line(model.to_dict())))
    assert loaded == model
    assert loaded.labels == ("he/him", "she/her", "they/them")
    features = featurize("she raises her shield and he ducks behind it")
    assert loaded.predict(features) == model.predict(features)


def test_randomized_annotations_never_overwritten(gaz):
    # Randomized slot tables exercise the precedence rule directly.
    rng = random.Random(99)
    config = SynthConfig(seed=31, num_campaigns=1, players_per_campaign=4,
                         turns_per_campaign=30, combat_density=0.08,
                         loose_check_rate=0.1)
    campaign, _ = generate(config)[0]
    base = annotate_campaign(campaign, gaz)
    models = train_slot_models(fill_inputs([base]))
    labels = {slot: model.labels for slot, model in models.items()}
    for _ in range(50):
        states = []
        for state in base.turn_states:
            values = {}
            for slot in FILLABLE_SLOTS:
                if rng.random() < 0.5 and slot in labels:
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


def player_posts(ac):
    return [
        i for i, post in enumerate(ac.campaign.posts)
        if not ac.profiles[post.author_id].is_dm
    ]


def test_nothing_retained_when_every_player_cell_is_valued(annotated_corpus):
    _, annotated = annotated_corpus
    inputs = fill_inputs(annotated)
    assert inputs.pending == {}
    models = train_slot_models(inputs)
    assert models
    filled = fill_missing(annotated, models, inputs, min_score=0.0)
    assert all(after is before for after, before in zip(filled, annotated))


def test_retained_posts_are_the_player_posts_with_an_empty_cell(annotated_corpus):
    _, annotated = annotated_corpus
    base = annotated[1]
    players = player_posts(base)
    chosen = players[3:60:7]
    assert len(chosen) > 1
    states = list(base.turn_states)
    for n, i in enumerate(chosen):
        slot = FILLABLE_SLOTS[n % len(FILLABLE_SLOTS)]
        states[i] = replace(states[i], **{slot: None})
    dm_posts = [i for i in range(len(states)) if i not in players]
    assert dm_posts
    for i in dm_posts:
        states[i] = replace(states[i], **dict.fromkeys(FILLABLE_SLOTS))
    doctored = replace(base, turn_states=tuple(states))
    inputs = fill_inputs([annotated[0], doctored])
    assert set(inputs.pending) == {1}
    assert sorted(inputs.pending[1]) == chosen
    for i in chosen:
        assert inputs.pending[1][i] == featurize(base.campaign.posts[i].text())


def test_blank_posts_are_never_featurized(gaz, monkeypatch):
    campaign = make_campaign(
        [
            ("dm", "The road is long. (1d20+1)[12]"),
            ("p1", "Kessa the elf wizard follows. (1d20+3)[9]"),
            ("p2", "Brom the dwarf fighter keeps pace."),
            ("p3", "   "),
            ("p1", ["", " "]),
        ]
    )
    texts = []

    def counting_featurize(text):
        texts.append(text)
        return featurize(text)

    monkeypatch.setattr(slots, "featurize", counting_featurize)
    inputs = fill_inputs([annotate_campaign(campaign, gaz)])
    assert sorted(texts) == sorted(campaign.posts[i].text() for i in (1, 2))
    # No post names a pronoun, so every player post is kept for filling;
    # a blank one with no features, to be scored on the priors alone.
    assert sorted(inputs.pending[0]) == [1, 2, 3, 4]
    assert inputs.pending[0][3] == inputs.pending[0][4] == {}
    # p1's blank post is still a training document for p1's race.
    assert inputs.doc_counts["race"] == {"elf": 2, "dwarf": 1}


def test_written_cells_are_the_states_but_for_the_fills(sparse_annotated_corpus):
    """Every written cell is the turn state's own value, with source
    heuristic or null, except exactly the ``fills`` cells, which are the
    model's; a fill lands only on a player turn whose state leaves the
    slot empty."""
    _, annotated = sparse_annotated_corpus
    inputs = fill_inputs(annotated)
    filled = fill_missing(annotated, train_slot_models(inputs), inputs)
    model_cells = 0
    for ac in filled:
        for index, (state, row) in enumerate(zip(ac.turn_states, slot_cells(ac))):
            own = state_slot_values(state)
            fills = ac.fills.get(index, {})
            assert not (fills and is_dm_turn(ac, index))
            assert set(row) == set(own)
            for slot, (value, source) in row.items():
                if slot in fills:
                    assert slot in FILLABLE_SLOTS and own[slot] is None
                    assert (value, source) == (fills[slot], MODEL)
                    model_cells += 1
                else:
                    assert value == own[slot]
                    assert source == (None if value is None else HEURISTIC)
    assert model_cells > 0
