import dataclasses
import json
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pbpstate.errors import ConfigError, FormatError, PbpError
from pbpstate.icooc import (
    DICE_FEATURE,
    IC,
    OOC,
    IcOocModel,
    LabeledParagraph,
    featurize,
    fit_from_counts,
    label_turn,
    load_model,
    rule_based_turn_label,
    save_model,
    train,
    turn_label,
)

from conftest import make_post, peak_traced_bytes

TRAIN_SET = [
    LabeledParagraph("the wagon rolls quietly through the pines", IC),
    LabeledParagraph("a soft rain falls over the camp tonight", IC),
    LabeledParagraph("the torchlight dances over mossy stones", IC),
    LabeledParagraph("she watches the ridge with narrowed eyes", IC),
    LabeledParagraph("you need a 15 or better on that check", OOC),
    LabeledParagraph("add your bonus to the roll first (1d20+6)[20]", OOC),
    LabeledParagraph("the surprise round allows only 1 action", OOC),
    LabeledParagraph("attack roll please: (1d20+2)[9]", OOC),
]


def trained():
    return train(TRAIN_SET, smoothing=1.0)


class TestFeaturize:
    def test_unigrams_present(self):
        features = featurize("Surprise round so only 1 standard or move action")
        assert features["surprise"] == 1
        assert features["round"] == 1
        assert DICE_FEATURE not in features

    def test_dice_indicator(self):
        assert featurize("(1d20+6)[20]")[DICE_FEATURE] == 1

    def test_an_impossible_die_is_no_dice(self):
        # The roll rule of extract_rolls, which finds no roll here.
        assert DICE_FEATURE not in featurize("(0d6)[1]")

    def test_empty_input(self):
        with pytest.raises(PbpError, match="paragraph is empty"):
            featurize("")
        with pytest.raises(PbpError, match="paragraph is empty"):
            featurize("   ")

    def test_repeated_tokens_count(self):
        assert featurize("rain rain rain")["rain"] == 3

    def test_digit_bucket_counts_every_unicode_digit(self):
        # str.isdigit accepts superscripts such as "²", which a \d regex
        # would not: one digit in three characters is the high bucket.
        assert "__digits:high__" in featurize("ft²")
        assert "__digits:none__" in featurize("ft")


class TestTrain:
    def test_balanced_priors(self):
        data = TRAIN_SET[:2] + TRAIN_SET[4:6]
        model = train(data, smoothing=1.0)
        assert model.priors == (math.log(0.5), math.log(0.5))

    def test_single_class_degenerates(self):
        with pytest.raises(PbpError, match="need examples for every label; missing"):
            train(TRAIN_SET[:3], smoothing=1.0)

    def test_empty_data_degenerates(self):
        with pytest.raises(PbpError, match="need examples for every label; missing"):
            train([], smoothing=1.0)

    def test_training_is_deterministic(self):
        assert trained() == trained()

    def test_dice_weight_never_favors_ic(self):
        # Even when dice notation shows up in IC training text, the dice
        # feature may not pull toward IC.
        data = TRAIN_SET + [
            LabeledParagraph("he lets fly (1d20+1)[7] arrows of light", IC)
        ] * 5
        model = train(data, smoothing=1.0)
        ic_index, ooc_index = model.labels.index(IC), model.labels.index(OOC)
        weights = model.weights[DICE_FEATURE]
        assert weights[ic_index] <= weights[ooc_index]

    def test_adding_dice_match_never_raises_ic_posterior(self):
        data = TRAIN_SET + [
            LabeledParagraph("he lets fly (1d20+1)[7] arrows of light", IC)
        ] * 5
        model = train(data, smoothing=1.0)
        for paragraph in (
            "the rain falls over the quiet camp",
            "add your bonus to the roll",
            "arrows of light over the ridge",
        ):
            features = featurize(paragraph)
            without = model.posteriors(features)[IC]
            with_dice = model.posteriors({**features, DICE_FEATURE: 1})[IC]
            assert with_dice <= without + 1e-12


class TestPredict:
    def test_narrative_is_ic(self):
        features = featurize("the rain falls over the quiet camp")
        label, score = trained().predict(features)
        assert label == IC
        assert 0.5 < score < 1.0

    def test_dice_text_is_ooc(self):
        label, score = trained().predict(featurize("roll it: (1d20+6)[20]"))
        assert label == OOC
        assert score > 0.5

    def test_empty_paragraph(self):
        with pytest.raises(PbpError, match="paragraph is empty"):
            trained().predict(featurize(""))

    def test_posteriors_sum_to_one(self):
        model = trained()
        for paragraph in ("rain on stones", "roll your 15 now", "(2d6)[7] damage"):
            posteriors = model.posteriors(featurize(paragraph))
            assert abs(sum(posteriors.values()) - 1.0) < 1e-9


class TestLabelTurn:
    def test_majority_ic(self):
        post = make_post(
            0,
            [
                "the rain falls over the camp",
                "the torchlight dances over stones",
                "you need a 15 on that roll",
            ],
        )
        labels, turn = label_turn(trained(), post)
        assert turn == IC
        assert labels[2] == OOC

    def test_tie_goes_to_ic(self):
        post = make_post(
            0, ["the rain falls over the camp", "add your bonus to the roll"]
        )
        _, turn = label_turn(trained(), post)
        assert turn == IC

    def test_single_ooc_paragraph(self):
        post = make_post(0, ["attack roll please: (1d20+2)[9]"])
        labels, turn = label_turn(trained(), post)
        assert labels == [OOC]
        assert turn == OOC

    def test_blank_paragraphs_do_not_vote(self):
        post = make_post(0, ["", "attack roll please: (1d20+2)[9]", "  "])
        assert label_turn(trained(), post) == ([None, OOC, None], OOC)
        assert label_turn(trained(), make_post(0, ["", " "])) == ([None, None], IC)


@pytest.mark.parametrize(
    "labels, expected",
    [([], IC), ([None], IC), ([IC, OOC], IC), ([None, OOC], OOC),
     ([OOC, OOC, IC], OOC)],
)
def test_turn_label_is_the_majority_of_the_votes(labels, expected):
    assert turn_label(labels) == expected


def test_rule_based_fallback():
    assert rule_based_turn_label(make_post(0, ["only words here"])) == IC
    assert rule_based_turn_label(make_post(0, ["(1d6)[2]"])) == OOC
    # A blank paragraph votes IC here, where label_turn gives it no vote.
    assert rule_based_turn_label(make_post(0, ["", " ", "(1d6)[2]"])) == IC


def test_rule_based_vote_reads_the_posts_rolls():
    # An impossible die is no roll, so its paragraph votes IC.
    assert rule_based_turn_label(make_post(0, ["(0d6)[1]"])) == IC
    # The vote follows post.rolls, not the text: a roll on the second of
    # two paragraphs and none on the first is a tie, which goes to IC.
    post = make_post(0, ["(1d6)[2]", "(1d6)[2] (1d4)[3]"])
    assert rule_based_turn_label(post) == OOC
    rolls = tuple(r for r in post.rolls if r.paragraph_index == 1)
    assert rule_based_turn_label(dataclasses.replace(post, rolls=rolls)) == IC


def model_file(tmp_path, edit):
    """The file of ``trained()``, its JSON record changed by ``edit``."""
    path = tmp_path / "model.txt"
    save_model(trained(), path)
    record = json.loads(path.read_text(encoding="utf-8"))
    edit(record)
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return path


def assert_load_fails(path, line, problem):
    message = f"line {line}: {path}: {problem}"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_model(path)


def setting(value, *keys):
    """An edit of a model record: its item at ``keys`` becomes ``value``."""

    def edit(record):
        for key in keys[:-1]:
            record = record[key]
        record[keys[-1]] = value

    return edit


def one_label(record):
    record["labels"], record["priors"] = [IC], record["priors"][:1]
    record["weights"] = {token: w[:1] for token, w in record["weights"].items()}


class TestModelIO:
    def test_round_trip_preserves_predictions(self, tmp_path):
        model = trained()
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded == model
        # One JSON record, on one line.
        assert path.read_text(encoding="utf-8").count("\n") == 1
        rng = random.Random(13)
        vocabulary = sorted(
            t for t in model.weights if not t.startswith("__")
        )
        for _ in range(100):
            paragraph = " ".join(rng.choices(vocabulary, k=rng.randint(1, 12)))
            features = featurize(paragraph)
            assert model.predict(features) == loaded.predict(features)

    def test_the_former_text_format_is_invalid_json(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(
            "ICOOC-MODEL v1\nlabels\tIC\tOOC\nsmoothing\t1.0\n", encoding="utf-8"
        )
        assert_load_fails(path, 1, "invalid JSON (Expecting value)")

    def test_truncated_file(self, tmp_path):
        model = trained()
        path = tmp_path / "model.txt"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        message = f"line 1: {path}: invalid JSON ("
        with pytest.raises(FormatError, match=f"^{re.escape(message)}"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "absent.txt")

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
    def test_a_file_without_a_record_names_the_file(self, tmp_path, text):
        path = tmp_path / "model.txt"
        path.write_text(text, encoding="utf-8")
        message = f"{path}: holds no model record"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_model(path)

    @pytest.mark.parametrize("appended", ['{"x": 1}', None], ids=["record", "model"])
    def test_an_appended_record_names_its_line(self, tmp_path, appended):
        path = tmp_path / "model.txt"
        save_model(trained(), path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text + "\n" + (appended or text), encoding="utf-8")
        assert_load_fails(path, 3, "a second record: a model file holds one")

    @pytest.mark.parametrize(
        "edit, problem",
        [
            pytest.param(
                setting(math.nan, "smoothing"), "smoothing: must be finite",
                id="smoothing-nan",
            ),
            pytest.param(
                setting(math.inf, "priors", 1),
                "priors: must be 2 finite numbers, one per label",
                id="priors-inf",
            ),
            pytest.param(
                setting(-math.inf, "weights", DICE_FEATURE, 0),
                f"weights[{DICE_FEATURE!r}]: must be 2 finite numbers, one per label",
                id="__dice__--inf",
            ),
        ],
    )
    def test_non_finite_number_names_the_file(self, tmp_path, edit, problem):
        # json.loads reads NaN and Infinity, as json.dumps writes them.
        assert_load_fails(model_file(tmp_path, edit), 1, problem)

    @pytest.mark.parametrize(
        "edit, problem",
        [
            pytest.param(
                setting([-0.5], "priors"),
                "priors: must be 2 finite numbers, one per label",
                id="priors-one-short",
            ),
            pytest.param(
                setting([IC, IC], "labels"), "labels: must be 2 or more, unique",
                id="labels-repeated",
            ),
            pytest.param(one_label, "labels: must be 2 or more, unique", id="one-label"),
            pytest.param(
                setting([-1.5], "weights", DICE_FEATURE),
                f"weights[{DICE_FEATURE!r}]: must be 2 finite numbers, one per label",
                id="weights-one-short",
            ),
        ],
    )
    def test_labels_and_priors_must_agree(self, tmp_path, edit, problem):
        assert_load_fails(model_file(tmp_path, edit), 1, problem)

    @pytest.mark.parametrize(
        "edit, problem",
        [
            pytest.param(setting(1, "x"), "x: not an IC/OOC model field", id="unknown"),
            pytest.param(
                lambda record: record.pop("smoothing"), "smoothing: missing",
                id="missing",
            ),
            pytest.param(
                setting(1, "smoothing"), "smoothing: must be a float, not int",
                id="integer-smoothing",
            ),
            pytest.param(
                setting(True, "labels", 0), "labels[0]: must be a string, not bool",
                id="boolean-label",
            ),
            pytest.param(
                setting("-1.5", "weights", DICE_FEATURE, 0),
                f"weights[{DICE_FEATURE!r}]: must be a float, not str",
                id="string-weight",
            ),
        ],
    )
    def test_a_bad_key_or_value_names_its_line(self, tmp_path, edit, problem):
        assert_load_fails(model_file(tmp_path, edit), 1, problem)


@pytest.mark.parametrize("smoothing", [0.0, -1.0, math.nan, math.inf])
def test_smoothing_must_be_positive_and_finite(smoothing):
    with pytest.raises(ConfigError, match="smoothing: must be positive and finite"):
        train(TRAIN_SET, smoothing=smoothing)


@settings(max_examples=30)
@given(st.floats(min_value=0.1, max_value=5.0))
def test_smoothing_keeps_weights_finite(smoothing):
    model = train(TRAIN_SET, smoothing=smoothing)
    for weights in model.weights.values():
        assert all(math.isfinite(w) for w in weights)
    assert all(math.isfinite(p) for p in model.priors)


def reference_fit(featurized, labels, smoothing, constrain_dice=False):
    """The per-document loop the count-table fit replaced: (priors, weights)."""
    doc_counts = {label: 0 for label in labels}
    token_counts = {}
    label_totals = {label: 0 for label in labels}
    for features, label in featurized:
        doc_counts[label] += 1
        for token, count in features.items():
            per_label = token_counts.setdefault(token, dict.fromkeys(labels, 0))
            per_label[label] += count
            label_totals[label] += count
    total_docs = len(featurized)
    priors = tuple(math.log(doc_counts[lab] / total_docs) for lab in labels)
    denominators = {
        lab: label_totals[lab] + smoothing * len(token_counts) for lab in labels
    }
    weights = {
        token: tuple(
            math.log((per_label[lab] + smoothing) / denominators[lab])
            for lab in labels
        )
        for token, per_label in token_counts.items()
    }
    if constrain_dice and DICE_FEATURE in weights:
        ic, ooc = labels.index(IC), labels.index(OOC)
        w = list(weights[DICE_FEATURE])
        if w[ic] > w[ooc]:
            w[ic] = w[ooc]
            weights[DICE_FEATURE] = tuple(w)
    return priors, weights


def random_documents(rng, labels, n):
    vocabulary = [f"w{i}" for i in range(60)] + [DICE_FEATURE]
    return [
        (
            {t: rng.randint(1, 4) for t in rng.sample(vocabulary, rng.randint(0, 12))},
            rng.choice(labels),
        )
        for _ in range(n)
    ] + [({"w0": 1}, label) for label in labels]


def fit_cases(seed):
    """(labels, constrain_dice, featurized documents) to fit."""
    rng = random.Random(seed)
    return [
        ((IC, OOC), True, [(featurize(p.text), p.label) for p in TRAIN_SET]),
        ((IC, OOC), True, random_documents(rng, (IC, OOC), 200)),
        (("a", "b", "c", "d"), False, random_documents(rng, ("a", "b", "c", "d"), 300)),
    ]


def fold(featurized, labels):
    """``fit_from_counts``'s counts of (features, label) documents, folded
    in one at a time, in the given order, as a streaming caller counts."""
    pair_counts = {label: Counter() for label in labels}
    doc_counts = Counter()
    for features, label in featurized:
        pair_counts[label].update(features.items())
        doc_counts[label] += 1
    return pair_counts, doc_counts


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("smoothing", [0.5, 1.0])
def test_count_table_fit_equals_reference_loop(seed, smoothing, tmp_path):
    for labels, constrain, featurized in fit_cases(seed):
        model = fit_from_counts(
            *fold(featurized, labels), labels, smoothing, constrain_dice=constrain
        )
        priors, weights = reference_fit(featurized, labels, smoothing, constrain)
        assert model.priors == priors
        assert model.weights == weights
        save_model(model, tmp_path / "fit.model")
        reference = IcOocModel(labels, priors, weights, smoothing)
        save_model(reference, tmp_path / "reference.model")
        assert (tmp_path / "fit.model").read_bytes() == (
            tmp_path / "reference.model"
        ).read_bytes()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("smoothing", [0.5, 1.0])
def test_fit_from_counts_equals_fit_from_features(seed, smoothing, tmp_path):
    for labels, constrain, featurized in fit_cases(seed):
        # Documents folded in reverse order, as a streaming caller might
        # count them, fit the same model as the features in their order.
        counted = fit_from_counts(
            *fold(reversed(featurized), labels), labels, smoothing,
            constrain_dice=constrain,
        )
        model = fit_from_counts(
            *fold(featurized, labels), labels, smoothing, constrain_dice=constrain
        )
        assert counted == model
        save_model(counted, tmp_path / "counted.model")
        save_model(model, tmp_path / "fit.model")
        assert (tmp_path / "counted.model").read_bytes() == (
            tmp_path / "fit.model"
        ).read_bytes()


def test_train_does_not_depend_on_paragraph_order():
    shuffled = TRAIN_SET * 3
    random.Random(7).shuffle(shuffled)
    assert train(iter(shuffled)) == train(TRAIN_SET * 3)


def test_train_memory_stays_flat_as_the_data_grows():
    # train folds each paragraph into counts and drops it, so eight times
    # the same paragraphs, streamed from a generator, need no more memory:
    # the count tables have the same keys. (A vocabulary this large keeps
    # most counts within CPython's cached small ints at both sizes.) A
    # table of every paragraph's features would grow about eightfold.
    rng = random.Random(5)
    vocabulary = [f"word{i}" for i in range(3000)] + ["(1d20+4)[17]", "you", "12"]
    paragraphs = [
        LabeledParagraph(" ".join(rng.choices(vocabulary, k=30)), rng.choice((IC, OOC)))
        for _ in range(1000)
    ]
    train(paragraphs[:10])  # the first call's one-off allocations
    once = peak_traced_bytes(train, iter(paragraphs))
    eightfold = peak_traced_bytes(train, (p for _ in range(8) for p in paragraphs))
    assert eightfold <= once * 1.1


def test_fit_from_counts_needs_every_label():
    pair_counts = {IC: Counter({("sword", 1): 2}), OOC: Counter()}
    with pytest.raises(PbpError, match="need examples for every label; missing"):
        fit_from_counts(pair_counts, Counter({IC: 2}), (IC, OOC), 1.0)
