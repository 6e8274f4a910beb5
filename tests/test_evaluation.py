"""Metrics against closed-form identities and brute-force oracles."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from pbpstate.errors import PbpError
from pbpstate.evaluation import (
    SlotReport,
    baseline_predictions,
    corpus_stats,
    kendall_tau,
    majority_baseline,
    pairwise_agreement,
    randolph_kappa,
    slot_accuracy,
)

from conftest import make_campaign


def brute_force_tau_b(x, y):
    """Independent oracle: enumerate every pair explicitly."""
    concordant = discordant = ties_x = ties_y = 0
    for i, j in combinations(range(len(x)), 2):
        dx = (x[i] > x[j]) - (x[i] < x[j])
        dy = (y[i] > y[j]) - (y[i] < y[j])
        if dx == 0:
            ties_x += 1
        if dy == 0:
            ties_y += 1
        if dx != 0 and dy != 0:
            if dx == dy:
                concordant += 1
            else:
                discordant += 1
    n0 = len(x) * (len(x) - 1) // 2
    return (concordant - discordant) / math.sqrt(
        (n0 - ties_x) * (n0 - ties_y)
    )


class TestSlotAccuracy:
    def test_perfect_predictions(self):
        rows = [{"a": "x", "b": "y"}] * 3
        report = slot_accuracy(zip(rows, rows), ["a", "b"])
        assert report.per_slot == {"a": 1.0, "b": 1.0}
        assert report.joint_accuracy == 1.0

    def test_each_turn_wrong_in_one_slot(self):
        gold = [{"a": "g", "b": "g"}] * 2
        pred = [{"a": "g", "b": "bad"}, {"a": "bad", "b": "g"}]
        report = slot_accuracy(zip(pred, gold), ["a", "b"])
        assert report.joint_accuracy == 0.0
        assert report.per_slot["a"] == 0.5
        assert report.per_slot["b"] == 0.5

    def test_hand_counted_example(self):
        # 4 turns; class correct on 3, race on 2, both on 2.
        gold = [{"class": "f", "race": "h"}] * 4
        pred = [
            {"class": "f", "race": "h"},
            {"class": "f", "race": "h"},
            {"class": "f", "race": "x"},
            {"class": "x", "race": "x"},
        ]
        report = slot_accuracy(zip(pred, gold), ["class", "race"])
        assert report.per_slot["class"] == 0.75
        assert report.per_slot["race"] == 0.5
        assert report.joint_accuracy == 0.5

    def test_slot_scored_only_where_gold_present(self):
        gold = [{"a": "g"}, {"a": None}]
        pred = [{"a": "g"}, {"a": "whatever"}]
        report = slot_accuracy(zip(pred, gold), ["a"])
        assert report.support["a"] == 1
        assert report.per_slot["a"] == 1.0

    def test_overfill_counts_values_where_gold_is_empty(self):
        gold = [
            {"a": "g", "b": None},
            {"a": None, "b": None},
            {"a": None, "b": "g"},
            {"a": None, "b": None},
        ]
        pred = [
            {"a": "g", "b": "x"},
            {"a": "y"},
            {"a": None, "b": "g"},
            {"a": "z", "b": None},
        ]
        report = slot_accuracy(zip(pred, gold), ["a", "b"])
        assert report.overfill == {"a": 2, "b": 1}
        assert report.per_slot == {"a": 1.0, "b": 1.0}
        assert report.support == {"a": 1, "b": 1}
        assert (report.joint_accuracy, report.joint_support) == (1.0, 2)
        assert report.to_dict()["overfill"] == {"a": 2, "b": 1}

    def test_missing_prediction_is_wrong(self):
        gold = [{"a": "g"}]
        report = slot_accuracy(zip([{}], gold), ["a"])
        assert report.per_slot["a"] == 0.0

    def test_joint_never_exceeds_min_slot_on_shared_turns(self):
        rng = random.Random(4)
        for _ in range(200):
            n = rng.randint(1, 12)
            slots = ["a", "b", "c"]
            gold = [
                {s: rng.choice("xyz") for s in slots} for _ in range(n)
            ]
            pred = [
                {s: rng.choice("xyz") for s in slots} for _ in range(n)
            ]
            report = slot_accuracy(zip(pred, gold), slots)
            assert report.joint_accuracy <= min(report.per_slot.values()) + 1e-12

    def test_mean_accuracy_is_unweighted(self):
        gold = [{"a": "g", "b": "g"}] * 2
        pred = [{"a": "g", "b": "g"}, {"a": "g", "b": "x"}]
        report = slot_accuracy(zip(pred, gold), ["a", "b"])
        assert report.mean_accuracy == pytest.approx((1.0 + 0.5) / 2)

    def test_a_written_report_reads_back_whatever_its_slot_order(self):
        # The report is written with its slots sorted; summed in slot
        # order, 0.3 + 0.2 + 0.1 and 0.1 + 0.2 + 0.3 differ in the last bit.
        report = SlotReport({"c": 0.3, "b": 0.2, "a": 0.1}, {}, 1.0, 1, {})
        assert SlotReport.from_dict(report.to_dict()) == report

    def test_the_mean_of_large_finite_accuracies_does_not_overflow(self):
        # Their sum exceeds the largest float; their mean does not.
        report = SlotReport({"a": 1e308, "b": 1e308}, {}, 1.0, 1, {})
        assert report.mean_accuracy == 1e308


class TestMajorityBaseline:
    def test_most_frequent_label(self):
        rows = [{"s": "A"}, {"s": "A"}, {"s": "B"}]
        assert majority_baseline(rows, ["s"]) == {"s": "A"}

    def test_tie_breaks_to_first_seen(self):
        rows = [{"s": "A"}, {"s": "B"}, {"s": "B"}, {"s": "A"}]
        assert majority_baseline(rows, ["s"])["s"] == "A"

    def test_self_evaluation_equals_majority_frequency(self):
        rng = random.Random(7)
        for _ in range(50):
            labels = [rng.choice("pqr") for _ in range(rng.randint(1, 30))]
            rows = [{"s": label} for label in labels]
            baseline = majority_baseline(rows, ["s"])
            report = slot_accuracy(
                zip(baseline_predictions(baseline, len(rows)), rows), ["s"]
            )
            top = max(labels.count(v) for v in set(labels))
            assert report.per_slot["s"] == pytest.approx(top / len(labels))

    def test_empty_slot(self):
        with pytest.raises(PbpError, match="no gold values observed for slot 's'"):
            majority_baseline([{"s": None}], ["s"])


class TestCorpusStats:
    def test_totals_and_averages(self):
        campaigns = [
            make_campaign([("dm", "one two three"), ("p1", "four five")]),
            make_campaign(
                [("dm", "a b"), ("p1", "c"), ("p2", "d (1d6)[3]")],
                campaign_id="c2",
            ),
        ]
        stats = corpus_stats(campaigns)
        assert stats.num_campaigns == 2
        assert stats.total_turns == 5
        assert stats.avg_turns_per_campaign == 2.5
        assert stats.total_words == 10
        assert stats.total_rolls == 1
        assert stats.avg_players_per_campaign == 2.5

    def test_empty_corpus(self):
        stats = corpus_stats([])
        assert stats.num_campaigns == 0
        assert stats.total_turns == 0
        assert stats.avg_turns_per_campaign == 0.0

    def test_order_invariance(self):
        campaigns = [
            make_campaign([("dm", "aa bb")]),
            make_campaign([("dm", "cc"), ("p", "dd ee ff")], campaign_id="c2"),
        ]
        assert corpus_stats(campaigns) == corpus_stats(list(reversed(campaigns)))


class TestAgreement:
    def test_unanimous(self):
        assert pairwise_agreement([["A", "A"], ["B", "B", "B"]]) == 1.0

    def test_one_dissenter_in_three(self):
        assert pairwise_agreement([["A", "A", "B"]]) == pytest.approx(1 / 3)

    def test_single_rating_rejected(self):
        with pytest.raises(PbpError, match="every item needs at least two ratings"):
            pairwise_agreement([["A"]])

    def test_reported_pair(self):
        assert randolph_kappa(0.8, 2) == pytest.approx(0.6, abs=1e-12)

    def test_perfect_agreement_any_k(self):
        for k in range(2, 8):
            assert randolph_kappa(1.0, k) == pytest.approx(1.0, abs=1e-12)

    def test_chance_level_is_zero(self):
        assert randolph_kappa(0.5, 2) == pytest.approx(0.0, abs=1e-12)
        for k in range(2, 8):
            assert randolph_kappa(1 / k, k) == pytest.approx(0.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(PbpError, match=r"observed_agreement must lie in \[0, 1\]"):
            randolph_kappa(1.2, 2)
        with pytest.raises(PbpError, match="k must be at least 2"):
            randolph_kappa(0.5, 1)

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
        st.integers(min_value=2, max_value=10),
    )
    def test_kappa_is_affine_in_observed_agreement(self, p1, p2, k):
        mid = (p1 + p2) / 2
        expected = (randolph_kappa(p1, k) + randolph_kappa(p2, k)) / 2
        assert randolph_kappa(mid, k) == pytest.approx(expected, abs=1e-9)


class TestKendallTau:
    def test_identical_rankings(self):
        assert kendall_tau([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_frozen_tie_example(self):
        # Brute-force enumeration over all C(4,2) pairs gives 0.8.
        assert kendall_tau([1, 2, 2, 3], [1, 3, 2, 3]) == pytest.approx(
            0.8, abs=1e-12
        )

    def test_constant_vector_rejected(self):
        with pytest.raises(PbpError, match="tau is undefined for a constant vector"):
            kendall_tau([1, 1, 1], [1, 2, 3])
        with pytest.raises(PbpError, match="need at least two observations"):
            kendall_tau([3], [3])

    def test_length_mismatch(self):
        with pytest.raises(PbpError, match="2 x values vs 3 y values"):
            kendall_tau([1, 2], [1, 2, 3])

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=2,
            max_size=12,
        )
    )
    def test_matches_brute_force_oracle(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        if len(set(x)) == 1 or len(set(y)) == 1:
            with pytest.raises(PbpError, match="tau is undefined for a constant"):
                kendall_tau(x, y)
            return
        assert kendall_tau(x, y) == pytest.approx(
            brute_force_tau_b(x, y), abs=1e-12
        )

    def test_in_range(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(2, 12)
            x = [rng.randint(0, 4) for _ in range(n)]
            y = [rng.randint(0, 4) for _ in range(n)]
            if len(set(x)) == 1 or len(set(y)) == 1:
                continue
            assert -1.0 - 1e-12 <= kendall_tau(x, y) <= 1.0 + 1e-12
