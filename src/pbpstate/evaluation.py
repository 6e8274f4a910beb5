"""Quantitative evaluation: slot accuracy, corpus statistics, agreement.

Slot accuracy scores a slot on the turns where the gold side has a value;
a predicted value on a turn whose gold is empty is counted apart, as the
slot's overfill, and never enters the accuracy. Joint accuracy is the
fraction of turns (among those with at least one gold value) where every
gold-present slot is predicted correctly, so the joint-below-minimum
relation holds whenever all slots share a turn set.

The reports, ``SlotReport`` and ``CorpusStats``, are written as JSON by
``to_dict`` from ``models._Codec``, in field order.

Kendall's tau is the tie-corrected tau-b variant, computed with a
merge-based inversion count rather than pair enumeration so the test
suite's brute-force oracle stays an independent check.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import PbpError
from .models import _NUMBER, Campaign, _Codec, _is, _items, _object


@dataclass(frozen=True)
class SlotReport(_Codec):
    """``eval-gst``'s report; ``mean_accuracy`` is the unweighted mean over
    slots, the "All" row of the report, and 0.0 with no slot. It is
    ``fsum``'s exact sum, so it does not depend on the slots' order, which
    the written report sorts; a sum past the largest float is divided as a
    ``Fraction``, since the mean itself is finite."""

    per_slot: dict[str, float]
    support: dict[str, int]
    mean_accuracy: float = field(init=False)
    joint_accuracy: float
    joint_support: int
    overfill: dict[str, int]

    def __post_init__(self) -> None:
        slots = len(self.per_slot)
        try:
            mean = math.fsum(self.per_slot.values()) / slots if slots else 0.0
        except OverflowError:
            mean = float(sum(map(Fraction, self.per_slot.values())) / slots)
        object.__setattr__(self, "mean_accuracy", mean)


def slot_accuracy(
    turns: Iterable[tuple[Mapping[str, object], Mapping[str, object]]],
    slots: Sequence[str],
) -> SlotReport:
    """Per-slot and joint accuracy over ``(prediction, gold)`` turn rows,
    each pair folded into the tallies as it is read.

    A turn counts toward a slot only when gold carries a value there; a
    missing prediction against a present gold value scores as wrong. A
    predicted value where gold is empty counts toward the slot's overfill.
    """
    correct = dict.fromkeys(slots, 0)
    support = dict.fromkeys(slots, 0)
    overfill = dict.fromkeys(slots, 0)
    joint_correct = 0
    joint_support = 0
    for pred_row, gold_row in turns:
        scored_any = False
        all_correct = True
        for slot in slots:
            gold_value = gold_row.get(slot)
            if gold_value is None:
                overfill[slot] += pred_row.get(slot) is not None
                continue
            scored_any = True
            support[slot] += 1
            if pred_row.get(slot) == gold_value:
                correct[slot] += 1
            else:
                all_correct = False
        if scored_any:
            joint_support += 1
            if all_correct:
                joint_correct += 1
    per_slot = {
        slot: (correct[slot] / support[slot]) if support[slot] else 0.0
        for slot in slots
    }
    return SlotReport(
        per_slot=per_slot,
        support=support,
        joint_accuracy=(joint_correct / joint_support) if joint_support else 0.0,
        joint_support=joint_support,
        overfill=overfill,
    )


def majority_baseline(
    train_gold: Sequence[Mapping[str, object]], slots: Sequence[str]
) -> dict[str, object]:
    """The constant most-frequent-label predictor per slot.

    Ties break toward the label seen first in the training sequence, which
    is the ``Counter``'s own order; ``max`` returns the first maximum.
    """
    counts: dict[str, Counter] = {slot: Counter() for slot in slots}
    for row in train_gold:
        for slot in slots:
            value = row.get(slot)
            if value is not None:
                counts[slot][value] += 1
    baseline: dict[str, object] = {}
    for slot in slots:
        if not counts[slot]:
            raise PbpError(f"no gold values observed for slot {slot!r}")
        baseline[slot] = max(counts[slot], key=counts[slot].__getitem__)
    return baseline


def baseline_predictions(
    baseline: Mapping[str, object], n_turns: int
) -> list[dict[str, object]]:
    return [dict(baseline) for _ in range(n_turns)]


@dataclass(frozen=True)
class CorpusStats(_Codec):
    num_campaigns: int
    avg_players_per_campaign: float
    avg_turns_per_campaign: float
    avg_words_per_campaign: float
    total_turns: int
    total_words: int
    avg_rolls_per_campaign: float
    total_rolls: int


def corpus_stats(campaigns: Iterable[Campaign]) -> CorpusStats:
    """Corpus-level counts; words are whitespace-separated tokens."""
    n = 0
    total_turns = 0
    total_words = 0
    total_rolls = 0
    total_players = 0
    for campaign in campaigns:
        n += 1
        total_turns += len(campaign.posts)
        total_players += len(campaign.player_ids)
        for post in campaign.posts:
            total_rolls += len(post.rolls)
            for paragraph in post.paragraphs:
                total_words += len(paragraph.split())
    if n == 0:
        return CorpusStats(0, 0.0, 0.0, 0.0, 0, 0, 0.0, 0)
    return CorpusStats(
        num_campaigns=n,
        avg_players_per_campaign=total_players / n,
        avg_turns_per_campaign=total_turns / n,
        avg_words_per_campaign=total_words / n,
        total_turns=total_turns,
        total_words=total_words,
        avg_rolls_per_campaign=total_rolls / n,
        total_rolls=total_rolls,
    )


_RATINGS_KEYS = frozenset({"labels", "scores"})


def ratings_from_record(
    record: Mapping[str, Any], raters: int | None
) -> tuple[tuple[Any, ...] | None, tuple[float, ...] | None]:
    """A ratings line's ``labels`` and ``scores``, each None when absent,
    else two or more, one per rater (``raters`` scores, when given). A label
    is any JSON value but an array or an object, a score a finite number;
    a bad field, or a key other than those two, raises ValueError naming
    it, as ``scores[1]: must be ...``."""
    record = _object(record, "a ratings line", _RATINGS_KEYS)
    labels = _ratings(record, "labels", _label)
    scores = _ratings(record, "scores", _score)
    if scores is not None and raters is not None and len(scores) != raters:
        raise ValueError(
            f"scores: {len(scores)} scores, but the first scored line has {raters}"
        )
    return labels, scores


def _ratings(record: Mapping[str, Any], key: str, decode: Callable) -> Any:
    if key not in record:
        return None
    row = _items(record, key, decode)
    if len(row) < 2:
        raise ValueError(f"{key}: found {len(row)}, need at least two (one per rater)")
    return row


def _label(value: Any) -> Any:
    # ``_is`` cannot state this rule: a label may be ``true`` or ``false``.
    if isinstance(value, (list, dict)):
        raise ValueError(f"must be a scalar, not {type(value).__name__}")
    return value


def _score(value: Any) -> float:
    # NaN, the infinities and an integer beyond a float's range fail this.
    if not abs(_is(value, _NUMBER)) <= sys.float_info.max:
        raise ValueError(f"must be a finite number, not {value}")
    return float(value)


def pairwise_agreement(ratings: Sequence[Sequence[object]]) -> float:
    """Mean over items of (agreeing rater pairs / total rater pairs)."""
    if not ratings:
        raise PbpError("no rated items")
    item_scores = []
    for item in ratings:
        k = len(item)
        if k < 2:
            raise PbpError("every item needs at least two ratings")
        agree = sum(
            1
            for i in range(k)
            for j in range(i + 1, k)
            if item[i] == item[j]
        )
        item_scores.append(agree / (k * (k - 1) / 2))
    return sum(item_scores) / len(item_scores)


def randolph_kappa(observed_agreement: float, k: int) -> float:
    """Free-marginal chance-adjusted agreement for k categories."""
    if not 0.0 <= observed_agreement <= 1.0:
        raise PbpError("observed_agreement must lie in [0, 1]")
    if k < 2:
        raise PbpError("k must be at least 2")
    chance = 1.0 / k
    return (observed_agreement - chance) / (1.0 - chance)


def _merge_count_inversions(values: list) -> int:
    """Count pairs i<j with values[i] > values[j] by merge sort."""
    if len(values) < 2:
        return 0
    mid = len(values) // 2
    left = values[:mid]
    right = values[mid:]
    inversions = _merge_count_inversions(left) + _merge_count_inversions(right)
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
            inversions += len(left) - i
    merged.extend(left[i:])
    merged.extend(right[j:])
    values[:] = merged
    return inversions


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-corrected Kendall correlation (tau-b)."""
    n = len(x)
    if len(y) != n:
        raise PbpError(f"{n} x values vs {len(y)} y values")
    if n < 2:
        raise PbpError("need at least two observations")
    if len(set(x)) == 1 or len(set(y)) == 1:
        raise PbpError("tau is undefined for a constant vector")

    order = sorted(range(n), key=lambda i: (x[i], y[i]))
    xs = [x[i] for i in order]
    ys = [y[i] for i in order]

    n0 = n * (n - 1) // 2
    n1 = sum(t * (t - 1) // 2 for t in Counter(xs).values())
    n2 = sum(t * (t - 1) // 2 for t in Counter(ys).values())
    n3 = sum(t * (t - 1) // 2 for t in Counter(zip(xs, ys)).values())

    # Sorting ties in x by y means inversions in y count exactly the
    # discordant pairs: x-tied pairs are already y-sorted.
    discordant = _merge_count_inversions(list(ys))
    concordant = n0 - n1 - n2 + n3 - discordant
    denominator = math.sqrt((n0 - n1) * (n0 - n2))
    return (concordant - discordant) / denominator
