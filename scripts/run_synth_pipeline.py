#!/usr/bin/env python3
"""End-to-end demo on a synthetic corpus.

Generates a corpus with gold labels, runs the full annotation pipeline,
trains the IC/OOC classifier, and reports extraction quality against the
gold annotations at three signal rates. Everything lands in ./demo_out/.

Usage: python scripts/run_synth_pipeline.py [--seed N] [--campaigns K]
"""

import argparse
import random
import time
from pathlib import Path

from pbpstate.evaluation import corpus_stats, slot_accuracy
from pbpstate.gazetteers import load_gazetteers
from pbpstate.icooc import labeled_paragraphs, predict, train
from pbpstate.pipeline import annotate_corpus, annotated_to_record
from pbpstate.records import (
    SLOT_KEYS,
    gold_to_record,
    slot_rows_from_record,
    state_slot_values,
)
from pbpstate.synth import SignalRates, SynthConfig, generate
from pbpstate.transcripts import dump_json_line, write_campaigns


def run_rate(rate: float, args, gazetteers, out_dir: Path) -> None:
    config = SynthConfig(
        seed=args.seed,
        num_campaigns=args.campaigns,
        players_per_campaign=5,
        turns_per_campaign=args.turns,
        combat_density=0.05,
        signal_rates=SignalRates.uniform(rate),
        distractor_rate=0.1,
        loose_check_rate=0.06,
    )
    pairs = generate(config)
    started = time.perf_counter()
    annotated = annotate_corpus(
        (campaign for campaign, _ in pairs),
        gazetteers,
        gap_turns=config.gap_turns,
    )
    elapsed = time.perf_counter() - started

    predictions = []
    gold_rows = []
    for ac, (_, gold) in zip(annotated, pairs):
        predictions.extend(slot_rows_from_record(annotated_to_record(ac)))
        gold_rows.extend(state_slot_values(state) for state in gold.turn_states)
    report = slot_accuracy(predictions, gold_rows, list(SLOT_KEYS))
    coverage = sum(ac.coverage for ac in annotated) / len(annotated)

    print(f"\nsignal rate {rate:.1f}  (annotated in {elapsed:.1f}s, "
          f"coverage {coverage:.3f})")
    for slot, accuracy in sorted(report.per_slot.items()):
        print(f"  {slot:<16} {accuracy:.3f}  (n={report.support[slot]})")
    print(f"  {'joint':<16} {report.joint_accuracy:.3f}")

    if rate == 1.0:
        corpus_path = out_dir / "corpus.jsonl"
        gold_path = out_dir / "gold.jsonl"
        annotated_path = out_dir / "annotated.jsonl"
        write_campaigns(corpus_path, (c for c, _ in pairs))
        gold_path.write_text(
            "".join(
                dump_json_line(gold_to_record(c, g)) + "\n" for c, g in pairs
            ),
            encoding="utf-8",
        )
        annotated_path.write_text(
            "".join(
                dump_json_line(annotated_to_record(ac)) + "\n" for ac in annotated
            ),
            encoding="utf-8",
        )
        print(f"  wrote {corpus_path}, {gold_path}, {annotated_path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--campaigns", type=int, default=20)
    parser.add_argument("--turns", type=int, default=100)
    args = parser.parse_args()

    out_dir = Path("demo_out")
    out_dir.mkdir(exist_ok=True)
    gazetteers = load_gazetteers()

    stats_config = SynthConfig(
        seed=args.seed, num_campaigns=args.campaigns,
        turns_per_campaign=args.turns, players_per_campaign=5,
    )
    stats = corpus_stats(c for c, _ in generate(stats_config))
    print("corpus shape:", stats.to_dict())

    for rate in (1.0, 0.6, 0.3):
        run_rate(rate, args, gazetteers, out_dir)

    icooc_config = SynthConfig(
        seed=args.seed + 1, num_campaigns=args.campaigns,
        turns_per_campaign=args.turns, players_per_campaign=5,
        combat_density=0.05,
    )
    paragraphs = labeled_paragraphs(generate(icooc_config))
    rng = random.Random(args.seed)
    rng.shuffle(paragraphs)
    split = int(len(paragraphs) * 0.8)
    model = train(paragraphs[:split], smoothing=1.0)
    held_out = paragraphs[split:]
    accuracy = sum(
        predict(model, p.text)[0] == p.label for p in held_out
    ) / len(held_out)
    print(f"\nIC/OOC classifier: {len(paragraphs)} paragraphs, "
          f"held-out accuracy {accuracy:.3f}")


if __name__ == "__main__":
    main()
