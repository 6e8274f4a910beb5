"""Command-line interface wiring every stage into subcommands.

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr; data goes to files or stdout. Every setting is a flag, and each
flag's default is in its argparse declaration; a value out of its range
(``--window 0``, ``--smoothing nan``) is a data error. ``annotate`` has
one configuration: it always fills what it can, and each slot cell's
source says whether the turn state or a fill model set it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from itertools import combinations
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

# Each command loads only the modules it runs: a command function imports
# the package modules it needs in its own body, and this module imports
# only what the parser and the error handling need. (The docstring above
# is the parser's --help text.)
from . import __version__
from .errors import AlignmentError, ConfigError, FormatError, PbpError
from .models import SLOT_KEYS, ControlVariant

if TYPE_CHECKING:
    from .evaluation import CorpusStats

USAGE_EXIT = 1
DATA_EXIT = 2

# The benchmark's tests read these functions through this module
# (``cli.annotated_to_record``). Each is looked up in the module named here
# on access, so importing this module does not load that one.
_FORWARDED = {"annotated_to_record": "records", "dump_json_line": "transcripts"}


def __getattr__(name: str) -> Any:
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{_FORWARDED[name]}"), name)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here is exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _info(args: argparse.Namespace, message: str) -> None:
    """With ``-v``, report progress on stderr as ``INFO <message>``."""
    if args.verbose:
        print(f"INFO {message}", file=sys.stderr)


def _stats_table(stats: CorpusStats) -> str:
    rows = [
        ("Number of campaigns", f"{stats.num_campaigns}"),
        ("Average players per campaign", f"{stats.avg_players_per_campaign:g}"),
        ("Average turns per campaign", f"{stats.avg_turns_per_campaign:g}"),
        ("Average words per campaign", f"{stats.avg_words_per_campaign:g}"),
        ("Total turns", f"{stats.total_turns}"),
        ("Total words", f"{stats.total_words}"),
        ("Average dice rolls per campaign", f"{stats.avg_rolls_per_campaign:g}"),
        ("Total dice rolls", f"{stats.total_rolls}"),
    ]
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value:>12}" for label, value in rows)


def _cmd_ingest(args: argparse.Namespace) -> int:
    from .transcripts import load_campaigns, write_campaigns

    count = write_campaigns(args.out, load_campaigns(args.infile), include_rolls=True)
    _info(args, f"ingested {count} campaigns -> {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .evaluation import corpus_stats
    from .transcripts import load_campaigns

    stats = corpus_stats(load_campaigns(args.infile))
    if args.json:
        print(json.dumps(stats.to_dict(), indent=2))
    else:
        print(_stats_table(stats))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .records import gold_to_record
    from .synth import SynthConfig, generate_corpus
    from .transcripts import dump_json_line, write_campaigns, write_lines

    synth_config = SynthConfig(
        seed=args.seed,
        num_campaigns=args.campaigns,
        players_per_campaign=args.players,
        turns_per_campaign=args.turns,
        combat_density=args.combat_density,
        signal_rate=args.signal_rate,
        ooc_fraction=args.ooc_fraction,
        distractor_rate=args.distractor_rate,
        loose_check_rate=args.loose_check_rate,
        gap_turns=args.gap_turns,
    )
    corpus = generate_corpus(synth_config)
    write_campaigns(args.out, (c for c, _ in corpus.pairs))
    if args.gold:
        write_lines(
            args.gold,
            [dump_json_line(gold_to_record(c, g)) for c, g in corpus.pairs],
        )
    total_turns = int(corpus.expected_stats["total_turns"])
    _info(
        args,
        f"generated {len(corpus.pairs)} campaigns ({total_turns} turns) -> {args.out}",
    )
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    from .gazetteers import load_gazetteers
    from .icooc import load_model
    from .pipeline import annotate_corpus
    from .records import annotated_to_record, validate_record
    from .transcripts import dump_json_line, load_campaigns, write_lines

    annotated = annotate_corpus(
        load_campaigns(args.infile),
        load_gazetteers(args.gazetteers),
        gap_turns=args.gap_turns,
        icooc_model=load_model(args.icooc_model) if args.icooc_model else None,
    )

    def lines() -> Iterator[str]:
        for ac in annotated:
            record = annotated_to_record(ac)
            # Self-validation: the record must parse back into valid domain
            # types before its line is written.
            validate_record(record)
            yield dump_json_line(record)

    write_lines(args.out, lines())
    mean_coverage = (
        sum(ac.coverage for ac in annotated) / len(annotated) if annotated else 0.0
    )
    _info(
        args,
        f"annotated {len(annotated)} campaigns"
        f" (mean heuristic coverage {mean_coverage:.3f}) -> {args.out}",
    )
    return 0


def _cmd_train_icooc(args: argparse.Namespace) -> int:
    from .icooc import LabeledParagraph, labeled_paragraphs, save_model, train
    from .records import gold_from_record
    from .transcripts import load_campaigns, read_jsonl

    paragraphs: Iterable[LabeledParagraph]
    if args.labeled:
        paragraphs = read_jsonl(args.labeled, LabeledParagraph.from_dict)
    else:
        campaigns = {c.campaign_id: c for c in load_campaigns(args.corpus)}

        def gold_paragraphs(
            record: dict[str, Any],
        ) -> tuple[str, list[LabeledParagraph]]:
            campaign_id, gold = gold_from_record(record)
            if campaign_id not in campaigns:
                raise ValueError(f"campaign {campaign_id!r} is not in {args.corpus}")
            gold.validate_against(campaigns[campaign_id])
            return campaign_id, labeled_paragraphs([(campaigns[campaign_id], gold)])

        gold_records = read_jsonl(args.gold, gold_paragraphs, itemgetter(0))
        paragraphs = (p for _, ps in gold_records for p in ps)
    # train folds each paragraph into its counts as it is read; a bad
    # line raises before save_model, so the model file is complete or
    # left as it was.
    folded = 0

    def counted() -> Iterator[LabeledParagraph]:
        nonlocal folded
        for paragraph in paragraphs:
            folded += 1
            yield paragraph

    model = train(counted(), smoothing=args.smoothing)
    save_model(model, args.out)
    _info(args, f"trained IC/OOC model on {folded} paragraphs -> {args.out}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from .icooc import IC, label_turn, load_model
    from .transcripts import dump_json_line, load_campaigns, write_lines

    model = load_model(args.model)

    def lines() -> Iterator[str]:
        for campaign in load_campaigns(args.infile):
            for post in campaign.posts:
                paragraph_labels, turn_label = label_turn(model, post)
                yield dump_json_line(
                    {
                        "campaign_id": campaign.campaign_id,
                        "post_id": post.post_id,
                        "paragraph_labels": paragraph_labels,
                        "turn_label": turn_label,
                        "in_character": turn_label == IC,
                    }
                )

    write_lines(args.out, lines())
    return 0


def _cmd_serialize(args: argparse.Namespace) -> int:
    from .records import turns_from_record
    from .serialize import build_examples, write_examples
    from .transcripts import read_jsonl

    variant = ControlVariant(args.variant)
    # Checked here too, so that an empty file does not hide a bad value.
    if args.window < 1:
        raise ConfigError("window: must be positive")
    examples = (
        example
        for campaign_turns in read_jsonl(args.infile, turns_from_record, itemgetter(0))
        for example in build_examples(*campaign_turns, variant, window=args.window)
    )
    count = write_examples(args.out, examples)
    _info(args, f"serialized {count} examples ({variant.value}) -> {args.out}")
    return 0


def _cmd_eval_gst(args: argparse.Namespace) -> int:
    from .evaluation import slot_accuracy
    from .records import slot_rows_from_record
    from .transcripts import read_jsonl

    # campaign_id -> per-turn slot rows, in file order; ids must be unique.
    pred_by_id, gold_by_id = (
        dict(read_jsonl(path, slot_rows_from_record, itemgetter(0)))
        for path in (args.pred, args.gold)
    )
    extra = [cid for cid in pred_by_id if cid not in gold_by_id]
    if extra:
        raise FormatError(f"campaign {extra[0]!r} has predictions but no gold")
    pred_rows: list[dict[str, Any]] = []
    gold_rows: list[dict[str, Any]] = []
    for campaign_id, gold_turns in gold_by_id.items():
        if campaign_id not in pred_by_id:
            raise FormatError(f"campaign {campaign_id!r} has gold but no predictions")
        pred_turns = pred_by_id[campaign_id]
        if len(pred_turns) != len(gold_turns):
            raise AlignmentError(
                f"campaign {campaign_id!r}: {len(pred_turns)} predicted"
                f" vs {len(gold_turns)} gold turns"
            )
        pred_rows.extend(pred_turns)
        gold_rows.extend(gold_turns)
    report = slot_accuracy(pred_rows, gold_rows, args.slots)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        width = max(len(s) for s in args.slots + ["joint", "all (mean)"])
        print(f"{'slot':<{width}}  accuracy  support  overfill")
        for slot in args.slots:
            print(
                f"{slot:<{width}}  {report.per_slot[slot]:>8.3f}"
                f"  {report.support[slot]:>7}  {report.overfill[slot]:>8}"
            )
        print(f"{'all (mean)':<{width}}  {report.mean_accuracy:>8.3f}")
        print(
            f"{'joint':<{width}}  {report.joint_accuracy:>8.3f}"
            f"  {report.joint_support:>7}"
        )
    return 0


def _cmd_agreement(args: argparse.Namespace) -> int:
    from .evaluation import kendall_tau, pairwise_agreement, randolph_kappa
    from .evaluation import ratings_from_record
    from .transcripts import read_jsonl

    label_items: list[tuple[Any, ...]] = []
    score_items: list[tuple[float, ...]] = []

    def ratings(record: dict[str, Any]) -> tuple[Any, Any]:
        # read_jsonl is lazy: score_items holds every earlier line's scores.
        return ratings_from_record(record, len(score_items[0]) if score_items else None)

    for labels, scores in read_jsonl(args.infile, ratings):
        if labels is not None:
            label_items.append(labels)
        if scores is not None:
            score_items.append(scores)
    result: dict[str, Any] = {}
    if label_items:
        observed = pairwise_agreement(label_items)
        categories = args.categories or len(
            {label for item in label_items for label in item}
        )
        result["pairwise_agreement"] = observed
        result["categories"] = categories
        result["randolph_kappa"] = randolph_kappa(observed, categories)
    if score_items:
        taus = [kendall_tau(*pair) for pair in combinations(zip(*score_items), 2)]
        result["kendall_tau_mean"] = sum(taus) / len(taus)
        result["kendall_tau_pairs"] = len(taus)
    if not result:
        raise PbpError("ratings file held neither labels nor scores")
    print(json.dumps(result, indent=2))
    return 0


def _slot_names(value: str) -> list[str]:
    """``--slots``: comma-separated names from ``SLOT_KEYS``, none twice."""
    slots = value.split(",")
    for n, slot in enumerate(slots):
        if slot not in SLOT_KEYS:
            raise argparse.ArgumentTypeError(
                f"unknown slot {slot!r}; choose from {', '.join(SLOT_KEYS)}"
            )
        if slot in slots[:n]:
            raise argparse.ArgumentTypeError(f"slot {slot!r} given twice")
    return slots


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pbpstate", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"pbpstate {__version__}"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a transcript and materialize rolls")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic corpus with gold labels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--campaigns", type=int, default=10)
    p.add_argument("--players", type=int, default=5)
    p.add_argument("--turns", type=int, default=50)
    p.add_argument("--combat-density", type=float, default=0.04)
    p.add_argument("--signal-rate", type=float, default=1.0)
    p.add_argument("--ooc-fraction", type=float, default=0.3)
    p.add_argument("--distractor-rate", type=float, default=0.1)
    p.add_argument("--loose-check-rate", type=float, default=0.05)
    p.add_argument("--gap-turns", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--gold")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser(
        "annotate",
        help="profiles + combat + actions + IC/OOC + slot fill over a corpus",
    )
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gazetteers")
    p.add_argument("--gap-turns", type=int, default=3)
    p.add_argument("--icooc-model")
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("train-icooc", help="train the IC/OOC paragraph classifier")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--labeled", help="JSONL of {text, label} paragraphs")
    group.add_argument("--corpus", help="transcript JSONL (needs --gold)")
    p.add_argument("--gold", help="gold JSONL with paragraph labels (needs --corpus)")
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_icooc)

    p = sub.add_parser("classify", help="label a corpus with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("serialize", help="emit fine-tuning examples")
    p.add_argument("--in", dest="infile", required=True, help="annotated JSONL")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--variant", choices=[v.value for v in ControlVariant], default="none"
    )
    p.add_argument("--window", type=int, default=7)
    p.set_defaults(func=_cmd_serialize)

    p = sub.add_parser("eval-gst", help="slot and joint accuracy against gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument(
        "--slots",
        type=_slot_names,
        default=list(SLOT_KEYS),
        help="comma-separated slot names (default: all)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval_gst)

    p = sub.add_parser("agreement", help="rater agreement statistics")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--categories", type=int)
    p.set_defaults(func=_cmd_agreement)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "train-icooc" and args.corpus and not args.gold:
        parser.error("--corpus requires --gold")
    if args.command == "train-icooc" and args.gold and not args.corpus:
        parser.error("--gold requires --corpus")
    try:
        return args.func(args)
    except (PbpError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"pbpstate: error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
