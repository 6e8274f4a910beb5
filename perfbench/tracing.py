"""Outside-in span tracing for one pbpstate CLI command.

The program's source is not touched. Each traced function is replaced by
a wrapper in every ``pbpstate`` module that holds a reference to it, so
the wrapper sits at the attribute where callers look the function up
(``pipeline.build_profiles``, ``slots.featurize``, ``cli.annotated_to_record``
and so on). Spans stay in memory and are written out once, when the
command ends.

Run one traced command as a child process::

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json -- annotate --in ...

Span and ``main`` times are ``time.perf_counter`` readings. On Linux that
is CLOCK_MONOTONIC, which a parent process can compare with its own
readings to find the time spent before ``main`` started.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Sequence

# Public functions traced, named by the module that defines them. Only
# plain functions: a generator would close its span before its work ran.
TARGETS = (
    "characters.build_profiles",
    "characters.text_signals",
    "characters.extract_proper_names",
    "icooc.featurize",
    "icooc.label_turn",
    "icooc.train",
    "slots.train_slot_models",
    "slots.fill_missing",
    "pipeline.annotate_campaign",
    "pipeline.annotated_to_record",
    "pipeline.validate_record",
    "pipeline.turns_from_record",
    "transcripts.campaign_from_record",
    "transcripts.dump_json_line",
    "dice.extract_rolls",
    "combat.detect_combat_spans",
    "combat.extract_monsters",
    "combat.annotate_turn_actions",
    "serialize.build_examples",
    "serialize.write_examples",
    "evaluation.slot_accuracy",
    "synth.generate_corpus",
)

# Counters read from return values: target -> counter name and how to count.
RESULT_COUNTERS: dict[str, tuple[str, Callable[[Any], int]]] = {
    "slots.train_slot_models": ("slots.models_trained", len),
}


class Tracer:
    """Records one span per wrapped call: [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        count: tuple[str, Callable[[Any], int]] | None = None,
    ) -> Callable[..., Any]:
        spans, open_stack, counters = self.spans, self._open, self.counters

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = [name, 0.0, 0.0, open_stack[-1] if open_stack else None]
            spans.append(span)
            open_stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_stack.pop()
            if count is not None:
                counters[count[0]] += count[1](result)
            return result

        return traced


def import_all() -> list[Any]:
    """Every module of the pbpstate package, imported."""
    package = importlib.import_module("pbpstate")
    return [package] + [
        importlib.import_module(f"pbpstate.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


def install(
    tracer: Tracer, targets: Sequence[str] = TARGETS
) -> list[tuple[Any, str, Any]]:
    """Wrap each target wherever a pbpstate module refers to it.

    Returns (module, attribute, original) for every replaced attribute, so
    that a caller can put the originals back.
    """
    modules = import_all()
    replaced = []
    for target in targets:
        module_name, func_name = target.split(".")
        original = getattr(sys.modules[f"pbpstate.{module_name}"], func_name)
        wrapper = tracer.wrap(target, original, RESULT_COUNTERS.get(target))
        for module in modules:
            holders = [a for a, v in vars(module).items() if v is original]
            for attr in holders:
                setattr(module, attr, wrapper)
                replaced.append((module, attr, original))
    return replaced


def self_times(spans: Sequence[Sequence[Any]]) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Spans from one thread nest, so the children of a span cover disjoint
    parts of its interval.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(spans: Sequence[Sequence[Any]]) -> dict[str, dict[str, Any]]:
    """Per span name: call count, inclusive and self seconds, durations.

    No traced function calls itself, so inclusive time is the plain sum.
    """
    selfs = self_times(spans)
    summary: dict[str, dict[str, Any]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = summary.setdefault(
            name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "durations": []}
        )
        entry["calls"] += 1
        entry["inclusive_s"] += end - start
        entry["self_s"] += selfs[i]
        entry["durations"].append(end - start)
    return summary


def root_seconds(spans: Sequence[Sequence[Any]]) -> float:
    """Summed duration of spans that have no traced parent."""
    return sum(end - start for _, start, end, parent in spans if parent is None)


def main(argv: Sequence[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- <pbpstate command> ...", file=sys.stderr)
        return 1
    spans_path, cli_argv = argv[0], list(argv[2:])
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["pbpstate.cli"]
    main_start = time.perf_counter()
    try:
        code = cli.main(cli_argv)
    finally:
        main_end = time.perf_counter()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "argv": cli_argv,
                    "main": [main_start, main_end],
                    "counters": dict(tracer.counters),
                    "spans": tracer.spans,
                },
                handle,
                separators=(",", ":"),
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
