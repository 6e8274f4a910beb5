"""pbpstate benchmark: the real CLI, driven as a user drives it.

One client runs commands one after another (a closed loop), each in a
fresh ``python -m pbpstate.cli`` child process, on a corpus that ``synth``
generates from ``--seed``. The program is run from ``src/`` as checked
out; nothing is installed.

    python3 perfbench/run.py --workload annotate-dense --seed 43 --seconds 35 --trace 0

With ``--trace 0`` it sets the workload up SETUP_REPEATS times, then
repeats its timed commands for ``--seconds`` seconds (at least MIN_REPS
times) and prints the end-to-end metrics: the median repetition's wall
time and throughput, peak child RSS, the median set-up time, and the
accuracy ``eval-gst`` reports for the annotation the workload made.
With ``--trace 1`` it runs the whole CLI pipeline once on the workload's
corpus with every layer's public functions wrapped in spans (see
``tracing.py``) and prints the per-layer metrics. End-to-end numbers come
only from untraced runs. ``--workload all`` runs every workload in turn.

Every run checks its outputs: each command exits 0, repeated commands
write byte-identical files (the CLI promises idempotence), and the
``annotate`` output reads back through ``pipeline.validate_record``. A
command that fails either way counts in ``failed``. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; details (per-command samples, output sha256,
span summaries) go to ``.perfbench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Sequence

import tracing  # beside this file, so on sys.path when run as a script

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
MIN_REPS = 3
DEFAULT_SEED = 43

# Files in a run's work directory, by the command that writes them.
OUTPUTS = {
    "synth": "corpus.jsonl",
    "train-icooc": "icooc.model",
    "annotate": "annotated.jsonl",
    "eval-gst": "eval.json",
    "ingest": "ingested.jsonl",
    "classify": "classified.jsonl",
    "serialize": "finetune.jsonl",
}

# The traced run covers every command, so every layer reports on every
# workload's corpus.
TRACE_PIPELINE = (
    "synth", "train-icooc", "annotate", "eval-gst", "ingest", "classify", "serialize",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth_args: tuple[str, ...]
    setup: tuple[str, ...]
    timed: tuple[str, ...]
    icooc_annotate: bool = False


# Corpora keep the campaign shapes of ROADMAP.md's 20k-post corpus at an
# eighth of its size, so that one run repeats its commands some twenty
# times: the host's CPU speed drifts by up to 1.8x for tens of seconds at
# a time, and only a median over many repetitions absorbs that.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "annotate-dense",
            "2,400 posts, 12 campaigns x 200 turns (the acceptance DISTRACTOR_CONFIG "
            "shape), seed from --seed (default 43): per-post text analysis in "
            "annotate dominates.",
            ("--campaigns", "12", "--turns", "200"),
            setup=("synth",),
            timed=("annotate", "eval-gst"),
        ),
        Workload(
            "annotate-sparse",
            "2,400 posts, 48 campaigns x 50 turns, signal rate 0.3, annotate with an "
            "IC/OOC model: per-campaign costs and model fill weigh more, and quality "
            "is not saturated.",
            ("--campaigns", "48", "--turns", "50", "--signal-rate", "0.3"),
            setup=("synth", "train-icooc"),
            timed=("annotate", "eval-gst"),
            icooc_annotate=True,
        ),
        Workload(
            "export",
            "The dense 2,400-post corpus, annotated in set-up; times ingest, "
            "train-icooc, classify, serialize --variant all: the write-heavy "
            "downstream half, no characters or fill.",
            ("--campaigns", "12", "--turns", "200"),
            setup=("synth", "annotate", "eval-gst"),
            timed=("ingest", "train-icooc", "classify", "serialize"),
        ),
    )
}


@dataclass
class Invocation:
    """One child process: what ran, how long, how much memory, and whether
    it exited 0 and passed every output check."""

    command: str
    wall_s: float
    rss_mb: float
    exit_code: int
    launch: float
    sha256: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


class Run:
    """A work directory plus every invocation made in it."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.invocations: list[Invocation] = []

    def path(self, command: str) -> Path:
        return self.work / OUTPUTS[command]

    def cli_args(self, command: str, out: Path | None = None) -> list[str]:
        out = str(out or self.path(command))
        corpus, gold = str(self.path("synth")), str(self.work / "gold.jsonl")
        model, annotated = str(self.path("train-icooc")), str(self.path("annotate"))
        if command == "synth":
            return ["synth", "--seed", str(self.seed), *self.workload.synth_args,
                    "--out", out, "--gold", gold]
        if command == "train-icooc":
            return ["train-icooc", "--corpus", corpus, "--gold", gold, "--out", out]
        if command == "annotate":
            model_args = ["--icooc-model", model] if self.workload.icooc_annotate else []
            return ["annotate", "--in", corpus, "--out", out, *model_args]
        if command == "eval-gst":
            return ["eval-gst", "--pred", annotated, "--gold", gold, "--json"]
        if command == "ingest":
            return ["ingest", "--in", corpus, "--out", out]
        if command == "classify":
            return ["classify", "--model", model, "--in", corpus, "--out", out]
        if command == "serialize":
            return ["serialize", "--in", annotated, "--variant", "all", "--out", out]
        raise ValueError(f"unknown command {command!r}")

    def run(
        self, command: str, out: Path | None = None, spans: Path | None = None
    ) -> Invocation:
        """Run one CLI command in a child process and wait for it.

        ``spans`` runs it under ``tracing.py``, which writes its spans there.
        ``eval-gst`` writes to standard output, which goes to its output file.
        """
        out = out or self.path(command)
        argv = self.cli_args(command, out)
        if spans is None:
            child = [sys.executable, "-m", "pbpstate.cli", *argv]
        else:
            child = [sys.executable, str(HERE / "tracing.py"), str(spans), "--", *argv]
        stdout_path = out if command == "eval-gst" else Path(os.devnull)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(stdout_path, "wb") as stdout, open(self.work / "stderr.txt", "ab") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(child, stdout=stdout, stderr=stderr, env=env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(command, wall, usage.ru_maxrss / 1024, proc.returncode, start)
        if inv.exit_code != 0:
            inv.problems.append(f"exit code {inv.exit_code}")
        elif not out.exists():
            inv.problems.append(f"no output {out.name}")
        else:
            inv.sha256 = sha256(out)
        self.invocations.append(inv)
        return inv

    def counts(self) -> tuple[int, int]:
        return len(self.invocations), sum(not inv.ok for inv in self.invocations)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def require_same_bytes(invocations: Sequence[Invocation]) -> None:
    """Flag every invocation whose output differs from the first's."""
    if not invocations or invocations[0].sha256 is None:
        return
    for inv in invocations[1:]:
        if inv.sha256 is not None and inv.sha256 != invocations[0].sha256:
            inv.problems.append("output differs from the first run's bytes")


def check_annotated(path: Path, expected_posts: int, inv: Invocation) -> None:
    """Read every annotated record back through pipeline.validate_record."""
    if not inv.ok:
        return
    from pbpstate.errors import PbpError
    from pbpstate.pipeline import validate_record

    posts = 0
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                validate_record(record)
                posts += len(record["posts"])
    except (PbpError, ValueError, KeyError) as exc:
        inv.problems.append(f"annotated output fails validate_record: {exc}")
        return
    if posts != expected_posts:
        inv.problems.append(f"annotated output has {posts} posts, corpus {expected_posts}")


def read_eval(path: Path, inv: Invocation) -> dict[str, Any] | None:
    if not inv.ok:
        return None
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        joint, mean = float(report["joint_accuracy"]), float(report["mean_accuracy"])
    except (ValueError, KeyError, TypeError) as exc:
        inv.problems.append(f"eval-gst --json output unreadable: {exc}")
        return None
    if not (0.0 <= joint <= 1.0 and 0.0 <= mean <= 1.0):
        inv.problems.append("eval-gst accuracy outside [0, 1]")
        return None
    return report


def corpus_posts(path: Path) -> int:
    if not path.exists():
        return 0
    with open(path, encoding="utf-8") as handle:
        return sum(len(json.loads(line)["posts"]) for line in handle)


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def run_timed(run: Run, seconds: float) -> tuple[dict[str, Any], dict[str, Any]]:
    """Set up SETUP_REPEATS times, then repeat the timed commands for
    ``seconds`` (at least MIN_REPS times). Returns metrics and details."""
    workload = run.workload
    setups = [[run.run(c) for c in workload.setup] for _ in range(SETUP_REPEATS)]
    posts = corpus_posts(run.path("synth"))

    reps: list[list[Invocation]] = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append([run.run(command) for command in workload.timed])

    for phase in (setups, reps):
        for column in zip(*phase):
            require_same_bytes(column)
    last = {inv.command: inv for inv in run.invocations}
    if "annotate" in last:
        check_annotated(run.path("annotate"), posts, last["annotate"])
    scores = read_eval(run.path("eval-gst"), last["eval-gst"]) if "eval-gst" in last else None

    totals = [sum(inv.wall_s for inv in rep) for rep in reps]
    commands_s = statistics.median(totals)
    metrics = {
        "commands_s": metric(commands_s, "s"),
        "posts_per_s": metric(posts / commands_s, "1/s"),
        "peak_rss_mb": metric(max(inv.rss_mb for rep in reps for inv in rep), "MB"),
        "setup_s": metric(statistics.median(sum(i.wall_s for i in s) for s in setups), "s"),
    }
    if scores is not None:
        metrics["joint_acc"] = metric(scores["joint_accuracy"], "ratio")
        metrics["mean_slot_acc"] = metric(scores["mean_accuracy"], "ratio")

    per_command = {}
    for phase_name, phase in (("setup", setups), ("timed", reps)):
        for column in zip(*phase):
            per_command[column[0].command] = {
                "phase": phase_name,
                "median_s": statistics.median(inv.wall_s for inv in column),
                "min_s": min(inv.wall_s for inv in column),
                "max_rss_mb": max(inv.rss_mb for inv in column),
                "n": len(column),
                "sha256": column[-1].sha256,
            }
    details = {
        "posts": posts,
        "commands_min_s": min(totals),
        "reps": len(reps),
        "setups": len(setups),
        "per_command": per_command,
        "invocations": [asdict(inv) for inv in run.invocations],
    }
    return metrics, details


def run_traced(run: Run) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run TRACE_PIPELINE with spans on; annotate also runs untraced before
    and after the two traced runs, to measure the overhead and to check
    that tracing leaves the output bytes unchanged."""
    traces: dict[str, dict[str, Any]] = {}
    unaccounted = 0.0
    annotate_runs: list[tuple[bool, Invocation]] = []
    for command in TRACE_PIPELINE:
        if command == "annotate":
            for i, traced in enumerate((False, True, True, False)):
                out = run.work / f"annotated-{i}.jsonl"
                spans = run.work / f"spans-annotate-{i}.json" if traced else None
                annotate_runs.append((traced, run.run(command, out=out, spans=spans)))
            require_same_bytes([inv for _, inv in annotate_runs])
            spans_file = run.work / "spans-annotate-1.json"
            inv = annotate_runs[1][1]
            if inv.ok:
                shutil.copyfile(run.work / "annotated-1.jsonl", run.path("annotate"))
        else:
            spans_file = run.work / f"spans-{command}.json"
            inv = run.run(command, spans=spans_file)
        if not inv.ok:
            continue
        trace = json.loads(spans_file.read_text(encoding="utf-8"))
        traces[command] = {
            "summary": tracing.summarize(trace["spans"]), "counters": trace["counters"]
        }
        unaccounted += trace["main"][1] - inv.launch - tracing.root_seconds(trace["spans"])

    posts = corpus_posts(run.path("synth"))
    check_annotated(run.path("annotate"), posts, annotate_runs[1][1])
    last = {inv.command: inv for inv in run.invocations}
    read_eval(run.path("eval-gst"), last["eval-gst"])

    metrics: dict[str, Any] = {}
    if run.counts()[1] == 0:
        metrics, details = layer_metrics(run, traces, annotate_runs, posts, unaccounted)
    else:
        details = {}
    details["spans"] = {
        command: {name: {k: v for k, v in entry.items() if k != "durations"}
                  for name, entry in trace["summary"].items()}
        for command, trace in traces.items()
    }
    return metrics, details


def layer_metrics(
    run: Run,
    traces: dict[str, dict[str, Any]],
    annotate_runs: Sequence[tuple[bool, Invocation]],
    posts: int,
    unaccounted: float,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Per-layer metrics from the spans of every traced command. Self times
    sum over all commands; call counts and ratios come from annotate."""

    def self_s(name: str) -> float:
        return sum(t["summary"].get(name, {}).get("self_s", 0.0) for t in traces.values())

    annotate = traces["annotate"]["summary"]

    def calls(name: str) -> int:
        return annotate.get(name, {}).get("calls", 0)

    metrics: dict[str, Any] = {}
    bases: dict[str, tuple[float, float]] = {}

    def ratio(name: str, numerator: float, denominator: float, unit: str) -> None:
        bases[name] = (numerator, denominator)
        metrics[name] = metric(numerator / denominator if denominator else 0.0, unit)

    for name in tracing.TARGETS:
        metrics[f"{name}.self_s"] = metric(self_s(name), "s")
    metrics["characters.text_signals.calls"] = metric(calls("characters.text_signals"), "count")
    for name in ("characters.extract_proper_names", "icooc.featurize", "dice.extract_rolls"):
        ratio(f"{name}.calls_per_post", calls(name), posts, "calls/post")

    metrics["slots.models_trained"] = metric(
        traces["annotate"]["counters"].get("slots.models_trained", 0), "count"
    )
    filled, empty = fill_counts(run.path("annotate"))
    ratio("slots.fill.accept_ratio", filled, empty, "ratio")

    campaign_ms = [d * 1000 for d in annotate["pipeline.annotate_campaign"]["durations"]]
    metrics["pipeline.annotate_campaign.p50_ms"] = metric(statistics.median(campaign_ms), "ms")
    metrics["pipeline.annotate_campaign.p95_ms"] = metric(
        statistics.quantiles(campaign_ms, n=20)[18], "ms"
    )

    untraced = [inv.wall_s for traced, inv in annotate_runs if not traced]
    traced = [inv.wall_s for traced, inv in annotate_runs if traced]
    combat = sum(
        annotate.get(name, {}).get("self_s", 0.0)
        for name in ("combat.detect_combat_spans", "combat.extract_monsters",
                     "combat.annotate_turn_actions")
    )
    ratio("combat.share_of_annotate", combat, annotate_runs[1][1].wall_s, "ratio")

    ratio(
        "serialize.bytes_per_corpus_byte",
        run.path("serialize").stat().st_size, run.path("synth").stat().st_size, "ratio",
    )
    metrics["cli.unaccounted_s"] = metric(unaccounted, "s")
    metrics["trace.overhead_s"] = metric(min(traced) - min(untraced), "s")
    details = {
        "posts": posts,
        "ratio_bases": {name: {"numerator": n, "denominator": d} for name, (n, d) in bases.items()},
        "annotate_untraced_s": untraced,
        "annotate_traced_s": traced,
        "annotate_campaigns": len(campaign_ms),
    }
    return metrics, details


def fill_counts(path: Path) -> tuple[int, int]:
    """(model-filled cells, cells the heuristics left empty) over the
    fillable slots of an annotated file."""
    from pbpstate.pipeline import FILLABLE_SLOTS, HEURISTIC, MODEL

    filled = empty = 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            for row in json.loads(line)["turn_slots"]:
                for slot in FILLABLE_SLOTS:
                    source = row[slot]["source"]
                    if source != HEURISTIC:
                        empty += 1
                        filled += source == MODEL
    return filled, empty


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, work: Path
) -> tuple[dict[str, Any], dict[str, Any]]:
    """One benchmark run in a fresh work directory. Returns the result
    object (``correct``, ``attempted``, ``failed``, ``metrics``) and the
    details written beside it. Large outputs are deleted afterwards."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, seed, work)
    try:
        metrics, details = run_traced(run) if trace else run_timed(run, seconds)
    finally:
        for leftover in work.glob("*.jsonl"):
            leftover.unlink()
    attempted, failed = run.counts()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details.update(
        workload=workload.name, seed=seed, trace=trace,
        fail_ratio=failed / attempted if attempted else 1.0,
        problems=[f"{inv.command}: {p}" for inv in run.invocations for p in inv.problems],
    )
    return result, details


def report(result: dict[str, Any], details: dict[str, Any]) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    name, seed = details["workload"], details["seed"]
    print(f"# {name} seed={seed} trace={int(details['trace'])} posts={details.get('posts')}")
    for command, row in details.get("per_command", {}).items():
        print(f"#   {command:<12} {row['phase']:<5} median {row['median_s']:.3f} s"
              f" min {row['min_s']:.3f} s"
              f" (n={row['n']})  max rss {row['max_rss_mb']:.1f} MB"
              f"  sha256 {(row['sha256'] or '-')[:16]}")
    if "reps" in details:
        print(f"#   commands_s is the median of {details['reps']} repetitions (fastest"
              f" {details['commands_min_s']:.3f} s); setup_s the median of {details['setups']}")
    for key, value in result["metrics"].items():
        base = details.get("ratio_bases", {}).get(key)
        base_text = f"  = {base['numerator']:g} / {base['denominator']:g}" if base else ""
        print(f"#   {key} = {value['value']:.6g} {value['unit']}{base_text}")
    print(f"#   fail_ratio = {details['fail_ratio']:.3f}"
          f" ({result['failed']} of {result['attempted']} commands)")
    for problem in details["problems"]:
        print(f"#   FAILED {problem}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pbpstate" / "cli.py").is_file():
        print(f"perfbench: no pbpstate source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        work = WORK / name
        result, details = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace), work
        )
        (work / "result.json").write_text(
            json.dumps({"result": result, "details": details}, indent=1), encoding="utf-8"
        )
        report(result, details)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
