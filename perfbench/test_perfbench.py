"""Self-tests of the benchmark, on corpora small enough to run in seconds.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing

sys.path.insert(0, str(run.SRC))

TINY = run.Workload(
    "tiny", "test corpus", ("--campaigns", "3", "--turns", "20"),
    setup=("synth",), timed=("annotate", "eval-gst"),
)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_is_inclusive_minus_children():
    spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 9.0, 0],
        ["c", 6.0, 7.0, 3],
        ["e", 11.0, 12.0, None],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0, 1.0]
    assert tracing.root_seconds(spans) == 11.0
    summary = tracing.summarize(spans)
    assert summary["c"] == {"calls": 2, "inclusive_s": 2.0, "self_s": 2.0,
                            "durations": [1.0, 1.0]}
    assert summary["a"]["inclusive_s"] == 10.0 and summary["a"]["self_s"] == 3.0


def test_wrappers_leave_return_values_unchanged():
    from pbpstate import cli, dice, icooc, pipeline
    from pbpstate.gazetteers import load_gazetteers
    from pbpstate.synth import SynthConfig, generate_corpus

    campaigns = [c for c, _ in generate_corpus(
        SynthConfig(seed=5, num_campaigns=2, turns_per_campaign=30)
    ).pairs]
    gazetteers = load_gazetteers()

    def outputs():
        annotated = pipeline.annotate_corpus(campaigns, gazetteers)
        records = [cli.annotated_to_record(a) for a in annotated]
        text = campaigns[0].posts[1].text()
        return (
            [cli.dump_json_line(r) for r in records],
            icooc.featurize(text),
            dice.extract_rolls(campaigns[0].posts[1].paragraphs),
        )

    plain = outputs()
    tracer = tracing.Tracer()
    replaced = tracing.install(tracer)
    try:
        traced = outputs()
    finally:
        for module, attr, original in replaced:
            setattr(module, attr, original)
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"pipeline.annotate_campaign", "characters.build_profiles",
            "slots.fill_missing", "icooc.featurize"} <= names
    assert tracer.counters["slots.models_trained"] >= 1
    assert min(tracing.self_times(tracer.spans)) >= 0.0


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    result, details = run.run_workload(TINY, seed=3, seconds=0, trace=False, work=tmp_path)
    assert result["correct"], details["problems"]
    assert result["failed"] == 0
    assert result["attempted"] == run.SETUP_REPEATS * 1 + run.MIN_REPS * 2
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["per_command"]["annotate"]["sha256"]


def test_traced_run_reports_every_layer_metric(tmp_path):
    result, details = run.run_workload(TINY, seed=3, seconds=0, trace=True, work=tmp_path)
    # correct implies the traced annotate wrote the untraced bytes
    assert result["correct"], details["problems"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["dice.extract_rolls.calls_per_post"]["value"] == 2.0
    assert details["ratio_bases"]["dice.extract_rolls.calls_per_post"]["denominator"] == 60


def test_failing_command_counts_in_fail_ratio(tmp_path):
    # No set-up, so annotate finds no corpus and exits 2.
    broken = run.Workload("broken", "test", (), setup=(), timed=("annotate",))
    result, details = run.run_workload(broken, seed=1, seconds=0, trace=False, work=tmp_path)
    assert not result["correct"]
    assert result["attempted"] == result["failed"] == run.MIN_REPS
    assert details["fail_ratio"] == 1.0


def test_changed_bytes_fail_the_idempotence_check():
    first = run.Invocation("annotate", 1.0, 1.0, 0, 0.0, sha256="aa")
    same = run.Invocation("annotate", 1.0, 1.0, 0, 0.0, sha256="aa")
    other = run.Invocation("annotate", 1.0, 1.0, 0, 0.0, sha256="bb")
    run.require_same_bytes([first, same, other])
    assert first.ok and same.ok and not other.ok


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "annotate-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_benchmark_json_describes_each_workload(name):
    described = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert described[name] == run.WORKLOADS[name].why
