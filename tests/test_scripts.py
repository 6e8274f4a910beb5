"""The demo script under ``scripts/`` still runs end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pbpstate

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_synth_pipeline.py"


def test_run_synth_pipeline_prints_one_block_per_signal_rate(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(pbpstate.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--campaigns", "2", "--turns", "20"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    headers = [line.split("  (")[0] for line in lines if line.startswith("signal rate")]
    assert headers == ["signal rate 1.0", "signal rate 0.6", "signal rate 0.3"]
    assert sum(line.split()[:1] == ["joint"] for line in lines) == 3
    assert (tmp_path / "demo_out" / "annotated.jsonl").exists()
