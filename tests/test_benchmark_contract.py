"""The names the benchmark under ``perfbench/`` reads from the program.

The benchmark traces functions by name and imports a few constants; a
rename or deletion here would break it only when it runs. These tests
fail first.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from unittest import mock

import pytest

from pbpstate.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # run.py imports its sibling as ``tracing``; the name is lent for the load.
    with mock.patch.dict(sys.modules, {"tracing": tracing, spec.name: module}):
        spec.loader.exec_module(module)
    return module


runner = load_runner()


@pytest.mark.parametrize("target", tracing.TARGETS)
def test_trace_target_is_a_plain_function(target):
    module_name, func_name = target.split(".")
    func = getattr(importlib.import_module(f"pbpstate.{module_name}"), func_name)
    assert inspect.isfunction(func)
    assert not inspect.isgeneratorfunction(func)


def test_result_counters_name_trace_targets():
    assert set(tracing.RESULT_COUNTERS) <= set(tracing.TARGETS)


def test_fill_names_the_runner_imports():
    from pbpstate import pipeline

    assert set(pipeline.FILLABLE_SLOTS) <= set(pipeline.SLOT_KEYS)
    assert (pipeline.HEURISTIC, pipeline.MODEL) == ("heuristic", "model")
    assert inspect.isfunction(pipeline.validate_record)


def test_every_runner_import_resolves():
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pbpstate")
        for alias in node.names
    ]
    assert imports
    for module_name, name in imports:
        assert hasattr(importlib.import_module(module_name), name), (module_name, name)


@pytest.mark.parametrize("workload", sorted(runner.WORKLOADS))
def test_every_benchmark_command_line_parses(workload, tmp_path):
    run = runner.Run(runner.WORKLOADS[workload], 43, tmp_path)
    commands = {*run.workload.setup, *run.workload.timed, *runner.TRACE_PIPELINE}
    parser = build_parser()
    for command in sorted(commands):
        argv = run.cli_args(command)
        assert parser.parse_args(argv).command == command, argv
