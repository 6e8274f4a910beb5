"""The package raises three error types of its own, and no others."""

import ast
import inspect
from pathlib import Path

import pbpstate
from pbpstate import errors

PACKAGE = Path(pbpstate.__file__).resolve().parent

# The package's three types, ValueError (which a decoder raises and the
# line reader turns into a FormatError), and the types a program fault or
# the parser raises.
RAISABLE = {
    "PbpError",
    "FormatError",
    "ConfigError",
    "ValueError",
    "AssertionError",
    "AttributeError",
    "SystemExit",
    "argparse.ArgumentTypeError",
}


def test_errors_defines_three_types():
    defined = {
        name
        for name, value in vars(errors).items()
        if inspect.isclass(value) and issubclass(value, Exception)
    }
    assert defined == {"PbpError", "FormatError", "ConfigError"}


def test_every_raise_names_a_known_type():
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add((path.name, ast.unparse(exc)))
    assert {(name, exc) for name, exc in raised if exc not in RAISABLE} == set()
    # The walk sees the package's raises: each of its three types is raised.
    assert {"PbpError", "FormatError", "ConfigError"} <= {exc for _, exc in raised}
