"""The narrative scripts in demos/ run to completion, and README's
Python examples give the values they claim."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name", ["deformation_check.py", "dgla_spot.py", "moduli_tour.py"])
def test_demo_runs(name, src_env):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True, text=True, timeout=120, env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def claimed_outputs(block):
    """(statement, claim) for each statement of a README code block; the
    claim is the comment at the end of an expression's line, or on the
    line after it, else None."""
    lines = block.splitlines()
    for stmt in ast.parse(block).body:
        claim = None
        if isinstance(stmt, ast.Expr):
            end = lines[stmt.end_lineno - 1]
            after = lines[stmt.end_lineno:stmt.end_lineno + 1]
            if "#" in end:
                claim = end.split("#", 1)[1].strip()
            elif after and after[0].startswith("#"):
                claim = after[0][1:].strip()
        yield stmt, claim


def test_readme_python_blocks_run_and_print_what_they_say():
    # the blocks share one namespace, in the order a reader runs them
    readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        for stmt, claim in claimed_outputs(block):
            if claim is None:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                     namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md",
                                 "eval"), namespace)
            # a claim may go on after its value: "1, matches hilbert[0]"
            assert claim == repr(value) or claim.startswith(
                repr(value) + ","), (ast.unparse(stmt), claim)
