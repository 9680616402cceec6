"""Invariant checks are explicit raises, which also run under python -O."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted([*(SRC / "tropgroups").glob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []


# a gauge_transform that misses b must make the witness self-check raise
OPTIMIZED_SELF_CHECK = """
from tropgroups import circles as ci
from tropgroups.errors import InvariantError
from tropgroups.groups import build_group

g = build_group("GL", 2)
a = ci.cocycle(g, (1, 0), (0, 0), 1, 1)
b = ci.gauge_transform(a, (1, -1), (0, 0), 0)
real = ci.gauge_transform
ci.gauge_transform = lambda c, k, beta, v: real(c, (0, 0), beta, v)
try:
    ci.isomorphism_witness(a, b)
except InvariantError as exc:
    print("raised:", exc)
"""


def test_witness_self_check_runs_under_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_SELF_CHECK], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised: witness")
