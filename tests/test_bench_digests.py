"""The benchmark's outputs at seed 1 are pinned: each workload's digest blocks,
run by bench/worker.py with no timed operations, hash to the digest recorded
here.  A change to the library that moves an output, an element index, or a
name the benchmark reads fails this test."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "classify": "bfb40377080325de718cbdb891a952ee0b7733778e880de46030eb927bfed899",
    "stability": "0f5ccc3d32fca2865d63d56f7ae460b64cf9e779d0149fa462ef0c2953b520ea",
    "iso": "68276c890e9da46fb6ee04306e9f72bf99b2444797faf11403f31a53ac34bb36",
    "models": "6134336693e2744ad9fe7ae201a049650ffb51f397c515f0a8a86906383aedf7",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_bench_digest_is_pinned(workload):
    # no bytecode is written, so the run leaves bench/ as it found it
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(ROOT / "bench" / "worker.py"), workload, "--seed", "1", "--seconds", "0", "--t0", "0"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert (result["failed"], result["failures"]) == (0, [])
    assert result["digest"] == DIGESTS[workload]
