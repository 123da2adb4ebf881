"""Every benchmark file must still run: smoke-execute the whole suite.

Benchmarks assert the paper's qualitative claims, so a refactor that
breaks one silently loses coverage.  This test runs each
``benchmarks/bench_*.py`` in a subprocess with ``REPRO_BENCH_SMOKE=1``
(tiny workload sizes, see ``benchmarks/conftest.py``) and requires it to
pass end to end — imports, tables, and assertions included.  The
benchmarks' JSON rows go to the test's own temporary directory
(``REPRO_BENCH_ROOT``), never into the committed ``BENCH_*.json``
baselines.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO / "benchmarks"
BENCH_FILES = sorted(p.name for p in BENCH_DIR.glob("bench_*.py"))


def test_the_suite_was_discovered():
    assert len(BENCH_FILES) >= 10, BENCH_FILES


@pytest.mark.parametrize("bench_file", BENCH_FILES)
def test_benchmark_smoke(bench_file, tmp_path):
    env = dict(os.environ)
    env["REPRO_BENCH_SMOKE"] = "1"
    env["REPRO_BENCH_ROOT"] = str(tmp_path)
    env["PYTHONPATH"] = str(REPO / "src")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", bench_file, "-q",
         "-p", "no:cacheprovider", "--benchmark-disable"],
        cwd=BENCH_DIR, env=env, capture_output=True, text=True,
        timeout=600)
    assert result.returncode == 0, (
        f"{bench_file} failed under REPRO_BENCH_SMOKE=1:\n"
        f"{result.stdout}\n{result.stderr}")
