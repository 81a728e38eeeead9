"""Run-to-run identity under ``PYTHONHASHSEED`` variation.

Python randomizes ``str.__hash__`` per process, so any set/dict-order
dependence in scheduling or packet emission shows up as two different
outputs for the same command under two hash seeds.  These tests run the
real CLI in subprocesses — the hash seed is fixed at interpreter start,
so an in-process test could never vary it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

FIGURE_3_1 = [
    "run",
    "figure_3_1",
    "--scale",
    "0.05",
    "--processors",
    "2",
    "--selectivity",
    "0.3",
]


#: One quick render per machine family that runs the shared page kernels:
#: the data-flow machine (E6), the ring machine and DIRECT (E10), the
#: project/union seen-sets (E11), and all three under crashes (E17).
KERNEL_RENDERS = ("dataflow", "ring_vs_direct", "project", "recovery")

RENDER_SCRIPT = (
    "import sys\n"
    "from repro.check.identity import render_experiment\n"
    "for name in sys.argv[1:]:\n"
    "    print(render_experiment(name))\n"
)


def run_cli(args, hashseed):
    return run_python(["-m", "repro", *args], hashseed)


def run_python(args, hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hashseed)
    env["PYTHONPATH"] = str(REPO / "src")
    result = subprocess.run(
        [sys.executable, *args],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("other_seed", ["1", "31337"])
def test_figure_3_1_is_hashseed_invariant(other_seed):
    baseline = run_cli(FIGURE_3_1, hashseed="0")
    varied = run_cli(FIGURE_3_1, hashseed=other_seed)
    assert varied == baseline


def test_figure_3_1_sanitized_is_hashseed_invariant_and_identical():
    baseline = run_cli(FIGURE_3_1, hashseed="0")
    sanitized = run_cli(FIGURE_3_1 + ["--sanitize"], hashseed="7")
    assert sanitized == baseline


def test_workload_database_is_hashseed_invariant():
    args = ["workload", "--scale", "0.05"]
    assert run_cli(args, hashseed="0") == run_cli(args, hashseed="99")


def test_every_machines_quick_render_is_hashseed_invariant():
    args = ["-c", RENDER_SCRIPT, *KERNEL_RENDERS]
    assert run_python(args, hashseed="0") == run_python(args, hashseed="1")
