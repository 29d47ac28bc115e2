"""The benchmark's workloads still run, and pass their own checks, against ``src/``.

``perfbench/workloads.py`` drives every layer through its public names; a
refactor that renames or deletes one of them breaks the benchmark long before
anyone runs it.  This runs one untraced round of each workload and its checks.
"""

import sys
from pathlib import Path

import pytest

from flux.qlearn import load_qtable
from flux.solver import default_solved

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("name", ["enumerate", "montecarlo", "train_eval", "transcripts"])
def test_one_round_passes_its_checks(workloads, name, tmp_path):
    env = workloads.Env(
        1, str(tmp_path), default_solved(), load_qtable(str(PERFBENCH / "fixtures" / "q_amplifier.txt"))
    )
    workload = workloads.WORKLOADS[name](env)
    checks = workloads.Checks()
    workload.check_round(workload.run_round(None), checks)
    assert checks.attempted > 0
    assert checks.failed == 0, checks.messages
