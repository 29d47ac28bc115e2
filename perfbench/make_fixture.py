"""Regenerate the Q-table fixture that the ``transcripts`` workload plays with.

    python3 perfbench/make_fixture.py

Trains both tables with the standard recipe (``TrainConfig()``, seed 0) and
keeps the Amplifier's as ``perfbench/fixtures/q_amplifier.txt``.  The fixture
is committed so that a change to the learner cannot change which games that
workload plays.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from flux.qlearn import TrainConfig, save_qtable, train  # noqa: E402

if __name__ == "__main__":
    _, q_amplifier, _ = train(TrainConfig())
    save_qtable(q_amplifier, str(HERE / "fixtures" / "q_amplifier.txt"))
