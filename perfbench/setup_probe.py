"""One set-up as a user pays it, in a fresh interpreter.

Imports the CLI, builds the solved game and loads the fixture Q-table, then
prints how long each part took as one JSON line.  ``run.py`` starts this
script several times and times each whole process for ``setup_s``.

    python3 perfbench/setup_probe.py perfbench/fixtures/q_amplifier.txt
"""

import json
import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import flux.cli  # noqa: E402,F401  (the import is what is timed)
from flux.qlearn import load_qtable  # noqa: E402
from flux.solver import default_solved  # noqa: E402

t1 = perf_counter()
default_solved()
t2 = perf_counter()
load_qtable(sys.argv[1])
t3 = perf_counter()
print(json.dumps({
    "cli.import_s": t1 - t0,
    "solver.default_solved.s": t2 - t1,
    "qlearn.load_fixture.s": t3 - t2,
}))
