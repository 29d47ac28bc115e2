"""Run every workload untraced and traced, print every metric, save the results.

    python3 perfbench/suite.py --seed 0 [--out results.json]

Each run is a fresh ``run.py`` process, measuring for ``run_seconds`` of
``BENCHMARK.json``.  The untraced run gives the
end-to-end metrics, the traced run the per-layer ones, tracing overhead
included.  Results, with each run's metadata kept apart from its metrics, go
to ``--out`` (default ``.bench_build/perfbench/suite-<seed>.json``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import show

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        for tag in ("meta", "extra"):
            if line.startswith(f"# {tag} "):
                out[tag] = json.loads(line[len(tag) + 3:])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    catalogue = json.loads((ROOT / "BENCHMARK.json").read_text())

    results = {}
    for workload in (w["name"] for w in catalogue["workloads"]):
        plain = run(workload, args.seed, catalogue["run_seconds"], 0)
        traced = run(workload, args.seed, catalogue["run_seconds"], 1)
        results[workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "end_to_end": plain["metrics"],
            "extra": plain["extra"],
            "per_layer": traced["metrics"],
            "meta": {"untraced": plain["meta"], "traced": traced["meta"]},
        }
        print(f"\n{workload}: {results[workload]['attempted']} checked operations, "
              f"{results[workload]['failed']} failed")
        show(plain["metrics"])
        show(plain["extra"])
        show(traced["metrics"])

    out = Path(args.out or ROOT / ".bench_build" / "perfbench" / f"suite-{args.seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {out}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
