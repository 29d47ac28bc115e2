"""``BENCHMARK.json`` and the metrics ``run.py`` computes must name the same things.

    python3 -m pytest perfbench
"""

import json
import re
import sys
from types import SimpleNamespace

import run

CATALOGUE = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fake_round(traced: bool):
    return SimpleNamespace(
        seconds=1.2 if traced else 1.0, games=10, plies=100, counts={}, extra={}, game_ns=[],
        summary={"round": [1, 1_200_000_000, 0]} if traced else None, span_count=1,
    )


def test_every_catalogued_metric_is_computed_and_no_other():
    rounds = [fake_round(i % 2 == 1) for i in range(4)]
    probes = [(1.0, {"cli.import_s": 0.2, "solver.default_solved.s": 0.5,
                     "qlearn.load_fixture.s": 0.02})]
    assert set(run.end_to_end(probes)) == {m["name"] for m in CATALOGUE["end_to_end"]}
    assert set(run.per_layer(rounds, probes)) == {m["name"] for m in CATALOGUE["per_layer"]}


def test_catalogue_names_and_units_are_well_formed():
    metrics = CATALOGUE["end_to_end"] + CATALOGUE["per_layer"]
    names = [m["name"] for m in metrics + CATALOGUE["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in CATALOGUE["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_catalogue_lists_the_workloads_that_exist():
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    assert [w["name"] for w in CATALOGUE["workloads"]] == list(WORKLOADS)


def test_game_latencies_come_from_a_fixed_number_of_traced_rounds():
    rounds = [fake_round(i % 2 == 1) for i in range(10)]
    for r in rounds:
        r.game_ns = [1000 * (k + 1) for k in range(1500)]
    probes = [(1.0, {"cli.import_s": 0.2, "solver.default_solved.s": 0.5,
                     "qlearn.load_fixture.s": 0.02})]
    values = run.per_layer(rounds, probes)
    assert values["arena.game_samples"] == 1500 * run.TAIL_ROUNDS
    assert values["arena.game_us_tail_pct"] == 99.0
