"""Tests of the benchmark's own oracle, inputs and configuration.

Run from the root of the repository:  python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402

# Correct reports for the `sampled-enumerate` workload at seed 0, as the CLI
# prints them (the verifier's check list shortened).
CANNED = {
    "orbifold": {"schema": 1, "command": "orbifold", "dimension": 144, "mode": "sampled", "all_passed": True,
                 "checks": {"associativity": True, "hexagon_coproduct_left": True}},
    "cech": {"schema": 1, "command": "cech", "class_count": 2, "representatives": [[0, 0, 0], [0, 0, 4]],
             "sector_groupoid_orbits": 2, "matches_sector_groupoid": True},
    "dw": {"schema": 1, "command": "dw", "generators": 4, "hom_count": 34176, "invariant": "1424/1"},
    "sectors": {"schema": 1, "command": "sectors", "point_count": 12, "orbit_count": 2,
                "orbits": [{"base_point": 1, "size": 6, "stabilizer_order": 2},
                           {"base_point": 9, "size": 6, "stabilizer_order": 2}],
                "cardinality": "1/1"},
}

# Stands in for the CLI: prints the canned report for its subcommand, with the
# overrides from a JSON file applied, and exits with the code given there.
FAKE_CLI = """
import json, sys
canned, doctor = json.load(open(sys.argv[1])), json.load(open(sys.argv[2]))
command = sys.argv[3]
report = dict(canned[command], **doctor.get(command, {}))
print(json.dumps(report))
sys.exit(doctor.get("exit", 0))
"""


def _fake_pass(tmp_path, monkeypatch, doctor: dict) -> run.Runner:
    monkeypatch.setattr(run, "RESULTS", str(tmp_path / "results"))
    (tmp_path / "fake.py").write_text(FAKE_CLI)
    (tmp_path / "canned.json").write_text(json.dumps(CANNED))
    (tmp_path / "doctor.json").write_text(json.dumps(doctor))
    runner = run.Runner("sampled-enumerate", 0, 1, 0)
    prefix = [sys.executable, str(tmp_path / "fake.py"), str(tmp_path / "canned.json"), str(tmp_path / "doctor.json")]
    runner.run_pass(prefix, "fake")
    return runner


def test_canned_reports_pass(tmp_path, monkeypatch):
    runner = _fake_pass(tmp_path, monkeypatch, {})
    assert (runner.attempted, runner.failed) == (4, 0)


def test_doctored_report_counts_as_failed(tmp_path, monkeypatch):
    runner = _fake_pass(tmp_path, monkeypatch, {"dw": {"hom_count": 34177}})
    assert (runner.attempted, runner.failed) == (4, 1)


def test_wrong_exit_code_counts_as_failed(tmp_path, monkeypatch):
    runner = _fake_pass(tmp_path, monkeypatch, {"exit": 1})
    assert (runner.attempted, runner.failed) == (4, 4)


def test_failed_check_in_a_verifier_report_is_caught():
    inp = inputs.Inputs(0, "")
    call = inputs.Call("double", group="Q8")
    report = {"command": "double", "dimension": 64, "mode": "full", "all_passed": True,
              "checks": {"associativity": True, "antipode": True}}
    assert oracle.check(call, inp, 0, json.dumps(report)) == []
    report["checks"]["antipode"] = False
    assert oracle.check(call, inp, 0, json.dumps(report))
    assert oracle.check(call, inp, 0, "not json")


@pytest.mark.parametrize("seed", [0, 11])
def test_relabeled_inputs_keep_the_known_answers(tmp_path, seed):
    """The real CLI, given the seed's inputs, agrees with the oracle."""
    inp = inputs.Inputs(seed, str(tmp_path))
    env = dict(os.environ, PYTHONPATH=run.SRC, EQUIDOUBLE_THREADS="1")
    for call in (inputs.Call("sectors", extension="A4-S4", monodromy=1),
                 inputs.Call("dw", presentation="Sigma_2", group="S4")):
        argv = call.argv(inp)
        assert seed == 0 or all(os.path.isfile(a) for a in argv if a.endswith(".json"))
        done = subprocess.run([sys.executable, "-m", "equidouble.cli"] + argv, env=env,
                              capture_output=True, text=True, timeout=60)
        assert oracle.check(call, inp, done.returncode, done.stdout) == []


def _is_group_table(table) -> bool:
    """Identity at 0, Latin square, associative: what the program's parser accepts."""
    n = range(len(table))
    return (
        all(table[0][x] == x == table[x][0] for x in n)
        and all(sorted(row) == list(n) for row in table)
        and all(table[table[a][b]][c] == table[a][table[b][c]] for a, b, c in itertools.product(n, n, n))
    )


def test_relabeling_keeps_group_tables_and_invariants():
    rng = random.Random(5)
    table, perm = inputs.relabel(inputs.base_group("S4"), rng)
    assert _is_group_table(table) and perm[0] == 0
    assert all(_is_group_table(inputs.base_group(name)) for name in ("Q8", "D4", "A4", "S4"))
    assert oracle.genus2_hom_count(table) == 34176
    assert sum(k * n for k, n in oracle.smatrix_blocks(inputs.base_group("A4")).items()) == 14
    assert oracle.category_simples(*inputs.base_extension("Z2-Q8")) == 16


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]
