"""Self-tests of the benchmark; run from the repository root with

    python3 -m pytest perfbench/test_bench.py -q

Each test runs small (60-case) pipelines, so the file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from gate import check_run
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_CASES = 60
NUM_TEST = WORKLOADS["learn-cpu"].with_cases(SMOKE_CASES).num_test


def bench(*args, cwd=HERE.parent):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rep(work: Path, workload, delay_ms: float) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--work", str(work),
         "--cases", str(SMOKE_CASES),
         "--ratios", ",".join(str(r) for r in workload.ratios),
         "--delay-ms", str(delay_ms), "--seed", "3"],
        env=run.child_env(), capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("rep") / "learn"
    rep(work, WORKLOADS["learn-cpu"], 0)
    return work


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_emits_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--cases", str(SMOKE_CASES))
    result = result_of(proc)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] >= 1
    for name, unit in [*declared.items(), ("failed_frac", "ratio")]:
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in proc.stdout.splitlines()), name


def test_traced_run_emits_every_per_layer_metric():
    result = result_of(bench("--workload", "learn-cpu", "--seed", "1", "--seconds", "1",
                             "--trace", "1", "--cases", str(SMOKE_CASES)))
    assert result["correct"], result
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert "trace.overhead_s" in declared


def test_gate_passes_the_unmodified_run(finished_run):
    check = check_run(finished_run, NUM_TEST)
    assert (check.failed, check.problems) == (0, [])
    assert check.attempted == NUM_TEST


def _edited_copy(finished_run: Path, tmp_path: Path, edit) -> Path:
    work = tmp_path / "edited"
    shutil.copytree(finished_run, work)
    path = work / "run" / "predictions.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rows = edit(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return work


def test_gate_fails_a_flipped_charge(finished_run, tmp_path):
    def flip(rows):
        rows[0]["charge"] = "robbery" if rows[0]["charge"] != "robbery" else "theft"
        return rows

    check = check_run(_edited_copy(finished_run, tmp_path, flip), NUM_TEST)
    assert check.failed == 1


def test_gate_fails_a_deleted_row(finished_run, tmp_path):
    check = check_run(_edited_copy(finished_run, tmp_path, lambda rows: rows[1:]),
                      NUM_TEST)
    assert check.failed == 1


def test_outputs_digest_ignores_agent_latency(finished_run, tmp_path):
    slow = tmp_path / "slow"
    rep(slow, WORKLOADS["learn-cpu"], 20)
    fast = check_run(finished_run, NUM_TEST)
    assert check_run(slow, NUM_TEST).digest == fast.digest


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "learn-cpu", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
