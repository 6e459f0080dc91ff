"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q

Checks the generators, the result schema against BENCHMARK.json, the
accounting of failed operations, and the refusal to run outside a source
checkout. Full-size runs are not part of it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
from fcnsim.io import parse_network  # noqa: E402
from workloads import GENERATORS, WHY  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.01


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--scale", str(TINY),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(GENERATORS)
    assert set(WHY) == set(GENERATORS)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_seeded_and_valid(name):
    a, b, c = (GENERATORS[name](seed, TINY) for seed in (1, 1, 2))
    assert a == b
    assert a.doc != c.doc or a.seed != c.seed
    doc = parse_network(json.dumps(a.doc))
    assert a.clock in doc.network.clock_by_node
    assert a.run_flags()[:2] == ["--until", repr(a.until_s)]


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_end_to_end_result_schema_and_accounting(name):
    proc = run_bench(name, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    attempted, failed = result["attempted"], result["failed"]
    # Four CLI operations per iteration.
    assert attempted >= 4 and attempted % 4 == 0
    assert 0 <= failed <= attempted
    assert result["metrics"]["ok_frac"]["value"] == (attempted - failed) / attempted
    assert result["correct"] == (failed == 0)
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k != "ok_frac")
    # Every failure is named, so the fraction can be traced to its cause.
    assert (failed == 0) == ("FAIL " not in proc.stdout)


def test_per_layer_result_schema():
    proc = run_bench("broadcast", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["failed"] == 0 and result["correct"]


def test_checks_reject_wrong_outputs(tmp_path):
    exp = {
        "trace_sha256": "0" * 64,
        "trace_problems": [],
        "events": 2,
        "kinds": {"clock_tick": 2},
        "decays": 0,
        "second_law": 0,
        "clocks": [
            {"id": 3, "period_s": 0.25, "labels": 1, "skipped": 0, "violations": 0, "indistinguishable": 0}
        ],
    }
    trace = tmp_path / "trace.jsonl"
    trace.write_text("{}\n")
    assert checks.check_run(trace, exp)
    assert checks.check_run(tmp_path / "missing.jsonl", exp)
    head = "events: 2\n  clock_tick: 2\nentropy: 0 decays, 0 second-law violations\n"
    good = head + "clock 3 (period 0.25): 1 labels, 0 skipped, 0 causal violations, 0 indistinguishable pairs\n"
    assert checks.check_report(good, exp) == ([], [])
    rebuilt = good.replace("0.25)", "0.24999999999999997)")
    problems, known = checks.check_report(rebuilt, exp)
    assert problems and not known
    # The known defect: the exact period rebuilt from the pulses is told
    # apart from every other difference, which still fails.
    exp["clocks"][0]["rebuilt_period_s"] = 0.24999999999999997
    assert checks.check_report(rebuilt, exp) == ([], [
        "report clock 3: printed period 0.24999999999999997 rebuilt from pulses, declared 0.25"
    ])
    problems, known = checks.check_report(good.replace("0.25)", "0.2499999999999999)"), exp)
    assert problems and not known
    problems, known = checks.check_report(rebuilt.replace("1 labels", "2 labels"), exp)
    assert problems and not known
    assert checks.check_report(head, exp)[0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("chain", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
