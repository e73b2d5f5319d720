"""Self-test of the benchmark: its checks catch a wrong decision, and it runs clean.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

1. One corrupted decision makes the reference check fail.
2. Every workload runs clean (correct, nothing failed, exactly the metrics
   ``BENCHMARK.json`` declares) on a held-out seed, untraced and traced,
   with short runs.
3. Next to nothing but ``BENCHMARK.json`` and ``perfbench``, the benchmark
   exits non-zero without printing a result.

Exits non-zero on the first failure.  Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Never used while the benchmark was tuned.
HELD_OUT_SEED = 8675309


def check_corruption_is_caught() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from common import decide, paper_scenario
    from offline import _Workload, compare_reference, reference_decisions

    work = _Workload("paper-cluster")
    scenario = paper_scenario(HELD_OUT_SEED, horizon=1e6)
    tasks = work.tasks(scenario)
    sim = work.build(scenario)
    decisions = [decide(sim, task) for task in tasks]
    expected = reference_decisions(work, scenario, tasks)
    clean = compare_reference(decisions, expected)
    assert clean["failed"] == 0, clean

    task_id, accepted, est, member = decisions[len(decisions) // 2]
    corrupted = list(decisions)
    corrupted[len(decisions) // 2] = (task_id, not accepted, est, member)
    caught = compare_reference(corrupted, expected)
    assert caught["failed"] == 1, caught
    assert caught["decisions_digest"] != caught["reference_digest"], caught
    print(f"ok: one corrupted decision of {len(tasks)} fails the reference check")


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(HELD_OUT_SEED), "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_workloads_run_clean() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, result
            names = {m["name"] for m in declared[kind]}
            assert set(result["metrics"]) == names, sorted(result["metrics"])
            print(f"ok: {workload} --trace {trace}: {result['attempted']} checked")


def check_bare_directory_fails() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "paper-cluster", 0)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok: without the program source the benchmark exits", proc.returncode)


def main() -> int:
    check_corruption_is_caught()
    check_workloads_run_clean()
    check_bare_directory_fails()
    return 0


if __name__ == "__main__":
    sys.exit(main())
