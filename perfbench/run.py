"""End-to-end benchmark of the admission path: decisions/s, latency, set-up, memory.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cluster --seed 1 --seconds 16 --trace 0

Workloads (see ``perfbench/README.md``): ``paper-cluster``,
``overload-fleet`` and ``serve-open``.  With ``--trace 0`` the last line of
standard output is the end-to-end result; with ``--trace 1`` it holds the
per-layer split of one traced pass, whose spans are written to
``.bench_out/<workload>-seed<n>.trace.json`` (Chrome trace-event format).
The line before it carries the run's provenance and check digests.

The program is used from the checkout's ``src`` directory; each measured
process is started fresh, so imports count towards set-up time.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("paper-cluster", "overload-fleet", "serve-open")

#: Set-up is measured in this many fresh processes per untraced run, before
#: the measured one; the median is reported.
SETUP_SAMPLES = 3

#: Seconds after start by which every worker has ended: one still running
#: then is killed with its children, so a run on a slow host fails within
#: the three minutes a run may take instead of running past them.
DEADLINE_S = 170.0
STARTED = perf_counter()


def spawn(args, *, setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    command = [
        sys.executable, str(WORKER), args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned-at", repr(perf_counter())]
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(
            timeout=max(DEADLINE_S - (perf_counter() - STARTED), 1.0)
        )
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def provenance(numpy_version: str) -> dict:
    """Where a number came from: source, interpreter, libraries, machine."""
    try:
        # The ceiling keeps git from reporting a repository above the checkout.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        sha = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fp
                 if line.startswith("model name")), None,
            )
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cpu_model": cpu or platform.processor() or None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    # Byte-compile once, outside every timed region: a user's installed
    # program does not recompile on each start.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(WORKER.parent, quiet=1)
    # A terminated harness still stops its workers (see ``spawn``).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    samples = []
    if not args.trace:
        samples = [spawn(args, setup_only=True) for _ in range(SETUP_SAMPLES)]
    report = spawn(args)
    metrics = dict(report["metrics"])
    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        metrics["failed_ratio"] = failed / attempted
    else:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in samples)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in declared["per_layer" if args.trace else "end_to_end"]
    }
    if set(metrics) != set(units):
        raise SystemExit(
            f"perfbench: measured {sorted(metrics)} but BENCHMARK.json "
            f"declares {sorted(units)}"
        )
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "provenance": provenance(report["numpy"]),
        "checks": report.get("checks", {}),
        "unscaled": {
            **report.get("raw", {}),
            "setup_s": [s["setup_raw_s"] for s in samples],
        },
        "calibration_s": report.get("calibration"),
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
