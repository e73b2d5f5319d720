"""One measured process of the benchmark, started fresh by ``run.py``.

Usage (the harness passes the program's source on ``PYTHONPATH``)::

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S --trace 0|1 \
        --spawned-at T [--setup-only]

Prints one JSON object: the report ``run.py`` turns into metrics.
``--spawned-at`` is the harness's ``time.perf_counter()`` just before it
started this process (the monotonic clock is shared by every process on
the machine), so set-up time covers interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.workload == "serve-open":
        import serve_open as workload  # starts the server before importing repro
    else:
        import offline as workload
    report = workload.run(args)

    import numpy
    import repro
    from common import scale

    src = Path(__file__).resolve().parents[1] / "src"
    if src not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"repro was imported from {repro.__file__}, not {src}")
    if args.setup_only:
        setup = report.pop("first_submit") - args.spawned_at
        report["setup_raw_s"] = setup
        report["setup_s"] = setup * scale(report["calibration"])
    report["numpy"] = numpy.__version__
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
