"""Saga benchmark: run one workload and print its metrics.

    python3 sagabench/run.py --workload construct --seed 1 --seconds 10 --trace 0

Run from the root of a checkout that holds ``src/repro``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Human-readable lines come before
it.  The exit code is 0 only when every output check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

from proc import process_age_s

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".sagabench_out"

E2E_UNITS = {
    "setup_s": "s",
    "op_cpu_ms": "ms",
    "fresh_cpu_ms": "ms",
    "peak_mem_mb": "MB",
}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["construct", "serving"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed string hashing: dict and set layouts, and with them the cost
        # of the same requests, repeat from run to run
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    if not (SRC / "repro").is_dir():
        print(f"sagabench: no program at {SRC / 'repro'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated run still stops its JVM and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = OUT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serving":
            import serving

            res, tracer = serving.run(args.seed, args.seconds, bool(args.trace), process_age_s)
        else:
            import construct

            # a fixed number of ticks: construct does not read --seconds
            res, tracer = construct.run(args.seed, bool(args.trace), process_age_s, work, SRC)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for k, v in res["named"].items():
        print(f"{k:>24} = {v:.6g}" if isinstance(v, float) else f"{k:>24} = {v}")
    for e in res["errors"]:
        print(f"CHECK FAILED: {e}")
    if args.trace:
        import layers

        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        print(f"trace written to {trace_path.relative_to(ROOT)}")
        per_layer = layers.metrics(tracer, res, res["timed_s"])
        metrics = {k: {"value": float(per_layer[k]), "unit": u}
                   for k, u in layers.METRICS.items()}
    else:
        metrics = {k: {"value": float(res["e2e"][k]), "unit": u}
                   for k, u in E2E_UNITS.items()}
    print(json.dumps({
        "correct": not res["errors"],
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": metrics,
    }))
    return 0 if not res["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
