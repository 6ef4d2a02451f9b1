"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_inproc --seed 1 --seconds 10 --trace 0

The program is imported from the checkout's ``src/``; nothing is installed.
Inputs are made from ``--seed`` (see :mod:`perfbench.inputs`).  The run
prints a readable report, then, as its last line, one JSON object::

    {"correct": true, "attempted": N, "failed": M, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics of
a traced run, whose spans are written to ``perfbench/out/``.  The exit
status is 0 when the run measured, whether or not every answer was
correct; it is non-zero when the run could not measure (no program
source, inputs that differ from the pinned ones, a crash).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def _bootstrap() -> None:
    """Put the checkout's ``src/`` and root on the path, or refuse."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    _bootstrap()
    from perfbench.inputs import InputPinError
    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.measure import median
    from perfbench.workloads import E2E_UNITS, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(WORKLOADS)}")
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), workdir
        )
    except InputPinError as error:
        sys.exit(f"perfbench: {error}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out.metrics["setup_s"] = median(out.setup)
    out.layers["host.ref_ms"] = median(out.host)
    if args.trace:
        units = PER_LAYER_UNITS
        values = out.layers
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        out.tracer.write(spans)
        out.report.append(f"spans: {spans.relative_to(ROOT)}")
    else:
        units = E2E_UNITS
        values = out.metrics

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g}"
          f" trace={args.trace}")
    for line in out.report:
        print(f"  {line}")
    print(f"  setup_s over {len(out.setup)} set-ups: "
          + ", ".join(f"{s:.3f}" for s in out.setup))
    print(f"  host.ref_ms before/after the measured phase: "
          + ", ".join(f"{ms:.2f}" for ms in out.host))
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:>16.6f} {unit}")
    print(f"  attempted {out.attempted}, failed {out.failed}")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
