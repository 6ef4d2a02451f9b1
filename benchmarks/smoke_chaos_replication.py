"""Chaos smoke: kill → publish → restart → probe auto-resync → converge.

Two passes over the self-healing contract:

1. **Deterministic ladder** — a 3-replica chaos cluster loses one
   replica, a delta publish lands while it is down, the replica comes
   back stale (restart rebuilds from the base snapshot), and the next
   probe sweep must pull the catch-up chain so every replica reports
   the *same content hash* as the publisher.
2. **Under load** — the ``replica_chaos`` built-in scenario end to end
   through the workload harness (seeded traffic + scheduled kill /
   restart / wire faults), asserting zero mixed-version answers and
   full convergence.

Appends the verdicts to ``benchmarks/out/BENCH_parallel.json`` under
``"chaos_replication"``.

Run:  python benchmarks/smoke_chaos_replication.py
(run_smoke.sh runs it after the incremental round trip)
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))
sys.path.insert(0, str(REPO / "src"))

from bench_build import merge_bench_json  # noqa: E402
from repro.workloads import (  # noqa: E402
    FaultSpec,
    build_chaos_cluster,
    get_scenario,
    prepare_scenario,
    run_scenario,
)

TIME_SCALE = 2.0


def main() -> None:
    started = time.perf_counter()
    prepared = prepare_scenario(get_scenario("replica_chaos"))

    # 1. the deterministic ladder: miss a publish, come back stale,
    #    let the probe sweep heal it
    cluster = build_chaos_cluster(
        prepared.taxonomy, FaultSpec(replicas=3, probe_after=1)
    )
    cluster.replicas[2].kill()
    cluster.router.publish_delta(prepared.delta, base_version=1, version=2)
    cluster.replicas[2].restart()  # rebuilt from the base snapshot: stale
    assert cluster.replicas[2].inner_version() == "v1"
    probe_resyncs = cluster.settle()
    assert probe_resyncs >= 1, "the probe sweep never triggered a resync"
    ladder = cluster.convergence()
    assert ladder["converged"], ladder
    hashes = {r["content_hash"] for r in ladder["replicas"]}
    assert hashes == {ladder["expected_hash"]}, (
        f"replicas diverged after resync: {sorted(hashes)}"
    )

    # 2. the same contract under seeded load + scheduled faults
    report = run_scenario(prepared, "router", time_scale=TIME_SCALE)
    assert report.audit is not None and report.audit["mixed_answers"] == 0, (
        f"mixed-version answers under chaos: {report.audit}"
    )
    assert report.convergence is not None and (
        report.convergence["converged"]
    ), report.convergence
    for action in report.actions:
        assert action.error is None, (
            f"action {action.label!r} failed: {action.error}"
        )

    total_seconds = time.perf_counter() - started
    merge_bench_json("chaos_replication", {
        "ladder_resyncs": ladder["resyncs"],
        "ladder_converged": ladder["converged"],
        "scenario": report.scenario,
        "scenario_mixed_answers": report.audit["mixed_answers"],
        "scenario_converged": report.convergence["converged"],
        "scenario_resyncs": report.convergence["resyncs"],
        "total_seconds": total_seconds,
        "round_trip": "kill->publish->restart->probe-resync->converged",
        "ok": True,
    })
    chains = report.convergence["resyncs"].get("resync_chains", 0)
    print(
        "chaos replication ok: ladder converged after "
        f"{probe_resyncs} probe resync(s); replica_chaos under load: "
        f"0 mixed answers, {chains} chained resync(s), "
        f"{total_seconds:.1f}s end to end"
    )


if __name__ == "__main__":
    main()
