"""Workload scenario suite — the 10 built-ins against the serving stack.

Replays every built-in :mod:`repro.workloads` scenario open-loop
against the in-process :class:`TaxonomyService` facade, plus the
publish-under-load scenario against a live ``cn-probase serve``
subprocess over HTTP (the full wire path: spawn → ready-file →
replay → ``/admin/apply-delta`` mid-run → shutdown).  The two chaos
scenarios (``replica_chaos``, ``dual_publisher``) carry a
:class:`FaultSpec` and therefore run against their own fault-injected
replica cluster regardless of the requested target.

Asserted invariants:

- every scheduled call is served (open-loop: late, never dropped),
- zero serving errors on the in-process path,
- the delta publish fires and reports no error,
- **zero mixed-version answers** — no batch ever spans the publish,
  even with replicas dying, restarting stale, and a flaky wire,
- chaos scenarios end **converged**: every replica alive and at the
  publisher's exact content hash,
- every scenario × target pair lands in
  ``benchmarks/out/BENCH_parallel.json`` under ``workload_scenarios``.

Schedules are compressed 2x (``time_scale=2``) so the suite stays in
smoke-test territory; the request sequence is identical either way.
"""

from __future__ import annotations

from bench_build import BENCH_JSON
from repro.eval.report import render_table
from repro.workloads import (
    append_scenario_entry,
    builtin_scenarios,
    prepare_scenario,
    run_scenario,
)

TIME_SCALE = 2.0
#: Scenarios additionally replayed over HTTP against a live
#: ``cn-probase serve`` subprocess (the slowest target — keep it to the
#: ones whose contract involves the wire).
HTTP_SCENARIOS = ("publish_under_load",)


def _assert_clean(report, *, allow_errors: bool) -> None:
    # Open-loop contract: every scheduled event was dispatched (lateness
    # is observed per event — late, never dropped or absorbed).
    assert report.lateness.calls == report.n_events, (
        f"{report.scenario}@{report.target}: dispatched "
        f"{report.lateness.calls} of {report.n_events} events"
    )
    if not allow_errors:
        assert report.n_errors == 0, (
            f"{report.scenario}@{report.target}: "
            f"{report.n_errors} errors: {report.error_samples}"
        )
        served = sum(ledger.calls for ledger in report.per_api.values())
        assert served == report.n_calls, (
            f"{report.scenario}@{report.target}: served "
            f"{served} of {report.n_calls} calls"
        )
    for action in report.actions:
        assert action.error is None, (
            f"{report.scenario}@{report.target}: action {action.label!r} "
            f"failed: {action.error}"
        )
        assert action.fired_at_s is not None
    if report.audit is not None:
        assert report.audit["mixed_answers"] == 0, (
            f"{report.scenario}@{report.target}: "
            f"{report.audit['mixed_answers']} mixed-version answers "
            f"(samples: {report.audit['mixed_samples']})"
        )
    if report.convergence is not None:
        assert report.convergence["converged"], (
            f"{report.scenario}@{report.target}: chaos cluster did not "
            f"converge: {report.convergence}"
        )
    # Every scenario must land its sampled per-hop latency breakdown —
    # an empty one means trace sampling silently stopped working.
    assert report.per_hop, (
        f"{report.scenario}@{report.target}: no per-hop breakdown "
        f"(traced_calls={report.traced_calls})"
    )


def test_workload_scenarios_benchmark(record):
    rows = []
    reports = []
    for scenario in builtin_scenarios():
        prepared = prepare_scenario(scenario)
        targets = ["service"]
        if scenario.name in HTTP_SCENARIOS:
            targets.append("http")
        for kind in targets:
            report = run_scenario(prepared, kind, time_scale=TIME_SCALE)
            _assert_clean(report, allow_errors=kind == "http")
            append_scenario_entry(BENCH_JSON, report)
            reports.append(report)
            full = report.as_dict()
            rows.append([
                scenario.name,
                report.target,  # chaos scenarios override the target
                f"{full['throughput_calls_per_s']:,.0f}",
                f"{full['hit_rate']:.2f}",
                f"{full['lateness']['p95_seconds'] * 1e3:.1f}",
                str(full["audit"]["mixed_answers"])
                if full["audit"] is not None else "-",
            ])
    record(render_table(
        ["scenario", "target", "calls/s", "hit", "late p95 ms", "mixed"],
        rows,
        title=(
            f"Workload scenarios — {len(reports)} replays "
            f"(time_scale={TIME_SCALE:g}), perf in {BENCH_JSON.name}"
        ),
    ))
    assert BENCH_JSON.exists()
