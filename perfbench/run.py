#!/usr/bin/env python3
"""The repository benchmark: seeded naplet workloads, measured end to end.

One run::

    python3 perfbench/run.py --workload tour-tiny --seed 1 --seconds 15 --trace 0

builds the space from ``src/`` of the checkout it sits in, sets it up
and warms it several times (``setup_s`` is the median), drives the last
one for ``--seconds`` and checks every journey report and message.
``--trace 0`` reports the end-to-end metrics with nothing installed in
the space; ``--trace 1`` alternates untraced stretches with stretches
in which each server's layers are wrapped, and reports the per-layer
split of the traced ones (writing every span to ``.perfbench/``).  The
last line of standard output is the result as one JSON object; metric
names and units come from ``BENCHMARK.json``.

Every metric of every workload, checked, in one table::

    python3 perfbench/run.py --report --seconds 5
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7  # set-ups per untraced run; setup_s is their median
# A run still going this long after its --seconds is wedged: dump every
# thread's stack and exit non-zero, without a result.
WATCHDOG_SLACK_S = 130
WORKLOAD_NAMES = ("tour-tiny", "courier-cargo", "msg-chase")
# Untraced/traced stretch pairs of a traced run (even), run in the order
# untraced-traced-traced-untraced so that a drift in host speed does not
# land on one side.
TRACE_ROUNDS = 4


def _import_space() -> None:
    """Put the checkout's ``src/`` on the path, or exit without a result."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro sources under {ROOT / 'src'}\n")
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of every metric in *section* of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (q in [0, 1]) of *values*."""
    if not values:
        return 0.0
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, max(0, round(q * len(ranked)) - 1))]


def set_up(name: str, seed: int, times: int):
    """Set up and warm *times* spaces, keep the last; returns it with the
    set-up times and the problems the warm-ups and end checks found."""
    import agents
    from workloads import WORKLOADS

    timings, problems = [], []
    for i in range(times):
        agents.PROBE = agents.Probe()
        started = time.perf_counter()
        workload = WORKLOADS[name](seed)
        workload.setup()
        warm = workload.warm()
        timings.append(time.perf_counter() - started)
        problems += warm.problems
        if i < times - 1:
            problems += workload.finish()
            workload.teardown()
    return workload, timings, problems


def end_to_end(leg, setup_times: list[float]) -> dict[str, float]:
    """Every figure covers every op of the leg."""
    ops = max(leg.ops, 1)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": leg.ops / leg.elapsed,
        "op_ms_p50": quantile(leg.op_s, 0.50) * 1e3,
        "journey_ms_p50": quantile(leg.journey_s, 0.50) * 1e3,
        "cpu_us_per_op": leg.cpu / ops * 1e6,
        "wire_bytes_per_op": leg.wire_bytes / ops,
        "rss_mb_peak": leg.rss_mb,
    }


def _counters(workload) -> dict[str, int]:
    servers = list(workload.servers.values())
    return {
        "hits": sum(s.locator.cache_hits for s in servers),
        "misses": sum(s.locator.cache_misses for s in servers),
        "journal": sum(s.journal.total_appended for s in servers),
        "opened": workload.transport.connections_opened(),
        "reused": workload.transport.pool_reuse_count(),
    }


def traced_run(workload, seconds: float):
    """Alternate untraced and traced stretches for *seconds* in all.

    Returns the untraced and the traced leg, the recorder and how much
    each counter of :func:`_counters` grew over the traced stretches.
    """
    import agents
    from spans import SpanRecorder
    from workloads import Leg

    plain, traced = Leg(), Leg()
    recorder = SpanRecorder()
    grown: dict[str, int] = defaultdict(int)
    stretch = seconds / (2 * TRACE_ROUNDS)
    order = [False, True, True, False] * (TRACE_ROUNDS // 2)
    for tracing in order:
        if plain.stalled or traced.stalled:
            break
        if not tracing:
            plain.add(workload.run(stretch))
            continue
        recorder.install(list(workload.servers.values()), workload.transport)
        agents.PROBE.tracer = recorder
        before = _counters(workload)
        try:
            traced.add(workload.run(stretch))
        finally:
            agents.PROBE.tracer = None
            recorder.uninstall()
        for key, value in _counters(workload).items():
            grown[key] += value - before[key]
    return plain, traced, recorder, grown


def per_layer(workload, plain, traced, recorder, grown) -> dict[str, float]:
    from metrics import FRAME_KINDS
    from spans import coverage

    ops = max(traced.ops, 1)
    msgs = traced.ops if workload.op == "message" else 0
    count: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    kept: dict[str, list] = defaultdict(list)
    spans = recorder.spans
    for s in spans:
        count[s.layer] += 1
        busy[s.layer] += s.duration
        own[s.layer] += s.self_time
        if s.result is not None:
            kept[s.layer].append(s.result)
    hops = count["navigator.handle_transfer"]

    def per(value: float, n: int, scale: float = 1.0) -> float:
        return value / n * scale if n else 0.0

    costs = kept["serializer.encode"]
    receipts = kept["messenger.post"]
    kinds = defaultdict(int)
    for kind in kept["transport.request"]:
        kinds[kind if kind in FRAME_KINDS else "other"] += 1
    lookups = grown["hits"] + grown["misses"]
    dials = grown["opened"] + grown["reused"]
    traced_rate = traced.ops / traced.elapsed
    plain_rate = plain.ops / plain.elapsed
    return {
        # Untraced, like an end-to-end figure, but carried here without a
        # bound: on a shared host its spread from run to run exceeds the
        # largest bound BENCHMARK.json may set.
        "op_ms_p99": quantile(plain.op_s, 0.99) * 1e3,
        "serializer.encode_us_per_op": per(own["serializer.encode"], ops, 1e6),
        "serializer.decode_us_per_op": per(own["serializer.decode"], ops, 1e6),
        "serializer.encode_calls_per_op": per(count["serializer.encode"], ops),
        "serializer.image_bytes_per_hop": per(sum(c.total_bytes for c in costs), hops),
        "serializer.delta_share": per(sum(1 for c in costs if c.delta), len(costs)),
        "transport.request_self_us_per_op": per(own["transport.request"], ops, 1e6),
        "transport.requests_per_op": per(count["transport.request"], ops),
        **{
            f"transport.requests_per_op.{kind}": per(kinds[kind], ops)
            for kind in FRAME_KINDS
        },
        "transport.connections_opened": float(workload.transport.connections_opened()),
        "transport.pool_reuse_ratio": per(grown["reused"], dials),
        "navigator.dispatch_self_us_per_hop": per(own["navigator.dispatch"], hops, 1e6),
        "navigator.handle_transfer_self_us_per_hop": per(
            own["navigator.handle_transfer"], hops, 1e6
        ),
        "itinerary.travel_self_us_per_hop": per(own["itinerary.travel"], hops, 1e6),
        "security.check_us_per_op": per(own["security.check"], ops, 1e6),
        "directory.report_us_per_hop": per(own["directory.report"], hops, 1e6),
        "directory.lookup_us_per_msg": per(own["directory.lookup"], msgs, 1e6),
        "manager.record_arrival_us_per_hop": per(own["manager.record_arrival"], hops, 1e6),
        "monitor.admit_us_per_hop": per(own["monitor.admit"], hops, 1e6),
        "monitor.thread_start_us_p50": quantile(recorder.thread_start_s, 0.5) * 1e6,
        "monitor.threads_peak": float(recorder.threads_peak),
        "locator.locate_us_per_msg": per(own["locator.locate"], msgs, 1e6),
        "locator.hit_ratio": per(grown["hits"], lookups),
        "messenger.post_self_us_per_msg": per(own["messenger.post"], msgs, 1e6),
        "messenger.deliver_us_per_msg": per(busy["messenger.deliver"], msgs, 1e6),
        "messenger.forward_hops_per_msg": per(sum(r.hops for r in receipts), len(receipts)),
        "messenger.parked_share": per(
            sum(1 for r in receipts if r.status == "parked"), len(receipts)
        ),
        "mailbox.wait_us_p50": quantile(traced.mailbox_wait_s, 0.5) * 1e6,
        "eventlog.record_us_per_op": per(own["eventlog.record"], ops, 1e6),
        "eventlog.records_per_op": per(count["eventlog.record"], ops),
        "journal.records_per_op": per(grown["journal"], ops),
        "health.sample_busy_ms_per_s": busy["health.sample"] * 1e3 / traced.elapsed,
        "observatory.beat_busy_ms_per_s": busy["observatory.beat"] * 1e3 / traced.elapsed,
        "process.cpu_share": plain.cpu / plain.elapsed,
        "tracing.untraced_ops_per_s": plain_rate,
        "tracing.traced_ops_per_s": traced_rate,
        "tracing.overhead_ratio": plain_rate / traced_rate,
        "tracing.span_coverage": coverage(spans, traced.op_intervals),
    }


def run_once(args: argparse.Namespace) -> int:
    _import_space()
    faulthandler.dump_traceback_later(args.seconds + WATCHDOG_SLACK_S, exit=True)
    sys.path.insert(0, str(HERE))

    workload, setup_times, problems = set_up(
        args.workload, args.seed, 1 if args.trace else SETUPS // 2 + 1
    )
    try:
        if not args.trace:
            leg = workload.run(args.seconds)
            attempted, failed = leg.ops, leg.failed
            legs = [leg]
        else:
            plain, traced, recorder, grown = traced_run(workload, args.seconds)
            values = per_layer(workload, plain, traced, recorder, grown)
            attempted = plain.ops + traced.ops
            failed = plain.failed + traced.failed
            legs = [plain, traced]
        for done in legs:
            problems += done.problems
        problems += workload.finish()
    finally:
        workload.teardown()
    if args.trace:
        units = metric_units("per_layer")
        recorder.write(ROOT / ".perfbench" / f"spans-{args.workload}.csv.gz")
    else:
        units = metric_units("end_to_end")
        # The other set-ups follow the leg, so that setup_s samples the
        # host across the whole run rather than its first second.
        extra, more, extra_problems = set_up(
            args.workload, args.seed, SETUPS - len(setup_times)
        )
        problems += extra_problems + extra.finish()
        extra.teardown()
        values = end_to_end(leg, setup_times + more)
    for problem in problems:
        print(f"check failed: {problem}")
    for name, unit in units.items():
        print(f"{args.workload:14s} {name:44s} {values[name]:14.4f} {unit}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


def report(args: argparse.Namespace) -> int:
    """Run every workload untraced and traced; print every metric."""
    names = WORKLOAD_NAMES
    results: dict[tuple[str, int], dict] = {}
    for name in names:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: run failed (exit {proc.returncode})")
                return 1
            results[(name, trace)] = json.loads(lines[-1])
    ok = all(r["correct"] and r["failed"] == 0 for r in results.values())
    width = 44
    print(f"{'workload':14s} {'attempted':>9s} {'failed':>6s} {'failed_ratio':>12s} correct")
    for name in names:
        for trace in (0, 1):
            r = results[(name, trace)]
            ratio = r["failed"] / max(r["attempted"], 1)
            print(f"{name + ('*' if trace else ''):14s} {r['attempted']:9d} "
                  f"{r['failed']:6d} {ratio:12.4f} {r['correct']}")
    print("(* traced run)\n")
    print("end-to-end (untraced), one row per workload:")
    end_units = metric_units("end_to_end")
    print(f"{'workload':14s} " + " ".join(
        f"{m + '[' + u + ']':>22s}" for m, u in end_units.items()))
    for name in names:
        metrics = results[(name, 0)]["metrics"]
        print(f"{name:14s} " + " ".join(f"{metrics[m]['value']:22.4f}" for m in end_units))
    print(f"\n{'per-layer metric (traced)':{width}s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names))
    for metric, unit in metric_units("per_layer").items():
        row = [results[(n, 1)]["metrics"][metric]["value"] for n in names]
        print(f"{metric:{width}s} {unit:6s} " + " ".join(f"{v:14.4f}" for v in row))
    print(f"\nall outputs correct: {ok}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload, untraced and traced, and print all metrics")
    args = parser.parse_args(argv)
    if args.report:
        _import_space()
        return report(args)
    if args.workload is None:
        parser.error("--workload is required (or --report)")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
