"""What each per-layer metric should move, and where.

Names, units and directions of every metric live in ``BENCHMARK.json``
at the repository root; this module holds what that file cannot: the
layer -> end-to-end metric -> workload map, and the frame kinds the
transport's request count is split by.  ``op_ms_p99`` is an end-to-end
figure that rides, unbounded, in the per-layer list (see README.md).
"""

from __future__ import annotations

# Frame kinds counted on their own in transport.requests_per_op.<kind>.
FRAME_KINDS = (
    "naplet-transfer",
    "message",
    "report",
    "directory-event",
    "directory-query",
    "load",
    "other",
)

# per-layer metric -> (end-to-end metrics it should move, workloads it shows on)
LAYER_MAP: dict[str, tuple[str, str]] = {
    "serializer.encode_us_per_op": ("op_ms_p50 cpu_us_per_op ops_per_s", "tour-tiny courier-cargo"),
    "serializer.decode_us_per_op": ("op_ms_p50 cpu_us_per_op ops_per_s", "tour-tiny courier-cargo"),
    "serializer.encode_calls_per_op": ("op_ms_p50 cpu_us_per_op", "tour-tiny"),
    "serializer.image_bytes_per_hop": ("wire_bytes_per_op ops_per_s", "courier-cargo tour-tiny"),
    "serializer.delta_share": ("wire_bytes_per_op ops_per_s", "courier-cargo tour-tiny"),
    "transport.request_self_us_per_op": ("op_ms_p50", "msg-chase courier-cargo"),
    "transport.requests_per_op": ("op_ms_p50", "msg-chase courier-cargo"),
    **{
        f"transport.requests_per_op.{kind}": ("op_ms_p50", "msg-chase courier-cargo")
        for kind in FRAME_KINDS
    },
    "transport.connections_opened": ("op_ms_p50", "msg-chase courier-cargo"),
    "transport.pool_reuse_ratio": ("op_ms_p50", "msg-chase courier-cargo"),
    "navigator.dispatch_self_us_per_hop": ("op_ms_p50", "tour-tiny"),
    "navigator.handle_transfer_self_us_per_hop": ("op_ms_p50", "tour-tiny"),
    "itinerary.travel_self_us_per_hop": ("op_ms_p50", "tour-tiny"),
    "security.check_us_per_op": ("op_ms_p50", "tour-tiny msg-chase"),
    "directory.report_us_per_hop": ("op_ms_p50", "tour-tiny msg-chase"),
    "directory.lookup_us_per_msg": ("op_ms_p50", "msg-chase"),
    "manager.record_arrival_us_per_hop": ("op_ms_p50", "tour-tiny msg-chase"),
    "monitor.admit_us_per_hop": ("op_ms_p50 op_ms_p99", "tour-tiny"),
    "monitor.thread_start_us_p50": ("op_ms_p50 op_ms_p99", "tour-tiny"),
    "monitor.threads_peak": ("op_ms_p50 op_ms_p99", "tour-tiny"),
    "locator.locate_us_per_msg": ("op_ms_p99", "msg-chase"),
    "locator.hit_ratio": ("op_ms_p99", "msg-chase"),
    "messenger.post_self_us_per_msg": ("op_ms_p99", "msg-chase"),
    "messenger.deliver_us_per_msg": ("op_ms_p99", "msg-chase"),
    "messenger.forward_hops_per_msg": ("op_ms_p99", "msg-chase"),
    "messenger.parked_share": ("op_ms_p99", "msg-chase"),
    "mailbox.wait_us_p50": ("op_ms_p50", "msg-chase"),
    "eventlog.record_us_per_op": ("cpu_us_per_op", "tour-tiny"),
    "eventlog.records_per_op": ("cpu_us_per_op", "tour-tiny"),
    "journal.records_per_op": ("cpu_us_per_op", "tour-tiny"),
    "health.sample_busy_ms_per_s": ("cpu_us_per_op", "tour-tiny"),
    "observatory.beat_busy_ms_per_s": ("cpu_us_per_op", "tour-tiny"),
    "process.cpu_share": ("ops_per_s", "tour-tiny courier-cargo msg-chase"),
    "tracing.untraced_ops_per_s": ("ops_per_s", "tour-tiny courier-cargo msg-chase"),
    "tracing.traced_ops_per_s": ("ops_per_s", "tour-tiny courier-cargo msg-chase"),
    "tracing.overhead_ratio": ("ops_per_s", "tour-tiny courier-cargo msg-chase"),
    "tracing.span_coverage": ("op_ms_p50", "tour-tiny courier-cargo msg-chase"),
}

