"""The per-layer metrics of a traced run.

Layers are the program's modules. Each metric names its source:
R = the public ``MetricsRegistry`` snapshot (deltas over the timed part),
S = spans (program ``Tracer`` spans + the harness's ``client.<op>``
spans; self time = span − children), P = the cProfile roll-up,
K = a kernel property (``Environment.events_scheduled``). A metric whose
layer a workload bypasses reads 0; it is never absent.
"""

from __future__ import annotations

from .api import DEFAULT_TESTBED, MB
from .measure import PassResult, labelled, percentile, tail_percentile
from .tracing import PROFILE_LAYERS
from .workloads import CREATE, DELETE, READ, SIZE

#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = (
    ("sim.events_scheduled", "count", "lower"),
    ("sim.host_events_per_s", "1/s", "higher"),
    ("sim.host_self_share", "share", "lower"),
    ("net.ethernet.packets", "count", "lower"),
    ("net.ethernet.payload_bytes", "bytes", "lower"),
    ("net.ethernet.background_packets", "count", "lower"),
    ("net.ethernet.lost_packets", "count", "lower"),
    ("net.ethernet.wire_sim_s", "s", "lower"),
    ("net.ethernet.host_self_share", "share", "lower"),
    ("net.rpc.transactions", "count", "lower"),
    ("net.rpc.self_sim_s", "s", "lower"),
    ("net.rpc.queue_sim_s", "s", "lower"),
    ("net.rpc.retransmits", "count", "lower"),
    ("net.rpc.host_self_share", "share", "lower"),
    ("disk.reads", "count", "lower"),
    ("disk.writes", "count", "lower"),
    ("disk.seeks", "count", "lower"),
    ("disk.seeks_per_io", "ratio", "lower"),
    ("disk.seeks_per_mb", "1/MB", "lower"),
    ("disk.blocks_read", "count", "lower"),
    ("disk.blocks_written", "count", "lower"),
    ("disk.busy_sim_s", "s", "lower"),
    ("disk.host_self_share", "share", "lower"),
    ("core.server.ops", "count", "lower"),
    ("core.server.self_sim_s", "s", "lower"),
    ("core.server.disk_sim_s", "s", "lower"),
    ("core.server.cache_sim_s", "s", "lower"),
    ("core.server.net_sim_s", "s", "lower"),
    ("core.server.error_replies", "count", "lower"),
    ("core.server.cap_checks", "count", "lower"),
    ("core.server.cap_check_hit_ratio", "ratio", "higher"),
    ("core.server.host_self_share", "share", "lower"),
    ("core.cache.lookups", "count", "lower"),
    ("core.cache.hit_ratio", "ratio", "higher"),
    ("core.cache.evictions", "count", "lower"),
    ("core.cache.evicted_bytes", "bytes", "lower"),
    ("core.cache.inserted_bytes", "bytes", "lower"),
    ("core.cache.host_self_share", "share", "lower"),
    ("core.locks.acquisitions", "count", "lower"),
    ("core.locks.contention", "count", "lower"),
    ("core.locks.wait_sim_s", "s", "lower"),
    ("core.locks.host_self_share", "share", "lower"),
    ("core.freelist.disk_fragmentation", "ratio", "lower"),
    ("core.freelist.cache_fragmentation", "ratio", "lower"),
    ("core.freelist.host_self_share", "share", "lower"),
    ("capability.host_self_share", "share", "lower"),
    ("client.bullet.calls", "count", "lower"),
    ("client.bullet.self_sim_s", "s", "lower"),
    ("client.bullet.retry_attempts", "count", "lower"),
    ("client.bullet.retry_gave_up", "count", "lower"),
    ("client.bullet.host_self_share", "share", "lower"),
    ("client.read.sim_p50_ms", "ms", "lower"),
    ("client.read.sim_p99_ms", "ms", "lower"),
    ("client.create.sim_p50_ms", "ms", "lower"),
    ("client.create.sim_p99_ms", "ms", "lower"),
    ("client.delete.sim_p50_ms", "ms", "lower"),
    ("client.size.sim_p50_ms", "ms", "lower"),
    ("client.workstation.lookups", "count", "lower"),
    ("client.workstation.hit_ratio", "ratio", "higher"),
    ("client.workstation.evictions", "count", "lower"),
    ("client.workstation.rpcs_avoided", "count", "higher"),
    ("client.workstation.bytes_saved", "bytes", "higher"),
    ("client.workstation.local_verifies", "count", "lower"),
    ("client.workstation.host_self_share", "share", "lower"),
    ("client.named.opens", "count", "lower"),
    ("client.named.dir_rpcs_per_open", "ratio", "lower"),
    ("client.named.stale_bindings", "count", "lower"),
    ("client.named.revalidations", "count", "lower"),
    ("client.named.stale_reads_served", "count", "lower"),
    ("client.named.host_self_share", "share", "lower"),
    ("directory.rpcs", "count", "lower"),
    ("directory.host_self_share", "share", "lower"),
    ("nfs.server.requests", "count", "lower"),
    ("nfs.server.op_sim_s", "s", "lower"),
    ("nfs.server.host_self_share", "share", "lower"),
    ("nfs.client.self_sim_s", "s", "lower"),
    ("nfs.client.host_self_share", "share", "lower"),
    ("nfs.buffercache.hit_ratio", "ratio", "higher"),
    ("nfs.buffercache.evictions", "count", "lower"),
    ("nfs.buffercache.write_throughs", "count", "lower"),
    ("nfs.buffercache.host_self_share", "share", "lower"),
    ("nfs.ffs.host_self_share", "share", "lower"),
    ("obs.host_self_share", "share", "lower"),
    ("bench.host_self_share", "share", "lower"),
    ("other.host_self_share", "share", "lower"),
    ("bench.span_overhead_ratio", "ratio", "lower"),
    ("bench.profile_overhead_ratio", "ratio", "lower"),
    ("bench.host_pass_iqr_share", "share", "lower"),
    ("bench.wall_over_cpu", "ratio", "lower"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(result: PassResult, spans: list, shares: dict,
                      bench: dict, directory_port, client_layer: str) -> dict:
    """Every per-layer metric of one workload, name -> value.

    ``result`` is an untraced timed pass (R and K; the span pass must have
    reproduced its counters exactly), ``spans`` the span pass's completed
    spans (S), ``shares`` the profile roll-up (P) and ``bench`` the
    harness's own ratios.
    """
    def count(name: str, **labels) -> float:
        return sum(labelled(result.counters, name, **labels))

    def hist_sum(name: str, **labels) -> float:
        return sum(total for total, _n in
                   labelled(result.histograms, name, **labels))

    def gauge(name: str, **labels) -> float:
        return sum(labelled(result.gauges, name, **labels))

    def span_total(name: str, attr: str = "sim_s") -> float:
        return sum(getattr(span, attr) for span in spans if span.name == name)

    roots = [span for span in spans if span.name.startswith("client.")]
    trans = [span for span in spans if span.name == "rpc.trans"]
    ios = count("repro_disk_reads_total") + count("repro_disk_writes_total")
    moved_bytes = DEFAULT_TESTBED.disk.block_size * (
        count("repro_disk_blocks_read_total")
        + count("repro_disk_blocks_written_total"))
    by_kind = result.latency_by_kind()

    def kind_pct(kind: str, tail: bool) -> float:
        lat = by_kind[kind]
        if not lat:
            return 0.0
        pct = tail_percentile(len(lat)) if tail else 50.0
        return percentile(lat, pct) * 1e3

    ws_lookups = count("repro_client_cache_lookups_total")
    opens = count("repro_client_coherence_opens_total")
    bc_hits = count("repro_buffercache_hits_total")
    bc_misses = count("repro_buffercache_misses_total")
    client_self = sum(span.self_sim_s for span in roots)
    bullet = client_layer == "client.bullet"
    values = {
        "sim.events_scheduled": result.events,
        "sim.host_events_per_s": result.events / bench["host_s"],
        "net.ethernet.packets": count("repro_ethernet_packets_total"),
        "net.ethernet.payload_bytes":
            count("repro_ethernet_payload_bytes_total"),
        "net.ethernet.background_packets":
            count("repro_ethernet_background_packets_total"),
        "net.ethernet.lost_packets":
            count("repro_ethernet_lost_packets_total"),
        "net.ethernet.wire_sim_s": count("repro_ethernet_wire_time_total"),
        "net.rpc.transactions": len(trans),
        "net.rpc.self_sim_s": sum(span.self_sim_s for span in trans),
        "net.rpc.queue_sim_s": span_total("rpc.queue"),
        "net.rpc.retransmits": count("repro_rpc_retransmits_total"),
        "disk.reads": count("repro_disk_reads_total"),
        "disk.writes": count("repro_disk_writes_total"),
        "disk.seeks": count("repro_disk_seeks_total"),
        "disk.seeks_per_io": _ratio(count("repro_disk_seeks_total"), ios),
        "disk.seeks_per_mb": _ratio(count("repro_disk_seeks_total"),
                                    moved_bytes / MB),
        "disk.blocks_read": count("repro_disk_blocks_read_total"),
        "disk.blocks_written": count("repro_disk_blocks_written_total"),
        "disk.busy_sim_s": count("repro_disk_busy_time_total"),
        "core.server.ops": sum(
            n for _total, n in labelled(
                result.histograms, "repro_server_op_seconds",
                server="bullet")),
        "core.server.self_sim_s": span_total("server.op", "self_sim_s"),
        "core.server.disk_sim_s": span_total("server.disk"),
        "core.server.cache_sim_s": span_total("server.cache"),
        "core.server.net_sim_s": span_total("server.net"),
        "core.server.error_replies":
            count("repro_server_error_replies_total", server="bullet"),
        "core.server.cap_checks": count("repro_server_cap_checks_total"),
        "core.server.cap_check_hit_ratio": _ratio(
            count("repro_server_cap_check_cache_hits_total"),
            count("repro_server_cap_checks_total")),
        "core.cache.lookups": count("repro_cache_lookups_total"),
        "core.cache.hit_ratio": _ratio(count("repro_cache_hits_total"),
                                       count("repro_cache_lookups_total")),
        "core.cache.evictions": count("repro_cache_evictions_total"),
        "core.cache.evicted_bytes": count("repro_cache_evicted_bytes_total"),
        "core.cache.inserted_bytes":
            count("repro_cache_inserted_bytes_total"),
        "core.locks.acquisitions": count("repro_lock_acquisitions_total"),
        "core.locks.contention": count("repro_lock_contention_total"),
        "core.locks.wait_sim_s": hist_sum("repro_lock_wait_seconds"),
        "core.freelist.disk_fragmentation":
            gauge("repro_freelist_fragmentation", area="bullet:disk"),
        "core.freelist.cache_fragmentation":
            gauge("repro_freelist_fragmentation", area="bullet:cache"),
        "client.bullet.calls": len(roots) if bullet else 0,
        "client.bullet.self_sim_s": client_self if bullet else 0.0,
        "client.bullet.retry_attempts":
            count("repro_client_retry_attempts_total"),
        "client.bullet.retry_gave_up":
            count("repro_client_retry_gave_up_total"),
        "client.read.sim_p50_ms": kind_pct(READ, False),
        "client.read.sim_p99_ms": kind_pct(READ, True),
        "client.create.sim_p50_ms": kind_pct(CREATE, False),
        "client.create.sim_p99_ms": kind_pct(CREATE, True),
        "client.delete.sim_p50_ms": kind_pct(DELETE, False),
        "client.size.sim_p50_ms": kind_pct(SIZE, False),
        "client.workstation.lookups": ws_lookups,
        "client.workstation.hit_ratio": _ratio(
            count("repro_client_cache_hits_total"), ws_lookups),
        "client.workstation.evictions":
            count("repro_client_cache_evictions_total"),
        "client.workstation.rpcs_avoided":
            count("repro_client_cache_rpcs_avoided_total"),
        "client.workstation.bytes_saved":
            count("repro_client_cache_bytes_saved_total"),
        "client.workstation.local_verifies":
            count("repro_client_cache_local_verifies_total"),
        "client.named.opens": opens,
        "client.named.dir_rpcs_per_open": _ratio(
            count("repro_client_coherence_dir_rpcs_total"), opens),
        "client.named.stale_bindings":
            count("repro_client_coherence_stale_total"),
        "client.named.revalidations":
            count("repro_client_coherence_revalidations_total"),
        "client.named.stale_reads_served": result.rec.stale_reads_served,
        # The directory server keeps no registry counters: its RPCs are
        # the rpc.trans spans addressed to its port.
        "directory.rpcs": sum(1 for span in trans
                              if span.port == directory_port),
        "nfs.server.requests": count("repro_nfs_requests_total"),
        "nfs.server.op_sim_s":
            hist_sum("repro_server_op_seconds", server="nfs"),
        "nfs.client.self_sim_s": 0.0 if bullet else client_self,
        "nfs.buffercache.hit_ratio": _ratio(bc_hits, bc_hits + bc_misses),
        "nfs.buffercache.evictions":
            count("repro_buffercache_evictions_total"),
        "nfs.buffercache.write_throughs":
            count("repro_buffercache_write_throughs_total"),
        "bench.span_overhead_ratio": bench["span_overhead_ratio"],
        "bench.profile_overhead_ratio": bench["profile_overhead_ratio"],
        "bench.host_pass_iqr_share": bench["host_pass_iqr_share"],
        "bench.wall_over_cpu": bench["wall_over_cpu"],
    }
    for layer in PROFILE_LAYERS:
        values[f"{layer}.host_self_share"] = shares[layer]
    missing = {name for name, _unit, _better in PER_LAYER} ^ set(values)
    if missing:
        raise RuntimeError(f"per-layer metric list out of step: {missing}")
    return values
