"""The audit-query plane: AuditQuery over tiered and untiered spines,
index-probe accounting, and the tiered ≡ flat-filter equivalence
property (see docs/audit_storage.md)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import (
    AuditLog,
    AuditQuery,
    AuditSpine,
    ComplianceAuditor,
    RecordKind,
    denial_rate_below,
    no_flows_to,
    record_matches,
)
from repro.ifc import SecurityContext
from repro.sim import Simulator

CTX = SecurityContext.of(["medical", "ann"], ["hosp-dev"])
STATS_CTX = SecurityContext.of(["stats"], [])


def make_spine(tmp_path=None, **kw):
    sim = Simulator()
    spine = AuditSpine(clock=sim.now, name="audit@test", **kw)
    if tmp_path is not None:
        spine.configure_spill(tmp_path, hot_segments=1, seal_every=8)
    return sim, spine


def seed_events(sim, spine, n=40):
    for i in range(n):
        kind = (
            RecordKind.FLOW_DENIED if i % 5 == 0 else RecordKind.FLOW_ALLOWED
        )
        ctx = CTX if i % 3 == 0 else STATS_CTX
        spine.emit(
            "bus", kind, f"actor{i % 4}", f"dev{i % 7}", {"i": i}, ctx, ctx
        )
        sim.clock.advance(1.0)
    spine.drain()


class TestAuditQueryOverTiers:
    def test_results_equal_flat_filter(self, tmp_path):
        sim, spine = make_spine(tmp_path)
        seed_events(sim, spine)
        q = AuditQuery(spine)
        flat = list(spine)
        for filters in (
            dict(actor="actor1"),
            dict(entity="dev3"),
            dict(kind=RecordKind.FLOW_DENIED),
            dict(tag="local:ann"),
            dict(since=10.0, until=25.0),
            dict(actor="actor2", tag="local:stats", since=5.0),
        ):
            expect = [r for r in flat if record_matches(r, **filters)]
            assert q.query(**filters) == expect

    def test_index_probes_skip_segments(self, tmp_path):
        sim, spine = make_spine(tmp_path)
        seed_events(sim, spine)
        q = AuditQuery(spine)
        q.time_range(since=0.0, until=5.0)  # lives in the first segment
        stats = q.last_stats
        assert stats.segments_total >= 4
        assert stats.segments_scanned < stats.segments_total
        assert stats.segments_skipped > 0

    def test_cold_loads_counted(self, tmp_path):
        sim, spine = make_spine(tmp_path)
        seed_events(sim, spine)
        assert spine.tier_stats()["cold_segments"] > 0
        q = AuditQuery(spine)
        q.query(tag="local:medical")  # present in every segment
        assert q.last_stats.cold_loads > 0
        assert spine.tier_stats()["cold_loads"] > 0

    def test_impossible_filter_scans_no_segments(self, tmp_path):
        sim, spine = make_spine(tmp_path)
        seed_events(sim, spine)
        q = AuditQuery(spine)
        assert q.by_actor("mallory") == []
        assert q.last_stats.segments_scanned == 0

    def test_query_sees_staged_records(self, tmp_path):
        sim, spine = make_spine(tmp_path)
        spine.emit("bus", RecordKind.FLOW_ALLOWED, "late", "dev", {}, CTX)
        q = AuditQuery(spine)
        assert [r.actor for r in q.by_actor("late")] == ["late"]

    def test_by_tag_accepts_tag_objects(self, tmp_path):
        sim, spine = make_spine(tmp_path)
        seed_events(sim, spine, n=6)
        tag = next(iter(CTX.secrecy))
        q = AuditQuery(spine)
        assert q.by_tag(tag) == q.by_tag(tag.qualified)


class TestCompliancePortability:
    def _violating(self, sink):
        sink.flow_allowed("eu-sensor", "us-store", CTX, CTX)
        for __ in range(3):
            sink.flow_allowed("eu-sensor", "eu-store", CTX, CTX)

    def test_checkers_agree_across_sink_kinds(self, tmp_path):
        sim = Simulator()
        log = AuditLog(clock=sim.now)
        spine = AuditSpine(clock=sim.now, name="audit@test")
        spine.configure_spill(tmp_path, hot_segments=0, seal_every=2)
        self._violating(log)
        self._violating(spine.emitter("bus"))
        spine.drain()
        assert spine.tier_stats()["cold_segments"] > 0
        auditor = ComplianceAuditor()
        auditor.register(no_flows_to({"us-store"}, {"eu-sensor"}, "residency"))
        auditor.register(denial_rate_below(0.5, "healthy"))
        flat, tiered = auditor.run(log), auditor.run(spine)
        assert [f.satisfied for f in flat.findings] == \
            [f.satisfied for f in tiered.findings]
        assert not tiered.compliant  # the cold-tier flow is still seen


SOURCES = ["bus", "kernel"]
#: Names chosen to trip a byte-level prefilter: JSON escapes (quote,
#: backslash, non-ASCII), a slash, and names that prefix one another.
#: Tag names cannot need escaping (the tag grammar is
#: ``[a-zA-Z0-9_.-]+``), so the tags only prefix one another.
ACTORS = ["alice", "bed-1", "bed-10", 'q"uote', "back\\slash", "n\u00efna"]
SUBJECTS = ["hr-monitor", "ward/bed-1", "bed-1", "d\u00e9j\u00e0"]
KINDS = [RecordKind.FLOW_ALLOWED, RecordKind.FLOW_DENIED]
CTXS = [
    None,
    CTX,
    STATS_CTX,
    SecurityContext.of(["bed-1", "ward.bed-1"], ["bed-10"]),
    SecurityContext.of(["bed-10", "ward:bed-1"], []),
]
TAGS = sorted(
    {t.qualified for c in CTXS if c is not None
     for t in (*c.secrecy, *c.integrity)}
) + ["local:nowhere"]
#: Text a record's ``detail`` may carry: every name a query can ask
#: for, so a needle often hits a slot that must not match.
MENTIONS = ACTORS + SUBJECTS + TAGS + [k.value for k in KINDS]

append = st.tuples(
    st.just("append"),
    st.integers(0, len(SOURCES) - 1),
    st.integers(0, len(KINDS) - 1),
    st.integers(0, len(ACTORS) - 1),
    st.integers(0, len(SUBJECTS) - 1),
    st.integers(0, len(CTXS) - 1),
    st.lists(st.sampled_from(MENTIONS), max_size=3),
)
# Every step appends, then maybe runs one maintenance op, so most
# scripts seal and spill several segments.
steps = st.tuples(
    append,
    st.one_of(
        st.none(),
        st.tuples(st.just("drain")),
        st.tuples(st.just("advance"), st.integers(1, 5)),
        st.tuples(st.just("prune"), st.integers(0, 30)),
        st.tuples(st.just("demote"), st.integers(0, 30)),
    ),
)

#: Every string filter the property asks after each script, so any cold
#: slot an awkward name reaches is probed.
NAME_PROBES = (
    [dict(actor=a) for a in ACTORS]
    + [dict(subject=s) for s in SUBJECTS]
    + [dict(entity=e) for e in ACTORS + SUBJECTS]
    + [dict(kind=k) for k in KINDS]
    + [dict(tag=t) for t in TAGS]
)
windows = st.tuples(st.integers(0, 40), st.integers(0, 40))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(steps, min_size=6, max_size=40),
    st.lists(windows, min_size=1, max_size=4),
)
def test_tiered_query_equals_flat_filter(tmp_path_factory, script, spans):
    """The tiering property: whatever interleaving of append / drain /
    seal / spill / prune the spine went through, AuditQuery answers
    exactly like filtering the flat record stream — including for names
    that need JSON escaping, prefix one another, or appear only in a
    record's ``detail`` (where the cold-tier needle scan hits slots the
    predicate must still reject)."""
    spill = tmp_path_factory.mktemp("spill")
    sim = Simulator()
    spine = AuditSpine(clock=sim.now, name="audit@prop")
    spine.configure_spill(spill, hot_segments=1, seal_every=2)
    for op in (op for step in script for op in step if op is not None):
        if op[0] == "append":
            __, s, k, a, sub, c, mentions = op
            spine.emit(
                SOURCES[s], KINDS[k], ACTORS[a], SUBJECTS[sub],
                {"t": sim.now(), "mentions": mentions}, CTXS[c], CTXS[c],
            )
        elif op[0] == "drain":
            spine.drain()
        elif op[0] == "advance":
            sim.clock.advance(float(op[1]))
        elif op[0] == "prune":
            spine.prune_before(float(op[1]))
        elif op[0] == "demote":
            spine.demote_before(float(op[1]))
    q = AuditQuery(spine)
    flat = list(spine)  # drains; the reference semantics
    probes = NAME_PROBES + [
        dict(since=float(lo), until=float(hi))
        for lo, hi in map(sorted, spans)
    ]
    for filters in probes:
        expect = [r for r in flat if record_matches(r, **filters)]
        assert q.query(**filters) == expect
        stats = q.last_stats
        assert stats.records_decoded <= stats.records_scanned
    assert spine.verify()
