"""The audit-query plane: historical context query over both tiers.

Context-aware middleware surveys treat historical context query as a
first-class middleware service, not an afterthought — "every flow that
touched tag ``medical:ann`` this hour" is the question compliance,
forensics and policy-feedback tooling actually ask, and a million-record
chain cannot answer it by iterating the whole stream.

:class:`AuditQuery` wraps any :class:`~repro.audit.sink.AuditSink` and
rides the spine's own index-backed ``query()``: per-segment
:class:`~repro.audit.storage.SegmentIndex` probes decide which sealed
segments to scan, so cold spill files are loaded only when their index
says they can match.

Every call fills :attr:`AuditQuery.last_stats` with a
:class:`QueryStats` (segments probed / scanned / skipped, cold loads,
records touched), which is how the benchmarks assert "segments scanned
≪ segments total" rather than hoping.

Example::

    q = AuditQuery(machine.audit)
    hour_flows = q.by_tag("medical:ann", since=now - 3600)
    denials = q.by_kind(RecordKind.FLOW_DENIED)
    alice = q.by_entity("alice")           # actor *or* subject
    assert q.last_stats.segments_scanned <= q.last_stats.segments_total
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.audit.records import AuditRecord, RecordKind
from repro.audit.sink import AuditSink

__all__ = ["AuditQuery", "QueryStats"]


@dataclass
class QueryStats:
    """Per-query accounting of how much of the chain was touched.

    Attributes:
        segments_total: sealed segments the sink holds (index probes).
        segments_scanned: sealed segments whose records were examined.
        segments_skipped: sealed segments the index ruled out.
        cold_loads: spill files read to answer this query.
        records_scanned: records the query covered — every record of
            the scanned segments plus the always-scanned open tails,
            including cold slots the needle prefilter never decoded.
        records_decoded: cold spill slots rebuilt as
            :class:`~repro.audit.records.AuditRecord` objects.
    """

    segments_total: int = 0
    segments_scanned: int = 0
    segments_skipped: int = 0
    cold_loads: int = 0
    records_scanned: int = 0
    records_decoded: int = 0

    def reset(self) -> None:
        self.segments_total = 0
        self.segments_scanned = 0
        self.segments_skipped = 0
        self.cold_loads = 0
        self.records_scanned = 0
        self.records_decoded = 0


class AuditQuery:
    """Query façade over any audit sink, tiered or not.

    The filter vocabulary is :func:`~repro.audit.records.record_matches`:
    ``kind`` / ``actor`` / ``subject`` / ``entity`` (actor *or*
    subject) / ``tag`` (qualified ``"namespace:name"``) / ``since`` /
    ``until``.  Results are always seq-ordered and equal to filtering
    the sink's flat record stream — the index layer only decides what
    *not* to read.
    """

    def __init__(self, sink: AuditSink):
        self.sink = sink
        #: Accounting for the most recent query (reset per call).
        self.last_stats = QueryStats()

    def __repr__(self) -> str:
        return f"<AuditQuery over {self.sink.name!r}>"

    def query(
        self,
        kind: Optional[RecordKind] = None,
        actor: Optional[str] = None,
        subject: Optional[str] = None,
        entity: Optional[str] = None,
        tag: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[AuditRecord]:
        """Run one filtered query (see the class docstring)."""
        self.last_stats = stats = QueryStats()
        return self.sink.query(
            kind=kind, actor=actor, subject=subject, entity=entity,
            tag=tag, since=since, until=until, stats=stats,
        )

    # -- the convenience vocabulary ----------------------------------------

    def by_actor(self, actor: str, **filters) -> List[AuditRecord]:
        """Records performed by ``actor``."""
        return self.query(actor=actor, **filters)

    def by_entity(self, entity: str, **filters) -> List[AuditRecord]:
        """Records where ``entity`` is the actor *or* the subject."""
        return self.query(entity=entity, **filters)

    def by_tag(self, tag, **filters) -> List[AuditRecord]:
        """Records whose recorded contexts carry ``tag`` (a qualified
        ``"namespace:name"`` string or anything with ``.qualified``)."""
        qualified = getattr(tag, "qualified", tag)
        return self.query(tag=qualified, **filters)

    def by_kind(self, kind: RecordKind, **filters) -> List[AuditRecord]:
        """Records of one :class:`~repro.audit.records.RecordKind`."""
        return self.query(kind=kind, **filters)

    def time_range(
        self, since: Optional[float] = None, until: Optional[float] = None,
        **filters,
    ) -> List[AuditRecord]:
        """Records inside ``[since, until]`` (inclusive bounds)."""
        return self.query(since=since, until=until, **filters)
