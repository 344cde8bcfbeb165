"""Audit record types.

§1.2: "Once IFC is deployed, audit can easily be supported since a record
can potentially be made of every attempted data transfer or access."
Records capture flows (allowed *and* denied), context changes
(declassification/endorsement), privilege delegations, reconfigurations
(Fig. 8) and policy firings — everything Fig. 1's feedback loop needs to
"verify & influence" policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Any, Dict, FrozenSet, Optional, Set

from repro.ifc.labels import SecurityContext


class RecordKind(str, Enum):
    """Categories of auditable events."""

    FLOW_ALLOWED = "flow-allowed"
    FLOW_DENIED = "flow-denied"
    CONTEXT_CHANGE = "context-change"
    DECLASSIFICATION = "declassification"
    ENDORSEMENT = "endorsement"
    PRIVILEGE_DELEGATION = "privilege-delegation"
    PRIVILEGE_REVOCATION = "privilege-revocation"
    RECONFIGURATION = "reconfiguration"
    POLICY_FIRED = "policy-fired"
    POLICY_CONFLICT = "policy-conflict"
    ACCESS_ALLOWED = "access-allowed"
    ACCESS_DENIED = "access-denied"
    CHANNEL_ESTABLISHED = "channel-established"
    CHANNEL_TORN_DOWN = "channel-torn-down"
    ENTITY_CREATED = "entity-created"
    ATTESTATION = "attestation"
    WIRE_HANDSHAKE = "wire-handshake"
    TABLE_SYNC = "table-sync"
    MISDELIVERY = "misdelivery"
    CHECKPOINT = "checkpoint"
    DISCOVERY = "discovery"
    FEDERATION_PIN = "federation-pin"
    ANALYSIS = "analysis"
    CUSTOM = "custom"


@lru_cache(maxsize=1024)
def _context_payload(ctx: SecurityContext) -> Dict[str, list]:
    # Shared across records (contexts are immutable interned values and
    # canonical() only ever reads it) — one tag walk per distinct
    # context, not per record.
    return {
        "secrecy": sorted(t.qualified for t in ctx.secrecy),
        "integrity": sorted(t.qualified for t in ctx.integrity),
    }


def _context_dict(ctx: Optional[SecurityContext]) -> Optional[Dict[str, list]]:
    if ctx is None:
        return None
    return _context_payload(ctx)


@lru_cache(maxsize=4096)
def _str_json(text: str) -> str:
    # Actors, subjects and kind values repeat across records (entity
    # names, a fixed enum) — cache their JSON-escaped forms.
    return json.dumps(text)


@lru_cache(maxsize=1024)
def _context_json(ctx: SecurityContext) -> str:
    # The serialised form of _context_payload, cached with the same
    # lifetime: contexts repeat across millions of records and their
    # tag lists dominate canonical()'s json.dumps time.
    return json.dumps(
        _context_payload(ctx), sort_keys=True, separators=(",", ":")
    )


def _context_from_dict(body: Optional[Dict]) -> Optional[SecurityContext]:
    if body is None:
        return None
    return _context_of(
        tuple(body.get("secrecy", ())), tuple(body.get("integrity", ()))
    )


@lru_cache(maxsize=1024)
def _context_of(secrecy: tuple, integrity: tuple) -> SecurityContext:
    # The decode-side twin of _context_json: cold records repeat a
    # handful of contexts, and rebuilding one parses every tag string.
    # Contexts are immutable values over the append-only global
    # interner, so sharing one object across records is safe.
    return SecurityContext.of(secrecy, integrity)


@lru_cache(maxsize=1024)
def _context_tags(ctx: SecurityContext) -> FrozenSet[str]:
    """Qualified tags of one context, memoised.

    Contexts are immutable interned-mask values and enforcement reuses a
    handful of them across millions of records, so the per-record tag
    walks in :func:`record_tags` (segment-index builds, tag queries)
    collapse to one dict hit.
    """
    tags = set()
    for tag in ctx.secrecy:
        tags.add(tag.qualified)
    for tag in ctx.integrity:
        tags.add(tag.qualified)
    return frozenset(tags)


@dataclass(frozen=True)
class AuditRecord:
    """One immutable audit event.

    Attributes:
        seq: position in the log (assigned by the log on append).
        timestamp: simulated time of the event.
        kind: record category.
        actor: entity id/name that performed or attempted the action.
        subject: the data item or target entity involved, if any.
        detail: free-form structured detail (flow decision reason, policy
            name, ...), must be JSON-serialisable for canonical hashing.
        source_context / target_context: security contexts at event time,
            recorded so audits can later reconstruct *why* the decision
            was what it was even after labels change.
    """

    seq: int
    timestamp: float
    kind: RecordKind
    actor: str
    subject: str = ""
    detail: Dict[str, Any] = field(default_factory=dict)
    source_context: Optional[SecurityContext] = None
    target_context: Optional[SecurityContext] = None

    def canonical(self) -> str:
        """Deterministic JSON serialisation used for hash chaining.

        Assembled from per-field dumps with the context fragments
        memoised (:func:`_context_json`) — byte-identical to
        ``json.dumps(body, sort_keys=True, separators=(",", ":"))``
        over the same eight keys, which the tier-1 suite pins
        (``test_canonical_matches_reference_encoding``).
        """
        detail = self.detail
        src = self.source_context
        tgt = self.target_context
        return (
            '{"actor":%s,"detail":%s,"kind":%s,"seq":%d,"source_context":%s,'
            '"subject":%s,"target_context":%s,"timestamp":%s}'
            % (
                _str_json(self.actor),
                json.dumps(detail, sort_keys=True, separators=(",", ":"))
                if detail
                else "{}",
                _str_json(self.kind.value),
                self.seq,
                "null" if src is None else _context_json(src),
                _str_json(self.subject),
                "null" if tgt is None else _context_json(tgt),
                json.dumps(self.timestamp),
            )
        )

    @property
    def is_denial(self) -> bool:
        """Whether this record denotes a denied action."""
        return self.kind in (RecordKind.FLOW_DENIED, RecordKind.ACCESS_DENIED)

    @classmethod
    def from_canonical(cls, canonical: str) -> "AuditRecord":
        """Rebuild a record from its :meth:`canonical` serialisation.

        The round trip is byte-stable (``canonical()`` sorts keys and
        qualified tags), which is what lets cold audit segments store
        only the digest material and reconstruct record objects on
        demand (``repro.audit.storage``).
        """
        body = json.loads(canonical)
        return cls(
            seq=body["seq"],
            timestamp=body["timestamp"],
            kind=RecordKind(body["kind"]),
            actor=body["actor"],
            subject=body.get("subject", ""),
            detail=body.get("detail") or {},
            source_context=_context_from_dict(body.get("source_context")),
            target_context=_context_from_dict(body.get("target_context")),
        )


def record_tags(record: AuditRecord) -> Set[str]:
    """Every qualified tag carried by the record's contexts.

    The tag vocabulary the audit-query plane indexes sealed segments by
    ("every flow that touched ``medical:ann``").
    """
    tags: Set[str] = set()
    for ctx in (record.source_context, record.target_context):
        if ctx is not None:
            tags.update(_context_tags(ctx))
    return tags


def record_matches(
    record: AuditRecord,
    kind: Optional[RecordKind] = None,
    actor: Optional[str] = None,
    subject: Optional[str] = None,
    entity: Optional[str] = None,
    tag: Optional[str] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> bool:
    """The one filter predicate every audit sink's ``query()`` applies.

    ``entity`` matches actor *or* subject; ``tag`` is a qualified
    ``"namespace:name"`` string matched against either context.  Both
    tiered (index-probing) and flat (full-scan) query paths funnel
    through this predicate, which is what makes their results
    comparable record-for-record.
    """
    if kind is not None and record.kind != kind:
        return False
    if actor is not None and record.actor != actor:
        return False
    if subject is not None and record.subject != subject:
        return False
    if entity is not None and record.actor != entity and record.subject != entity:
        return False
    if since is not None and record.timestamp < since:
        return False
    if until is not None and record.timestamp > until:
        return False
    if tag is not None and tag not in record_tags(record):
        return False
    return True
