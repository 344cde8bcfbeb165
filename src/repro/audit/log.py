"""Hash-chain primitives and the flat reference chain.

The paper requires audit to "demonstrate compliance and aid
accountability" (§5.2) and notes logs "can be made more trustworthy by,
for example, using hardware cryptographic support" (§8.3, citing BBox).
The construction is the standard hash chain: each record's digest
covers its canonical serialisation plus the previous digest
(:func:`chain_digest`, rooted at :data:`GENESIS_DIGEST`), so truncation
or in-place modification is detectable.

The one audit writer built on these primitives is the
:class:`~repro.audit.spine.AuditSpine` (and
:class:`~repro.audit.spine.AuditLog`, its synchronous configuration).
:class:`RecorderMixin` gives every writer the domain recording
vocabulary.  :class:`ReferenceChain` is the minimal flat synchronous
chain the test suite and benchmarks hold the spine against; it is not
exported from :mod:`repro.audit` and no library module uses it.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterator, List, Optional

from repro.audit.records import AuditRecord, RecordKind
from repro.errors import IntegrityViolation
from repro.ifc.labels import SecurityContext

GENESIS_DIGEST = hashlib.sha256(b"repro-audit-genesis").hexdigest()


def chain_digest(previous: str, canonical: str) -> str:
    """Extend a hash chain by one record's canonical serialisation."""
    h = hashlib.sha256()
    h.update(previous.encode())
    h.update(canonical.encode())
    return h.hexdigest()


class RecorderMixin:
    """Convenience appenders shared by every audit writer.

    Anything exposing ``append(kind, actor, subject, detail,
    source_context, target_context)`` — the
    :class:`~repro.audit.spine.AuditSpine`, its per-source emitters and
    the :class:`ReferenceChain` — gets the domain-specific recording
    vocabulary from here.
    """

    def flow_allowed(
        self,
        actor: str,
        subject: str,
        source_context: Optional[SecurityContext] = None,
        target_context: Optional[SecurityContext] = None,
        detail: Optional[Dict] = None,
    ) -> AuditRecord:
        """Record a permitted data flow actor → subject."""
        return self.append(
            RecordKind.FLOW_ALLOWED, actor, subject, detail,
            source_context, target_context,
        )

    def flow_denied(
        self,
        actor: str,
        subject: str,
        reason: str,
        source_context: Optional[SecurityContext] = None,
        target_context: Optional[SecurityContext] = None,
    ) -> AuditRecord:
        """Record a denied data flow with the denial reason."""
        return self.append(
            RecordKind.FLOW_DENIED, actor, subject, {"reason": reason},
            source_context, target_context,
        )

    def context_change(
        self,
        actor: str,
        old: SecurityContext,
        new: SecurityContext,
        detail: Optional[Dict] = None,
    ) -> AuditRecord:
        """Record a context change, classified as declassification (secrecy
        dropped), endorsement (integrity gained), or a plain change."""
        if old.secrecy.tags - new.secrecy.tags:
            kind = RecordKind.DECLASSIFICATION
        elif new.integrity.tags - old.integrity.tags:
            kind = RecordKind.ENDORSEMENT
        else:
            kind = RecordKind.CONTEXT_CHANGE
        return self.append(
            kind, actor, "", detail, source_context=old, target_context=new
        )

    def reconfiguration(
        self, actor: str, target: str, command: str, detail: Optional[Dict] = None
    ) -> AuditRecord:
        """Record a third-party reconfiguration (Fig. 8)."""
        merged = {"command": command}
        merged.update(detail or {})
        return self.append(RecordKind.RECONFIGURATION, actor, target, merged)


class ReferenceChain(RecorderMixin):
    """The flat synchronous hash chain: one list, one digest per append.

    The reference semantics the spine is checked against (the spine ≡
    flat-chain property tests) and the synchronous baseline the audit
    benchmarks time staged emission against.  Each append builds the
    record, serialises it and extends the chain before returning.  It
    has no segments, staging, checkpoints or tiers; :meth:`flush` is a
    no-op so a bus's ``publish_batch`` can call it.

    Example::

        chain = ReferenceChain(clock=sim.now)
        chain.flow_allowed("sensor", "analyser", src_ctx, dst_ctx)
        assert chain.verify()
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or (lambda: 0.0)
        self._records: List[AuditRecord] = []
        self._digests: List[str] = []
        self._base_digest = GENESIS_DIGEST
        self._base_seq = 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[AuditRecord]:
        return iter(self._records)

    @property
    def head_digest(self) -> str:
        """Digest of the most recent record (the base when empty)."""
        return self._digests[-1] if self._digests else self._base_digest

    def append(
        self,
        kind: RecordKind,
        actor: str,
        subject: str = "",
        detail: Optional[Dict] = None,
        source_context: Optional[SecurityContext] = None,
        target_context: Optional[SecurityContext] = None,
    ) -> AuditRecord:
        """Append one record and extend the hash chain over it."""
        record = AuditRecord(
            seq=self._base_seq + len(self._records),
            timestamp=self._clock(),
            kind=kind,
            actor=actor,
            subject=subject,
            detail=dict(detail or {}),
            source_context=source_context,
            target_context=target_context,
        )
        self._records.append(record)
        self._digests.append(chain_digest(self.head_digest, record.canonical()))
        return record

    def flush(self) -> int:
        """Nothing is ever deferred; always 0."""
        return 0

    def verify(self) -> bool:
        """Recompute the whole chain; True iff untampered."""
        try:
            self.verify_strict()
            return True
        except IntegrityViolation:
            return False

    def verify_strict(self) -> None:
        """Recompute the chain, raising on the first mismatch."""
        digest = self._base_digest
        for record, expected in zip(self._records, self._digests):
            digest = chain_digest(digest, record.canonical())
            if digest != expected:
                raise IntegrityViolation(
                    f"audit chain broken at seq {record.seq}"
                )

    def prune_before(self, timestamp: float) -> int:
        """Discard records older than ``timestamp`` (Challenge 6).

        The digest of the last pruned record becomes the new chain base,
        so the retained suffix still verifies.  Returns the number of
        records pruned.
        """
        keep_from = 0
        while (
            keep_from < len(self._records)
            and self._records[keep_from].timestamp < timestamp
        ):
            keep_from += 1
        if keep_from == 0:
            return 0
        self._base_digest = self._digests[keep_from - 1]
        self._base_seq = self._records[keep_from - 1].seq + 1
        self._records = self._records[keep_from:]
        self._digests = self._digests[keep_from:]
        return keep_from
