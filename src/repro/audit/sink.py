"""The audit-sink type every component's ``audit`` argument takes.

There is one audit writer, the :class:`~repro.audit.spine.AuditSpine`;
:class:`~repro.audit.spine.AuditLog` is the same spine with
``ring_capacity=1`` (every append chained before it returns).  A
component is handed either a whole spine or a per-source
:class:`~repro.audit.spine.SpineEmitter` onto one, and calls
:func:`~repro.audit.spine.bind_source` to claim its own segment.  That is how
an :class:`~repro.iot.domain.AdministrativeDomain` writes its bus,
policy engine, reconfigurator and discovery records as per-source
segments of one tamper-evident chain — the owning machine's spine inside
a :class:`~repro.deploy.Deployment`, its own
:class:`~repro.audit.spine.AuditLog` standalone.
"""

from __future__ import annotations

from repro.audit.spine import AuditSpine, SpineEmitter

__all__ = ["AuditSink"]

#: A whole spine or a per-source emitter onto one.  Both expose the
#: same read, verify and maintenance surface; only writes differ (an
#: emitter stages under its own source).
AuditSink = AuditSpine | SpineEmitter
