"""Resource discovery: finding components to compose (§10.2).

SBUS deployments use a Resource Discovery Component (RDC) with which
components register their metadata; orchestrators query it to find
endpoints to wire together.  In the IoT setting discovery must respect
policy visibility: components can be registered with a *visibility
context*, and queries are answered relative to the querier's security
context so that the existence of sensitive components is not itself
leaked (Challenge 2: "the tags may themselves be sensitive").

Two federation-era additions (``docs/federation_plane.md``):

* **Explicit re-registration.**  Registering a name that is already
  taken used to silently overwrite the old entry — a spoofing hazard in
  a federated directory.  ``register`` now takes an ``on_existing``
  policy (``"replace"`` keeps the old behaviour but audits the
  replacement; ``"error"`` raises), and replacements are counted in
  :attr:`DiscoveryStats.replaced`.
* **Discovery-piggybacked vocabulary offers.**  An RDC attached to a
  :class:`~repro.federation.GossipMesh` folds the wire-plane vocabulary
  handshake into discovery itself: entries carry their home ``host``,
  and a ``find`` by a federated querier immediately opens gossip
  exchanges with the hosts it discovered — so by the time the first
  data message is sent, tables are already in flight (or landed) and no
  per-pair 3-step HELLO round-trip is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.audit.records import RecordKind
from repro.audit.spine import bind_source
from repro.errors import DiscoveryError
from repro.ifc.flow import can_flow
from repro.ifc.labels import SecurityContext
from repro.middleware.component import Component, EndpointKind


@dataclass
class Registration:
    """One component's discovery entry.

    Attributes:
        component: the registered component.
        metadata: searchable attributes (location, type, owner, ...).
        visibility: a querier must satisfy this context (flow rule:
            visibility → querier) for the entry to appear in results.
        host: the network host serving the component, when it is
            reachable through a federated substrate ("" for bus-local
            components) — what the federation piggyback introduces
            queriers to.
    """

    component: Component
    metadata: Dict[str, str] = field(default_factory=dict)
    visibility: SecurityContext = field(default_factory=SecurityContext.public)
    host: str = ""


@dataclass
class DiscoveryStats:
    """Counters for observing directory behaviour."""

    registered: int = 0
    replaced: int = 0
    rejected_existing: int = 0
    finds: int = 0
    introductions: int = 0


class ResourceDiscovery:
    """The RDC: register, deregister, query.

    ``audit`` (an :class:`~repro.audit.sink.AuditSink`: spine or emitter)
    records registration-plane events — in particular re-registrations,
    which overwrite what other parties may already have resolved.

    Example::

        rdc = ResourceDiscovery()
        rdc.register(sensor, {"kind": "thermometer", "room": "kitchen"})
        found = rdc.find(kind="thermometer")
    """

    def __init__(self, audit=None) -> None:
        self._entries: Dict[str, Registration] = {}
        self.audit = bind_source(audit, "discovery")
        self.stats = DiscoveryStats()
        self._federation = None  # a GossipMesh, via attach_federation

    def attach_federation(self, mesh) -> None:
        """Fold vocabulary offers into discovery (see module docstring).

        ``mesh`` is anything exposing ``introduce(querier_host,
        found_hosts)`` — in practice a
        :class:`~repro.federation.GossipMesh`.
        """
        self._federation = mesh

    def register(
        self,
        component: Component,
        metadata: Optional[Mapping[str, str]] = None,
        visibility: Optional[SecurityContext] = None,
        host: str = "",
        on_existing: str = "replace",
    ) -> Registration:
        """Register a component with searchable metadata.

        ``on_existing`` decides what happens when the name is taken:
        ``"replace"`` (default, the historical behaviour) swaps the
        entry but audits and counts the replacement; ``"error"`` raises
        :class:`~repro.errors.DiscoveryError` and leaves the existing
        entry untouched.
        """
        if on_existing not in ("replace", "error"):
            raise ValueError(f"unknown on_existing policy: {on_existing!r}")
        existing = self._entries.get(component.name)
        if existing is not None:
            if on_existing == "error":
                self.stats.rejected_existing += 1
                if self.audit is not None:
                    self.audit.append(
                        RecordKind.DISCOVERY,
                        component.name,
                        "",
                        {"event": "register-rejected", "reason": "name taken"},
                    )
                raise DiscoveryError(
                    f"{component.name!r} is already registered "
                    f"(on_existing='error')"
                )
            self.stats.replaced += 1
            if self.audit is not None:
                self.audit.append(
                    RecordKind.DISCOVERY,
                    component.name,
                    "",
                    {
                        "event": "re-registration",
                        "replaced_same_component": existing.component
                        is component,
                        "old_host": existing.host,
                        "new_host": host,
                    },
                )
        merged = dict(component.metadata)
        merged.update(metadata or {})
        entry = Registration(
            component,
            merged,
            visibility or SecurityContext.public(),
            host=host,
        )
        self._entries[component.name] = entry
        self.stats.registered += 1
        return entry

    def deregister(self, component: Component) -> None:
        """Remove a component from discovery."""
        self._entries.pop(component.name, None)

    def find(
        self,
        querier_context: Optional[SecurityContext] = None,
        message_type: Optional[str] = None,
        endpoint_kind: Optional[EndpointKind] = None,
        querier_host: Optional[str] = None,
        **metadata: str,
    ) -> List[Component]:
        """Find components matching metadata / endpoint criteria.

        Only entries whose visibility context flows to the querier's are
        returned; anonymous queries see only public entries.  When the
        querier names its federated ``querier_host`` and this RDC is
        attached to a mesh, the hosts serving the results are introduced
        to the querier immediately (vocabulary offers piggybacked on the
        discovery answer).
        """
        querier = querier_context or SecurityContext.public()
        self.stats.finds += 1
        results = []
        found_hosts = set()
        for entry in self._entries.values():
            if not can_flow(entry.visibility, querier):
                continue
            if any(entry.metadata.get(k) != v for k, v in metadata.items()):
                continue
            if message_type is not None or endpoint_kind is not None:
                if not self._has_endpoint(entry.component, message_type, endpoint_kind):
                    continue
            results.append(entry.component)
            if entry.host:
                found_hosts.add(entry.host)
        if (
            querier_host is not None
            and self._federation is not None
            and found_hosts
        ):
            self.stats.introductions += self._federation.introduce(
                querier_host, found_hosts
            )
        return sorted(results, key=lambda c: c.name)

    @staticmethod
    def _has_endpoint(
        component: Component,
        message_type: Optional[str],
        endpoint_kind: Optional[EndpointKind],
    ) -> bool:
        for endpoint in component.endpoints.values():
            if message_type is not None and endpoint.message_type.name != message_type:
                continue
            if endpoint_kind is not None and endpoint.kind != endpoint_kind:
                continue
            return True
        return False

    def lookup(self, name: str) -> Component:
        """Exact-name lookup.

        Raises:
            DiscoveryError: when not registered.
        """
        entry = self._entries.get(name)
        if entry is None:
            raise DiscoveryError(f"no registration for {name!r}")
        return entry.component

    def entry(self, name: str) -> Registration:
        """The full registration entry for ``name``.

        Raises:
            DiscoveryError: when not registered.
        """
        registration = self._entries.get(name)
        if registration is None:
            raise DiscoveryError(f"no registration for {name!r}")
        return registration
