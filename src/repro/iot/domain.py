"""Administrative domains and federation (§9.3).

"The heterogeneous nature of the chains of IoT components, which exist
across federated domains of administration" is the paper's first scale
challenge.  An :class:`AdministrativeDomain` bundles what one authority
operates: a middleware bus, an audit log, an authority model, a policy
engine, and the things it manages.  :class:`DomainGateway` is the §2.1
gateway — a thing fronting a subsystem, bridging two domains' buses and
therefore a point where policy is enforced in both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.accesscontrol.pep import EnforcementMode
from repro.audit.sink import AuditSink
from repro.audit.spine import AuditLog, bind_source
from repro.errors import DiscoveryError
from repro.ifc.labels import SecurityContext
from repro.ifc.privileges import PrivilegeSet
from repro.iot.device import DeviceClass, DeviceProfile
from repro.iot.things import Thing
from repro.middleware.bus import MessageBus
from repro.middleware.component import Component, EndpointKind
from repro.middleware.discovery import ResourceDiscovery
from repro.middleware.message import Message, MessageType
from repro.middleware.reconfig import Reconfigurator
from repro.policy.authority import AuthorityModel
from repro.policy.context import ContextStore
from repro.policy.engine import PolicyEngine


class AdministrativeDomain:
    """One authority's slice of the IoT.

    Construction wires the standard stack: audit sink → bus →
    reconfigurator → context store → policy engine, all sharing the
    domain clock.  Things register through :meth:`adopt`.

    ``audit`` is any :class:`~repro.audit.sink.AuditSink`.  Inside a
    deployment it is the owning machine's
    :class:`~repro.audit.spine.AuditSpine`; when omitted (standalone and
    bus-only domains) the domain builds its own
    :class:`~repro.audit.spine.AuditLog`, the synchronous spine.
    Either way the domain's bus, engine, reconfigurator and discovery
    write per-source segments of one tamper-evident chain
    (``docs/deploy_api.md``).
    """

    def __init__(
        self,
        name: str,
        clock: Optional[Callable[[], float]] = None,
        mode: EnforcementMode = EnforcementMode.AC_AND_IFC,
        audit: Optional[AuditSink] = None,
    ):
        self.name = name
        if audit is None:
            audit = AuditLog(clock=clock, name=f"audit@{name}")
        # The domain's own records (adoption context changes) go to a
        # "domain" segment; each wired component below claims its own
        # segment via bind_source.
        self.audit = bind_source(audit, "domain")
        self.bus = MessageBus(audit=self.audit, mode=mode, clock=clock)
        self.reconfigurator = Reconfigurator(self.bus, audit=self.audit)
        self.context = ContextStore(clock=clock)
        self.authority = AuthorityModel(clock=clock or (lambda: 0.0))
        self.engine = PolicyEngine(
            f"{name}-policy-engine",
            self.reconfigurator,
            context=self.context,
            audit=self.audit,
            authority=self.authority,
        )
        # Registration-plane events (re-registrations especially) are
        # audit-visible like every other enforcement-relevant action.
        self.discovery = ResourceDiscovery(audit=self.audit)
        self.things: Dict[str, Thing] = {}

    def adopt(self, thing: Thing, owner: Optional[str] = None) -> Thing:
        """Bring a thing under this domain's management.

        Registers it on the bus and in discovery, records ownership in
        the authority model, and lets the domain's policy engine control
        it.
        """
        thing.domain = self.name
        thing.metadata["domain"] = self.name
        self.bus.register(thing)
        self.discovery.register(thing)
        self.authority.set_owner(thing.name, owner or thing.owner or self.name)
        thing.allow_controller(self.engine.name)
        # Every self-initiated context change of a managed thing is
        # audit-visible (declassification/endorsement classification is
        # done by the log) — §8.3: IFC enforcement logs are the
        # provenance source.
        thing.observe_context(
            lambda entity, old, new: self.audit.context_change(
                entity.name, old, new
            )
        )
        self.things[thing.name] = thing
        return thing

    def expel(self, thing_name: str) -> None:
        """Remove a thing from the domain (tearing down its channels)."""
        thing = self.things.pop(thing_name, None)
        if thing is None:
            raise DiscoveryError(f"{thing_name} is not in domain {self.name}")
        self.bus.deregister(thing)
        self.discovery.deregister(thing)


class DomainGateway(Thing):
    """A gateway thing bridging two domains (§2.1, Fig. 2).

    The gateway is registered in *both* domains.  It exposes, per bridged
    message type, a sink in the inner domain and a source in the outer
    domain; messages arriving on the sink are re-emitted on the source,
    so both domains' enforcement (channel and per-message) applies, and
    the gateway's own security context gates what may transit.

    "We therefore consider such gateways as 'things', as they represent a
    point in which policy can be enforced."
    """

    def __init__(
        self,
        name: str,
        inner: AdministrativeDomain,
        outer: AdministrativeDomain,
        message_type: MessageType,
        context: Optional[SecurityContext] = None,
        privileges: Optional[PrivilegeSet] = None,
        transform: Optional[Callable[[Message], Optional[Message]]] = None,
        owner: str = "",
    ):
        super().__init__(
            name,
            context=context,
            privileges=privileges,
            profile=DeviceProfile(DeviceClass.GATEWAY),
            owner=owner or name,
        )
        self.inner = inner
        self.outer = outer
        self.transform = transform
        self.forwarded = 0
        self.dropped = 0
        self.add_endpoint(
            "ingress", EndpointKind.SINK, message_type, handler=self._on_message
        )
        self.add_endpoint("egress", EndpointKind.SOURCE, message_type)
        inner.adopt(self)
        # Register on the outer bus under the same identity; the outer
        # domain sees the gateway as a thing it can police but not own.
        outer.bus.register(self)
        outer.discovery.register(self)
        self.allow_controller(outer.engine.name)

    def _on_message(self, component, endpoint, message: Message) -> None:
        outgoing: Optional[Message] = message
        if self.transform is not None:
            outgoing = self.transform(message)
        if outgoing is None:
            self.dropped += 1
            return
        self.forwarded += 1
        self.outer.bus.route(self, "egress", outgoing)

    def join_mesh(self, node, directory=None, visibility=None):
        """Enrol the gateway in a federation (``docs/federation_plane.md``).

        ``node`` is the :class:`~repro.federation.MeshNode` of the
        substrate serving this gateway's domain.  The gateway records
        its serving host, and — when a federation-wide ``directory``
        (a mesh-attached :class:`~repro.middleware.discovery.
        ResourceDiscovery`) is given — registers there with that host,
        so any federated party *discovering* the gateway gets the
        domain's vocabulary offer piggybacked on the discovery answer
        instead of paying a pairwise handshake round-trip.
        """
        self.metadata["host"] = node.host
        if directory is not None:
            directory.register(
                self,
                {"kind": "gateway", "domain": self.inner.name},
                visibility=visibility,
                host=node.host,
            )
        return node
