"""The IoT world builder: simulator + network + federated domains.

:class:`IoTWorld` is the top-level convenience for examples, tests and
benchmarks: it owns the discrete-event simulator, the simulated network,
the global tag registry, and the administrative domains, and can gather
every domain's audit log into one federated compliance view.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.accesscontrol.pep import EnforcementMode
from repro.audit.compliance import ComplianceAuditor, ComplianceReport
from repro.audit.distributed import AuditCollector
from repro.errors import DiscoveryError
from repro.ifc.tags import TagRegistry
from repro.iot.domain import AdministrativeDomain
from repro.net.network import Network
from repro.sim.events import Simulator


class IoTWorld:
    """A federated IoT deployment under simulation.

    Example::

        world = IoTWorld(seed=7)
        home = world.create_domain("ann-home")
        hospital = world.create_domain("hospital")
        ...
        world.run(hours=24)
        report = world.compliance_report(auditor)
    """

    def __init__(
        self,
        seed: int = 0,
        mode: EnforcementMode = EnforcementMode.AC_AND_IFC,
        default_latency: Optional[float] = None,
    ):
        self.sim = Simulator(seed=seed)
        if default_latency is None:
            self.network = Network(self.sim)
        else:
            self.network = Network(self.sim, default_latency=default_latency)
        self.registry = TagRegistry()
        self.mode = mode
        self.domains: Dict[str, AdministrativeDomain] = {}

    def create_domain(
        self,
        name: str,
        audit=None,
        mode: Optional[EnforcementMode] = None,
    ) -> AdministrativeDomain:
        """Add an administrative domain sharing the world clock.

        ``audit`` is an optional :class:`~repro.audit.sink.AuditSink`
        for the domain's whole stack (a machine spine, inside a
        :class:`~repro.deploy.Deployment`); omitted, the domain builds
        its own :class:`~repro.audit.spine.AuditLog`.  ``mode``
        overrides the world's enforcement mode for this domain.
        """
        if name in self.domains:
            raise DiscoveryError(f"domain already exists: {name}")
        domain = AdministrativeDomain(
            name, clock=self.sim.now, mode=mode or self.mode, audit=audit
        )
        self.domains[name] = domain
        return domain

    def domain(self, name: str) -> AdministrativeDomain:
        """Look up a domain."""
        try:
            return self.domains[name]
        except KeyError:
            raise DiscoveryError(f"unknown domain: {name}") from None

    # -- running ------------------------------------------------------------------

    def run(self, seconds: float = 0.0, hours: float = 0.0) -> int:
        """Advance simulated time; returns events processed."""
        duration = seconds + hours * 3600.0
        return self.sim.run_for(duration)

    # -- federated audit --------------------------------------------------------------

    def collect_audit(self) -> AuditCollector:
        """Submit every domain's log to a fresh collector (Challenge 6)."""
        collector = AuditCollector(key="world-collector")
        for name, domain in self.domains.items():
            collector.submit(name, domain.audit)
        return collector

    def compliance_report(self, auditor: ComplianceAuditor) -> Dict[str, ComplianceReport]:
        """Run an auditor against each domain's log."""
        return {
            name: auditor.run(domain.audit)
            for name, domain in self.domains.items()
        }

    def total_flows(self) -> Dict[str, int]:
        """Aggregate flow statistics across all domains' buses."""
        sent = delivered = denied = 0
        for domain in self.domains.values():
            sent += domain.bus.stats.sent
            delivered += domain.bus.stats.delivered
            denied += domain.bus.stats.denied
        return {"sent": sent, "delivered": delivered, "denied": denied}
