"""A PaaS cloud assembled from machines (§8.2).

CamFlow protects data "as it flows end-to-end through a PaaS cloud" by
combining kernel-level enforcement within machines with the messaging
substrate across them.  :class:`PaaSCloud` models the provider: it owns
the machines, the tenant registry, and the privileged *application
manager* that creates application-specific tags and sets up instances in
appropriate security contexts (§8.2.1, §9.3 Challenge 1).

The trust assumption is the paper's: "the IFC implementation (and
therefore the cloud-provider) is trusted", so tenants "can collaborate
without trusting each other, so long as they all trust the underlying
IFC enforcement mechanism of the platform."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.audit.distributed import AuditCollector
from repro.cloud.kernel import Process
from repro.cloud.machine import Machine, MachineConfig, trusted_verifier
from repro.crypto.attestation import AttestationVerifier
from repro.errors import AuthorityError, KernelError
from repro.ifc.labels import SecurityContext
from repro.ifc.privileges import PrivilegeSet
from repro.ifc.tags import Tag, TagRegistry


@dataclass
class Tenant:
    """A cloud tenant: a namespace for tags plus its app instances."""

    name: str
    namespace: str
    instances: List[Tuple[str, int]] = field(default_factory=list)  # (host, pid)


class ApplicationManager:
    """The privileged per-cloud manager of tags and instance contexts.

    "Current IFC implementations have privileged application managers
    that can create application-specific IFC tags" (§9.3 Challenge 1).
    Tags created here are registered under the tenant's namespace in the
    global registry, giving them unambiguous cross-domain identity.
    """

    def __init__(self, registry: TagRegistry):
        self.registry = registry

    def create_tag(self, tenant: Tenant, name: str, description: str = "",
                   sensitive: bool = False) -> Tag:
        """Mint a tenant-scoped tag (owned by the tenant)."""
        return self.registry.register(
            Tag(tenant.namespace, name),
            owner=tenant.name,
            description=description,
            sensitive=sensitive,
        )

    def setup_instance(
        self,
        machine: Machine,
        tenant: Tenant,
        app_name: str,
        context: SecurityContext,
        privileges: Optional[PrivilegeSet] = None,
    ) -> Process:
        """Launch a tenant app in its security context on a machine.

        Only tags in the tenant's namespace (or unowned/local tags) may
        appear — a tenant cannot claim another tenant's tags without a
        delegation, which is checked against the registry.
        """
        for tag in list(context.secrecy) + list(context.integrity):
            if tag in self.registry:
                owner = self.registry.owner_of(tag)
                if owner != tenant.name and tag.namespace != "local":
                    raise AuthorityError(
                        f"tenant {tenant.name} may not label instances with "
                        f"{tag.qualified} owned by {owner}"
                    )
        process = machine.launch(app_name, context, privileges)
        tenant.instances.append((machine.hostname, process.pid))
        return process


class PaaSCloud:
    """The provider: machines, tenants, manager, cloud-wide audit.

    Example::

        cloud = PaaSCloud("eu-cloud")
        m1 = cloud.add_machine("host-1")
        tenant = cloud.register_tenant("hospital")
        medical = cloud.manager.create_tag(tenant, "medical")
    """

    def __init__(self, name: str, clock=None):
        self.name = name
        self._clock = clock
        self.machines: Dict[str, Machine] = {}
        self.tenants: Dict[str, Tenant] = {}
        self.registry = TagRegistry()
        self.manager = ApplicationManager(self.registry)

    def add_machine(
        self, hostname: str, config: Optional[MachineConfig] = None
    ) -> Machine:
        """Provision a machine into the cloud."""
        if hostname in self.machines:
            raise KernelError(f"machine already exists: {hostname}")
        machine = Machine(hostname, config, clock=self._clock)
        self.machines[hostname] = machine
        return machine

    def register_tenant(self, name: str, namespace: Optional[str] = None) -> Tenant:
        """Register a tenant with its tag namespace."""
        if name in self.tenants:
            raise AuthorityError(f"tenant already registered: {name}")
        tenant = Tenant(name, namespace or name)
        self.tenants[name] = tenant
        return tenant

    def verifier(self) -> AttestationVerifier:
        """An attestation verifier trusting this cloud's approved chain."""
        return trusted_verifier(list(self.machines.values()))

    def collect_audit(self) -> AuditCollector:
        """Gather all machines' logs into one collector (provider-side
        compliance view)."""
        collector = AuditCollector(key=f"{self.name}-collector")
        for machine in self.machines.values():
            collector.submit(machine.hostname, machine.audit)
        return collector

    def total_syscalls(self) -> int:
        """Aggregate syscall count (used by the overhead bench F9)."""
        return sum(m.kernel.syscall_count for m in self.machines.values())
