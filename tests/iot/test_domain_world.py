"""Administrative domains, gateways, and the world builder (§2, §9.3)."""

import pytest

from repro.accesscontrol import EnforcementMode
from repro.audit import AuditCollector, AuditLog, AuditSpine, RecordKind
from repro.errors import DiscoveryError
from repro.ifc import SecurityContext
from repro.iot import (
    READING,
    App,
    DomainGateway,
    IoTWorld,
    Sensor,
    Thing,
    vital_signs,
)
from repro.middleware import Message
from repro.policy import Event, NotifyAction, Rule


class TestDomain:
    def test_adopt_registers_everywhere(self, world):
        domain = world.create_domain("home")
        thing = Thing("lamp", owner="ada")
        domain.adopt(thing)
        assert domain.bus.component("lamp") is thing
        assert domain.discovery.lookup("lamp") is thing
        assert domain.authority.may_author_policy("ada", "lamp")
        assert thing.is_controller(domain.engine.name)

    def test_expel_removes_and_tears_down(self, world, reading_type):
        domain = world.create_domain("home")
        a = Sensor("a", source=lambda t: 1.0, interval=10.0, owner="op")
        b = App("b", owner="op")
        domain.adopt(a)
        domain.adopt(b)
        channel = domain.bus.connect("op", a, "out", b, "in")
        domain.expel("a")
        assert not channel.alive
        with pytest.raises(DiscoveryError):
            domain.expel("a")

    def test_duplicate_domain_rejected(self, world):
        world.create_domain("x")
        with pytest.raises(DiscoveryError):
            world.create_domain("x")

    def test_context_changes_of_adopted_things_audited(self, world):
        from repro.audit import RecordKind
        from repro.ifc import PrivilegeSet

        domain = world.create_domain("home")
        thing = Thing(
            "t",
            context=SecurityContext.of(["s"], []),
            privileges=PrivilegeSet.of(remove_secrecy=["s"]),
            owner="op",
        )
        domain.adopt(thing)
        thing.remove_secrecy("s")
        declass = domain.audit.records(kind=RecordKind.DECLASSIFICATION)
        assert declass and declass[0].actor == "t"


class TestStandaloneDomainAudit:
    """A domain built outside a deployment audits into its own
    AuditLog: the synchronous spine, one segment per wired component."""

    def _busy_domain(self, world):
        domain = world.create_domain("home")
        a = Sensor("a", source=lambda t: 1.0, interval=10.0, owner="op")
        b = App("b", owner="op")
        domain.adopt(a)
        domain.adopt(b)
        domain.bus.connect("op", a, "out", b, "in")
        domain.engine.add_rule(
            Rule.build("r", "*", actions=[NotifyAction("x")])
        )
        domain.engine.handle_event(Event("ev"))
        return domain

    def test_audit_is_a_synchronous_spine_with_per_source_segments(
        self, world
    ):
        domain = self._busy_domain(world)
        spine = domain.audit.spine
        assert isinstance(spine, AuditLog) and isinstance(spine, AuditSpine)
        assert spine.pending == 0  # every append chained on the spot
        heads = spine.segment_heads()
        engine_source = f"policy:{domain.engine.name}"
        assert {"bus", engine_source} <= heads.keys()
        bus_records = spine.records(kind=RecordKind.CHANNEL_ESTABLISHED)
        fired = spine.records(kind=RecordKind.POLICY_FIRED)
        assert bus_records and fired
        assert spine.verify()

    @pytest.mark.parametrize("mode", ["incremental", "deep"])
    def test_mutation_right_after_append_flips_verify(self, world, mode):
        domain = self._busy_domain(world)
        assert domain.audit.verify(mode=mode)
        record = domain.bus.audit.flow_allowed("a", "b")
        object.__setattr__(record, "actor", "mallory")
        assert not domain.audit.verify(mode=mode)

    def test_collector_receipt_covers_segment_heads(self, world):
        domain = self._busy_domain(world)
        collector = AuditCollector(key="k")
        receipt = collector.submit("home", domain.audit)
        assert receipt is not None and receipt.verify("k")
        heads = domain.audit.segment_heads()
        assert dict(receipt.segment_heads) == {
            source: head for source, (__, head) in heads.items()
        }
        assert receipt.head_digest == domain.audit.head_digest
        assert receipt.record_count == len(domain.audit)


class TestDomainGateway:
    def _federated(self, world):
        home = world.create_domain("home")
        cloud = world.create_domain("cloud")
        ctx = SecurityContext.of(["home-data"], [])
        sensor = Sensor("meter", source=lambda t: 1.0, interval=10.0,
                        context=ctx, owner="home")
        home.adopt(sensor)
        gateway = DomainGateway(
            "gw", inner=home, outer=cloud, message_type=READING,
            context=ctx, owner="home",
        )
        collector = App("collector", context=ctx, owner="cloud")
        cloud.adopt(collector)
        home.bus.connect("home", sensor, "out", gateway, "ingress")
        cloud.bus.connect("cloud", gateway, "egress", collector, "in")
        return home, cloud, sensor, gateway, collector

    def test_bridging_delivers_across_domains(self, world):
        home, cloud, sensor, gateway, collector = self._federated(world)
        sensor.start(world.sim, home.bus)
        world.run(seconds=30.0)
        assert gateway.forwarded == 3
        assert len(collector.received) == 3

    def test_both_domains_audit_the_transit(self, world):
        home, cloud, sensor, gateway, collector = self._federated(world)
        sensor.start(world.sim, home.bus)
        world.run(seconds=10.0)
        assert home.audit.records(actor="meter", subject="gw")
        assert cloud.audit.records(actor="gw", subject="collector")

    def test_transform_can_drop_messages(self, world):
        home = world.create_domain("h")
        cloud = world.create_domain("c")
        gateway = DomainGateway(
            "filter-gw", inner=home, outer=cloud, message_type=READING,
            transform=lambda m: None if m.values["value"] > 5 else m,
            owner="h",
        )
        message = Message(READING, {"value": 10.0})
        gateway._on_message(gateway, gateway.endpoints["ingress"], message)
        assert gateway.dropped == 1
        assert gateway.forwarded == 0

    def test_outer_domain_ifc_still_applies(self, world):
        """The gateway cannot push labelled data to an unlabelled
        outer-domain sink — enforcement at the gateway hop (§2.1)."""
        home = world.create_domain("h")
        cloud = world.create_domain("c")
        ctx = SecurityContext.of(["home-data"], [])
        gateway = DomainGateway("gw", inner=home, outer=cloud,
                                message_type=READING, context=ctx, owner="h")
        public_sink = App("public-app", owner="c")
        cloud.adopt(public_sink)
        from repro.errors import FlowError

        with pytest.raises(FlowError):
            cloud.bus.connect("c", gateway, "egress", public_sink, "in")


class TestWorld:
    def test_run_advances_clock(self, world):
        world.run(hours=1.0)
        assert world.sim.now() == 3600.0

    def test_collect_audit_federates_domains(self, world):
        d1 = world.create_domain("d1")
        d2 = world.create_domain("d2")
        d1.audit.flow_allowed("a", "b")
        d2.audit.flow_allowed("c", "d")
        collector = world.collect_audit()
        assert len(collector.merged()) == 2

    def test_mode_propagates_to_domains(self):
        world = IoTWorld(mode=EnforcementMode.AC_ONLY)
        domain = world.create_domain("d")
        assert domain.bus.mode == EnforcementMode.AC_ONLY

    def test_total_flows_aggregates(self, world):
        domain = world.create_domain("d")
        a = Sensor("a", source=lambda t: 1.0, interval=10.0, owner="op")
        b = App("b", owner="op")
        domain.adopt(a)
        domain.adopt(b)
        domain.bus.connect("op", a, "out", b, "in")
        a.start(world.sim, domain.bus)
        world.run(seconds=30.0)
        assert world.total_flows()["delivered"] == 3


class TestWorkloads:
    def test_signals_deterministic(self):
        a = vital_signs(seed=1)
        b = vital_signs(seed=1)
        assert [a(t) for t in (0.0, 60.0)] == [b(t) for t in (0.0, 60.0)]

    def test_different_seeds_differ(self):
        assert vital_signs(seed=1)(0.0) != vital_signs(seed=2)(0.0)

    def test_emergency_overlay(self):
        from repro.iot import with_emergency

        base = lambda t: 70.0
        signal = with_emergency(base, start=100.0, duration=50.0, magnitude=80.0)
        assert signal(50.0) == 70.0
        assert signal(140.0) > 140.0
        assert signal(200.0) == 70.0

    def test_cohort_deterministic(self):
        from repro.iot import patient_cohort

        a = patient_cohort(20, seed=5)
        b = patient_cohort(20, seed=5)
        assert [p.name for p in a] == [p.name for p in b]
        assert [p.device_standard for p in a] == [p.device_standard for p in b]
        assert any(p.emergency_at is not None for p in patient_cohort(
            100, seed=5, emergency_fraction=0.5))
