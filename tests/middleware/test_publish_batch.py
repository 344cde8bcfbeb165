"""Batched publish: amortised fan-out must keep per-message enforcement."""

from repro.audit import AuditLog, AuditSpine
from repro.ifc import PrivilegeSet, SecurityContext
from repro.middleware.bus import MessageBus
from repro.middleware.component import Component, EndpointKind
from repro.middleware.message import MessageType

READING = MessageType.simple("reading", value=float)


def _wire(bus, ctx, n_sinks=2):
    sensor = Component(
        "sensor", ctx, owner="ann",
        privileges=PrivilegeSet.of(add_secrecy=["spike"]),
    )
    sensor.add_endpoint("out", EndpointKind.SOURCE, READING)
    bus.register(sensor)
    sinks = []
    for i in range(n_sinks):
        sink = Component(f"sink{i}", ctx, owner="ann")
        sink.add_endpoint("in", EndpointKind.SINK, READING)
        bus.register(sink)
        bus.connect("ann", sensor, "out", sink, "in")
        sinks.append(sink)
    return sensor, sinks


class TestPublishBatch:
    def test_batch_matches_repeated_publish(self):
        ctx = SecurityContext.of(["medical"], [])
        audit_a, audit_b = AuditLog(), AuditSpine()
        bus_a, bus_b = MessageBus(audit=audit_a), MessageBus(audit=audit_b)
        sensor_a, sinks_a = _wire(bus_a, ctx)
        sensor_b, sinks_b = _wire(bus_b, ctx)
        batch = [{"value": float(i)} for i in range(10)]

        for values in batch:
            bus_a.publish(sensor_a, "out", **values)
        report = bus_b.publish_batch(sensor_b, "out", batch)

        assert report.delivered == bus_a.stats.delivered == 20
        assert [m.values for m in sinks_b[0].inbox] == [m.values for m in sinks_a[0].inbox]
        assert audit_b.pending == 0  # plane.flush() ran at batch end
        assert audit_a.verify() and audit_b.verify()

    def test_empty_batch_is_noop(self):
        bus = MessageBus()
        sensor, __ = _wire(bus, SecurityContext.public())
        report = bus.publish_batch(sensor, "out", [])
        assert (report.sent, report.delivered) == (0, 0)

    def test_channel_suspended_mid_batch_stops_delivery(self):
        """A handler that raises the sender's secrecy mid-batch suspends
        the channels; the rest of the batch must not be delivered."""
        ctx = SecurityContext.public()
        bus = MessageBus(audit=AuditSpine())
        sensor, sinks = _wire(bus, ctx)

        seen = []

        def spike_once(component, endpoint, message):
            seen.append(message.values["value"])
            if len(seen) == 1:
                # Sender raises its secrecy: public sinks can no longer
                # accept, so every channel suspends immediately.
                sensor.add_secrecy("spike")

        sinks[0].endpoints["in"].handler = spike_once

        report = bus.publish_batch(
            sensor, "out", [{"value": float(i)} for i in range(5)]
        )
        # First delivery triggered the suspension; nothing after it flows.
        assert seen == [0.0]
        assert report.delivered == 1
        assert all(not c.active for c in bus.channels)
