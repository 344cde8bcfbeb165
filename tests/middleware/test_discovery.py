"""Resource discovery with policy-respecting visibility."""

import pytest

from repro.audit import AuditLog
from repro.audit.records import RecordKind
from repro.errors import DiscoveryError
from repro.ifc import SecurityContext
from repro.middleware import EndpointKind, ResourceDiscovery
from tests.conftest import make_component


@pytest.fixture
def rdc(reading_type):
    rdc = ResourceDiscovery()
    thermo = make_component(
        "kitchen-thermo", SecurityContext.public(), reading_type
    )
    rdc.register(thermo, {"kind": "thermometer", "room": "kitchen"})
    cam = make_component(
        "bedroom-cam", SecurityContext.public(), reading_type
    )
    rdc.register(
        cam,
        {"kind": "camera", "room": "bedroom"},
        visibility=SecurityContext.of(["private"], []),
    )
    return rdc


class TestQueries:
    def test_metadata_match(self, rdc):
        found = rdc.find(kind="thermometer")
        assert [c.name for c in found] == ["kitchen-thermo"]

    def test_no_match(self, rdc):
        assert rdc.find(kind="doorbell") == []

    def test_endpoint_filter(self, rdc):
        found = rdc.find(message_type="reading", endpoint_kind=EndpointKind.SOURCE)
        assert "kitchen-thermo" in [c.name for c in found]

    def test_endpoint_filter_excludes(self, rdc):
        assert rdc.find(message_type="alert") == []

    def test_lookup_by_name(self, rdc):
        assert rdc.lookup("kitchen-thermo").name == "kitchen-thermo"
        with pytest.raises(DiscoveryError):
            rdc.lookup("ghost")

    def test_deregister(self, rdc):
        component = rdc.lookup("kitchen-thermo")
        rdc.deregister(component)
        assert rdc.find(kind="thermometer") == []


class TestVisibility:
    def test_sensitive_entry_hidden_from_anonymous(self, rdc):
        found = rdc.find(kind="camera")
        assert found == []

    def test_sensitive_entry_visible_to_cleared_querier(self, rdc):
        cleared = SecurityContext.of(["private"], [])
        found = rdc.find(querier_context=cleared, kind="camera")
        assert [c.name for c in found] == ["bedroom-cam"]

    def test_public_entries_visible_to_everyone(self, rdc):
        cleared = SecurityContext.of(["private"], [])
        found = rdc.find(querier_context=cleared)
        assert {c.name for c in found} == {"kitchen-thermo", "bedroom-cam"}


class TestReRegistration:
    """Regression: registering a taken name used to silently overwrite."""

    def test_replace_policy_swaps_audits_and_counts(self, reading_type):
        audit = AuditLog()
        rdc = ResourceDiscovery(audit=audit)
        original = make_component("svc", SecurityContext.public(), reading_type)
        rdc.register(original, {"v": "1"}, host="host-a")
        impostor = make_component("svc", SecurityContext.public(), reading_type)
        rdc.register(impostor, {"v": "2"}, host="host-b")
        assert rdc.lookup("svc") is impostor
        assert rdc.stats.replaced == 1
        records = audit.records(kind=RecordKind.DISCOVERY)
        assert len(records) == 1
        detail = records[0].detail
        assert detail["event"] == "re-registration"
        assert detail["replaced_same_component"] is False
        assert (detail["old_host"], detail["new_host"]) == ("host-a", "host-b")

    def test_error_policy_rejects_and_keeps_original(self, reading_type):
        audit = AuditLog()
        rdc = ResourceDiscovery(audit=audit)
        original = make_component("svc", SecurityContext.public(), reading_type)
        rdc.register(original)
        impostor = make_component("svc", SecurityContext.public(), reading_type)
        with pytest.raises(DiscoveryError):
            rdc.register(impostor, on_existing="error")
        assert rdc.lookup("svc") is original
        assert rdc.stats.rejected_existing == 1
        records = audit.records(kind=RecordKind.DISCOVERY)
        assert records and records[-1].detail["event"] == "register-rejected"

    def test_same_component_refresh_is_still_audited(self, reading_type):
        rdc = ResourceDiscovery(audit=AuditLog())
        component = make_component("svc", SecurityContext.public(), reading_type)
        rdc.register(component)
        entry = rdc.register(component, {"extra": "yes"})
        assert entry.metadata["extra"] == "yes"
        assert rdc.stats.replaced == 1

    def test_unknown_policy_raises(self, reading_type):
        rdc = ResourceDiscovery()
        component = make_component("svc", SecurityContext.public(), reading_type)
        with pytest.raises(ValueError):
            rdc.register(component, on_existing="upsert")

    def test_entry_exposes_host(self, reading_type):
        rdc = ResourceDiscovery()
        component = make_component("svc", SecurityContext.public(), reading_type)
        rdc.register(component, host="host-a")
        assert rdc.entry("svc").host == "host-a"
        with pytest.raises(DiscoveryError):
            rdc.entry("ghost")
