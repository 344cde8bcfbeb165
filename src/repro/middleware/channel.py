"""Channels: enforced connections between endpoints (§8.2.2).

"Enforcement occurs on the establishment of communication (messaging)
channels.  A channel is only established if the policy allows, i.e. the
tags of the components accord ... This is monitored throughout the
connection's lifetime, where an entity changing its security context
triggers re-evaluation (enforcement)."

:class:`Channel` implements that lifecycle: establishment performs the
two-stage AC + IFC check; the channel then observes both parties'
security contexts and re-evaluates on every change, tearing itself down
(and auditing why) when the flow rule no longer holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional

from repro.audit.sink import AuditSink
from repro.audit.records import RecordKind
from repro.audit.spine import bind_source
from repro.errors import FlowError, SchemaError
from repro.ifc.decisions import DecisionPlane
from repro.ifc.entities import Entity
from repro.ifc.labels import SecurityContext
from repro.middleware.component import Component, Endpoint, EndpointKind

_channel_counter = itertools.count(1)


class ChannelState(str, Enum):
    """Lifecycle states of a channel.

    SUSPENDED models continuous monitoring (§8.2.2): when a party's
    context change breaks the flow rule the channel stops carrying data
    but is not destroyed; a later change that restores legality resumes
    it.  This is what lets Fig. 5's sanitiser alternate between its
    input and output contexts while holding standing connections on both
    sides.
    """

    ACTIVE = "active"
    SUSPENDED = "suspended"
    TORN_DOWN = "torn-down"


class Channel:
    """A monitored source→sink connection between two components.

    Construction assumes establishment checks already passed (the bus
    runs them); the channel then self-monitors.  ``on_teardown``
    callbacks let policy engines react to channels collapsing under them
    (e.g. to interpose a gateway).
    """

    def __init__(
        self,
        source: Component,
        source_endpoint: Endpoint,
        sink: Component,
        sink_endpoint: Endpoint,
        audit: Optional[AuditSink] = None,
        plane: Optional[DecisionPlane] = None,
    ):
        self.channel_id = next(_channel_counter)
        self.source = source
        self.source_endpoint = source_endpoint
        self.sink = sink
        self.sink_endpoint = sink_endpoint
        # Lifecycle records (suspend/resume/teardown) stage under the
        # spine's "channel" segment when the bus runs on a spine.
        self.audit = bind_source(audit, "channel")
        # The bus shares its decision plane with every channel it opens;
        # a directly constructed channel gets a private plane.
        self.plane = plane or DecisionPlane(audit=self.audit)
        self.state = ChannelState.ACTIVE
        self.messages_carried = 0
        self.on_teardown: List[Callable[["Channel", str], None]] = []
        source.observe_context(self._context_changed)
        sink.observe_context(self._context_changed)

    def __repr__(self) -> str:
        return (
            f"<Channel {self.channel_id} {self.source.name}:"
            f"{self.source_endpoint.name} -> {self.sink.name}:"
            f"{self.sink_endpoint.name} [{self.state.value}]>"
        )

    @property
    def active(self) -> bool:
        """Carrying data right now."""
        return self.state == ChannelState.ACTIVE

    @property
    def alive(self) -> bool:
        """Not yet torn down (active or suspended)."""
        return self.state != ChannelState.TORN_DOWN

    def _context_changed(
        self, entity: Entity, old: SecurityContext, new: SecurityContext
    ) -> None:
        """Observer hook: re-evaluate IFC when either party relabels.

        Violation suspends the channel; restoration resumes it.  Both
        transitions are audited.
        """
        if self.state == ChannelState.TORN_DOWN:
            return
        decision = self.plane.evaluate(self.source.context, self.sink.context)
        if self.state == ChannelState.ACTIVE and not decision.allowed:
            self.state = ChannelState.SUSPENDED
            if self.audit is not None:
                self.audit.append(
                    RecordKind.CHANNEL_TORN_DOWN,
                    self.source.name,
                    self.sink.name,
                    {
                        "channel": self.channel_id,
                        "suspended": True,
                        "reason": f"context change by {entity.name}: "
                        f"{decision.reason}",
                    },
                )
        elif self.state == ChannelState.SUSPENDED and decision.allowed:
            self.state = ChannelState.ACTIVE
            if self.audit is not None:
                self.audit.append(
                    RecordKind.CHANNEL_ESTABLISHED,
                    self.source.name,
                    self.sink.name,
                    {"channel": self.channel_id, "resumed": True},
                )

    def teardown(self, reason: str = "requested") -> None:
        """Tear the channel down (idempotent) and audit it.

        Suspended channels can be torn down too — teardown is terminal.
        """
        if self.state == ChannelState.TORN_DOWN:
            return
        self.state = ChannelState.TORN_DOWN
        self.source.unobserve_context(self._context_changed)
        self.sink.unobserve_context(self._context_changed)
        if self.audit is not None:
            self.audit.append(
                RecordKind.CHANNEL_TORN_DOWN,
                self.source.name,
                self.sink.name,
                {"channel": self.channel_id, "reason": reason},
            )
        for callback in list(self.on_teardown):
            callback(self, reason)
