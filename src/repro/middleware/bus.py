"""The message bus: component registry, channel management, delivery.

The bus is the middleware core: it registers components, establishes
channels (running the §8.2.2 two-stage AC + IFC check), routes messages
along channels with per-message IFC re-evaluation and message-level
quenching (Fig. 10), and audits everything.  An
:class:`~repro.accesscontrol.pep.EnforcementMode` switch provides the
AC-only baseline used throughout EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.accesscontrol.pep import EnforcementMode
from repro.audit.sink import AuditSink
from repro.audit.records import RecordKind
from repro.audit.spine import bind_source
from repro.errors import AccessDenied, DiscoveryError, FlowError, SchemaError
from repro.ifc.decisions import DecisionPlane, DecisionShard
from repro.ifc.labels import SecurityContext
from repro.middleware.channel import Channel
from repro.middleware.component import Component, Endpoint, EndpointKind
from repro.middleware.message import Message

#: AC hook: decides whether ``initiator`` may connect source→sink.
#: Default policy is owner-or-controller based; richer deployments plug
#: in certificate/RBAC checks here.
ConnectAuthoriser = Callable[[str, Component, Component], bool]


def default_authoriser(initiator: str, source: Component, sink: Component) -> bool:
    """Allow a connection when the initiator controls either end, or owns
    both.  This is the SBUS-style peer AC regime in miniature."""
    return source.is_controller(initiator) or sink.is_controller(initiator)


@dataclass
class DeliveryReport:
    """What happened when a message was pushed through a channel fan-out."""

    sent: int = 0
    delivered: int = 0
    denied: int = 0
    quenched_attributes: int = 0


class _PlanEntry:
    """One fan-out target in a :class:`_BatchPlan`.

    Everything that is constant across a batch for a (message-context,
    sink-context) pair is hoisted here: the base flow decision and the
    set of schema attributes quenching would drop for this sink.  The
    entry stays valid only while ``sink.context`` is the identical
    object captured at plan time — the batch loop checks that per
    message and falls back to the unhoisted path when it moves.
    """

    __slots__ = ("channel", "sink", "sink_ep_name", "sink_ctx", "decision", "drop")

    def __init__(self, channel, decision, drop):
        self.channel = channel
        self.sink = channel.sink
        self.sink_ep_name = channel.sink_endpoint.name
        self.sink_ctx = channel.sink.context
        self.decision = decision  # None in AC_ONLY mode
        self.drop = drop  # frozenset of schema attrs quenched for this sink


class _BatchPlan:
    """Hoisted per-(sender, endpoint) state for one publish_batch run.

    ``risky`` is the set of schema attributes carrying extra secrecy —
    only those can ever be quenched or widen the effective context, so
    messages touching none of them take a label-math-free fast path.
    ``eff_cache`` memoizes effective contexts by the frozenset of risky
    attributes actually kept (they depend on the message context and the
    schema, not the sink).
    """

    __slots__ = ("version", "src_ctx", "msg_ctx", "msg_type", "risky",
                 "entries", "eff_cache")

    def __init__(self, version, src_ctx, msg_ctx, msg_type, risky, entries):
        self.version = version
        self.src_ctx = src_ctx
        self.msg_ctx = msg_ctx
        self.msg_type = msg_type
        self.risky = risky
        self.entries = entries
        self.eff_cache: Dict[frozenset, SecurityContext] = {}

    def effective(self, kept_risky: frozenset) -> SecurityContext:
        """Effective context of a delivery keeping ``kept_risky``."""
        ctx = self.eff_cache.get(kept_risky)
        if ctx is None:
            secrecy = self.msg_ctx.secrecy
            for name in kept_risky:
                secrecy = secrecy | self.msg_type.attribute_secrecy(name)
            ctx = SecurityContext(secrecy, self.msg_ctx.integrity)
            self.eff_cache[kept_risky] = ctx
        return ctx


class MessageBus:
    """The middleware bus for co-located (intra-domain) components.

    Cross-machine transfer composes this with
    :class:`repro.middleware.substrate.MessagingSubstrate`; the bus alone
    models one administrative domain's middleware instance.

    Example::

        bus = MessageBus(audit=log)
        bus.register(sensor)
        bus.register(analyser)
        bus.connect("hospital", sensor, "out", analyser, "in")
        bus.publish(sensor, "out", reading=38.2)
    """

    def __init__(
        self,
        audit: Optional[AuditSink] = None,
        mode: EnforcementMode = EnforcementMode.AC_AND_IFC,
        authoriser: ConnectAuthoriser = default_authoriser,
        clock: Optional[Callable[[], float]] = None,
        shard: Optional[DecisionShard] = None,
        audit_source: str = "bus",
    ):
        # Deliveries stage records under the `audit_source` segment of
        # the spine; chaining happens at the spine's drain (at once for
        # an AuditLog, whose ring holds one record).  Worker pools give
        # each per-worker bus its own source ("bus.w0", "bus.w1", ...)
        # so emission stays contention-free — one writer per ring.
        self.audit = bind_source(audit, audit_source)
        self.mode = mode
        self.authoriser = authoriser
        self._clock = clock or (lambda: 0.0)
        self.components: Dict[str, Component] = {}
        self.channels: List[Channel] = []
        self.stats = DeliveryReport()
        # Torn-down channels are compacted out of `channels` so route()
        # never scans dead entries; removal is deferred while route() is
        # iterating (handlers may tear down channels mid-delivery).
        self._route_depth = 0
        self._compact_pending = False
        # Bumped whenever the channel list changes membership; batch
        # fan-out plans pin the version they were built against and
        # rebuild when it moves (a handler connecting mid-batch must see
        # its new channel serve the rest of the batch).
        self._channels_version = 0
        #: The bus-wide decision plane: every IFC evaluation this bus (and
        #: its channels) performs is memoized and audited through here.
        #: ``shard`` shares a machine's decision shard across bus workers
        #: (see DecisionPlaneRouter); by default the bus gets its own cache.
        self.plane = DecisionPlane(
            audit=self.audit,
            cache=shard.context_cache if shard is not None else None,
        )

    # -- registry -----------------------------------------------------------------

    def register(self, component: Component) -> Component:
        """Add a component to the bus."""
        if component.name in self.components:
            raise DiscoveryError(f"component already registered: {component.name}")
        self.components[component.name] = component
        return component

    def deregister(self, component: Component) -> None:
        """Remove a component, tearing down its channels."""
        self.components.pop(component.name, None)
        for channel in self.channels_of(component):
            channel.teardown(f"{component.name} deregistered")

    def component(self, name: str) -> Component:
        """Look up a registered component."""
        try:
            return self.components[name]
        except KeyError:
            raise DiscoveryError(f"unknown component: {name}") from None

    def channels_of(self, component: Component) -> List[Channel]:
        """All live (active or suspended) channels touching a component."""
        return [
            c
            for c in self.channels
            if c.alive and (c.source is component or c.sink is component)
        ]

    # -- channel establishment -------------------------------------------------------

    def connect(
        self,
        initiator: str,
        source: Component,
        source_endpoint: str,
        sink: Component,
        sink_endpoint: str,
    ) -> Channel:
        """Establish a channel source:endpoint → sink:endpoint.

        Runs, in order (§8.2.2): endpoint type compatibility, the AC
        regime (via the pluggable authoriser), then the IFC flow rule
        over the two components' security contexts.  All outcomes are
        audited.

        Raises:
            SchemaError: incompatible endpoints.
            AccessDenied: the AC regime refused the initiator.
            FlowError: the components' tags do not accord.
        """
        src_ep = source.endpoint(source_endpoint)
        dst_ep = sink.endpoint(sink_endpoint)
        if not dst_ep.accepts(src_ep):
            raise SchemaError(
                f"endpoint mismatch: {source.name}:{source_endpoint} "
                f"({src_ep.kind.value}/{src_ep.message_type.name}) cannot feed "
                f"{sink.name}:{sink_endpoint} "
                f"({dst_ep.kind.value}/{dst_ep.message_type.name})"
            )

        if self.mode in (EnforcementMode.AC_ONLY, EnforcementMode.AC_AND_IFC):
            if not self.authoriser(initiator, source, sink):
                if self.audit is not None:
                    self.audit.append(
                        RecordKind.ACCESS_DENIED,
                        initiator,
                        f"{source.name}->{sink.name}",
                        {"reason": "connect not authorised"},
                    )
                raise AccessDenied(
                    f"{initiator} may not connect {source.name} to {sink.name}"
                )

        if self.mode in (EnforcementMode.IFC_ONLY, EnforcementMode.AC_AND_IFC):
            decision = self.plane.evaluate(source.context, sink.context)
            if not decision.allowed:
                self.plane.audit_denied(
                    source.name, sink.name, decision.reason,
                    source.context, sink.context,
                )
                raise FlowError(source.name, sink.name, decision.reason)

        channel = Channel(
            source, src_ep, sink, dst_ep, audit=self.audit, plane=self.plane
        )
        channel.on_teardown.append(self._channel_torn_down)
        self.channels.append(channel)
        self._channels_version += 1
        if self.audit is not None:
            self.audit.append(
                RecordKind.CHANNEL_ESTABLISHED,
                initiator,
                f"{source.name}->{sink.name}",
                {
                    "channel": channel.channel_id,
                    "type": src_ep.message_type.name,
                },
                source_context=source.context,
                target_context=sink.context,
            )
        return channel

    def disconnect(self, channel: Channel, reason: str = "requested") -> None:
        """Tear down a channel."""
        channel.teardown(reason)

    def _channel_torn_down(self, channel: Channel, reason: str) -> None:
        """Teardown hook: drop the channel from the scan list.

        Mid-route teardowns (a handler disconnecting, a context change
        collapsing a channel) must not mutate the list being iterated —
        those compact once the outermost route() finishes instead, so a
        long-running bus never accumulates dead channels either way.
        """
        self._channels_version += 1
        if self._route_depth:
            self._compact_pending = True
            return
        try:
            self.channels.remove(channel)
        except ValueError:
            pass

    # -- delivery ---------------------------------------------------------------------

    def publish(self, source: Component, endpoint_name: str, **values) -> DeliveryReport:
        """Emit a message from a source endpoint along all its channels.

        Per-message enforcement (the channel-establishment check is
        necessary but not sufficient — contexts and message-level tags
        vary per message): the message's *effective* context must flow to
        each receiver; otherwise attribute quenching is attempted, and if
        the base context itself cannot flow, delivery is denied and
        audited.
        """
        message = source.make_message(endpoint_name, **values)
        message.sent_at = self._clock()
        return self.route(source, endpoint_name, message)

    def publish_batch(
        self, source: Component, endpoint_name: str, batch: List[Dict]
    ) -> DeliveryReport:
        """Publish many messages from one endpoint, amortising the per-
        message costs: flow decisions for repeated (message, sink)
        context pairs hit the decision cache, and audit appends are
        chain-hashed in one chunk at the end (see ``AuditSpine.flush``).

        Beyond audit batching, the per-message fixed costs are hoisted
        into a :class:`_BatchPlan` built once per (sender, sink-set):
        the creation context, the base flow decision per sink, and the
        per-sink quench set are computed once and reused for every
        message whose contexts are unchanged.  Handlers may still
        suspend, resume, connect or tear down channels (or relabel
        components, or advance the clock) mid-batch — the loop checks
        ``channel.active`` and context identity per delivery and the
        channel-list version per message, rebuilding the plan or falling
        back to the unhoisted path, so batching never changes which
        messages handlers see or how messages are stamped.

        ``batch`` is a list of attribute-value mappings, one per message,
        as would be passed to :meth:`publish` as keyword arguments.
        Returns one aggregated :class:`DeliveryReport`.
        """
        report = DeliveryReport()
        src_ep = source.endpoint(endpoint_name)
        plan = self._batch_plan(source, src_ep)
        clock = self._clock
        self._route_depth += 1
        try:
            for values in batch:
                if (
                    plan.version != self._channels_version
                    or source.context is not plan.src_ctx
                ):
                    plan = self._batch_plan(source, src_ep)
                # Inline make_message with the hoisted creation context;
                # Message.__post_init__ still validates every payload.
                message = Message(
                    type=plan.msg_type, values=values, context=plan.msg_ctx
                )
                message.sent_at = clock()
                sub = DeliveryReport()
                for entry in plan.entries:
                    channel = entry.channel
                    if not channel.active:
                        continue
                    sub.sent += 1
                    if entry.sink.context is not entry.sink_ctx:
                        # Sink relabelled mid-batch: this entry's hoisted
                        # decision is stale — take the per-message path.
                        self._deliver_on(channel, message, sub)
                        continue
                    self._deliver_planned(plan, entry, message, sub)
                self._accumulate(sub)
                report.sent += sub.sent
                report.delivered += sub.delivered
                report.denied += sub.denied
                report.quenched_attributes += sub.quenched_attributes
        finally:
            self._route_depth -= 1
            if not self._route_depth and self._compact_pending:
                self._compact_pending = False
                self.channels = [c for c in self.channels if c.alive]
        self.plane.flush()
        return report

    def _batch_plan(self, source: Component, src_ep: Endpoint) -> _BatchPlan:
        """Build the hoisted fan-out plan for a batch from ``src_ep``.

        Captures the channel-list version and the source context object
        so the batch loop can detect staleness by identity, never by
        (costly) label comparison.
        """
        src_ctx = source.context
        msg_ctx = src_ctx.creation_context()
        msg_type = src_ep.message_type
        risky = frozenset(
            spec.name
            for spec in msg_type.attributes.values()
            if spec.extra_secrecy
        )
        evaluate = self.plane.evaluate
        ac_only = self.mode == EnforcementMode.AC_ONLY
        entries = []
        for channel in self.channels:
            if not channel.alive:
                continue
            if channel.source is not source or channel.source_endpoint is not src_ep:
                continue
            sink_ctx = channel.sink.context
            decision = None if ac_only else evaluate(msg_ctx, sink_ctx)
            drop = frozenset(
                name
                for name in risky
                if not (
                    msg_ctx.secrecy | msg_type.attribute_secrecy(name)
                    <= sink_ctx.secrecy
                )
            )
            entries.append(_PlanEntry(channel, decision, drop))
        return _BatchPlan(
            self._channels_version, src_ctx, msg_ctx, msg_type, risky, entries
        )

    def _deliver_planned(
        self,
        plan: _BatchPlan,
        entry: _PlanEntry,
        message: Message,
        report: DeliveryReport,
    ) -> None:
        """The hoisted twin of :meth:`_deliver_on`: identical decisions,
        quenching and audit records, with the per-message label algebra
        replaced by plan lookups."""
        channel = entry.channel
        sink = entry.sink
        if entry.decision is None:  # AC_ONLY
            channel.messages_carried += 1
            self.plane.audit_allowed(
                channel.source.name, sink.name,
                message.context, entry.sink_ctx,
                {"msg_id": message.msg_id, "mode": "ac-only"},
            )
            sink.deliver(entry.sink_ep_name, message)
            report.delivered += 1
            return

        if not entry.decision.allowed:
            report.denied += 1
            self.plane.audit_denied(
                channel.source.name,
                sink.name,
                entry.decision.reason,
                message.context,
                entry.sink_ctx,
            )
            return

        outgoing = message
        dropped: List[str] = []
        kept_risky: frozenset = plan.risky
        if plan.risky:
            present_risky = plan.risky.intersection(message.values)
            if present_risky:
                dropped = sorted(present_risky & entry.drop)
                kept_risky = present_risky - entry.drop
            else:
                kept_risky = present_risky
        if dropped:
            kept = {
                k: v for k, v in message.values.items() if k not in entry.drop
            }
            outgoing = Message.__new__(Message)
            outgoing.type = message.type
            outgoing.values = kept
            outgoing.context = message.context
            outgoing.msg_id = message.msg_id
            outgoing.sent_at = message.sent_at
            report.quenched_attributes += len(dropped)
        if self.plane.audit is not None:
            detail = {"msg_id": message.msg_id, "type": message.type.name}
            if dropped:
                detail["quenched"] = dropped
            effective = (
                plan.effective(kept_risky) if kept_risky else message.context
            )
            self.plane.audit_allowed(
                channel.source.name, sink.name,
                effective, entry.sink_ctx, detail,
            )
        channel.messages_carried += 1
        sink.deliver(entry.sink_ep_name, outgoing)
        report.delivered += 1

    def route(
        self, source: Component, endpoint_name: str, message: Message
    ) -> DeliveryReport:
        """Route a pre-built message (used by gateways re-emitting)."""
        report = DeliveryReport()
        src_ep = source.endpoint(endpoint_name)
        self._route_depth += 1
        try:
            for channel in self.channels:
                if not channel.active:
                    continue
                if channel.source is not source or channel.source_endpoint is not src_ep:
                    continue
                report.sent += 1
                self._deliver_on(channel, message, report)
        finally:
            self._route_depth -= 1
            if not self._route_depth and self._compact_pending:
                self._compact_pending = False
                self.channels = [c for c in self.channels if c.alive]
        self._accumulate(report)
        return report

    def _accumulate(self, report: DeliveryReport) -> None:
        self.stats.sent += report.sent
        self.stats.delivered += report.delivered
        self.stats.denied += report.denied
        self.stats.quenched_attributes += report.quenched_attributes

    def _deliver_on(
        self, channel: Channel, message: Message, report: DeliveryReport
    ) -> None:
        sink = channel.sink
        if self.mode == EnforcementMode.AC_ONLY:
            # The paper's baseline: nothing re-checked after the PEP.
            # Deliveries are still logged (message-level audit needs no
            # IFC) so compliance tooling can expose what leaked.
            channel.messages_carried += 1
            self.plane.audit_allowed(
                channel.source.name, sink.name,
                message.context, sink.context,
                {"msg_id": message.msg_id, "mode": "ac-only"},
            )
            sink.deliver(channel.sink_endpoint.name, message)
            report.delivered += 1
            return

        base = self.plane.evaluate(message.context, sink.context)
        if not base.allowed:
            report.denied += 1
            self.plane.audit_denied(
                channel.source.name,
                sink.name,
                base.reason,
                message.context,
                sink.context,
            )
            return

        outgoing = message
        dropped = message.dropped_attributes(sink.context)
        if dropped:
            outgoing = message.quenched_for(sink.context)
            report.quenched_attributes += len(dropped)
        if self.plane.audit is not None:
            detail = {"msg_id": message.msg_id, "type": message.type.name}
            if dropped:
                detail["quenched"] = dropped
            # Audit the effective context of what was actually delivered:
            # base context plus the extra secrecy of the attributes the
            # receiver really got (quenched ones excluded) — the quenched
            # case is exactly when the trail must show the reduced view.
            self.plane.audit_allowed(
                channel.source.name, sink.name,
                outgoing.effective_context(),
                sink.context, detail,
            )
        channel.messages_carried += 1
        sink.deliver(channel.sink_endpoint.name, outgoing)
        report.delivered += 1
