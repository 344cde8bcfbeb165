"""The cross-machine messaging substrate (Fig. 9, §8.2.2).

"Transfers across machines are therefore managed by a trusted substrate
... each communicating entity (application process) is associated with a
messaging substrate process for external transfers.  A substrate process
is aware of the security context of the application process it serves,
and enforces IFC in its dealings with the substrate processes of other
applications."

A :class:`MessagingSubstrate` binds to one machine; applications
register their kernel processes with it and obtain *remote bindings* to
(host, process) pairs elsewhere.  Sending runs: (1) kernel-side check
that the application may hand data to its substrate, (2) optional remote
attestation of the peer platform (Challenge 5), (3) the IFC flow rule
between application contexts — including message-level tags with
quenching (Fig. 10), (4) network transfer, (5) receiver-side re-check
on delivery (the receiving substrate trusts no one blindly).

Wire formats (see ``docs/wire_plane.md``): security contexts cross the
wire either as serialised tag sets (:class:`TagSetEnvelope`, the
pre-handshake fallback) or — once the peers have exchanged tag tables
through the :class:`~repro.ifc.wire.WireCodec` handshake — as plain int
masks in the *sender's* numbering (:class:`MaskEnvelope`), which the
receiver remaps through its per-peer translation table.  The receiver
re-derives full :class:`~repro.ifc.labels.SecurityContext` objects
either way, so the receive-side re-check is identical for both formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.audit.records import RecordKind
from repro.audit.spine import bind_source
from repro.cloud.kernel import Process
from repro.cloud.machine import Machine
from repro.crypto.attestation import AttestationVerifier
from repro.errors import AttestationError, FlowError, NetworkError
from repro.ifc.decisions import DecisionPlane
from repro.ifc.labels import SecurityContext
from repro.ifc.wire import WireCodec, WireControl, control_wire_size
from repro.middleware.message import Message, MessageType
from repro.net.network import Datagram, Network

#: Application-level delivery callback: (sender_addr, message).
SubstrateHandler = Callable[[str, Message], None]


@dataclass
class SubstrateEnvelope:
    """A decoded transfer: what the receive-side enforcement sees.

    Wire payloads (:class:`TagSetEnvelope` / :class:`MaskEnvelope`) are
    decoded into this form on receipt; in-process callers may also hand
    one straight to a substrate (the legacy path, kept for tooling).
    """

    source_host: str
    source_process: str
    dest_host: str
    dest_process: str
    message: Message
    source_context: SecurityContext


def _context_wire_tags(ctx: SecurityContext) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Serialise a context as (secrecy, integrity) qualified tag names."""
    return (
        tuple(t.qualified for t in ctx.secrecy.tags),
        tuple(t.qualified for t in ctx.integrity.tags),
    )


@dataclass
class TagSetEnvelope:
    """Pre-handshake wire format: contexts as serialised tag names.

    This is what the seed shipped on every message — each label spelled
    out as qualified tag strings, re-interned on receipt.  It stays as
    the fallback for peers that have not completed the tag-table
    handshake (and for any message whose label contains a tag the peer
    has not yet confirmed, see :class:`MaskEnvelope`).
    """

    source_host: str
    source_process: str
    dest_host: str
    dest_process: str
    type: MessageType
    values: Dict
    msg_id: int
    sent_at: float
    msg_secrecy: Tuple[str, ...]
    msg_integrity: Tuple[str, ...]
    src_secrecy: Tuple[str, ...]
    src_integrity: Tuple[str, ...]


@dataclass
class MaskEnvelope:
    """Post-handshake wire format: contexts as int masks.

    Masks are in the *sender's* interner numbering and may only use bit
    positions the receiver has confirmed holding (the codec enforces
    this at encode time), so the receiver can always remap them through
    its per-peer translation table.  ``table_version`` records the
    sender-table length the masks were encoded against, for diagnostics
    and defensive decoding.
    """

    source_host: str
    source_process: str
    dest_host: str
    dest_process: str
    type: MessageType
    values: Dict
    msg_id: int
    sent_at: float
    msg_secrecy_mask: int
    msg_integrity_mask: int
    src_secrecy_mask: int
    src_integrity_mask: int
    table_version: int


@dataclass
class MaskBatchEnvelope:
    """Post-handshake batched wire format: one datagram, many messages.

    :meth:`MessagingSubstrate.send_batch` groups messages by destination
    host and ships one of these per ``(host, message-context)`` group —
    the fields every message shares (routing header, the four context
    masks, the table version) are encoded once, and each message
    contributes only a *row*: ``(dest_process, values, msg_id,
    sent_at)``.  The receiver decodes the shared header once and runs
    the ordinary per-message receive protocol (decision, quenching,
    audit) over the rows with the fixed costs hoisted.

    This is a substrate wire-format choice exactly like
    :class:`MaskEnvelope` was: one batch envelope is one datagram, so
    network-level loss drops the whole batch (the transparent
    network-outbox coalescing in ``repro.net`` keeps strict per-datagram
    loss instead; see ``docs/transport_plane.md``).
    """

    source_host: str
    source_process: str
    dest_host: str
    type: MessageType
    msg_secrecy_mask: int
    msg_integrity_mask: int
    src_secrecy_mask: int
    src_integrity_mask: int
    table_version: int
    #: One entry per message: (dest_process, values, msg_id, sent_at).
    rows: Tuple[Tuple[str, Dict, int, float], ...]


@dataclass
class SubstrateStats:
    """Counters for the cross-machine benchmarks (F9/F10)."""

    sent: int = 0
    delivered: int = 0
    denied_local: int = 0
    denied_remote: int = 0
    quenched_attributes: int = 0
    attestation_failures: int = 0
    #: Envelopes shipped as int masks vs the tag-set fallback.
    sent_masked: int = 0
    sent_tagset: int = 0
    #: Coalesced batch envelopes shipped by send_batch.
    sent_batches: int = 0
    #: Envelopes addressed to a process this substrate does not serve.
    dropped_unroutable: int = 0
    #: Mask envelopes whose bits exceeded our translation table
    #: (reordered/lost control traffic) — dropped, never guessed at.
    dropped_undecodable: int = 0
    #: Table re-syncs triggered by post-handshake tag growth.
    table_syncs: int = 0


def _rebuild_message(
    type: MessageType,
    values: Dict,
    context: SecurityContext,
    msg_id: int,
    sent_at: float,
) -> Message:
    """Reassemble a Message from wire fields without re-validating.

    The sender validated against the schema; re-validating here would
    also reject legitimately quenched partial messages (required
    attributes already dropped upstream).
    """
    message = Message.__new__(Message)
    message.type = type
    message.values = values
    message.context = context
    message.msg_id = msg_id
    message.sent_at = sent_at
    return message


class MessagingSubstrate:
    """The per-machine CamFlow-Messaging process.

    One substrate per :class:`Machine`; it registers as the machine's
    network receiver.  ``enforce=False`` builds the baseline substrate
    for overhead comparisons (same transfer path, no IFC evaluation).
    ``wire_masks=False`` pins the substrate to the tag-set wire format
    (no handshake), for A/B benchmarking of the wire plane itself.
    """

    def __init__(
        self,
        machine: Machine,
        network: Network,
        enforce: bool = True,
        verifier: Optional[AttestationVerifier] = None,
        wire_masks: bool = True,
    ):
        self.machine = machine
        self.network = network
        self.enforce = enforce
        self.verifier = verifier
        self.wire_masks = wire_masks
        # Audit stages into the machine spine's "substrate" segment —
        # nothing on the send/receive path chains digests synchronously.
        self.audit = bind_source(machine.audit, "substrate")
        # The machine's decision shard is shared with the kernel LSM:
        # one memo table per machine, not one per enforcement site
        # (context_cache keeps the private-vocabulary guard).
        self.plane = DecisionPlane(
            audit=self.audit, cache=machine.shard.context_cache
        )
        self.stats = SubstrateStats()
        self.wire = WireCodec()
        self._local: Dict[str, Tuple[Process, SubstrateHandler]] = {}
        self._attested_hosts: Dict[str, bool] = {}
        # Federation: a mesh node receiving kind="gossip" datagrams
        # (repro.federation.GossipMesh.join_substrate sets this).
        self._gossip_node = None
        network.add_host(machine.hostname, self._receive)
        # Fig. 9: the substrate is itself a process on the machine.
        self.process = machine.kernel.spawn(f"substrate@{machine.hostname}")

    # -- registration -------------------------------------------------------------

    def register(self, process: Process, handler: SubstrateHandler) -> str:
        """Associate an application process with this substrate.

        Returns the address ``host/process-name`` peers use to reach it.
        """
        address = f"{self.machine.hostname}/{process.name}"
        self._local[process.name] = (process, handler)
        return address

    def deregister(self, process: Process) -> None:
        """Detach an application process."""
        self._local.pop(process.name, None)

    def attach_gossip(self, node) -> None:
        """Route federation gossip datagrams to a mesh node.

        The substrate stays the machine's single network receiver;
        gossip traffic is recognised by its datagram ``kind`` so the
        substrate needs no dependency on the federation plane.
        """
        self._gossip_node = node

    # -- attestation ----------------------------------------------------------------

    def _peer_trusted(self, peer: "MessagingSubstrate") -> bool:
        """Attest the peer platform once per host (cached).

        The wire-plane handshake piggybacks here: attestation is the
        substrate's first round-trip with an unfamiliar host, so the
        tag-table HELLO rides out together with it (see :meth:`_ship`).
        """
        if self.verifier is None:
            return True
        host = peer.machine.hostname
        cached = self._attested_hosts.get(host)
        if cached is not None:
            return cached
        ok = peer.machine.attest_to(self.verifier)
        self._attested_hosts[host] = ok
        if self.audit is not None:
            self.audit.append(
                RecordKind.ATTESTATION,
                self.machine.hostname,
                host,
                {"result": "trusted" if ok else "REJECTED"},
            )
        return ok

    def invalidate_attestation(self, host: str) -> None:
        """Drop the cached attestation of a host (e.g. after an alert)."""
        self._attested_hosts.pop(host, None)

    # -- sending ---------------------------------------------------------------------

    def send(
        self,
        process: Process,
        peer: "MessagingSubstrate",
        peer_process_name: str,
        message: Message,
    ) -> bool:
        """Send a message from a local process to a remote one.

        Returns True when the message was handed to the network.  Denials
        (IFC, attestation) return False and are audited — the substrate
        never raises for policy denials on the send path, mirroring how a
        messaging layer reports rather than crashes.
        """
        if process.name not in self._local:
            # Not a send at all: an unregistered process has no binding
            # to this substrate, so nothing must reach the counters the
            # F9/F10 denial ratios are computed from.
            raise NetworkError(
                f"{process.name} is not registered with this substrate"
            )
        self.stats.sent += 1

        if self.enforce:
            if not self._peer_trusted(peer):
                self.stats.attestation_failures += 1
                return False
            # The substrate knows its application's kernel-level context;
            # the message carries that context across the wire.
            decision = self.plane.evaluate(process.security, message.context)
            # Message context must at least cover the process's own; the
            # common case is equality (message created by the process).
            if not decision.allowed:
                self.stats.denied_local += 1
                self.plane.audit_denied(
                    process.name,
                    f"{peer.machine.hostname}/{peer_process_name}",
                    f"message labelled below its producer: {decision.reason}",
                    process.security,
                    message.context,
                )
                return False

        self._ship(process, peer, peer_process_name, message)
        return True

    def send_batch(
        self,
        process: Process,
        sinks: Sequence[Tuple["MessagingSubstrate", str]],
        messages: Sequence[Message],
    ) -> int:
        """Send every message to every sink, amortising the per-message
        fixed costs — the substrate twin of
        :meth:`~repro.middleware.bus.MessageBus.publish_batch`.

        Hoisted per batch: the attestation check per peer host, the
        local flow decision per distinct message context (identity-
        keyed, exactly the staleness rule the bus plan uses), the wire
        handshake drive and the :class:`MaskBatchEnvelope` header per
        ``(host, context)`` group.  Per (message, sink) the counters,
        denial audits and delivery semantics are identical to a
        :meth:`send` loop; per-host delivery order is the send-loop
        order.  Sinks whose peer cannot take masks yet fall back to
        per-message tag-set envelopes, exactly as :meth:`send` would.

        Returns how many (message, sink) transfers were handed to the
        network (denials and attestation failures are excluded, as in
        :meth:`send`).
        """
        if process.name not in self._local:
            raise NetworkError(
                f"{process.name} is not registered with this substrate"
            )
        if not sinks or not messages:
            return 0
        host = self.machine.hostname
        src_sec = process.security
        enforce = self.enforce
        evaluate = self.plane.evaluate
        # decision per message-context, by identity (contexts are shared
        # objects on the hot path; an unshared equal context just costs
        # one extra memoized evaluate).
        decisions: Dict[int, object] = {}
        # (peer_host, id(ctx), id(type)) → (masks-or-None, ctx, type):
        # the hoisted envelope header; plus the rows accumulating on it.
        group_meta: Dict[Tuple[str, int, int], Tuple] = {}
        groups: Dict[Tuple[str, int, int], List] = {}
        greeted: set = set()
        src_tags: Optional[Tuple] = None  # lazy: fallback sends only
        accepted = 0

        trusted: Dict[str, bool] = {}
        for peer, __ in sinks:
            peer_host = peer.machine.hostname
            if peer_host not in trusted:
                trusted[peer_host] = (not enforce) or self._peer_trusted(peer)

        for message in messages:
            ctx = message.context
            ctx_key = id(ctx)
            decision = None
            if enforce:
                decision = decisions.get(ctx_key)
                if decision is None:
                    decision = evaluate(src_sec, ctx)
                    decisions[ctx_key] = decision
            for peer, peer_process_name in sinks:
                peer_host = peer.machine.hostname
                self.stats.sent += 1
                if enforce:
                    if not trusted[peer_host]:
                        self.stats.attestation_failures += 1
                        continue
                    if not decision.allowed:
                        self.stats.denied_local += 1
                        self.plane.audit_denied(
                            process.name,
                            f"{peer_host}/{peer_process_name}",
                            "message labelled below its producer: "
                            f"{decision.reason}",
                            src_sec,
                            ctx,
                        )
                        continue
                accepted += 1
                if self.wire_masks:
                    if peer_host not in greeted:
                        greeted.add(peer_host)
                        hello = self.wire.greet(peer_host)
                        if hello is not None:
                            self.network.send(
                                host, peer_host, hello, kind="handshake",
                                size=control_wire_size(hello),
                            )
                    group_key = (peer_host, ctx_key, id(message.type))
                    meta = group_meta.get(group_key)
                    if meta is None:
                        masks = self.wire.encode_masks(
                            peer_host,
                            ctx.secrecy.mask,
                            ctx.integrity.mask,
                            src_sec.secrecy.mask,
                            src_sec.integrity.mask,
                        )
                        if masks is None:
                            # Handshaked but behind: ship the table
                            # delta once (resync self-suppresses while
                            # one is in flight), fall back below.
                            update = self.wire.resync(peer_host)
                            if update is not None:
                                self.stats.table_syncs += 1
                                self.network.send(
                                    host, peer_host, update, kind="handshake",
                                    size=control_wire_size(update),
                                )
                                if self.audit is not None:
                                    self.audit.append(
                                        RecordKind.TABLE_SYNC,
                                        host,
                                        peer_host,
                                        {"base": update.base,
                                         "tags": len(update.tags)},
                                    )
                        meta = (masks, message.type)
                        group_meta[group_key] = meta
                    if meta[0] is not None:
                        groups.setdefault(group_key, []).append(
                            (peer_process_name, message.values,
                             message.msg_id, message.sent_at)
                        )
                        continue
                # Fallback (wire_masks off, or the peer cannot take
                # masks yet): per-message tag-set envelope, as send()
                # would ship.
                if src_tags is None:
                    src_tags = _context_wire_tags(src_sec)
                self._ship_tagset(
                    process.name, src_tags[0], src_tags[1],
                    peer_host, peer_process_name, message,
                )

        for group_key, rows in groups.items():
            peer_host = group_key[0]
            masks, msg_type = group_meta[group_key]
            self.stats.sent_masked += len(rows)
            self.stats.sent_batches += 1
            self.network.send(
                host,
                peer_host,
                MaskBatchEnvelope(
                    source_host=host,
                    source_process=process.name,
                    dest_host=peer_host,
                    type=msg_type,
                    msg_secrecy_mask=masks[0],
                    msg_integrity_mask=masks[1],
                    src_secrecy_mask=masks[2],
                    src_integrity_mask=masks[3],
                    table_version=self.wire.peer(peer_host).confirmed,
                    rows=tuple(rows),
                ),
            )
        return accepted

    def _ship(
        self,
        process: Process,
        peer: "MessagingSubstrate",
        peer_process_name: str,
        message: Message,
    ) -> None:
        """Encode and transmit one message, driving the wire handshake."""
        host = self.machine.hostname
        peer_host = peer.machine.hostname

        if self.wire_masks:
            hello = self.wire.greet(peer_host)
            if hello is not None:
                self.network.send(
                    host, peer_host, hello, kind="handshake",
                    size=control_wire_size(hello),
                )
            masks = self.wire.encode_masks(
                peer_host,
                message.context.secrecy.mask,
                message.context.integrity.mask,
                process.security.secrecy.mask,
                process.security.integrity.mask,
            )
            if masks is not None:
                self.stats.sent_masked += 1
                self.network.send(
                    host,
                    peer_host,
                    MaskEnvelope(
                        source_host=host,
                        source_process=process.name,
                        dest_host=peer_host,
                        dest_process=peer_process_name,
                        type=message.type,
                        values=message.values,
                        msg_id=message.msg_id,
                        sent_at=message.sent_at,
                        msg_secrecy_mask=masks[0],
                        msg_integrity_mask=masks[1],
                        src_secrecy_mask=masks[2],
                        src_integrity_mask=masks[3],
                        table_version=self.wire.peer(peer_host).confirmed,
                    ),
                )
                return
            # The peer is handshaked but a label used a tag it has not
            # confirmed: ship the table delta, fall back to tag sets for
            # this message — a re-sync, never a mislabel.
            update = self.wire.resync(peer_host)
            if update is not None:
                self.stats.table_syncs += 1
                self.network.send(
                    host, peer_host, update, kind="handshake",
                    size=control_wire_size(update),
                )
                if self.audit is not None:
                    self.audit.append(
                        RecordKind.TABLE_SYNC,
                        host,
                        peer_host,
                        {"base": update.base, "tags": len(update.tags)},
                    )

        src_secrecy, src_integrity = _context_wire_tags(process.security)
        self._ship_tagset(
            process.name, src_secrecy, src_integrity,
            peer_host, peer_process_name, message,
        )

    def _ship_tagset(
        self,
        process_name: str,
        src_secrecy: Tuple[str, ...],
        src_integrity: Tuple[str, ...],
        peer_host: str,
        peer_process_name: str,
        message: Message,
    ) -> None:
        """Ship one message in the tag-set fallback format."""
        self.stats.sent_tagset += 1
        msg_secrecy, msg_integrity = _context_wire_tags(message.context)
        self.network.send(
            self.machine.hostname,
            peer_host,
            TagSetEnvelope(
                source_host=self.machine.hostname,
                source_process=process_name,
                dest_host=peer_host,
                dest_process=peer_process_name,
                type=message.type,
                values=message.values,
                msg_id=message.msg_id,
                sent_at=message.sent_at,
                msg_secrecy=msg_secrecy,
                msg_integrity=msg_integrity,
                src_secrecy=src_secrecy,
                src_integrity=src_integrity,
            ),
        )

    # -- receiving --------------------------------------------------------------------

    def _handle_control(self, source_host: str, payload: WireControl) -> None:
        reply, event = self.wire.handle_control(source_host, payload)
        if reply is not None:
            self.network.send(
                self.machine.hostname, source_host, reply, kind="handshake",
                size=control_wire_size(reply),
            )
        if event is not None and self.audit is not None:
            step = event.get("step", "")
            kind = (
                RecordKind.TABLE_SYNC
                if step.startswith("update")
                else RecordKind.WIRE_HANDSHAKE
            )
            self.audit.append(kind, self.machine.hostname, source_host, event)

    def _decode(self, datagram: Datagram) -> Optional[SubstrateEnvelope]:
        """Decode a wire payload into a :class:`SubstrateEnvelope`."""
        payload = datagram.payload
        if isinstance(payload, SubstrateEnvelope):
            return payload  # legacy in-process path
        if isinstance(payload, TagSetEnvelope):
            message = _rebuild_message(
                payload.type,
                payload.values,
                SecurityContext.of(payload.msg_secrecy, payload.msg_integrity),
                payload.msg_id,
                payload.sent_at,
            )
            return SubstrateEnvelope(
                payload.source_host,
                payload.source_process,
                payload.dest_host,
                payload.dest_process,
                message,
                SecurityContext.of(payload.src_secrecy, payload.src_integrity),
            )
        if isinstance(payload, MaskEnvelope):
            # Key the translation table by the transport-level source —
            # the same field handshake state is keyed by — never by the
            # sender-controlled envelope header: masks remapped through
            # the wrong peer's table would silently relabel data.
            host = datagram.source
            if not self.wire.can_decode(
                host,
                payload.msg_secrecy_mask,
                payload.msg_integrity_mask,
                payload.src_secrecy_mask,
                payload.src_integrity_mask,
            ):
                # Masks beyond our translation table: control traffic was
                # lost or reordered.  Dropping (audited) is the only safe
                # move — guessing at unknown bits would mislabel data.
                self.stats.dropped_undecodable += 1
                if self.audit is not None:
                    self.audit.append(
                        RecordKind.TABLE_SYNC,
                        self.machine.hostname,
                        host,
                        {
                            "step": "undecodable",
                            "msg_id": payload.msg_id,
                            "table_version": payload.table_version,
                        },
                    )
                return None
            message = _rebuild_message(
                payload.type,
                payload.values,
                self.wire.decode_context(
                    host, payload.msg_secrecy_mask, payload.msg_integrity_mask
                ),
                payload.msg_id,
                payload.sent_at,
            )
            return SubstrateEnvelope(
                payload.source_host,
                payload.source_process,
                payload.dest_host,
                payload.dest_process,
                message,
                self.wire.decode_context(
                    host, payload.src_secrecy_mask, payload.src_integrity_mask
                ),
            )
        return None

    def _receive(self, datagram: Datagram) -> None:
        if datagram.kind == "gossip":
            if self._gossip_node is not None:
                self._gossip_node.receive(datagram)
            return
        if isinstance(datagram.payload, WireControl):
            self._handle_control(datagram.source, datagram.payload)
            return
        if isinstance(datagram.payload, MaskBatchEnvelope):
            self._receive_mask_batch(datagram)
            return
        envelope = self._decode(datagram)
        if envelope is None:
            return
        entry = self._local.get(envelope.dest_process)
        if entry is None:
            # Misdelivery: audited and counted, so compliance tooling can
            # see envelopes that reached the wrong substrate.
            self.stats.dropped_unroutable += 1
            if self.audit is not None:
                self.audit.append(
                    RecordKind.MISDELIVERY,
                    f"{envelope.source_host}/{envelope.source_process}",
                    f"{self.machine.hostname}/{envelope.dest_process}",
                    {"msg_id": envelope.message.msg_id,
                     "reason": "no such process on this substrate"},
                )
            return
        process, handler = entry
        message = envelope.message
        source_addr = f"{envelope.source_host}/{envelope.source_process}"

        if self.enforce:
            decision = self.plane.evaluate(message.context, process.security)
            if not decision.allowed:
                self.stats.denied_remote += 1
                self.plane.audit_denied(
                    source_addr, process.name, decision.reason,
                    message.context, process.security,
                )
                return
            dropped = message.dropped_attributes(process.security)
            if dropped:
                # Fig. 10: message-level tags quench attribute values the
                # receiver's context does not satisfy.
                self.stats.quenched_attributes += len(dropped)
                message = message.quenched_for(process.security)
            # As on the bus: audit the effective context of what was
            # actually delivered — base context plus the extra secrecy of
            # the attributes the receiver really got.
            self.plane.audit_allowed(
                source_addr,
                process.name,
                message.effective_context(),
                process.security,
                {"msg_id": message.msg_id, "quenched": dropped}
                if dropped
                else {"msg_id": message.msg_id},
            )

        self.stats.delivered += 1
        handler(source_addr, message)

    def _receive_mask_batch(self, datagram: Datagram) -> None:
        """Deliver a :class:`MaskBatchEnvelope`: decode the shared
        header once, then run the ordinary per-row receive protocol.

        Per row the decisions, quenching, counters and audit records are
        identical to per-message delivery; the batch only hoists what is
        constant — the mask translation, the flow decision and quench
        set per destination process, and the effective-context algebra
        per kept-attribute set (the :class:`~repro.middleware.bus.
        _BatchPlan` memo, receive-side).  Registry entries are re-read
        per row by identity, so a handler deregistering a process
        mid-batch turns the remaining rows unroutable, exactly as
        per-datagram delivery would.
        """
        payload = datagram.payload
        host = datagram.source
        rows = payload.rows
        if not self.wire.can_decode(
            host,
            payload.msg_secrecy_mask,
            payload.msg_integrity_mask,
            payload.src_secrecy_mask,
            payload.src_integrity_mask,
        ):
            self.stats.dropped_undecodable += len(rows)
            if self.audit is not None:
                self.audit.append(
                    RecordKind.TABLE_SYNC,
                    self.machine.hostname,
                    host,
                    {"step": "undecodable", "rows": len(rows),
                     "table_version": payload.table_version},
                )
            return
        msg_ctx = self.wire.decode_context(
            host, payload.msg_secrecy_mask, payload.msg_integrity_mask
        )
        source_addr = f"{payload.source_host}/{payload.source_process}"
        mtype = payload.type
        enforce = self.enforce
        local = self._local
        stats = self.stats
        plane = self.plane
        risky = frozenset(
            spec.name
            for spec in mtype.attributes.values()
            if spec.extra_secrecy
        )
        # dest_process → (process, handler, decision, drop) hoisted plan;
        # effective contexts memoized by kept risky attrs (sink-free).
        plans: Dict[str, Tuple] = {}
        eff_cache: Dict[frozenset, SecurityContext] = {}

        for dest_process, values, msg_id, sent_at in rows:
            entry = local.get(dest_process)
            if entry is None:
                stats.dropped_unroutable += 1
                if self.audit is not None:
                    self.audit.append(
                        RecordKind.MISDELIVERY,
                        source_addr,
                        f"{self.machine.hostname}/{dest_process}",
                        {"msg_id": msg_id,
                         "reason": "no such process on this substrate"},
                    )
                continue
            process, handler = entry
            if not enforce:
                stats.delivered += 1
                handler(
                    source_addr,
                    _rebuild_message(mtype, values, msg_ctx, msg_id, sent_at),
                )
                continue
            plan = plans.get(dest_process)
            if plan is None or plan[0] is not process:
                decision = plane.evaluate(msg_ctx, process.security)
                drop = frozenset(
                    name
                    for name in risky
                    if not (
                        msg_ctx.secrecy | mtype.attribute_secrecy(name)
                        <= process.security.secrecy
                    )
                )
                plan = (process, handler, decision, drop)
                plans[dest_process] = plan
            decision, drop = plan[2], plan[3]
            if not decision.allowed:
                stats.denied_remote += 1
                plane.audit_denied(
                    source_addr, process.name, decision.reason,
                    msg_ctx, process.security,
                )
                continue
            message = _rebuild_message(mtype, values, msg_ctx, msg_id, sent_at)
            dropped: List[str] = []
            kept_risky: frozenset = frozenset()
            if risky:
                present_risky = risky.intersection(values)
                if present_risky:
                    dropped = sorted(present_risky & drop)
                    kept_risky = present_risky - drop
            if dropped:
                kept = {k: v for k, v in values.items() if k not in drop}
                message = _rebuild_message(mtype, kept, msg_ctx, msg_id, sent_at)
                stats.quenched_attributes += len(dropped)
            if kept_risky:
                effective = eff_cache.get(kept_risky)
                if effective is None:
                    secrecy = msg_ctx.secrecy
                    for name in kept_risky:
                        secrecy = secrecy | mtype.attribute_secrecy(name)
                    effective = SecurityContext(secrecy, msg_ctx.integrity)
                    eff_cache[kept_risky] = effective
            else:
                effective = msg_ctx
            plane.audit_allowed(
                source_addr,
                process.name,
                effective,
                process.security,
                {"msg_id": msg_id, "quenched": dropped}
                if dropped
                else {"msg_id": msg_id},
            )
            stats.delivered += 1
            handler(source_addr, message)
