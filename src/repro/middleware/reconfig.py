"""Third-party reconfiguration via control messages (§8.1, Fig. 8).

"SBUS not only supports system components reconfiguring their own state;
but importantly, allows reconfiguration actions to be issued by third
parties ... These third-party instructions are executed as though the
application had initiated them ... The reconfiguration commands are
issued through the messaging system via control messages [and] are
subject to the same general AC regime."

Command set (the standardised operations Challenge 1 asks for):

* ``MAP`` / ``UNMAP`` — establish / tear down a channel;
* ``SET_CONTEXT`` — change a component's security context (executed with
  the *target's* privileges, exactly "as though the application had
  initiated" it — a component cannot be forced beyond its own powers);
* ``GRANT_PRIVILEGE`` — pass privileges to a component (requires the
  issuer to hold them, checked against a
  :class:`~repro.ifc.privileges.PrivilegeAuthority`);
* ``DIVERT`` — retarget an existing channel (e.g. force data through a
  sanitiser, §5.2);
* ``ISOLATE`` — tear down all of a component's channels ("preventing a
  rogue 'thing' from causing more damage", §5.2);
* ``SHUTDOWN`` — stop the component.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional

from repro.audit.sink import AuditSink
from repro.audit.records import RecordKind
from repro.audit.spine import bind_source
from repro.errors import (
    AccessDenied,
    FlowError,
    PrivilegeError,
    ReconfigurationError,
    SchemaError,
)
from repro.ifc.labels import SecurityContext
from repro.ifc.privileges import PrivilegeAuthority, PrivilegeSet
from repro.middleware.bus import MessageBus
from repro.middleware.channel import Channel
from repro.middleware.component import Component

_cmd_counter = itertools.count(1)


class CommandKind(str, Enum):
    """The standardised reconfiguration operations."""

    MAP = "map"
    UNMAP = "unmap"
    SET_CONTEXT = "set-context"
    GRANT_PRIVILEGE = "grant-privilege"
    DIVERT = "divert"
    ISOLATE = "isolate"
    SHUTDOWN = "shutdown"


@dataclass
class ControlMessage:
    """A reconfiguration command addressed to a component.

    Attributes:
        issuer: principal issuing the command (policy engine, manager).
        target: name of the component being reconfigured.
        kind: the operation.
        arguments: operation-specific arguments (see
            :class:`Reconfigurator` methods for each shape).
    """

    issuer: str
    target: str
    kind: CommandKind
    arguments: Dict[str, object] = field(default_factory=dict)
    cmd_id: int = field(default_factory=lambda: next(_cmd_counter))


@dataclass
class CommandOutcome:
    """Result of applying one control message."""

    command: ControlMessage
    applied: bool
    detail: str = ""


class Reconfigurator:
    """Applies control messages to components through a bus.

    Authorisation: the issuer must be in the target component's
    controller set (the component-local ACL mirrors SBUS's certificate
    regime).  Privilege grants additionally verify the issuer holds the
    privileges in the system :class:`PrivilegeAuthority`.

    Every command — applied or refused — is written to the audit log,
    because reconfigurations are part of the compliance evidence ("the
    policies applied, reconfigurations initiated and interactions
    undertaken", §5.2).
    """

    def __init__(
        self,
        bus: MessageBus,
        audit: Optional[AuditSink] = None,
        privilege_authority: Optional[PrivilegeAuthority] = None,
    ):
        self.bus = bus
        # Reconfiguration records stage under their own spine segment
        # when the bus runs on an audit spine.
        self.audit = bind_source(
            audit if audit is not None else bus.audit, "reconfig"
        )
        self.privilege_authority = privilege_authority
        self.outcomes: List[CommandOutcome] = []

    # -- command construction helpers ------------------------------------------

    @staticmethod
    def map_command(
        issuer: str, source: str, source_endpoint: str, sink: str, sink_endpoint: str
    ) -> ControlMessage:
        """Build a MAP command connecting source → sink."""
        return ControlMessage(
            issuer,
            source,
            CommandKind.MAP,
            {
                "source_endpoint": source_endpoint,
                "sink": sink,
                "sink_endpoint": sink_endpoint,
            },
        )

    @staticmethod
    def set_context_command(
        issuer: str, target: str, context: SecurityContext
    ) -> ControlMessage:
        """Build a SET_CONTEXT command."""
        return ControlMessage(
            issuer, target, CommandKind.SET_CONTEXT, {"context": context}
        )

    @staticmethod
    def grant_command(
        issuer: str, target: str, privileges: PrivilegeSet
    ) -> ControlMessage:
        """Build a GRANT_PRIVILEGE command."""
        return ControlMessage(
            issuer, target, CommandKind.GRANT_PRIVILEGE, {"privileges": privileges}
        )

    # -- application ---------------------------------------------------------------

    def apply(self, command: ControlMessage) -> CommandOutcome:
        """Authorise and execute one control message.

        Returns a :class:`CommandOutcome`; refusals are outcomes with
        ``applied=False`` (and an audit record), not exceptions, because
        policy engines issue batches and must observe partial failure.
        """
        try:
            target = self.bus.component(command.target)
        except Exception:
            return self._refuse(command, f"unknown target {command.target}")

        if not target.is_controller(command.issuer):
            return self._refuse(
                command,
                f"{command.issuer} is not an authorised controller of "
                f"{command.target}",
            )

        try:
            detail = self._execute(command, target)
        except (
            AccessDenied,
            FlowError,
            PrivilegeError,
            ReconfigurationError,
            SchemaError,
        ) as exc:
            return self._refuse(command, str(exc))
        outcome = CommandOutcome(command, True, detail)
        self.outcomes.append(outcome)
        if self.audit is not None:
            self.audit.reconfiguration(
                command.issuer,
                command.target,
                command.kind.value,
                {"cmd_id": command.cmd_id, "detail": detail},
            )
        return outcome

    def apply_all(self, commands: List[ControlMessage]) -> List[CommandOutcome]:
        """Apply a batch, returning per-command outcomes."""
        return [self.apply(c) for c in commands]

    def _refuse(self, command: ControlMessage, reason: str) -> CommandOutcome:
        outcome = CommandOutcome(command, False, reason)
        self.outcomes.append(outcome)
        if self.audit is not None:
            self.audit.append(
                RecordKind.ACCESS_DENIED,
                command.issuer,
                command.target,
                {"command": command.kind.value, "reason": reason},
            )
        return outcome

    def _execute(self, command: ControlMessage, target: Component) -> str:
        args = command.arguments
        kind = command.kind

        if kind == CommandKind.MAP:
            sink = self.bus.component(str(args["sink"]))
            channel = self.bus.connect(
                command.issuer,
                target,
                str(args["source_endpoint"]),
                sink,
                str(args["sink_endpoint"]),
            )
            return f"channel {channel.channel_id} established"

        if kind == CommandKind.UNMAP:
            torn = 0
            sink_name = args.get("sink")
            for channel in self.bus.channels_of(target):
                if sink_name is None or channel.sink.name == sink_name:
                    channel.teardown(f"unmap by {command.issuer}")
                    torn += 1
            return f"{torn} channel(s) unmapped"

        if kind == CommandKind.SET_CONTEXT:
            context = args["context"]
            if not isinstance(context, SecurityContext):
                raise ReconfigurationError("SET_CONTEXT needs a SecurityContext")
            # Executed with the *target's* privileges: "as though the
            # application had initiated them" (§8.1).
            old = target.context
            target.change_context(context)
            if self.audit is not None:
                self.audit.context_change(
                    target.name, old, context, {"by": command.issuer}
                )
            return f"context set to {context}"

        if kind == CommandKind.GRANT_PRIVILEGE:
            privileges = args["privileges"]
            if not isinstance(privileges, PrivilegeSet):
                raise ReconfigurationError("GRANT_PRIVILEGE needs a PrivilegeSet")
            if self.privilege_authority is not None:
                # The issuer must itself hold what it grants; recorded as
                # a delegation for the audit trail.
                self.privilege_authority.delegate(
                    command.issuer, target.name, privileges
                )
            target.privileges = target.privileges.merged(privileges)
            return "privileges granted"

        if kind == CommandKind.DIVERT:
            new_sink = self.bus.component(str(args["new_sink"]))
            new_endpoint = str(args["new_sink_endpoint"])
            diverted = 0
            for channel in self.bus.channels_of(target):
                if channel.source is not target:
                    continue
                old_sink = channel.sink.name
                channel.teardown(f"diverted to {new_sink.name} by {command.issuer}")
                self.bus.connect(
                    command.issuer,
                    target,
                    channel.source_endpoint.name,
                    new_sink,
                    new_endpoint,
                )
                diverted += 1
            return f"{diverted} channel(s) diverted"

        if kind == CommandKind.ISOLATE:
            torn = 0
            for channel in self.bus.channels_of(target):
                channel.teardown(f"isolated by {command.issuer}")
                torn += 1
            return f"isolated; {torn} channel(s) torn down"

        if kind == CommandKind.SHUTDOWN:
            target.running = False
            for channel in self.bus.channels_of(target):
                channel.teardown(f"shutdown by {command.issuer}")
            return "component shut down"

        raise ReconfigurationError(f"unknown command kind {kind}")
