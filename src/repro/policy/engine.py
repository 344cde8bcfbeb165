"""The policy engine (§8.1, Fig. 7).

"We envisage policy engines, entities that encapsulate a range of
related policies, monitor environments and use the MW's remote-
reconfiguration functionality to issue instructions to components,
when/where necessary, to ensure system behaviour remains appropriate
over time."

:class:`PolicyEngine` consumes :class:`~repro.policy.rules.Event`
streams, matches ECA rules against event + context, resolves conflicts
among the proposed reconfigurations (Challenge 4), applies survivors via
a :class:`~repro.middleware.reconfig.Reconfigurator`, and audits every
firing and every suppressed conflict — the paper's Fig. 1 loop, closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.audit.sink import AuditSink
from repro.audit.records import RecordKind
from repro.audit.spine import bind_source
from repro.errors import AuthorityError, PolicyError
from repro.middleware.reconfig import CommandOutcome, ControlMessage, Reconfigurator
from repro.policy.authority import AuthorityModel
from repro.policy.conflict import (
    Proposal,
    ResolutionResult,
    ResolutionStrategy,
    resolve,
)
from repro.policy.context import ContextStore
from repro.policy.rules import (
    Action,
    CommandAction,
    ContextAction,
    Event,
    NotifyAction,
    Rule,
    evaluation_scope,
)

#: Notification sink: (channel, message text).
Notifier = Callable[[str, str], None]


@dataclass
class FiringReport:
    """What one event caused."""

    event: Event
    fired_rules: List[str] = field(default_factory=list)
    outcomes: List[CommandOutcome] = field(default_factory=list)
    notifications: List[tuple] = field(default_factory=list)
    resolution: Optional[ResolutionResult] = None


class PolicyEngine:
    """An application-aware policy engine driving the middleware.

    Attributes:
        name: the engine's principal name — it must be an authorised
            controller of any component it reconfigures, and rules are
            authority-checked against their author on installation.
        reconfigurator: executes accepted commands.
        context: ambient context store; conditions close over it.
        strategy: conflict-resolution strategy.
    """

    def __init__(
        self,
        name: str,
        reconfigurator: Reconfigurator,
        context: Optional[ContextStore] = None,
        audit: Optional[AuditSink] = None,
        strategy: ResolutionStrategy = ResolutionStrategy.PRIORITY,
        authority: Optional[AuthorityModel] = None,
    ):
        self.name = name
        self.reconfigurator = reconfigurator
        # Note: ContextStore is a Mapping, so an *empty* store is falsy —
        # an identity check is required here, not ``or``.
        self.context = context if context is not None else ContextStore()
        # Rule firings and conflicts stage under a per-engine spine
        # segment when the engine shares a machine's audit spine.
        self.audit = bind_source(audit, f"policy:{name}")
        self.strategy = strategy
        self.authority = authority
        self.rules: List[Rule] = []
        self._notifiers: List[Notifier] = []
        self.reports: List[FiringReport] = []

    # -- rule management -----------------------------------------------------------

    def add_rule(self, rule: Rule) -> Rule:
        """Install a rule, authority-checking its author.

        Raises:
            PolicyError: duplicate rule name.
            AuthorityError: the author may not target the components the
                rule's static commands address (Challenge 4).
        """
        if any(r.name == rule.name for r in self.rules):
            raise PolicyError(f"duplicate rule name {rule.name!r}")
        if self.authority is not None and rule.author:
            for action in rule.actions:
                if isinstance(action, CommandAction) and action.command is not None:
                    target = action.command.target
                    if not self.authority.may_author_policy(
                        rule.author, target, self.context
                    ):
                        raise AuthorityError(
                            f"{rule.author} has no authority over {target}"
                        )
        self.rules.append(rule)
        return rule

    def remove_rule(self, name: str) -> bool:
        """Uninstall a rule by name; returns whether it existed."""
        before = len(self.rules)
        self.rules = [r for r in self.rules if r.name != name]
        return len(self.rules) != before

    def enable_rule(self, name: str, enabled: bool = True) -> None:
        """Toggle a rule at runtime."""
        for rule in self.rules:
            if rule.name == name:
                rule.enabled = enabled
                return
        raise PolicyError(f"no rule named {name!r}")

    def add_notifier(self, notifier: Notifier) -> None:
        """Register a notification sink (alert channel)."""
        self._notifiers.append(notifier)

    # -- event handling -------------------------------------------------------------

    def handle_event(self, event: Event) -> FiringReport:
        """Match, resolve, execute, audit — the engine's main loop body."""
        report = FiringReport(event)
        scope = evaluation_scope(event, self.context.view())

        fired: List[Rule] = []
        proposals: List[Proposal] = []
        deferred: List[tuple] = []  # (rule, non-command action)
        for rule in self.rules:
            try:
                matched = rule.matches(event, scope)
            except PolicyError as exc:
                # A broken condition must not take the engine down; the
                # error itself is compliance-relevant and is audited.
                if self.audit is not None:
                    self.audit.append(
                        RecordKind.POLICY_FIRED,
                        self.name,
                        rule.name,
                        {"error": str(exc)},
                    )
                continue
            if not matched:
                continue
            fired.append(rule)
            rule.fired_count += 1
            for action in rule.actions:
                if isinstance(action, CommandAction):
                    proposals.append(Proposal(rule, action.build(event, scope)))
                else:
                    deferred.append((rule, action))

        report.fired_rules = [r.name for r in fired]
        if self.audit is not None:
            for rule in fired:
                self.audit.append(
                    RecordKind.POLICY_FIRED,
                    self.name,
                    rule.name,
                    {"event": event.type, "event_id": event.event_id},
                )

        # Conflict resolution over command proposals (Challenge 4).
        resolution = resolve(proposals, self.strategy)
        report.resolution = resolution
        if self.audit is not None:
            for proposal, conflict in resolution.rejected:
                self.audit.append(
                    RecordKind.POLICY_CONFLICT,
                    self.name,
                    proposal.rule.name,
                    {
                        "suppressed_command": proposal.command.kind.value,
                        "conflict": conflict.describe(),
                        "strategy": self.strategy.value,
                    },
                )

        for proposal in resolution.accepted:
            outcome = self.reconfigurator.apply(proposal.command)
            report.outcomes.append(outcome)

        for rule, action in deferred:
            if isinstance(action, ContextAction):
                self.context.set(
                    action.key, action.compute(event, scope), by=rule.name
                )
            elif isinstance(action, NotifyAction):
                text = action.render(event, scope)
                report.notifications.append((action.channel, text))
                for notifier in self._notifiers:
                    notifier(action.channel, text)

        self.reports.append(report)
        return report

    def handle_events(self, events: List[Event]) -> List[FiringReport]:
        """Process a batch of events in order."""
        return [self.handle_event(e) for e in events]
