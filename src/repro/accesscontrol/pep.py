"""Policy Enforcement Points combining AC and IFC.

§4 introduces PEPs and their limitation: "ACs are applied at specific
Policy Enforcement Points ... there is generally no subsequent control
over data flows beyond the point of enforcement."  §8.2.2 describes the
remedy used throughout this library: "augmenting the standard MW AC
(principal and contextual policy) enforcement with a subsequent
evaluation of IFC policy".

:class:`EnforcementPoint` runs that two-stage check and writes both
outcomes to the audit log.  :class:`EnforcementMode` lets benchmarks run
the same workload under ``AC_ONLY`` (the paper's baseline — what today's
systems do) versus ``AC_AND_IFC`` (the paper's proposal), which is how
EXPERIMENTS.md demonstrates the central claim that AC alone misses
downstream leaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Optional, Set

from repro.accesscontrol.rbac import RBACPolicy, Role, Session
from repro.audit.sink import AuditSink
from repro.audit.records import RecordKind
from repro.audit.spine import bind_source
from repro.errors import AccessDenied, FlowError
from repro.ifc.decisions import DecisionPlane
from repro.ifc.labels import SecurityContext


class EnforcementMode(str, Enum):
    """Which stages an enforcement point runs."""

    AC_ONLY = "ac-only"        # the paper's §4 baseline
    IFC_ONLY = "ifc-only"      # pure data-centric control
    AC_AND_IFC = "ac-and-ifc"  # the paper's proposal (§8.2.2)


@dataclass
class CheckResult:
    """Outcome of one enforcement decision at a PEP."""

    allowed: bool
    ac_passed: bool
    ifc_passed: bool
    reason: str = ""


class EnforcementPoint:
    """A PEP guarding one interaction point (endpoint, table, file, ...).

    The check sequence mirrors §8.2.2: principal/contextual AC first,
    then IFC over the security contexts of the communicating parties.
    Every decision — allow or deny — is appended to the audit log
    (Concern 3: "record and audit the flow of data").
    """

    def __init__(
        self,
        name: str,
        mode: EnforcementMode = EnforcementMode.AC_AND_IFC,
        audit: Optional[AuditSink] = None,
        plane: Optional[DecisionPlane] = None,
    ):
        self.name = name
        self.mode = mode
        # Per-PEP spine segment: AC and IFC outcomes stage off the
        # enforcement path when the PEP runs on an audit spine.
        self.audit = bind_source(audit, f"pep:{name}")
        self.plane = plane or DecisionPlane(audit=self.audit)
        self.checks = 0
        self.denials = 0

    def _audit_access(self, allowed: bool, actor: str, resource: str, reason: str) -> None:
        if self.audit is None:
            return
        kind = RecordKind.ACCESS_ALLOWED if allowed else RecordKind.ACCESS_DENIED
        self.audit.append(kind, actor, resource, {"pep": self.name, "reason": reason})

    def _audit_flow(
        self,
        allowed: bool,
        actor: str,
        subject: str,
        source: Optional[SecurityContext],
        target: Optional[SecurityContext],
        reason: str,
    ) -> None:
        if allowed:
            self.plane.audit_allowed(actor, subject, source, target, {"pep": self.name})
        else:
            self.plane.audit_denied(actor, subject, reason, source, target)

    def check(
        self,
        session: Optional[Session],
        action: str,
        resource: str,
        source_context: Optional[SecurityContext] = None,
        target_context: Optional[SecurityContext] = None,
    ) -> CheckResult:
        """Run the configured enforcement stages.

        ``session`` may be None when the mode skips AC (IFC_ONLY).
        Contexts may be None when the mode skips IFC (AC_ONLY).

        Returns a :class:`CheckResult`; use :meth:`enforce` for the
        raising form.
        """
        self.checks += 1
        ac_passed = True
        ifc_passed = True
        reason = ""

        if self.mode in (EnforcementMode.AC_ONLY, EnforcementMode.AC_AND_IFC):
            if session is None:
                ac_passed = False
                reason = "no session presented"
            elif not session.is_authorised(action, resource):
                ac_passed = False
                reason = f"{session.principal} not authorised to {action} {resource}"
            actor = session.principal if session else "<anonymous>"
            self._audit_access(ac_passed, actor, resource, reason or "authorised")
            if not ac_passed:
                self.denials += 1
                return CheckResult(False, False, True, reason)

        if self.mode in (EnforcementMode.IFC_ONLY, EnforcementMode.AC_AND_IFC):
            if source_context is not None and target_context is not None:
                decision = self.plane.evaluate(source_context, target_context)
                ifc_passed = decision.allowed
                reason = decision.reason
                actor = session.principal if session else "<anonymous>"
                self._audit_flow(
                    ifc_passed, actor, resource, source_context, target_context, reason
                )
                if not ifc_passed:
                    self.denials += 1
                    return CheckResult(False, ac_passed, False, reason)

        return CheckResult(True, ac_passed, ifc_passed, "allowed")

    def enforce(
        self,
        session: Optional[Session],
        action: str,
        resource: str,
        source_context: Optional[SecurityContext] = None,
        target_context: Optional[SecurityContext] = None,
    ) -> CheckResult:
        """Like :meth:`check` but raising on denial.

        Raises:
            AccessDenied: when the AC stage refuses.
            FlowError: when the IFC stage refuses.
        """
        result = self.check(session, action, resource, source_context, target_context)
        if result.allowed:
            return result
        if not result.ac_passed:
            raise AccessDenied(result.reason)
        raise FlowError("source", resource, result.reason)
