"""Compliance checking and report generation.

Fig. 1's feedback loop: audit "verifies & influences" policy, and the
infrastructure must "demonstrate compliance with regulation, and indicate
whether policy correctly captures legal responsibilities".  This module
turns an audit trail into evidence: obligation checkers scan any
:class:`~repro.audit.sink.AuditSink` — a whole
:class:`~repro.audit.spine.AuditSpine` (tiered or not, an
:class:`~repro.audit.spine.AuditLog` included) or a bound emitter — and
produce a structured :class:`ComplianceReport` suitable for a regulator
or DPO.  Checkers pull records through the sink's ``query()`` surface,
so over a tiered spine they ride the per-segment indexes
(``docs/audit_storage.md``) instead of iterating the full chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.audit.provenance import ProvenanceGraph, graph_from_log
from repro.audit.records import RecordKind
from repro.audit.sink import AuditSink
from repro.ifc.tags import Tag, as_tag


@dataclass
class Finding:
    """One compliance finding.

    Attributes:
        obligation: name of the checked obligation.
        satisfied: whether the evidence supports compliance.
        evidence: audit record sequence numbers backing the finding.
        explanation: human-readable account.
    """

    obligation: str
    satisfied: bool
    evidence: List[int] = field(default_factory=list)
    explanation: str = ""


@dataclass
class ComplianceReport:
    """The result of running a set of obligation checks over a log."""

    findings: List[Finding] = field(default_factory=list)
    log_verified: bool = True

    @property
    def compliant(self) -> bool:
        """True when the log verified and every obligation held."""
        return self.log_verified and all(f.satisfied for f in self.findings)

    def failures(self) -> List[Finding]:
        """Findings that did not hold."""
        return [f for f in self.findings if not f.satisfied]

    def summary(self) -> str:
        """Short text summary for operators."""
        ok = sum(1 for f in self.findings if f.satisfied)
        status = "COMPLIANT" if self.compliant else "NON-COMPLIANT"
        lines = [
            f"{status}: {ok}/{len(self.findings)} obligations satisfied; "
            f"log integrity {'verified' if self.log_verified else 'FAILED'}"
        ]
        for f in self.failures():
            lines.append(f"  FAIL {f.obligation}: {f.explanation}")
        return "\n".join(lines)


#: An obligation checker inspects the sink/graph and returns a Finding.
ObligationChecker = Callable[[AuditSink, ProvenanceGraph], Finding]


class ComplianceAuditor:
    """Runs registered obligation checkers over an audit log.

    Built-in checker factories cover the obligations the paper motivates:
    no leaks of tagged data to unauthorised parties, mandatory
    sanitisation before analytics (Fig. 6), denial-rate monitoring (a
    spike indicates mis-set policy, §5.2 "help identify policy errors"),
    and declassifier usage accounting.
    """

    def __init__(self) -> None:
        self._checkers: List[ObligationChecker] = []

    def register(self, checker: ObligationChecker) -> None:
        """Add an obligation checker to the audit battery."""
        self._checkers.append(checker)

    def run(self, log: AuditSink) -> ComplianceReport:
        """Execute all checkers; verifies sink integrity first.

        ``log`` is any :class:`~repro.audit.sink.AuditSink` — for a
        tiered spine, integrity verification spans the hot/cold
        boundary and checkers ride the segment indexes.
        """
        graph = graph_from_log(log)
        report = ComplianceReport(log_verified=log.verify())
        for checker in self._checkers:
            report.findings.append(checker(log, graph))
        return report


# -- built-in obligation checker factories -----------------------------------


def no_flows_to(
    forbidden_sinks: Set[str], data_sources: Set[str], obligation: str
) -> ObligationChecker:
    """Checker: no information from ``data_sources`` ever reached any of
    ``forbidden_sinks`` (directly or transitively).

    This is the geo-fencing / purpose-limitation shape: "personal data
    must not leave the EU" (§9.3 Challenge 1) becomes
    ``no_flows_to(non_eu_nodes, personal_data_nodes, "EU residency")``.
    """

    def check(log: AuditSink, graph: ProvenanceGraph) -> Finding:
        violations: List[int] = []
        reached: List[str] = []
        for source in data_sources:
            tainted = graph.descendants(source)
            for sink in tainted & forbidden_sinks:
                reached.append(f"{source} -> {sink}")
        for record in log.query(kind=RecordKind.FLOW_ALLOWED):
            if record.subject in forbidden_sinks and record.actor in data_sources:
                violations.append(record.seq)
        ok = not reached
        return Finding(
            obligation=obligation,
            satisfied=ok,
            evidence=violations,
            explanation=(
                "no forbidden flows observed"
                if ok
                else "forbidden reachability: " + "; ".join(sorted(reached))
            ),
        )

    return check


def declassification_precedes_flows(
    declassifier: str, sink: str, obligation: str
) -> ObligationChecker:
    """Checker: every flow from ``declassifier`` to ``sink`` happened
    *after* a declassification by the declassifier (Fig. 6: the ward
    manager may only receive data the generator declassified)."""

    def check(log: AuditSink, graph: ProvenanceGraph) -> Finding:
        declass_times = [
            r.timestamp
            for r in log.query(kind=RecordKind.DECLASSIFICATION, actor=declassifier)
        ]
        bad: List[int] = []
        for record in log.query(kind=RecordKind.FLOW_ALLOWED, actor=declassifier):
            if record.subject != sink:
                continue
            if not any(t <= record.timestamp for t in declass_times):
                bad.append(record.seq)
        return Finding(
            obligation=obligation,
            satisfied=not bad,
            evidence=bad,
            explanation=(
                "all releases followed declassification"
                if not bad
                else f"{len(bad)} release(s) without prior declassification"
            ),
        )

    return check


def denial_rate_below(threshold: float, obligation: str) -> ObligationChecker:
    """Checker: fraction of denied flows stays under ``threshold``.

    A high denial rate signals that deployed policy and actual system
    behaviour have diverged — the feedback Fig. 1 routes back to policy
    authors ("indicate whether policy correctly captures legal
    responsibilities")."""

    def check(log: AuditSink, graph: ProvenanceGraph) -> Finding:
        flows = log.query(kind=RecordKind.FLOW_ALLOWED)
        denials = log.query(kind=RecordKind.FLOW_DENIED)
        total = len(flows) + len(denials)
        rate = (len(denials) / total) if total else 0.0
        ok = rate <= threshold
        return Finding(
            obligation=obligation,
            satisfied=ok,
            evidence=[r.seq for r in denials][:20],
            explanation=f"denial rate {rate:.1%} (threshold {threshold:.1%})",
        )

    return check


def all_accesses_consented(
    consent_tag: "Tag | str", obligation: str
) -> ObligationChecker:
    """Checker: every allowed flow whose source carried personal data also
    carried the consent integrity tag (Concern 1: "a sound legal basis
    (often, explicit consent)")."""

    tag = as_tag(consent_tag)

    def check(log: AuditSink, graph: ProvenanceGraph) -> Finding:
        bad: List[int] = []
        for record in log.query(kind=RecordKind.FLOW_ALLOWED):
            src = record.source_context
            if src is None:
                continue
            if src.secrecy.is_empty():
                continue  # not personal/sensitive data
            if tag not in src.integrity:
                bad.append(record.seq)
        return Finding(
            obligation=obligation,
            satisfied=not bad,
            evidence=bad,
            explanation=(
                "all sensitive flows carried consent"
                if not bad
                else f"{len(bad)} sensitive flow(s) without consent tag"
            ),
        )

    return check
