"""Legal obligations as policy packs (Fig. 1's top half).

"Law and regulation, reflecting responsibilities and obligations,
together with personal preferences, must be embodied in policy, which
technical mechanisms must enforce system-wide."

A :class:`LegalObligation` describes a legal requirement in prose and
maps it to enforceable artefacts: IFC tags to mint, ECA rules to
install, and compliance checkers to run over audit logs — the
translation step the computational-law community studies (§10.2) made
concrete for the obligations the paper repeatedly invokes:

* **consent** (Concern 1: "a sound legal basis (often, explicit
  consent)");
* **geo-fencing** (Challenge 1: "personal data must not leave the EU");
* **purpose limitation / mandated anonymisation** (Fig. 6);
* **retention limits** (§9.2 Concern 6: constraints change over time);
* **break-glass emergency override** (Concern 6) — an *override* that is
  still fully audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.audit.compliance import (
    Finding,
    ObligationChecker,
    all_accesses_consented,
    declassification_precedes_flows,
    no_flows_to,
)
from repro.audit.provenance import ProvenanceGraph
from repro.audit.records import RecordKind
from repro.audit.sink import AuditSink
from repro.ifc.tags import Tag, as_tag
from repro.policy.rules import Action, Rule

#: A remedial action an obligation knows how to take against a sink:
#: ``remedy(sink, now) -> records affected``.  Registered remedies are
#: applied by :meth:`ObligationRegister.apply_remedies`.
ObligationRemedy = Callable[[AuditSink, float], int]


def enforce_retention(
    sink: AuditSink,
    max_age_seconds: float,
    now: float,
    destroy: bool = False,
) -> int:
    """Apply a retention limit to an audit sink.

    The default action is **demote-to-cold**: records older than the
    limit move to the sink's spill tier
    (:meth:`~repro.audit.spine.AuditSpine.demote_before`) — still
    chained, verifiable and queryable, just out of hot memory.  Legal
    retention no longer fights auditability.  Only with an explicit
    ``destroy=True`` does this fall back to the destructive
    :meth:`prune_before` (which rebases the chain and discards bytes).

    Returns the number of records demoted (or pruned).  A sink with no
    cold tier configured demotes nothing — configure one
    (:meth:`~repro.audit.spine.AuditSpine.configure_spill`) or opt into
    ``destroy=True``.
    """
    cutoff = now - max_age_seconds
    if destroy:
        return sink.prune_before(cutoff)
    return sink.demote_before(cutoff)


@dataclass
class LegalObligation:
    """One legal requirement and its technical embodiment.

    Attributes:
        obligation_id: stable identifier (e.g. ``"dp-consent"``).
        title: short name.
        regulation: the legal source (statute/regulation/contract).
        description: the requirement in prose, for the policy register.
        required_tags: tags the deployment must define.
        rules: ECA rules to install in a policy engine.
        checkers: compliance checkers for the auditor.
        remedies: remedial actions (``remedy(sink, now) -> count``) the
            obligation can apply to bring a sink back into compliance —
            e.g. retention's demote-to-cold.
        forbidden_flows: structured ``(source, sink)`` pairs the
            obligation forbids — what the checkers verify after the
            fact, exposed as data so the static analysis gate
            (``repro.analysis``) can derive Forbid assertions and catch
            the flow *before* deployment.
    """

    obligation_id: str
    title: str
    regulation: str
    description: str
    required_tags: List[Tag] = field(default_factory=list)
    rules: List[Rule] = field(default_factory=list)
    checkers: List[ObligationChecker] = field(default_factory=list)
    remedies: List[ObligationRemedy] = field(default_factory=list)
    forbidden_flows: List[Tuple[str, str]] = field(default_factory=list)


class ObligationRegister:
    """The deployment's register of legal obligations.

    Fig. 1 requires policy to be "continually aligned with evolving law
    and regulation": obligations are versioned by replacement —
    re-registering an id supersedes the old entry, which is retained in
    the history for the audit trail.
    """

    def __init__(self) -> None:
        self._current: Dict[str, LegalObligation] = {}
        self._history: List[LegalObligation] = []

    def register(self, obligation: LegalObligation) -> None:
        """Add or supersede an obligation."""
        old = self._current.get(obligation.obligation_id)
        if old is not None:
            self._history.append(old)
        self._current[obligation.obligation_id] = obligation

    def current(self) -> List[LegalObligation]:
        """All obligations now in force."""
        return sorted(self._current.values(), key=lambda o: o.obligation_id)

    def history_of(self, obligation_id: str) -> List[LegalObligation]:
        """Superseded versions of one obligation."""
        return [o for o in self._history if o.obligation_id == obligation_id]

    def all_checkers(self) -> List[ObligationChecker]:
        """Every checker from every in-force obligation."""
        result: List[ObligationChecker] = []
        for obligation in self.current():
            result.extend(obligation.checkers)
        return result

    def all_rules(self) -> List[Rule]:
        """Every rule from every in-force obligation."""
        result: List[Rule] = []
        for obligation in self.current():
            result.extend(obligation.rules)
        return result

    def apply_remedies(self, sink: AuditSink, now: float) -> int:
        """Run every in-force obligation's remedies against ``sink``.

        The operational half of the compliance loop: checkers *find*
        violations, remedies *fix* the ones that are mechanical (e.g.
        retention demotes overage to the cold tier).  Returns the total
        number of records affected.
        """
        affected = 0
        for obligation in self.current():
            for remedy in obligation.remedies:
                affected += remedy(sink, now)
        return affected


# -- obligation template factories ------------------------------------------------


def consent_obligation(
    consent_tag: "Tag | str" = "consent",
    regulation: str = "Data Protection (consent basis)",
) -> LegalObligation:
    """Personal data may only flow with a consent integrity tag."""
    tag = as_tag(consent_tag)
    return LegalObligation(
        obligation_id="dp-consent",
        title="Explicit consent for personal data",
        regulation=regulation,
        description=(
            "Collection, maintenance and use of information identifiable "
            "to an individual requires a sound legal basis, often "
            "explicit consent (paper Concern 1).  Enforced by requiring "
            f"the integrity tag {tag.qualified} on all sensitive flows."
        ),
        required_tags=[tag],
        checkers=[
            all_accesses_consented(tag, "explicit consent on sensitive flows")
        ],
    )


def geo_fence_obligation(
    data_sources: Set[str],
    forbidden_sinks: Set[str],
    region: str = "EU",
    regulation: str = "Data residency regulation",
) -> LegalObligation:
    """Named data sources must never reach out-of-region sinks."""
    return LegalObligation(
        obligation_id=f"geo-{region.lower()}",
        title=f"{region} data residency",
        regulation=regulation,
        description=(
            f"Personal data must not leave the {region} (paper Challenge "
            "1 example).  Checked by taint reachability from the data "
            "sources to any out-of-region component."
        ),
        checkers=[
            no_flows_to(
                forbidden_sinks, data_sources, f"{region} residency"
            )
        ],
        forbidden_flows=[
            (src, sink)
            for src in sorted(data_sources)
            for sink in sorted(forbidden_sinks)
        ],
    )


def anonymisation_obligation(
    declassifier: str,
    sink: str,
    regulation: str = "Statistical-use permission",
) -> LegalObligation:
    """Data may only reach ``sink`` after declassification (Fig. 6)."""
    return LegalObligation(
        obligation_id=f"anon-{declassifier}-{sink}",
        title="Mandatory anonymisation before statistical use",
        regulation=regulation,
        description=(
            "Regulation and policy dictate that statistical use must "
            "entail anonymisation according to an approved algorithm "
            f"(Fig. 6): {declassifier} must declassify before any flow "
            f"to {sink}."
        ),
        checkers=[
            declassification_precedes_flows(
                declassifier, sink, "anonymise before statistical release"
            )
        ],
    )


def retention_obligation(
    max_age_seconds: float,
    regulation: str = "Data retention limitation",
    destroy: bool = False,
) -> LegalObligation:
    """Audit-visible data must not stay *hot* beyond ``max_age_seconds``.

    Over a tiered sink (an :class:`~repro.audit.spine.AuditSpine` with
    a spill tier configured) the checker bounds the **hot** tier's time
    span — cold, demoted records satisfy the retention limit while
    remaining chained, verifiable and queryable, so legal retention no
    longer fights auditability.  Over an untiered sink (no spill
    configured) the whole retained span is bounded, operationally
    paired with :func:`enforce_retention` runs — which the obligation
    also carries as a remedy: demote-to-cold by default, destructive
    :meth:`prune_before` only with the explicit ``destroy=True``
    opt-in.
    """

    def check(log: AuditSink, graph: ProvenanceGraph) -> Finding:
        stats = log.tier_stats()
        if stats["spill_dir"]:
            # Tiered sink: only the hot tier is held to the limit.
            oldest, newest = stats["hot_time_min"], stats["hot_time_max"]
            if oldest is None:
                return Finding(
                    "retention limit", True, [], "no hot records retained"
                )
            age = newest - oldest
            ok = age <= max_age_seconds
            return Finding(
                obligation="retention limit",
                satisfied=ok,
                evidence=[],
                explanation=(
                    f"hot span {age:.0f}s within {max_age_seconds:.0f}s "
                    f"({stats['cold_records']} records archived cold)"
                    if ok
                    else f"hot records span {age:.0f}s, exceeding "
                    f"{max_age_seconds:.0f}s — demote to cold required"
                ),
            )
        records = list(log)
        if not records:
            return Finding("retention limit", True, [], "no records retained")
        newest = max(r.timestamp for r in records)
        oldest = min(r.timestamp for r in records)
        age = newest - oldest
        ok = age <= max_age_seconds
        return Finding(
            obligation="retention limit",
            satisfied=ok,
            evidence=[records[0].seq] if not ok else [],
            explanation=(
                f"retained span {age:.0f}s within {max_age_seconds:.0f}s"
                if ok
                else f"records span {age:.0f}s, exceeding "
                f"{max_age_seconds:.0f}s — prune required"
            ),
        )

    def remedy(sink: AuditSink, now: float) -> int:
        return enforce_retention(sink, max_age_seconds, now, destroy=destroy)

    return LegalObligation(
        obligation_id="retention",
        title="Retention limitation",
        regulation=regulation,
        description=(
            "Constraints on data change over time (paper Concern 6 / "
            "§9.2): records older than "
            f"{max_age_seconds:.0f} simulated seconds must leave the hot "
            "tier — demoted to cold spill storage by default, "
            "destructively pruned only on explicit destroy=True opt-in."
        ),
        checkers=[check],
        remedies=[remedy],
    )


def break_glass_obligation(
    emergency_rules: List[Rule],
    regulation: str = "Duty of care / emergency response",
) -> LegalObligation:
    """Emergency override ('break-glass', Concern 6) with mandatory audit.

    The rules are supplied by the deployment (they are scenario-
    specific, cf. Fig. 7); the obligation contributes the checker that
    every emergency reconfiguration was audit-logged with a triggering
    policy firing — an override that leaves no trace is a compliance
    failure, not a feature.
    """

    def check(log: AuditSink, graph: ProvenanceGraph) -> Finding:
        reconfigs = log.records(kind=RecordKind.RECONFIGURATION)
        firings = log.records(kind=RecordKind.POLICY_FIRED)
        fired_times = [r.timestamp for r in firings]
        orphans = [
            r.seq
            for r in reconfigs
            if not any(t <= r.timestamp for t in fired_times)
            and r.detail.get("command") != "map"  # initial wiring is exempt
        ]
        return Finding(
            obligation="break-glass accountability",
            satisfied=not orphans,
            evidence=orphans,
            explanation=(
                "all emergency reconfigurations trace to policy firings"
                if not orphans
                else f"{len(orphans)} reconfiguration(s) with no "
                "triggering policy firing"
            ),
        )

    return LegalObligation(
        obligation_id="break-glass",
        title="Accountable emergency override",
        regulation=regulation,
        description=(
            "In an emergency, break-glass policy overrides normal "
            "security constraints (paper Concern 6) — but every override "
            "must be attributable to a policy firing in the audit log."
        ),
        rules=list(emergency_rules),
        checkers=[check],
    )
