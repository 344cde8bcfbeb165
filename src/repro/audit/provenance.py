"""Provenance graphs built from IFC audit logs (Fig. 11).

§8.3: "as both provenance and IFC concern the flow of information
between entities, the logs generated during IFC enforcement are a
natural source of provenance information."  Fig. 11 shows the graph
model: data items (F), processes (P) and agents (A), with
``Information Flow`` and ``Controlled by`` edges.

We build the graph on ``networkx`` (substituting for the paper's Neo4J)
and provide the forensic queries the paper motivates: ancestry
("how was this file generated?"), descendants/taint ("where did Ann's
reading end up?"), and leak investigation ("check for all flows relating
to that data", Fig. 6 discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx

from repro.audit.sink import AuditSink
from repro.audit.records import AuditRecord, RecordKind


class NodeKind(str, Enum):
    """Fig. 11's node categories."""

    DATA = "data"         # F nodes
    PROCESS = "process"   # P nodes
    AGENT = "agent"       # A nodes


class EdgeKind(str, Enum):
    """Fig. 11's edge categories."""

    FLOW = "information-flow"
    CONTROL = "controlled-by"
    DERIVED = "derived-from"


@dataclass
class ProvenanceQueryResult:
    """Result of a forensic query: matched node ids plus the paths."""

    nodes: Set[str]
    paths: List[List[str]]


class ProvenanceGraph:
    """A directed provenance graph in the style of Fig. 11.

    Nodes carry ``kind`` (:class:`NodeKind`) and optional metadata;
    edges carry ``kind`` (:class:`EdgeKind`) and the timestamp of the
    underlying audit record.  Edges point in the direction information
    moved (source → target).
    """

    def __init__(self) -> None:
        self.graph = nx.MultiDiGraph()

    # -- construction -------------------------------------------------------

    def add_data(self, node_id: str, **meta) -> None:
        """Add a data item (F) node."""
        self.graph.add_node(node_id, kind=NodeKind.DATA, **meta)

    def add_process(self, node_id: str, **meta) -> None:
        """Add a process (P) node."""
        self.graph.add_node(node_id, kind=NodeKind.PROCESS, **meta)

    def add_agent(self, node_id: str, **meta) -> None:
        """Add an agent (A) node — the owner/manager of processes."""
        self.graph.add_node(node_id, kind=NodeKind.AGENT, **meta)

    def add_flow(self, source: str, target: str, timestamp: float = 0.0, **meta) -> None:
        """Record that information flowed source → target."""
        self._ensure(source)
        self._ensure(target)
        self.graph.add_edge(
            source, target, kind=EdgeKind.FLOW, timestamp=timestamp, **meta
        )

    def add_control(self, controller: str, controlled: str) -> None:
        """Record that an agent controls a process (Fig. 11 dashed edges)."""
        self._ensure(controller, NodeKind.AGENT)
        self._ensure(controlled)
        self.graph.add_edge(controller, controlled, kind=EdgeKind.CONTROL)

    def add_derivation(self, source: str, derived: str, timestamp: float = 0.0) -> None:
        """Record that one data item was derived from another."""
        self._ensure(source, NodeKind.DATA)
        self._ensure(derived, NodeKind.DATA)
        self.graph.add_edge(
            source, derived, kind=EdgeKind.DERIVED, timestamp=timestamp
        )

    def _ensure(self, node_id: str, kind: NodeKind = NodeKind.PROCESS) -> None:
        if node_id not in self.graph:
            self.graph.add_node(node_id, kind=kind)

    # -- queries -------------------------------------------------------------

    def _flow_subgraph(self) -> nx.MultiDiGraph:
        keep = [
            (u, v, k)
            for u, v, k, d in self.graph.edges(keys=True, data=True)
            if d.get("kind") in (EdgeKind.FLOW, EdgeKind.DERIVED)
        ]
        return self.graph.edge_subgraph(keep) if keep else nx.MultiDiGraph()

    def ancestry(self, node_id: str) -> Set[str]:
        """Everything that (transitively) contributed to ``node_id`` —
        "how was it created? by whom? how was it manipulated?" (§8.3)."""
        sub = self._flow_subgraph()
        if node_id not in sub:
            return set()
        return nx.ancestors(sub, node_id)

    def descendants(self, node_id: str) -> Set[str]:
        """Everything information from ``node_id`` may have reached —
        the taint set used in leak investigations."""
        sub = self._flow_subgraph()
        if node_id not in sub:
            return set()
        return nx.descendants(sub, node_id)

    def paths_between(
        self, source: str, target: str, max_paths: int = 100
    ) -> List[List[str]]:
        """All simple information-flow paths source → target."""
        sub = self._flow_subgraph()
        if source not in sub or target not in sub:
            return []
        simple = nx.DiGraph(
            (u, v) for u, v, d in sub.edges(data=True)
        )
        paths = []
        for path in nx.all_simple_paths(simple, source, target):
            paths.append(path)
            if len(paths) >= max_paths:
                break
        return paths

    def investigate_leak(self, data_node: str, unauthorised: Set[str]) -> ProvenanceQueryResult:
        """If personal data leaked (Fig. 6 discussion), find every path by
        which ``data_node`` could have reached an unauthorised party."""
        tainted = self.descendants(data_node)
        reached = tainted & unauthorised
        paths: List[List[str]] = []
        for sink in sorted(reached):
            paths.extend(self.paths_between(data_node, sink))
        return ProvenanceQueryResult(reached, paths)

    def controllers_of(self, node_id: str) -> Set[str]:
        """Agents controlling a node — liability apportionment support."""
        return {
            u
            for u, v, d in self.graph.in_edges(node_id, data=True)
            if d.get("kind") == EdgeKind.CONTROL
        }

    def node_kind(self, node_id: str) -> Optional[NodeKind]:
        """The kind of a node, or None if unknown."""
        if node_id not in self.graph:
            return None
        return self.graph.nodes[node_id].get("kind")

    def stats(self) -> Dict[str, int]:
        """Basic size statistics (for reports and benches)."""
        kinds = {k.value: 0 for k in NodeKind}
        for __, data in self.graph.nodes(data=True):
            kind = data.get("kind")
            if kind:
                kinds[kind.value] += 1
        return {
            "nodes": self.graph.number_of_nodes(),
            "edges": self.graph.number_of_edges(),
            **kinds,
        }


def graph_from_log(log: AuditSink) -> ProvenanceGraph:
    """Build a provenance graph from an IFC audit log (§8.3).

    Allowed flows become FLOW edges; declassification/endorsement become
    a process node annotation plus a derivation edge when the record
    names a subject.  Denied flows are *not* edges (no information moved)
    but are attached as node annotations so investigators see attempts.
    """
    graph = ProvenanceGraph()
    for record in log:
        if record.kind == RecordKind.FLOW_ALLOWED:
            graph.add_flow(
                record.actor,
                record.subject,
                timestamp=record.timestamp,
                detail=dict(record.detail),
            )
        elif record.kind in (
            RecordKind.DECLASSIFICATION,
            RecordKind.ENDORSEMENT,
            RecordKind.CONTEXT_CHANGE,
        ):
            graph._ensure(record.actor)
            changes = graph.graph.nodes[record.actor].setdefault("context_changes", [])
            changes.append((record.timestamp, record.kind.value))
        elif record.kind == RecordKind.FLOW_DENIED:
            graph._ensure(record.actor)
            denials = graph.graph.nodes[record.actor].setdefault("denied_attempts", [])
            denials.append((record.timestamp, record.subject))
        elif record.kind == RecordKind.ENTITY_CREATED:
            graph._ensure(record.actor)
            if record.subject:
                graph.add_flow(record.actor, record.subject,
                               timestamp=record.timestamp, created=True)
    return graph
