"""Correctness checks on what the program delivered and audited.

The checks are plain functions over what the benchmark observed, so
they can be tested on hand-made inputs (``selftest.py``).  Each returns
a list of failure descriptions, one per failed operation.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Dict, Hashable, Iterable, List, Tuple


def exactly_once(expected: Iterable[Hashable], observed: Iterable[Hashable],
                 what: str) -> List[str]:
    """Every expected item observed exactly once, and nothing else."""
    counts = Counter(observed)
    failures = []
    for item in expected:
        n = counts.pop(item, 0)
        if n != 1:
            failures.append(f"{what} {item!r}: seen {n} times, expected once")
    for item, n in counts.items():
        failures.append(f"{what} {item!r}: seen {n} times, expected never")
    return failures


def counts_match(expected: Dict[Hashable, int], observed: Dict[Hashable, int],
                 what: str) -> List[str]:
    """Per-key counts agree; each unit of difference is one failure."""
    failures = []
    for key in sorted(set(expected) | set(observed), key=repr):
        want, got = expected.get(key, 0), observed.get(key, 0)
        failures.extend(
            f"{what} {key!r}: {got} recorded, expected {want}"
            for _ in range(abs(want - got))
        )
    return failures


def forbidden_deliveries(delivered: int, what: str) -> List[str]:
    """Each delivery of a flow the policy forbids is one failure."""
    return [f"{what}: forbidden message delivered"] * delivered


def audit_outcomes(
    entries: Iterable[Dict], segment: str
) -> Tuple[List[int], Dict[Tuple[str, str], int]]:
    """From exported audit entries of one spine segment: the ``msg_id``
    of every allowed-flow record, and denied-flow counts per
    ``(actor, subject)``."""
    allowed: List[int] = []
    denied: Counter = Counter()
    for entry in entries:
        if entry["segment"] != segment:
            continue
        canonical = entry["record"]
        if '"flow-' not in canonical:
            continue
        record = json.loads(canonical)
        if record["kind"] == "flow-allowed":
            allowed.append(record["detail"]["msg_id"])
        elif record["kind"] == "flow-denied":
            denied[(record["actor"], record["subject"])] += 1
    return allowed, dict(denied)
