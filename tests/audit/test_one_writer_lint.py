"""One audit writer: the flat reference chain stays out of the library,
and the spine's consumers call the spine API directly.

``repro/audit/log.py`` keeps :class:`~repro.audit.log.ReferenceChain`
as the flat synchronous chain tests and benchmarks measure the spine
against.  An AST walk of ``src/repro`` fails if any other module imports
or constructs it, or if a spine consumer regrows a capability probe
(``getattr(<sink>, ...)`` / ``hasattr(<sink>, ...)``) or an ``except
TypeError`` signature fallback — the glue a second writer would need.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent.parent / "src"
REPRO = SRC / "repro"
REFERENCE_HOME = REPRO / "audit" / "log.py"

#: Modules that consume audit sinks and must call the spine API directly.
CONSUMERS = [
    REPRO / "audit" / "distributed.py",
    REPRO / "audit" / "query.py",
    REPRO / "audit" / "compliance.py",
    REPRO / "policy" / "legal.py",
    REPRO / "deploy" / "builder.py",
]

#: Trailing identifiers that name an audit sink (``sink``, ``self.sink``,
#: ``machine.audit``, ``log``, ``spine``).
SINK_NAMES = {"sink", "log", "spine", "audit"}


def reference_uses(tree):
    """Lines that import or touch ``ReferenceChain``."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "ReferenceChain" for alias in node.names):
                hits.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "ReferenceChain":
            hits.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "ReferenceChain":
            hits.append(node.lineno)
    return hits


def _trailing_name(expr):
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _catches_type_error(handler):
    caught = handler.type
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(_trailing_name(name) == "TypeError" for name in names)


def sink_probes(tree):
    """Lines holding a sink capability probe or a TypeError fallback."""
    hits = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and _trailing_name(node.func) in ("getattr", "hasattr")
            and node.args
            and _trailing_name(node.args[0]) in SINK_NAMES
        ):
            hits.append(node.lineno)
        elif (
            isinstance(node, ast.ExceptHandler)
            and node.type is not None
            and _catches_type_error(node)
        ):
            hits.append(node.lineno)
    return hits


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_reference_chain_stays_out_of_the_library():
    offenders = []
    for path in sorted(REPRO.rglob("*.py")):
        if path == REFERENCE_HOME:
            continue
        for lineno in reference_uses(_parse(path)):
            offenders.append(f"{path.relative_to(SRC)}:{lineno}")
    assert not offenders, (
        "ReferenceChain is a test/bench reference; library code writes "
        "through AuditSpine / AuditLog:\n" + "\n".join(offenders)
    )


def test_sink_consumers_call_the_spine_api_directly():
    offenders = []
    for path in CONSUMERS:
        for lineno in sink_probes(_parse(path)):
            offenders.append(f"{path.relative_to(SRC)}:{lineno}")
    assert not offenders, (
        "capability probe or TypeError fallback on an audit sink:\n"
        + "\n".join(offenders)
    )


def test_the_lint_actually_bites():
    assert reference_uses(ast.parse("from repro.audit.log import ReferenceChain"))
    assert reference_uses(ast.parse("chain = log_module.ReferenceChain()"))
    assert not reference_uses(ast.parse("chain = AuditLog()"))
    probes = ast.parse(
        "fn = getattr(log, 'tier_stats', None)\n"
        "ok = hasattr(self.sink, 'query')\n"
        "try:\n    x()\nexcept (ValueError, TypeError):\n    pass\n"
    )
    assert sink_probes(probes) == [1, 2, 5]
    clean = ast.parse(
        "name = getattr(tag, 'qualified', tag)\n"
        "try:\n    x()\nexcept ValueError:\n    pass\n"
    )
    assert not sink_probes(clean)
