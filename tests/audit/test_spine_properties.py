"""Property: a segmented/deferred spine and the flat synchronous
reference chain fed the same event stream are order-equivalent and
verify-clean under any interleaving of append / drain / verify / prune
operations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import AuditSpine, RecordKind
from repro.audit.log import ReferenceChain
from repro.ifc import SecurityContext
from repro.sim import Simulator

SOURCES = ["bus", "kernel", "substrate", "pep:gate"]
KINDS = [
    RecordKind.FLOW_ALLOWED,
    RecordKind.FLOW_DENIED,
    RecordKind.ACCESS_ALLOWED,
    RecordKind.RECONFIGURATION,
]
CTXS = [
    None,
    SecurityContext.of(["medical"], ["dev"]),
    SecurityContext.of(["medical", "ann"], []),
]

#: One scripted operation against both stores.
ops = st.one_of(
    st.tuples(
        st.just("append"),
        st.integers(0, len(SOURCES) - 1),
        st.integers(0, len(KINDS) - 1),
        st.integers(0, 7),           # actor id
        st.integers(0, len(CTXS) - 1),
    ),
    st.tuples(st.just("drain")),
    st.tuples(st.just("verify")),
    st.tuples(st.just("advance"), st.integers(1, 5)),
    st.tuples(st.just("prune"), st.integers(0, 20)),
)


def view(store):
    return [
        (r.seq, r.timestamp, r.kind, r.actor, r.subject)
        for r in store
    ]


@settings(max_examples=60, deadline=None)
@given(st.lists(ops, min_size=1, max_size=40))
def test_spine_matches_reference_chain_under_interleaving(script):
    sim = Simulator()
    spine = AuditSpine(clock=sim.now, ring_capacity=8, checkpoint_every=2)
    log = ReferenceChain(clock=sim.now)  # flat and synchronous

    for op in script:
        if op[0] == "append":
            __, s, k, a, c = op
            source, kind, actor, ctx = SOURCES[s], KINDS[k], f"actor{a}", CTXS[c]
            spine.emit(source, kind, actor, "subj", {"n": a}, ctx, ctx)
            log.append(kind, actor, "subj", {"n": a}, ctx, ctx)
        elif op[0] == "drain":
            spine.drain()
            log.flush()
        elif op[0] == "verify":
            assert spine.verify()
            assert log.verify()
        elif op[0] == "advance":
            sim.clock.advance(float(op[1]))
        elif op[0] == "prune":
            cutoff = float(op[1])
            spine.prune_before(cutoff)
            log.prune_before(cutoff)

    # Same records, same order, same seq/timestamps — segment sharding
    # and deferred chaining never change the story the audit tells.
    assert view(spine) == view(log)
    assert spine.verify()
    assert log.verify()
    # And the spine's checkpoint head still authenticates after the run.
    assert spine.head_digest
    assert spine.verify()
