"""The decision plane: one shared, memoizing IFC decision core.

Every enforcement point in the system — channel establishment and
per-message re-checks on the bus, the cross-machine substrate's send and
receive sides, the AC+IFC PEP, the simulated kernel's LSM hooks, and the
labelled datastore — enforces the same §6 rule::

    A -> B  iff  S(A) ⊆ S(B)  ∧  I(B) ⊆ I(A)

The overhead benchmarks (F9/F10, scale-flowcheck) show this check plus
per-record audit emission dominating the hot path, and most workloads
evaluate the *same pair of contexts* over and over (a sensor publishing
to the same analysers, a process writing the same file).  Rather than
each enforcement site calling :func:`~repro.ifc.flow.flow_decision` ad
hoc, they all route through a :class:`DecisionPlane` that owns:

* **evaluation** — memoized in a :class:`DecisionCache` keyed on the
  *label values* of the two contexts (their interned bitset masks);
* **audit emission** — the plane forwards flow outcomes to its audit
  sink, so staged/batched audit policy lives in one place.

Cache-invalidation rule
-----------------------
The cache is value-keyed: the key of ``(src, dst)`` is the 4-tuple of
the contexts' secrecy/integrity bitsets.  Because
:class:`~repro.ifc.labels.SecurityContext` is immutable, a
declassification or endorsement necessarily produces a *new* context
whose masks differ, hence a different key — a stale grant can never be
served after a label change.  Explicit :meth:`DecisionPlane.invalidate`
exists to bound memory (and for belt-and-braces after bulk policy
changes, e.g. privilege grants/revocations fanned out by the
:class:`DecisionPlaneRouter`), not for correctness.

Sharding (multi-worker machines)
--------------------------------
A :class:`DecisionShard` is one machine's (or worker's) slice of the
decision plane: its own :class:`DecisionCache` plus the
:class:`~repro.ifc.interner.TagInterner` its masks are numbered in.
Shards live behind a :class:`DecisionPlaneRouter`; the enforcement
sites of one machine (kernel LSM, substrate, bus workers) share that
machine's shard, and *cross*-shard evaluations remap masks through the
wire plane's :class:`~repro.ifc.wire.MaskTranslator` vocabulary — the
same append-only table exchange substrates use on the wire — instead of
reaching into any process-global interner (see ``docs/decision_plane.md``
and ``docs/audit_plane.md``).

Concurrency (``docs/worker_plane.md``)
--------------------------------------
Since real thread-backed workers (``repro.sim.executor``) share one
machine shard, the cache follows a snapshot + epoch protocol:

* **reads are lock-free** — the hit path probes two atomically-swapped
  maps (an immutable snapshot plus a small copy-on-write delta overlay)
  and never takes the lock;
* **misses publish under a lock** — new entries land in the delta
  overlay, which is periodically folded into a *fresh* snapshot map
  that replaces the old one wholesale (readers keep whatever map
  reference they already loaded);
* **invalidation is epoch-based** — :meth:`DecisionCache.clear` bumps
  the cache epoch and swaps in empty maps.  A worker whose miss was in
  flight across a :meth:`Machine.grant <repro.cloud.machine.Machine>`
  fan-out invalidation fails the epoch check at publish time and its
  (potentially stale) verdict is discarded instead of cached;
* **counters are per-worker** — hit/miss tallies go to per-thread cells
  aggregated on read (:class:`DecisionStats`), so stats under threads
  never under-count the way racy ``self.hits += 1`` increments would.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import FlowError
from repro.ifc.flow import _ALLOWED, FlowDecision, flow_decision
from repro.ifc.interner import TagInterner, global_interner
from repro.ifc.labels import Label, SecurityContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (audit ↔ ifc)
    from repro.audit.sink import AuditSink


@dataclass
class DecisionStats:
    """Hit/miss/eviction counters for one decision cache.

    Snapshots are aggregated from per-worker counter cells at read time
    (see :class:`_WorkerCounters`), so they are exact even when many
    threads share the cache; ``lock_waits`` counts publish-path lock
    acquisitions that found the lock held — the contention signal the
    worker-scaling bench watches.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    lock_waits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0


class _WorkerCounters:
    """One thread's private tally for one cache.

    Bare-int increments on a shared cache object lose updates under
    threads (read-modify-write races); each worker thread instead owns a
    cell created on first use, and readers sum the cells.  A cell is
    only ever written by its owning thread, so the increments need no
    lock and cost what the old bare ints did.
    """

    __slots__ = ("hits", "misses", "evictions", "lock_waits")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.lock_waits = 0


#: Delta overlays are folded into a fresh snapshot once they hold this
#: many entries (and at least 1/8 of the snapshot's size) — the
#: copy-on-write amortisation budget: promotion copies the snapshot, so
#: gating on relative size keeps the per-miss cost O(1) amortised.
_PROMOTE_FLOOR = 64


class DecisionCache:
    """Memo table from context-pair label values to flow decisions.

    Keys are the four label bitsets of the pair — ``(src.secrecy,
    src.integrity, dst.secrecy, dst.integrity)`` masks.  Entries
    are immutable :class:`~repro.ifc.flow.FlowDecision` objects, safe to
    share between callers.  The table is bounded: when ``max_entries`` is
    reached it is swapped for an empty one wholesale (the workloads this
    serves re-warm in one round, and wholesale replacement avoids
    per-hit LRU bookkeeping on the fast path).

    Thread safety (the multi-worker contract): the read path is
    lock-free — a hit is two map probes against references loaded
    atomically, with no lock, no waiting, and no writes.  Misses compute
    the decision outside the lock and publish it under the lock into a
    small delta overlay, folded periodically into a fresh snapshot map
    swapped in atomically (copy-on-write).  :meth:`clear` — the
    ``Machine.grant`` fan-out — bumps the cache *epoch* and swaps in
    empty maps; a publish whose miss began before the bump is discarded,
    so a racing worker can never install a verdict evaluated under
    pre-invalidation policy.  Counters live in per-thread cells
    aggregated on read.
    """

    __slots__ = (
        "_snapshot", "_delta", "max_entries", "_vocab", "_lock",
        "_epoch", "_tls", "_cells",
    )

    def __init__(self, max_entries: int = 65536):
        # _snapshot is treated as immutable once published; _delta is a
        # small overlay that only ever gains keys between promotions.
        # Readers probe both without the lock (reference loads and dict
        # gets are atomic); every structural swap happens under _lock.
        self._snapshot: Dict[Tuple[int, int, int, int], FlowDecision] = {}
        self._delta: Dict[Tuple[int, int, int, int], FlowDecision] = {}
        self.max_entries = max_entries
        # The interner vocabulary mask-level keys are numbered in,
        # pinned on first evaluate_masks call: one cache, one numbering.
        self._vocab: Optional[TagInterner] = None
        self._lock = threading.Lock()
        self._epoch = 0
        self._tls = threading.local()
        self._cells: List[_WorkerCounters] = []

    def __len__(self) -> int:
        return len(self._snapshot) + len(self._delta)

    # -- per-worker counters -----------------------------------------------

    def _cell(self) -> _WorkerCounters:
        """This thread's counter cell (registered on first use)."""
        cell = _WorkerCounters()
        with self._lock:
            self._cells.append(cell)
        self._tls.cell = cell
        return cell

    def _sum(self, field: str) -> int:
        # Snapshot the cell list under the lock (a worker thread may be
        # registering concurrently), then sum without it: cells are only
        # incremented, so the total is a consistent lower bound.
        with self._lock:
            cells = list(self._cells)
        return sum(getattr(cell, field) for cell in cells)

    @property
    def hits(self) -> int:
        return self._sum("hits")

    @property
    def misses(self) -> int:
        return self._sum("misses")

    @property
    def evictions(self) -> int:
        return self._sum("evictions")

    @property
    def lock_waits(self) -> int:
        return self._sum("lock_waits")

    @property
    def epoch(self) -> int:
        """Invalidation epoch — bumped by every :meth:`clear`."""
        return self._epoch

    @property
    def stats(self) -> DecisionStats:
        return DecisionStats(
            self.hits, self.misses, self.evictions, self.lock_waits
        )

    # -- publication (the write side of the snapshot protocol) -------------

    def _publish(
        self,
        key: Tuple[int, int, int, int],
        decision: FlowDecision,
        epoch: int,
        cell: _WorkerCounters,
    ) -> None:
        """Install a freshly evaluated decision, unless ``epoch`` moved.

        The epoch check is what makes ``Machine.grant`` fan-out safe
        under threads: an evaluation that began before an invalidation
        must not survive it.  The caller's decision object is still
        *returned* to the caller (it was correct when evaluated under
        the old epoch, exactly as a pre-invalidation hit would have
        been); it just never enters the post-invalidation table.
        """
        lock = self._lock
        if not lock.acquire(False):
            cell.lock_waits += 1
            lock.acquire()
        try:
            if self._epoch != epoch:
                return
            snapshot, delta = self._snapshot, self._delta
            if len(snapshot) + len(delta) >= self.max_entries:
                self._snapshot = {}
                self._delta = {key: decision}
                cell.evictions += 1
                return
            delta[key] = decision
            if (
                len(delta) >= _PROMOTE_FLOOR
                and len(delta) * 8 >= len(snapshot)
            ):
                merged = dict(snapshot)
                merged.update(delta)
                # Publish the fold atomically: swap the snapshot first,
                # then retire the overlay (readers between the two swaps
                # see entries twice, never not at all).
                self._snapshot = merged
                self._delta = {}
        finally:
            lock.release()

    def evaluate(self, source: SecurityContext, target: SecurityContext) -> FlowDecision:
        """The memoized flow rule (lock-free on hits)."""
        key = (
            source.secrecy._mask,
            source.integrity._mask,
            target.secrecy._mask,
            target.integrity._mask,
        )
        decision = self._snapshot.get(key)
        if decision is None:
            decision = self._delta.get(key)
        tls = self._tls
        try:
            cell = tls.cell
        except AttributeError:
            cell = self._cell()
        if decision is not None:
            cell.hits += 1
            return decision
        cell.misses += 1
        epoch = self._epoch
        decision = flow_decision(source, target)
        self._publish(key, decision, epoch, cell)
        return decision

    def evaluate_masks(
        self,
        src_secrecy: int,
        src_integrity: int,
        dst_secrecy: int,
        dst_integrity: int,
        interner: Optional[TagInterner] = None,
    ) -> FlowDecision:
        """The memoized flow rule over raw bitsets.

        This is the sharded/cross-machine entry point: masks already in
        *this cache's* numbering (remapped from a peer's through a
        :class:`~repro.ifc.wire.MaskTranslator` if they crossed shards)
        are evaluated without materialising context objects.  Keys are
        shared with :meth:`evaluate` — the same pair costs one miss no
        matter which form asked first.  ``interner`` names the
        vocabulary the masks use, for denial diagnostics; it defaults to
        the process-global one and is pinned per cache: feeding one
        cache masks from two numberings would let a hit serve denial
        labels from the wrong vocabulary, so that raises instead.
        """
        vocab = interner if interner is not None else global_interner()
        if self._vocab is not vocab:
            self._pin_vocab(vocab)
        key = (src_secrecy, src_integrity, dst_secrecy, dst_integrity)
        decision = self._snapshot.get(key)
        if decision is None:
            decision = self._delta.get(key)
        tls = self._tls
        try:
            cell = tls.cell
        except AttributeError:
            cell = self._cell()
        if decision is not None:
            cell.hits += 1
            return decision
        cell.misses += 1
        epoch = self._epoch
        missing_s = src_secrecy & ~dst_secrecy
        missing_i = dst_integrity & ~src_integrity
        if not missing_s and not missing_i:
            # The same shared instance flow_decision() returns, so the
            # mask and context forms stay identity-consistent.
            decision = _ALLOWED
        else:
            decision = FlowDecision(
                False,
                not missing_s,
                not missing_i,
                _label_in(vocab, missing_s),
                _label_in(vocab, missing_i),
            )
        self._publish(key, decision, epoch, cell)
        return decision

    def _pin_vocab(self, vocab: TagInterner) -> None:
        with self._lock:
            if self._vocab is None:
                self._vocab = vocab
            elif self._vocab is not vocab:
                raise ValueError(
                    "decision cache already keyed in another interner's "
                    "numbering; one cache serves one vocabulary"
                )

    def clear(self) -> None:
        """Drop every memoized decision (counters are preserved).

        Epoch-based: the bump invalidates in-flight misses begun under
        the old epoch, so their publishes are discarded — the
        ``Machine.grant`` fan-out rule under concurrent workers.
        """
        with self._lock:
            self._epoch += 1
            self._snapshot = {}
            self._delta = {}


def _label_in(interner: TagInterner, mask: int) -> Label:
    """A :class:`Label` naming ``mask``'s tags in ``interner``'s vocabulary.

    For the process-global interner the mask is wrapped directly; for a
    shard-private interner the tags are named and re-interned so the
    label renders correctly in diagnostics regardless of numbering.
    """
    if not mask:
        return Label.empty()
    if interner is global_interner():
        return Label.from_mask(mask)
    return Label(t.qualified for t in interner.tags_of(mask))


class DecisionPlane:
    """The shared decision + audit-emission core behind every PEP.

    One plane per enforcement domain (a bus, a substrate, a kernel
    module, a PEP); planes sharing a workload may also share a
    :class:`DecisionCache`.  Hit/miss counters are exposed directly on
    the plane (``plane.hits`` / ``plane.misses``) for benchmarks and
    capacity planning.
    """

    def __init__(
        self,
        audit: "Optional[AuditSink]" = None,
        cache: Optional[DecisionCache] = None,
    ):
        self.audit = audit
        # `is None`, not truthiness: an empty DecisionCache has len() == 0.
        self.cache = DecisionCache() if cache is None else cache

    # -- evaluation --------------------------------------------------------

    def evaluate(self, source: SecurityContext, target: SecurityContext) -> FlowDecision:
        """Memoized flow rule; no audit emission."""
        return self.cache.evaluate(source, target)

    def allows(self, source: SecurityContext, target: SecurityContext) -> bool:
        """Boolean form of :meth:`evaluate`."""
        return self.cache.evaluate(source, target).allowed

    def check(
        self,
        source: SecurityContext,
        target: SecurityContext,
        source_name: str = "source",
        target_name: str = "target",
    ) -> FlowDecision:
        """Memoized flow rule raising :class:`FlowError` on denial."""
        decision = self.cache.evaluate(source, target)
        if not decision.allowed:
            raise FlowError(source_name, target_name, decision.reason)
        return decision

    # -- audit emission ----------------------------------------------------

    def audit_allowed(
        self,
        actor: str,
        subject: str,
        source: Optional[SecurityContext] = None,
        target: Optional[SecurityContext] = None,
        detail: Optional[dict] = None,
    ) -> None:
        """Record a permitted flow (no-op when the plane has no log)."""
        if self.audit is not None:
            self.audit.flow_allowed(actor, subject, source, target, detail)

    def audit_denied(
        self,
        actor: str,
        subject: str,
        reason: str,
        source: Optional[SecurityContext] = None,
        target: Optional[SecurityContext] = None,
    ) -> None:
        """Record a denied flow (no-op when the plane has no log)."""
        if self.audit is not None:
            self.audit.flow_denied(actor, subject, reason, source, target)

    def flush(self) -> None:
        """Drain any staged audit records (see ``AuditSpine.flush``)."""
        if self.audit is not None:
            self.audit.flush()

    # -- cache management & counters --------------------------------------

    def invalidate(self) -> None:
        """Drop all memoized decisions.

        Value-keying makes this unnecessary for label changes
        (declassification/endorsement yields a new key); it exists to
        bound memory and to force re-evaluation after out-of-band policy
        swaps (e.g. replacing a tag ontology).
        """
        self.cache.clear()

    @property
    def stats(self) -> DecisionStats:
        return self.cache.stats

    @property
    def hits(self) -> int:
        """Memo-table hits across this plane's lifetime."""
        return self.cache.hits

    @property
    def misses(self) -> int:
        """Memo-table misses (each one evaluated the rule directly)."""
        return self.cache.misses


# -- sharding: per-machine decision planes ----------------------------------


class DecisionShard:
    """One machine's (or worker's) slice of the decision plane.

    A shard owns a private :class:`DecisionCache` and names the
    :class:`~repro.ifc.interner.TagInterner` its mask keys are numbered
    in (the process-global one for in-process machines; a private one
    when simulating fully isolated workers).  Every enforcement site on
    the same machine — kernel LSM, substrate, bus workers — shares the
    shard's cache through per-site :class:`DecisionPlane` views, so a
    pair memoized by one site is a hit for all of them, while distinct
    machines stay fully independent: no shared table, no shared
    counters, no cross-worker invalidation stampede.
    """

    __slots__ = ("shard_id", "interner", "cache", "_inbound")

    def __init__(
        self,
        shard_id: str,
        interner: Optional[TagInterner] = None,
        max_entries: int = 65536,
    ):
        self.shard_id = shard_id
        self.interner = interner if interner is not None else global_interner()
        self.cache = DecisionCache(max_entries)
        # Peer shard id -> MaskTranslator from that peer's numbering
        # into ours (the wire-plane vocabulary, reused in-process).
        self._inbound: Dict[str, "MaskTranslator"] = {}

    def __repr__(self) -> str:
        return f"<DecisionShard {self.shard_id} entries={len(self.cache)}>"

    def plane(self, audit=None) -> DecisionPlane:
        """A :class:`DecisionPlane` view over this shard's cache.

        Each enforcement site gets its own view (carrying its own audit
        emitter) while sharing the shard's memo table.  Context-form
        views only exist for global-vocabulary shards (see
        :meth:`evaluate`).
        """
        self._require_global_vocabulary()
        return DecisionPlane(audit=audit, cache=self.cache)

    @property
    def context_cache(self) -> DecisionCache:
        """The shard's cache, for sites that build their own
        context-form :class:`DecisionPlane` around it (kernel LSM,
        substrate, bus workers).  Carries the same guard as
        :meth:`plane`: private-vocabulary shards must not mix
        global-numbered context keys into their mask-keyed table.
        """
        self._require_global_vocabulary()
        return self.cache

    def _require_global_vocabulary(self) -> None:
        # Context objects carry masks in the process-global interner's
        # numbering; caching them alongside private-interner mask keys
        # could collide two different tag sets onto one entry (wrong
        # denial diagnostics).  Private-vocabulary shards are mask-level
        # only.
        if self.interner is not global_interner():
            raise ValueError(
                f"shard {self.shard_id!r} uses a private interner: "
                "evaluate contexts via evaluate_masks in its own numbering"
            )

    def evaluate(self, source: SecurityContext, target: SecurityContext) -> FlowDecision:
        """The memoized flow rule on this shard (global-vocabulary
        shards only — see :meth:`plane`)."""
        self._require_global_vocabulary()
        return self.cache.evaluate(source, target)

    def evaluate_masks(
        self, src_secrecy: int, src_integrity: int,
        dst_secrecy: int, dst_integrity: int,
    ) -> FlowDecision:
        """Mask-level flow rule in this shard's own numbering."""
        return self.cache.evaluate_masks(
            src_secrecy, src_integrity, dst_secrecy, dst_integrity,
            interner=self.interner,
        )

    def invalidate(self) -> None:
        """Drop this shard's memoized decisions."""
        self.cache.clear()

    @property
    def stats(self) -> DecisionStats:
        return self.cache.stats


class DecisionPlaneRouter:
    """Per-machine decision shards plus cross-shard mask translation.

    The router replaces the implicit "one process-global decision cache"
    topology with explicit shards: ``router.shard(hostname)`` is a
    machine's slice, and cross-machine evaluations go through
    :meth:`evaluate_inbound`, which remaps the foreign context's masks
    through the peers' exchanged tag-table vocabulary
    (:class:`~repro.ifc.wire.MaskTranslator` — the same append-only
    tables the wire plane ships) before consulting the *local* shard's
    cache.  Nothing on this path touches a process-global interner.

    Bulk policy changes that sidestep the value-keyed invalidation rule
    (privilege grants/revocations, ontology swaps) fan out through
    :meth:`invalidate` so every worker's shard re-evaluates — the
    sharded plane then answers exactly as a single unsharded plane
    would (see ``tests/ifc/test_router.py``).
    """

    def __init__(self):
        self._shards: Dict[str, DecisionShard] = {}

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        return shard_id in self._shards

    def shard(
        self,
        shard_id: str,
        interner: Optional[TagInterner] = None,
        max_entries: int = 65536,
    ) -> DecisionShard:
        """Get or create the shard for ``shard_id``."""
        shard = self._shards.get(shard_id)
        if shard is None:
            shard = self._shards[shard_id] = DecisionShard(
                shard_id, interner=interner, max_entries=max_entries
            )
        return shard

    def shards(self) -> Dict[str, DecisionShard]:
        """A snapshot of every registered shard."""
        return dict(self._shards)

    def plane(self, shard_id: str, audit=None) -> DecisionPlane:
        """A per-site plane view over ``shard_id``'s cache."""
        return self.shard(shard_id).plane(audit=audit)

    # -- cross-shard translation -------------------------------------------

    def translator(self, local_id: str, peer_id: str) -> "MaskTranslator":
        """The translator mapping ``peer_id``'s masks into ``local_id``'s
        numbering, synced to the peer interner's current length.

        Interners are append-only, so syncing is a pure extension — a
        translation learned once is valid forever (the wire-plane
        invariant, reused here between in-process workers).
        """
        from repro.ifc.wire import MaskTranslator  # local: avoid import cycle

        local = self.shard(local_id)
        peer = self.shard(peer_id)
        translator = local._inbound.get(peer_id)
        if translator is None:
            translator = local._inbound[peer_id] = MaskTranslator(local.interner)
        have = translator.version
        if len(peer.interner) > have:
            translator.extend(peer.interner.export_table(start=have))
        return translator

    def evaluate_inbound(
        self,
        local_id: str,
        peer_id: str,
        src_masks: Tuple[int, int],
        dst_masks: Tuple[int, int],
    ) -> FlowDecision:
        """Evaluate a flow whose *source* context arrived from another
        shard.

        ``src_masks`` is ``(secrecy, integrity)`` in ``peer_id``'s
        numbering; ``dst_masks`` is the local target's pair in
        ``local_id``'s numbering.  The source is remapped through the
        peers' shared vocabulary, then the local shard's memo table
        answers — repeated pairs cost two dict hits, same as
        intra-shard traffic.
        """
        translator = self.translator(local_id, peer_id)
        local = self._shards[local_id]
        return local.evaluate_masks(
            translator.to_local_mask(src_masks[0]),
            translator.to_local_mask(src_masks[1]),
            dst_masks[0],
            dst_masks[1],
        )

    # -- maintenance ---------------------------------------------------------

    def invalidate(self, shard_id: Optional[str] = None) -> None:
        """Drop memoized decisions on one shard, or on all of them.

        This is the privilege-change / bulk-policy-swap fan-out: after
        it, every worker re-evaluates from the rule, so sharded and
        unsharded planes answer identically.
        """
        if shard_id is not None:
            self._shards[shard_id].invalidate()
            return
        for shard in self._shards.values():
            shard.invalidate()

    @property
    def stats(self) -> DecisionStats:
        """Aggregated hit/miss/eviction counters across all shards."""
        total = DecisionStats()
        for shard in self._shards.values():
            total.hits += shard.cache.hits
            total.misses += shard.cache.misses
            total.evictions += shard.cache.evictions
            total.lock_waits += shard.cache.lock_waits
        return total
