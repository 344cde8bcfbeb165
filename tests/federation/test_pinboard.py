"""Cross-domain checkpoint pinning: claims, conflicts, verification."""

import pytest

from repro.audit.distributed import CheckpointClaim, FederationPinboard
from repro.audit.records import RecordKind
from repro.audit.spine import AuditSpine


def spine_with(n_records=6, name="audit@dom", checkpoint_every=2):
    spine = AuditSpine(name=name, checkpoint_every=checkpoint_every)
    for i in range(n_records):
        spine.append(RecordKind.CUSTOM, f"actor-{i % 2}", "", {"i": i})
        spine.drain()
    return spine


class TestClaims:
    def test_claim_matches_what_verify_reads_back(self):
        spine = spine_with()
        claim = CheckpointClaim.of("dom", spine)
        assert claim.position == spine.checkpoint_position
        assert spine.checkpoint_digest_at(claim.position) == claim.head_digest

    def test_claim_of_empty_spine_is_position_zero_and_stable(self):
        spine = AuditSpine(name="audit@empty")
        claim = CheckpointClaim.of("dom", spine)
        assert claim.position == 0
        board = FederationPinboard("peer")
        board.pin(claim)
        assert board.verify({"dom": spine}) == {"dom": "ok"}

    def test_claim_works_through_an_emitter(self):
        spine = spine_with()
        emitter = spine.emitter("bus")
        claim = CheckpointClaim.of("dom", emitter)
        assert claim.position == spine.checkpoint_position


class TestPinning:
    def test_identical_repin_is_accepted(self):
        spine = spine_with()
        board = FederationPinboard("peer")
        claim = CheckpointClaim.of("dom", spine)
        assert board.pin(claim)
        assert board.pin(claim)
        assert len(board) == 1
        assert board.conflicts == []

    def test_conflicting_claim_for_same_position_is_rejected(self):
        board = FederationPinboard("peer")
        assert board.pin(CheckpointClaim("dom", 3, "aa" * 32))
        assert not board.pin(CheckpointClaim("dom", 3, "bb" * 32))
        assert len(board.conflicts) == 1
        conflict = board.conflicts[0]
        assert conflict.domain == "dom" and conflict.position == 3
        # The first-pinned digest stays authoritative.
        assert board.pinned("dom").head_digest == "aa" * 32

    def test_own_domain_claims_are_ignored(self):
        board = FederationPinboard("dom")
        assert board.pin(CheckpointClaim("dom", 1, "aa" * 32))
        assert len(board) == 0

    def test_pinned_returns_freshest(self):
        board = FederationPinboard("peer")
        board.pin(CheckpointClaim("dom", 1, "aa" * 32))
        board.pin(CheckpointClaim("dom", 5, "cc" * 32))
        board.pin(CheckpointClaim("dom", 3, "bb" * 32))
        assert board.pinned("dom").position == 5
        assert [c.position for c in board.claims("dom")] == [1, 3, 5]


class TestVerification:
    def _pinned_board(self, spine):
        board = FederationPinboard("peer")
        board.pin(CheckpointClaim.of("dom", spine))
        return board

    def test_honest_growth_stays_ok(self):
        spine = spine_with()
        board = self._pinned_board(spine)
        for i in range(4):
            spine.append(RecordKind.CUSTOM, "actor-0", "", {"later": i})
        spine.checkpoint()
        assert board.verify({"dom": spine}) == {"dom": "ok"}

    def test_rewritten_history_is_tampered(self):
        spine = spine_with()
        board = self._pinned_board(spine)
        # A re-chained forgery with the same checkpoint position but
        # different content: locally consistent, globally caught.
        forged = spine_with(n_records=6, checkpoint_every=2)
        forged._store.tails["main"].records[0].detail["i"] = 99  # pre-rechain
        rebuilt = AuditSpine(name="audit@dom", checkpoint_every=10**9)
        for record in forged:
            rebuilt.emit("main", record.kind, record.actor, record.subject,
                         record.detail)
            rebuilt.drain()
            if rebuilt.checkpoint_position < spine.checkpoint_position:
                rebuilt.checkpoint()
        assert rebuilt.verify()
        assert board.verify({"dom": rebuilt}) == {"dom": "tampered"}

    def test_truncated_history_is_truncated(self):
        spine = spine_with()
        board = self._pinned_board(spine)
        shorter = AuditSpine(name="audit@dom")
        shorter.append(RecordKind.CUSTOM, "actor-0", "", {})
        shorter.checkpoint()
        assert board.verify({"dom": shorter}) == {"dom": "truncated"}

    def test_unpinned_domain_is_reported(self):
        board = FederationPinboard("peer")
        assert board.verify({"ghost": spine_with()}) == {"ghost": "unpinned"}

    def test_owner_spine_is_skipped(self):
        spine = spine_with()
        board = FederationPinboard("peer")
        assert board.verify({"peer": spine}) == {}

    def test_older_pruned_positions_stay_vouched_while_fresh_pin_checks(self):
        # A domain prunes honestly; an old pin predates the prune but a
        # fresher pin is still checkable — the pruned position is
        # vouched for by its pin, the checkable one endorses the chain.
        spine = spine_with(n_records=8, checkpoint_every=1)
        board = self._pinned_board(spine)
        prune_cutoff = 100.0
        clock = {"now": 0.0}
        spine._clock = lambda: clock["now"]
        clock["now"] = 200.0
        for i in range(4):
            spine.append(RecordKind.CUSTOM, "actor-1", "", {"late": i})
            spine.drain()
            spine.checkpoint()
        board.pin(CheckpointClaim.of("dom", spine))
        spine.prune_before(prune_cutoff)
        assert spine.checkpoint_digest_at(1) is None  # old pin really pruned
        assert board.verify({"dom": spine}) == {"dom": "ok"}

    def test_pruning_past_every_pin_is_unverifiable_not_ok(self):
        # The prune-evasion attack: rewrite history, grow past every
        # pinned position, prune everything pinned.  Nothing is
        # checkable, which must withhold endorsement — from digests
        # alone it cannot be told apart from an aggressive honest prune.
        spine = spine_with()
        board = self._pinned_board(spine)
        evader = AuditSpine(name="audit@dom", checkpoint_every=1)
        for i in range(spine.checkpoint_position + 2):
            evader.append(RecordKind.CUSTOM, "innocent", "", {"i": i})
            evader.drain()
            evader.checkpoint()
        assert evader.checkpoint_position > spine.checkpoint_position
        evader.prune_before(float("inf"))
        assert evader.verify()  # locally consistent
        assert board.verify({"dom": evader}) == {"dom": "unverifiable"}


class TestPinRetention:
    """The pin-retention policy: keep every k-th position plus the newest."""

    def claim(self, position, digest="aa"):
        return CheckpointClaim("dom", position, digest * 32)

    def test_retention_keeps_every_kth_and_the_newest(self):
        board = FederationPinboard("peer", retain_every=3)
        for position in range(1, 9):  # 1..8, newest is 8
            assert board.pin(self.claim(position))
        kept = [c.position for c in board.claims("dom")]
        assert kept == [3, 6, 8]  # multiples of 3, plus the newest
        assert board.stats_retired == 5

    def test_newest_pin_always_survives_between_multiples(self):
        board = FederationPinboard("peer", retain_every=4)
        board.pin(self.claim(4))
        board.pin(self.claim(5))
        assert [c.position for c in board.claims("dom")] == [4, 5]
        board.pin(self.claim(6))
        # 5 was only retained for being newest; 6 displaces it.
        assert [c.position for c in board.claims("dom")] == [4, 6]

    def test_retention_is_per_domain(self):
        board = FederationPinboard("peer", retain_every=2)
        board.pin(self.claim(1))
        board.pin(CheckpointClaim("other", 1, "cc" * 32))
        assert [c.position for c in board.claims("dom")] == [1]
        assert [c.position for c in board.claims("other")] == [1]

    def test_retained_pins_still_catch_tampering(self):
        spine = spine_with(n_records=10, checkpoint_every=1)
        board = FederationPinboard("peer", retain_every=2)
        tracked = AuditSpine(name="audit@dom", checkpoint_every=1)
        for i in range(10):
            tracked.append(RecordKind.CUSTOM, "actor", "", {"i": i})
            tracked.drain()
            tracked.checkpoint()
            board.pin(CheckpointClaim.of("dom", tracked))
        assert board.verify({"dom": tracked}) == {"dom": "ok"}
        # A re-chained replay changes the digest at every retained pin.
        forged = AuditSpine(name="audit@dom", checkpoint_every=1)
        for i in range(tracked.checkpoint_position):
            forged.append(RecordKind.CUSTOM, "actor", "", {"i": i, "x": 1})
            forged.drain()
            forged.checkpoint()
        assert board.verify({"dom": forged}) == {"dom": "tampered"}

    def test_conflict_at_a_retired_position_goes_undetected_by_design(self):
        # The documented trade: a retired pin can no longer contradict a
        # late conflicting claim; the position simply re-pins.
        board = FederationPinboard("peer", retain_every=3)
        for position in (1, 2, 3, 4):
            board.pin(self.claim(position))
        assert board.pin(self.claim(2, digest="bb"))  # 2 was retired
        assert board.conflicts == []
        # ...whereas a retained position still conflicts.
        assert not board.pin(self.claim(3, digest="bb"))
        assert len(board.conflicts) == 1

    def test_retain_every_must_be_positive(self):
        with pytest.raises(ValueError):
            FederationPinboard("peer", retain_every=0)

    def test_default_keeps_everything(self):
        board = FederationPinboard("peer")
        for position in range(1, 20):
            board.pin(self.claim(position))
        assert len(board.claims("dom")) == 19
        assert board.stats_retired == 0
