"""Share aggregation by replicas, thresholds, and the election PRF."""

import hashlib
import random

from scipy import stats

from bftsim.core import (CoinQC, CoinShare, FallbackQC, FallbackTC, FBVote,
                         FTCRelay, QC, TCRelay, Timeout, TimeoutCert,
                         TxnBatch, Vote, genesis_qc, make_block)
from bftsim.crypto import (
    PRF_ID,
    coin_threshold,
    elect_leader,
    quorum_threshold,
    verify_certificate,
)
from bftsim.replica import Replica, ReplicaConfig

SEED = 42
BLOCK = make_block(genesis_qc(4), 1, 0, TxnBatch("b", 1))


def replica(rid, **kw):
    r = Replica(ReplicaConfig(**{"n": 4, "f": 1, "run_seed": SEED, **kw}), rid)
    r.init()
    return r


def relayed(typ, attr):
    """The certificate a replica relays in its first ``typ`` message."""
    def formed(r, acts):
        certs = [getattr(a.msg, attr) for a in acts
                 if isinstance(getattr(a, "msg", None), typ)]
        return certs[0] if certs else None
    return formed


# One row per share kind: (replica id, config, the share a sender sends, the
# certificate the replica has formed (or None) given the actions so far, and
# the certificate expected from a signer set).  Each replica is placed where
# the share is addressed to it: next leader, chain owner, current view.
KINDS = {
    "vote": (0, {}, lambda s: Vote(BLOCK.id, 1, 0, s),
             lambda r, acts: r.state.qc_by_block.get(BLOCK.id),
             lambda signers: QC(BLOCK.id, 1, 0, signers)),
    "fallback_vote": (3, {}, lambda s: FBVote("f" * 32, 1, 0, 1, 3, s),
                      lambda r, acts: r.state.fqc_by_key.get((0, 3, 1)),
                      lambda signers: FallbackQC("f" * 32, 1, 0, 1, 3, signers)),
    "timeout_round": (3, {"pacemaker": "baseline_tc"},
                      lambda s: Timeout(5, None, genesis_qc(4), s),
                      relayed(TCRelay, "tc"),
                      lambda signers: TimeoutCert(5, signers)),
    "timeout_view": (3, {}, lambda s: Timeout(None, 0, genesis_qc(4), s),
                     relayed(FTCRelay, "ftc"),
                     lambda signers: FallbackTC(0, signers)),
    "coin": (3, {}, lambda s: CoinShare(0, s),
             lambda r, acts: r.state.coin_history.get(0),
             lambda signers: CoinQC(0, elect_leader(0, SEED, 4), signers)),
}


def feed(kind, senders):
    """Deliver one share per entry of ``senders`` to a fresh replica and
    return the certificate it has formed, if any, and its drop counts."""
    rid, cfg, share, formed, _ = KINDS[kind]
    r = replica(rid, **cfg)
    acts = []
    for s in senders:
        acts += r.handle_message(share(s), s)
    return formed(r, acts), r.state.dropped


def threshold(kind):
    return coin_threshold(1) if kind == "coin" else quorum_threshold(1)


def test_thresholds():
    for f in (1, 2, 3, 10):
        assert quorum_threshold(f) == 2 * f + 1
        assert coin_threshold(f) == f + 1


def test_combine_votes_into_qc():
    r = replica(0)
    for s in (0, 1, 3):
        r.handle_message(Vote(BLOCK.id, 1, 0, s), s)
    qc = r.state.qc_by_block[BLOCK.id]
    assert qc == QC(BLOCK.id, 1, 0, frozenset({0, 1, 3}))
    # a late fourth vote forms no second certificate
    assert r.handle_message(Vote(BLOCK.id, 1, 0, 2), 2) == []
    assert r.state.qc_by_block[BLOCK.id] is qc


def test_combine_counts_distinct_signers_only():
    for kind in KINDS:
        short = list(range(threshold(kind) - 1))
        # no certificate is formed, not even one that verification rejects
        assert feed(kind, short * 4) == (None, {}), kind


def test_combine_rejects_mixed_messages():
    other = make_block(genesis_qc(4), 1, 0, TxnBatch("c", 1))
    r = replica(0)
    r.handle_message(Vote(BLOCK.id, 1, 0, 0), 0)
    r.handle_message(Vote(BLOCK.id, 1, 0, 1), 1)
    r.handle_message(Vote(other.id, 1, 0, 2), 2)
    r.handle_message(Vote(BLOCK.id, 2, 0, 3), 3)  # same block, other round
    assert BLOCK.id not in r.state.qc_by_block
    r.handle_message(Vote(BLOCK.id, 1, 0, 3), 3)
    assert r.state.qc_by_block[BLOCK.id].signers == frozenset({0, 1, 3})
    assert other.id not in r.state.qc_by_block


def test_combine_every_certificate_kind():
    for kind, (_, _, _, _, expected) in KINDS.items():
        signers = list(range(4 - threshold(kind), 4))
        assert feed(kind, signers[:-1])[0] is None, kind
        assert feed(kind, signers)[0] == expected(frozenset(signers)), kind


def test_combine_coin_requires_seed_and_n():
    # the coin a replica combines names the winner its run seed and n draw
    for (n, f), seed in zip(((4, 1), (7, 2)) * 4, range(8)):
        r = replica(n - 1, n=n, f=f, run_seed=seed)
        for s in range(f + 1):
            r.handle_message(CoinShare(0, s), s)
        assert r.state.coin_history[0] == CoinQC(
            0, elect_leader(0, seed, n), frozenset(range(f + 1)))


def test_verify_certificate():
    n, f = 4, 1
    ok = QC("abcd", 3, 1, frozenset({0, 1, 3}))
    assert verify_certificate(ok, n, f, run_seed=0)
    # below quorum
    assert not verify_certificate(QC("abcd", 3, 1, frozenset({0, 1})), n, f,
                                  run_seed=0)
    # signer out of range
    assert not verify_certificate(QC("abcd", 3, 1, frozenset({0, 1, 9})), n, f,
                                  run_seed=0)
    # coin certificates need only f+1 but must name the PRF winner
    view, seed = 6, 11
    winner = elect_leader(view, seed, n)
    good = CoinQC(view, winner, frozenset({0, 2}))
    bad = CoinQC(view, (winner + 1) % n, frozenset({0, 2}))
    assert verify_certificate(good, n, f, run_seed=seed)
    assert not verify_certificate(bad, n, f, run_seed=seed)
    assert not verify_certificate(CoinQC(view, winner, frozenset({0})), n, f,
                                  run_seed=seed)


def test_elect_leader_pinned_values():
    # frozen from the PRF definition: sha256("sha256-mod|seed|view")[:8] % n
    assert [elect_leader(v, 0, 4) for v in range(8)] == [1, 2, 2, 3, 0, 1, 1, 1]
    assert [elect_leader(v, 42, 7) for v in range(8)] == [1, 3, 1, 4, 2, 3, 3, 2]
    # independent recomputation of one value
    raw = hashlib.sha256(f"{PRF_ID}|0|3".encode()).digest()
    assert elect_leader(3, 0, 4) == int.from_bytes(raw[:8], "big") % 4


def test_elect_leader_deterministic_across_processes():
    # pure function of (view, seed, n): repeated calls agree
    rng = random.Random(7)
    for _ in range(200):
        v, s, n = rng.randrange(10**6), rng.randrange(10**6), rng.choice((4, 7))
        assert elect_leader(v, s, n) == elect_leader(v, s, n)
        assert 0 <= elect_leader(v, s, n) < n


def test_elect_leader_uniform_chi_square():
    # 10k consecutive views per committee size; uniformity must not be
    # rejected at the 1 percent level
    for n, seed in ((4, 1), (7, 2)):
        counts = [0] * n
        for v in range(10_000):
            counts[elect_leader(v, seed, n)] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.01, (n, seed, counts, p)
