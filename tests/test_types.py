"""Core types: ranks, block/certificate digests, wire codec, size table."""

import hashlib
import random

import pytest

from bftsim import analysis, core, scenario, simnet
from bftsim.core import (
    MESSAGE_SIZE_UNITS,
    MESSAGE_VARIANTS,
    ZERO_RANK,
    Block,
    CoinQC,
    CoinQCRelay,
    CoinShare,
    FallbackQC,
    FallbackTC,
    FBProposal,
    FBVote,
    FQCRelay,
    FTCRelay,
    Proposal,
    QC,
    Rank,
    TCRelay,
    Timeout,
    TimeoutCert,
    TxnBatch,
    Vote,
    cert_digest,
    decode_message,
    encode_message,
    genesis_block,
    genesis_qc,
    is_endorsed,
    make_block,
    max_cert,
    message_variant,
    rank_of,
)

# sha256("blk|origin|0|0|genesis")[:32]; pins the canonical digest format
GENESIS_ID = "7a099e392a03f466cc2a329626244390"


def test_rank_orders_lexicographically():
    rng = random.Random(2024)
    for _ in range(2000):
        a = (rng.randrange(5), rng.random() < 0.5, rng.randrange(50))
        b = (rng.randrange(5), rng.random() < 0.5, rng.randrange(50))
        ra, rb = Rank(*a), Rank(*b)
        # tuple comparison is the ordering oracle
        assert (ra < rb) == (a < b)
        assert (ra == rb) == (a == b)
        assert (ra > rb) == (a > b)


def test_rank_priorities():
    # view dominates endorsement dominates round
    assert Rank(2, False, 1) > Rank(1, True, 99)
    assert Rank(1, True, 1) > Rank(1, False, 99)
    assert Rank(1, False, 9) > Rank(1, False, 8)
    assert ZERO_RANK == Rank(0, False, 0)


def test_sha256_known_answer():
    # FIPS 180-2, appendix B.1: the one-block message "abc"
    assert core.sha256(b"abc").hexdigest() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def test_genesis_id_is_pinned():
    g = genesis_block()
    assert g.id == GENESIS_ID
    # independent recomputation of the digest input
    raw = hashlib.sha256(b"blk|origin|0|0|genesis").hexdigest()[:32]
    assert g.id == raw
    assert g.parent_qc is None and g.round == 0 and g.view == 0


def test_core_genesis_id_is_the_genesis_block_id():
    # headers and the checker use the constant, so check never hashes
    assert core.GENESIS_ID == genesis_block().id


def test_genesis_qc_signed_by_everyone():
    for n in (4, 7, 10):
        qc = genesis_qc(n)
        assert qc.block_id == GENESIS_ID
        assert qc.signers == frozenset(range(n))
        assert rank_of(qc) == ZERO_RANK


def test_block_id_depends_on_every_field():
    qc = genesis_qc(4)
    base = make_block(qc, 1, 0, TxnBatch("p", 64))
    variants = [
        make_block(qc, 2, 0, TxnBatch("p", 64)),
        make_block(qc, 1, 1, TxnBatch("p", 64)),
        make_block(qc, 1, 0, TxnBatch("q", 64)),
        make_block(QC(base.id, 1, 0, frozenset({0, 1, 2})), 1, 0, TxnBatch("p", 64)),
    ]
    ids = {base.id} | {b.id for b in variants}
    assert len(ids) == 5
    # deterministic: same inputs, same id
    assert make_block(qc, 1, 0, TxnBatch("p", 64)).id == base.id


def test_fallback_block_id_includes_height_and_proposer():
    qc = genesis_qc(4)
    a = make_block(qc, 1, 3, TxnBatch("p", 64), 1, 0)
    b = make_block(qc, 1, 3, TxnBatch("p", 64), 2, 0)
    c = make_block(qc, 1, 3, TxnBatch("p", 64), 1, 1)
    assert len({a.id, b.id, c.id}) == 3


def test_cert_digest_ignores_signers():
    a = QC("deadbeef", 5, 1, frozenset({0, 1, 2}))
    b = QC("deadbeef", 5, 1, frozenset({1, 2, 3}))
    assert cert_digest(a) == cert_digest(b)
    # but any content field changes it
    assert cert_digest(QC("deadbeef", 6, 1, a.signers)) != cert_digest(a)
    assert cert_digest(QC("deadbeef", 5, 2, a.signers)) != cert_digest(a)


def test_cert_digest_distinct_across_kinds():
    ds = {
        cert_digest(None),
        cert_digest(QC("x", 1, 0, frozenset({0}))),
        cert_digest(FallbackQC("x", 1, 0, 1, 2, frozenset({0}))),
        cert_digest(TimeoutCert(1, frozenset({0}))),
        cert_digest(FallbackTC(1, frozenset({0}))),
        cert_digest(CoinQC(1, 2, frozenset({0}))),
    }
    assert len(ds) == 6


def test_endorsement_is_derived_from_coin_history():
    fqc = FallbackQC("x", 7, 2, 1, 3, frozenset({0, 1, 2}))
    assert not is_endorsed(fqc, {})
    assert not is_endorsed(fqc, {2: CoinQC(2, 1, frozenset({0, 1}))})
    assert is_endorsed(fqc, {2: CoinQC(2, 3, frozenset({0, 1}))})
    # wrong view's coin never endorses
    assert not is_endorsed(fqc, {1: CoinQC(1, 3, frozenset({0, 1}))})


def test_rank_of_certificates():
    coins = {2: CoinQC(2, 3, frozenset({0, 1}))}
    assert rank_of(None) == ZERO_RANK
    assert rank_of(QC("x", 7, 2, frozenset({0}))) == Rank(2, False, 7)
    fqc = FallbackQC("x", 7, 2, 1, 3, frozenset({0}))
    assert rank_of(fqc) == Rank(2, False, 7)
    assert rank_of(fqc, coins) == Rank(2, True, 7)
    blk = make_block(genesis_qc(4), 4, 1, TxnBatch("p", 1))
    assert rank_of(blk) == Rank(1, False, 4)


def test_max_cert_keeps_first_on_tie():
    a = QC("aaaa", 5, 1, frozenset({0, 1, 2}))
    b = QC("bbbb", 5, 1, frozenset({1, 2, 3}))
    assert max_cert(a, b) is a
    assert max_cert(b, a) is b
    hi = QC("cccc", 6, 1, frozenset({0, 1, 2}))
    assert max_cert(a, hi) is hi
    assert max_cert(hi, a) is hi
    # endorsement flips the comparison only when coin history says so
    fqc = FallbackQC("dddd", 2, 1, 1, 0, frozenset({0, 1, 2}))
    assert max_cert(a, fqc) is a
    coins = {1: CoinQC(1, 0, frozenset({0, 1}))}
    assert max_cert(a, fqc, coins) is fqc


def _one_of_each_message():
    qc = genesis_qc(4)
    blk = make_block(qc, 1, 0, TxnBatch("p0-r1-v0", 256))
    fblk = make_block(qc, 3, 1, TxnBatch("f2-h1-v1", 256), 1, 2)
    fqc = FallbackQC(fblk.id, 3, 1, 1, 2, frozenset({0, 1, 3}))
    coin = CoinQC(1, 2, frozenset({0, 3}))
    return [
        Proposal(blk, 0),
        Proposal(blk, 0, coin),
        Vote(blk.id, 1, 0, 3),
        Timeout(4, None, qc, 1),
        Timeout(None, 1, qc, 1),
        TCRelay(TimeoutCert(4, frozenset({0, 1, 2})), 2),
        FTCRelay(FallbackTC(1, frozenset({0, 1, 2})), 2),
        FBProposal(fblk, FallbackTC(1, frozenset({0, 1, 2}))),
        FBProposal(fblk, None),
        FBVote(fblk.id, 3, 1, 1, 2, 0),
        FQCRelay(fqc, 2),
        CoinShare(1, 3),
        CoinQCRelay(coin, 3),
    ]


def test_wire_codec_round_trips_every_variant():
    msgs = _one_of_each_message()
    seen = set()
    for m in msgs:
        d = encode_message(m)
        assert d["kind"] == message_variant(m)
        assert decode_message(d) == m
        seen.add(d["kind"])
    assert seen == set(MESSAGE_VARIANTS)


def test_message_size_units_table():
    # authenticator-slot counts at capacity, per variant
    assert MESSAGE_SIZE_UNITS == {
        "proposal": 2,
        "vote": 1,
        "timeout": 2,
        "tc_relay": 1,
        "ftc_relay": 1,
        "fb_proposal": 2,
        "fb_vote": 1,
        "fqc_relay": 2,
        "coin_share": 1,
        "coin_qc_relay": 1,
    }


def test_a_vote_has_its_certificates_fields_but_the_signers():
    # the checker builds the certificate a quorum of votes implies from a
    # vote's fields but its voter, and the replica reads any certificate's
    # proposer, a regular one's None
    for vote, cert in ((Vote, QC), (FBVote, FallbackQC)):
        assert vote._fields[:-1] == cert._fields[:-1]
        assert (vote._fields[-1], cert._fields[-1]) == ("voter", "signers")
    assert QC.proposer is None and genesis_qc(4).proposer is None


def test_message_variant_rejects_non_messages():
    with pytest.raises(TypeError):
        message_variant(genesis_qc(4))


# --- value types: each equals only its own class -----------------------------
# Every value is a NamedTuple, so as a plain tuple it would equal any tuple
# of the same fields: TimeoutCert(3, s) == FallbackTC(3, s), and each
# field-less fault == ().

VALUE_TYPES = sorted(
    {*core.CERT_KINDS, *core.MESSAGE_KINDS, core.Send, core.Multicast,
     core.SetTimer, core.CommitNotice, core.ReplicaConfig, core.TxnBatch,
     *simnet.MODEL_KINDS.values(), *simnet.FAULT_KINDS.values(),
     simnet.AdversarySpec, scenario.ScenarioConfig, analysis.SafetyReport,
     analysis.MetricsReport}, key=lambda cls: cls.__name__)


def same_fields(cls):
    """An instance of ``cls`` whose field values any class of as many
    fields can be built from."""
    return cls._make(range(len(cls._fields)))


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_a_value_equals_only_its_own_class(cls):
    v = same_fields(cls)
    assert v == same_fields(cls) and not v != same_fields(cls)
    twins = [tuple(v), *(other._make(v) for other in VALUE_TYPES
                         if other is not cls and len(other._fields) == len(v))]
    for twin in twins:
        assert v != twin and twin != v, twin
        assert not (v == twin or twin == v), twin
    # the hash a frozen dataclass had: its fields' tuple's
    assert hash(v) == hash(tuple(v))
    for name in (*cls._fields[:1], "extra"):
        with pytest.raises(AttributeError):
            setattr(v, name, 0)


def test_a_block_equals_only_blocks():
    block = genesis_block()
    fields = core._BlockFields(*block)
    assert block != fields and fields != block and block != tuple(block)
    assert block == Block(*block) and hash(block) == hash(tuple(block))


def test_validate_counts_field_less_faults():
    # MuteLeader() equals Honest() as a plain tuple, and would count as
    # no fault at all
    config = core.ReplicaConfig(4, 1)
    two = simnet.AdversarySpec(simnet.Synchronous(1), (
        (0, simnet.MuteLeader()), (1, simnet.MuteLeader())))
    with pytest.raises(core.ConfigError, match="2 faulty replicas exceeds"):
        two.validate(config)
    simnet.AdversarySpec(simnet.Synchronous(1), (
        (0, simnet.Honest()), (1, simnet.MuteLeader()))).validate(config)
