"""Core protocol data types.

Blocks, certificates, wire messages, the rank total order that the
voting/locking rules compare certificates by, and one codec for trace
files and digests, driven by each class's kind tag and fields.  Everything
here is an immutable value object; replicas replace state wholesale
instead of mutating shared structures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import product
from typing import (Mapping, NamedTuple, Optional, Union, get_args,
                    get_type_hints)

ReplicaId = int
BlockId = str  # 128-bit hex digest

ORIGIN_DIGEST = "origin"  # stand-in parent digest for the genesis block


class Rank(NamedTuple):
    """Total order over certificates: (view, endorsed, round) lexicographic.

    Field order matters: tuple ordering compares view first, then the
    endorsed flag (False < True), then round.  An endorsed fallback
    certificate therefore outranks every same-view regular certificate.
    """

    view: int
    endorsed: bool
    round: int


ZERO_RANK = Rank(0, False, 0)


@dataclass(frozen=True)
class TxnBatch:
    """Opaque payload; only identity and an abstract size are modeled."""

    payload_id: str
    size_bytes: int = 0


# --- certificates ---------------------------------------------------------


@dataclass(frozen=True)
class QC:
    """Quorum certificate: 2f+1 vote shares for one block."""

    block_id: BlockId
    round: int
    view: int
    signers: frozenset[ReplicaId]

    proposer = None  # no chain owner, so never endorsed; not a field


@dataclass(frozen=True)
class FallbackQC:
    """Certificate for a fallback block, tagged with chain height and owner."""

    block_id: BlockId
    round: int
    view: int
    height: int
    proposer: ReplicaId
    signers: frozenset[ReplicaId]


@dataclass(frozen=True)
class TimeoutCert:
    """2f+1 round-timeout shares; lets the baseline pacemaker skip ahead."""

    round: int
    signers: frozenset[ReplicaId]


@dataclass(frozen=True)
class FallbackTC:
    """2f+1 view-timeout shares; entry ticket for the fallback of a view."""

    view: int
    signers: frozenset[ReplicaId]


@dataclass(frozen=True)
class CoinQC:
    """f+1 coin shares opening the leader election of a fallback view."""

    view: int
    elected: ReplicaId
    signers: frozenset[ReplicaId]


CERT_KINDS = {QC: "qc", FallbackQC: "fqc", TimeoutCert: "tc",
              FallbackTC: "ftc", CoinQC: "coin"}
Certificate = Union[tuple(CERT_KINDS)]
ParentCert = Union[QC, FallbackQC]


# --- blocks ---------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """A block; ``height`` and ``proposer`` are set only on a block of some
    replica's fallback chain, and its id commits to both, so a fallback
    block can never collide with a regular one."""

    id: BlockId
    parent_qc: Optional[ParentCert]  # None only for genesis
    round: int
    view: int
    payload: TxnBatch
    height: Optional[int] = None
    proposer: Optional[ReplicaId] = None

    @cached_property
    def id_matches(self) -> bool:
        """Whether ``id`` is the digest of the other fields.  The value is
        frozen, so each block object hashes itself once, however many
        replicas a multicast hands it to."""
        return self.id == block_id_of(self.parent_qc, self.round, self.view,
                                      self.payload, self.height,
                                      self.proposer)


def cert_digest(cert: Optional[Certificate]) -> str:
    """Stable digest input for a certificate: its kind tag, then its fields
    in declaration order.

    Excludes the signer set: a threshold signature is one object no matter
    which share subset produced it, and block ids must not depend on vote
    arrival order.
    """
    if cert is None:
        return ORIGIN_DIGEST
    kind, names, *_ = _codec(cert, CERT_KINDS, "certificate")
    return "|".join([kind, *[str(getattr(cert, n)) for n in names]])


def _digest(parts: str) -> str:
    return hashlib.sha256(parts.encode()).hexdigest()[:32]  # 128 bits


def block_id_of(parent_qc: Optional[ParentCert], round: int, view: int,
                payload: TxnBatch, height: Optional[int] = None,
                proposer: Optional[ReplicaId] = None) -> BlockId:
    body = f"{cert_digest(parent_qc)}|{round}|{view}|{payload.payload_id}"
    if height is None:
        return _digest(f"blk|{body}")
    return _digest(f"fblk|{body}|{height}|{proposer}")


def make_block(parent_qc: Optional[ParentCert], round: int, view: int,
               payload: TxnBatch, height: Optional[int] = None,
               proposer: Optional[ReplicaId] = None) -> Block:
    return Block(block_id_of(parent_qc, round, view, payload, height, proposer),
                 parent_qc, round, view, payload, height, proposer)


def genesis_block() -> Block:
    return make_block(None, 0, 0, TxnBatch("genesis", 0))


def genesis_qc(n: int) -> QC:
    """Synthetic certificate for genesis, treated as signed by everyone."""
    g = genesis_block()
    return QC(g.id, 0, 0, frozenset(range(n)))


# --- rank -----------------------------------------------------------------


def is_endorsed(obj: Union[QC, FallbackQC, Block],
                coin_history: Mapping[int, CoinQC]) -> bool:
    """Endorsement is derived, never stored: a fallback certificate or block
    counts as endorsed exactly when its view's election picked its proposer.
    A regular block's or QC's proposer is None, which no election picks."""
    coin = coin_history.get(obj.view)
    return coin is not None and coin.elected == obj.proposer


def rank_of(obj, coin_history: Optional[Mapping[int, CoinQC]] = None) -> Rank:
    """Rank of a certificate or block (genesis parent None ranks lowest)."""
    if obj is None:
        return ZERO_RANK
    return Rank(obj.view, is_endorsed(obj, coin_history or {}), obj.round)


def max_cert(a: ParentCert, b: ParentCert,
             coin_history: Optional[Mapping[int, CoinQC]] = None) -> ParentCert:
    """Higher-ranked of two certificates; ties keep the first argument."""
    return b if rank_of(b, coin_history) > rank_of(a, coin_history) else a


# --- wire messages --------------------------------------------------------


@dataclass(frozen=True)
class Proposal:
    block: Block
    sender: ReplicaId
    # election evidence when the parent certificate is an endorsed fallback
    # certificate of the previous view (first block of a new view)
    coin_qc: Optional[CoinQC] = None


@dataclass(frozen=True)
class Vote:
    block_id: BlockId
    round: int
    view: int
    voter: ReplicaId


@dataclass(frozen=True)
class Timeout:
    """Timeout share: round-scoped under the baseline pacemaker, view-scoped
    under the fallback pacemaker.  Exactly one of round/view is set."""

    round: Optional[int]
    view: Optional[int]
    high_qc: ParentCert
    sender: ReplicaId


@dataclass(frozen=True)
class TCRelay:
    tc: TimeoutCert
    sender: ReplicaId


@dataclass(frozen=True)
class FTCRelay:
    ftc: FallbackTC
    sender: ReplicaId


@dataclass(frozen=True)
class FBProposal:
    block: Block  # a fallback block
    # height-1 proposals carry the entry ticket so receivers can validate
    ftc: Optional[FallbackTC] = None


@dataclass(frozen=True)
class FBVote:
    block_id: BlockId
    round: int
    view: int
    height: int
    proposer: ReplicaId
    voter: ReplicaId


@dataclass(frozen=True)
class FQCRelay:
    fqc: FallbackQC
    sender: ReplicaId  # doubles as the counter-signer in the 2-chain variant


@dataclass(frozen=True)
class CoinShare:
    view: int
    signer: ReplicaId


@dataclass(frozen=True)
class CoinQCRelay:
    coin_qc: CoinQC
    sender: ReplicaId


# Kind tag and abstract size of each wire message.  Size = number of
# authenticator slots the variant carries at capacity (optional slots count
# whether or not they are filled), so size is a pure function of the variant.
MESSAGE_KINDS = {
    Proposal: ("proposal", 2),  # parent certificate + optional coin-QC evidence
    Vote: ("vote", 1),
    Timeout: ("timeout", 2),  # timeout share + carried high qc
    TCRelay: ("tc_relay", 1),
    FTCRelay: ("ftc_relay", 1),
    FBProposal: ("fb_proposal", 2),  # parent certificate + optional entry ticket
    FBVote: ("fb_vote", 1),
    FQCRelay: ("fqc_relay", 2),  # certificate + counter-signature slot
    CoinShare: ("coin_share", 1),
    CoinQCRelay: ("coin_qc_relay", 1),
}
WireMessage = Union[tuple(MESSAGE_KINDS)]
MESSAGE_SIZE_UNITS = dict(MESSAGE_KINDS.values())
MESSAGE_VARIANTS = tuple(MESSAGE_SIZE_UNITS)


# --- one codec for certificates and messages --------------------------------


def _fields(cls) -> tuple[tuple[str, ...], tuple, bool, frozenset]:
    """A dataclass's plain fields, its certificate fields with the classes
    each may hold (both in declaration order, signers left out), whether it
    carries a block, and each tuple of types its plain fields may hold
    (Optional: either)."""
    hints = get_type_hints(cls)
    plain, certs, block, types = [], [], False, []
    for f in fields(cls):
        args = get_args(hints[f.name]) or (hints[f.name],)
        if Block in args:
            block = True
        elif CERT_KINDS.keys() & set(args):
            certs.append((f.name, frozenset(args)))
        elif f.name != "signers":
            plain.append(f.name)
            types.append(args)
    return tuple(plain), tuple(certs), block, frozenset(product(*types))


# type -> (kind, plain, certs, block, types), and kind -> (type, ...)
_CODEC = {cls: (kind, *_fields(cls)) for cls, kind in {
    **CERT_KINDS, **{cls: kind for cls, (kind, _) in MESSAGE_KINDS.items()}
}.items()}
_BY_KIND = {kind: (cls, *rest) for cls, (kind, *rest) in _CODEC.items()}
_BLOCK_PLAIN, ((_, _PARENT_KINDS),), _, _BLOCK_TYPES = _fields(Block)


def _codec(obj, kinds: dict, what: str) -> tuple:
    """The codec entry of ``obj``, which must be one of ``kinds``."""
    if type(obj) not in kinds:
        raise TypeError(f"not a {what}: {obj!r}")
    return _CODEC[type(obj)]


def message_variant(msg: WireMessage) -> str:
    return _codec(msg, MESSAGE_KINDS, "wire message")[0]


def message_certs(msg: WireMessage) -> list[Certificate]:
    """The certificates a message carries, its block's parent first."""
    _, _, names, block, _ = _codec(msg, MESSAGE_KINDS, "wire message")
    certs = []
    if block and msg.block.parent_qc is not None:  # None only for genesis
        certs.append(msg.block.parent_qc)
    for n, _ in names:
        cert = getattr(msg, n)
        if cert is not None:  # optional slots may be empty
            certs.append(cert)
    return certs


def _encode(obj) -> Optional[dict]:
    """The JSON dict of a certificate or message (None for an empty slot).
    A regular block goes under "block", a fallback block's body under
    "inner" with its height and proposer beside it."""
    if obj is None:
        return None
    cls = type(obj)
    kind, plain, certs, block, _ = _CODEC[cls]
    d = {n: getattr(obj, n) for n in plain}
    d["kind"] = kind
    if cls in CERT_KINDS:
        d["signers"] = sorted(obj.signers)
    for n, _ in certs:
        d[n] = _encode(getattr(obj, n))
    if block:
        b = obj.block
        body = {"id": b.id, "parent": _encode(b.parent_qc), "round": b.round,
                "view": b.view, "payload": [b.payload.payload_id,
                                            b.payload.size_bytes]}
        if b.height is None:
            d["block"] = body
        else:
            d.update(inner=body, height=b.height, proposer=b.proposer)
    return d


def _plain(d: dict, names: tuple, types: frozenset, what: str) -> dict:
    """``d``'s values for the plain fields ``names``, if their types are a
    combination the fields' annotations allow."""
    kw = {n: d[n] for n in names}
    if tuple(map(type, kw.values())) not in types:
        raise ValueError(f"{what} fields hold {kw!r}")
    return kw


def _decode(d: Optional[dict], kinds):
    """The certificate or message ``d`` encodes, which must be of one of the
    classes ``kinds``: a message, or what a certificate slot's annotation
    admits (the class ``NoneType`` for an empty optional slot)."""
    if d is None and type(None) in kinds:
        return None
    try:
        cls, plain, certs, block, types = _BY_KIND[d["kind"]]
    except (KeyError, TypeError):  # no kind, or not one of ours
        cls = None
    if cls not in kinds:
        if kinds is MESSAGE_KINDS:
            raise ValueError(f"unknown message kind: {d['kind']!r}")
        raise ValueError(f"certificate slot holds {d!r}")
    if cls in CERT_KINDS:
        signers = d["signers"]
        if type(signers) is not list or not {*map(type, signers)} <= {int}:
            raise ValueError(f"certificate signers {signers!r} are not ids")
        return cls(signers=frozenset(signers),
                   **_plain(d, plain, types, "certificate"))
    kw = _plain(d, plain, types, "message")
    for n, admits in certs:
        kw[n] = _decode(d[n], admits)
    if block:
        fallback = "inner" in d
        body = d["inner"] if fallback else d["block"]
        flat = dict(body, payload=TxnBatch(*body["payload"]),
                    height=d["height"] if fallback else None,
                    proposer=d["proposer"] if fallback else None)
        kw["block"] = Block(parent_qc=_decode(body["parent"], _PARENT_KINDS),
                            **_plain(flat, _BLOCK_PLAIN, _BLOCK_TYPES, "block"))
    return cls(**kw)


def encode_message(msg: WireMessage) -> dict:
    _codec(msg, MESSAGE_KINDS, "wire message")
    return _encode(msg)


def decode_message(d: dict) -> WireMessage:
    return _decode(d, MESSAGE_KINDS)
