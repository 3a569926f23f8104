"""Core protocol data types.

Blocks, certificates, wire messages, the rank total order that the
voting/locking rules compare certificates by, and one text codec for trace
files and digests, driven by each class's kind tag and fields.  Everything
here is an immutable value object; replicas replace state wholesale
instead of mutating shared structures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cache, cached_property
from json.encoder import encode_basestring_ascii
from operator import index
from typing import (Callable, Mapping, NamedTuple, Optional, Union, get_args,
                    get_type_hints)

ReplicaId = int
BlockId = str  # 128-bit hex digest

ORIGIN_DIGEST = "origin"  # stand-in parent digest for the genesis block
# the id of genesis_block(), which every header names and check compares
# commits with, so reading a trace needs no hash
GENESIS_ID = "7a099e392a03f466cc2a329626244390"


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
    kind, plain, *_ = _codec(cert, CERT_KINDS, "certificate")
    return "|".join([kind, *[str(getattr(cert, n)) for n, _ in plain]])


_sha256 = None


def sha256(data: bytes = b""):
    """A SHA-256 object over ``data``: the package's one door to hashing,
    imported on first use, so ``check``, which hashes nothing, loads none.
    It is CPython's own (``_sha2`` from 3.12, ``_sha256`` before); hashlib,
    which maps OpenSSL's libcrypto (3.4 MB), serves a build with neither."""
    global _sha256
    if _sha256 is None:
        for name in ("_sha2", "_sha256", "hashlib"):
            try:
                _sha256 = __import__(name).sha256
                break
            except ImportError:
                pass
    return _sha256(data)


def _digest(parts: str) -> str:
    return sha256(parts.encode()).hexdigest()[:32]  # 128 bits


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
# Each class gets a writer and a reader, each one expression generated from
# the codec table: field names, kinds and constant text, never a value read
# from a trace.  The writer fills a template whose keys are sorted and whose
# kind is baked in.  The reader builds the object from parsed JSON with no
# type walk, and a text is taken only if the writer gives back exactly that
# text: the one comparison checks every value's type and spelling.


def _fields(cls) -> tuple[tuple, tuple, bool]:
    """A dataclass's plain fields with the types each may hold (Optional:
    either), its certificate fields with the classes each may hold (both in
    declaration order, signers left out), and whether it carries a block."""
    hints = get_type_hints(cls)
    plain, certs, block = [], [], False
    for f in fields(cls):
        args = get_args(hints[f.name]) or (hints[f.name],)
        if Block in args:
            block = True
        elif CERT_KINDS.keys() & set(args):
            certs.append((f.name, frozenset(args)))
        elif f.name != "signers":
            plain.append((f.name, args))
    return tuple(plain), tuple(certs), block


# type -> (kind, plain, certs, block), which the writers and readers below
# are made from, and kind -> type
_CODEC = {cls: (kind, *_fields(cls)) for cls, kind in {
    **CERT_KINDS, **{cls: kind for cls, (kind, _) in MESSAGE_KINDS.items()}
}.items()}
_BY_KIND = {kind: cls for cls, (kind, *_) in _CODEC.items()}
_, ((_, _PARENT_KINDS),), _ = _fields(Block)


def _codec(obj, kinds: dict, what: str) -> tuple:
    """The codec entry of ``obj``, which must be one of ``kinds``."""
    if type(obj) not in kinds:
        raise TypeError(f"not a {what}: {obj!r}")
    return _CODEC[type(obj)]


def message_variant(msg: WireMessage) -> str:
    return _codec(msg, MESSAGE_KINDS, "wire message")[0]


def message_certs(msg: WireMessage) -> list[Certificate]:
    """The certificates a message carries, its block's parent first."""
    _, _, names, block = _codec(msg, MESSAGE_KINDS, "wire message")
    certs = []
    if block and msg.block.parent_qc is not None:  # None only for genesis
        certs.append(msg.block.parent_qc)
    for n, _ in names:
        cert = getattr(msg, n)
        if cert is not None:  # optional slots may be empty
            certs.append(cert)
    return certs


def _slot(cert: Optional[Certificate]) -> str:
    if cert is None:
        return "null"
    try:
        return _writer(type(cert))(cert)
    except (TypeError, OverflowError):
        raise ValueError(f"certificate fields hold {vars(cert)!r}") from None


def _signers(signers: frozenset) -> str:
    try:  # a sorted list of ints prints as JSON once its spaces go
        return str(sorted(map(index, signers))).replace(" ", "")
    except TypeError:
        raise ValueError(
            f"certificate signers {signers!r} are not ids") from None


# a value's placeholder and expression, by the types its field may hold
_FORMATS = {(int,): ("%d", "o.{}"), (str,): ("%s", "esc(o.{})"),
            (int, type(None)): ("%s", '("null" if o.{0} is None '
                                      'else "%d" % o.{0})')}
_BODY = "%s", "%r %% (%s)" % (
    '{"id":%s,"parent":%s,"payload":[%s,%d],"round":%d,"view":%d}',
    "esc(o.block.id), slot(o.block.parent_qc), "
    "esc(o.block.payload.payload_id), o.block.payload.size_bytes, "
    "o.block.round, o.block.view")


def _fill(cls, fallback: bool) -> str:
    """The expression of the text of an object ``o`` of ``cls``.  A regular
    block goes under "block", a fallback block's body under "inner" with
    its height and proposer beside it."""
    kind, plain, certs, block = _CODEC[cls]
    parts = {"kind": (f'"{kind}"', "")}  # key -> (template text, expression)
    for name, types in plain:
        placeholder, expression = _FORMATS[types]
        parts[name] = placeholder, expression.format(name)
    parts.update((name, ("%s", f"slot(o.{name})")) for name, _ in certs)
    if cls in CERT_KINDS:
        parts["signers"] = "%s", "signers(o.signers)"
    if block:
        parts.update({"inner": _BODY, "height": ("%d", "o.block.height"),
                      "proposer": ("%d", "o.block.proposer")} if fallback
                     else {"block": _BODY})
    keys = sorted(parts)
    template = "{%s}" % ",".join(f'"{k}":{parts[k][0]}' for k in keys)
    return "%r %% (%s,)" % (template, ", ".join(
        parts[k][1] for k in keys if parts[k][1]))


@cache  # made on first use, so that an import makes none
def _writer(cls) -> Callable[[object], str]:
    """The function from an object of ``cls`` to its canonical text."""
    text = _fill(cls, False)
    if _CODEC[cls][3]:  # a block: regular, or fallback if it has a height
        text = f"{text} if o.block.height is None else {_fill(cls, True)}"
    return eval(f"lambda o: {text}", {"esc": encode_basestring_ascii,
                                      "slot": _slot, "signers": _signers})


def _block(d: dict) -> Block:
    """The block of a parsed message: a regular one under "block", or a
    fallback one's body under "inner" with its height and proposer beside
    it."""
    body, height, proposer = ((d["inner"], d["height"], d["proposer"])
                              if "inner" in d else (d["block"], None, None))
    return Block(body["id"], _build(body["parent"], _PARENT_KINDS),
                 body["round"], body["view"], TxnBatch(*body["payload"]),
                 height, proposer)


@cache
def _reader(cls) -> Callable[[dict], object]:
    """The function from an object of ``cls`` as parsed JSON to the object:
    its fields in declaration order, as parsed, for the writer to check."""
    slots = dict(_CODEC[cls][2])
    values = [f"build(d[{n!r}], slots[{n!r}])" if n in slots
              else {"signers": 'frozenset(d["signers"])',
                    "block": "block(d)"}.get(n, f"d[{n!r}]")
              for n in (f.name for f in fields(cls))]
    return eval(f"lambda d: cls({', '.join(values)})",
                {"cls": cls, "block": _block, "build": _build, "slots": slots})


def _build(d, admits):
    """The certificate or message the parsed JSON ``d`` spells, which must
    be of one of the classes ``admits``: a message, or what a certificate
    slot's annotation admits (the class ``NoneType`` for an empty optional
    slot)."""
    if d is None and type(None) in admits:
        return None
    try:
        cls = _BY_KIND[d["kind"]]
    except (KeyError, TypeError):  # no kind, or not one of ours
        cls = None
    if cls not in admits:
        if admits is MESSAGE_KINDS:
            raise ValueError(f"unknown message kind: {d['kind']!r}")
        raise ValueError(f"certificate slot holds {d!r}")
    return _reader(cls)(d)


def write_message(msg: WireMessage) -> str:
    """A message's canonical text: sorted keys, no spaces, ASCII only."""
    _codec(msg, MESSAGE_KINDS, "wire message")
    return _writer(type(msg))(msg)


def _checked(msg: WireMessage, text: str) -> WireMessage:
    """``msg``, if ``text`` is exactly what the writer writes for it."""
    try:
        canonical = _writer(type(msg))(msg)
    except (TypeError, OverflowError):
        raise ValueError(f"message fields hold {vars(msg)!r}") from None
    if canonical != text:
        raise ValueError("message is not in canonical form")
    return msg


def read_message(text: str) -> WireMessage:
    """The message whose canonical text is ``text``.  Any other spelling of
    it or of anything in it is refused, as is a certificate of a kind its
    slot does not admit."""
    return _checked(_build(json.loads(text), MESSAGE_KINDS), text)


# dict shims over the text codec, kept for the benchmark's codec timing
def encode_message(msg: WireMessage) -> dict:
    return json.loads(write_message(msg))


def decode_message(d: dict) -> WireMessage:
    return _checked(_build(d, MESSAGE_KINDS),
                    json.dumps(d, sort_keys=True, separators=(",", ":")))


# --- run configuration -----------------------------------------------------
# The vocabulary a scenario, a trace header and the checker share with the
# replica; none of it needs the replica's code.

THREE_CHAIN = "three_chain"
TWO_CHAIN = "two_chain"
VARIANTS = (THREE_CHAIN, TWO_CHAIN)

BASELINE_TC = "baseline_tc"
ASYNC_FALLBACK = "async_fallback"
PACEMAKERS = (BASELINE_TC, ASYNC_FALLBACK)

# replicas a run may have: a run builds one replica per id and a checker
# one set entry, so a larger n is refused before anything is built
MAX_N = 1_000
# ticks a run may last: replay re-simulates to a header's horizon, so a
# longer one is refused before anything runs
MAX_HORIZON = 100_000


def quorum_threshold(f: int) -> int:
    return 2 * f + 1


def coin_threshold(f: int) -> int:
    return f + 1


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ReplicaConfig:
    n: int
    f: int
    variant: str = THREE_CHAIN
    pacemaker: str = ASYNC_FALLBACK
    timeout_duration: int = 50
    leader_rotation_period: int = 4
    adopt_foreign_fchains: bool = False
    run_seed: int = 0

    def validate(self) -> None:
        if self.n > MAX_N:
            raise ConfigError(f"n={self.n} exceeds MAX_N={MAX_N}")
        if self.f < 1:
            raise ConfigError(f"f must be >= 1, got {self.f}")
        if self.n != 3 * self.f + 1:
            raise ConfigError(f"n must equal 3f+1: n={self.n}, f={self.f}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant: {self.variant}")
        if self.pacemaker not in PACEMAKERS:
            raise ConfigError(f"unknown pacemaker: {self.pacemaker}")
        if self.timeout_duration < 1:
            raise ConfigError("timeout_duration must be >= 1")
        if self.leader_rotation_period < 1:
            raise ConfigError("leader_rotation_period must be >= 1")

    @property
    def quorum(self) -> int:
        return quorum_threshold(self.f)

    @property
    def adopts(self) -> bool:
        # the 2-chain variant is only live if replicas extend foreign chains
        return self.variant == TWO_CHAIN or self.adopt_foreign_fchains

    @property
    def fallback_top_height(self) -> int:
        return 2 if self.variant == TWO_CHAIN else 3


# --- output actions --------------------------------------------------------


@dataclass(frozen=True)
class Send:
    to: int
    msg: WireMessage


@dataclass(frozen=True)
class Multicast:
    msg: WireMessage


@dataclass(frozen=True)
class SetTimer:
    round: int
    duration: int


@dataclass(frozen=True)
class CommitNotice:
    block_ids: tuple[str, ...]  # newly committed, oldest first


OutputAction = Union[Send, Multicast, SetTimer, CommitNotice]
