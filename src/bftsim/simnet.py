"""Deterministic discrete-event network simulation.

Time is integer ticks.  A single seeded RNG drives every delay draw, events
are totally ordered by (time, sequence number), and replicas are stepped one
event at a time, so a (config, adversary, horizon, seed) tuple always
produces the identical trace.  The adversary controls per-message delays
within its model's bounds and may make up to f replicas misbehave, but it
never sees message contents or the coin seed.
"""

from __future__ import annotations

import heapq
import io
import itertools
import json
import os
import random
import re
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple, Optional, Union

from . import crypto
from .core import (GENESIS_ID, MAX_HORIZON, MESSAGE_SIZE_UNITS, CommitNotice,
                   ConfigError, FBProposal, Multicast, OutputAction,
                   Proposal, ReplicaConfig, Send, SetTimer, TxnBatch,
                   WireMessage, make_block, message_variant, read_message,
                   sha256, value_types, write_message)

TRACE_FORMAT = "bftsim-trace-v2"

# Where a producer hands each record: the trace's own list, or a fold.
Sink = Callable[[dict], None]

# The fields each record kind must carry and their JSON types.  A deliver
# also carries its message as "m" or names the send that does as "sq".
_RECORD_FIELDS = {
    "send": {"frm": int, "to": int, "m": dict, "u": int},
    "deliver": {"frm": int, "to": int, "self": bool},
    "timer_fire": {"rid": int, "round": int},
    "commit": {"rid": int, "blocks": list, "log_len": int},
}
_DELIVER_REFS = ({"m": dict}, {"sq": int})


# A slot's placeholder in a shape's template, and the pattern of its
# canonical text: an int or bool, or the shape's one dict or list field,
# captured from its bracket on, since only scalars follow it.
_SLOTS = {int: ("%d", "(0|-?[1-9][0-9]*)"), bool: ("%s", "(true|false)"),
          dict: ("%s", r"(\{.*)"), list: ("%s", r"(\[.*)")}


def _shape(kind: str, fields: dict) -> tuple:
    """A record shape: its canonical line as a bytes template and as the
    source of a bytes pattern, both with the keys sorted and the kind baked
    in, and the field names and their types in the same sorted order."""
    fields = {"t": int, "q": int, "kind": str, **fields}
    keys = sorted(fields)
    def part(key: str) -> tuple[str, str]:
        if key == "kind":
            return f'"kind":"{kind}"', re.escape(f'"kind":"{kind}"')
        placeholder, text = _SLOTS[fields[key]]
        return f'"{key}":{placeholder}', re.escape(f'"{key}":') + text

    template, pattern = map(",".join, zip(*map(part, keys)))
    return (("{%s}\n" % template).encode(), (r"\{%s\}\n" % pattern).encode(),
            tuple(keys), tuple(map(fields.get, keys)))


# (kind, names its send by "sq") -> the shape its lines have
_SHAPES = {(kind, "sq" in ref): _shape(kind, {**fields, **ref})
           for kind, fields in _RECORD_FIELDS.items()
           for ref in (_DELIVER_REFS if kind == "deliver" else ({},))}


class TraceFormatError(ValueError):
    """A trace file that cannot be read as a v2 trace."""


# --- adversary models -------------------------------------------------------
# Each draws one unicast's delay from the run's rng, seeing only the message
# variant and the clock, and reports its delay ranges to validate.


def draw(rng: random.Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)`` by CPython's own algorithm, pinned here so
    that traces do not depend on how ``random`` implements it: take
    width.bit_length() bits until they fall below the width.  A width of 1
    still consumes a draw."""
    width = hi - lo + 1
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return lo + r


class Synchronous(NamedTuple):
    """Every message delayed uniformly in [1, delta]."""

    delta: int = 1

    def delay(self, variant: str, now: int, rng) -> int:
        return draw(rng, 1, self.delta)

    def ranges(self) -> tuple[tuple[int, int], ...]:
        return ((1, self.delta),)


class PartialSynchrony(NamedTuple):
    """Arbitrary bounded delays before gst, synchronous afterwards."""

    gst: int
    delta: int = 1
    pre_gst_delay_bound: int = 30

    def delay(self, variant: str, now: int, rng) -> int:
        if now < self.gst:
            # delivery by max(now, gst) + delta even if the draw overshoots
            late = now + draw(rng, 1, self.pre_gst_delay_bound)
            return min(late, self.gst + draw(rng, 1, self.delta)) - now
        return draw(rng, 1, self.delta)

    def ranges(self) -> tuple[tuple[int, int], ...]:
        return (1, self.delta), (1, self.pre_gst_delay_bound)


class Asynchronous(NamedTuple):
    """Per-message delays; ranges can differ per message variant, which lets
    the adversary e.g. starve proposals while timeouts flow freely."""

    base_delay: tuple[int, int] = (1, 10)
    per_variant: DelayTable = ()

    def delay(self, variant: str, now: int, rng) -> int:
        for name, (lo, hi) in self.per_variant:
            if name == variant:
                return draw(rng, lo, hi)
        return draw(rng, *self.base_delay)

    def ranges(self) -> tuple[tuple[int, int], ...]:
        return (self.base_delay, *(rng for _, rng in self.per_variant))


DelayTable = tuple[tuple[str, tuple[int, int]], ...]  # (variant, (lo, hi))
AdversaryModel = Union[Synchronous, PartialSynchrony, Asynchronous]


# --- fault specs -------------------------------------------------------------
# Each decides when its replica is down, how it rewrites the replica's
# outputs, and whether it is Byzantine; the checker holds every other
# replica's commits to safety.  ``byzantine`` is a class attribute, no field.


class Honest(NamedTuple):
    """Follows the protocol; the methods other faults take unchanged."""

    byzantine = False

    def down(self, now: int) -> bool:
        return False

    def rewrite(self, actions: list[OutputAction], n: int) -> list[OutputAction]:
        return actions


class Crash(NamedTuple):
    at: int  # silent from this tick on
    byzantine, rewrite = False, Honest.rewrite

    def down(self, now: int) -> bool:
        return now >= self.at


class MuteLeader(NamedTuple):
    """Never sends proposals (regular or fallback); participates otherwise."""

    byzantine, down = True, Honest.down

    def rewrite(self, actions: list[OutputAction], n: int) -> list[OutputAction]:
        return [a for a in actions  # a Send or Multicast carries a msg
                if not isinstance(getattr(a, "msg", None),
                                  (Proposal, FBProposal))]


class Equivocate(NamedTuple):
    """As leader, sends conflicting proposals to the two halves of the
    network instead of one block to everyone."""

    byzantine, down = True, Honest.down

    def rewrite(self, actions: list[OutputAction], n: int) -> list[OutputAction]:
        out: list[OutputAction] = []
        for a in actions:
            if not (isinstance(a, Multicast) and isinstance(a.msg, Proposal)):
                out.append(a)
                continue
            p, b = a.msg, a.msg.block
            alt = make_block(b.parent_qc, b.round, b.view,
                             TxnBatch(b.payload.payload_id + "~alt",
                                      b.payload.size_bytes))
            twin = Proposal(alt, p.sender, p.coin_qc)
            out += [Send(j, p if j < n // 2 else twin) for j in range(n)]
        return out


FaultSpec = Union[Honest, Crash, MuteLeader, Equivocate]


class AdversarySpec(NamedTuple):
    model: AdversaryModel
    faults: tuple[tuple[int, FaultSpec], ...] = ()

    def fault_of(self, rid: int) -> FaultSpec:
        return next((spec for r, spec in self.faults if r == rid), Honest())

    def validate(self, config: ReplicaConfig) -> None:
        rids = [r for r, _ in self.faults]
        if len(set(rids)) != len(rids):
            raise ConfigError("duplicate fault assignments")
        # every fault but an explicit honest entry counts, crash included
        byz = [r for r, s in self.faults if s != Honest()]
        if len(byz) > config.f:
            raise ConfigError(f"{len(byz)} faulty replicas exceeds f={config.f}")
        for r in rids:
            if not 0 <= r < config.n:
                raise ConfigError(f"fault for unknown replica {r}")
        for lo, hi in self.model.ranges():
            if not 1 <= lo <= hi:
                raise ConfigError(f"bad delay range {lo}..{hi} in {self.model}")


# --- trace -------------------------------------------------------------------


MODEL_KINDS = {"synchronous": Synchronous,
               "partial_synchrony": PartialSynchrony,
               "asynchronous": Asynchronous}
FAULT_KINDS = {"honest": Honest, "crash": Crash, "mute_leader": MuteLeader,
               "equivocate": Equivocate}
value_types(AdversarySpec, *MODEL_KINDS.values(), *FAULT_KINDS.values())


def kind_name(spec, kinds: dict) -> str:
    return next(name for name, cls in kinds.items() if type(spec) is cls)


def _encode_spec(spec, kinds: dict, tag: str) -> dict:
    """A delay model or fault as its kind name under ``tag``, plus fields."""
    return {tag: kind_name(spec, kinds), **spec._asdict()}


def _decode_spec(d: dict, kinds: dict, tag: str):
    def tuples(v):
        return tuple(map(tuples, v)) if isinstance(v, list) else v
    return kinds[d[tag]](**{k: tuples(v) for k, v in d.items() if k != tag})


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _line(obj) -> bytes:
    """Canonical compact JSON: sorted keys, no spaces, one line."""
    return _CANONICAL.encode(obj).encode() + b"\n"


def header(config: ReplicaConfig, adversary: AdversarySpec,
           horizon: int) -> dict:
    """A run's header, but for the ``undelivered`` count known at its end
    and the ``digest``."""
    return {
        "format": TRACE_FORMAT,
        "protocol": config._asdict(),
        "adversary": _encode_spec(adversary.model, MODEL_KINDS, "model"),
        "faults": {str(r): _encode_spec(s, FAULT_KINDS, "fault")
                   for r, s in adversary.faults},
        "horizon": horizon,
        "prf": crypto.PRF_ID,
        "genesis_id": GENESIS_ID,
    }


def _first_difference(theirs: dict, ours: dict, path: str = "") -> str:
    """Where a header from a file first differs from the one a run writes:
    the key's path, then the run's value and the file's (None if absent)."""
    key = next(k for k in [*theirs, *ours] if k not in theirs.keys() & ours
               or _line(theirs[k]) != _line(ours[k]))
    got, want = theirs.get(key), ours.get(key)
    if type(got) is dict and type(want) is dict:
        return _first_difference(got, want, f"{path}{key}.")
    return f"{path}{key} is not {want!r} but {got!r}"


def _ids(ids: list[str]) -> str:
    """A commit's block ids as canonical JSON."""
    return "[%s]" % ",".join(map(encode_basestring_ascii, ids))


def _formatter():
    """A function from a record to its canonical line, its values filled
    into its shape's template.  A deliver with an ``sq`` omits ``m``: the
    send it names carries it.  Each message is encoded once: a multicast's
    sends are adjacent, so the bytes of the last message are kept."""
    send, by_m, by_sq, timer_fire, commit = (
        _SHAPES[shape][0] for shape in (("send", False), ("deliver", False),
                                        ("deliver", True),
                                        ("timer_fire", False),
                                        ("commit", False)))
    boolean = (b"false", b"true")
    last_msg = text = None

    def message(msg: WireMessage) -> bytes:
        nonlocal last_msg, text
        if msg is not last_msg:
            last_msg = msg
            text = write_message(msg).encode()
        return text

    def line(rec: dict) -> bytes:
        kind = rec["kind"]
        if kind == "deliver":
            if "sq" in rec:
                return by_sq % (rec["frm"], rec["q"], boolean[rec["self"]],
                                rec["sq"], rec["t"], rec["to"])
            return by_m % (rec["frm"], message(rec["m"]), rec["q"],
                           boolean[rec["self"]], rec["t"], rec["to"])
        if kind == "send":
            return send % (rec["frm"], message(rec["m"]), rec["q"], rec["t"],
                           rec["to"], rec["u"])
        if kind == "commit":
            return commit % (_ids(rec["blocks"]).encode(),
                             rec["log_len"], rec["q"], rec["rid"], rec["t"])
        return timer_fire % (rec["q"], rec["rid"], rec["round"], rec["t"])

    return line


class Trace:
    """Run log: config snapshot plus one record per send/deliver/timer/commit.

    Records keep live message objects in memory; ``lines`` encodes each one
    once, to the exact bytes the trace file stores and the digest covers.
    A trace whose records went to another sink holds none.
    """

    def __init__(self, meta: dict, records: Optional[list[dict]] = None,
                 stored_digest: Optional[str] = None):
        self.meta, self.records = meta, [] if records is None else records
        self.stored_digest = stored_digest  # from a trace file's header

    def lines(self):
        """One canonical line per record, formatted from its shape."""
        return map(_formatter(), self.records)

    def digest(self) -> str:
        return self.to_jsonl(os.devnull)

    def to_jsonl(self, path: str) -> str:
        """Write the trace in one pass; return the sha256 of its lines, the
        header hashed without the digest, which then overwrites a placeholder."""
        h = sha256(_line(self.meta))
        with open(path, "wb") as fh:
            write = fh.write
            write(_line(dict(self.meta, digest="0" * 64)))
            for line in self.lines():
                h.update(line)
                write(line)
            digest = h.hexdigest()
            fh.seek(0)
            write(_line(dict(self.meta, digest=digest)))
        return digest

    @classmethod
    def from_jsonl(cls, path: str, sink: Optional[Sink] = None) -> "Trace":
        """Load the trace file at ``path``; see ``read``."""
        with open(path, "rb") as fh:
            return cls.read(fh, path, sink)

    @classmethod
    def read(cls, fh, path: str, sink: Optional[Sink] = None) -> "Trace":
        """Read the trace in the binary file ``fh`` (``path`` in errors),
        handing each record to ``sink`` as it is read; with no sink, the
        returned trace holds them.  The one judge of a trace file: a record
        line must be the canonical line of the shape its kind picks, which
        the shape's reader checks; a message and a commit's ids must be
        canonical too.  Only undelivered sends are kept, for an ``sq``."""
        last_text = last_msg = None
        # send q -> its message and endpoints
        sent: dict[int, tuple[WireMessage, int, int]] = {}

        def message(text: bytes) -> WireMessage:
            nonlocal last_text, last_msg
            if text != last_text:  # a multicast's sends are adjacent
                last_msg = read_message(text.decode())
                last_text = text
            return last_msg

        def send(frm, m, q, t, to, u) -> dict:
            frm, m, q, to = int(frm), message(m), int(q), int(to)
            sent[q] = m, frm, to
            return {"frm": frm, "kind": "send", "m": m, "q": q, "t": int(t),
                    "to": to, "u": int(u)}

        def by_sq(frm, q, self, sq, t, to) -> dict:
            frm, sq, to = int(frm), int(sq), int(to)
            if sq not in sent:
                raise ValueError(f"no send for sq {sq}")
            m, sent_frm, sent_to = sent.pop(sq)
            if (sent_frm, sent_to) != (frm, to) or self == b"true":
                raise ValueError(f"deliver disagrees with send {sq} "
                                 f"({sent_frm} -> {sent_to}, not self)")
            return {"frm": frm, "kind": "deliver", "m": m, "q": int(q),
                    "self": False, "sq": sq, "t": int(t), "to": to}

        def by_m(frm, m, q, self, t, to) -> dict:
            frm, m, to = int(frm), message(m), int(to)
            if self != b"true" or frm != to:
                raise ValueError("a deliver with m must be to itself")
            return {"frm": frm, "kind": "deliver", "m": m, "q": int(q),
                    "self": True, "t": int(t), "to": to}

        def timer_fire(q, rid, round, t) -> dict:
            return {"kind": "timer_fire", "q": int(q), "rid": int(rid),
                    "round": int(round), "t": int(t)}

        def commit(blocks, log_len, q, rid, t) -> dict:
            # the captured list must be exactly the ids' canonical text
            text = blocks.decode()
            try:
                canonical = _ids(blocks := json.loads(text))
            except TypeError:
                raise ValueError("commit blocks must be ids") from None
            if canonical != text:
                raise ValueError("commit blocks are not in canonical form")
            return {"blocks": blocks, "kind": "commit",
                    "log_len": int(log_len), "q": int(q), "rid": int(rid),
                    "t": int(t)}

        readers = {("send", False): send, ("deliver", True): by_sq,
                   ("deliver", False): by_m, ("timer_fire", False): timer_fire,
                   ("commit", False): commit}
        # what tells the shapes apart: the kind and the key after it, as
        # in deliver","m
        by_tag = {f'{kind}","{names[names.index("kind") + 1]}'.encode():
                  (re.compile(pattern).fullmatch, readers[kind, by_sq])
                  for (kind, by_sq), (_, pattern, names, _) in _SHAPES.items()}
        no_shape = (lambda line: None, None)
        trace = cls.read_header(fh, path)
        sink = sink or trace.records.append
        for no, line in enumerate(fh, 2):
            try:
                # a commit's blocks come before its kind, but a list of
                # ids cannot hold the text "kind":"
                at = line.find(b'"kind":"') + 8
                match, read = by_tag.get(line[at:line.find(b'":', at)],
                                         no_shape)
                if not (found := match(line)):
                    raise ValueError("not a record shape's canonical line"
                                     if line.endswith(b"\n") else
                                     "last record line is truncated")
                rec = read(*found.groups())
            except (ValueError, KeyError, TypeError, RecursionError) as exc:
                raise TraceFormatError(f"{path} line {no}: {exc!r}")
            sink(rec)
        return trace

    @classmethod
    def read_header(cls, fh, path: str) -> "Trace":
        """The record-less trace from the header line of ``fh``, taken if
        the scenario that spells it gives it back (but for the str
        ``digest`` and the int ``undelivered``) and its run could start."""
        from .scenario import respelled  # a run has no need of it

        try:
            meta = json.loads(fh.readline())
            trace = cls(meta, [], meta.pop("digest"))
            if type(meta["undelivered"]) is not int or type(
                    trace.stored_digest) is not str:
                raise TypeError("undelivered is not int or digest not str")
            cfg = respelled(trace.protocol, trace.adversary, meta["horizon"])
            ours = _line(dict(header(cfg.protocol, cfg.adversary, cfg.horizon),
                              undelivered=meta["undelivered"]))
            if _line(meta) != ours:
                raise ValueError(_first_difference(meta, json.loads(ours)))
            validate(cfg.protocol, cfg.adversary, cfg.horizon)
        except (ValueError, KeyError, TypeError, AttributeError,
                RecursionError) as exc:
            raise TraceFormatError(f"{path}: bad header: {exc!r}")
        return trace

    # convenience accessors used by analysis and the CLI

    @property
    def protocol(self) -> ReplicaConfig:
        return ReplicaConfig(**self.meta["protocol"])

    @property
    def adversary(self) -> AdversarySpec:
        faults = tuple(sorted((int(r), _decode_spec(d, FAULT_KINDS, "fault"))
                              for r, d in self.meta["faults"].items()))
        model = _decode_spec(self.meta["adversary"], MODEL_KINDS, "model")
        return AdversarySpec(model, faults)

    @property
    def horizon(self) -> int:
        return self.meta["horizon"]


# --- fault harness -----------------------------------------------------------


class _Harness:
    """Wraps one replica, applying its assigned fault to inputs/outputs."""

    def __init__(self, replica: Replica, fault: FaultSpec):
        self.replica = replica
        self.fault = fault

    def init(self, now: int) -> list[OutputAction]:
        return self._step(now, self.replica.init)

    def on_message(self, msg: WireMessage, frm: int, now: int) -> list[OutputAction]:
        return self._step(now, self.replica.handle_message, msg, frm)

    def on_timer(self, round: int, now: int) -> list[OutputAction]:
        return self._step(now, self.replica.handle_timer_expiry, round)

    def _step(self, now: int, handle, *args) -> list[OutputAction]:
        if self.fault.down(now):
            return []
        return self.fault.rewrite(handle(*args), self.replica.config.n)


# --- simulation --------------------------------------------------------------


def validate(config: ReplicaConfig, adversary: AdversarySpec,
             horizon: int) -> None:
    """Raise ConfigError unless the run can start."""
    config.validate()
    adversary.validate(config)
    if horizon < 1:
        raise ConfigError(f"horizon {horizon} precedes the first event")
    if horizon > MAX_HORIZON:
        raise ConfigError(f"horizon {horizon} exceeds "
                          f"MAX_HORIZON={MAX_HORIZON}")


class Simulation:
    def __init__(self, config: ReplicaConfig, adversary: AdversarySpec,
                 horizon: int):
        # only a run needs the replica's code; reading a trace does not
        from .replica import Replica

        validate(config, adversary, horizon)
        self.config = config
        self.adversary = adversary
        self.horizon = horizon
        self.rng = random.Random(config.run_seed)
        self.delay = adversary.model.delay
        self.seq = itertools.count()
        self.heap: list[tuple] = []
        self.alive_timer: dict[int, int] = {}  # rid -> its one live token
        # the order a multicast's copies are sent in, which fixes the rng
        # draws: the sender's free self-delivery first, then id order
        self.multicast_to = [(i, *range(i), *range(i + 1, config.n))
                             for i in range(config.n)]
        self.harnesses = [
            _Harness(Replica(config, i), adversary.fault_of(i))
            for i in range(config.n)
        ]
        self.trace = Trace(header(config, adversary, horizon))
        self.record = self.trace.records.append

    def run(self, sink: Optional[Sink] = None) -> Trace:
        """Simulate to the horizon.  With no sink, the returned trace holds
        the records.  A sink is handed them in order, a batch at a time,
        and the trace keeps none: calling a sink between two simulation
        steps measured 5-15% slower (steady_long, 2-core VM, CPython
        3.11)."""
        held = self.trace.records

        def hand_over() -> None:
            for rec in held:
                sink(rec)
            held.clear()

        for i in range(self.config.n):
            self._emit(i, self.harnesses[i].init(0), 0)
        while self.heap and self.heap[0][0] <= self.horizon:
            if sink and len(held) >= 1024:
                hand_over()
            t, q, kind, data = heapq.heappop(self.heap)
            if kind == "deliver":
                frm, to, msg, sq = data
                rec = {"t": t, "q": q, "kind": "deliver", "frm": frm,
                       "to": to, "m": msg, "self": frm == to}
                if sq is not None:
                    rec["sq"] = sq  # sequence number of the matching send
                self.record(rec)
                self._emit(to, self.harnesses[to].on_message(msg, frm, t), t)
            else:
                rid, round, token = data
                if self.alive_timer[rid] != token:
                    continue  # superseded by a later SetTimer
                self.record({"t": t, "q": q, "kind": "timer_fire", "rid": rid,
                             "round": round})
                self._emit(rid, self.harnesses[rid].on_timer(round, t), t)
        if sink:
            hand_over()
        self.trace.meta["undelivered"] = sum(
            1 for ev in self.heap if ev[2] == "deliver")
        return self.trace

    def _emit(self, rid: int, actions: list[OutputAction], now: int) -> None:
        for act in actions:
            kind = type(act)
            if kind is Send:
                self._send(rid, (act.to,), act.msg, now)
            elif kind is Multicast:
                self._send(rid, self.multicast_to[rid], act.msg, now)
            elif kind is SetTimer:
                token = next(self.seq)
                self.alive_timer[rid] = token
                heapq.heappush(self.heap, (now + act.duration, next(self.seq),
                                           "timer", (rid, act.round, token)))
            elif kind is CommitNotice:
                self.record(
                    {"t": now, "q": next(self.seq), "kind": "commit",
                     "rid": rid, "blocks": list(act.block_ids),
                     "log_len": len(self.harnesses[rid].replica.state.committed)})
            else:
                raise TypeError(f"unknown action: {act!r}")

    def _send(self, frm: int, tos: tuple[int, ...], msg: WireMessage,
              now: int) -> None:
        """One message to each of ``tos`` in order; its variant and size
        are worked out once for all the copies."""
        variant = message_variant(msg)
        units = MESSAGE_SIZE_UNITS[variant]
        for to in tos:
            if to == frm:
                # immediate and free: same tick, next sequence number
                heapq.heappush(self.heap, (now, next(self.seq), "deliver",
                                           (frm, to, msg, None)))
                continue
            delay = self.delay(variant, now, self.rng)
            sq = next(self.seq)
            self.record({"t": now, "q": sq, "kind": "send", "frm": frm,
                         "to": to, "m": msg, "u": units})
            heapq.heappush(self.heap, (now + delay, next(self.seq), "deliver",
                                       (frm, to, msg, sq)))


def run(config: ReplicaConfig, adversary: AdversarySpec, horizon: int,
        sink: Optional[Sink] = None) -> Trace:
    """One simulation, one trace; see Simulation.run for ``sink``."""
    return Simulation(config, adversary, horizon).run(sink)


def replay(path: str) -> tuple[Trace, str, str, Optional[tuple]]:
    """Re-run a trace file's scenario beside the file: the record-less
    trace from its header, the digests of the file as stored and of the
    re-run, and where the two first differ, or None: the line number and
    that line in the file and in the run (line 1 is the header, without
    its digest), None on a side that has ended.  A matching file is never
    parsed.  One that differs, or lacks its last newline, is read whole by
    ``Trace.read``, as ``check`` reads it; one it takes is run again, and
    hashed under the run's own header, for the run's true digest."""
    with open(path, "rb") as fh:
        if not fh.seekable():  # a pipe: held, so it can be read again
            fh = io.BytesIO(fh.read())
        stored = Trace.read_header(fh, path)

        def judge() -> None:  # raises where check refuses the file
            fh.seek(0)
            Trace.read(fh, path, lambda rec: None)

        start = fh.tell()
        fh.seek(max(start, fh.seek(0, 2) - 1))
        if fh.read(1) not in (b"", b"\n"):  # a cut last line
            judge()
        fh.seek(start)
        readline, line = fh.readline, _formatter()
        h, first, no = sha256(_line(stored.meta)), None, 1

        def compare(rec: dict) -> None:
            nonlocal no, first
            no += 1
            mine, theirs = line(rec), readline()
            if first is None and mine != theirs:
                first = no, theirs or None, mine
            h.update(theirs)

        rerun = run(stored.protocol, stored.adversary, stored.horizon, compare)
        # the file's lines beyond the run's
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            if first is None:
                first = no + 1, chunk.partition(b"\n")[0], None
            h.update(chunk)
        recomputed = h.hexdigest()
        same_header = rerun.meta["undelivered"] == stored.meta["undelivered"]
        if not first and same_header and recomputed == stored.stored_digest:
            return stored, recomputed, recomputed, None
        judge()
    h, line = sha256(_line(rerun.meta)), _formatter()
    run(stored.protocol, stored.adversary, stored.horizon,
        lambda rec: h.update(line(rec)))
    replayed = h.hexdigest()
    if not first or not same_header:
        first = (1, _line(dict(stored.meta, digest=stored.stored_digest)),
                 _line(dict(rerun.meta, digest=replayed)))
    return stored, recomputed, replayed, first
