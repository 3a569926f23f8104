"""Deterministic discrete-event network simulation.

Time is integer ticks.  A single seeded RNG drives every delay draw, events
are totally ordered by (time, sequence number), and replicas are stepped one
event at a time, so a (config, adversary, horizon, seed) tuple always
produces the identical trace.  The adversary controls per-message delays
within its model's bounds and may make up to f replicas misbehave, but it
never sees message contents or the coin seed.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import random
from dataclasses import asdict, dataclass, field
from typing import Optional, Union

from . import crypto
from .core import (FBProposal, Proposal, TxnBatch, WireMessage,
                   decode_message, encode_message, genesis_block, make_block,
                   message_size_units, message_variant)
from .replica import (CancelTimers, CommitNotice, Multicast, ConfigError,
                      OutputAction, Replica, ReplicaConfig, Send, SetTimer)

TRACE_FORMAT = "bftsim-trace-v2"
_RECORD_KINDS = ("send", "deliver", "timer_fire", "commit")


class HorizonTooSmall(ValueError):
    pass


class TraceFormatError(ValueError):
    """A trace file that cannot be read as a v2 trace."""


# --- adversary models -------------------------------------------------------


@dataclass(frozen=True)
class Synchronous:
    """Every message delayed uniformly in [1, delta]."""

    delta: int = 1


@dataclass(frozen=True)
class PartialSynchrony:
    """Arbitrary bounded delays before gst, synchronous afterwards."""

    gst: int
    delta: int = 1
    pre_gst_delay_bound: int = 30


@dataclass(frozen=True)
class Asynchronous:
    """Per-message delays; ranges can differ per message variant, which lets
    the adversary e.g. starve proposals while timeouts flow freely."""

    base_delay: tuple[int, int] = (1, 10)
    per_variant: tuple[tuple[str, tuple[int, int]], ...] = ()

    def range_for(self, variant: str) -> tuple[int, int]:
        for name, rng in self.per_variant:
            if name == variant:
                return rng
        return self.base_delay


AdversaryModel = Union[Synchronous, PartialSynchrony, Asynchronous]


def adversary_delay(model: AdversaryModel, variant: str, now: int, rng) -> int:
    """Delay for one unicast.  Deterministic given the rng state; the model
    only ever sees the message variant, never its contents."""
    if isinstance(model, Synchronous):
        return rng.randint(1, model.delta)
    if isinstance(model, PartialSynchrony):
        if now < model.gst:
            # delivery by max(now, gst) + delta even if the draw overshoots
            draw = now + rng.randint(1, model.pre_gst_delay_bound)
            return min(draw, model.gst + rng.randint(1, model.delta)) - now
        return rng.randint(1, model.delta)
    if isinstance(model, Asynchronous):
        lo, hi = model.range_for(variant)
        return rng.randint(lo, hi)
    raise TypeError(f"unknown adversary model: {model!r}")


# --- fault specs -------------------------------------------------------------


@dataclass(frozen=True)
class Honest:
    pass


@dataclass(frozen=True)
class Crash:
    at: int  # silent from this tick on


@dataclass(frozen=True)
class MuteLeader:
    """Never sends proposals (regular or fallback); participates otherwise."""


@dataclass(frozen=True)
class Equivocate:
    """As leader, sends conflicting proposals to the two halves of the
    network instead of one block to everyone."""


FaultSpec = Union[Honest, Crash, MuteLeader, Equivocate]


@dataclass(frozen=True)
class AdversarySpec:
    model: AdversaryModel
    faults: tuple[tuple[int, FaultSpec], ...] = ()

    def fault_of(self, rid: int) -> FaultSpec:
        for r, spec in self.faults:
            if r == rid:
                return spec
        return Honest()

    def validate(self, config: ReplicaConfig) -> None:
        rids = [r for r, _ in self.faults]
        if len(set(rids)) != len(rids):
            raise ConfigError("duplicate fault assignments")
        byz = [r for r, s in self.faults if not isinstance(s, Honest)]
        if len(byz) > config.f:
            raise ConfigError(f"{len(byz)} faulty replicas exceeds f={config.f}")
        for r in rids:
            if not 0 <= r < config.n:
                raise ConfigError(f"fault for unknown replica {r}")


# --- trace -------------------------------------------------------------------


MODEL_KINDS = {"synchronous": Synchronous,
               "partial_synchrony": PartialSynchrony,
               "asynchronous": Asynchronous}
FAULT_KINDS = {"honest": Honest, "crash": Crash, "mute_leader": MuteLeader,
               "equivocate": Equivocate}


def kind_name(spec, kinds: dict) -> str:
    return next(name for name, cls in kinds.items() if type(spec) is cls)


def _encode_spec(spec, kinds: dict, tag: str) -> dict:
    """A delay model or fault as its kind name under ``tag``, plus fields."""
    return {tag: kind_name(spec, kinds), **asdict(spec)}


def _decode_spec(d: dict, kinds: dict, tag: str):
    def tuples(v):
        return tuple(map(tuples, v)) if isinstance(v, list) else v
    return kinds[d[tag]](**{k: tuples(v) for k, v in d.items() if k != tag})


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _line(obj) -> bytes:
    """Canonical compact JSON: sorted keys, no spaces, one line."""
    return _CANONICAL.encode(obj).encode() + b"\n"


@dataclass
class Trace:
    """Run log: config snapshot plus one record per send/deliver/timer/commit.

    Records keep live message objects in memory; ``lines`` encodes each one
    once, to the exact bytes the trace file stores and the digest covers.
    """

    meta: dict
    records: list[dict] = field(default_factory=list)
    stored_digest: Optional[str] = None  # from a trace file header, if loaded

    def lines(self):
        """One canonical line per record.  A deliver with an ``sq`` omits
        ``m``: the send record it names carries the message."""
        last_msg = last_enc = None
        for rec in self.records:
            msg = rec.get("m")
            if msg is not None and "sq" in rec:
                rec = {k: v for k, v in rec.items() if k != "m"}
            elif msg is not None:
                if msg is not last_msg:  # a multicast's sends are adjacent
                    last_msg, last_enc = msg, encode_message(msg)
                rec = dict(rec, m=last_enc)
            yield _line(rec)

    def digest(self) -> str:
        return self._stream(lambda line: None)

    def to_jsonl(self, path: str) -> str:
        """Write the trace in one pass and return its digest.  The header is
        written with a same-width placeholder digest, then rewritten."""
        with open(path, "wb") as fh:
            fh.write(_line(dict(self.meta, digest="0" * 64)))
            digest = self._stream(fh.write)
            fh.seek(0)
            fh.write(_line(dict(self.meta, digest=digest)))
        return digest

    def _stream(self, write) -> str:
        """sha256 over the meta line and each record line, as written."""
        h = hashlib.sha256(_line(self.meta))
        for line in self.lines():
            h.update(line)
            write(line)
        return h.hexdigest()

    @classmethod
    def from_jsonl(cls, path: str) -> "Trace":
        with open(path, "rb") as fh:
            trace = cls._read_header(fh, path)
            sent: dict[int, WireMessage] = {}  # send q -> its message
            last_raw = last_msg = None
            for no, line in enumerate(fh, 2):
                try:
                    rec = json.loads(line)
                    if rec["kind"] not in _RECORD_KINDS:
                        raise ValueError(f"unknown kind {rec['kind']!r}")
                    if "sq" in rec:
                        if rec["sq"] not in sent:
                            raise ValueError(f"no send for sq {rec['sq']}")
                        rec["m"] = sent.pop(rec["sq"])
                    elif "m" in rec:
                        if rec["m"] != last_raw:  # multicast sends repeat it
                            last_raw = rec["m"]
                            last_msg = decode_message(last_raw)
                        rec["m"] = last_msg
                        if rec["kind"] == "send":
                            sent[rec["q"]] = last_msg
                except (ValueError, KeyError, TypeError) as exc:
                    raise TraceFormatError(f"{path} line {no}: {exc!r}")
                trace.records.append(rec)
        return trace

    @classmethod
    def scan_jsonl(cls, path: str) -> tuple["Trace", str]:
        """The record-less trace from a file's header, and the digest of the
        file as stored, hashed without decoding a record."""
        with open(path, "rb") as fh:
            trace = cls._read_header(fh, path)
            h = hashlib.sha256(_line(trace.meta))
            chunk = b"\n"
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        if not chunk.endswith(b"\n"):
            raise TraceFormatError(f"{path}: last record line is truncated")
        return trace, h.hexdigest()

    @classmethod
    def _read_header(cls, fh, path: str) -> "Trace":
        try:
            meta = json.loads(fh.readline())
            trace = cls(meta, [], meta.pop("digest"))
            if meta["format"] != TRACE_FORMAT:
                raise ValueError(f"unsupported format {meta['format']!r}")
            trace.protocol, trace.adversary, trace.horizon  # fields present
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
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


# --- byzantine wrappers ------------------------------------------------------


class _Harness:
    """Wraps one replica, applying its assigned fault to inputs/outputs."""

    def __init__(self, replica: Replica, fault: FaultSpec):
        self.replica = replica
        self.fault = fault

    def _down(self, now: int) -> bool:
        return isinstance(self.fault, Crash) and now >= self.fault.at

    def init(self, now: int) -> list[OutputAction]:
        if self._down(now):
            return []
        return self.byzantine_step(self.replica.init(), now)

    def on_message(self, msg: WireMessage, frm: int, now: int) -> list[OutputAction]:
        if self._down(now):
            return []
        return self.byzantine_step(self.replica.handle_message(msg, frm), now)

    def on_timer(self, round: int, now: int) -> list[OutputAction]:
        if self._down(now):
            return []
        return self.byzantine_step(self.replica.handle_timer_expiry(round), now)

    def byzantine_step(self, actions: list[OutputAction],
                       now: int) -> list[OutputAction]:
        if isinstance(self.fault, MuteLeader):
            return [a for a in actions
                    if not (isinstance(a, (Send, Multicast))
                            and isinstance(getattr(a, "msg", None),
                                           (Proposal, FBProposal)))]
        if isinstance(self.fault, Equivocate):
            out: list[OutputAction] = []
            for a in actions:
                if isinstance(a, Multicast) and isinstance(a.msg, Proposal):
                    out += self._equivocate(a.msg)
                else:
                    out.append(a)
            return out
        return actions

    def _equivocate(self, p: Proposal) -> list[OutputAction]:
        b = p.block
        alt = make_block(b.parent_qc, b.round, b.view,
                         TxnBatch(b.payload.payload_id + "~alt",
                                  b.payload.size_bytes))
        twin = Proposal(alt, p.sender, p.coin_qc)
        n = self.replica.config.n
        half = n // 2
        return [Send(j, p if j < half else twin) for j in range(n)]


# --- simulation --------------------------------------------------------------


class Simulation:
    def __init__(self, config: ReplicaConfig, adversary: AdversarySpec,
                 horizon: int):
        config.validate()
        adversary.validate(config)
        if horizon < 1:
            raise HorizonTooSmall(f"horizon {horizon} precedes the first event")
        self.config = config
        self.adversary = adversary
        self.horizon = horizon
        self.rng = random.Random(config.run_seed)
        self.seq = itertools.count()
        self.heap: list[tuple] = []
        self.alive_timer: dict[int, Optional[int]] = {}
        self.harnesses = [
            _Harness(Replica(config, i), adversary.fault_of(i))
            for i in range(config.n)
        ]
        meta = {
            "format": TRACE_FORMAT,
            "protocol": asdict(config),
            "adversary": _encode_spec(adversary.model, MODEL_KINDS, "model"),
            "faults": {str(r): _encode_spec(s, FAULT_KINDS, "fault")
                       for r, s in adversary.faults},
            "horizon": horizon,
            "prf": crypto.PRF_ID,
            "genesis_id": genesis_block().id,
        }
        self.trace = Trace(meta)

    def run(self) -> Trace:
        for i in range(self.config.n):
            self._emit(i, self.harnesses[i].init(0), 0)
        while self.heap and self.heap[0][0] <= self.horizon:
            t, q, kind, data = heapq.heappop(self.heap)
            if kind == "deliver":
                frm, to, msg, sq = data
                rec = {"t": t, "q": q, "kind": "deliver", "frm": frm,
                       "to": to, "m": msg, "self": frm == to}
                if sq is not None:
                    rec["sq"] = sq  # sequence number of the matching send
                self.trace.records.append(rec)
                self._emit(to, self.harnesses[to].on_message(msg, frm, t), t)
            else:
                rid, round, token = data
                if self.alive_timer.get(rid) != token:
                    continue  # cancelled or superseded
                self.alive_timer[rid] = None
                self.trace.records.append(
                    {"t": t, "q": q, "kind": "timer_fire", "rid": rid,
                     "round": round})
                self._emit(rid, self.harnesses[rid].on_timer(round, t), t)
        self.trace.meta["undelivered"] = sum(
            1 for ev in self.heap if ev[2] == "deliver")
        return self.trace

    def _emit(self, rid: int, actions: list[OutputAction], now: int) -> None:
        for act in actions:
            if isinstance(act, Send):
                self._send(rid, act.to, act.msg, now)
            elif isinstance(act, Multicast):
                self._send(rid, rid, act.msg, now)  # free self-delivery
                for j in range(self.config.n):
                    if j != rid:
                        self._send(rid, j, act.msg, now)
            elif isinstance(act, SetTimer):
                token = next(self.seq)
                self.alive_timer[rid] = token
                heapq.heappush(self.heap, (now + act.duration, next(self.seq),
                                           "timer", (rid, act.round, token)))
            elif isinstance(act, CancelTimers):
                self.alive_timer[rid] = None
            elif isinstance(act, CommitNotice):
                self.trace.records.append(
                    {"t": now, "q": next(self.seq), "kind": "commit",
                     "rid": rid, "blocks": list(act.block_ids),
                     "log_len": len(self.harnesses[rid].replica.state.committed)})
            else:
                raise TypeError(f"unknown action: {act!r}")

    def _send(self, frm: int, to: int, msg: WireMessage, now: int) -> None:
        if to == frm:
            # immediate and free: same tick, next sequence number
            heapq.heappush(self.heap, (now, next(self.seq), "deliver",
                                       (frm, to, msg, None)))
            return
        delay = adversary_delay(self.adversary.model, message_variant(msg),
                                now, self.rng)
        sq = next(self.seq)
        self.trace.records.append(
            {"t": now, "q": sq, "kind": "send", "frm": frm,
             "to": to, "m": msg, "u": message_size_units(msg)})
        heapq.heappush(self.heap, (now + delay, next(self.seq), "deliver",
                                   (frm, to, msg, sq)))


def run(config: ReplicaConfig, adversary: AdversarySpec, horizon: int) -> Trace:
    """One simulation, one trace."""
    return Simulation(config, adversary, horizon).run()
