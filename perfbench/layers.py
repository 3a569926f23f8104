"""Per-layer numbers: a traced in-process pass over the four CLI commands,
a direct replica drive, and codec and certificate micro-timings.

The traced pass runs the real ``cli.main`` for each command while the layer
entry points it calls are wrapped in spans recorded from this file, so the
order of calls is the command's own and whatever the spans do not cover is
the command's self time.  Import this module only after the checkout's
``src`` directory is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import os
import time
from typing import Callable

from bftsim import analysis, cli, crypto, simnet
from bftsim.core import decode_message, encode_message, message_variant
from bftsim.replica import CommitNotice, Multicast, Replica, Send

from stats import Span, self_times

VARIANTS = ("proposal", "vote", "timeout", "tc_relay", "ftc_relay",
            "fb_proposal", "fb_vote", "fqc_relay", "coin_share",
            "coin_qc_relay", "timer")

# (owner, attribute, span name): the layer entry points the commands call.
LAYER_CALLS = (
    (cli, "parse_scenario", "scenario.parse"),
    (simnet, "run", "simnet.run"),
    (simnet.Trace, "digest", "simnet.digest"),
    (simnet.Trace, "to_jsonl", "simnet.to_jsonl"),
    (simnet.Trace, "from_jsonl", "simnet.from_jsonl"),
    (analysis, "check_safety", "analysis.check_safety"),
    (analysis, "measure", "analysis.measure"),
    (analysis, "fit_polynomial", "analysis.fit_polynomial"),
)


class Tracer:
    """Spans kept in memory; the caller writes them out at the end."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = Span(len(self.spans), self._open[-1] if self._open else None,
                   name, time.perf_counter(), 0.0)
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str) -> Callable[[Callable], Callable]:
        def make(func):
            @functools.wraps(func)
            def traced(*args, **kwargs):
                with self.span(name):
                    return func(*args, **kwargs)
            return traced
        return make


@contextlib.contextmanager
def patched(patches):
    """Temporarily replace ``owner.attr`` by ``make(original)`` for each
    (owner, attr, make); class methods stay class methods."""
    saved = []
    try:
        for owner, attr, make in patches:
            static = inspect.getattr_static(owner, attr)
            saved.append((owner, attr, static))
            if isinstance(static, classmethod):
                setattr(owner, attr, classmethod(make(static.__func__)))
            else:
                setattr(owner, attr, make(static))
        yield
    finally:
        for owner, attr, static in reversed(saved):
            setattr(owner, attr, static)


def _collecting(into: list):
    def make(func):
        @functools.wraps(func)
        def collect(*args, **kwargs):
            out = func(*args, **kwargs)
            into.append(out)
            return out
        return collect
    return make


def _recording_calls(into: list):
    def make(func):
        @functools.wraps(func)
        def record(*args, **kwargs):
            into.append((args, kwargs))
            return func(*args, **kwargs)
        return record
    return make


def traced_command(tracer: Tracer, argv: list[str], extra=()) -> tuple[int, str]:
    """Run ``bftsim <argv>`` in process under a root span ``cli.<command>``
    with every layer entry point traced.  ``extra`` patches sit inside the
    layer spans.  Returns (exit code, stdout)."""
    patches = list(extra) + [(owner, attr, tracer.wrap(name))
                             for owner, attr, name in LAYER_CALLS]
    out = io.StringIO()
    with patched(patches), contextlib.redirect_stdout(out):
        with tracer.span(f"cli.{argv[0]}"):
            code = cli.main(argv)
    return code, out.getvalue()


# --- direct replica drive --------------------------------------------------


def _expected(rid: int, n: int, actions, log_len: int) -> list[tuple]:
    """Trace records the simulator writes for one replica's output actions."""
    out = []
    for act in actions:
        if isinstance(act, Send):
            if act.to != rid:
                out.append(("send", rid, act.to, act.msg))
        elif isinstance(act, Multicast):
            out += [("send", rid, j, act.msg) for j in range(n) if j != rid]
        elif isinstance(act, CommitNotice):
            out.append(("commit", rid, list(act.block_ids), log_len))
    return out


def _as_output(rec: dict) -> tuple:
    if rec["kind"] == "send":
        return ("send", rec["frm"], rec["to"], rec["m"])
    return ("commit", rec["rid"], rec["blocks"], rec["log_len"])


def _owner(rec: dict) -> int:
    return rec["frm"] if rec["kind"] == "send" else rec["rid"]


def replica_drive(trace) -> dict:
    """Feed fresh replicas, each in the simulator's own fault harness, the
    trace's deliver and timer_fire stream in trace order, and time each
    harness call.

    The harness applies the replica's fault: a crashed replica ignores
    inputs at or after its crash tick, and a Byzantine wrapper rewrites the
    outputs.  Every replica's outputs must equal the records that follow
    each input in the trace.
    """
    n = trace.protocol.n
    harnesses = [simnet._Harness(Replica(trace.protocol, i),
                                 trace.adversary.fault_of(i))
                 for i in range(n)]
    busy = dict.fromkeys(VARIANTS, 0.0)
    count = dict.fromkeys(VARIANTS, 0)
    init_s = 0.0
    outputs = 0
    pending_max = 0
    mismatches = 0
    clock = time.perf_counter

    def compare(rid: int, acts, got: list[dict]) -> None:
        nonlocal mismatches
        want = _expected(rid, n, acts,
                         len(harnesses[rid].replica.state.committed))
        mismatches += [_as_output(r) for r in got] != want

    records = trace.records
    first_input = next((k for k, rec in enumerate(records)
                        if rec["kind"] in ("deliver", "timer_fire")),
                       len(records))
    for i, harness in enumerate(harnesses):
        t0 = clock()
        acts = harness.init(0)
        init_s += clock() - t0
        outputs += len(acts)
        compare(i, acts, [r for r in records[:first_input] if _owner(r) == i])

    k = first_input
    while k < len(records):
        rec = records[k]
        end = k + 1
        while end < len(records) and records[end]["kind"] in ("send", "commit"):
            end += 1
        if rec["kind"] == "deliver":
            rid = rec["to"]
            variant = message_variant(rec["m"])
            t0 = clock()
            acts = harnesses[rid].on_message(rec["m"], rec["frm"], rec["t"])
            dt = clock() - t0
        else:
            rid = rec["rid"]
            variant = "timer"
            t0 = clock()
            acts = harnesses[rid].on_timer(rec["round"], rec["t"])
            dt = clock() - t0
        busy[variant] += dt
        count[variant] += 1
        outputs += len(acts)
        state = harnesses[rid].replica.state
        pending_max = max(pending_max, sum(state.pending_per_sender.values()))
        compare(rid, acts, records[k + 1:end])
        k = end

    states = [h.replica.state for h in harnesses]
    inputs = sum(count.values())
    return {
        "mismatches": mismatches,
        "handle_s": init_s + sum(busy.values()),
        "inputs": inputs,
        "busy": busy,
        "count": count,
        "outputs": outputs,
        "dropped": sum(sum(s.dropped.values()) for s in states),
        "pending_max": pending_max,
        "blocks_held": max(len(s.blocks) for s in states),
        "vote_buckets": max(len(s.vote_shares) + len(s.fvote_shares)
                            for s in states),
    }


# --- micro-timings ---------------------------------------------------------


def codec_timing(trace) -> dict:
    msgs = [rec["m"] for rec in trace.records if "m" in rec]
    t0 = time.perf_counter()
    encoded = [encode_message(m) for m in msgs]
    t1 = time.perf_counter()
    decoded = [decode_message(d) for d in encoded]
    t2 = time.perf_counter()
    return {"messages": len(msgs), "encode_s": t1 - t0, "decode_s": t2 - t1,
            "round_trip_ok": decoded == msgs}


def verify_timing(calls: list) -> float:
    """Seconds to re-verify every recorded certificate check once."""
    verify = crypto.verify_certificate
    t0 = time.perf_counter()
    for args, kwargs in calls:
        verify(*args, **kwargs)
    return time.perf_counter() - t0


# --- the traced pass -------------------------------------------------------


def _span_total(tracer: Tracer, root: Span, name: str, own: dict) -> float:
    """Summed duration (``own`` maps id -> self time to use instead) of the
    spans called ``name`` under ``root``."""
    parents = {s.id: s.parent for s in tracer.spans}

    def under(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if p == root.id:
                return True
            p = parents[p]
        return False

    return sum(own.get(s.id, s.duration) for s in tracer.spans
               if s.name == name and under(s))


def traced_pass(argvs: dict[str, list[str]], trace_path: str) -> dict:
    """Run the four commands traced, then the replica drive and the
    micro-timings on the trace that ``run`` produced.

    Returns {"tracer", "roots", "exit", "stdout", "drive", "codec",
    "verify_calls", "verify_s", "fallback_stats_s", "trace_bytes",
    "records", "sends", "deliveries", "timer_fires"}.
    """
    tracer = Tracer()
    result: dict = {"exit": {}, "stdout": {}, "roots": {}}

    def command(name, extra=()):
        before = len(tracer.spans)
        code, out = traced_command(tracer, argvs[name], extra)
        result["exit"][name] = code
        result["stdout"][name] = out
        result["roots"][name] = tracer.spans[before]

    produced: list = []
    command("run", [(simnet, "run", _collecting(produced))])
    trace = produced[0]
    result["drive"] = replica_drive(trace)
    result["codec"] = codec_timing(trace)
    kinds = [rec["kind"] for rec in trace.records]
    result["records"] = len(kinds)
    result["sends"] = kinds.count("send")
    result["deliveries"] = kinds.count("deliver")
    result["timer_fires"] = kinds.count("timer_fire")
    result["trace_bytes"] = os.path.getsize(trace_path)
    # The CLI never calls fallback_stats; traces with no fallback raise
    # NoFallbacks after the same index pass, which is still timed.
    with tracer.span("analysis.fallback_stats") as fb:
        try:
            analysis.fallback_stats(trace)
        except analysis.NoFallbacks:
            pass
    result["fallback_stats_s"] = fb.duration
    del trace, produced

    command("check")
    calls: list = []
    command("replay", [(crypto, "verify_certificate", _recording_calls(calls))])
    result["verify_calls"] = len(calls)
    result["verify_s"] = verify_timing(calls)
    del calls
    command("sweep")
    result["tracer"] = tracer
    return result


def layer_metrics(res: dict) -> dict[str, float]:
    """Per-layer metric values from a traced pass (timings in s or us)."""
    tracer = res["tracer"]
    own = self_times(tracer.spans)
    roots = res["roots"]

    def total(cmd, name, self_only=False):
        return _span_total(tracer, roots[cmd], name, own if self_only else {})

    drive = res["drive"]
    codec = res["codec"]
    inputs = drive["inputs"] or 1
    run_s = total("run", "simnet.run")
    m = {
        "simnet.run_s": run_s,
        "simnet.records": res["records"],
        "simnet.records_per_s": res["records"] / run_s if run_s else 0.0,
        "simnet.sends": res["sends"],
        "simnet.deliveries": res["deliveries"],
        "simnet.timer_fires": res["timer_fires"],
        "simnet.digest_s": total("run", "simnet.digest"),
        "simnet.to_jsonl_s": total("run", "simnet.to_jsonl", self_only=True),
        "simnet.from_jsonl_s": total("check", "simnet.from_jsonl"),
        "simnet.trace_bytes_per_record": res["trace_bytes"] / max(res["records"], 1),
        "core.encode_us_per_msg": 1e6 * codec["encode_s"] / max(codec["messages"], 1),
        "core.decode_us_per_msg": 1e6 * codec["decode_s"] / max(codec["messages"], 1),
        "core.messages": codec["messages"],
        "replica.handle_s": drive["handle_s"],
        "replica.inputs": drive["inputs"],
        "replica.us_per_input": 1e6 * drive["handle_s"] / inputs,
        "replica.outputs_per_input": drive["outputs"] / inputs,
        "replica.dropped": drive["dropped"],
        "replica.useful_ratio": (drive["inputs"] - drive["dropped"]) / inputs,
        "replica.blocks_held": drive["blocks_held"],
        "replica.vote_buckets": drive["vote_buckets"],
        "replica.pending_max": drive["pending_max"],
        "simnet.loop_self_s": run_s - drive["handle_s"],
        "crypto.verify_us_per_cert": 1e6 * res["verify_s"] / max(res["verify_calls"], 1),
        "crypto.certs_verified": res["verify_calls"],
        "analysis.check_safety_s": total("run", "analysis.check_safety"),
        "analysis.measure_s": total("run", "analysis.measure"),
        "analysis.fallback_stats_s": res["fallback_stats_s"],
    }
    for v in VARIANTS:
        c = drive["count"][v]
        m[f"replica.inputs.{v}"] = c
        m[f"replica.us_per_input.{v}"] = 1e6 * drive["busy"][v] / c if c else 0.0
    for cmd, root in roots.items():
        m[f"cli.{cmd}.self_s"] = own[root.id]
        m[f"cli.{cmd}.traced_s"] = root.duration
    return m
