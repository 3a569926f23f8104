"""Trace analysis: safety checking and performance metrics.

The safety checker is evidence-based: it reconstructs every certificate that
exists in a trace (explicit ones carried in messages, plus certificates
implied by a quorum of votes delivered to one recipient) and then checks the
protocol's safety claims against honest replicas' commit records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

import numpy

from .core import (AnyBlock, CoinQC, CoinQCRelay, FallbackBlock, FallbackQC,
                   FBProposal, FBVote, FQCRelay, FTCRelay, Proposal, QC,
                   TCRelay, Timeout, Vote, MESSAGE_SIZE_UNITS, genesis_block,
                   message_variant)
from .replica import ASYNC_FALLBACK
from .simnet import Crash, Honest, Trace


class NoFallbacks(ValueError):
    """Raised when fallback statistics are requested for traces in which no
    fallback was ever entered (e.g. baseline-pacemaker runs)."""


@dataclass
class SafetyReport:
    ok: bool
    violations: list[str]
    commits_checked: int
    certificates_checked: int

    def lines(self) -> list[str]:
        out = [f"safety: {'ok' if self.ok else 'VIOLATION'}",
               f"commits_checked: {self.commits_checked}",
               f"certificates_checked: {self.certificates_checked}"]
        out += [f"violation: {v}" for v in self.violations]
        return out


@dataclass
class MetricsReport:
    messages_delivered: int
    size_units: int
    sends_total: int
    commits_total: int
    commit_latency_mean: Optional[float]
    commit_latency_histogram: dict[int, int]
    variant_counts: dict[str, int]
    views_completed: int
    messages_per_commit: Optional[float]

    def to_dict(self) -> dict:
        return {
            "messages_delivered": self.messages_delivered,
            "size_units": self.size_units,
            "sends_total": self.sends_total,
            "commits_total": self.commits_total,
            "commit_latency_mean": self.commit_latency_mean,
            "commit_latency_histogram": dict(sorted(
                self.commit_latency_histogram.items())),
            "variant_counts": dict(sorted(self.variant_counts.items())),
            "views_completed": self.views_completed,
            "messages_per_commit": self.messages_per_commit,
        }


@dataclass
class TraceIndex:
    honest: set[int] = field(default_factory=set)
    bodies: dict[str, AnyBlock] = field(default_factory=dict)
    qcs: list[QC] = field(default_factory=list)
    fqcs: list[FallbackQC] = field(default_factory=list)
    coins: dict[int, set[int]] = field(default_factory=dict)  # view -> electeds
    logs: dict[int, list[str]] = field(default_factory=dict)
    commit_records: int = 0
    proposal_tick: dict[str, int] = field(default_factory=dict)
    commit_tick: dict[str, int] = field(default_factory=dict)
    entered_views: set[int] = field(default_factory=set)
    completed_views: set[int] = field(default_factory=set)


def _certs_in(msg) -> list:
    if isinstance(msg, Proposal):
        return [msg.block.parent_qc] + ([msg.coin_qc] if msg.coin_qc else [])
    if isinstance(msg, Timeout):
        return [msg.high_qc]
    if isinstance(msg, TCRelay):
        return [msg.tc]
    if isinstance(msg, FTCRelay):
        return [msg.ftc]
    if isinstance(msg, FBProposal):
        out = [msg.fblock.parent_qc]
        if msg.ftc:
            out.append(msg.ftc)
        return out
    if isinstance(msg, FQCRelay):
        return [msg.fqc]
    if isinstance(msg, CoinQCRelay):
        return [msg.coin_qc]
    return []


def index(trace: Trace) -> TraceIndex:
    """One pass over the records, shared by check_safety and measure."""
    idx = TraceIndex()
    spec = trace.adversary
    n = trace.protocol.n
    quorum = 2 * trace.protocol.f + 1
    coin_quorum = trace.protocol.f + 1
    # crash faults are fail-stop, not byzantine; their commits count
    idx.honest = {i for i in range(n)
                  if isinstance(spec.fault_of(i), (Honest, Crash))}

    seen_certs: set = set()
    vote_tallies: dict[tuple, set[int]] = {}
    coin_tallies: dict[tuple, set[int]] = {}

    for rec in trace.records:
        kind = rec["kind"]
        if kind == "commit":
            idx.commit_records += 1
            if rec["rid"] in idx.honest:
                idx.logs.setdefault(rec["rid"], []).extend(rec["blocks"])
                for bid in rec["blocks"]:
                    idx.commit_tick.setdefault(bid, rec["t"])
            continue
        if kind == "timer_fire":
            continue
        msg = rec["m"]
        if isinstance(msg, Proposal):
            idx.bodies.setdefault(msg.block.id, msg.block)
            idx.proposal_tick.setdefault(msg.block.id, rec["t"])
        elif isinstance(msg, FBProposal):
            fb = msg.fblock
            idx.bodies.setdefault(fb.id, fb)
            idx.proposal_tick.setdefault(fb.id, rec["t"])
            if fb.height == 1 and rec["frm"] in idx.honest:
                idx.entered_views.add(fb.view)
        for cert in _certs_in(msg):
            if isinstance(cert, CoinQC):
                idx.coins.setdefault(cert.view, set()).add(cert.elected)
                idx.completed_views.add(cert.view)
            elif isinstance(cert, (QC, FallbackQC)):
                if cert not in seen_certs:
                    seen_certs.add(cert)
                    (idx.qcs if isinstance(cert, QC) else idx.fqcs).append(cert)
        # certificates implied by a quorum of votes at one recipient
        if kind == "deliver":
            if isinstance(msg, Vote):
                key = ("v", rec["to"], msg.block_id, msg.round, msg.view)
                tally = vote_tallies.setdefault(key, set())
                tally.add(msg.voter)
                if len(tally) == quorum:
                    qc = QC(msg.block_id, msg.round, msg.view, frozenset(tally))
                    idx.qcs.append(qc)
            elif isinstance(msg, FBVote):
                key = ("f", rec["to"], msg.block_id, msg.round, msg.view,
                       msg.height, msg.proposer)
                tally = vote_tallies.setdefault(key, set())
                tally.add(msg.voter)
                if len(tally) == quorum:
                    idx.fqcs.append(FallbackQC(msg.block_id, msg.round,
                                               msg.view, msg.height,
                                               msg.proposer, frozenset(tally)))
            elif message_variant(msg) == "coin_share":
                key = (rec["to"], msg.view)
                tally = coin_tallies.setdefault(key, set())
                tally.add(msg.signer)
                if len(tally) == coin_quorum:
                    idx.completed_views.add(msg.view)
    return idx


def check_safety(trace: Trace, idx: Optional[TraceIndex] = None) -> SafetyReport:
    idx = idx or index(trace)
    violations: list[str] = []
    genesis_id = genesis_block().id

    # conflicting commits: pairwise prefix consistency of honest logs
    logs = sorted(idx.logs.items())
    for i in range(len(logs)):
        for j in range(i + 1, len(logs)):
            ra, la = logs[i]
            rb, lb = logs[j]
            m = min(len(la), len(lb))
            for k in range(m):
                if la[k] != lb[k]:
                    violations.append(
                        f"conflicting commits: replicas {ra} and {rb} "
                        f"disagree at log index {k}: {la[k]} vs {lb[k]}")
                    break

    # each honest log is one chain: no duplicates, parents link backwards
    for rid, log in logs:
        if len(set(log)) != len(log):
            violations.append(f"replica {rid} committed a block twice")
        for k, bid in enumerate(log):
            body = idx.bodies.get(bid)
            if body is None:
                violations.append(
                    f"replica {rid} committed {bid} with no block in trace")
                continue
            parent = body.parent_qc.block_id if body.parent_qc else genesis_id
            expect = log[k - 1] if k > 0 else genesis_id
            if parent != expect:
                violations.append(
                    f"replica {rid} log breaks chain at index {k}: "
                    f"{bid} extends {parent}, not {expect}")

    # election consistency (one winner per view)
    elected: dict[int, int] = {}
    for view, winners in sorted(idx.coins.items()):
        if len(winners) > 1:
            violations.append(
                f"view {view} has conflicting election outputs {sorted(winners)}")
        elected[view] = min(winners)

    # certified-round uniqueness (regular certificates)
    by_slot: dict[tuple, str] = {}
    for qc in idx.qcs:
        b = by_slot.setdefault((qc.view, qc.round), qc.block_id)
        if b != qc.block_id:
            violations.append(
                f"two certified blocks in view {qc.view} round {qc.round}: "
                f"{b} vs {qc.block_id}")

    # fallback certificates: unique per chain slot; endorsed ones unique per round
    fqc_slot: dict[tuple, str] = {}
    endorsed_slot: dict[tuple, str] = {}
    for fqc in idx.fqcs:
        b = fqc_slot.setdefault((fqc.view, fqc.proposer, fqc.height),
                                fqc.block_id)
        if b != fqc.block_id:
            violations.append(
                f"conflicting fallback certificates for replica "
                f"{fqc.proposer} height {fqc.height} view {fqc.view}")
        if elected.get(fqc.view) == fqc.proposer:
            b = endorsed_slot.setdefault((fqc.view, fqc.round), fqc.block_id)
            if b != fqc.block_id:
                violations.append(
                    f"two endorsed fallback blocks in view {fqc.view} "
                    f"round {fqc.round}")

    # chain-structure claims, checked on certified blocks with known bodies.
    # Ancestors commit through their child's parent certificate, so any
    # certificate counts as commit evidence, endorsed or not.
    certified_ids = ({qc.block_id for qc in idx.qcs}
                     | {fqc.block_id for fqc in idx.fqcs})
    fallback_pm = trace.protocol.pacemaker == ASYNC_FALLBACK
    for bid in sorted(certified_ids):
        body = idx.bodies.get(bid)
        if body is None or body.parent_qc is None:
            continue
        parent = body.parent_qc
        if body.view < parent.view:
            violations.append(f"certified block {bid} has view {body.view} "
                              f"below its parent's view {parent.view}")
        if fallback_pm and body.round != parent.round + 1:
            violations.append(
                f"certified block {bid} at round {body.round} does not "
                f"directly extend its parent at round {parent.round}")
        if (not isinstance(body, FallbackBlock)
                and isinstance(parent, FallbackQC)
                and body.view <= parent.view):
            violations.append(
                f"certified regular block {bid} extends a fallback block "
                f"without advancing past view {parent.view}")

    # committed blocks must be certified or endorsed somewhere in the trace
    for bid in sorted(idx.commit_tick):
        if bid not in certified_ids:
            violations.append(f"committed block {bid} has no certificate "
                              f"evidence in the trace")

    return SafetyReport(ok=not violations, violations=violations,
                        commits_checked=idx.commit_records,
                        certificates_checked=len(idx.qcs) + len(idx.fqcs))


def measure(trace: Trace, idx: Optional[TraceIndex] = None) -> MetricsReport:
    idx = idx or index(trace)
    delivered = 0
    units = 0
    sends = 0
    variant_counts: dict[str, int] = {}
    for rec in trace.records:
        kind = rec["kind"]
        if kind == "send":
            sends += 1
        elif kind == "deliver" and not rec["self"]:
            delivered += 1
            variant = message_variant(rec["m"])
            variant_counts[variant] = variant_counts.get(variant, 0) + 1
            units += MESSAGE_SIZE_UNITS[variant]

    committed = sorted(idx.commit_tick)
    histogram: dict[int, int] = {}
    latencies = []
    for bid in committed:
        start = idx.proposal_tick.get(bid)
        if start is None:
            continue
        lat = idx.commit_tick[bid] - start
        latencies.append(lat)
        histogram[lat] = histogram.get(lat, 0) + 1
    mean = sum(latencies) / len(latencies) if latencies else None
    per_commit = delivered / len(committed) if committed else None
    return MetricsReport(
        messages_delivered=delivered,
        size_units=units,
        sends_total=sends,
        commits_total=len(committed),
        commit_latency_mean=mean,
        commit_latency_histogram=histogram,
        variant_counts=variant_counts,
        views_completed=len(idx.completed_views),
        messages_per_commit=per_commit,
    )


def fallback_stats(traces: Union[Trace, Iterable[Trace]]) -> dict:
    """Aggregate fallback behavior over one or more traces.

    An instance is one (trace, view) whose fallback completed (its election
    opened); it counts as committing in-view when some fallback block of
    that view ends up in an honest committed log.
    """
    if isinstance(traces, Trace):
        traces = [traces]
    entered = completed = committed_in_view = 0
    per_trace = []
    for trace in traces:
        idx = index(trace)
        committed_fviews = set()
        for bid in idx.commit_tick:
            body = idx.bodies.get(bid)
            if isinstance(body, FallbackBlock):
                committed_fviews.add(body.view)
        done = idx.completed_views & idx.entered_views
        hits = {v for v in committed_fviews if v in done}
        entered += len(idx.entered_views)
        completed += len(done)
        committed_in_view += len(hits)
        per_trace.append({"entered": len(idx.entered_views),
                          "completed": len(done),
                          "commit_in_view": len(hits)})
    if entered == 0:
        raise NoFallbacks("no fallback was entered in the supplied traces")
    fraction = committed_in_view / completed if completed else None
    return {"entered": entered, "completed": completed,
            "commit_in_view": committed_in_view, "fraction": fraction,
            "per_trace": per_trace}


def fit_polynomial(xs, ys, degree: int) -> tuple[tuple[float, ...], float]:
    """Least-squares polynomial fit plus coefficient of determination."""
    coeffs = numpy.polyfit(xs, ys, degree)
    predicted = numpy.polyval(coeffs, xs)
    ys_arr = numpy.asarray(ys, dtype=float)
    ss_res = float(((ys_arr - predicted) ** 2).sum())
    ss_tot = float(((ys_arr - ys_arr.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return tuple(float(c) for c in coeffs), r2
