"""Trace analysis: safety checking and performance metrics.

The safety checker is evidence-based: it reconstructs every certificate that
exists in a trace (explicit ones carried in messages, plus certificates
implied by a quorum of votes delivered to one recipient) and then checks the
protocol's safety claims against honest replicas' commit records.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union

from . import crypto
from .core import (Block, CoinQC, CoinShare, FallbackQC, FBProposal, FBVote,
                   Proposal, QC, Vote, MESSAGE_KINDS, MESSAGE_SIZE_UNITS,
                   genesis_block, message_certs)
from .replica import ASYNC_FALLBACK, ReplicaConfig
from .simnet import AdversarySpec, Sink, Trace


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
        return {k: dict(sorted(v.items())) if isinstance(v, dict) else v
                for k, v in asdict(self).items()}


@dataclass
class TraceIndex:
    honest: set[int] = field(default_factory=set)
    bodies: dict[str, Block] = field(default_factory=dict)
    qcs: list[QC] = field(default_factory=list)
    fqcs: list[FallbackQC] = field(default_factory=list)
    coins: dict[int, set[int]] = field(default_factory=dict)  # view -> electeds
    logs: dict[int, list[str]] = field(default_factory=dict)
    commit_records: int = 0
    proposal_tick: dict[str, int] = field(default_factory=dict)
    commit_tick: dict[str, int] = field(default_factory=dict)
    entered_views: set[int] = field(default_factory=set)
    completed_views: set[int] = field(default_factory=set)
    sends: int = 0
    # deliveries over the network, by message variant
    delivered: dict[str, int] = field(default_factory=dict)


def indexer(config: ReplicaConfig,
            adversary: AdversarySpec) -> tuple[TraceIndex, Sink]:
    """The index of a run of ``config`` under ``adversary``, and the fold
    that adds one record to it.  Records must come in trace order."""
    idx = TraceIndex()
    quorum = crypto.quorum_threshold(config.f)
    coin_quorum = crypto.coin_threshold(config.f)
    # a crash is fail-stop, not byzantine: its commits count
    honest = idx.honest = {i for i in range(config.n)
                           if not adversary.fault_of(i).byzantine}
    bodies = idx.bodies

    seen_certs: set = set()
    # signers of the shares a recipient was delivered, per what they sign;
    # a tally that reached its threshold is replaced by FULL
    tallies: dict[tuple, set[int]] = {}
    FULL: set[int] = set()

    def certified(cert: Union[QC, FallbackQC]) -> None:
        if cert not in seen_certs:
            seen_certs.add(cert)
            (idx.qcs if isinstance(cert, QC) else idx.fqcs).append(cert)

    def tally(key: tuple, signer: int, threshold: int) -> frozenset:
        """The signers under ``key`` the first time they reach
        ``threshold``, else empty: later shares imply nothing new."""
        signers = tallies.get(key)
        if signers is FULL:
            return frozenset()
        if signers is None:
            signers = tallies[key] = set()
        signers.add(signer)
        if len(signers) < threshold:
            return frozenset()
        tallies[key] = FULL
        return frozenset(signers)

    # certificates implied by a quorum of votes at one recipient
    def vote(to: int, m: Vote) -> None:
        if signers := tally(("v", to, m.block_id, m.round, m.view),
                            m.voter, quorum):
            certified(QC(m.block_id, m.round, m.view, signers))

    def fb_vote(to: int, m: FBVote) -> None:
        if signers := tally(("f", to, m.block_id, m.round, m.view, m.height,
                             m.proposer), m.voter, quorum):
            certified(FallbackQC(m.block_id, m.round, m.view, m.height,
                                 m.proposer, signers))

    def coin_share(to: int, m: CoinShare) -> None:
        if tally(("c", to, m.view), m.signer, coin_quorum):
            idx.completed_views.add(m.view)

    # message type -> its variant, and what a delivery of it implies
    implies = {Vote: vote, FBVote: fb_vote, CoinShare: coin_share}
    on_deliver = {cls: (variant, implies.get(cls))
                  for cls, (variant, _) in MESSAGE_KINDS.items()}
    # the sender and message last scanned: a multicast's sends share one
    # message object, whose body and certificates are scanned once
    last_frm = last_msg = None

    def add(rec: dict) -> None:
        nonlocal last_frm, last_msg
        kind = rec["kind"]
        if kind == "commit":
            idx.commit_records += 1
            if rec["rid"] in honest:
                # each id as its block's body holds it: one string per
                # block, not a copy per commit record read
                blocks = [bodies[b].id if b in bodies else b
                          for b in rec["blocks"]]
                idx.logs.setdefault(rec["rid"], []).extend(blocks)
                for bid in blocks:
                    idx.commit_tick.setdefault(bid, rec["t"])
            return
        if kind == "timer_fire":
            return
        msg = rec["m"]
        implied = None
        if kind == "send":
            idx.sends += 1
        else:
            variant, implied = on_deliver[type(msg)]
            if not rec["self"]:
                idx.delivered[variant] = idx.delivered.get(variant, 0) + 1
        # a deliver by sq repeats its send's message
        if "sq" not in rec and not (msg is last_msg
                                    and rec["frm"] == last_frm):
            last_frm, last_msg = rec["frm"], msg
            if isinstance(msg, (Proposal, FBProposal)):
                b = msg.block
                bodies.setdefault(b.id, b)
                idx.proposal_tick.setdefault(b.id, rec["t"])
                if b.height == 1 and rec["frm"] in honest:
                    idx.entered_views.add(b.view)
            for cert in message_certs(msg):
                if isinstance(cert, CoinQC):
                    idx.coins.setdefault(cert.view, set()).add(cert.elected)
                    idx.completed_views.add(cert.view)
                elif isinstance(cert, (QC, FallbackQC)):
                    certified(cert)
        if implied:
            implied(rec["to"], msg)

    return idx, add


def index(trace: Trace) -> TraceIndex:
    """The one pass over a held trace's records, shared by check_safety
    and measure."""
    idx, add = indexer(trace.protocol, trace.adversary)
    for rec in trace.records:
        add(rec)
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
        if (body.height is None
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
    delivered = sum(idx.delivered.values())
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
        size_units=sum(MESSAGE_SIZE_UNITS[v] * k
                       for v, k in idx.delivered.items()),
        sends_total=idx.sends,
        commits_total=len(committed),
        commit_latency_mean=mean,
        commit_latency_histogram=histogram,
        variant_counts=dict(idx.delivered),
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
            if body is not None and body.height is not None:
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
    """Least-squares polynomial fit plus coefficient of determination.

    Coefficients come highest power first.  The normal equations are solved
    in exact rational arithmetic, so the only rounding is the final
    conversion to float.
    """
    if len(set(xs)) <= degree:
        raise ValueError(f"a degree-{degree} fit needs {degree + 1} distinct x values")
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    powers = [[x ** k for k in range(degree, -1, -1)] for x in xs]
    # augmented normal equations [A^T A | A^T y], solved by Gauss-Jordan
    rows = [[sum(p[i] * p[j] for p in powers) for j in range(degree + 1)]
            + [sum(p[i] * y for p, y in zip(powers, ys))]
            for i in range(degree + 1)]
    # A^T A is positive definite with that many distinct xs, so no pivot
    # on the diagonal is ever zero
    for col in range(degree + 1):
        for r in range(degree + 1):
            if r != col:
                ratio = rows[r][col] / rows[col][col]
                rows[r] = [a - ratio * b for a, b in zip(rows[r], rows[col])]
    coeffs = [rows[k][-1] / rows[k][k] for k in range(degree + 1)]
    mean = sum(ys) / len(ys)
    ss_res = sum((y - sum(c * q for c, q in zip(coeffs, p))) ** 2
                 for p, y in zip(powers, ys))
    ss_tot = sum((y - mean) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else float(1 - ss_res / ss_tot)
    return tuple(float(c) for c in coeffs), r2
