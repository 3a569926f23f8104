"""The whole-trace safety checker and metrics as they were before the
checker became a fold, kept as the reference the fold must agree with:
``index`` gathers every body, log and certificate of a held trace, then
``check_safety`` and ``measure`` read them all.  Only the imports differ
from the code it was taken from."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from bftsim import crypto
from bftsim.analysis import MetricsReport, SafetyReport
from bftsim.core import (ASYNC_FALLBACK, Block, CoinQC, CoinShare,
                         FallbackQC, FBProposal, FBVote, MESSAGE_KINDS,
                         MESSAGE_SIZE_UNITS, Proposal, QC, ReplicaConfig,
                         Vote, genesis_block, message_certs)
from bftsim.simnet import AdversarySpec, Sink, Trace


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
