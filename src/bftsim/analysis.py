"""Trace analysis: safety checking and performance metrics.

The safety checker is evidence-based: it reconstructs every certificate that
exists in a trace (explicit ones carried in messages, plus certificates
implied by a quorum of votes delivered to one recipient) and checks the
protocol's safety claims against honest replicas' commit records.

It is one fold over the records in trace order (``indexer``), which checks
each commit as it is read, and two finalizers (``check_safety`` and
``measure``), which settle what waited for a later record and put the
findings in report order.  The fold holds no block body and no log: per
block id it keeps the few facts a rule can still read, per certificate a
compact key, and per view its coins (README, "What check keeps").
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import Iterable, Optional, Union

from . import crypto
from .core import (ASYNC_FALLBACK, GENESIS_ID, CoinQC, CoinShare, FallbackQC,
                   FBProposal, FBVote, MESSAGE_KINDS, MESSAGE_SIZE_UNITS,
                   Proposal, QC, ReplicaConfig, Vote, coin_threshold,
                   message_certs, quorum_threshold)
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


@dataclass(slots=True)
class BlockFacts:
    """What a rule can still read of one block id, named by a body, a
    commit or a certificate.  ``parent`` stays None until a body is read;
    ``tick``, ``fallback_view`` and ``shape`` go once their rule has run."""

    id: str  # the one copy of the id that the fold's stores share
    parent: Optional[str] = None
    committers: int = 0  # one bit per honest replica that committed it
    # the tick the body was first read, until the first commit; from a
    # commit read before any body, that commit's tick, until the body
    tick: Optional[int] = None
    fallback_view: Optional[int] = None  # a fallback body's view, likewise
    # (view, round, regular, parent view, parent round, parent is a
    # fallback certificate) of a body with a parent, until it is certified
    shape: Optional[tuple] = None
    certified: bool = False


@dataclass
class TraceIndex:
    honest: set[int] = field(default_factory=set)
    blocks: dict[str, BlockFacts] = field(default_factory=dict)
    # honest logs: entry k is the first honest commit at index k; each
    # replica keeps its length, its last entry, and where it differs from
    # the canon, the entry (index -> replica -> id)
    canon: list[str] = field(default_factory=list)
    log_len: dict[int, int] = field(default_factory=dict)
    log_last: dict[int, str] = field(default_factory=dict)
    off_canon: dict[int, dict[int, str]] = field(default_factory=dict)
    # each distinct certificate as (block id, round, view[, height,
    # proposer], signers), signers as a bit mask, in the order found, and
    # per view and round the block a regular certificate named first
    qcs: dict[tuple, None] = field(default_factory=dict)
    fqcs: dict[tuple, None] = field(default_factory=dict)
    qc_slots: dict[int, dict[int, str]] = field(default_factory=dict)
    # signers of the shares a recipient was delivered, per what they sign;
    # a tally that reached its threshold is the shared empty set FULL
    tallies: dict[tuple, set[int]] = field(default_factory=dict)
    coins: dict[int, set[int]] = field(default_factory=dict)  # view -> electeds
    commit_records: int = 0
    commits: int = 0  # distinct ids committed by honest replicas
    latency: dict[int, int] = field(default_factory=dict)  # ticks -> blocks
    committed_fallback_views: set[int] = field(default_factory=set)
    entered_views: set[int] = field(default_factory=set)
    completed_views: set[int] = field(default_factory=set)
    sends: int = 0
    # deliveries over the network, by message variant
    delivered: dict[str, int] = field(default_factory=dict)
    # findings as the records show them, which check_safety puts in
    # report order: each replica pair's first disagreement, the replicas
    # that committed a block twice, chain breaks as (replica, log index,
    # text), clashing regular certificates and structure claims broken by
    # a certified block, as (block id, text)
    conflicts: dict[tuple[int, int], str] = field(default_factory=dict)
    twice: set[int] = field(default_factory=set)
    breaks: list[tuple[int, int, str]] = field(default_factory=list)
    slot_clashes: list[str] = field(default_factory=list)
    structural: list[tuple[str, str]] = field(default_factory=list)
    # what waits for a later record: commits of an id no body has named yet
    # as (replica, log index, expected parent), and committed ids that no
    # certificate has named yet
    awaiting_body: dict[str, list[tuple[int, int, str]]] = field(
        default_factory=dict)
    uncertified: set[str] = field(default_factory=set)


def indexer(config: ReplicaConfig,
            adversary: AdversarySpec) -> tuple[TraceIndex, Sink]:
    """The index of a run of ``config`` under ``adversary``, and the fold
    that adds one record to it.  Records must come in trace order."""
    idx = TraceIndex()
    quorum = quorum_threshold(config.f)
    coin_quorum = coin_threshold(config.f)
    # a crash is fail-stop, not byzantine: its commits count
    honest = idx.honest = {i for i in range(config.n)
                           if not adversary.fault_of(i).byzantine}
    replica_ids = crypto.replica_ids(config.n)
    fallback_pm = config.pacemaker == ASYNC_FALLBACK
    blocks = idx.blocks
    tallies = idx.tallies
    FULL: set[int] = set()

    def facts(bid: str) -> BlockFacts:
        found = blocks.get(bid)
        if found is None:
            found = blocks[bid] = BlockFacts(bid)
        return found

    # --- commits: each checked against the logs as it is read

    def commit(rid: int, ids: list[str], t: int) -> None:
        bit = 1 << rid
        k = idx.log_len.get(rid, 0)
        expect = idx.log_last.get(rid, GENESIS_ID)
        canon, off_canon = idx.canon, idx.off_canon
        for bid in ids:
            block = facts(bid)
            bid = block.id
            # an entry equal to the canon's, at an index where no replica
            # is off it, agrees with every replica that has one
            if not (k < len(canon) and canon[k] is bid
                    and k not in off_canon):
                compare(rid, k, bid)
            if block.parent is None:
                idx.awaiting_body.setdefault(bid, []).append((rid, k, expect))
            elif block.parent != expect:
                idx.breaks.append(_chain_break(rid, k, bid, block.parent,
                                               expect))
            if block.committers & bit:
                idx.twice.add(rid)
            elif not block.committers:
                first_commit(block, t)
            block.committers |= bit
            expect = bid
            k += 1
        idx.log_len[rid] = k
        idx.log_last[rid] = expect

    def compare(rid: int, k: int, bid: str) -> None:
        """Entry ``k`` of replica ``rid`` against every replica that has
        one.  A pair's entries are compared in index order, since each
        replica's log only grows, so the first difference recorded for a
        pair is its first disagreement."""
        canon = idx.canon
        if k == len(canon):
            canon.append(bid)
            return
        first = canon[k]
        off = idx.off_canon.get(k, {})
        if bid == first:
            others = off.items()
        else:
            others = [(s, off.get(s, first))
                      for s, length in idx.log_len.items() if length > k]
            idx.off_canon.setdefault(k, off)[rid] = bid
        for s, theirs in others:
            if theirs != bid:
                (a, la), (b, lb) = sorted(((rid, bid), (s, theirs)))
                idx.conflicts.setdefault(
                    (a, b), f"conflicting commits: replicas {a} and {b} "
                            f"disagree at log index {k}: {la} vs {lb}")

    def first_commit(block: BlockFacts, t: int) -> None:
        idx.commits += 1
        if not block.certified:
            idx.uncertified.add(block.id)
        if block.parent is None:
            block.tick = t
        else:
            settled(t - block.tick, block.fallback_view)
            block.tick = block.fallback_view = None

    def settled(latency: int, fallback_view: Optional[int]) -> None:
        """A block's first commit, once its body is read too."""
        idx.latency[latency] = idx.latency.get(latency, 0) + 1
        if fallback_view is not None:
            idx.committed_fallback_views.add(fallback_view)

    # --- bodies and certificates

    def body(b, t: int) -> None:
        block = facts(b.id)
        if block.parent is not None:
            return  # the first body with an id is the one the rules read
        pq = b.parent_qc
        parent = pq.block_id if pq else GENESIS_ID
        known = blocks.get(parent)
        block.parent = known.id if known else parent
        fallback_view = b.view if b.height is not None else None
        if block.committers:
            settled(block.tick - t, fallback_view)
            block.tick = None
        else:
            block.tick, block.fallback_view = t, fallback_view
        if pq is not None:
            shape = (b.view, b.round, b.height is None, pq.view, pq.round,
                     isinstance(pq, FallbackQC))
            if block.certified:
                check_shape(block.id, shape)
            else:
                block.shape = shape
        for rid, k, expect in idx.awaiting_body.pop(block.id, ()):
            if block.parent != expect:
                idx.breaks.append(_chain_break(rid, k, block.id,
                                               block.parent, expect))

    def check_shape(bid: str, shape: tuple) -> None:
        """The chain-structure claims on a certified block with a known
        body.  Ancestors commit through their child's parent certificate,
        so any certificate counts as commit evidence, endorsed or not."""
        view, rnd, regular, parent_view, parent_round, parent_fallback = shape
        found = idx.structural
        if view < parent_view:
            found.append((bid, f"certified block {bid} has view {view} "
                               f"below its parent's view {parent_view}"))
        if fallback_pm and rnd != parent_round + 1:
            found.append((bid, f"certified block {bid} at round {rnd} does "
                               f"not directly extend its parent at round "
                               f"{parent_round}"))
        if regular and parent_fallback and view <= parent_view:
            found.append((bid, f"certified regular block {bid} extends a "
                               f"fallback block without advancing past "
                               f"view {parent_view}"))

    def signed(signers: frozenset) -> Union[int, frozenset]:
        """Signer ids as a bit mask, if they are replica ids."""
        if signers <= replica_ids:
            return sum(map((1).__lshift__, signers))
        return signers

    def certified(cert: Union[QC, FallbackQC]) -> None:
        if isinstance(cert, QC):
            store, rest = idx.qcs, (cert.round, cert.view)
        else:
            store, rest = idx.fqcs, (cert.round, cert.view, cert.height,
                                     cert.proposer)
        key = (cert.block_id, *rest, signed(cert.signers))
        if key in store:
            return
        block = facts(cert.block_id)
        bid = block.id
        store[(bid, *key[1:])] = None
        if store is idx.qcs:
            # certified-round uniqueness, for regular certificates
            first = idx.qc_slots.setdefault(cert.view, {}).setdefault(
                cert.round, bid)
            if first != bid:
                idx.slot_clashes.append(
                    f"two certified blocks in view {cert.view} round "
                    f"{cert.round}: {first} vs {bid}")
        if not block.certified:
            block.certified = True
            idx.uncertified.discard(block.id)
            if block.shape is not None:
                check_shape(block.id, block.shape)
                block.shape = None

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
        # re-keyed by this share's key, whose values the certificate holds
        del tallies[key]
        tallies[key] = FULL
        return frozenset(signers)

    # certificates implied by a quorum of votes at one recipient; a
    # tally's key holds the id's shared copy once the id is known, and its
    # certificate the key's own values
    def vote(to: int, m: Vote) -> None:
        known = blocks.get(m.block_id)
        key = ("v", to, known.id if known else m.block_id, m.round, m.view)
        if signers := tally(key, m.voter, quorum):
            certified(QC(*key[2:], signers))

    def fb_vote(to: int, m: FBVote) -> None:
        known = blocks.get(m.block_id)
        key = ("f", to, known.id if known else m.block_id, m.round, m.view,
               m.height, m.proposer)
        if signers := tally(key, m.voter, quorum):
            certified(FallbackQC(*key[2:], signers))

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
                commit(rec["rid"], rec["blocks"], rec["t"])
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
                body(b, rec["t"])
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


def _chain_break(rid: int, k: int, bid: str, parent: str,
                 expect: str) -> tuple[int, int, str]:
    return rid, k, (f"replica {rid} log breaks chain at index {k}: "
                    f"{bid} extends {parent}, not {expect}")


def index(trace: Trace) -> TraceIndex:
    """The one pass over a held trace's records, shared by check_safety
    and measure."""
    idx, add = indexer(trace.protocol, trace.adversary)
    for rec in trace.records:
        add(rec)
    return idx


def check_safety(trace: Trace, idx: Optional[TraceIndex] = None) -> SafetyReport:
    """The fold's findings in report order, with what waited for a later
    record settled: a commit whose body never came, a committed id that no
    certificate named, and the rules that need every coin of a view."""
    idx = idx or index(trace)
    # conflicting commits: each honest replica pair's first disagreement
    violations = [idx.conflicts[pair] for pair in sorted(idx.conflicts)]

    # each honest log is one chain: per replica, a repeated block first,
    # then each entry that names no body or breaks the chain, by index
    findings = [*idx.breaks,
                *((rid, -1, f"replica {rid} committed a block twice")
                  for rid in idx.twice),
                *((rid, k, f"replica {rid} committed {bid} with no block "
                           f"in trace")
                  for bid, waits in idx.awaiting_body.items()
                  for rid, k, _ in waits)]
    violations += [text for _, _, text in sorted(findings)]

    # election consistency (one winner per view)
    elected: dict[int, int] = {}
    for view, winners in sorted(idx.coins.items()):
        if len(winners) > 1:
            violations.append(
                f"view {view} has conflicting election outputs {sorted(winners)}")
        elected[view] = min(winners)

    # certified-round uniqueness (regular certificates), as they were found
    violations += idx.slot_clashes

    # fallback certificates: unique per chain slot; endorsed ones unique per round
    fqc_slot: dict[tuple, str] = {}
    endorsed_slot: dict[tuple, str] = {}
    for bid, rnd, view, height, proposer, _ in idx.fqcs:
        if fqc_slot.setdefault((view, proposer, height), bid) != bid:
            violations.append(
                f"conflicting fallback certificates for replica "
                f"{proposer} height {height} view {view}")
        if (elected.get(view) == proposer
                and endorsed_slot.setdefault((view, rnd), bid) != bid):
            violations.append(f"two endorsed fallback blocks in view {view} "
                              f"round {rnd}")

    # chain-structure claims, by block id
    violations += [text for _, text in sorted(idx.structural,
                                              key=itemgetter(0))]

    # committed blocks must be certified or endorsed somewhere in the trace
    violations += [f"committed block {bid} has no certificate evidence in "
                   f"the trace" for bid in sorted(idx.uncertified)]

    return SafetyReport(ok=not violations, violations=violations,
                        commits_checked=idx.commit_records,
                        certificates_checked=len(idx.qcs) + len(idx.fqcs))


def measure(trace: Trace, idx: Optional[TraceIndex] = None) -> MetricsReport:
    idx = idx or index(trace)
    delivered = sum(idx.delivered.values())
    timed = sum(idx.latency.values())
    mean = (sum(lat * k for lat, k in idx.latency.items()) / timed
            if timed else None)
    return MetricsReport(
        messages_delivered=delivered,
        size_units=sum(MESSAGE_SIZE_UNITS[v] * k
                       for v, k in idx.delivered.items()),
        sends_total=idx.sends,
        commits_total=idx.commits,
        commit_latency_mean=mean,
        commit_latency_histogram=dict(idx.latency),
        variant_counts=dict(idx.delivered),
        views_completed=len(idx.completed_views),
        messages_per_commit=delivered / idx.commits if idx.commits else None,
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
        done = idx.completed_views & idx.entered_views
        hits = idx.committed_fallback_views & done
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


def fit_polynomial(xs, ys) -> tuple[tuple[float, float], float]:
    """Least-squares line through the points: (slope, intercept) and the
    coefficient of determination, 1.0 when every y is equal.  Fewer than
    two distinct x values raise ValueError."""
    import statistics  # only sweep fits

    slope, intercept = statistics.linear_regression(xs, ys)
    r2 = 1.0 if len(set(ys)) == 1 else statistics.correlation(xs, ys) ** 2
    return (slope, intercept), r2
