"""Per-replica protocol state machine.

Pure and deterministic: every handler consumes one input (a delivered
message or a timer expiry) and returns a list of output actions for the
network layer to execute.  No clocks, no randomness, no I/O in here.

Two commit variants are supported (three adjacent certified blocks vs two)
and two pacemakers (timeout-certificate round sync vs the asynchronous
fallback view-change with coin-based leader election).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional, Union

from . import crypto
from .core import (Block, CoinQC, CoinQCRelay, CoinShare, FallbackQC,
                   FallbackTC, FBProposal, FBVote, FQCRelay, FTCRelay,
                   ParentCert, Proposal, QC, Rank, TCRelay, Timeout,
                   TimeoutCert, TxnBatch, Vote, WireMessage, ZERO_RANK,
                   carried, genesis_block, genesis_qc, is_endorsed,
                   make_block, max_cert, rank_of)
# the config vocabulary and the output actions live in core, so that
# reading a scenario or checking a trace does not load this module; they
# are re-exported here for the replica's callers
from .core import (ASYNC_FALLBACK, BASELINE_TC, PACEMAKERS, THREE_CHAIN,
                   TWO_CHAIN, VARIANTS, CommitNotice, ConfigError, Multicast,
                   OutputAction, ReplicaConfig, Send, SetTimer)

PENDING_CAP = 1024  # buffered out-of-order messages per peer
PRUNE_FLOOR = 16  # stored bodies below which a commit does not prune

BROKEN = ""  # the commit target of a chain that can never complete

# a signer bucket that reached its threshold: later shares add nothing
SPENT: frozenset[int] = frozenset()


# --- replica state ---------------------------------------------------------


class ReplicaState:
    """Protocol variables plus bookkeeping (stores, share buckets, buffers)
    of a replica among ``n``, from ``genesis`` and its certificate ``qc``."""

    def __init__(self, n: int, genesis: Block, qc: QC):
        self.voted_round = 0
        self.locked_rank: Rank = ZERO_RANK
        self.current_round = 1
        self.current_view = 0
        self.high_qc: ParentCert = qc
        self.in_fallback = False
        self.fallback_voted_round = {j: 0 for j in range(n)}
        self.fallback_voted_height = {j: 0 for j in range(n)}
        # every committed id, in order: the log's length, and where each
        # commit walk stops, wherever a fork joins the log
        self.committed: dict[str, None] = {}
        self.tip_round = 0  # the highest round committed

        # stores; Replica._prune drops the settled entries (see _settled) once
        # a commit finds ``blocks`` at ``prune_at``, twice its size after the
        # last pass, so each entry is looked at a constant number of times
        self.prune_at = PRUNE_FLOOR
        self.blocks: dict[str, Block] = {genesis.id: genesis}
        self.qc_by_block: dict[str, QC] = {genesis.id: qc}
        self.fqc_by_key: dict[tuple, FallbackQC] = {}
        self.fqc_by_block: dict[str, FallbackQC] = {}
        self.coin_history: dict[int, CoinQC] = {}  # kept

        # signer buckets, filled through Replica._collect: the distinct signers
        # seen for each signed message, and per view the distinct completed
        # chains (3-chain) or their counter-signers (2-chain).  A bucket that
        # reached its threshold is SPENT.  Vote buckets go with their block;
        # timeout buckets of passed rounds, and the view-keyed ones of passed
        # views, are never read again and go as the round or view moves.
        self.vote_shares: dict[tuple, set[int]] = {}
        self.fvote_shares: dict[tuple, set[int]] = {}
        self.timeout_round_shares: dict[int, set[int]] = {}
        self.timeout_view_shares: dict[int, set[int]] = {}
        self.coin_shares: dict[int, set[int]] = {}
        self.completion_marks: dict[int, set[int]] = {}

        # one-shot markers, of the current round or view only
        self.seen_proposals: dict[int, str] = {}  # by round
        self.entered_fallback_view = -1
        self.reacted_f_heights: dict[int, set[int]] = {}

        self.timer_round: Optional[int] = None  # None once the round's timer fired

        # certified or endorsed stored blocks whose chains are not yet settled
        self.commit_frontier: set[str] = set()

        # early inputs, (sender, message) in arrival order, handled again on
        # each fallback entry and each new coin, the steps that move the view
        self.pending: list[tuple[int, WireMessage]] = []
        self.pending_per_sender: dict[int, int] = {}
        self.pending_rank_locks: set[str] = set()  # body awaited

        self.dropped: dict[str, int] = {}


class Replica:
    """One replica.  Feed it messages/timer expiries, collect actions."""

    def __init__(self, config: ReplicaConfig, rid: int):
        config.validate()
        self.config = config
        self.rid = rid
        # the run's constants that leader_of, the door and the vote
        # handlers read per input
        self._n, self._f, self._seed = config.n, config.f, config.run_seed
        self._period = config.leader_rotation_period
        self._top, self._quorum = config.fallback_top_height, config.quorum
        self.genesis = genesis_block()
        self.genesis_qc = genesis_qc(config.n)
        self.state = ReplicaState(config.n, self.genesis, self.genesis_qc)

    # --- helpers -----------------------------------------------------------

    def leader_of(self, round: int) -> int:
        return ((round - 1) // self._period) % self._n

    def _drop(self, reason: str) -> list[OutputAction]:
        self.state.dropped[reason] = self.state.dropped.get(reason, 0) + 1
        return []

    @staticmethod
    def _collect(buckets: dict, key, signer: int,
                 threshold: int) -> Optional[frozenset[int]]:
        """Add ``signer`` to the bucket at ``key``.  Returns the signer set
        exactly once: when a new signer brings the bucket to ``threshold``."""
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = set()
        elif bucket is SPENT or signer in bucket:
            return None
        bucket.add(signer)
        if len(bucket) < threshold:
            return None
        buckets[key] = SPENT
        return frozenset(bucket)

    def _certified_or_endorsed(self, block_id: str) -> bool:
        st = self.state
        if block_id in st.qc_by_block:
            return True
        fqc = st.fqc_by_block.get(block_id)
        return fqc is not None and is_endorsed(fqc, st.coin_history)

    def _buffer(self, sender: int, msg: WireMessage) -> list[OutputAction]:
        st = self.state
        if st.pending_per_sender.get(sender, 0) >= PENDING_CAP:
            return self._drop("buffer_overflow")
        st.pending.append((sender, msg))
        st.pending_per_sender[sender] = st.pending_per_sender.get(sender, 0) + 1
        return []

    def _redispatch(self) -> list[OutputAction]:
        """Handle every waiting input again, in arrival order.  The list is
        swapped out first, so an input that is still early waits again; one
        whose view has passed meets its handler's own past-view rule."""
        st = self.state
        waiting, st.pending = st.pending, []
        acts: list[OutputAction] = []
        for sender, msg in waiting:
            st.pending_per_sender[sender] -= 1
            acts += self.handle_message(msg, sender)
        return acts

    def _purge_stale_views(self) -> None:
        st = self.state
        for d in (st.timeout_view_shares, st.coin_shares,
                  st.completion_marks, st.reacted_f_heights):
            for v in [v for v in d if v < st.current_view]:
                del d[v]

    # --- what a replica keeps ----------------------------------------------

    def _below_lock(self, view: int, round: int,
                    proposer: Optional[int]) -> bool:
        """Whether a block or certificate of these fields ranks at most the
        lock, however its view's coin falls: a fallback one counts as
        endorsed until the coin says otherwise."""
        coin = self.state.coin_history.get(view)
        endorsed = proposer is not None and (coin is None
                                             or coin.elected == proposer)
        return (view, endorsed, round) <= self.state.locked_rank

    def _settled(self, block_id: str, view: int, round: int,
                 proposer: Optional[int] = None) -> bool:
        """Whether no rule can act on the block, or on any certificate or
        vote for it, ever again.  The block is committed, or it is a fork:
        uncommitted at or below the highest committed round.  Every
        ancestor of a committed block is committed, and a certified block's
        round exceeds its parent's, so a fork is never certified or
        committed by a quorum with at most f Byzantine signers.  Its rank
        is at most the lock and its round is passed, so a certificate for
        it moves neither the lock, the high certificate nor the round.
        Every input is monotone, so a settled block stays settled."""
        st = self.state
        return (round < st.current_round
                and (block_id in st.committed or round <= st.tip_round)
                and self._below_lock(view, round, proposer))

    def _dead(self, block_id: str, view: int, round: int,
              proposer: Optional[int] = None) -> bool:
        """Whether a certificate or vote for this block is ignored: its body
        is not held, and the block is settled."""
        return (block_id not in self.state.blocks
                and self._settled(block_id, view, round, proposer))

    def _settled_body(self, block: Block) -> bool:
        """Whether the body is dropped, or refused on arrival: the block is
        settled, and so is the lock its certification would raise."""
        parent = block.parent_qc
        return (self._settled(block.id, block.view, block.round,
                              block.proposer)
                and self._below_lock(parent.view, parent.round,
                                     parent.proposer))

    def _prune(self) -> None:
        """Drop each settled body, then each certificate and vote bucket
        that names a dead block: such a body, at its view and round, or one
        whose body never came.  Genesis stays, as a constant."""
        st = self.state
        for b in [b for b in st.blocks.values()
                  if b is not self.genesis and self._settled_body(b)]:
            del st.blocks[b.id]
            st.commit_frontier.discard(b.id)
        dead = self._dead
        for store in (st.qc_by_block, st.fqc_by_block, st.fqc_by_key):
            for key in [key for key, c in store.items()
                        if dead(c.block_id, c.view, c.round, c.proposer)]:
                del store[key]
        # a key is (block id, round, view[, height, proposer])
        for store in (st.vote_shares, st.fvote_shares):
            for key in [key for key in store
                        if dead(key[0], key[2], key[1], *key[4:])]:
                del store[key]
        st.prune_at = max(PRUNE_FLOOR, 2 * len(st.blocks))

    def _store_body(self, block: Block) -> None:
        st = self.state
        if block.id in st.blocks:
            return
        if self._settled_body(block):
            # a late copy: its lock, if awaited, would not move
            st.pending_rank_locks.discard(block.id)
            return
        st.blocks[block.id] = block
        if block.id in st.pending_rank_locks:
            st.pending_rank_locks.remove(block.id)
            self._raise_lock(block.parent_qc)
        if self._certified_or_endorsed(block.id):
            st.commit_frontier.add(block.id)

    def _raise_lock(self, cert: Optional[ParentCert]) -> None:
        st = self.state
        st.locked_rank = max(st.locked_rank, rank_of(cert, st.coin_history))

    def _register_qc(self, qc: QC) -> None:
        st = self.state
        if (qc.block_id not in st.qc_by_block
                and not self._dead(qc.block_id, qc.view, qc.round)):
            st.qc_by_block[qc.block_id] = qc
            if qc.block_id in st.blocks:
                st.commit_frontier.add(qc.block_id)

    # --- lifecycle ---------------------------------------------------------

    def init(self) -> list[OutputAction]:
        st = self.state
        st.timer_round = 1
        acts: list[OutputAction] = [SetTimer(1, self.config.timeout_duration)]
        if self.leader_of(1) == self.rid:
            acts += self._propose()
        return acts

    def handle_message(self, msg: WireMessage, sender: int) -> list[OutputAction]:
        """The one door for every input: the message's author is the channel
        sender, a carried block matches its id, and every certificate it
        carries verifies, a fallback one at a height in 1..top.  Handlers act
        on what passes."""
        handler, author, certs = self._HANDLERS[type(msg)]
        if author(msg) != sender:
            return self._drop("forged")
        b = getattr(msg, "block", None)
        if b is not None and not b.id_matches:
            return self._drop("bad_block_digest")
        for cert in certs(msg):
            # crypto's one rule, looked up at each check
            if not crypto.verify_certificate(cert, self._n, self._f,
                                             run_seed=self._seed):
                return self._drop("bad_cert")
            if type(cert) is FallbackQC and not 1 <= cert.height <= self._top:
                return self._drop("bad_fqc")
        return handler(self, msg, sender)

    # --- steady state ------------------------------------------------------

    def _propose(self) -> list[OutputAction]:
        st = self.state
        parent = st.high_qc
        payload = TxnBatch(f"p{self.rid}-r{st.current_round}-v{st.current_view}", 256)
        block = make_block(parent, st.current_round, st.current_view, payload)
        evidence = None
        if isinstance(parent, FallbackQC):
            evidence = st.coin_history.get(parent.view)
        self._store_body(block)
        return [Multicast(Proposal(block, self.rid, evidence))]

    def handle_proposal(self, p: Proposal, sender: int) -> list[OutputAction]:
        st, cfg = self.state, self.config
        b = p.block
        if b.round < 1 or b.parent_qc is None or b.height is not None:
            return self._drop("malformed_proposal")
        if sender != self.leader_of(b.round):
            return self._drop("wrong_leader")
        acts: list[OutputAction] = []
        if p.coin_qc is not None:
            acts += self._accept_coin(p.coin_qc)
        if not self._accept_block(p, sender, acts):
            return acts
        parent = b.parent_qc

        # vote decision: first proposal from this round's leader only
        first_id = st.seen_proposals.setdefault(b.round, b.id)
        if first_id != b.id:
            return self._drop("conflicting_proposal") + acts
        if b.round != st.current_round or b.view != st.current_view:
            return acts
        if st.timer_round is None or b.round <= st.voted_round:
            return acts
        if cfg.pacemaker == ASYNC_FALLBACK:
            if st.in_fallback:
                return acts
            if b.round != parent.round + 1:
                return acts
        if rank_of(parent, st.coin_history) < st.locked_rank:
            return self._drop("lock_violation") + acts
        st.voted_round = b.round
        nxt = self.leader_of(b.round + 1)
        acts.append(Send(nxt, Vote(b.id, b.round, b.view, self.rid)))
        return acts

    def handle_vote(self, v: Vote, sender: int) -> list[OutputAction]:
        if self.leader_of(v.round + 1) != self.rid:
            return self._drop("misdirected_vote")
        key = (v.block_id, v.round, v.view)
        if key not in self.state.vote_shares and self._dead(
                v.block_id, v.view, v.round):
            return []
        signers = self._collect(self.state.vote_shares, key, sender,
                                self._quorum)
        return self.lock_update(QC(*key, signers)) if signers else []

    def _accept_block(self, msg: Union[Proposal, FBProposal], sender: int,
                      acts: list[OutputAction]) -> bool:
        """Store a carried block and lock on its parent, adding the actions
        to ``acts``.  False when a fallback parent waits for its view's coin
        (the message is buffered) or is not endorsed."""
        st = self.state
        parent = msg.block.parent_qc
        if isinstance(parent, FallbackQC):
            acts += self._register_fqc(parent)
            if parent.view not in st.coin_history:
                # endorsement undecidable until the view's coin arrives
                acts += self._buffer(sender, msg)
                return False
            if not is_endorsed(parent, st.coin_history):
                acts += self._drop("unendorsed_parent")
                return False
        self._store_body(msg.block)
        acts += self.lock_update(parent)
        return True

    def lock_update(self, cert: ParentCert) -> list[OutputAction]:
        """Process a newly seen certificate: rank lock, high qc, round, commit."""
        st, cfg = self.state, self.config
        if cert is st.high_qc:
            # registered, locked on and advanced to when it became high_qc
            return self.try_commit()
        acts: list[OutputAction] = []
        if isinstance(cert, QC):
            self._register_qc(cert)
        else:
            acts += self._register_fqc(cert)
            if not is_endorsed(cert, st.coin_history):
                # only certificates usable as block parents move the lock
                return acts
        if cfg.variant == TWO_CHAIN:
            self._raise_lock(cert)
        elif cert.block_id in st.blocks:
            # 3-chain lock: the certificate inside the certified block
            self._raise_lock(st.blocks[cert.block_id].parent_qc)
        elif not self._settled(cert.block_id, cert.view, cert.round,
                               cert.proposer):
            st.pending_rank_locks.add(cert.block_id)
        st.high_qc = max_cert(st.high_qc, cert, st.coin_history)
        acts += self.advance_round(cert)
        acts += self.try_commit()
        return acts

    def advance_round(self, trigger: Union[ParentCert, TimeoutCert]
                      ) -> list[OutputAction]:
        # only the baseline pacemaker's paths pass a timeout certificate
        st = self.state
        if trigger.round + 1 <= st.current_round:
            return []
        st.current_round = trigger.round + 1
        return self._enter_round(
            trigger if isinstance(trigger, TimeoutCert) else None)

    def _enter_round(self, tc: Optional[TimeoutCert]) -> list[OutputAction]:
        st, cfg = self.state, self.config
        st.timer_round = st.current_round
        acts: list[OutputAction] = [SetTimer(st.current_round,
                                             cfg.timeout_duration)]
        leader = self.leader_of(st.current_round)
        if tc is not None and leader != self.rid:
            acts.append(Send(leader, TCRelay(tc, self.rid)))
        if leader == self.rid:
            acts += self._propose()
        for d in (st.seen_proposals, st.timeout_round_shares):
            for rnd in [k for k in d if k < st.current_round]:
                del d[rnd]
        return acts

    def try_commit(self) -> list[OutputAction]:
        """Commit the base of each frontier top's chain.  A top leaves the
        frontier once its chain is settled, its base committed or the chain
        broken for good, since its walk can commit nothing more."""
        st = self.state
        acts: list[OutputAction] = []
        frontier = st.commit_frontier  # walked in id order, on a copy
        for top_id in sorted(frontier) if len(frontier) > 1 else [*frontier]:
            base = self._commit_target(top_id)
            if base is None:
                continue
            if base != BROKEN:
                acts += self._commit(base)
                if base not in st.committed:
                    continue  # an ancestor body is missing
            st.commit_frontier.discard(top_id)
        if acts and len(st.blocks) >= st.prune_at:
            self._prune()
        return acts

    def _commit_target(self, top_id: str) -> Optional[str]:
        """The base of a chain of ``fallback_top_height`` certified or
        endorsed blocks, in one view at consecutive rounds, ending at
        ``top_id``.  None while a parent body or certificate may still
        arrive; BROKEN if a round or view gap breaks the chain, or it
        reaches genesis, which ends every chain and commits nothing."""
        st = self.state
        blk = st.blocks[top_id]
        for _ in range(self.config.fallback_top_height - 1):
            pq = blk.parent_qc
            if pq is None:
                return BROKEN
            parent = st.blocks.get(pq.block_id)
            if parent is None:
                # a dropped parent is committed, so the base is too, or a
                # fork, which never commits: the chain is settled
                if pq.block_id in st.committed or self._dead(
                        pq.block_id, pq.view, pq.round, pq.proposer):
                    return BROKEN
                return None
            if blk.round != parent.round + 1 or blk.view != parent.view:
                return BROKEN
            if not self._certified_or_endorsed(parent.id):
                return None
            blk = parent
        return BROKEN if blk.parent_qc is None else blk.id

    def _commit(self, target_id: str) -> list[OutputAction]:
        st = self.state
        chain: list[str] = []
        cur = target_id
        while cur != self.genesis.id and cur not in st.committed:
            body = st.blocks.get(cur)
            if body is None:
                return []  # ancestor body missing; retried when it arrives
            chain.append(cur)
            cur = body.parent_qc.block_id  # only genesis has none
        if not chain:
            return []
        chain.reverse()
        for bid in chain:
            st.committed[bid] = None
            st.commit_frontier.discard(bid)
        st.tip_round = max(st.tip_round, st.blocks[target_id].round)
        return [CommitNotice(tuple(chain))]

    # --- pacemaker ---------------------------------------------------------

    def handle_timer_expiry(self, round: int) -> list[OutputAction]:
        st, cfg = self.state, self.config
        if round != st.current_round or st.timer_round != round:
            return []
        st.timer_round = None
        if cfg.pacemaker == BASELINE_TC:
            return [Multicast(Timeout(st.current_round, None, st.high_qc, self.rid))]
        st.in_fallback = True
        return [Multicast(Timeout(None, st.current_view, st.high_qc, self.rid))]

    def handle_timeout_msg(self, t: Timeout, sender: int) -> list[OutputAction]:
        st, cfg = self.state, self.config
        acts = self.lock_update(t.high_qc)
        if cfg.pacemaker == BASELINE_TC:
            if t.round is None:
                return self._drop("malformed_timeout") + acts
            if t.round < st.current_round:
                return acts  # its certificate could not advance the round
            signers = self._collect(st.timeout_round_shares, t.round, sender,
                                    cfg.quorum)
            if signers:
                acts += self.advance_round(TimeoutCert(t.round, signers))
            return acts
        if t.view is None:
            return self._drop("malformed_timeout") + acts
        if t.view < st.current_view:
            return acts  # stale share; the carried certificate was still useful
        signers = self._collect(st.timeout_view_shares, t.view, sender,
                                cfg.quorum)
        if signers:
            acts += self.enter_fallback(FallbackTC(t.view, signers))
        return acts

    def handle_tc_relay(self, m: TCRelay, sender: int) -> list[OutputAction]:
        if self.config.pacemaker != BASELINE_TC:
            return self._drop("unexpected_tc")
        return self.advance_round(m.tc)

    # --- fallback ----------------------------------------------------------

    def enter_fallback(self, ftc: FallbackTC) -> list[OutputAction]:
        st, cfg = self.state, self.config
        if ftc.view < st.current_view or st.entered_fallback_view >= ftc.view:
            return []
        st.in_fallback = True
        st.current_view = ftc.view
        st.entered_fallback_view = ftc.view
        st.fallback_voted_round = {j: 0 for j in range(cfg.n)}
        st.fallback_voted_height = {j: 0 for j in range(cfg.n)}
        self._purge_stale_views()
        acts: list[OutputAction] = [Multicast(FTCRelay(ftc, self.rid))]
        acts += self._propose_fallback(ftc.view, 1, st.high_qc, ftc)
        return acts + self._redispatch()

    def _propose_fallback(self, view: int, height: int, parent: ParentCert,
                          ftc: Optional[FallbackTC] = None) -> list[OutputAction]:
        # each (view, height) is proposed once: height 1 on entry, each
        # later height by one reaction to a newly registered certificate
        payload = TxnBatch(f"f{self.rid}-v{view}-h{height}", 256)
        fb = make_block(parent, parent.round + 1, view, payload, height,
                        self.rid)
        self._store_body(fb)
        return [Multicast(FBProposal(fb, ftc))]

    def _register_fqc(self, fqc: FallbackQC) -> list[OutputAction]:
        st, cfg = self.state, self.config
        key = (fqc.view, fqc.proposer, fqc.height)
        if key in st.fqc_by_key or self._dead(fqc.block_id, fqc.view,
                                              fqc.round, fqc.proposer):
            return []
        st.fqc_by_key[key] = fqc
        st.fqc_by_block[fqc.block_id] = fqc
        if fqc.block_id in st.blocks and is_endorsed(fqc, st.coin_history):
            st.commit_frontier.add(fqc.block_id)
        acts: list[OutputAction] = []
        if st.entered_fallback_view == st.current_view == fqc.view:
            acts += self._fallback_reactions(fqc)
        if (cfg.variant == THREE_CHAIN and fqc.view == st.current_view
                and fqc.height == cfg.fallback_top_height
                and self._collect(st.completion_marks, fqc.view, fqc.proposer,
                                  cfg.quorum)):
            acts.append(Multicast(CoinShare(fqc.view, self.rid)))
        return acts

    def _fallback_reactions(self, fqc: FallbackQC) -> list[OutputAction]:
        st, cfg = self.state, self.config
        top = cfg.fallback_top_height
        acts: list[OutputAction] = []
        if cfg.adopts:
            reacted = st.reacted_f_heights.setdefault(fqc.view, set())
            if fqc.height not in reacted:
                reacted.add(fqc.height)
                if fqc.height < top:
                    acts += self._propose_fallback(fqc.view, fqc.height + 1, fqc)
                elif cfg.variant == TWO_CHAIN:
                    # counter-sign the first completed chain top and spread it
                    acts.append(Multicast(FQCRelay(fqc, self.rid)))
        elif fqc.proposer == self.rid and fqc.height < top:
            acts += self._propose_fallback(fqc.view, fqc.height + 1, fqc)
        if (cfg.variant == THREE_CHAIN and fqc.height == top
                and fqc.proposer == self.rid):
            acts.append(Multicast(FQCRelay(fqc, self.rid)))
        return acts

    def handle_fblock(self, m: FBProposal, sender: int) -> list[OutputAction]:
        st, cfg = self.state, self.config
        fb = m.block
        if (fb.height not in range(1, cfg.fallback_top_height + 1)
                or fb.parent_qc is None):
            return self._drop("malformed_fblock")
        acts: list[OutputAction] = []
        parent = fb.parent_qc
        if fb.height == 1:
            if not self._accept_block(m, sender, acts):
                return acts
        else:
            if not isinstance(parent, FallbackQC) or parent.view != fb.view \
                    or parent.height != fb.height - 1:
                return self._drop("malformed_fblock") + acts
            self._store_body(fb)
            acts += self._register_fqc(parent)

        # vote decision
        if not st.entered_fallback_view == st.current_view == fb.view:
            if fb.view >= st.current_view and st.entered_fallback_view < fb.view:
                return acts + self._buffer(sender, m)
            return acts  # stale view
        if fb.height <= st.fallback_voted_height[fb.proposer]:
            return acts
        if fb.height == 1:
            # the entry ticket of the block's view
            if m.ftc is None or m.ftc.view != fb.view:
                return self._drop("bad_ftc") + acts
            if fb.round != parent.round + 1:
                return acts
            if rank_of(parent, st.coin_history) < st.locked_rank:
                return self._drop("lock_violation") + acts
        else:
            if not cfg.adopts and parent.proposer != fb.proposer:
                return acts
            if fb.round != parent.round + 1:
                return acts
            if fb.round <= st.fallback_voted_round[fb.proposer]:
                return acts
        st.fallback_voted_round[fb.proposer] = fb.round
        st.fallback_voted_height[fb.proposer] = fb.height
        acts.append(Send(fb.proposer, FBVote(fb.id, fb.round, fb.view,
                                             fb.height, fb.proposer, self.rid)))
        return acts

    def handle_fvote(self, v: FBVote, sender: int) -> list[OutputAction]:
        if v.proposer != self.rid:
            return self._drop("misdirected_vote")
        key = (v.block_id, v.round, v.view, v.height, v.proposer)
        if key not in self.state.fvote_shares and self._dead(
                v.block_id, v.view, v.round, v.proposer):
            return []
        signers = self._collect(self.state.fvote_shares, key, sender,
                                self._quorum)
        return self._register_fqc(FallbackQC(*key, signers)) if signers else []

    def handle_fqc_relay(self, m: FQCRelay, sender: int) -> list[OutputAction]:
        st, cfg = self.state, self.config
        fqc = m.fqc
        if fqc.view > st.current_view:
            return self._buffer(sender, m)
        acts: list[OutputAction] = []
        # distinct counter-signers of a chain top trigger the election
        if (cfg.variant == TWO_CHAIN and fqc.height == cfg.fallback_top_height
                and fqc.view == st.current_view
                and self._collect(st.completion_marks, fqc.view, sender,
                                  cfg.quorum)):
            acts.append(Multicast(CoinShare(fqc.view, self.rid)))
        return acts + self._register_fqc(fqc)

    def handle_coin(self, m: Union[CoinShare, CoinQCRelay],
                    sender: int) -> list[OutputAction]:
        st, cfg = self.state, self.config
        if isinstance(m, CoinQCRelay):
            if m.coin_qc.view > st.current_view:
                return self._buffer(sender, m)
            return self._accept_coin(m.coin_qc)
        if m.view < st.current_view:
            return []
        if m.view > st.current_view:
            return self._buffer(sender, m)
        signers = self._collect(st.coin_shares, m.view, sender,
                                crypto.coin_threshold(cfg.f))
        if not signers:
            return []
        elected = crypto.elect_leader(m.view, cfg.run_seed, cfg.n)
        return self._accept_coin(CoinQC(m.view, elected, signers))

    def _accept_coin(self, coin: CoinQC) -> list[OutputAction]:
        st, cfg = self.state, self.config
        if coin.view in st.coin_history:
            return []
        st.coin_history[coin.view] = coin
        # the door admits fallback certificates of heights 1..top and honest
        # votes form no other, so this is every certificate on the elected
        # chain
        chain = [st.fqc_by_key.get((coin.view, coin.elected, h))
                 for h in range(1, cfg.fallback_top_height + 1)]
        chain = [fqc for fqc in chain if fqc is not None]
        for fqc in chain:
            if fqc.block_id in st.blocks:
                st.commit_frontier.add(fqc.block_id)
        acts: list[OutputAction] = [Multicast(CoinQCRelay(coin, self.rid))]
        if coin.view == st.current_view:
            # exit the fallback (or skip the view if never entered)
            if st.in_fallback:
                st.voted_round = st.fallback_voted_round[coin.elected]
            st.in_fallback = False
            st.current_view = coin.view + 1
            self._purge_stale_views()
            if chain:
                acts += self.lock_update(chain[-1])
            acts += self.try_commit()
            if st.timer_round != st.current_round:
                # keep a timer live so an unlucky election retries the view
                st.timer_round = st.current_round
                acts.append(SetTimer(st.current_round, cfg.timeout_duration))
        else:
            acts += self.try_commit()
        return acts + self._redispatch()

    # each message kind's handler, the field naming its author and the
    # function from it to the certificates it carries
    _HANDLERS = {cls: (handler, attrgetter(author), carried(cls))
                 for cls, handler, author in (
        (Proposal, handle_proposal, "sender"),
        (Vote, handle_vote, "voter"),
        (Timeout, handle_timeout_msg, "sender"),
        (TCRelay, handle_tc_relay, "sender"),
        # entry is share-driven, and a height-1 vote checks the ticket its
        # proposal carries, so a relayed ticket needs nothing past the door
        (FTCRelay, lambda self, m, sender: [], "sender"),
        (FBProposal, handle_fblock, "block.proposer"),
        (FBVote, handle_fvote, "voter"),
        (FQCRelay, handle_fqc_relay, "sender"),
        (CoinShare, handle_coin, "signer"),
        (CoinQCRelay, handle_coin, "sender"),
    )}
