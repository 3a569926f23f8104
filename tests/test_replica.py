"""Replica state machine: the door, vote, lock, commit, pacemakers, and
fallback."""

import copy
import inspect
import random
import re
from pathlib import Path

import pytest

from bftsim import core, replica
from bftsim.core import (
    MESSAGE_KINDS,
    ZERO_RANK,
    CoinQC,
    CoinQCRelay,
    CoinShare,
    FallbackQC,
    FallbackTC,
    FBProposal,
    FBVote,
    FQCRelay,
    FTCRelay,
    Proposal,
    QC,
    Rank,
    TCRelay,
    Timeout,
    TimeoutCert,
    TxnBatch,
    Vote,
    decode_message,
    encode_message,
    genesis_qc,
    make_block,
    message_certs,
    rank_of,
)
from bftsim.crypto import elect_leader
from bftsim.scenario import parse_scenario
from bftsim.simnet import (AdversarySpec, Asynchronous, Crash, Equivocate,
                           MuteLeader, PartialSynchrony, Simulation,
                           Synchronous, run)
from bftsim.replica import (
    PENDING_CAP,
    CommitNotice,
    ConfigError,
    Multicast,
    Replica,
    ReplicaConfig,
    Send,
    SetTimer,
)
from test_trace_format import GRID, scenario_of

QUORUM = frozenset({0, 1, 2})


def mk(**kw) -> ReplicaConfig:
    base = dict(n=4, f=1, variant="three_chain", pacemaker="async_fallback",
                timeout_duration=50, leader_rotation_period=4, run_seed=0)
    base.update(kw)
    return ReplicaConfig(**base)


def boot(rid: int, cfg: ReplicaConfig = None):
    r = Replica(cfg or mk(), rid)
    return r, r.init()


def sends(acts, typ):
    return [a for a in acts if isinstance(a, Send) and isinstance(a.msg, typ)]


def multis(acts, typ):
    return [a for a in acts if isinstance(a, Multicast) and isinstance(a.msg, typ)]


def commits(acts):
    return [a for a in acts if isinstance(a, CommitNotice)]


def chain(rounds, view=0, start_parent=None):
    """Regular blocks at the given rounds, each certified by QUORUM."""
    parent = start_parent or genesis_qc(4)
    out = []
    for r in rounds:
        b = make_block(parent, r, view, TxnBatch(f"p-r{r}-v{view}", 64))
        qc = QC(b.id, r, view, QUORUM)
        out.append((b, qc))
        parent = qc
    return out


def feed(r: Replica, b):
    """Deliver a proposal from whoever legitimately leads its round."""
    leader = r.leader_of(b.round)
    return r.handle_proposal(Proposal(b, leader), leader)


def enter_fb(r: Replica, view=0):
    """Drive a replica into fallback: local expiry plus a share quorum."""
    acts = r.handle_timer_expiry(r.state.current_round)
    for s in (0, 1, 2):
        if s == r.rid:
            continue
        acts += r.handle_timeout_msg(
            Timeout(None, view, genesis_qc(4), s), s)
    # own share from the expiry multicast, self-delivered
    own = multis(acts, Timeout)
    if own and not r.state.entered_fallback_view == view:
        acts += r.handle_timeout_msg(own[0].msg, r.rid)
    assert r.state.entered_fallback_view == view
    return acts


# --- configuration ----------------------------------------------------------


def test_config_rejects_bad_committees():
    with pytest.raises(ConfigError):
        mk(n=5, f=1).validate()
    with pytest.raises(ConfigError):
        mk(n=1, f=0).validate()
    with pytest.raises(ConfigError):
        mk(variant="four_chain").validate()
    with pytest.raises(ConfigError):
        mk(pacemaker="carrier_pigeon").validate()
    with pytest.raises(ConfigError):
        mk(timeout_duration=0).validate()
    with pytest.raises(ConfigError):
        mk(leader_rotation_period=0).validate()
    mk().validate()
    mk(n=7, f=2).validate()


def test_two_chain_forces_adoption_and_height_two():
    c3 = mk()
    assert not c3.adopts and c3.fallback_top_height == 3
    c3a = mk(adopt_foreign_fchains=True)
    assert c3a.adopts and c3a.fallback_top_height == 3
    c2 = mk(variant="two_chain")
    assert c2.adopts and c2.fallback_top_height == 2


# --- initialization and leader schedule -------------------------------------


def test_init_nonleader_state_and_timer():
    r, acts = boot(1)
    st = r.state
    assert st.voted_round == 0
    assert st.locked_rank == ZERO_RANK
    assert st.current_round == 1
    assert st.current_view == 0
    assert st.high_qc == genesis_qc(4)
    assert not st.in_fallback
    assert list(st.committed) == []
    timers = [a for a in acts if isinstance(a, SetTimer)]
    assert len(timers) == 1 and timers[0].round == 1
    assert not multis(acts, Proposal)


def test_init_leader_proposes_round_one():
    r, acts = boot(0)
    props = multis(acts, Proposal)
    assert len(props) == 1
    b = props[0].msg.block
    assert b.round == 1 and b.view == 0
    assert b.parent_qc == genesis_qc(4)
    assert [a for a in acts if isinstance(a, SetTimer)]


def test_leader_schedule_rotates_every_period():
    r, _ = boot(0)
    assert [r.leader_of(i) for i in range(1, 18)] == [
        0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 0]
    r1, _ = boot(0, mk(leader_rotation_period=1))
    assert [r1.leader_of(i) for i in range(1, 6)] == [0, 1, 2, 3, 0]


# --- steady-state voting ----------------------------------------------------


def test_vote_happy_path_targets_next_leader():
    r, _ = boot(3)
    (b1, _), = chain([1])
    acts = r.handle_proposal(Proposal(b1, 0), 0)
    votes = sends(acts, Vote)
    assert len(votes) == 1
    assert votes[0].to == 0  # leader of round 2
    assert votes[0].msg == Vote(b1.id, 1, 0, 3)
    assert r.state.voted_round == 1


def test_vote_round_four_targets_rotated_leader():
    r, _ = boot(3)
    last = None
    for b, _qc in (bs := chain([1, 2, 3, 4])):
        last = r.handle_proposal(Proposal(b, 0), 0)
    votes = sends(last, Vote)
    assert votes and votes[0].to == 1  # leader of round 5
    assert r.state.voted_round == 4
    assert r.state.current_round == 4  # advanced by the round-3 certificate


def test_vote_rejects_wrong_leader():
    r, _ = boot(3)
    (b1, _), = chain([1])
    acts = r.handle_proposal(Proposal(b1, 2), 2)
    assert not sends(acts, Vote)
    assert r.state.voted_round == 0


def test_vote_rejects_equivocating_second_proposal():
    r, _ = boot(3)
    (b1, _), = chain([1])
    twin = make_block(genesis_qc(4), 1, 0, TxnBatch("other", 64))
    assert r.handle_proposal(Proposal(b1, 0), 0) and sends(
        r.handle_proposal(Proposal(twin, 0), 0), Vote) == []
    assert r.state.voted_round == 1


def test_vote_requires_current_round():
    r, _ = boot(3)
    (b1, qc1), _ = chain([1, 2])
    # round 3 with a round-1 parent: certificate advances us to round 2 only
    gap = make_block(qc1, 3, 0, TxnBatch("gap", 64))
    acts = r.handle_proposal(Proposal(gap, 0), 0)
    assert not sends(acts, Vote)
    assert r.state.current_round == 2
    assert r.state.high_qc == qc1  # lock still processed


def test_vote_blocked_while_in_fallback_but_lock_applies():
    r, _ = boot(3)
    r.state.in_fallback = True
    (b1, qc1), (b2, _) = chain([1, 2])
    r.handle_proposal(Proposal(b1, 0), 0)
    acts = r.handle_proposal(Proposal(b2, 0), 0)
    assert not sends(acts, Vote)
    assert r.state.high_qc == qc1  # certificates are never wasted
    assert r.state.voted_round == 0


def test_vote_respects_rank_lock():
    r, _ = boot(3)
    r.state.locked_rank = Rank(0, False, 2)
    (b1, qc1), (b2, _) = chain([1, 2])
    r.handle_proposal(Proposal(b1, 0), 0)
    acts = r.handle_proposal(Proposal(b2, 0), 0)  # parent rank (0,F,1) < lock
    assert not sends(acts, Vote)


def test_baseline_votes_across_round_gaps():
    # the timeout-certificate pacemaker admits parents older than r-1
    r, _ = boot(3, mk(pacemaker="baseline_tc"))
    (b1, qc1), = chain([1])
    r.handle_proposal(Proposal(b1, 0), 0)
    for s in (0, 1, 2):
        r.handle_timeout_msg(Timeout(2, None, qc1, s), s)
    assert r.state.current_round == 3
    gap = make_block(qc1, 3, 0, TxnBatch("gap", 64))
    acts = r.handle_proposal(Proposal(gap, 0), 0)
    assert sends(acts, Vote)


def test_fallback_pacemaker_requires_consecutive_rounds():
    r, _ = boot(3)
    (b1, qc1), = chain([1])
    r.handle_proposal(Proposal(b1, 0), 0)
    r.state.current_round = 3  # pretend a round was skipped
    gap = make_block(qc1, 3, 0, TxnBatch("gap", 64))
    acts = r.handle_proposal(Proposal(gap, 0), 0)
    assert not sends(acts, Vote)


# --- leader vote aggregation ------------------------------------------------


def test_leader_aggregates_quorum_and_proposes_next():
    r, acts = boot(0)
    b1 = multis(acts, Proposal)[0].msg.block
    own = sends(r.handle_proposal(Proposal(b1, 0), 0), Vote)[0].msg
    assert r.handle_vote(own, 0) == []
    assert r.handle_vote(Vote(b1.id, 1, 0, 1), 1) == []
    # duplicate signer never completes a quorum
    assert r.handle_vote(Vote(b1.id, 1, 0, 1), 1) == []
    acts3 = r.handle_vote(Vote(b1.id, 1, 0, 2), 2)
    props = multis(acts3, Proposal)
    assert len(props) == 1
    b2 = props[0].msg.block
    assert b2.round == 2 and b2.parent_qc.block_id == b1.id
    assert r.state.current_round == 2
    assert r.state.high_qc.block_id == b1.id


def test_votes_for_other_leaders_are_dropped():
    r, _ = boot(3)  # not the leader of round 2
    (b1, _), = chain([1])
    assert r.handle_vote(Vote(b1.id, 1, 0, 1), 1) == []
    assert r.state.vote_shares == {}


# --- locking ----------------------------------------------------------------


def test_lock_rule_three_chain_uses_grandparent_rank():
    r, _ = boot(3)
    (b1, qc1), (b2, qc2) = chain([1, 2])
    r.handle_proposal(Proposal(b1, 0), 0)
    r.handle_proposal(Proposal(b2, 0), 0)
    assert r.state.locked_rank == ZERO_RANK  # qc1's parent is genesis
    r.lock_update(qc2)  # certified b2, whose parent certificate ranks (0,F,1)
    assert r.state.locked_rank == Rank(0, False, 1)
    assert r.state.high_qc == qc2


def test_lock_rule_two_chain_uses_certificate_rank():
    r, _ = boot(3, mk(variant="two_chain"))
    (b1, qc1), (b2, qc2) = chain([1, 2])
    r.handle_proposal(Proposal(b1, 0), 0)
    assert r.state.locked_rank == ZERO_RANK  # only genesis certified yet
    r.handle_proposal(Proposal(b2, 0), 0)
    assert r.state.locked_rank == Rank(0, False, 1)  # qc1 itself
    r.lock_update(qc2)
    assert r.state.locked_rank == Rank(0, False, 2)


def test_lock_is_monotone():
    r, _ = boot(3)
    parts = chain([1, 2, 3, 4])
    for b, _qc in parts:
        r.handle_proposal(Proposal(b, 0), 0)
    high = r.state.locked_rank
    assert high == Rank(0, False, 2)  # parent of certified b3
    r.lock_update(parts[1][1])  # stale lower certificate
    assert r.state.locked_rank == high


# --- committing -------------------------------------------------------------


def test_three_chain_commit_needs_three_consecutive():
    r, _ = boot(3)
    parts = chain([1, 2, 3, 4, 5])
    all_commits = []
    for b, _qc in parts[:3]:
        all_commits += commits(feed(r, b))
    assert all_commits == []  # only b1,b2 certified so far
    acts = feed(r, parts[3][0])  # certifies b3
    got = commits(acts)
    assert len(got) == 1 and list(got[0].block_ids) == [parts[0][0].id]
    assert list(r.state.committed) == [parts[0][0].id]
    # b3's base is committed, and b2's and b1's chains reach genesis
    assert r.state.commit_frontier == set()
    acts = feed(r, parts[4][0])  # round 5: the rotation's next leader
    assert list(commits(acts)[0].block_ids) == [parts[1][0].id]


def test_three_chain_gap_blocks_commit_then_ancestors_flow():
    # baseline pacemaker admits a certified chain 1,2,4,5,6; the round gap
    # forbids committing b2 but b4's commit sweeps ancestors b1,b2 with it
    r, _ = boot(3, mk(pacemaker="baseline_tc"))
    (b1, qc1), (b2, qc2) = chain([1, 2])
    tail = chain([4, 5, 6], start_parent=qc2)
    feed(r, b1)
    feed(r, b2)
    seen = []
    for b, _qc in tail:
        seen += commits(feed(r, b))
    assert seen == []  # the 2-to-4 gap leaves no consecutive triple yet
    assert r.state.commit_frontier == set()  # b4's and b5's chains broke
    final_qc = tail[-1][1]
    got = commits(r.lock_update(final_qc))  # certifies b6: triple (4,5,6)
    assert len(got) == 1
    assert list(got[0].block_ids) == [b1.id, b2.id, tail[0][0].id]
    assert list(r.state.committed) == [b1.id, b2.id, tail[0][0].id]


def test_two_chain_commit_needs_two_consecutive():
    r, _ = boot(3, mk(variant="two_chain"))
    parts = chain([1, 2, 3])
    assert commits(r.handle_proposal(Proposal(parts[0][0], 0), 0)) == []
    assert commits(r.handle_proposal(Proposal(parts[1][0], 0), 0)) == []
    acts = r.handle_proposal(Proposal(parts[2][0], 0), 0)  # certifies b2
    got = commits(acts)
    assert len(got) == 1 and list(got[0].block_ids) == [parts[0][0].id]


def test_a_view_gap_settles_its_tops():
    # b2 and b3 of view 1 on a view-0 parent: b3's chain breaks below b2
    r, _ = boot(3)
    (b1, qc1), = chain([1])
    (b2, qc2), (b3, qc3) = chain([2, 3], view=1, start_parent=qc1)
    for b, qc in ((b1, qc1), (b2, qc2), (b3, qc3)):
        r._store_body(b)
        r._register_qc(qc)
    assert r.state.commit_frontier == {b1.id, b2.id, b3.id}
    assert r.try_commit() == []
    assert r.state.commit_frontier == set()


def test_a_top_waits_for_its_parent_certificate():
    r, _ = boot(3, mk(variant="two_chain"))
    (b1, qc1), (b2, qc2) = chain([1, 2])
    r._store_body(b1)
    r._store_body(b2)
    r._register_qc(qc2)  # b2 certified, its parent b1 not yet
    assert r.try_commit() == []
    assert r.state.commit_frontier == {b2.id}
    r._register_qc(qc1)
    assert r.try_commit() == [CommitNotice((b1.id,))]
    assert r.state.commit_frontier == set()


def test_steady_long_walks_each_chain_about_once(monkeypatch):
    # the steady_long workload at seed 1: 20,978 walks when no top left the
    # frontier
    walks = []
    commit_target = Replica._commit_target

    def counted(self, top_id):
        walks.append(top_id)
        return commit_target(self, top_id)

    monkeypatch.setattr(Replica, "_commit_target", counted)
    trace = run(mk(run_seed=1), AdversarySpec(Synchronous(1)), 3000)
    assert trace.digest() == \
        "2338d728c11d01e456cb01105b4f33e46ea04c11358ae1a5bf73a3cbaae8e77c"
    assert len(walks) <= 12_000


# --- baseline pacemaker -----------------------------------------------------


def test_baseline_timeout_and_certificate_advance():
    r, _ = boot(3, mk(pacemaker="baseline_tc"))
    acts = r.handle_timer_expiry(1)
    outs = multis(acts, Timeout)
    assert len(outs) == 1
    t = outs[0].msg
    assert t.round == 1 and t.view is None and t.high_qc == genesis_qc(4)
    assert r.state.timer_round is None  # no more votes this round
    # a quorum of round shares forms a certificate and advances the round
    for s in (0, 1, 2):
        acts = r.handle_timeout_msg(Timeout(1, None, genesis_qc(4), s), s)
    assert r.state.current_round == 2
    assert [a for a in acts if isinstance(a, SetTimer)]
    relays = [a for a in acts if isinstance(a, Send)]
    assert any(a.to == 0 for a in relays)  # certificate forwarded to leader


def test_stale_timer_is_ignored():
    r, _ = boot(3, mk(pacemaker="baseline_tc"))
    for b, _qc in chain([1, 2]):
        r.handle_proposal(Proposal(b, 0), 0)
    assert r.state.current_round == 2
    assert r.handle_timer_expiry(1) == []


def test_timeout_carrying_higher_certificate_updates_lock():
    r, _ = boot(3, mk(pacemaker="baseline_tc"))
    (b1, qc1), = chain([1])
    r.handle_proposal(Proposal(b1, 0), 0)
    (_, qc2) = chain([2], start_parent=qc1)[0]
    # the share is stale but its carried certificate still advances us
    r.handle_timeout_msg(Timeout(1, None, qc2, 1), 1)
    assert r.state.high_qc == qc2
    assert r.state.current_round == 3


# --- fallback entry ---------------------------------------------------------


def test_expiry_flips_mode_and_multicasts_view_share():
    r, _ = boot(3)
    acts = r.handle_timer_expiry(1)
    assert r.state.in_fallback
    t = multis(acts, Timeout)[0].msg
    assert t.view == 0 and t.round is None and t.high_qc == genesis_qc(4)
    # flipping the mode alone must not enter the fallback chain phase
    assert r.state.entered_fallback_view == -1


def test_entry_requires_share_quorum_not_ftc():
    r, _ = boot(3)
    ftc = FallbackTC(0, QUORUM)
    assert r.handle_message(FTCRelay(ftc, 1), 1) == []
    assert r.state.entered_fallback_view == -1  # passed the door, not entered
    acts = enter_fb(r)
    assert r.state.in_fallback
    assert r.state.entered_fallback_view == 0
    fps = multis(acts, FBProposal)
    relays = multis(acts, FTCRelay)
    assert len(relays) == 1 and len(fps) == 1
    fb = fps[0].msg.block
    assert fb.height == 1 and fb.proposer == 3
    assert fb.round == 1 and fb.view == 0  # genesis certificate round + 1
    assert fb.parent_qc == genesis_qc(4)
    assert fps[0].msg.ftc is not None
    assert r.state.fallback_voted_round == {j: 0 for j in range(4)}
    assert r.state.fallback_voted_height == {j: 0 for j in range(4)}


def test_entry_is_idempotent_per_view():
    r, _ = boot(3)
    enter_fb(r)
    assert r.enter_fallback(FallbackTC(0, QUORUM)) == []


def test_entry_jumps_to_higher_view():
    r, _ = boot(3)
    acts = r.enter_fallback(FallbackTC(2, QUORUM))
    assert r.state.current_view == 2
    assert r.state.entered_fallback_view == 2
    assert multis(acts, FBProposal)


def test_stale_view_share_is_discarded_after_lock():
    r, _ = boot(3)
    r.state.current_view = 1
    (b1, qc1), = chain([1])
    r.handle_proposal(Proposal(b1, 0), 0)
    acts = r.handle_timeout_msg(Timeout(None, 0, qc1, 1), 1)
    assert r.state.timeout_view_shares.get(0) is None
    assert r.state.high_qc == qc1


# --- fallback voting --------------------------------------------------------


def fb_block(proposer, height, parent, view=0):
    return make_block(parent, parent.round + 1, view,
                      TxnBatch(f"f{proposer}-h{height}", 64), height, proposer)


def enter_with_ticket(r):
    """Enter the view-0 fallback and return the FTC the entry relays."""
    return multis(enter_fb(r), FTCRelay)[0].msg.ftc


def test_proposal_carrying_a_fallback_block_is_malformed():
    r, _ = boot(3)
    fb = fb_block(0, 1, genesis_qc(4))  # round 1, proposed by its leader
    assert r.handle_proposal(Proposal(fb, 0), 0) == []
    assert r.state.dropped == {"malformed_proposal": 1}
    assert fb.id not in r.state.blocks


def test_fallback_vote_height_one():
    r, _ = boot(3)
    ftc = enter_with_ticket(r)
    fb = fb_block(1, 1, genesis_qc(4))
    acts = r.handle_fblock(FBProposal(fb, ftc), 1)
    votes = sends(acts, FBVote)
    assert len(votes) == 1 and votes[0].to == 1
    assert votes[0].msg == FBVote(fb.id, 1, 0, 1, 1, 3)
    assert r.state.fallback_voted_round[1] == 1
    assert r.state.fallback_voted_height[1] == 1


def test_fallback_vote_height_one_respects_rank_lock():
    r, _ = boot(3)
    ftc = enter_with_ticket(r)
    r.state.locked_rank = Rank(0, False, 5)
    fb = fb_block(1, 1, genesis_qc(4))  # parent ranks (0,F,0) < lock
    acts = r.handle_fblock(FBProposal(fb, ftc), 1)
    assert not sends(acts, FBVote)


def test_fallback_vote_height_one_requires_the_views_ticket():
    # no ticket, another view's ticket, and one with too few signers
    for ticket, reason in ((None, "bad_ftc"), (FallbackTC(1, QUORUM), "bad_ftc"),
                           (FallbackTC(0, frozenset({0})), "bad_cert")):
        r, _ = boot(3)
        enter_fb(r)
        fb = fb_block(1, 1, genesis_qc(4))
        acts = r.handle_message(FBProposal(fb, ticket), 1)
        assert not sends(acts, FBVote), ticket
        assert r.state.dropped == {reason: 1}
        assert r.state.fallback_voted_height[1] == 0


def test_fallback_vote_height_two_skips_rank_lock():
    r, _ = boot(3)
    enter_fb(r)
    r.state.locked_rank = Rank(0, True, 99)  # nothing regular could pass
    fb1 = fb_block(1, 1, genesis_qc(4))
    fqc1 = FallbackQC(fb1.id, fb1.round, 0, 1, 1, QUORUM)
    fb2 = fb_block(1, 2, fqc1)
    acts = r.handle_fblock(FBProposal(fb2, None), 1)
    votes = sends(acts, FBVote)
    assert len(votes) == 1
    assert votes[0].msg.height == 2
    assert r.state.fallback_voted_height[1] == 2
    assert r.state.fallback_voted_round[1] == fb2.round


def test_fallback_vote_heights_strictly_increase_per_proposer():
    r, _ = boot(3)
    ftc = enter_with_ticket(r)
    fb1 = fb_block(1, 1, genesis_qc(4))
    assert sends(r.handle_fblock(FBProposal(fb1, ftc), 1), FBVote)
    # replayed height-1 block, and a fresh conflicting one, both fail
    assert not sends(r.handle_fblock(FBProposal(fb1, ftc), 1), FBVote)
    other = make_block(genesis_qc(4), 1, 0, TxnBatch("x", 1), 1, 1)
    assert not sends(r.handle_fblock(FBProposal(other, ftc), 1), FBVote)
    # but the same proposer's next height is welcome
    fqc1 = FallbackQC(fb1.id, fb1.round, 0, 1, 1, QUORUM)
    fb2 = fb_block(1, 2, fqc1)
    assert sends(r.handle_fblock(FBProposal(fb2, None), 1), FBVote)


def test_adopting_fallback_vote_rounds_strictly_increase_per_proposer():
    r, _ = boot(3, mk(variant="two_chain"))
    ftc = enter_with_ticket(r)
    (_, qc1), = chain([1])
    fb1 = fb_block(1, 1, qc1)  # round 2
    assert sends(r.handle_fblock(FBProposal(fb1, ftc), 1), FBVote)
    # proposer 1's height 2 on proposer 2's height-1 certificate at round
    # 1: a higher height, but no higher round than its vote at height 1
    fb1_other = fb_block(2, 1, genesis_qc(4))
    fqc1_other = FallbackQC(fb1_other.id, fb1_other.round, 0, 1, 2, QUORUM)
    fb2 = fb_block(1, 2, fqc1_other)
    assert fb2.round == fb1.round
    assert not sends(r.handle_fblock(FBProposal(fb2, None), 1), FBVote)
    assert r.state.fallback_voted_height[1] == 1


def test_fallback_vote_requires_entry():
    r, _ = boot(3)
    fb = fb_block(1, 1, genesis_qc(4))
    acts = r.handle_fblock(FBProposal(fb, FallbackTC(0, QUORUM)), 1)
    assert not sends(acts, FBVote)  # buffered until the replica enters
    acts = enter_fb(r)
    votes = sends(acts, FBVote)
    assert len(votes) == 1 and votes[0].msg.block_id == fb.id


# --- fallback chain growth and completion -----------------------------------


def grow_own_chain(r, view=0):
    """Feed vote quorums for the replica's own fallback chain to the top.
    Returns the chain's certificates and the replica's actions."""
    top = r.config.fallback_top_height
    fqcs, acts = [], []
    for h in range(1, top + 1):
        key = (view, r.rid, h)
        for s in range(4):
            if s == r.rid:
                continue
            if key in r.state.fqc_by_key:
                break
            blk = [b for b in r.state.blocks.values()
                   if getattr(b, "height", None) == h
                   and getattr(b, "proposer", None) == r.rid
                   and b.view == view]
            v = FBVote(blk[0].id, blk[0].round, view, h, r.rid, s)
            acts += r.handle_fvote(v, s)
        fqcs.append(r.state.fqc_by_key[key])
    return fqcs, acts


def test_three_chain_proposer_grows_to_height_three_and_relays():
    r, _ = boot(3)
    acts = enter_fb(r)
    fqcs, grown = grow_own_chain(r)
    acts += grown
    assert [q.height for q in fqcs] == [1, 2, 3]
    assert [q.round for q in fqcs] == [1, 2, 3]  # consecutive by construction
    proposed = [m.msg.block for m in multis(acts, FBProposal)]
    assert [(b.height, b.proposer) for b in proposed] == [(1, 3), (2, 3), (3, 3)]
    assert [m.msg.fqc for m in multis(acts, FQCRelay)] == [fqcs[-1]]
    # the top certificate relayed back registers nothing new
    assert r.handle_fqc_relay(FQCRelay(fqcs[-1], 0), 0) == []
    # completion marks count distinct proposers; own top certificate is one
    assert r.state.completion_marks[0] == {3}


def test_three_chain_ignores_foreign_chains_without_adoption():
    for adopt, heights in ((False, []), (True, [2])):
        r, _ = boot(3, mk(adopt_foreign_fchains=adopt))
        enter_fb(r)
        fb1 = fb_block(1, 1, genesis_qc(4))
        fqc1 = FallbackQC(fb1.id, fb1.round, 0, 1, 1, QUORUM)
        acts = r.handle_fblock(FBProposal(fb_block(1, 2, fqc1), None), 1)
        # a height-2 block on the foreign certificate only when adopting
        assert [m.msg.block.height for m in multis(acts, FBProposal)] \
            == heights, adopt
        assert r.state.fqc_by_key[(0, 1, 1)] == fqc1


def test_three_chain_completion_marks_trigger_coin_share():
    r, _ = boot(3)
    enter_fb(r)
    shares = []
    for proposer in (0, 1, 2, 3, 2):  # the last relay is a repeat
        fb3 = make_block(
            FallbackQC("x" * 32, 2, 0, 2, proposer, QUORUM), 3, 0,
            TxnBatch("t", 1), 3, proposer)
        fqc3 = FallbackQC(fb3.id, 3, 0, 3, proposer, QUORUM)
        acts = r.handle_fqc_relay(FQCRelay(fqc3, proposer), proposer)
        shares.append([m.msg for m in multis(acts, CoinShare)])
    # exactly at the third distinct proposer; neither a fourth completed
    # chain nor a repeated relay triggers a second share
    assert shares == [[], [], [CoinShare(0, 3)], [], []]


def test_exit_on_coin_quorum_elected_self_commits_in_view():
    cfg = mk(run_seed=2)  # view-0 election names replica 3
    assert elect_leader(0, 2, 4) == 3
    r, _ = boot(3, cfg)
    enter_fb(r)
    fqcs, _ = grow_own_chain(r)
    acts = r.handle_coin(CoinShare(0, 0), 0)
    assert not commits(acts)
    acts = r.handle_coin(CoinShare(0, 1), 1)  # f+1 shares complete the coin
    st = r.state
    assert st.coin_history[0] == CoinQC(0, 3, frozenset({0, 1}))
    assert not st.in_fallback
    assert st.current_view == 1
    assert multis(acts, CoinQCRelay)
    assert [a for a in acts if isinstance(a, SetTimer)]
    # own chain became endorsed: heights 1..3 commit the height-1 block
    got = commits(acts)
    assert len(got) == 1 and list(got[0].block_ids) == [fqcs[0].block_id]
    assert st.high_qc == fqcs[-1]
    # lock follows the parent of the endorsed top, itself endorsed
    assert st.locked_rank == Rank(0, True, 2)


def test_forged_fqc_above_top_height_is_dropped():
    # the coin looks up the elected chain at heights 1..top only, so no
    # certificate outside that range may be registered
    for variant in ("three_chain", "two_chain"):
        r, _ = boot(3, mk(variant=variant))
        top = r.config.fallback_top_height
        fqc = FallbackQC("x" * 32, top + 1, 0, top + 1, 1, QUORUM)
        assert r.handle_message(FQCRelay(fqc, 1), 1) == []
        assert r.state.fqc_by_key == {}
        assert r.state.dropped == {"bad_fqc": 1}


def test_exit_adjusts_r_vote_to_elected_leaders_chain():
    cfg = mk(run_seed=0)  # view-0 election names replica 1
    assert elect_leader(0, 0, 4) == 1
    r, _ = boot(3, cfg)
    ftc = enter_with_ticket(r)
    fb1 = fb_block(1, 1, genesis_qc(4))
    r.handle_fblock(FBProposal(fb1, ftc), 1)
    assert r.state.fallback_voted_round[1] == 1
    r.handle_coin(CoinShare(0, 0), 0)
    acts = r.handle_coin(CoinShare(0, 2), 2)
    assert r.state.voted_round == 1  # adopted from the fallback bookkeeping
    assert r.state.current_view == 1
    assert not r.state.in_fallback


def test_bystander_exit_keeps_r_vote():
    # a replica that never timed out follows the relayed coin forward
    r, _ = boot(2)
    (b1, _), = chain([1])
    r.handle_proposal(Proposal(b1, 0), 0)
    assert r.state.voted_round == 1
    coin = CoinQC(0, 1, frozenset({0, 3}))
    acts = r.handle_coin(CoinQCRelay(coin, 3), 3)
    assert r.state.current_view == 1
    assert r.state.voted_round == 1  # untouched: mode was false
    assert not r.state.in_fallback
    assert multis(acts, CoinQCRelay)  # relayed onward once


def test_new_view_proposal_with_coin_evidence_gets_votes():
    cfg = mk(run_seed=2)
    r, _ = boot(3, cfg)
    enter_fb(r)
    fqcs, _ = grow_own_chain(r)
    r.handle_coin(CoinShare(0, 0), 0)
    r.handle_coin(CoinShare(0, 1), 1)
    assert r.state.current_round == 4  # endorsed top at round 3 advanced us
    nxt = make_block(fqcs[-1], 4, 1, TxnBatch("steady-again", 64))
    acts = r.handle_proposal(Proposal(nxt, 0, r.state.coin_history[0]), 0)
    votes = sends(acts, Vote)
    assert len(votes) == 1 and votes[0].msg.round == 4


# --- two-chain variant ------------------------------------------------------


def test_two_chain_adopts_first_certified_height_one():
    r, _ = boot(3, mk(variant="two_chain"))
    enter_fb(r)
    fb1 = fb_block(1, 1, genesis_qc(4))
    fqc1 = FallbackQC(fb1.id, fb1.round, 0, 1, 1, QUORUM)
    fb2_foreign = fb_block(1, 2, fqc1)
    acts = r.handle_fblock(FBProposal(fb2_foreign, None), 1)
    own = [m.msg.block for m in multis(acts, FBProposal)]
    assert len(own) == 1
    assert own[0].proposer == 3 and own[0].height == 2
    assert own[0].parent_qc == fqc1  # extends the foreign chain
    # a later certified height-1 by someone else draws no second reaction
    fb1b = fb_block(2, 1, genesis_qc(4))
    fqc1b = FallbackQC(fb1b.id, fb1b.round, 0, 1, 2, QUORUM)
    acts = r.handle_fblock(FBProposal(fb_block(2, 2, fqc1b), None), 2)
    assert not multis(acts, FBProposal)


def test_two_chain_counter_signs_first_top_certificate():
    r, _ = boot(3, mk(variant="two_chain"))
    enter_fb(r)
    fqc2 = FallbackQC("y" * 32, 2, 0, 2, 1, QUORUM)
    acts = r.handle_fqc_relay(FQCRelay(fqc2, 0), 0)
    mine = multis(acts, FQCRelay)
    assert len(mine) == 1 and mine[0].msg.sender == 3
    # once per view, even for a different top certificate
    fqc2b = FallbackQC("z" * 32, 2, 0, 2, 2, QUORUM)
    assert not multis(r.handle_fqc_relay(FQCRelay(fqc2b, 1), 1), FQCRelay)


def test_two_chain_counter_signers_trigger_coin_share():
    r, _ = boot(3, mk(variant="two_chain"))
    enter_fb(r)
    fqc2 = FallbackQC("y" * 32, 2, 0, 2, 1, QUORUM)
    shares = []
    for signer in (0, 1, 2):
        acts = r.handle_fqc_relay(FQCRelay(fqc2, signer), signer)
        shares += multis(acts, CoinShare)
    assert len(shares) == 1  # third distinct counter-signer


def test_two_chain_exit_commits_elected_pair():
    cfg = mk(variant="two_chain", run_seed=2)
    r, _ = boot(3, cfg)
    enter_fb(r)
    fqcs, _ = grow_own_chain(r)
    assert [q.height for q in fqcs] == [1, 2]
    r.handle_coin(CoinShare(0, 0), 0)
    acts = r.handle_coin(CoinShare(0, 1), 1)
    got = commits(acts)
    assert len(got) == 1 and list(got[0].block_ids) == [fqcs[0].block_id]
    assert r.state.locked_rank == Rank(0, True, 2)  # the certificate itself


# --- the door: author, block id and certificates -----------------------------

COIN = CoinQC(0, elect_leader(0, 0, 4), frozenset({0, 1}))

# One message of each kind by an author, built from its certificate slots
# (the defaults verify), so a carried block's id always matches its parent.
DOOR = {
    Proposal: ({"parent": genesis_qc(4), "coin_qc": COIN},
               lambda a, c: Proposal(make_block(c["parent"], 1, 0,
                                                TxnBatch("d", 1)),
                                     a, c["coin_qc"])),
    Vote: ({}, lambda a, c: Vote("b" * 32, 1, 0, a)),
    Timeout: ({"high_qc": genesis_qc(4)},
              lambda a, c: Timeout(None, 0, c["high_qc"], a)),
    TCRelay: ({"tc": TimeoutCert(5, QUORUM)}, lambda a, c: TCRelay(c["tc"], a)),
    FTCRelay: ({"ftc": FallbackTC(0, QUORUM)},
               lambda a, c: FTCRelay(c["ftc"], a)),
    FBProposal: ({"parent": genesis_qc(4), "ftc": FallbackTC(0, QUORUM)},
                 lambda a, c: FBProposal(fb_block(a, 1, c["parent"]),
                                         c["ftc"])),
    FBVote: ({}, lambda a, c: FBVote("f" * 32, 1, 0, 1, 3, a)),
    FQCRelay: ({"fqc": FallbackQC("f" * 32, 1, 0, 1, 1, QUORUM)},
               lambda a, c: FQCRelay(c["fqc"], a)),
    CoinShare: ({}, lambda a, c: CoinShare(0, a)),
    CoinQCRelay: ({"coin_qc": COIN}, lambda a, c: CoinQCRelay(c["coin_qc"], a)),
}


def through_door(msg, sender):
    """A fresh replica 3's actions and drop counts for ``msg`` from
    ``sender``, and whether the rest of its state is unchanged."""
    r, _ = boot(3)
    before = copy.deepcopy(r.state)
    acts = r.handle_message(msg, sender)
    before.dropped = r.state.dropped
    return acts, r.state.dropped, vars(r.state) == vars(before)


def test_door_covers_every_message_kind():
    assert set(Replica._HANDLERS) == set(MESSAGE_KINDS) == set(DOOR)


def test_door_drops_a_message_its_sender_did_not_author():
    for kind, (certs, make) in DOOR.items():
        assert through_door(make(1, certs), 2) == ([], {"forged": 1}, True), kind


def test_door_drops_an_under_signed_certificate():
    for kind, (certs, make) in DOOR.items():
        assert len(message_certs(make(1, certs))) == len(certs), kind
        for slot, cert in certs.items():
            short = cert._replace(signers=frozenset({0}))
            msg = make(1, dict(certs, **{slot: short}))
            assert through_door(msg, 1) == ([], {"bad_cert": 1}, True), \
                (kind, slot)


def test_door_drops_a_block_that_does_not_match_its_id():
    for kind in (Proposal, FBProposal):
        certs, make = DOOR[kind]
        msg = make(1, certs)
        msg = msg._replace(block=msg.block._replace(id="0" * 32))
        assert through_door(msg, 1) == ([], {"bad_block_digest": 1}, True)


def test_a_forged_block_id_is_dropped_by_every_recipient():
    # one multicast object, its block's id checked once and the verdict
    # shared by every copy
    (b1, _), = chain([1])
    msg = Proposal(b1._replace(id="0" * 32), 0)
    for rid in (1, 2, 3):
        r, _ = boot(rid)
        assert r.handle_message(msg, 0) == []
        assert r.state.dropped == {"bad_block_digest": 1}
        assert msg.block.id not in r.state.blocks


def test_a_block_id_is_hashed_once_per_block_object(monkeypatch):
    _, acts = boot(0)
    msg, = [a.msg for a in multis(acts, Proposal)]
    copy_msg = decode_message(encode_message(msg))  # another Block object
    peers = [boot(rid)[0] for rid in (1, 2, 3, 1, 2, 3)]
    calls = []

    def counted(*args):
        calls.append(args)
        return block_id_of(*args)

    block_id_of = core.block_id_of
    monkeypatch.setattr(core, "block_id_of", counted)
    monkeypatch.setattr(replica, "block_id_of", counted, raising=False)
    for m, r in zip([msg] * 3 + [copy_msg] * 3, peers):
        r.handle_message(m, 0)
        assert msg.block.id in r.state.blocks and r.state.dropped == {}
    assert len(calls) == 2


# --- every drop reason, through the door --------------------------------------


def view_shares(view):
    """A quorum of view-timeout shares: replica 3 enters that view's fallback."""
    return [(Timeout(None, view, genesis_qc(4), s), s) for s in (0, 1, 2)]


def round_shares(rnd):
    return [(Timeout(rnd, None, genesis_qc(4), s), s) for s in (0, 1, 2)]


(B1, QC1), (B2, _) = chain([1, 2])
TICKET = FallbackTC(0, QUORUM)
# replica 2's height-1 certificate; COIN elects replica 1
LOSER = FallbackQC("e" * 32, 1, 0, 1, 2, QUORUM)
assert COIN.elected == 1

# (reason, config overrides, inputs to a fresh replica 3): the last input is
# dropped for the reason and nothing else is
DROPS = [
    ("forged", {}, [(Vote(B1.id, 1, 0, 1), 2)]),
    ("bad_block_digest", {}, [(Proposal(B1._replace(id="0" * 32), 0), 0)]),
    ("bad_cert", {}, [(Timeout(None, 0, QC1._replace(signers=frozenset({0})),
                               1), 1)]),
    ("malformed_proposal", {},
     [(Proposal(fb_block(0, 1, genesis_qc(4)), 0), 0)]),
    ("wrong_leader", {}, [(Proposal(B1, 2), 2)]),
    ("conflicting_proposal", {},
     [(Proposal(B1, 0), 0),
      (Proposal(make_block(genesis_qc(4), 1, 0, TxnBatch("twin", 1)), 0), 0)]),
    # lock (0,F,1) from the 2-chain rule, then a round-3 block on genesis
    ("lock_violation", {"variant": "two_chain", "pacemaker": "baseline_tc"},
     [(Proposal(B1, 0), 0), (Proposal(B2, 0), 0), *round_shares(2),
      (Proposal(make_block(genesis_qc(4), 3, 0, TxnBatch("low", 1)), 0), 0)]),
    ("misdirected_vote", {}, [(Vote(B1.id, 1, 0, 1), 1)]),  # 0 leads round 2
    ("misdirected_vote", {}, [(FBVote("f" * 32, 1, 0, 1, 1, 2), 2)]),
    ("malformed_timeout", {"pacemaker": "baseline_tc"},
     [(Timeout(None, 0, genesis_qc(4), 1), 1)]),
    ("malformed_timeout", {}, [(Timeout(1, None, genesis_qc(4), 1), 1)]),
    ("unexpected_tc", {}, [(TCRelay(TimeoutCert(1, QUORUM), 1), 1)]),
    ("bad_fqc", {},
     [(FQCRelay(FallbackQC("f" * 32, 4, 0, 4, 1, QUORUM), 1), 1)]),
    ("malformed_fblock", {},  # above the top height
     [(FBProposal(fb_block(1, 4, FallbackQC("f" * 32, 3, 0, 3, 1, QUORUM)),
                  None), 1)]),
    ("malformed_fblock", {},  # height 2 on a regular certificate
     [(FBProposal(fb_block(1, 2, genesis_qc(4)), None), 1)]),
    ("bad_ftc", {},
     [*view_shares(0), (FBProposal(fb_block(1, 1, genesis_qc(4)), None), 1)]),
    ("buffer_overflow", {},
     [(CoinShare(v, 1), 1) for v in range(1, PENDING_CAP + 2)]),
    ("unendorsed_parent", {},
     [(CoinQCRelay(COIN, 0), 0),
      (Proposal(make_block(LOSER, 2, 1, TxnBatch("u", 1)), 0), 0)]),
]


@pytest.mark.parametrize("reason,cfg,inputs", DROPS,
                         ids=[row[0] for row in DROPS])
def test_each_drop_reason(reason, cfg, inputs):
    r, _ = boot(3, mk(**cfg))
    for msg, sender in inputs:
        r.handle_message(msg, sender)
    assert r.state.dropped == {reason: 1}


def test_drop_table_covers_every_reason():
    reasons = set(re.findall(r'_drop\("(\w+)"\)', inspect.getsource(replica)))
    assert {row[0] for row in DROPS} == reasons


def test_out_of_range_fallback_parent_is_dropped_once_at_the_door():
    # a proposal on a height-4 certificate whose proposer view 0's coin
    # elects: refused on arrival, it neither waits for the coin nor comes
    # back on the fallback entry that re-handles waiting inputs
    r, _ = boot(3)
    bad = FallbackQC("e" * 32, 5, 0, 4, COIN.elected, QUORUM)
    b = make_block(bad, 6, 1, TxnBatch("x", 1))
    acts = []
    for msg, sender in [(Proposal(b, r.leader_of(6)), r.leader_of(6)),
                        *view_shares(0), (CoinQCRelay(COIN, 0), 0)]:
        acts += r.handle_message(msg, sender)
    st = r.state
    assert st.dropped == {"bad_fqc": 1} and st.pending == []
    assert st.high_qc == genesis_qc(4)
    assert not sends(acts, Vote) and b.id not in st.blocks


# --- out-of-order inputs --------------------------------------------------------

COIN1 = CoinQC(1, elect_leader(1, 0, 4), frozenset({0, 1}))

# a view-1 message for a replica in view 0, and what it leaves once handled
VIEW_ONE = [
    (FQCRelay(FallbackQC("f" * 32, 1, 1, 1, 2, QUORUM), 2),
     lambda st: (1, 2, 1) in st.fqc_by_key),
    (CoinShare(1, 2), lambda st: st.coin_shares.get(1) == {2}),
    (CoinQCRelay(COIN1, 2),
     lambda st: st.coin_history.get(1) == COIN1 and st.current_view == 2),
]


@pytest.mark.parametrize("msg,handled", VIEW_ONE,
                         ids=[type(m).__name__ for m, _ in VIEW_ONE])
def test_next_view_message_waits_for_the_view_change(msg, handled):
    r, _ = boot(3)
    assert r.handle_message(msg, 2) == []
    assert r.state.pending == [(2, msg)]
    assert not handled(r.state)
    r.handle_message(CoinQCRelay(COIN, 0), 0)  # view 0's coin: on to view 1
    assert r.state.pending == [] and r.state.pending_per_sender == {2: 0}
    assert handled(r.state)


def test_coin_relayed_early_is_kept_when_the_view_is_skipped():
    # view 1's coin reaches replica 3 in view 0; view 2's fallback then
    # starts, and the waiting coin still lands in the history
    r, _ = boot(3)
    assert r.handle_message(CoinQCRelay(COIN1, 2), 2) == []
    for msg, sender in view_shares(2):
        r.handle_message(msg, sender)
    st = r.state
    assert st.entered_fallback_view == 2 and st.coin_history == {1: COIN1}
    assert st.pending == [] and st.dropped == {}


WINNER = FallbackQC("e" * 32, 1, 0, 1, 1, QUORUM)  # elected by COIN
ON_WINNER = [
    (Proposal(make_block(WINNER, 2, 1, TxnBatch("next", 1)), 0), 0),
    (FBProposal(fb_block(2, 1, WINNER, view=1), FallbackTC(1, QUORUM)), 2),
]


@pytest.mark.parametrize("msg,sender", ON_WINNER,
                         ids=[type(m).__name__ for m, _ in ON_WINNER])
def test_block_on_a_fallback_parent_waits_for_its_coin(msg, sender):
    r, _ = boot(3)
    assert r.handle_message(msg, sender) == []
    assert r.state.pending == [(sender, msg)]
    assert msg.block.id not in r.state.blocks
    acts = r.handle_message(CoinQCRelay(COIN, 0), 0)
    assert msg.block.id in r.state.blocks
    if isinstance(msg, Proposal):
        assert sends(acts, Vote) == [Send(0, Vote(msg.block.id, 2, 1, 3))]
        assert r.state.pending == []
    else:  # next it waits for the replica to enter view 1's fallback
        assert r.state.pending == [(sender, msg)]
        acts = [a for share in view_shares(1) for a in r.handle_message(*share)]
        assert r.state.pending == []
        assert sends(acts, FBVote) == \
            [Send(2, FBVote(msg.block.id, 2, 1, 1, 2, 3))]


def test_fallback_certificate_without_its_coin_moves_no_lock():
    r, _ = boot(3)
    assert r.handle_message(Timeout(None, 0, WINNER, 1), 1) == []
    st = r.state
    assert st.fqc_by_key == {(0, 1, 1): WINNER}
    assert (st.high_qc, st.locked_rank, st.current_round) == \
        (genesis_qc(4), ZERO_RANK, 1)


def test_coin_for_a_past_view_still_commits_its_chain():
    # replica 1's view-0 chain reaches height 3 while replica 3 moves on to
    # view 1; view 0's coin then endorses it, and its base commits
    r, _ = boot(3)
    for msg, sender in view_shares(0):
        r.handle_message(msg, sender)
    parent, ticket = genesis_qc(4), TICKET
    for h in (1, 2, 3):
        fb = fb_block(1, h, parent)
        r.handle_message(FBProposal(fb, ticket), 1)
        parent, ticket = FallbackQC(fb.id, h, 0, h, 1, QUORUM), None
    r.handle_message(FQCRelay(parent, 1), 1)
    for msg, sender in view_shares(1):
        r.handle_message(msg, sender)
    assert r.state.current_view == 1 and r.state.in_fallback
    acts = r.handle_message(CoinQCRelay(COIN, 0), 0)
    assert [c.block_ids for c in commits(acts)] == [(fb_block(1, 1,
                                                              genesis_qc(4)).id,)]
    assert r.state.current_view == 1 and r.state.in_fallback
    assert multis(acts, CoinQCRelay)


def test_commit_waits_for_a_missing_ancestor_body():
    r, _ = boot(3)
    parts = chain([1, 2, 3, 4, 5])
    for b, _qc in parts[1:]:
        assert not commits(feed(r, b))  # b2..b4 certified, b1 unseen
    assert r.state.committed == {}
    assert r.state.commit_frontier == {b.id for b, _ in parts[1:4]}
    got = commits(feed(r, parts[0][0]))
    assert [bid for c in got for bid in c.block_ids] == \
        [parts[0][0].id, parts[1][0].id]


def fallback_vote_on(block, ftc=None):
    r, _ = boot(3)
    for msg, sender in view_shares(0):
        r.handle_message(msg, sender)
    acts = r.handle_message(FBProposal(block, ftc), block.proposer)
    return sends(acts, FBVote), r.state.dropped, r.state.fallback_voted_height


def test_fallback_vote_rules_reject_malformed_chains():
    own = FallbackQC("e" * 32, 1, 0, 1, 1, QUORUM)
    for block, ftc in (
            # height 1 skipping a round past its parent
            (make_block(genesis_qc(4), 2, 0, TxnBatch("gap", 1), 1, 1), TICKET),
            # height 2 on another proposer's chain, without adoption
            (fb_block(1, 2, LOSER), None),
            # height 2 skipping a round past its own height 1
            (make_block(own, 3, 0, TxnBatch("gap", 1), 2, 1), None)):
        votes, dropped, voted = fallback_vote_on(block, ftc)
        assert (votes, dropped, voted[1]) == ([], {}, 0), block


# --- determinism soak against the simulator ---------------------------------


def test_replica_is_a_deterministic_state_machine():
    # replay one replica's delivered inputs from a full simulation and
    # require the identical commit sequence and monotone state evolution
    cfg = mk(timeout_duration=40, run_seed=5)
    adv = AdversarySpec(Asynchronous((1, 8), (("proposal", (60, 120)),)), ())
    trace = run(cfg, adv, 600)
    rid = 2
    expected = []
    for rec in trace.records:
        if rec["kind"] == "commit" and rec["rid"] == rid:
            expected += rec["blocks"]

    r = Replica(cfg, rid)
    r.init()
    seen = []
    prev = (0, 0, ZERO_RANK, ZERO_RANK)
    for rec in trace.records:
        if rec["kind"] == "deliver" and rec["to"] == rid:
            # in-memory records carry the live message object
            acts = r.handle_message(rec["m"], rec["frm"])
        elif rec["kind"] == "timer_fire" and rec["rid"] == rid:
            acts = r.handle_timer_expiry(rec["round"])
        else:
            continue
        for a in acts:
            if isinstance(a, CommitNotice):
                seen += a.block_ids
        st = r.state
        cur = (st.current_view, st.current_round, st.locked_rank,
               rank_of(st.high_qc, st.coin_history))
        assert cur[0] >= prev[0]
        assert cur[1] >= prev[1]
        assert cur[2] >= prev[2]
        assert cur[3] >= prev[3]
        prev = cur
    assert seen == expected
    assert list(r.state.committed) == expected


# --- what a replica keeps ----------------------------------------------------


def keeps_all(r: Replica) -> Replica:
    """``r`` with no block ever settled: it drops and refuses nothing."""
    r._settled = lambda *args: False
    return r


def committed_through(r: Replica, top: int):
    """Feed ``r`` a certified chain of rounds 1..top; it commits 1..top-3."""
    parts = chain(range(1, top + 1))
    acts = []
    for b, _qc in parts:
        acts += feed(r, b)
    assert len(r.state.committed) == top - 3
    return parts, acts


def certify_without_lock_update(r: Replica, parts) -> None:
    """Store each body and its certificate, as no input would: the lock
    and the round stay where they are."""
    for b, qc in parts:
        r._store_body(b)
        r._register_qc(qc)


def test_a_spent_bucket_is_one_shared_marker():
    r, _ = boot(0)
    (b1, _), (b2, _) = chain([1, 2])
    for b in (b1, b2):
        got = [r.handle_vote(Vote(b.id, b.round, 0, s), s) for s in range(4)]
        assert [bool(acts) for acts in got] == [False, False, True, False]
    assert all(bucket is replica.SPENT
               for bucket in r.state.vote_shares.values())


def test_committed_bodies_go_and_the_log_stays_whole():
    r = boot(3)[0]
    parts, acts = committed_through(r, 40)
    full = keeps_all(boot(3)[0])
    assert committed_through(full, 40)[1] == acts
    st = r.state
    assert list(st.committed) == list(full.state.committed)
    assert len(st.blocks) < replica.PRUNE_FLOOR < len(full.state.blocks)
    assert r.genesis.id in st.blocks and parts[-1][0].id in st.blocks
    assert parts[0][0].id not in st.blocks | st.qc_by_block.keys()


def test_a_committed_block_stays_until_the_lock_passes_it():
    # registered without lock_update, b1 commits with the lock at genesis:
    # late votes for b1 must still certify it and raise the lock
    r, _ = boot(0, mk(variant="two_chain"))
    (b1, qc1), (b2, qc2) = parts = chain([1, 2])
    certify_without_lock_update(r, parts)
    r.advance_round(qc2)
    assert r.try_commit() == [CommitNotice((b1.id,))]
    r._prune()
    assert b1.id in r.state.blocks and r.state.locked_rank == ZERO_RANK
    for s in (1, 2, 3):
        r.handle_vote(Vote(b1.id, 1, 0, s), s)
    assert r.state.locked_rank == Rank(0, False, 1)


def test_a_committed_block_stays_until_its_round_has_passed():
    # b1..b3 commit while the round is still 1: late votes for b3 must
    # still certify it and move the round
    r, _ = boot(0)
    parts = chain(range(1, 6))
    certify_without_lock_update(r, parts)
    r._raise_lock(parts[-1][1])
    r.try_commit()
    r._prune()
    b3 = parts[2][0]
    assert b3.id in r.state.committed and b3.id in r.state.blocks
    acts = []
    for s in (1, 2, 3):
        acts += r.handle_vote(Vote(b3.id, 3, 0, s), s)
    assert SetTimer(4, 50) in acts and r.state.current_round == 4


def test_a_committed_body_stays_until_its_parent_is_below_the_lock():
    # z at round 2 sits on a round-5 parent: once z is committed and the
    # lock passes z but not its parent, a certificate for z must still
    # raise the lock to z's parent
    r, _ = boot(3)
    (p, qc_p), = chain([5])
    z = make_block(qc_p, 2, 0, TxnBatch("z", 64))
    tail = chain([3, 4], start_parent=QC(z.id, 2, 0, QUORUM))
    certify_without_lock_update(r, [(p, qc_p), (z, QC(z.id, 2, 0, QUORUM)),
                                    *tail])
    r.advance_round(tail[-1][1])
    r.try_commit()
    r._raise_lock(tail[0][1])  # rank of round 3: above z, below p
    r._prune()
    assert z.id in r.state.committed and z.id in r.state.blocks
    r.lock_update(QC(z.id, 2, 0, frozenset({0, 1, 3})))
    assert r.state.locked_rank == Rank(0, False, 5)


def test_a_fork_joins_the_log_where_it_did_before_pruning():
    # a fork off b2, whose body is gone: the commit walk still stops at b2
    got = []
    for r in (boot(3)[0], keeps_all(boot(3)[0])):
        parts, _ = committed_through(r, 40)
        fork = chain(range(50, 54), start_parent=parts[1][1])
        acts = []
        for b, _qc in fork:
            acts += feed(r, b)
        acts += r.lock_update(fork[-1][1])
        assert commits(acts) == [CommitNotice((fork[0][0].id,)),
                                 CommitNotice((fork[1][0].id,))]
        got.append((acts, list(r.state.committed)))
    assert got[0] == got[1]


def test_a_top_whose_walk_meets_a_dropped_block_settles():
    # y forks off the committed tip b37 at round 38: its walk meets b37
    got = []
    for r in (boot(3)[0], keeps_all(boot(3)[0])):
        parts, _ = committed_through(r, 40)
        y = make_block(parts[36][1], 38, 0, TxnBatch("y", 64))
        r._store_body(y)
        r._register_qc(QC(y.id, 38, 0, QUORUM))
        assert r.state.commit_frontier == {y.id}
        got.append(r.try_commit())
        assert r.state.commit_frontier == set()
    assert got == [[], []]


def test_late_copies_of_dropped_state_change_nothing():
    stores = ("blocks", "qc_by_block", "vote_shares", "pending_rank_locks",
              "commit_frontier")
    got, sizes = [], []
    for r in (boot(3)[0], keeps_all(boot(3)[0])):
        parts, _ = committed_through(r, 40)
        sizes.append({s: len(getattr(r.state, s)) for s in stores})
        b13, qc13 = parts[12]  # replica 3 leads round 14, so gets its votes
        acts = feed(r, b13)
        acts += r.lock_update(qc13)
        acts += r.lock_update(QC(b13.id, 13, 0, frozenset({1, 2, 3})))
        for s in range(4):
            acts += r.handle_vote(Vote(b13.id, 13, 0, s), s)
        acts += r.handle_timeout_msg(Timeout(None, 0, qc13, 1), 1)
        got.append(acts)
        sizes.append({s: len(getattr(r.state, s)) for s in stores})
    assert got[0] == got[1]
    # the pruned replica grows nothing back; the other holds a vote bucket
    assert sizes[1] == sizes[0]
    assert sizes[3]["vote_shares"] == sizes[2]["vote_shares"] + 1


def test_what_names_a_body_that_never_came_goes_once_settled():
    # certificates and a fallback vote for blocks whose bodies never
    # arrive: a regular fork x and replica 3's fallback block fb, both at
    # round 2 of view 0, whose coin elects replica 1, not 3
    r, _ = boot(3)
    assert elect_leader(0, 0, 4) == 1
    x, fb = "x" * 32, "f" * 32
    fqc = FallbackQC(fb, 2, 0, 1, 3, QUORUM)
    fvote_key = (fb, 2, 0, 1, 3)
    for msg in (Timeout(None, 0, QC(x, 2, 0, QUORUM), 1), FQCRelay(fqc, 1),
                FBVote(*fvote_key, 1), CoinQCRelay(CoinQC(0, 1, QUORUM), 1)):
        r.handle_message(msg, 1)
    st = r.state
    assert (x in st.qc_by_block and st.fqc_by_block[fb] is fqc
            and st.fqc_by_key[(0, 3, 1)] is fqc and fvote_key in st.fvote_shares)
    # a chain through round 40 settles both: past, below the highest
    # committed round, below the lock, and neither committed
    for b, _qc in chain(range(1, 41)):
        leader = r.leader_of(b.round)
        r.handle_message(Proposal(b, leader), leader)
    assert len(st.committed) == 37 and st.current_view == 1
    assert x not in st.qc_by_block and fb not in st.fqc_by_block
    assert (0, 3, 1) not in st.fqc_by_key and fvote_key not in st.fvote_shares
    # a late vote opens no new bucket for the dead block
    assert r.handle_message(FBVote(*fvote_key, 2), 2) == []
    assert fvote_key not in st.fvote_shares


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"
# every store a rule reads but two that grow by design: committed's ids,
# the log itself, and coin_history, one coin per view, which every rank
# and every late coin reads
STORES = ("blocks", "qc_by_block", "fqc_by_key", "fqc_by_block",
          "vote_shares", "fvote_shares", "timeout_round_shares",
          "timeout_view_shares", "coin_shares", "completion_marks",
          "reacted_f_heights", "fallback_voted_round",
          "fallback_voted_height", "seen_proposals", "pending",
          "pending_rank_locks", "commit_frontier")
# a store that never holds more than this has not grown: pending holds a
# few early inputs at any horizon
SMALL = 8


def peak_sizes(name: str, horizon: int) -> dict[str, int]:
    """The most each store held at any replica, after any input, in a run
    of workload ``name``'s scenario to ``horizon``.  The hook wraps the
    callables the event loop calls per input, and must see every input."""
    cfg = parse_scenario(str(WORKLOADS / f"{name}.scenario"))
    sim = Simulation(cfg.protocol, cfg.adversary, horizon)
    peak = dict.fromkeys(STORES, 0)
    seen = []

    def watched(harness, step):
        def stepped(*args):
            seen.append(args)
            acts = step(*args)
            st = harness.replica.state
            for s in STORES:
                peak[s] = max(peak[s], len(getattr(st, s)))
            return acts
        return stepped

    for harness in sim.harnesses:
        harness.on_message = watched(harness, harness.on_message)
        harness.on_timer = watched(harness, harness.on_timer)
    inputs = []
    sim.run(lambda rec: inputs.append(rec["kind"] in ("deliver",
                                                      "timer_fire")))
    assert len(seen) == sum(inputs) > 0
    return peak


@pytest.mark.parametrize("name,horizon", [("steady_long", 1500),
                                          ("starved_fallback", 300)])
def test_no_store_grows_with_the_horizon(name, horizon):
    short, long = peak_sizes(name, horizon), peak_sizes(name, 2 * horizon)
    for s in STORES:
        assert long[s] <= max(short[s], SMALL), (s, short[s], long[s])


@pytest.mark.parametrize("case", [c for c, _ in GRID])
def test_a_prune_leaves_nothing_dead(case):
    # every certificate and vote bucket of a dropped body goes with it, as
    # it shares the body's view and round, and a second pass finds nothing
    sim = Simulation(*scenario_of(case))
    sim.run(lambda rec: None)
    for r in (h.replica for h in sim.harnesses):
        st = r.state
        held = st.blocks.keys() - {r.genesis.id}
        r._prune()
        gone = held - st.blocks.keys()
        certs = [c for s in (st.qc_by_block, st.fqc_by_block, st.fqc_by_key)
                 for c in s.values()]
        assert not any(r._dead(c.block_id, c.view, c.round, c.proposer)
                       or c.block_id in gone for c in certs)
        buckets = [*st.vote_shares, *st.fvote_shares]
        assert not any(r._dead(k[0], k[2], k[1], *k[4:]) or k[0] in gone
                       for k in buckets)
        before = copy.deepcopy(vars(st))
        r._prune()
        assert vars(st) == before


def random_run(k: int):
    """Scenario ``k`` of a fixed random matrix: every variant, pacemaker,
    delay model and fault kind, at most f faults."""
    rnd = random.Random(k)
    n = rnd.choice((4, 7, 10))
    f = (n - 1) // 3
    cfg = mk(n=n, f=f, variant=rnd.choice(replica.VARIANTS),
             pacemaker=rnd.choice(replica.PACEMAKERS),
             timeout_duration=rnd.choice((10, 20, 40)),
             leader_rotation_period=rnd.choice((1, 2, 4)),
             adopt_foreign_fchains=rnd.random() < 0.3, run_seed=k)
    model = rnd.choice((
        Synchronous(rnd.choice((1, 2, 5))),
        PartialSynchrony(gst=rnd.choice((50, 120)), delta=2,
                         pre_gst_delay_bound=rnd.choice((10, 30, 60))),
        Asynchronous((1, rnd.choice((3, 8, 20))), (("proposal", (20, 120)),)),
        Asynchronous((1, rnd.choice((10, 60))), ())))
    faults = tuple(sorted(
        (rid, rnd.choice((Crash(at=rnd.randrange(20, 300)), MuteLeader(),
                          Equivocate())))
        for rid in rnd.sample(range(n), rnd.randrange(f + 1))))
    return cfg, AdversarySpec(model, faults), rnd.choice((300, 600))


def test_dropping_changes_no_output(monkeypatch):
    for k in range(16):
        run_k = random_run(k)
        kept = run(*run_k).digest()
        with monkeypatch.context() as m:
            m.setattr(Replica, "_settled", lambda self, *args: False)
            assert run(*run_k).digest() == kept, run_k
