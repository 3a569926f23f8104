"""Safety checker, metrics, and fallback statistics."""

from collections import Counter

import pytest

from bftsim.core import (
    CoinQC,
    CoinQCRelay,
    Proposal,
    QC,
    Timeout,
    TxnBatch,
    Vote,
    genesis_qc,
    make_block,
)
from bftsim.replica import ReplicaConfig
from bftsim.simnet import (
    AdversarySpec,
    Asynchronous,
    Crash,
    Equivocate,
    MuteLeader,
    Synchronous,
    Trace,
    run,
)
from bftsim.analysis import (
    NoFallbacks,
    check_safety,
    fallback_stats,
    fit_polynomial,
    measure,
)


def mk(**kw) -> ReplicaConfig:
    base = dict(n=4, f=1, variant="three_chain", pacemaker="async_fallback",
                timeout_duration=50, run_seed=3)
    base.update(kw)
    return ReplicaConfig(**base)


def steady(variant="three_chain", horizon=240, **kw):
    return run(mk(variant=variant, **kw), AdversarySpec(Synchronous(1), ()),
               horizon)


def starved(variant="three_chain", seed=3, horizon=900):
    adv = AdversarySpec(Asynchronous((1, 8), (("proposal", (60, 120)),)), ())
    return run(mk(variant=variant, timeout_duration=40, run_seed=seed), adv,
               horizon)


def clone(trace):
    return Trace(dict(trace.meta), [dict(r) for r in trace.records])


# --- metrics against hand counts --------------------------------------------


def test_steady_state_messages_hand_counted():
    tr = steady()
    # raw record scan, no analysis involvement: one proposal multicast and
    # n-1 votes per round is 2(n-1)=6 paid sends per round, 120 rounds
    delivered = [r for r in tr.records
                 if r["kind"] == "deliver" and not r["self"]]
    assert len(delivered) == 720
    per_round = Counter()
    for r in tr.records:
        if r["kind"] != "send":
            continue
        if isinstance(r["m"], Proposal):
            per_round[r["m"].block.round] += 1
        elif isinstance(r["m"], Vote):
            per_round[r["m"].round] += 1
        else:
            raise AssertionError(f"unexpected traffic: {r['m']}")
    for rnd in range(11, 21):  # any interior window
        assert per_round[rnd] == 6
    m = measure(tr)
    assert m.messages_delivered == len(delivered)
    assert m.variant_counts == {"proposal": 360, "vote": 360}
    # 2 units per proposal, 1 per vote
    assert m.size_units == 360 * 2 + 360 * 1
    assert m.commits_total == 118
    assert m.views_completed == 0


def test_commit_latency_exact_three_chain():
    m = measure(steady())
    assert m.commit_latency_histogram == {6: 118}
    assert m.commit_latency_mean == 6.0


def test_commit_latency_exact_two_chain():
    m = measure(steady(variant="two_chain"))
    assert set(m.commit_latency_histogram) == {4}
    assert m.commit_latency_mean == 4.0


def test_messages_per_commit():
    m = measure(steady())
    assert m.messages_per_commit == pytest.approx(720 / 118)


def test_starved_run_uses_fallback_vocabulary():
    m = measure(starved())
    assert m.views_completed > 0
    for variant in ("timeout", "ftc_relay", "fb_proposal", "fb_vote",
                    "fqc_relay", "coin_share"):
        assert m.variant_counts.get(variant, 0) > 0, variant


# --- safety checker: clean traces -------------------------------------------


def test_clean_traces_pass():
    for tr in (steady(), steady(variant="two_chain"), starved(),
               starved(variant="two_chain")):
        rep = check_safety(tr)
        assert rep.ok, rep.violations[:3]
        assert rep.commits_checked > 0
        assert rep.certificates_checked > 0


def test_crashed_replica_prefix_is_not_a_violation():
    adv = AdversarySpec(Synchronous(1), ((0, Crash(at=40)),))
    tr = run(mk(), adv, 200)
    rep = check_safety(tr)
    assert rep.ok, rep.violations[:3]


def test_equivocating_leader_cannot_break_safety():
    adv = AdversarySpec(Synchronous(1), ((0, Equivocate()),))
    tr = run(mk(run_seed=9), adv, 300)
    rep = check_safety(tr)
    assert rep.ok, rep.violations[:3]


# --- safety checker: planted violations -------------------------------------


def test_forged_commit_without_evidence_detected():
    tr = clone(steady())
    tr.records.append({"t": 239, "q": 10 ** 9, "kind": "commit", "rid": 0,
                       "blocks": ["f" * 32], "log_len": 999})
    rep = check_safety(tr)
    assert not rep.ok
    text = "\n".join(rep.violations)
    assert "no block in trace" in text
    assert "no certificate evidence" in text


def test_conflicting_commit_detected():
    tr = clone(steady())
    idx = max(i for i, r in enumerate(tr.records)
              if r["kind"] == "commit" and r["rid"] == 0)
    rec = dict(tr.records[idx])
    rec["blocks"] = ["f" * 32]
    tr.records[idx] = rec
    rep = check_safety(tr)
    assert not rep.ok
    assert any("conflicting commits" in v for v in rep.violations)


def test_conflicting_certificates_detected():
    tr = clone(steady())
    # find a certified round and craft a second certificate for a twin block
    qc = next(r["m"].block.parent_qc for r in tr.records
              if r["kind"] == "deliver" and isinstance(r["m"], Proposal)
              and r["m"].block.round >= 2)
    twin = make_block(genesis_qc(4), qc.round, qc.view, TxnBatch("twin", 1))
    forged = QC(twin.id, qc.round, qc.view, frozenset({1, 2, 3}))
    tr.records.append({"t": 239, "q": 10 ** 9, "kind": "deliver", "frm": 3,
                       "to": 1, "m": Timeout(99, None, forged, 3),
                       "self": False})
    rep = check_safety(tr)
    assert not rep.ok
    assert any("two certified blocks" in v for v in rep.violations), \
        rep.violations


def test_conflicting_elections_detected():
    tr = clone(starved())
    coin = next(r["m"].coin_qc for r in tr.records
                if r["kind"] == "deliver" and isinstance(r["m"], CoinQCRelay))
    rigged = CoinQC(coin.view, (coin.elected + 1) % 4, coin.signers)
    tr.records.append({"t": 899, "q": 10 ** 9, "kind": "deliver", "frm": 2,
                       "to": 1, "m": CoinQCRelay(rigged, 2), "self": False})
    rep = check_safety(tr)
    assert not rep.ok
    assert any("election" in v or "coin" in v for v in rep.violations)


def test_vote_quorum_implies_certificate():
    # a commit whose only certificate evidence is 2f+1 delivered votes
    base = steady(horizon=20)
    tr = Trace(dict(base.meta), [])
    b1 = make_block(genesis_qc(4), 1, 0, TxnBatch("solo", 8))
    q = iter(range(1, 100))
    tr.records.append({"t": 1, "q": next(q), "kind": "deliver", "frm": 0,
                       "to": 0, "m": Proposal(b1, 0), "self": False})
    for voter in (1, 2, 3):
        tr.records.append({"t": 2, "q": next(q), "kind": "deliver",
                           "frm": voter, "to": 0,
                           "m": Vote(b1.id, 1, 0, voter), "self": False})
    tr.records.append({"t": 3, "q": next(q), "kind": "commit", "rid": 0,
                       "blocks": [b1.id], "log_len": 1})
    rep = check_safety(tr)
    assert rep.ok, rep.violations
    assert rep.commits_checked == 1


def test_two_delivered_votes_do_not_imply_certificate():
    base = steady(horizon=20)
    tr = Trace(dict(base.meta), [])
    b1 = make_block(genesis_qc(4), 1, 0, TxnBatch("solo", 8))
    q = iter(range(1, 100))
    tr.records.append({"t": 1, "q": next(q), "kind": "deliver", "frm": 0,
                       "to": 0, "m": Proposal(b1, 0), "self": False})
    for voter in (1, 2):  # below quorum
        tr.records.append({"t": 2, "q": next(q), "kind": "deliver",
                           "frm": voter, "to": 0,
                           "m": Vote(b1.id, 1, 0, voter), "self": False})
    tr.records.append({"t": 3, "q": next(q), "kind": "commit", "rid": 0,
                       "blocks": [b1.id], "log_len": 1})
    rep = check_safety(tr)
    assert not rep.ok
    assert any("no certificate evidence" in v for v in rep.violations)


# --- fallback statistics -----------------------------------------------------


def test_fallback_stats_on_starved_run():
    tr = starved()
    fs = fallback_stats(tr)
    assert fs["entered"] > 0
    assert 0 < fs["completed"] <= fs["entered"]
    assert 0 <= fs["commit_in_view"] <= fs["completed"]
    assert fs["fraction"] == fs["commit_in_view"] / fs["completed"]
    assert len(fs["per_trace"]) == 1


def test_fallback_stats_aggregates_traces():
    traces = [starved(seed=s, horizon=600) for s in (1, 2)]
    fs = fallback_stats(traces)
    assert len(fs["per_trace"]) == 2
    assert fs["completed"] == sum(p["completed"] for p in fs["per_trace"])


def test_fallback_stats_raises_without_fallbacks():
    with pytest.raises(NoFallbacks):
        fallback_stats(steady())


def test_mute_leader_fallbacks_commit_only_on_honest_election():
    # with the only missing chain being the mute replica's, a completed
    # fallback commits in-view exactly when the coin names someone honest
    from bftsim.analysis import index
    from bftsim.crypto import elect_leader
    from bftsim.core import FallbackBlock

    mute = 3
    adv = AdversarySpec(Asynchronous((1, 8), (("proposal", (60, 120)),)),
                        ((mute, MuteLeader()),))
    for seed in (1, 2, 3):
        cfg = mk(timeout_duration=40, run_seed=seed)
        tr = run(cfg, adv, 900)
        idx = index(tr)
        committed_views = {idx.bodies[b].view for b in idx.commit_tick
                           if isinstance(idx.bodies.get(b), FallbackBlock)}
        for v in idx.completed_views & idx.entered_views:
            elected_honest = elect_leader(v, seed, 4) != mute
            assert (v in committed_views) == elected_honest


# --- curve fitting ------------------------------------------------------------


def test_fit_polynomial_recovers_exact_line():
    xs = [4, 7, 10, 13]
    ys = [3 * x + 2 for x in xs]
    (slope, intercept), r2 = fit_polynomial(xs, ys, 1)
    assert slope == pytest.approx(3.0)
    assert intercept == pytest.approx(2.0)
    assert r2 == pytest.approx(1.0)


def test_fit_polynomial_recovers_quadratic():
    xs = [4, 7, 10, 13, 16]
    ys = [x * (x - 1) for x in xs]
    coeffs, r2 = fit_polynomial(xs, ys, 2)
    assert coeffs[0] == pytest.approx(1.0)
    assert coeffs[1] == pytest.approx(-1.0)
    assert r2 == pytest.approx(1.0)
    # a straight line explains strictly less of the quadratic growth
    _, r2_line = fit_polynomial(xs, ys, 1)
    assert r2_line < r2
