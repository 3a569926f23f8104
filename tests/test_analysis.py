"""Safety checker, metrics, and fallback statistics."""

from collections import Counter

import pytest

from bftsim import analysis
from bftsim.core import (
    CoinQC,
    CoinQCRelay,
    FallbackQC,
    FQCRelay,
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
    FAULT_KINDS,
    AdversarySpec,
    Asynchronous,
    ConfigError,
    Crash,
    Equivocate,
    Honest,
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
    index,
    measure,
)

import reference_analysis as reference


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


def stores(idx: analysis.TraceIndex) -> dict:
    """A fold's stores by name, each block's facts as its slots' values."""
    return dict(vars(idx), blocks={
        bid: [getattr(facts, name) for name in facts.__slots__]
        for bid, facts in idx.blocks.items()})


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
    m = measure(index(tr))
    assert m.messages_delivered == len(delivered)
    assert m.variant_counts == {"proposal": 360, "vote": 360}
    # 2 units per proposal, 1 per vote
    assert m.size_units == 360 * 2 + 360 * 1
    assert m.commits_total == 118
    assert m.views_completed == 0


def test_commit_latency_exact_three_chain():
    m = measure(index(steady()))
    assert m.commit_latency_histogram == {6: 118}
    assert m.commit_latency_mean == 6.0


def test_commit_latency_exact_two_chain():
    m = measure(index(steady(variant="two_chain")))
    assert set(m.commit_latency_histogram) == {4}
    assert m.commit_latency_mean == 4.0


def test_messages_per_commit():
    m = measure(index(steady()))
    assert m.messages_per_commit == pytest.approx(720 / 118)


def test_starved_run_uses_fallback_vocabulary():
    m = measure(index(starved()))
    assert m.views_completed > 0
    for variant in ("timeout", "ftc_relay", "fb_proposal", "fb_vote",
                    "fqc_relay", "coin_share"):
        assert m.variant_counts.get(variant, 0) > 0, variant


# --- safety checker: clean traces -------------------------------------------


def test_clean_traces_pass():
    for tr in (steady(), steady(variant="two_chain"), starved(),
               starved(variant="two_chain")):
        rep = check_safety(index(tr))
        assert rep.ok, rep.violations[:3]
        assert rep.commits_checked > 0
        assert rep.certificates_checked > 0


def test_crashed_replica_prefix_is_not_a_violation():
    adv = AdversarySpec(Synchronous(1), ((0, Crash(at=40)),))
    tr = run(mk(), adv, 200)
    rep = check_safety(index(tr))
    assert rep.ok, rep.violations[:3]


def test_equivocating_leader_cannot_break_safety():
    adv = AdversarySpec(Synchronous(1), ((0, Equivocate()),))
    tr = run(mk(run_seed=9), adv, 300)
    rep = check_safety(index(tr))
    assert rep.ok, rep.violations[:3]


# each fault kind: (an instance, in the checker's honest set, counts
# against f); a crash is fail-stop, so its commits are checked
FAULT_TABLE = {
    "honest": (Honest(), True, False),
    "crash": (Crash(at=10), True, True),
    "mute_leader": (MuteLeader(), False, True),
    "equivocate": (Equivocate(), False, True),
}


def test_fault_table_covers_every_kind():
    assert FAULT_TABLE.keys() == FAULT_KINDS.keys()


@pytest.mark.parametrize("kind", FAULT_TABLE)
def test_fault_kind_decides_honesty_and_budget(kind):
    fault, honest, counts = FAULT_TABLE[kind]
    assert type(fault) is FAULT_KINDS[kind]
    tr = run(mk(), AdversarySpec(Synchronous(1), ((0, fault),)), 20)
    assert index(tr).honest == ({0, 1, 2, 3} if honest else {1, 2, 3})
    # f = 1: a second faulty replica exceeds the budget if the kind counts
    pair = AdversarySpec(Synchronous(1), ((0, fault), (1, MuteLeader())))
    if counts:
        with pytest.raises(ConfigError, match="exceeds f=1"):
            pair.validate(mk())
    else:
        pair.validate(mk())


# --- safety checker: planted violations -------------------------------------


def test_forged_commit_without_evidence_detected():
    tr = clone(steady())
    tr.records.append({"t": 239, "q": 10 ** 9, "kind": "commit", "rid": 0,
                       "blocks": ["f" * 32], "log_len": 999})
    rep = check_safety(index(tr))
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
    rep = check_safety(index(tr))
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
    rep = check_safety(index(tr))
    assert not rep.ok
    assert any("two certified blocks" in v for v in rep.violations), \
        rep.violations


def test_each_certificate_is_checked_once():
    tr = clone(steady())
    idx = index(tr)
    # one key per distinct certificate the whole-trace index listed
    distinct = len(set(reference.index(tr).qcs))
    assert len(idx.qcs) == distinct > 0
    assert check_safety(idx).certificates_checked == distinct
    # a twin block certified twice in one slot: by a quorum of votes at
    # replica 1, then by the same certificate carried in a message
    _, rnd, view, _ = list(idx.qcs)[len(idx.qcs) // 2]
    twin = make_block(genesis_qc(4), rnd, view, TxnBatch("twin", 1))
    votes = [Vote(twin.id, rnd, view, voter) for voter in (1, 2, 3)]
    forged = QC(twin.id, rnd, view, frozenset({1, 2, 3}))
    _plant(tr, *votes, Timeout(99, None, forged, 3))
    rep = check_safety(index(tr))
    assert rep.certificates_checked == distinct + 1
    assert sum("two certified blocks" in v for v in rep.violations) == 1, \
        rep.violations


def test_conflicting_elections_detected():
    tr = clone(starved())
    coin = next(r["m"].coin_qc for r in tr.records
                if r["kind"] == "deliver" and isinstance(r["m"], CoinQCRelay))
    rigged = CoinQC(coin.view, (coin.elected + 1) % 4, coin.signers)
    tr.records.append({"t": 899, "q": 10 ** 9, "kind": "deliver", "frm": 2,
                       "to": 1, "m": CoinQCRelay(rigged, 2), "self": False})
    rep = check_safety(index(tr))
    assert not rep.ok
    assert any("election" in v or "coin" in v for v in rep.violations)


def _plant(tr, *msgs):
    """Deliver each message to replica 1 after the last record."""
    t = tr.records[-1]["t"]
    for msg in msgs:
        tr.records.append({"t": t, "q": 10 ** 9 + len(tr.records),
                           "kind": "deliver", "frm": 0, "to": 1, "m": msg,
                           "self": False})


def _commits_of(tr, rid):
    return [r for r in tr.records if r["kind"] == "commit" and r["rid"] == rid]


def _elected_fqc(tr):
    """A fallback certificate on the chain its view's coin elected."""
    coins = {r["m"].coin_qc.view: r["m"].coin_qc.elected for r in tr.records
             if isinstance(r.get("m"), CoinQCRelay)}
    return next(r["m"].fqc for r in tr.records
                if isinstance(r.get("m"), FQCRelay)
                and coins.get(r["m"].fqc.view) == r["m"].fqc.proposer)


def _certified(parent, rnd, view, height=None, proposer=None):
    """A block body and a certificate for it, far from the run's views."""
    b = make_block(parent, rnd, view, TxnBatch("planted", 1), height, proposer)
    return Proposal(b, 0), Timeout(99, None, QC(b.id, rnd, view,
                                                frozenset({1, 2, 3})), 3)


FAR = 10 ** 6
FAR_QC = QC("a" * 32, FAR, FAR, frozenset({1, 2, 3}))

# (a fragment of the violation, how to plant it in a clean starved trace)
PLANTED = [
    ("committed a block twice",
     lambda tr: tr.records.append(dict(_commits_of(tr, 0)[0], q=10 ** 9))),
    ("log breaks chain",
     lambda tr: tr.records.remove(_commits_of(tr, 0)[0])),
    ("conflicting fallback certificates",
     lambda tr: _plant(tr, FQCRelay(_elected_fqc(tr)._replace(
         block_id="f" * 32), 0))),
    ("two endorsed fallback blocks",  # another height, so another chain slot
     lambda tr: _plant(tr, FQCRelay(_elected_fqc(tr)._replace(
         block_id="f" * 32, height=_elected_fqc(tr).height + FAR), 0))),
    ("below its parent's view",
     lambda tr: _plant(tr, *_certified(FAR_QC, FAR + 1, FAR - 1))),
    ("does not directly extend its parent",
     lambda tr: _plant(tr, *_certified(FAR_QC, FAR + 2, FAR))),
    ("extends a fallback block without advancing",
     lambda tr: _plant(tr, *_certified(
         FallbackQC("a" * 32, FAR, FAR, 1, 0, frozenset({1, 2, 3})),
         FAR + 1, FAR))),
]


@pytest.fixture(scope="module")
def clean_starved():
    tr = starved()
    assert check_safety(index(tr)).ok
    return tr


@pytest.mark.parametrize("fragment,plant", PLANTED,
                         ids=[row[0] for row in PLANTED])
def test_planted_violation_is_reported(clean_starved, fragment, plant):
    tr = clone(clean_starved)
    plant(tr)
    rep = check_safety(index(tr))
    assert any(fragment in v for v in rep.violations), rep.violations


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
    rep = check_safety(index(tr))
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
    rep = check_safety(index(tr))
    assert not rep.ok
    assert any("no certificate evidence" in v for v in rep.violations)


def test_a_full_tally_implies_one_certificate():
    # votes past the quorum, and a repeated one, form no second certificate
    base = steady(horizon=20)
    tr = Trace(dict(base.meta), [])
    b1 = make_block(genesis_qc(4), 1, 0, TxnBatch("solo", 8))
    for q, voter in enumerate((1, 2, 3, 0, 1, 2)):
        tr.records.append({"t": 2, "q": q, "kind": "deliver", "frm": voter,
                           "to": 0, "m": Vote(b1.id, 1, 0, voter),
                           "self": voter == 0})
    # kept as (block id, round, view, signers as a bit mask)
    assert list(index(tr).qcs) == [(b1.id, 1, 0, 0b1110)]


def test_a_multicast_is_scanned_once(monkeypatch):
    # a multicast's sends share one message object: its certificates are
    # scanned once, not once per recipient
    tr = steady()
    scanned = []
    real = analysis.message_certs
    monkeypatch.setattr(analysis, "message_certs",
                        lambda m: scanned.append(m) or real(m))
    want = index(tr)
    carried = [(r["frm"], r["m"]) for r in tr.records
               if r["kind"] != "commit" and "m" in r and "sq" not in r]
    fresh = [m for k, (frm, m) in enumerate(carried)
             if k == 0 or not (m is carried[k - 1][1]
                               and frm == carried[k - 1][0])]
    assert len(fresh) < len(carried)
    assert scanned == fresh
    monkeypatch.setattr(analysis, "message_certs", real)
    assert stores(index(tr)) == stores(want)


def test_logs_share_one_string_per_block(tmp_path):
    path = tmp_path / "t.jsonl"
    steady().to_jsonl(str(path))
    idx = index(Trace.from_jsonl(str(path)))
    assert len(idx.log_last) == 4 and len(idx.canon) > 0
    # every store holds its block's own id, not a copy read from another
    # message or commit record
    held = [*idx.canon, *idx.log_last.values(),
            *(key[0] for key in idx.qcs),
            *(key[2] for key in idx.tallies if key[0] != "c"),
            *(b.parent for b in idx.blocks.values() if b.parent in idx.blocks)]
    assert len(held) > len(idx.canon)
    assert all(bid is idx.blocks[bid].id for bid in held)


# --- fallback statistics -----------------------------------------------------


def test_fallback_stats_on_starved_run():
    tr = starved()
    fs = fallback_stats(tr)
    assert fs["entered"] > 0
    assert 0 < fs["completed"] <= fs["entered"]
    assert 0 <= fs["commit_in_view"] <= fs["completed"]


def test_fallback_stats_raises_without_fallbacks():
    with pytest.raises(NoFallbacks):
        fallback_stats(steady())


def test_mute_leader_fallbacks_commit_only_on_honest_election():
    # with the only missing chain being the mute replica's, a completed
    # fallback commits in-view exactly when the coin names someone honest
    from bftsim.crypto import elect_leader

    mute = 3
    adv = AdversarySpec(Asynchronous((1, 8), (("proposal", (60, 120)),)),
                        ((mute, MuteLeader()),))
    for seed in (1, 2, 3):
        cfg = mk(timeout_duration=40, run_seed=seed)
        tr = run(cfg, adv, 900)
        idx = index(tr)
        committed_views = idx.committed_fallback_views
        for v in idx.completed_views & idx.entered_views:
            elected_honest = elect_leader(v, seed, 4) != mute
            assert (v in committed_views) == elected_honest


# --- curve fitting ------------------------------------------------------------


def test_fit_polynomial_recovers_exact_line():
    for xs, ys, slope, intercept in (
            ([4, 7, 10, 13], [14, 23, 32, 41], 3.0, 2.0),
            # every y equal: the flat line explains all there is
            ([4, 7, 10], [6.0, 6.0, 6.0], 0.0, 6.0),
            # sweep's n_values = 4,4,7 lists n=4 twice, with the same mean
            ([4, 4, 7], [6.1, 6.1, 12.1], 2.0, -1.9)):
        (got_slope, got_intercept), r2 = fit_polynomial(xs, ys)
        assert got_slope == pytest.approx(slope, abs=1e-12)
        assert got_intercept == pytest.approx(intercept)
        assert r2 == pytest.approx(1.0)


def test_fit_polynomial_least_squares_on_inexact_data():
    # reference values from numpy.polyfit on the same inputs
    (slope, intercept), r2 = fit_polynomial(
        [4, 10, 16, 22, 31], [7.1, 18.9, 31.2, 40.8, 62.3])
    assert slope == pytest.approx(2.013934426229508, rel=1e-9)
    assert intercept == pytest.approx(-1.3713114754098374, rel=1e-9)
    assert r2 == pytest.approx(0.9964163655592125, rel=1e-9)


def test_fit_polynomial_needs_distinct_xs():
    for xs, ys in (([4, 4, 4], [1.0, 2.0, 3.0]), ([4], [1.0])):
        with pytest.raises(ValueError):
            fit_polynomial(xs, ys)
