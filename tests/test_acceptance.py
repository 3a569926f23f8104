"""Acceptance gate: the eight release criteria, one visible line each.

Each criterion prints one PASS line on success (with the measured numbers);
a failure shows up as the test's FAILED line instead.
"""

import math
from collections import Counter

import pytest

from bftsim.cli import _in_children
from bftsim.core import Proposal, Vote
from bftsim.crypto import elect_leader
from bftsim.replica import ReplicaConfig
from bftsim.simnet import (
    AdversarySpec,
    Asynchronous,
    Crash,
    Equivocate,
    MuteLeader,
    PartialSynchrony,
    Synchronous,
    Trace,
    run,
)
from bftsim.analysis import (
    check_safety,
    fallback_stats,
    fit_polynomial,
    index,
    measure,
)
from chi_square import chi_square


def cfg(n=4, variant="three_chain", pacemaker="async_fallback",
        timeout=40, seed=1):
    return ReplicaConfig(n=n, f=(n - 1) // 3, variant=variant,
                         pacemaker=pacemaker, timeout_duration=timeout,
                         run_seed=seed)


def starve_proposals(base=(1, 8), prop=(60, 120)):
    return Asynchronous(base, (("proposal", prop),))


def announce(capsys, line):
    with capsys.disabled():
        print(line)


# -- 1 -----------------------------------------------------------------------


def test_criterion_1_safety_across_byzantine_matrix(capsys):
    # every safety property must hold across adversaries, faults, sizes,
    # variants and pacemakers; >= 500 seeded runs
    def cell(n, variant, pacemaker):
        f = (n - 1) // 3
        byz = [0] if f == 1 else [0, n // 2 + 1]
        fault_menu = [
            tuple((rid, Crash(at=60 + 13 * i)) for i, rid in enumerate(byz)),
            tuple((rid, MuteLeader()) for rid in byz),
            tuple((rid, Equivocate()) for rid in byz),
        ]
        models = [
            (Synchronous(2), 280),
            (PartialSynchrony(gst=120, delta=2, pre_gst_delay_bound=30), 400),
            (starve_proposals(), 400),
        ]
        runs = violations = 0
        for model, horizon in models:
            for faults in fault_menu:
                for seed in (1, 2, 3, 4, 5, 6, 7):
                    c = cfg(n=n, variant=variant, pacemaker=pacemaker,
                            seed=seed)
                    rep = check_safety(index(run(
                        c, AdversarySpec(model, faults), horizon)))
                    runs += 1
                    if not rep.ok:
                        violations += len(rep.violations)
                        assert rep.ok, (n, variant, pacemaker, model, faults,
                                        seed, rep.violations[:3])
        return runs, violations

    # the cells run in forked workers, one per CPU; a failed assertion is
    # raised here
    counts = _in_children(cell, [
        (n, variant, pacemaker) for n in (4, 7)
        for variant in ("three_chain", "two_chain")
        for pacemaker in ("baseline_tc", "async_fallback")])
    runs, violations = map(sum, zip(*counts))
    assert runs >= 500
    announce(capsys, f"ACCEPTANCE 1 PASS - safety: {runs} byzantine runs, "
                     f"{violations} violations")


# -- 2 -----------------------------------------------------------------------


def test_criterion_2_fallback_restores_liveness_under_asynchrony(capsys):
    # proposals delayed beyond every timeout: the baseline pacemaker must
    # never commit; the fallback pacemaker must commit in >= 95% of seeds
    adv = AdversarySpec(starve_proposals(), ())
    seeds = range(1, 101)
    baseline_commits = 0
    fallback_live = 0
    for seed in seeds:
        base = run(cfg(pacemaker="baseline_tc", seed=seed), adv, 400)
        baseline_commits += measure(index(base)).commits_total
        fall = run(cfg(pacemaker="async_fallback", seed=seed), adv, 400)
        if measure(index(fall)).commits_total >= 1:
            fallback_live += 1
    assert baseline_commits == 0
    assert fallback_live >= 95
    announce(capsys, f"ACCEPTANCE 2 PASS - liveness: baseline 0 commits, "
                     f"fallback live in {fallback_live}/100 seeds")


# -- 3 -----------------------------------------------------------------------


def test_criterion_3_fallback_commit_probability(capsys):
    # one mute proposer leaves 2f+1 complete fallback chains; an
    # election-blind adversary cannot bias the coin, so a completed view
    # commits iff the elected chain exists: probability (2f+1)/n = 3/4
    mute = 3
    adv = AdversarySpec(starve_proposals(), ((mute, MuteLeader()),))
    completed = hits = 0
    for seed in range(1, 31):
        trace = run(cfg(seed=seed), adv, 1200)
        idx = index(trace)
        assert check_safety(idx).ok
        stats = fallback_stats(trace)
        completed += stats["completed"]
        hits += stats["commit_in_view"]
        # the exact mechanism, view by view: commit iff honest elected
        fviews = idx.committed_fallback_views
        for v in idx.completed_views & idx.entered_views:
            assert (v in fviews) == (elect_leader(v, seed, 4) != mute)
    assert completed >= 300
    frac = hits / completed
    half_width = 1.96 * math.sqrt(frac * (1 - frac) / completed)
    assert frac >= 0.67
    assert frac - half_width <= 0.75 <= frac + half_width
    announce(capsys, f"ACCEPTANCE 3 PASS - fallback commit rate "
                     f"{hits}/{completed} = {frac:.3f} "
                     f"(95% CI +/-{half_width:.3f} covers 3/4)")


# -- 4 -----------------------------------------------------------------------


def test_criterion_4_steady_state_cost_is_linear(capsys):
    # hand count first: 2(n-1) paid messages per round at n=4
    trace = run(cfg(n=4, timeout=50), AdversarySpec(Synchronous(1), ()), 240)
    per_round = Counter()
    for r in trace.records:
        if r["kind"] != "send":
            continue
        if isinstance(r["m"], Proposal):
            per_round[r["m"].block.round] += 1
        elif isinstance(r["m"], Vote):
            per_round[r["m"].round] += 1
    window = [per_round[rnd] for rnd in range(11, 21)]
    assert window == [2 * (4 - 1)] * 10

    ns, ys = [], []
    for n in (4, 10, 16, 31):
        m = measure(index(run(cfg(n=n, timeout=50),
                              AdversarySpec(Synchronous(1), ()), 240)))
        assert m.commits_total > 0
        ns.append(n)
        ys.append(m.messages_per_commit)
    (slope, intercept), r2 = fit_polynomial(ns, ys)
    assert r2 >= 0.99
    announce(capsys, f"ACCEPTANCE 4 PASS - linear cost: 6 msgs/round at n=4 "
                     f"(hand count), fit {slope:.2f}n{intercept:+.2f}, "
                     f"R^2={r2:.4f}")


# -- 5 -----------------------------------------------------------------------


def test_criterion_5_fallback_cost_is_quadratic(capsys):
    def per_instance(n):
        adv = AdversarySpec(starve_proposals(), ())
        totals = instances = 0
        for seed in (1, 2):
            trace = run(cfg(n=n, seed=seed), adv, 700)
            totals += measure(index(trace)).messages_delivered
            instances += fallback_stats(trace)["completed"]
        assert instances > 0, n
        return totals / instances

    ratios = []
    for n1, n2 in ((7, 13), (10, 22)):
        got = per_instance(n2) / per_instance(n1)
        target = (n2 / n1) ** 2
        assert 0.75 * target <= got <= 1.25 * target, (n1, n2, got, target)
        ratios.append((n1, n2, got, target))
    detail = ", ".join(f"{n2}/{n1}: {g:.2f} vs {t:.2f}"
                       for n1, n2, g, t in ratios)
    announce(capsys, f"ACCEPTANCE 5 PASS - quadratic fallback cost ({detail})")


# -- 6 -----------------------------------------------------------------------


def test_criterion_6_commit_latency_is_exact(capsys):
    m3 = measure(index(run(cfg(variant="three_chain", timeout=50),
                           AdversarySpec(Synchronous(1), ()), 240)))
    m2 = measure(index(run(cfg(variant="two_chain", timeout=50),
                           AdversarySpec(Synchronous(1), ()), 240)))
    assert set(m3.commit_latency_histogram) == {6}
    assert set(m2.commit_latency_histogram) == {4}
    announce(capsys, f"ACCEPTANCE 6 PASS - latency: three_chain all "
                     f"{m3.commit_latency_mean:.0f} ticks, two_chain all "
                     f"{m2.commit_latency_mean:.0f} ticks")


# -- 7 -----------------------------------------------------------------------


def test_criterion_7_traces_replay_bit_exactly(capsys, tmp_path):
    matrix = []
    for variant in ("three_chain", "two_chain"):
        for pacemaker in ("baseline_tc", "async_fallback"):
            matrix.append((cfg(variant=variant, pacemaker=pacemaker, seed=5),
                           AdversarySpec(Synchronous(1), ()), 200))
            matrix.append((cfg(variant=variant, pacemaker=pacemaker, seed=6),
                           AdversarySpec(starve_proposals(),
                                         ((0, Equivocate()),)), 300))
            matrix.append((cfg(variant=variant, pacemaker=pacemaker, seed=7),
                           AdversarySpec(
                               PartialSynchrony(gst=80, delta=2,
                                                pre_gst_delay_bound=30),
                               ((0, Crash(at=50)),)), 300))
    replayed = 0
    for i, (c, adv, horizon) in enumerate(matrix):
        trace = run(c, adv, horizon)
        path = tmp_path / f"trace{i}.jsonl"
        trace.to_jsonl(str(path))
        loaded = Trace.from_jsonl(str(path))
        assert loaded.stored_digest == trace.digest()
        again = run(loaded.protocol, loaded.adversary, loaded.horizon)
        assert again.digest() == loaded.stored_digest == loaded.digest()
        replayed += 1
    assert replayed == len(matrix) == 12
    announce(capsys, f"ACCEPTANCE 7 PASS - determinism: {replayed}/12 stored "
                     f"traces replay to identical digests")


# -- 8 -----------------------------------------------------------------------


def test_criterion_8_election_is_uniform(capsys):
    ps = []
    for n, seed in ((4, 1), (7, 2)):
        counts = [0] * n
        for view in range(10_000):
            counts[elect_leader(view, seed, n)] += 1
        _, p = chi_square(counts)
        assert p > 0.01, (n, counts, p)
        ps.append((n, p))
    detail = ", ".join(f"n={n}: p={p:.3f}" for n, p in ps)
    announce(capsys, f"ACCEPTANCE 8 PASS - coin uniformity ({detail})")
