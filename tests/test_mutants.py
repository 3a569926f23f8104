"""The mutant table: each row is a replica mutant that breaks one rule, the
runs that show it is not the real rule, and the oracle that must flag it.
A row whose oracle does not exist yet is a strict xfail naming the ROADMAP
item that will add it, so that the test flips when the oracle lands."""

import itertools
import re

import pytest

from bftsim import analysis, simnet
from bftsim.core import (PACEMAKERS, QC, VARIANTS, ReplicaConfig, Vote,
                         message_certs)
from bftsim.scenario import parse_scenario
from bftsim.simnet import (AdversarySpec, Equivocate, PartialSynchrony,
                           Synchronous, run)
from mutants import Forge, commit_chain_one_short, no_lock_raise
from test_check_fold import WORKLOAD_DIR

HORIZON = 300


@pytest.fixture(scope="module")
def one_short_runs():
    """workload -> its run at HORIZON under the real rule and the mutant."""
    runs = {}
    for name in ("steady_long", "byzantine_sweep"):
        cfg = parse_scenario(str(WORKLOAD_DIR / f"{name}.scenario"))
        real = run(cfg.protocol, cfg.adversary, HORIZON)
        with commit_chain_one_short():
            runs[name] = real, run(cfg.protocol, cfg.adversary, HORIZON)
    return runs


def commits(trace) -> int:
    return sum(rec["kind"] == "commit" for rec in trace.records)


def test_commit_chain_one_short_commits_otherwise(one_short_runs):
    assert {name: (commits(real), commits(mutant))
            for name, (real, mutant) in one_short_runs.items()} == {
        "steady_long": (589, 593), "byzantine_sweep": (286, 299)}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_check_safety_flags_commit_chain_one_short(one_short_runs):
    for _, mutant in one_short_runs.values():
        assert not analysis.check_safety(analysis.index(mutant)).ok


@pytest.fixture(scope="module")
def no_lock_runs():
    """The real rule's trace and the mutant's of one run.  Of the 24 runs
    of n 4 and 7, both variants, both pacemakers and seeds 1-3, with an
    equivocating replica 0 under this partial synchrony at HORIZON, the
    mutant changes two: this one, and the same one at n=4."""
    cfg = ReplicaConfig(n=7, f=2, variant="two_chain",
                        pacemaker="async_fallback", run_seed=2)
    adversary = AdversarySpec(
        PartialSynchrony(gst=120, delta=2, pre_gst_delay_bound=30),
        ((0, Equivocate()),))
    real = run(cfg, adversary, HORIZON)
    with no_lock_raise():
        return real, run(cfg, adversary, HORIZON)


def test_no_lock_raise_runs_otherwise(no_lock_runs):
    real, mutant = no_lock_runs
    assert (len(real.records), len(mutant.records)) == (3401, 3472)
    assert (commits(real), commits(mutant)) == (35, 39)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3 (lock discipline)")
def test_check_safety_flags_no_lock_raise(no_lock_runs):
    assert not analysis.check_safety(analysis.index(no_lock_runs[1])).ok


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1")
def test_a_forging_leader_breaks_no_run(monkeypatch):
    # registered for this test only, so that a header can spell it
    monkeypatch.setitem(simnet.FAULT_KINDS, "forge", Forge)
    adversary = AdversarySpec(Synchronous(1), ((0, Forge()),))
    for n, variant, pacemaker, seed in itertools.product(
            (4, 7), VARIANTS, PACEMAKERS, (1, 2)):
        cfg = ReplicaConfig(n=n, f=(n - 1) // 3, variant=variant,
                            pacemaker=pacemaker, run_seed=seed)
        trace = run(cfg, adversary, HORIZON)
        assert analysis.check_safety(analysis.index(trace)).ok, cfg


# the first violation of a forge run: the first forged certificate, as
# replica 0 first carried it
FORGED = re.compile(r"forged certificate QC\(block_id=(\w{32}), round=(\d+), "
                    r"view=(\d+)\): honest signers \[([\d, ]+)\] sent no "
                    r"share before replica 0 carried it at tick (\d+)")


def test_check_safety_names_a_forging_leaders_certificate(monkeypatch):
    monkeypatch.setitem(simnet.FAULT_KINDS, "forge", Forge)
    adversary = AdversarySpec(Synchronous(1), ((0, Forge()),))
    for n, variant, pacemaker, seed in itertools.product(
            (4, 7), VARIANTS, PACEMAKERS, (1, 2)):
        cfg = ReplicaConfig(n=n, f=(n - 1) // 3, variant=variant,
                            pacemaker=pacemaker, run_seed=seed)
        trace = run(cfg, adversary, HORIZON)
        first = analysis.check_safety(analysis.index(trace)).violations[0]
        found = FORGED.fullmatch(first)
        assert found, (cfg, first)
        bid, rnd, view, named, tick = found.groups()
        qc = QC(bid, int(rnd), int(view), frozenset(range(2 * cfg.f + 1)))
        # the first record that carries it is replica 0's, at that tick,
        # and no signer it names sent a vote for the block before it
        k = next(k for k, rec in enumerate(trace.records)
                 if "m" in rec and qc in message_certs(rec["m"]))
        rec = trace.records[k]
        assert (rec["frm"], rec["t"]) == (0, int(tick)), cfg
        voters = {rec["frm"] for rec in trace.records[:k]
                  if isinstance(rec.get("m"), Vote)
                  and rec["m"].block_id == bid}
        named = {int(i) for i in named.split(", ")}
        assert named == set(qc.signers) - voters - {0}, cfg
