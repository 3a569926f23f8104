"""The mutant table: each row is a replica mutant that breaks one rule, the
runs that show it is not the real rule, and the oracle that must flag it.
A row whose oracle does not exist yet is a strict xfail naming the ROADMAP
item that will add it, so that the test flips when the oracle lands."""

import pytest

from bftsim import analysis
from bftsim.scenario import parse_scenario
from bftsim.simnet import run
from mutants import commit_chain_one_short
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
