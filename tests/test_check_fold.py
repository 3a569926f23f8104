"""The safety checker is one fold over the records: it gives what the
whole-trace checker in ``reference_analysis`` gives, on every pinned trace,
every planted violation and edited commit records, and what it keeps grows
with the horizon only by one compact entry per block, certificate or view."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_analysis as reference
from bftsim import analysis
from bftsim.core import (CoinQC, CoinQCRelay, Proposal, QC, Timeout,
                         TxnBatch, Vote, genesis_block, genesis_qc,
                         make_block)
from bftsim.scenario import parse_scenario
from bftsim.simnet import (AdversarySpec, Crash, Equivocate, Synchronous,
                           Trace, run)
from test_analysis import (FAR, FAR_QC, PLANTED, _certified, _plant, clone,
                           mk, starved, steady)
from test_trace_format import GOLDEN, GRID, WORKLOADS, scenario_of, trace_of


def assert_agrees(trace):
    """The fold's report and metrics are the reference's, violation by
    violation and in the same order."""
    idx = analysis.index(trace)
    want = reference.index(trace)
    assert analysis.check_safety(idx) == reference.check_safety(trace, want)
    assert analysis.measure(idx) == reference.measure(trace, want)


@pytest.mark.parametrize("case", [c for c, _ in GOLDEN])
def test_fold_agrees_on_golden(case):
    assert_agrees(trace_of(*case))


@pytest.mark.parametrize("case", [c for c, _ in GRID])
def test_fold_agrees_on_grid(case):
    assert_agrees(run(*scenario_of(case)))


@pytest.mark.parametrize("name", WORKLOADS)
def test_fold_agrees_on_workloads(name):
    assert_agrees(run(*scenario_of(name)))


def _forged_commit(tr):
    tr.records.append({"t": 239, "q": 10 ** 9, "kind": "commit", "rid": 0,
                       "blocks": ["f" * 32], "log_len": 999})


def _conflicting_commit(tr):
    k = max(i for i, r in enumerate(tr.records)
            if r["kind"] == "commit" and r["rid"] == 0)
    tr.records[k] = dict(tr.records[k], blocks=["f" * 32])


def _twin_certificate(tr, votes=False):
    qc = next(r["m"].block.parent_qc for r in tr.records
              if r["kind"] == "deliver" and isinstance(r["m"], Proposal)
              and r["m"].block.round >= 2)
    twin = make_block(genesis_qc(4), qc.round, qc.view, TxnBatch("twin", 1))
    forged = QC(twin.id, qc.round, qc.view, frozenset({1, 2, 3}))
    _plant(tr, *([Vote(twin.id, qc.round, qc.view, v) for v in (1, 2, 3)]
                 if votes else []), Timeout(99, None, forged, 3))


def _rigged_coin(tr):
    coin = next(r["m"].coin_qc for r in tr.records
                if r["kind"] == "deliver" and isinstance(r["m"], CoinQCRelay))
    _plant(tr, CoinQCRelay(CoinQC(coin.view, (coin.elected + 1) % 4,
                                  coin.signers), 2))


def _solo(voters):
    """A block proposed and voted on by ``voters``, then committed."""
    def plant(tr):
        b1 = make_block(genesis_qc(4), 1, 0, TxnBatch("solo", 8))
        tr.records[:] = [{"t": 1, "q": 1, "kind": "deliver", "frm": 0,
                          "to": 0, "m": Proposal(b1, 0), "self": False}]
        for q, voter in enumerate(voters, 2):
            tr.records.append({"t": 2, "q": q, "kind": "deliver",
                               "frm": voter, "to": 0,
                               "m": Vote(b1.id, 1, 0, voter),
                               "self": voter == 0})
        tr.records.append({"t": 3, "q": 99, "kind": "commit", "rid": 0,
                           "blocks": [b1.id], "log_len": 1})
    return plant


def _certificate_first(tr):
    body, certificate = _certified(FAR_QC, FAR + 2, FAR - 1)
    _plant(tr, certificate, body)


def _resigned(signers):
    """A certificate the trace holds, once more with other signers."""
    def plant(tr):
        qc = next(r["m"].block.parent_qc for r in tr.records
                  if isinstance(r.get("m"), Proposal)
                  and r["m"].block.round >= 2)
        _plant(tr, Timeout(99, None, qc._replace(signers=signers), 3))
    return plant


def _altered_body_first(tr):
    """A body for a committed block's id, but on another parent, read
    before the block's own body."""
    b = next(r["m"].block for r in tr.records
             if isinstance(r.get("m"), Proposal) and r["m"].block.round == 5)
    altered = b._replace(parent_qc=FAR_QC)
    tr.records.insert(0, {"t": 0, "q": 10 ** 9, "kind": "deliver", "frm": 0,
                          "to": 1, "m": Proposal(altered, 0), "self": False})


# every planted case of test_analysis, on the trace it plants into, and
# the orders of records that only the fold cares about
PLANTED_CASES = {
    "forged commit": (steady, _forged_commit),
    "conflicting commit": (steady, _conflicting_commit),
    "conflicting certificates": (steady, _twin_certificate),
    "twin certified twice": (steady,
                             lambda tr: _twin_certificate(tr, votes=True)),
    "conflicting elections": (starved, _rigged_coin),
    "vote quorum": (lambda: steady(horizon=20), _solo((1, 2, 3))),
    "two votes": (lambda: steady(horizon=20), _solo((1, 2))),
    "full tally": (lambda: steady(horizon=20), _solo((1, 2, 3, 0, 1, 2))),
    **{fragment: (starved, plant) for fragment, plant in PLANTED},
    "certificate before its body": (starved, _certificate_first),
    "one certificate, other signers": (steady,
                                       _resigned(frozenset({0, 1, 2, 3}))),
    "signers outside the replica ids": (steady,
                                        _resigned(frozenset({1, 2, 7}))),
    "altered body first": (steady, _altered_body_first),
}


@pytest.mark.parametrize("name", PLANTED_CASES)
def test_fold_agrees_on_planted_violations(name):
    make, plant = PLANTED_CASES[name]
    tr = clone(make())
    plant(tr)
    assert_agrees(tr)


# small traces whose commit records the search edits: a clean one, one with
# a crash and one with an equivocating leader
SMALL = {
    "sync": (mk(run_seed=3), AdversarySpec(Synchronous(1)), 40),
    "crash": (mk(run_seed=5), AdversarySpec(Synchronous(2),
                                            ((0, Crash(at=20)),)), 60),
    "equivocate": (mk(run_seed=9), AdversarySpec(Synchronous(1),
                                                 ((0, Equivocate()),)), 60),
}
SMALL_TRACES = {name: run(*args) for name, args in SMALL.items()}


def _ids_in(tr):
    """Every block id a small trace names: committed, proposed (forks too)
    and certified; plus an unknown id and genesis."""
    ids = {"f" * 32, genesis_block().id}
    for r in tr.records:
        ids.update(r.get("blocks", ()))
        m = r.get("m")
        if isinstance(m, Proposal):
            ids.add(m.block.id)
            if m.block.parent_qc:
                ids.add(m.block.parent_qc.block_id)
    return sorted(ids)


EDIT = st.tuples(st.sampled_from(("drop", "duplicate", "swap", "replace")),
                 st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                 st.integers(0, 10 ** 6))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.lists(EDIT, min_size=1, max_size=4))
def test_fold_agrees_on_edited_commit_records(name, edits):
    tr = clone(SMALL_TRACES[name])
    ids = _ids_in(tr)
    recs = tr.records
    for op, a, b, c in edits:
        commits = [k for k, r in enumerate(recs) if r["kind"] == "commit"]
        k = commits[a % len(commits)]
        if op == "drop":
            del recs[k]
        elif op == "duplicate":  # a copy anywhere at or after the original
            recs.insert(k + b % (len(recs) - k + 1), dict(recs[k]))
        elif op == "swap":
            j = commits[b % len(commits)]
            recs[k], recs[j] = recs[j], recs[k]
        elif recs[k]["blocks"]:
            blocks = list(recs[k]["blocks"])
            blocks[b % len(blocks)] = ids[c % len(ids)]
            recs[k] = dict(recs[k], blocks=blocks)
    assert_agrees(tr)


# --- what the fold keeps -----------------------------------------------------

WORKLOAD_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"
# the stores that grow by design, by one compact entry per block id,
# certificate, spent tally, view or distinct latency: a later commit,
# certificate or share may name any block, and the checker must answer for
# it exactly; and by one share mask per round or view of timeouts and coin
# shares, since a later certificate may name any round or view
KEYED = ("blocks", "canon", "qcs", "fqcs", "tallies", "coins",
         "committed_fallback_views", "entered_views", "completed_views",
         "latency", "shares")
# a store outside KEYED that never holds more than this has not grown
SMALL_STORE = 8
# bytes per block that a longer run adds to the fold, at most: the id, its
# facts, a certificate key and a spent tally key, about 540-570 on both
# scenarios under CPython 3.11; a held body with its parent certificate
# alone takes more
PER_BLOCK = 640


def size_of(obj, seen: set) -> int:
    """Bytes of ``obj`` and everything it holds, each object counted once."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        parts = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        parts = obj
    elif isinstance(obj, analysis.BlockFacts):
        parts = [getattr(obj, name) for name in obj.__slots__]
    elif isinstance(obj, analysis.TraceIndex):
        parts = vars(obj).values()
    else:
        parts = ()
    return size + sum(size_of(part, seen) for part in parts)


def fold_of(name: str, horizon: int, tmp_path) -> analysis.TraceIndex:
    """The fold of workload ``name``'s scenario run to ``horizon``, read
    from its file."""
    cfg = parse_scenario(str(WORKLOAD_DIR / f"{name}.scenario"))
    path = str(tmp_path / f"{name}-{horizon}.jsonl")
    run(cfg.protocol, cfg.adversary, horizon).to_jsonl(path)
    idx, add = analysis.indexer(cfg.protocol, cfg.adversary)
    Trace.from_jsonl(path, lambda header: add)
    return idx


@pytest.mark.parametrize("name,horizon", [("steady_long", 1500),
                                          ("starved_fallback", 300)])
def test_no_fold_store_grows_with_the_horizon(name, horizon, tmp_path):
    short, long = (fold_of(name, h, tmp_path) for h in (horizon, 2 * horizon))
    for name, size in vars(long).items():
        if name in KEYED or isinstance(size, int):
            continue
        assert len(size) <= max(len(getattr(short, name)), SMALL_STORE), name
    # a fact that waits for a certificate goes once one comes
    waiting = [sum(b.shape is not None for b in idx.blocks.values())
               for idx in (short, long)]
    assert waiting[1] <= max(waiting[0], SMALL_STORE), waiting
    added = len(long.blocks) - len(short.blocks)
    kept = [size_of(idx, set()) for idx in (short, long)]
    assert added > 0
    assert kept[1] - kept[0] <= PER_BLOCK * added, kept
