"""Discrete-event network: determinism, delay models, faults, traces."""

import json
import random

import pytest

from bftsim.core import FBProposal, Proposal, decode_message
from bftsim.replica import ReplicaConfig
from bftsim.simnet import (
    AdversarySpec,
    Asynchronous,
    ConfigError,
    Crash,
    Equivocate,
    HorizonTooSmall,
    MuteLeader,
    PartialSynchrony,
    Synchronous,
    Trace,
    adversary_delay,
    run,
)


def mk(**kw) -> ReplicaConfig:
    base = dict(n=4, f=1, variant="three_chain", pacemaker="async_fallback",
                timeout_duration=50, run_seed=1)
    base.update(kw)
    return ReplicaConfig(**base)


def sync(delta=1, faults=()):
    return AdversarySpec(Synchronous(delta), tuple(faults))


def paired_delays(trace):
    """(variant, send_t, deliver_t) for every delivered non-self message."""
    sends = {r["q"]: r for r in trace.records if r["kind"] == "send"}
    out = []
    for r in trace.records:
        if r["kind"] == "deliver" and not r["self"]:
            s = sends[r["sq"]]
            out.append((type(s["m"]).__name__, s["t"], r["t"]))
    return out


# --- determinism ------------------------------------------------------------


def test_same_seed_same_digest():
    a = run(mk(), sync(), 120)
    b = run(mk(), sync(), 120)
    assert a.digest() == b.digest()
    assert list(a.lines()) == list(b.lines())


def test_different_seed_different_digest():
    digests = {run(mk(run_seed=s), sync(), 120).digest() for s in range(8)}
    assert len(digests) == 8


def test_digest_covers_config_and_records():
    a = run(mk(), sync(), 120)
    b = run(mk(timeout_duration=60), sync(), 120)
    # same event stream (no timeout ever fires) but different config
    assert a.digest() != b.digest()
    c = run(mk(), sync(), 126)
    assert a.digest() != c.digest()


def test_trace_round_trips_through_jsonl(tmp_path):
    tr = run(mk(), sync(delta=2), 150)
    path = tmp_path / "t.jsonl"
    assert tr.to_jsonl(str(path)) == tr.digest()
    back = Trace.from_jsonl(str(path))
    assert back.stored_digest == tr.digest()
    assert back.digest() == tr.digest()
    assert back.meta["format"] == tr.meta["format"]
    assert back.protocol == mk()
    assert back.adversary == sync(delta=2)
    assert back.horizon == 150
    # records survive the encode/decode cycle exactly
    assert back.records == tr.records
    assert list(back.lines()) == list(tr.lines())
    redone = run(back.protocol, back.adversary, back.horizon)
    assert redone.digest() == tr.digest()


def test_trace_meta_contents():
    tr = run(mk(), sync(), 60)
    m = tr.meta
    assert m["format"] == "bftsim-trace-v2"
    assert m["prf"] == "sha256-mod"
    assert m["horizon"] == 60
    assert m["genesis_id"] == "7a099e392a03f466cc2a329626244390"
    assert m["protocol"]["n"] == 4
    assert "undelivered" in m


# --- delay models -----------------------------------------------------------


def test_synchronous_delays_within_delta():
    for delta in (1, 3, 7):
        tr = run(mk(), sync(delta=delta), 200)
        lags = [d - s for _, s, d in paired_delays(tr)]
        assert lags and min(lags) >= 1 and max(lags) <= delta
        if delta > 1:
            assert len(set(lags)) > 1  # actually randomized


def test_partial_synchrony_bounds():
    gst, delta = 80, 2
    model = PartialSynchrony(gst=gst, delta=delta, pre_gst_delay_bound=40)
    tr = run(mk(), AdversarySpec(model, ()), 400)
    pre = post = 0
    for _, s, d in paired_delays(tr):
        if s < gst:
            assert d <= gst + delta  # arbitrary, but never beyond GST+delta
            pre += 1
        else:
            assert 1 <= d - s <= delta
            post += 1
    assert pre > 0 and post > 0


def test_asynchronous_per_variant_ranges():
    model = Asynchronous((1, 8), (("proposal", (60, 120)),))
    tr = run(mk(timeout_duration=40), AdversarySpec(model, ()), 500)
    saw_starved = saw_normal = False
    for variant, s, d in paired_delays(tr):
        if variant == "Proposal":
            assert 60 <= d - s <= 120
            saw_starved = True
        else:
            assert 1 <= d - s <= 8
            saw_normal = True
    assert saw_starved and saw_normal


def test_adversary_delay_function_ranges():
    rng = random.Random(0)
    for _ in range(500):
        assert 1 <= adversary_delay(Synchronous(4), "vote", 10, rng) <= 4
    m = PartialSynchrony(gst=100, delta=3, pre_gst_delay_bound=50)
    for now in (0, 60, 99):
        for _ in range(200):
            d = adversary_delay(m, "vote", now, rng)
            assert now + d <= 103
    for _ in range(200):
        assert 1 <= adversary_delay(m, "vote", 100, rng) <= 3


# --- self delivery ----------------------------------------------------------


def test_self_delivery_is_immediate_and_unrecorded_as_send():
    tr = run(mk(), sync(), 60)
    selfs = [r for r in tr.records if r["kind"] == "deliver" and r["self"]]
    assert selfs
    for r in selfs:
        assert r["frm"] == r["to"]
        assert "sq" not in r  # no send record exists for the loopback
    sends = [r for r in tr.records if r["kind"] == "send"]
    assert all(s["frm"] != s["to"] for s in sends)


def test_multicast_reaches_all_peers():
    tr = run(mk(), sync(), 12)
    # the round-1 proposal must be sent to the n-1 others exactly once
    prop_sends = [r for r in tr.records
                  if r["kind"] == "send" and isinstance(r["m"], Proposal)
                  and r["m"].block.round == 1]
    assert sorted(r["to"] for r in prop_sends) == [1, 2, 3]


# --- faults -----------------------------------------------------------------


def test_fault_budget_enforced():
    with pytest.raises(ConfigError):
        AdversarySpec(Synchronous(1), ((0, Crash(at=5)), (1, MuteLeader()))
                      ).validate(mk())
    AdversarySpec(Synchronous(1), ((0, Crash(at=5)),)).validate(mk())


def test_crash_silences_replica_from_its_hour():
    at = 30
    tr = run(mk(timeout_duration=30), sync(faults=[(0, Crash(at=at))]), 400)
    for r in tr.records:
        if r["kind"] == "send" and r["frm"] == 0:
            assert r["t"] < at
        if r["kind"] == "commit" and r["rid"] == 0:
            assert r["t"] < at
    # the others keep committing without the crashed peer, riding out the
    # dead replica's leadership windows via the fallback
    late = [r for r in tr.records
            if r["kind"] == "commit" and r["t"] > 300]
    assert late


def test_mute_leader_suppresses_proposals_only():
    tr = run(mk(), sync(faults=[(0, MuteLeader())]), 300)
    by_muted = [r["m"] for r in tr.records
                if r["kind"] == "send" and r["frm"] == 0]
    assert by_muted  # still talks
    assert not [m for m in by_muted if isinstance(m, (Proposal, FBProposal))]
    # other leaders' rounds still commit
    assert [r for r in tr.records if r["kind"] == "commit"]


def test_equivocator_splits_the_committee():
    tr = run(mk(), sync(faults=[(0, Equivocate())]), 60)
    per_round: dict[int, dict[int, str]] = {}
    for r in tr.records:
        if (r["kind"] == "send" and r["frm"] == 0
                and isinstance(r["m"], Proposal)):
            per_round.setdefault(r["m"].block.round, {})[r["to"]] = \
                r["m"].block.id
    split = per_round[1]
    assert len(set(split.values())) == 2
    # halves are consistent: 1 gets one twin, 2 and 3 the other
    assert split[2] == split[3] != split[1]


# --- guard rails ------------------------------------------------------------


def test_horizon_too_small_rejected():
    with pytest.raises(HorizonTooSmall):
        run(mk(), sync(), 0)


def test_undelivered_counter():
    tr = run(mk(), sync(), 40)
    assert tr.meta["undelivered"] >= 0


def test_encoded_records_are_canonical_json():
    tr = run(mk(), sync(), 30)
    lines = list(tr.lines())
    assert len(lines) == len(tr.records)
    for line, rec in zip(lines, tr.records):
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        enc = json.loads(line)
        assert line == json.dumps(enc, sort_keys=True,
                                  separators=(",", ":")).encode() + b"\n"
        assert {k: v for k, v in enc.items() if k != "m"} == \
            {k: v for k, v in rec.items() if k != "m"}
        if rec["kind"] == "send" or (rec["kind"] == "deliver"
                                     and "sq" not in rec):
            assert decode_message(enc["m"]) == rec["m"]
        else:
            assert "m" not in enc
