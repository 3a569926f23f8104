"""The v2 trace file: pinned digests, the bytes the digest covers, and
deliveries that name their send instead of repeating the message."""

import hashlib
import json

import pytest

from bftsim.replica import ReplicaConfig
from bftsim.simnet import (TRACE_FORMAT, AdversarySpec, Asynchronous, Crash,
                           Equivocate, PartialSynchrony, Synchronous, Trace,
                           run)

STARVE = Asynchronous((1, 8), (("proposal", (60, 120)),))

# (variant, pacemaker, adversary, horizon, seed), v2 digest
GOLDEN = [
    (("three_chain", "async_fallback", AdversarySpec(STARVE), 300, 3),
     "89159336b02c88962047e0bd291f76b6818004fda602492f47c72ed2aacf4cfd"),
    (("two_chain", "async_fallback",
      AdversarySpec(Synchronous(2), ((1, Equivocate()),)), 200, 4),
     "fc427b47997c9980a8c4c8fac028e01460494e19d4e1d03852490c01a90bda73"),
    (("three_chain", "baseline_tc",
      AdversarySpec(PartialSynchrony(gst=80, delta=2,
                                     pre_gst_delay_bound=30),
                    ((0, Crash(at=50)),)), 300, 5),
     "8984c2bf88b65120fc5920bd22661808abec9f5d3cc353c229a01bf59c8b65be"),
    (("two_chain", "baseline_tc", AdversarySpec(Synchronous(1)), 120, 6),
     "204814f3710c7430963e4dd9e7108cd4768d50fe7fa8ff7b2660d9ec2318fc73"),
]


def trace_of(variant, pacemaker, adversary, horizon, seed):
    cfg = ReplicaConfig(n=4, f=1, variant=variant, pacemaker=pacemaker,
                        timeout_duration=40, run_seed=seed)
    return run(cfg, adversary, horizon)


@pytest.mark.parametrize("case,want", GOLDEN)
def test_golden_v2_digests(case, want, tmp_path):
    tr = trace_of(*case)
    assert tr.meta["format"] == TRACE_FORMAT == "bftsim-trace-v2"
    assert tr.digest() == want
    path = tmp_path / "t.jsonl"
    assert tr.to_jsonl(str(path)) == want
    loaded, stored = Trace.scan_jsonl(str(path))
    assert loaded.stored_digest == stored == want
    back = Trace.from_jsonl(str(path))
    assert back.digest() == want
    assert back.adversary == case[2] and back.horizon == case[3]


def test_digest_is_sha256_of_the_bytes_written(tmp_path):
    tr = trace_of(*GOLDEN[0][0])
    path = tmp_path / "t.jsonl"
    tr.to_jsonl(str(path))
    header, _, records = path.read_bytes().partition(b"\n")
    meta = json.loads(header)
    claimed = meta.pop("digest")
    meta_line = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    recomputed = hashlib.sha256(meta_line.encode() + b"\n" + records)
    assert recomputed.hexdigest() == claimed == tr.digest()
    # every line on disk is compact canonical JSON
    for line in records.splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":")).encode()


def test_deliver_names_its_send_instead_of_the_message(tmp_path):
    tr = trace_of(*GOLDEN[1][0])
    path = tmp_path / "t.jsonl"
    tr.to_jsonl(str(path))
    on_disk = [json.loads(line)
               for line in path.read_text().splitlines()[1:]]
    by_sq = [r for r in on_disk if r["kind"] == "deliver" and "sq" in r]
    assert by_sq and all("m" not in r for r in by_sq)
    self_delivered = [r for r in on_disk
                      if r["kind"] == "deliver" and "sq" not in r]
    assert self_delivered and all("m" in r for r in self_delivered)

    back = Trace.from_jsonl(str(path))
    send_at = {r["q"]: r for r in back.records if r["kind"] == "send"}
    delivered = [r for r in back.records
                 if r["kind"] == "deliver" and "sq" in r]
    assert len(delivered) == len(by_sq)
    for r in delivered:
        assert r["m"] is send_at[r["sq"]]["m"]
