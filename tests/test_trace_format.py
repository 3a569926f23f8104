"""The v2 trace file: pinned digests, the bytes the digest covers, the
shape each record line is formatted from, and deliveries that name their
send instead of repeating the message."""

import functools
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
from typing import get_args, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftsim import analysis, cli, core, replica
from bftsim.core import decode_message, encode_message, message_variant
from bftsim.replica import ReplicaConfig
from bftsim.simnet import (_DELIVER_REFS, _RECORD_FIELDS, _SHAPES,
                           TRACE_FORMAT, AdversarySpec, Asynchronous, Crash,
                           Equivocate, MuteLeader, PartialSynchrony,
                           Synchronous, Trace, TraceFormatError, run)
from test_analysis import stores

STARVE = Asynchronous((1, 8), (("proposal", (60, 120)),))

# (variant, pacemaker, adversary, horizon, seed[, adopt_foreign_fchains]),
# v2 digest
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
    # every replica extends the first certified chain it sees
    (("three_chain", "async_fallback", AdversarySpec(STARVE), 300, 3, True),
     "531358d4fd36c855017c0d06e4b015e61320d933d218daa2d56212c9d29fa359"),
]


PSYNC = PartialSynchrony(gst=80, delta=2, pre_gst_delay_bound=30)
GRID_ADVERSARIES = {
    "sync": AdversarySpec(Synchronous(1)),
    "psync+equivocate": AdversarySpec(PSYNC, ((1, Equivocate()),)),
    "starve+mute": AdversarySpec(STARVE, ((1, MuteLeader()),)),
    "psync+crash": AdversarySpec(PSYNC, ((0, Crash(at=50)),)),
}

# (n, variant, pacemaker, adopt_foreign_fchains, adversary), v2 digest at
# timeout 40, seed 1, horizon 200: every protocol combination under each
# adversary, so a refactor that changes any run shows here
GRID = [
    ((4, "three_chain", "baseline_tc", False, "sync"),
     "876e88a446ebb5b979a887e015803d6cb5bcc9935a02cdc766c1c24616f8f30b"),
    ((4, "three_chain", "baseline_tc", False, "psync+equivocate"),
     "3418ea1d881ab6820faa790d17a0cb9618a8fb36bcb5200deb9b07e01c9508f0"),
    ((4, "three_chain", "baseline_tc", False, "starve+mute"),
     "0c8acf4cfc464e94bd1ee37ca949bec0baed45ce299ed639d990630b3ab297ab"),
    ((4, "three_chain", "baseline_tc", False, "psync+crash"),
     "bc39ff6bd6aaa327947d7a0d833fca21a023b78cfa0a6ecf4cd495c08fe0476a"),
    ((4, "three_chain", "baseline_tc", True, "sync"),
     "db2945570646eca8a10aed9e3ea202c5f1cd84f943954702edbb9edc9b88a999"),
    ((4, "three_chain", "baseline_tc", True, "psync+equivocate"),
     "56b6729c8e01d1d033d65c60f0908d45ae962df71f9c925a98c485b003c18190"),
    ((4, "three_chain", "baseline_tc", True, "starve+mute"),
     "97ad97ec9726f0a69eab6b5ee26294799b94b13c8fff1b11df09a7730a54c3f4"),
    ((4, "three_chain", "baseline_tc", True, "psync+crash"),
     "2d04cff2c62cc1d1c99ac13b74a75b219b1010804e362f67a562c99bc9a107ca"),
    ((4, "three_chain", "async_fallback", False, "sync"),
     "1cb541caf5828f890db3ae510bbba11c8a07a084166e48d6697c59618d56968a"),
    ((4, "three_chain", "async_fallback", False, "psync+equivocate"),
     "182d51cf335cf0aec89f1e78eacb641497be6c3e37c7e603e195f7036fe148c0"),
    ((4, "three_chain", "async_fallback", False, "starve+mute"),
     "2d2f0ea16fb8414c349d8cf52d0aacc26bb7035197842bd082d1ba623e1dcbca"),
    ((4, "three_chain", "async_fallback", False, "psync+crash"),
     "4c3d96c4acf8a3b3b0ff05fb740a93ac1bd7601b8ffe77c68e92228a9d328468"),
    ((4, "three_chain", "async_fallback", True, "sync"),
     "bbe687a9758c5631793643dd02c140026c5d0db4f020ed37de4b6ff5c16988a3"),
    ((4, "three_chain", "async_fallback", True, "psync+equivocate"),
     "06a65437824faca360e7410a31366c9f12cd75fed7e6341425bcd0b1b26641e3"),
    ((4, "three_chain", "async_fallback", True, "starve+mute"),
     "978bc7a0d605409ddbea32ecbfb25bf6aebd60044795cb16b5e18756ca83b976"),
    ((4, "three_chain", "async_fallback", True, "psync+crash"),
     "f2b4b6f0aaafce7c6dbbe2dc3993f549883508e499ccd7afdb442c51561188d5"),
    ((4, "two_chain", "baseline_tc", False, "sync"),
     "dbd1b227b1e9f3460c7b017785a9fcbba097b7c820496e2402474f5a9651b9d0"),
    ((4, "two_chain", "baseline_tc", False, "psync+equivocate"),
     "dfcd0d1e1fe77a1caa393e8b106aff2d7daebbed3cba1074562796160f0e4a58"),
    ((4, "two_chain", "baseline_tc", False, "starve+mute"),
     "d91b75524ea0c5d2cb541952f3fcadf4995e124a5bc6e6f9d64445107bd65717"),
    ((4, "two_chain", "baseline_tc", False, "psync+crash"),
     "d44057bbdbf9a3f2a168d377750bdffecd4ff80219097d88a2a4bc98539499ce"),
    ((4, "two_chain", "baseline_tc", True, "sync"),
     "9c2cd590203a539d38dbb9e673586d0ea335f6592f3fa028df34301d81c343ae"),
    ((4, "two_chain", "baseline_tc", True, "psync+equivocate"),
     "94a0e6dbfbe0667ea913df8110b4e165cf07b1aa4a2313da005ae35cbe90498c"),
    ((4, "two_chain", "baseline_tc", True, "starve+mute"),
     "2990b4bc8da4cabec68bf08952bba6020a365d91dc0cbb8c7e47eace87e8ab86"),
    ((4, "two_chain", "baseline_tc", True, "psync+crash"),
     "7e0d6547a0315eb2915e034bf0bf623aff3ed34d0dacdeff43ed85529e1afab4"),
    ((4, "two_chain", "async_fallback", False, "sync"),
     "4ce56d4dd5e2ffb89b51b4469ed9f97afaa0ae33f9bf93255c79f4a429542f48"),
    ((4, "two_chain", "async_fallback", False, "psync+equivocate"),
     "b175c41397dc97dfdeb33dd954934efd957bb77d80dbd7434be761fc9c270892"),
    ((4, "two_chain", "async_fallback", False, "starve+mute"),
     "43184484f8965376ac920720d55e78fae6eda1ae24bd4a4f0434747ef747f899"),
    ((4, "two_chain", "async_fallback", False, "psync+crash"),
     "526f819374befdf3f3ac6560c105a12d4f70a149288f18666c9b952e67d0ed9f"),
    ((4, "two_chain", "async_fallback", True, "sync"),
     "bc90a42a5078d705fa3cecff0dc3a09fbd40291ec378703f49b436600d228e48"),
    ((4, "two_chain", "async_fallback", True, "psync+equivocate"),
     "9bf83061c0da59479dbb66b740ae993b656c6254633a76a9e3a3f7f09762065e"),
    ((4, "two_chain", "async_fallback", True, "starve+mute"),
     "24872cb0482354377f93e1b91a2a813f63360305b5445f5b3895656f7d813095"),
    ((4, "two_chain", "async_fallback", True, "psync+crash"),
     "9b12a5728859442b99befef5fa666addf82315e90b7bad5cd10105ed2a3b12bd"),
    ((7, "three_chain", "baseline_tc", False, "sync"),
     "e7c1da46996955180acbc91d566a71f03e1483a4bad027c183f8f92f29129cf8"),
    ((7, "three_chain", "baseline_tc", False, "psync+equivocate"),
     "0c95f270416e3c263a6c04a52d879601aa728f29dff817837ccd5de6425cb71f"),
    ((7, "three_chain", "baseline_tc", False, "starve+mute"),
     "7e8a3e2cdbf81440ae1e7f2478fa4a3b3ade94e9dbb1bf5f398f874ea329274a"),
    ((7, "three_chain", "baseline_tc", False, "psync+crash"),
     "f7bbe038f9596230210a4de8cb1c162d60a77263612b2597aa122cd82752792a"),
    ((7, "three_chain", "baseline_tc", True, "sync"),
     "f547c52c5f6299871fd6d549a5ec75100d911ed129f937ca21febc97c7ed678a"),
    ((7, "three_chain", "baseline_tc", True, "psync+equivocate"),
     "45adb20fe1a2c3cf0886bfcd4385b0324f9a826212230aaaf0c499101dea6ae7"),
    ((7, "three_chain", "baseline_tc", True, "starve+mute"),
     "b4d75c38241c27b74b51ff6ccec9bd2e0b966fd15d6d657c52556133a02a9474"),
    ((7, "three_chain", "baseline_tc", True, "psync+crash"),
     "f3a21a84c7137449f11c5e2a1239d23fe32a3f2b795a9d5751bdf3716bc8facb"),
    ((7, "three_chain", "async_fallback", False, "sync"),
     "7e05d58c57a409919357e0027aa0b07d929018b59bec020182e01d96215f6f57"),
    ((7, "three_chain", "async_fallback", False, "psync+equivocate"),
     "7bd42b8bff0240d355b60c1057cd1ad1f3c1516297745af4d97df3f3cf09b5fe"),
    ((7, "three_chain", "async_fallback", False, "starve+mute"),
     "92a3b3b375f7ba8556cf533885d6d61e5c0894962bc2804e656151b375c05b83"),
    ((7, "three_chain", "async_fallback", False, "psync+crash"),
     "ecf3187c17a3b1f5f89b7af0ffe313115172211d2aa05e4cf50cef977318abb2"),
    ((7, "three_chain", "async_fallback", True, "sync"),
     "3d1aaef0ec142db0f3efe4dd16429d1c95966bc3afd73039f63e7a216c3e76b1"),
    ((7, "three_chain", "async_fallback", True, "psync+equivocate"),
     "0fe576124a727a11108ca1386836da8ae24dfe51510c34cce29a2e713826889e"),
    ((7, "three_chain", "async_fallback", True, "starve+mute"),
     "bbfdf1e75131ded0fb94849a6921cd0a78e7356388f698f3c51acac03040c322"),
    ((7, "three_chain", "async_fallback", True, "psync+crash"),
     "bba40b19dfa88943cf84f4445758edaf9a05d8a4dbc95242814ba0709be0d974"),
    ((7, "two_chain", "baseline_tc", False, "sync"),
     "7f0abfb9b1498e66ac6fafa9a07eb31595e2838cc52731da8b1715c2555b1638"),
    ((7, "two_chain", "baseline_tc", False, "psync+equivocate"),
     "2169f9f49d22581c63098251239ad1a7225bb591cda0799e172042b7616b50f5"),
    ((7, "two_chain", "baseline_tc", False, "starve+mute"),
     "084a5dbccdf30435b5717fec688899acee1e8930877170c7720916a473b28fd7"),
    ((7, "two_chain", "baseline_tc", False, "psync+crash"),
     "3410365ca6a56c2ec0da1acf8110bd857081da0ab9abf7bdc375baff893fca5d"),
    ((7, "two_chain", "baseline_tc", True, "sync"),
     "b9301b752eb0be6c03352b66f8c577a189fcc46e62712879ea7c369b5e389713"),
    ((7, "two_chain", "baseline_tc", True, "psync+equivocate"),
     "e52e246e22fe026e2037445ce5910d5fac89db26f8fb22b384e1d353549f7f2f"),
    ((7, "two_chain", "baseline_tc", True, "starve+mute"),
     "543fcaa95fc0c3d99d37e43bb1797c0e1fa5d514af6169277085fca49c0dc6a8"),
    ((7, "two_chain", "baseline_tc", True, "psync+crash"),
     "771b40998b630a6962a082fded89a4f96c9f3f46d4914cb068f70bf16e3b5022"),
    ((7, "two_chain", "async_fallback", False, "sync"),
     "c344bc2d359933434a5ff8ba7f40038c402013727b64a7b87026cc8d56151398"),
    ((7, "two_chain", "async_fallback", False, "psync+equivocate"),
     "c57dd3fa33777117d1a2d96705fc99cbb5b5d8cf20e5a45505c818abb9d8ff97"),
    ((7, "two_chain", "async_fallback", False, "starve+mute"),
     "9775d4cdecea53b0832b279c2a3f342839668aef17afbfd402624272d5441cad"),
    ((7, "two_chain", "async_fallback", False, "psync+crash"),
     "8ad155b9a49251261018a499cdc08d76c774dcf1b6e78f17b607da16d574b7a9"),
    ((7, "two_chain", "async_fallback", True, "sync"),
     "638bec1e8c6385ea236ac6821bf7ee724cc0fdf1d9ebe3875ad1f01d5c8b363a"),
    ((7, "two_chain", "async_fallback", True, "psync+equivocate"),
     "6c5ae06d32e1e92d764d3306ed2f14b7b4d349a2e29dc0048932c26fbc599b19"),
    ((7, "two_chain", "async_fallback", True, "starve+mute"),
     "1aad12c8797de152b4805502f96babdb1b1b3da6ff7cb749f5a794b521277ea5"),
    ((7, "two_chain", "async_fallback", True, "psync+crash"),
     "6f5a6767ea94ccd74bff2dd20236e16aed273ff249b1042aee71aa26e34f626c"),
]


# the three benchmark workloads at seed 1, restated from their scenario
# files: (n, variant, pacemaker, timeout, adversary, horizon), v2 digest,
# check_safety's lines, and the sha256 of measure's dict as sorted JSON
WORKLOADS = {
    "steady_long": (
        (4, "three_chain", "async_fallback", 50,
         AdversarySpec(Synchronous(1)), 3000),
        "2338d728c11d01e456cb01105b4f33e46ea04c11358ae1a5bf73a3cbaae8e77c",
        ["safety: ok", "commits_checked: 5989", "certificates_checked: 1501"],
        "b1a122fc8947d9c320680e8fd4ef424e4fc784379102fd2a7fef052561cd04d5"),
    "starved_fallback": (
        (22, "three_chain", "async_fallback", 40, AdversarySpec(STARVE), 300),
        "08166149697fd129428c9327d5a72d8af5506ff40044d03e0c5c440cb6507628",
        ["safety: ok", "commits_checked: 66", "certificates_checked: 199"],
        "3a1333094ed222618ef6bf7fa886f1702cdb63dab6995cced17ac43278c139a4"),
    "byzantine_sweep": (
        (13, "two_chain", "baseline_tc", 50,
         AdversarySpec(PartialSynchrony(gst=120, delta=2,
                                        pre_gst_delay_bound=30),
                       ((0, Equivocate()),)), 1500),
        "35f220caa86e61b9cd766d53834c472143921db5afe69d3970dfff9445ac26a6",
        ["safety: ok", "commits_checked: 2444", "certificates_checked: 193"],
        "deee43d687f61300a85e32d850a3b80de52e1ec52c9b75e0ad2de04deaa6decd"),
}


def trace_of(variant, pacemaker, adversary, horizon, seed, adopt=False):
    cfg = ReplicaConfig(n=4, f=1, variant=variant, pacemaker=pacemaker,
                        timeout_duration=40, adopt_foreign_fchains=adopt,
                        run_seed=seed)
    return run(cfg, adversary, horizon)


def canonical(rec) -> str:
    """A record's line as the writer spells it: sorted keys, no spaces."""
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def scenario_of(name):
    """(config, adversary, horizon) of a workload or a GRID case."""
    if name in WORKLOADS:
        n, variant, pacemaker, timeout, adversary, horizon = WORKLOADS[name][0]
        return (ReplicaConfig(n=n, f=(n - 1) // 3, variant=variant,
                              pacemaker=pacemaker, timeout_duration=timeout,
                              run_seed=1), adversary, horizon)
    n, variant, pacemaker, adopt, adversary = name
    return (ReplicaConfig(n=n, f=(n - 1) // 3, variant=variant,
                          pacemaker=pacemaker, timeout_duration=40,
                          adopt_foreign_fchains=adopt, run_seed=1),
            GRID_ADVERSARIES[adversary], 200)


@pytest.mark.parametrize("case,want", GOLDEN)
def test_golden_v2_digests(case, want, tmp_path):
    tr = trace_of(*case)
    assert tr.meta["format"] == TRACE_FORMAT == "bftsim-trace-v2"
    assert tr.digest() == want
    path = tmp_path / "t.jsonl"
    assert tr.to_jsonl(str(path)) == want
    # the file's bytes as README says to hash them, through hashlib
    header, _, records = path.read_bytes().partition(b"\n")
    meta = json.loads(header)
    with open(path, "rb") as fh:
        stored = Trace.read_header(fh, str(path))
    assert meta.pop("digest") == stored.stored_digest == want
    meta_line = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(meta_line.encode() + b"\n"
                          + records).hexdigest() == want
    back = Trace.from_jsonl(str(path))
    assert back.digest() == want
    assert back.adversary == case[2] and back.horizon == case[3]


def test_golden_digest_through_the_hashlib_fallback():
    # a build with neither of CPython's own sha256 modules hashes through
    # hashlib, to the same digest
    case, want = GOLDEN[0]
    script = ("import pickle, sys\n"
              "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
              "import hashlib\n"
              "from bftsim import core, simnet\n"
              "v, p, adversary, horizon, seed = pickle.loads("
              "bytes.fromhex(sys.argv[1]))\n"
              "cfg = core.ReplicaConfig(n=4, f=1, variant=v, pacemaker=p, "
              "timeout_duration=40, run_seed=seed)\n"
              "print(simnet.run(cfg, adversary, horizon).digest())\n"
              "assert core._sha256 is hashlib.sha256, core._sha256\n")
    proc = subprocess.run([sys.executable, "-c", script,
                           pickle.dumps(case).hex()],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want + "\n"


def test_golden_digest_under_two_hash_seeds(tmp_path):
    # the first GOLDEN case as a scenario file, run by the CLI under two
    # str hash seeds: set and dict order must not reach the trace
    case, want = GOLDEN[0]
    assert case == ("three_chain", "async_fallback", AdversarySpec(STARVE),
                    300, 3)
    cfg = tmp_path / "golden.ini"
    cfg.write_text("[protocol]\nn = 4\nf = 1\nvariant = three_chain\n"
                   "pacemaker = async_fallback\ntimeout_duration = 40\n"
                   "[adversary]\nmodel = asynchronous\nbase_delay = 1..8\n"
                   "delay_proposal = 60..120\n[run]\nhorizon = 300\nseed = 3\n")
    for seed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-m", "bftsim.cli", "run", "--config", str(cfg)],
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert f"trace_digest: {want}\n" in proc.stdout, seed


@pytest.mark.parametrize("case,want", GRID)
def test_grid_digests(case, want):
    assert run(*scenario_of(case)).digest() == want


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_digests(name, tmp_path):
    _, want, safety, metrics = WORKLOADS[name]
    tr = run(*scenario_of(name))
    assert tr.digest() == want
    # the file loads back to the very records the run made
    path = tmp_path / "t.jsonl"
    tr.to_jsonl(str(path))
    assert Trace.from_jsonl(str(path)).records == tr.records
    idx = analysis.index(tr)
    assert analysis.check_safety(idx).lines() == safety
    measured = json.dumps(analysis.measure(idx).to_dict(), sort_keys=True)
    assert hashlib.sha256(measured.encode()).hexdigest() == metrics


def test_a_held_high_qc_is_not_ranked_again(monkeypatch):
    # lock_update returns at once for the certificate it made high_qc:
    # byzantine_sweep ranked 19,553 certificates before it did
    calls = []
    rank_of = core.rank_of

    def counted(*args):
        calls.append(args)
        return rank_of(*args)

    monkeypatch.setattr(core, "rank_of", counted)
    monkeypatch.setattr(replica, "rank_of", counted)
    assert (run(*scenario_of("byzantine_sweep")).digest()
            == WORKLOADS["byzantine_sweep"][1])
    assert len(calls) == 12_254


# GRID cases covering each adversary, pacemaker and variant
STREAMED_GRID = [(4, "three_chain", "baseline_tc", False, "psync+equivocate"),
                 (4, "three_chain", "async_fallback", False, "sync"),
                 (7, "two_chain", "baseline_tc", False, "starve+mute"),
                 (7, "two_chain", "async_fallback", True, "psync+crash")]


@pytest.mark.parametrize("name", [*WORKLOADS, *STREAMED_GRID])
def test_streaming_equals_holding(name, tmp_path, capsys):
    config, adversary, horizon = scenario_of(name)
    held = run(config, adversary, horizon)
    assert held.digest() == (WORKLOADS[name][1] if name in WORKLOADS
                             else dict(GRID)[name])
    want = analysis.index(held)
    path = tmp_path / "t.jsonl"
    held.to_jsonl(str(path))

    # simulated into the fold, and read into it: no record is held
    simulated, add = analysis.indexer(config, adversary)
    assert run(config, adversary, horizon, add).records == []
    read, add = analysis.indexer(config, adversary)
    assert Trace.from_jsonl(str(path), add).records == []
    simulated, read = stores(simulated), stores(read)
    for name, value in stores(want).items():
        assert simulated[name] == value, name
        assert read[name] == value, name

    # check reads into the fold and prints what the held trace gives
    safety = analysis.check_safety(want)
    assert cli.main(["check", str(path)]) == (0 if safety.ok else 1)
    assert capsys.readouterr().out.splitlines() == [f"trace: {path}",
                                                    *safety.lines()]
    if name in WORKLOADS:
        assert safety.lines() == WORKLOADS[name][2]


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


def test_every_record_shape_formats_as_canonical_json(tmp_path):
    # the shapes are exactly those _RECORD_FIELDS describes: one per kind,
    # and a deliver's with its message and with the sq of its send
    derived = {(kind, "sq" in ref): {"t": int, "q": int, "kind": str,
                                     **fields, **ref}
               for kind, fields in _RECORD_FIELDS.items()
               for ref in (_DELIVER_REFS if kind == "deliver" else ({},))}
    assert {key: dict(zip(names, types))
            for key, (_, _, names, types) in _SHAPES.items()} == derived
    assert set(derived) == {(kind, False) for kind in _RECORD_FIELDS} | {
        ("deliver", True)}

    # a commit block id and a payload id that JSON must escape
    path = tmp_path / "t.jsonl"
    trace_of(*GOLDEN[0][0]).to_jsonl(str(path))
    header, *lines = path.read_text().splitlines()
    raw = [json.loads(line) for line in lines]
    odd = 'q"\\é'
    next(r for r in raw if r["kind"] == "commit")["blocks"][0] += odd
    next(r for r in raw if r["kind"] == "send"
         and r["m"]["kind"] == "proposal")["m"]["block"]["payload"][0] += odd
    path.write_text("\n".join([header, *map(canonical, raw)]) + "\n")

    back = Trace.from_jsonl(str(path))
    assert {(r["kind"], "sq" in r) for r in raw} == set(_SHAPES)
    escaped = 0
    for want, line in zip(raw, back.lines(), strict=True):
        text = canonical(want)
        assert line == text.encode() + b"\n"
        escaped += json.dumps(odd)[1:-1] in text
    assert escaped == 2


def canonical_lines(tmp_path):
    """The header and record lines of a trace holding every shape."""
    path = tmp_path / "t.jsonl"
    trace_of(*GOLDEN[0][0]).to_jsonl(str(path))
    return path.read_text().splitlines()


def load_last(tmp_path, lines):
    path = tmp_path / "edited.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return Trace.from_jsonl(str(path)).records[-1]


def test_other_spellings_exit_two(tmp_path, capsys):
    lines = canonical_lines(tmp_path)
    base = Trace.from_jsonl(str(tmp_path / "t.jsonl")).records
    other_m = next(json.loads(line)["m"] for line in lines[1:]
                   if '"kind":"vote"' in line)
    path = tmp_path / "edited.jsonl"
    checked = set()
    for k, line in enumerate(lines[1:], 1):
        rec = json.loads(line)
        shape = (rec["kind"], "sq" in rec)
        if shape in checked:
            continue
        checked.add(shape)
        # the canonical line loads; without its newline, the last line is
        # truncated, as replay says
        got = load_last(tmp_path, lines[:k] + [line])
        assert got == base[k - 1], line
        assert ({key: type(v) for key, v in got.items()}
                == {key: type(v) for key, v in base[k - 1].items()})
        path.write_text("\n".join(lines[:k] + [line]))
        assert cli.main(["check", str(path)]) == 2, line
        err = capsys.readouterr().err
        assert f" line {k + 1}: " in err and "truncated" in err, err
        # spaces, keys in another order, a t of -0, or the shape's dict or
        # list field, or else t, given twice
        t_at = line.rindex('"t":')  # t follows the dict or list field
        zero_t = line[:t_at] + '"t":-0' + line[t_at + 4 + len(str(rec["t"])):]
        dup = next((key for key in ("m", "blocks") if key in rec), "t")
        first = {"m": canonical(other_m), "blocks": "[]", "t": "999"}[dup]
        at = line.index(f'"{dup}":')
        for text in (json.dumps(rec, sort_keys=True),
                     json.dumps(dict(reversed(rec.items())),
                                separators=(",", ":")),
                     zero_t, line[:at] + f'"{dup}":{first},' + line[at:]):
            for newline in (True, False):
                path.write_text("\n".join(lines[:k] + [text])
                                + ("\n" if newline else ""))
                assert cli.main(["check", str(path)]) == 2, text
                err = capsys.readouterr().err
                assert err.startswith("trace error:"), err
                assert f" line {k + 1}: " in err, err
    assert checked == set(_SHAPES)


def test_adjacent_sends_one_byte_apart_are_two_messages(tmp_path):
    lines = canonical_lines(tmp_path)
    k = next(k for k, line in enumerate(lines)
             if '"kind":"send"' in line and '"signers":[0,1,2]' in line)
    # the same send once more, one signer id changed
    copy = json.loads(lines[k])
    copy["q"] = 10 ** 9
    text = canonical(copy)
    twin = text.replace('"signers":[0,1,2]', '"signers":[0,1,3]', 1)
    assert len(twin) == len(text)
    first = Trace.from_jsonl(str(tmp_path / "t.jsonl")).records[k - 1]
    got = load_last(tmp_path, lines[:k + 1] + [twin])
    assert got["m"] == decode_message(json.loads(twin)["m"]) != first["m"]
    # a copy spelling an integer as a float is refused, although the two
    # messages compare equal as parsed JSON
    floated = text.replace('"signers":[0,', '"signers":[0.0,', 1)
    assert json.loads(floated)["m"] == json.loads(text)["m"]
    with pytest.raises(TraceFormatError):
        load_last(tmp_path, lines[:k + 1] + [floated])


@pytest.mark.parametrize("kind,field,text", [
    ("send", "m", "[]"), ("send", "m", "5"), ("commit", "blocks", "{}"),
    ("timer_fire", "t", "01")])  # JSON has no leading zeros
def test_canonical_line_with_a_bad_value_exits_two(kind, field, text,
                                                   tmp_path, capsys):
    lines = canonical_lines(tmp_path)
    k = next(k for k, line in enumerate(lines)
             if f'"kind":"{kind}"' in line)
    rec = dict(json.loads(lines[k]), **{field: "@"})
    line = canonical(rec)
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines[:k] + [line.replace('"@"', text)]) + "\n")
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("trace error:")


# --- the codec against an independent oracle ---------------------------------
# simnet writes out each shape's reader and writer by hand, and core builds
# each certificate and message kind's writer from its codec table.  The
# records here are drawn from _SHAPES' names and types and the messages from
# _CODEC's, which pins them to both; the text each should have is built here
# from the value types' fields.

# Tier-1 search: the same examples every run, and no example database
CODEC_SEARCH = settings(derandomize=True, database=None, max_examples=150,
                        deadline=None)
INTS = st.sampled_from((0, -1, 2 ** 31, -(2 ** 40), 2 ** 70)) | st.integers()
# ids JSON must escape: a quote, a backslash, control and non-ASCII text
TEXT = st.sampled_from(('q"\\é', "p0-r1-v0", "\x00\n\x7f \U0001f600",
                        "")) | st.text(max_size=12)
PLAIN = {int: INTS, str: TEXT, type(None): st.none()}
SIGNERS = st.frozensets(st.integers(0, 30) | INTS, max_size=5)


def by_name(classes):
    return sorted(classes, key=lambda cls: cls.__name__)


def certificates(admits):
    """A certificate of each class a slot admits, and None where it may be
    empty."""
    return st.one_of(*(st.none() if cls is type(None) else objects(cls)
                       for cls in by_name(admits)))


@functools.cache
def objects(cls):
    """Certificates or messages of ``cls``, each field drawn by what its
    codec entry says it may hold; a block is regular or fallback."""
    _, plain, certs, block = core._CODEC[cls]
    fields = {name: st.one_of(*map(PLAIN.get, types)) for name, types in plain}
    fields.update({name: certificates(admits) for name, admits in certs})
    if cls in core.CERT_KINDS:
        fields["signers"] = SIGNERS
    if block:
        parents = get_args(get_type_hints(core.Block)["parent_qc"])
        fields["block"] = st.builds(
            lambda placed, **body: core.Block(**body, height=placed[0],
                                              proposer=placed[1]),
            st.tuples(st.none(), st.none()) | st.tuples(INTS, INTS),
            id=TEXT, parent_qc=certificates(parents), round=INTS, view=INTS,
            payload=st.builds(core.TxnBatch, TEXT, INTS))
    return st.builds(cls, **fields)


MESSAGES = st.sampled_from(by_name(core.MESSAGE_KINDS)).flatmap(objects)


def oracle(obj):
    """The JSON value of a certificate or message in a trace: its kind tag,
    its fields, signers sorted, and a regular block under "block" or a
    fallback block's body under "inner" beside its height and proposer."""
    if obj is None:
        return None
    kind = core.CERT_KINDS.get(type(obj)) or core.MESSAGE_KINDS[type(obj)][0]
    d = {"kind": kind}
    for name, value in obj._asdict().items():
        if name == "signers":
            d[name] = sorted(value)
        elif isinstance(value, core.Block):
            body = {"id": value.id, "parent": oracle(value.parent_qc),
                    "round": value.round, "view": value.view,
                    "payload": [value.payload.payload_id,
                                value.payload.size_bytes]}
            if value.height is None:
                d["block"] = body
            else:
                d.update(inner=body, height=value.height,
                         proposer=value.proposer)
        else:
            d[name] = oracle(value) if type(value) in core.CERT_KINDS \
                else value
    return d


def spelled(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def test_message_codec_matches_an_independent_oracle():
    seen = set()

    def check(msg):
        text = spelled(oracle(msg))
        assert core.write_message(msg) == text
        back = core.read_message(text)
        assert back == msg
        assert [*map(type, back._asdict().values())] == [
            *map(type, msg._asdict().values())]
        # what was drawn: each kind, its slots' classes, its block's form,
        # escapes
        _, _, certs, block = core._CODEC[type(msg)]
        seen.add(type(msg))
        seen.update((type(msg), name, type(getattr(msg, name)))
                    for name, _ in certs)
        if block:
            seen.add((type(msg), "parent", type(msg.block.parent_qc)))
            seen.add((type(msg), "fallback", msg.block.height is not None))
        seen.add(("escaped", "\\" in text))
        seen.add(("non-ASCII", not all(map(str.isascii, strings(msg)))))

    # one search per kind: drawn from one search, a kind's share of the
    # examples, and so which of its slots' classes come up, moves with any
    # literal the search mines from the source
    for cls in by_name(core.MESSAGE_KINDS):
        settings(CODEC_SEARCH, max_examples=100)(given(objects(cls))(check))()
    want = {("escaped", True), ("non-ASCII", True), *core.MESSAGE_KINDS}
    for cls in core.MESSAGE_KINDS:
        _, _, certs, block = core._CODEC[cls]
        want |= {(cls, name, c) for name, admits in certs for c in admits}
        if block:
            parents = get_args(get_type_hints(core.Block)["parent_qc"])
            want |= {(cls, "parent", c) for c in parents}
            want |= {(cls, "fallback", False), (cls, "fallback", True)}
    assert want <= seen, want - seen


def strings(msg):
    """The str values of a message, its block and payload included."""
    block = getattr(msg, "block", None)
    return [v for v in (*msg._asdict().values(),
                        *(block._asdict().values() if block else ()),
                        *(block.payload._asdict().values() if block else ()))
            if type(v) is str]


@functools.cache
def workload_messages():
    """A few messages of each variant from each seed-1 workload's trace."""
    by_variant = {}
    for name in WORKLOADS:
        for rec in run(*scenario_of(name)).records:
            if "m" in rec:
                kept = by_variant.setdefault((name, message_variant(rec["m"])),
                                             [])
                if len(kept) < 4 and rec["m"] not in kept:
                    kept.append(rec["m"])
    return [m for kept in by_variant.values() for m in kept]


def codec_records():
    """Records of every shape, each field drawn by its type in _SHAPES, and
    a message from a workload or of any kind.  A deliver naming its send
    also holds the send's message, as a simulated one does."""
    values = {int: INTS, bool: st.booleans(),
              dict: st.sampled_from(workload_messages()) | MESSAGES,
              list: st.lists(st.text(max_size=40), max_size=4)}

    def of_shape(shape):
        kind, by_sq = shape
        _, _, names, types = _SHAPES[shape]
        fields = {name: st.just(kind) if name == "kind" else values[t]
                  for name, t in zip(names, types)}
        if by_sq:
            fields["m"] = values[dict]
        return st.fixed_dictionaries(fields)

    return st.sampled_from(sorted(_SHAPES)).flatmap(of_shape)


def oracle_parts(rec):
    """The record's line as json.dumps spells it, key by key."""
    plain = dict(rec)
    if "sq" in rec:
        del plain["m"]  # the send it names carries it
    elif "m" in rec:
        plain["m"] = oracle(rec["m"])
    return [f'"{k}":' + spelled(v) for k, v in sorted(plain.items())]


def write_lines(path, meta, rec, line):
    """A trace of ``line`` for ``rec``, after the send a deliver by sq names.
    Returns the number of the line."""
    head = [json.dumps(dict(meta, digest="0" * 64)).encode() + b"\n"]
    if "sq" in rec:
        send = {"frm": rec["frm"], "kind": "send", "m": rec["m"],
                "q": rec["sq"], "t": 0, "to": rec["to"], "u": 1}
        head += Trace(meta, [send]).lines()
    path.write_bytes(b"".join(head) + line)
    return len(head) + 1


def is_consistent(rec):
    """Whether the reader takes the record: only a self-delivery carries
    m, and a deliver by sq is never one."""
    if rec["kind"] != "deliver":
        return True
    return not rec["self"] if "sq" in rec else (
        rec["self"] and rec["frm"] == rec["to"])


def test_codec_matches_an_independent_oracle(tmp_path):
    meta = run(ReplicaConfig(n=4, f=1), AdversarySpec(Synchronous(1)), 1).meta
    path = tmp_path / "t.jsonl"

    @CODEC_SEARCH
    @given(codec_records())
    def check(rec):
        (line,) = Trace(meta, [rec]).lines()
        assert line == ("{" + ",".join(oracle_parts(rec)) + "}\n").encode()
        no = write_lines(path, meta, rec, line)
        read = []
        if is_consistent(rec):
            Trace.from_jsonl(str(path), read.append)
            assert read[-1] == rec
            assert ({k: type(v) for k, v in read[-1].items()}
                    == {k: type(v) for k, v in rec.items()})
        else:
            with pytest.raises(TraceFormatError, match=f" line {no}: "):
                Trace.from_jsonl(str(path), read.append)

    check()


def edited(parts, edit, at, types):
    """The line of ``parts`` with one edit that breaks canonical form."""
    parts = list(parts)
    key = parts[at][1:parts[at].index('":')]
    value = parts[at][len(key) + 3:]
    if edit == "space":
        parts[at] = f'"{key}": {value}'
    elif edit == "float" and types[key] is int:
        parts[at] = f'"{key}":{value}.0'
    elif edit in ("float", "True"):
        parts[at] = f'"{key}":True'
    elif edit == "drop":
        del parts[at]
    elif edit == "add":
        parts.insert(at, '"zz":1')
    else:  # swap two keys
        parts[at - 1], parts[at] = parts[at], parts[at - 1]
    return ("{" + ",".join(parts) + "}\n").encode()


# a certificate of each kind, and an empty slot, for a slot that does not
# admit it
ONE_OF_EACH = (core.QC("b", 1, 0, frozenset({0, 1, 2})),
               core.FallbackQC("b", 1, 0, 1, 2, frozenset({0, 1, 2})),
               core.TimeoutCert(1, frozenset({0, 1, 2})),
               core.FallbackTC(0, frozenset({0, 1, 2})),
               core.CoinQC(0, 1, frozenset({0, 1})), None)


def edited_messages(msg):
    """The message's text with one edit each that keeps it JSON but not
    canonical: two keys swapped, signers out of order or repeated, an int
    spelled as a float or true, a needless escape, or a certificate of a
    kind its slot does not admit, or none in a slot that needs one."""
    d = oracle(msg)
    parts = [f'"{k}":{spelled(v)}' for k, v in sorted(d.items())]
    texts = ["{%s}" % ",".join([parts[1], parts[0], *parts[2:]])]
    # where certificates sit, and the classes each place admits
    _, _, certs, block = core._CODEC[type(msg)]
    slots = [(d, name, admits) for name, admits in certs]
    if block:
        parents = get_args(get_type_hints(core.Block)["parent_qc"])
        slots.append((d.get("block") or d["inner"], "parent", parents))
    text = spelled(d)
    for holder, name, admits in slots:
        signers = (holder[name] or {}).get("signers", [])
        for edit in (signers[::-1], signers[:1] + signers):
            if edit != signers:
                texts.append(text.replace(spelled(signers), spelled(edit), 1))
        texts += [text.replace(spelled(holder), spelled(
            dict(holder, **{name: oracle(other)})), 1)
                  for other in ONE_OF_EACH if type(other) not in admits]
    number = re.search(r'"\w+":(-?[0-9]+)(?=[,}])', text)  # one in each
    texts += [text[:number.start(1)] + spelling + text[number.end(1):]
              for spelling in (number[1] + ".0", "true")]
    at = text.index('"kind":"') + 8
    texts.append(text[:at] + "\\u%04x" % ord(text[at]) + text[at + 1:])
    return texts


def test_one_edit_off_canonical_form_names_its_line(tmp_path):
    meta = run(ReplicaConfig(n=4, f=1), AdversarySpec(Synchronous(1)), 1).meta
    path = tmp_path / "t.jsonl"

    # every edit at every key of each drawn record, and every edit inside
    # the message a record spells out
    @settings(CODEC_SEARCH, max_examples=40)
    @given(codec_records())
    def check(rec):
        _, _, names, types = _SHAPES[rec["kind"], "sq" in rec]
        parts = oracle_parts(rec)
        lines = [edited(parts, edit, at, dict(zip(names, types)))
                 for edit in ("space", "float", "True", "drop", "add", "swap")
                 for at in range(len(parts))]
        if "m" in rec and "sq" not in rec:
            at = names.index("m")
            canonical = spelled(oracle(rec["m"]))
            for text in edited_messages(rec["m"]):
                assert text != canonical and json.loads(text) is not None
                lines.append(("{%s}\n" % ",".join(
                    [*parts[:at], '"m":' + text, *parts[at + 1:]])).encode())
        for line in lines:
            no = write_lines(path, meta, rec, line)
            with pytest.raises(TraceFormatError, match=f" line {no}: "):
                Trace.from_jsonl(str(path), lambda rec: None)

    check()
