"""Tests of the benchmark's own arithmetic, gate and drive.

    python3 -m pytest perfbench
"""

import json
import resource
import statistics
import sys
from pathlib import Path

import pytest

import run
from stats import Span, quartiles, self_times, spread

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


# --- medians, quartiles, spread ---------------------------------------------


def test_quartiles_match_statistics_quantiles():
    vals = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, q2, q3 = quartiles(vals)
    assert (q1, q2, q3) == tuple(statistics.quantiles(vals, n=4))
    assert q2 == statistics.median(vals)
    assert spread(vals) == pytest.approx((q3 - q1) / q2)


def test_quartiles_of_one_sample_and_zero_median():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert spread([2.5]) == 0.0
    assert spread([0.0, 0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        quartiles([])


def test_median_of_odd_and_even_counts():
    assert run.median([5.0, 1.0, 3.0]) == 3.0
    assert run.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert run.median([]) == 0.0


def test_reference_work_is_fixed(tmp_path):
    env = run.child_env()
    argv = [sys.executable, str(ROOT / "perfbench" / "calibrate.py")]
    first, second = (run.run_child(argv, tmp_path, env) for _ in range(2))
    assert first.code == second.code == 0
    assert first.out == second.out and len(first.out.strip()) == 64
    assert run.run_child(run.STARTUP_REF, tmp_path, env).code == 0


def test_scenario_seeds_counts_the_sweep_seeds(tmp_path):
    workloads = ROOT / "perfbench" / "workloads"
    assert run.scenario_seeds(workloads / "byzantine_sweep.scenario") == (1, 4)
    assert run.scenario_seeds(workloads / "steady_long.scenario") == (1, 1)
    path = tmp_path / "s.scenario"
    path.write_text("[run]\nseed = 7\n\n[sweep]\nseeds = 3,5,9\n")
    assert run.scenario_seeds(path) == (7, 3)


# --- self time ----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [Span(0, None, "cli.run", 0.0, 10.0),
             Span(1, 0, "simnet.run", 1.0, 4.0),
             Span(2, 0, "simnet.to_jsonl", 5.0, 9.0),
             Span(3, 2, "simnet.digest", 5.5, 7.5)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(4.0 - 2.0)
    assert own[3] == pytest.approx(2.0)
    assert sum(own.values()) == pytest.approx(spans[0].duration)


# --- per-child RSS --------------------------------------------------------------


def test_rss_is_measured_per_child(tmp_path):
    env = run.child_env()
    big = run.run_child([sys.executable, "-c",
                         "b = bytearray(150_000_000); b[::4096] = b'x' * "
                         "len(b[::4096])"], tmp_path, env)
    small = run.run_child([sys.executable, "-c", "pass"], tmp_path, env)
    assert big.code == small.code == 0
    assert big.rss_mb > 150
    assert small.rss_mb < 60
    # the maximum over all children would report the big child again
    children_max = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    assert children_max * 1024 / 1e6 > 150
    assert big.wall_s > 0 and small.wall_s > 0


def test_run_child_kills_a_child_past_its_limit(tmp_path):
    child = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                          tmp_path, run.child_env(), limit_s=1.0)
    assert child.code == -9
    assert child.wall_s < 10


def test_run_child_reports_exit_code_and_output(tmp_path):
    child = run.run_child([sys.executable, "-c",
                           "import sys; print('hi'); "
                           "sys.stderr.write('boom\\n'); sys.exit(3)"],
                          tmp_path, run.child_env())
    assert child.code == 3
    assert child.out == "hi\n"
    assert run.exit_problems(child.code, child.err) == ["exit code 3 boom"]


# --- correctness gate -----------------------------------------------------------

RUN_OUT = """command: run
trace_digest: abc
commits_total: 10
messages_delivered: 60
safety: ok
commits_checked: 40
certificates_checked: 12
"""


def test_gate_counts_failed_operations():
    gate = run.Gate()
    gate.op("run", [])
    gate.op("check", ["safety is VIOLATION"])
    assert (gate.attempted, gate.failed) == (2, 1)
    assert gate.problems == ["check: safety is VIOLATION"]


def test_run_gate(tmp_path):
    trace = tmp_path / "t.jsonl"
    trace.write_text("x")
    assert run.run_problems(0, RUN_OUT, "", trace, None) == []
    pinned = {"run": {"commits_total": "10"}}
    assert run.run_problems(0, RUN_OUT, "", trace, pinned) == []
    assert run.run_problems(0, RUN_OUT, "", trace,
                            {"run": {"commits_total": "11"}})
    assert run.run_problems(0, RUN_OUT.replace("safety: ok",
                                               "safety: VIOLATION"),
                            "", trace, None)
    assert run.run_problems(1, RUN_OUT, "", trace, None)
    assert run.run_problems(0, RUN_OUT, "", tmp_path / "missing", None)


def test_check_and_replay_gates():
    run_rep = run.report(RUN_OUT)
    check_ok = "trace: t\nsafety: ok\ncommits_checked: 40\ncertificates_checked: 12\n"
    assert run.check_problems(0, check_ok, "", run_rep) == []
    assert run.check_problems(0, check_ok.replace("40", "39"), "", run_rep)
    replay_ok = "embedded_digest: abc\nreplay: match\n"
    assert run.replay_problems(0, replay_ok, "", run_rep) == []
    assert run.replay_problems(1, replay_ok.replace("match", "MISMATCH"), "",
                               run_rep)
    assert run.replay_problems(0, replay_ok.replace("abc", "abd"), "", run_rep)


def test_sweep_gate():
    run_rep = run.report(RUN_OUT)
    one = ("n=4 runs=1 mean_messages=60.0 mean_commits=10.0 "
           "mean_messages_per_commit=6.000\nsafety: ok\n")
    assert run.sweep_problems(0, one, "", run_rep, 1, None) == []
    assert run.sweep_problems(0, one.replace("60.0", "61.0"), "", run_rep, 1,
                              None)
    assert run.sweep_problems(0, one, "", run_rep, 2, None)
    two = ("n=4 runs=2 mean_messages=1.0 mean_commits=1.0 x=1\n"
           "n=7 runs=2 mean_messages=2.0 mean_commits=1.0 x=1\nsafety: ok\n")
    assert run.sweep_problems(0, two, "", run_rep, 2, None) == ["no fit line"]
    two += "fit_messages_per_commit_vs_n: slope=1\n"
    assert run.sweep_problems(0, two, "", run_rep, 2, None) == []
    pinned = {"sweep": [line for line in two.splitlines()
                        if line.startswith("n=")]}
    assert run.sweep_problems(0, two, "", run_rep, 2, pinned) == []
    assert run.sweep_problems(0, two.replace("2.0", "3.0"), "", run_rep, 2,
                              pinned)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    pinned = json.loads((ROOT / "perfbench" / "pinned.json").read_text())
    assert set(pinned) == set(run.WORKLOADS)


# --- tracing and the replica drive ------------------------------------------------


def test_patched_wraps_and_restores_functions_and_classmethods():
    import layers
    from bftsim import simnet

    tracer = layers.Tracer()
    orig_run = simnet.run
    orig_from = simnet.Trace.__dict__["from_jsonl"]
    with layers.patched([(simnet, "run", tracer.wrap("simnet.run")),
                         (simnet.Trace, "from_jsonl",
                          tracer.wrap("simnet.from_jsonl"))]):
        assert simnet.run is not orig_run
        assert isinstance(simnet.Trace.__dict__["from_jsonl"], classmethod)
        with tracer.span("outer"):
            with pytest.raises(FileNotFoundError):
                simnet.Trace.from_jsonl("/nonexistent/trace.jsonl")
    assert simnet.run is orig_run
    assert simnet.Trace.__dict__["from_jsonl"] is orig_from
    outer, inner = tracer.spans
    assert (outer.name, outer.parent) == ("outer", None)
    assert (inner.name, inner.parent) == ("simnet.from_jsonl", outer.id)
    assert inner.end >= inner.start


SMALL = """[protocol]
n = 7
f = 2
variant = three_chain
pacemaker = async_fallback
timeout_duration = 20

[adversary]
model = asynchronous
base_delay = 1..4
delay_proposal = 25..40
faults = {faults}

[run]
horizon = 150
seed = 3
"""


@pytest.mark.parametrize("faults", ["none", "1:crash@30", "0:equivocate",
                                    "2:mute_leader"])
def test_replica_drive_reproduces_the_trace(tmp_path, faults):
    import layers
    from bftsim import simnet
    from bftsim.scenario import parse_scenario

    path = tmp_path / "s.scenario"
    path.write_text(SMALL.format(faults=faults))
    cfg = parse_scenario(str(path))
    trace = simnet.run(cfg.protocol, cfg.adversary, cfg.horizon)
    drive = layers.replica_drive(trace)
    assert drive["mismatches"] == 0
    assert drive["inputs"] > 0
    assert drive["count"]["fb_proposal"] > 0 and drive["count"]["timer"] > 0
    assert sum(drive["count"].values()) == drive["inputs"]


def test_replica_drive_catches_a_changed_output():
    import layers
    from bftsim import simnet
    from bftsim.core import Vote
    from bftsim.replica import ReplicaConfig

    trace = simnet.run(ReplicaConfig(n=4, f=1), simnet.AdversarySpec(
        simnet.Synchronous(1)), 40)
    k = next(i for i, rec in enumerate(trace.records)
             if rec["kind"] == "send" and isinstance(rec["m"], Vote))
    vote = trace.records[k]["m"]
    trace.records[k] = dict(trace.records[k],
                            m=Vote(vote.block_id, vote.round + 1, vote.view,
                                   vote.voter))
    assert layers.replica_drive(trace)["mismatches"] == 1


def test_replica_drive_checks_a_byzantine_replicas_outputs(tmp_path):
    import layers
    from bftsim import simnet
    from bftsim.core import Proposal
    from bftsim.scenario import parse_scenario

    path = tmp_path / "s.scenario"
    path.write_text(SMALL.format(faults="0:equivocate"))
    cfg = parse_scenario(str(path))
    trace = simnet.run(cfg.protocol, cfg.adversary, cfg.horizon)
    sends = [k for k, rec in enumerate(trace.records)
             if rec["kind"] == "send" and rec["frm"] == 0
             and isinstance(rec["m"], Proposal)]
    first = trace.records[sends[0]]["m"]
    twin = next(k for k in sends
                if trace.records[k]["m"].block.round == first.block.round
                and trace.records[k]["m"] != first)
    # the wrapper sent a twin here; put the honest proposal in its place
    trace.records[twin] = dict(trace.records[twin], m=first)
    assert layers.replica_drive(trace)["mismatches"] == 1
