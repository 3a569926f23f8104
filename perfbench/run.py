#!/usr/bin/env python3
"""bftsim benchmark: wall time and peak RSS of the CLI commands users run,
plus per-layer numbers from a traced in-process pass.

    python3 perfbench/run.py --workload steady_long --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere inside a checkout; the program is taken from the
checkout's ``src`` directory.  Each CLI command runs as a child process of
this single-threaded process, one at a time, for ``--seconds`` seconds of
repeated iterations (run, check, replay, sweep).  ``--trace 1`` then runs
the commands once more in process with layer spans (see layers.py).

Output: one line per metric, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  Every child process and
every check of its output is one attempted operation; any failed check
makes the operation failed.  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from stats import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GRACE_S = 60  # a child still running this long after --seconds is killed


# Each workload is perfbench/workloads/<name>.scenario; why each exists:
# BENCHMARK.json and README.md.
WORKLOADS = ("steady_long", "starved_fallback", "byzantine_sweep")

END_TO_END = (
    ("setup_s", "s"), ("run_s", "s"), ("check_s", "s"), ("replay_s", "s"),
    ("sweep_s", "s"), ("run_rss_mb", "MB"), ("check_rss_mb", "MB"),
    ("replay_rss_mb", "MB"), ("sweep_rss_mb", "MB"), ("trace_mb", "MB"),
)

PER_LAYER = (
    ("cli.import_s", "s"), ("scenario.parse_s", "s"),
    ("simnet.run_s", "s"), ("simnet.records", "count"),
    ("simnet.records_per_s", "1/s"), ("simnet.sends", "count"),
    ("simnet.deliveries", "count"), ("simnet.timer_fires", "count"),
    ("simnet.digest_s", "s"), ("simnet.to_jsonl_s", "s"),
    ("simnet.from_jsonl_s", "s"), ("simnet.trace_bytes_per_record", "B"),
    ("simnet.loop_self_s", "s"),
    ("core.encode_us_per_msg", "us"), ("core.decode_us_per_msg", "us"),
    ("core.messages", "count"),
    ("replica.handle_s", "s"), ("replica.inputs", "count"),
    ("replica.us_per_input", "us"), ("replica.us_per_input.proposal", "us"),
    ("replica.us_per_input.vote", "us"),
    ("replica.outputs_per_input", "ratio"), ("replica.dropped", "count"),
    ("replica.useful_ratio", "ratio"), ("replica.blocks_held", "count"),
    ("replica.vote_buckets", "count"), ("replica.pending_max", "count"),
    ("crypto.verify_us_per_cert", "us"), ("crypto.certs_verified", "count"),
    ("analysis.check_safety_s", "s"), ("analysis.measure_s", "s"),
    ("analysis.fallback_stats_s", "s"),
    ("analysis.certificates_checked", "count"),
    ("analysis.commits_checked", "count"),
    ("analysis.commits_total", "count"),
    ("analysis.messages_delivered", "count"),
    ("analysis.messages_per_commit", "ratio"),
    ("analysis.commit_latency_mean_ticks", "ticks"),
    ("analysis.views_completed", "count"),
    ("cli.run.self_s", "s"), ("cli.check.self_s", "s"),
    ("cli.replay.self_s", "s"), ("cli.sweep.self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Command times are scaled to a fixed machine speed.  A reference child,
# calibrate.py, runs before, between and after the four commands of an
# iteration; it is a fixed piece of interpreter work that does not touch
# bftsim.  Each command's wall time is multiplied by REF_S over the mean of
# the two reference times around it.  On the shared 2-core VM this was
# tuned on, speed drifts by up to 1.5x for seconds and sometimes minutes at
# a time; over ten runs of the same code, raw wall-time medians spread by
# more than any bound allowed.  REF_S is about the reference time there at
# full speed, so scaled values read close to that VM's wall times.
REF_S = 0.15
# Set-up times are scaled the same way by their own reference child,
# startup_ref.py, run right after each set-up probe: interpreter start and
# imports slow down less than calibrate.py's work does, and track a child
# that starts Python and imports bftsim's dependencies much more closely
# (log standard deviation of the ratio 0.10, against 0.14 with
# calibrate.py and 0.21 unscaled).  STARTUP_REF_S is about its time on that
# VM at full speed.
STARTUP_REF_S = 0.10

# run-report keys whose values are simulated results, pinned per workload
SIMULATED = ("commits_total", "messages_delivered", "messages_per_commit",
             "commit_latency_mean", "views_completed")


# --- child processes --------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float  # this child's own peak RSS, from wait4
    out: str
    err: str


def run_child(argv: list[str], work: Path, env: dict,
              limit_s: float = 120.0) -> Child:
    """Run one child to completion, killing it after ``limit_s`` seconds;
    its stdout and stderr go to files so no pipe can fill up while it runs."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=ROOT, env=env)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(limit_s, 1.0))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6,
                 out_path.read_text(), err_path.read_text())


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "bftsim.cli", *args]


# --- correctness gate -------------------------------------------------------


def report(text: str) -> dict[str, str]:
    """``key: value`` lines of a CLI report; the first occurrence wins."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out.setdefault(key, value)
    return out


class Gate:
    """Counts attempted and failed operations and keeps the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]


def exit_problems(code: int, err: str) -> list[str]:
    if code == 0:
        return []
    tail = err.strip().splitlines()[-1:] or [""]
    return [f"exit code {code} {tail[0]}".rstrip()]


def run_problems(code: int, out: str, err: str, trace_file: Path,
                 pinned: Optional[dict]) -> list[str]:
    rep = report(out)
    problems = exit_problems(code, err)
    if rep.get("safety") != "ok":
        problems.append(f"safety: {rep.get('safety')}")
    if not trace_file.is_file():
        problems.append("no trace file written")
    for key, want in (pinned or {}).get("run", {}).items():
        if rep.get(key) != want:
            problems.append(f"{key} is {rep.get(key)}, pinned {want}")
    return problems


def check_problems(code: int, out: str, err: str, run_rep: dict) -> list[str]:
    rep = report(out)
    problems = exit_problems(code, err)
    for key in ("safety", "commits_checked", "certificates_checked"):
        if rep.get(key) != run_rep.get(key):
            problems.append(f"{key} is {rep.get(key)}, run said "
                            f"{run_rep.get(key)}")
    return problems


def replay_problems(code: int, out: str, err: str, run_rep: dict) -> list[str]:
    rep = report(out)
    problems = exit_problems(code, err)
    if rep.get("replay") != "match":
        problems.append(f"replay: {rep.get('replay')}")
    if rep.get("embedded_digest") != run_rep.get("trace_digest"):
        problems.append("embedded digest differs from the run's digest")
    return problems


def sweep_problems(code: int, out: str, err: str, run_rep: dict, runs: int,
                   pinned: Optional[dict]) -> list[str]:
    rep = report(out)
    problems = exit_problems(code, err)
    if rep.get("safety") != "ok":
        problems.append(f"safety: {rep.get('safety')}")
    rows = [line for line in out.splitlines() if line.startswith("n=")]
    if not rows:
        problems.append("no per-n summary lines")
    for row in rows:
        if f" runs={runs} " not in row:
            problems.append(f"expected runs={runs}: {row}")
    if len(rows) >= 2 and "fit_messages_per_commit_vs_n" not in rep:
        problems.append("no fit line")
    if runs == 1 and len(rows) == 1:
        # a one-point sweep repeats the run without writing a trace
        fields = dict(kv.split("=", 1) for kv in rows[0].split()[1:])
        for key, run_key in (("mean_messages", "messages_delivered"),
                             ("mean_commits", "commits_total")):
            try:
                same = float(fields[key]) == float(run_rep[run_key])
            except (KeyError, ValueError):
                same = False
            if not same:
                problems.append(f"{key} {fields.get(key)} differs from the "
                                f"run's {run_key} {run_rep.get(run_key)}")
    if pinned and rows != pinned.get("sweep", rows):
        problems.append(f"per-n lines differ from the pinned ones: {rows}")
    return problems


# --- the untraced end-to-end loop -------------------------------------------


def scenario_seeds(scenario: Path) -> tuple[int, int]:
    """The scenario's run seed, and how many seeds its ``[sweep] seeds``
    lists (1 if it has no sweep section)."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read(scenario)
    raw = cp.get("sweep", "seeds", fallback="")
    lo, sep, hi = raw.partition("..")
    if sep:
        count = int(hi) - int(lo) + 1
    else:
        count = len([s for s in raw.split(",") if s.strip()]) or 1
    return int(cp["run"].get("seed", "1")), count


def command_argvs(scenario: str, seed: int, sweep_seeds: int,
                  out_dir: Path) -> dict[str, list[str]]:
    trace = str(out_dir / f"run-seed{seed}.trace.jsonl")
    seeds = str(seed) if sweep_seeds == 1 else f"{seed}..{seed + sweep_seeds - 1}"
    return {"run": ["run", "--config", scenario, "--seed", str(seed),
                    "--out", str(out_dir)],
            "check": ["check", trace],
            "replay": ["replay", trace],
            "sweep": ["sweep", "--config", scenario, "--seeds", seeds]}


def setup_probe(scenario: str, work: Path, env: dict, kill_at: float,
                gate: Gate) -> Optional[dict]:
    """One set-up probe: its wall time and the import and parse times it
    printed, or None if it failed."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), scenario]
    child = run_child(argv, work, env, kill_at - time.perf_counter())
    problems = exit_problems(child.code, child.err)
    probe = None
    if not problems:
        try:
            probe = json.loads(child.out.splitlines()[-1])
        except (IndexError, ValueError):
            problems.append(f"unreadable probe output {child.out[-200:]!r}")
        else:
            package = Path(probe["package"]).resolve()
            if not package.is_relative_to(ROOT / "src"):
                problems.append(f"imported bftsim from {package}")
    gate.op("setup", problems)
    return None if problems else dict(probe, wall_s=child.wall_s)


STARTUP_REF = [sys.executable, str(HERE / "startup_ref.py")]


def iteration(argvs: dict, sweep_seeds: int, scenario: str, trace_file: Path,
              work: Path, env: dict, kill_at: float, gate: Gate,
              samples: dict, scaled: dict, pinned: Optional[dict]) -> None:
    """A set-up probe and its reference child (see STARTUP_REF_S), then run,
    check, replay and sweep with a reference child before, between and
    after them (see REF_S)."""
    def child(argv: list[str]) -> Child:
        return run_child(argv, work, env, kill_at - time.perf_counter())

    refs: list[float] = []

    def reference() -> None:
        ref = child([sys.executable, str(HERE / "calibrate.py")])
        gate.op("reference", exit_problems(ref.code, ref.err))
        refs.append(ref.wall_s)

    probe = setup_probe(scenario, work, env, kill_at, gate)
    startup = child(STARTUP_REF)
    gate.op("start-up reference", exit_problems(startup.code, startup.err))
    reference()
    trace_file.unlink(missing_ok=True)
    run = child(cli_argv(*argvs["run"]))
    reference()
    gate.op("run", run_problems(run.code, run.out, run.err, trace_file, pinned))
    run_rep = report(run.out)
    samples["trace_mb"].append(
        trace_file.stat().st_size / 1e6 if trace_file.is_file() else 0.0)
    check = child(cli_argv(*argvs["check"]))
    reference()
    gate.op("check", check_problems(check.code, check.out, check.err, run_rep))
    replay = child(cli_argv(*argvs["replay"]))
    reference()
    gate.op("replay", replay_problems(replay.code, replay.out, replay.err,
                                      run_rep))
    sweep = child(cli_argv(*argvs["sweep"]))
    reference()
    gate.op("sweep", sweep_problems(sweep.code, sweep.out, sweep.err, run_rep,
                                    sweep_seeds, pinned))

    samples["ref_s"] += refs
    samples["startup_ref_s"].append(startup.wall_s)
    if probe:
        samples["setup_s"].append(probe["wall_s"])
        scaled["setup_s"].append(probe["wall_s"] * STARTUP_REF_S
                                 / startup.wall_s)
        samples["cli.import_s"].append(probe["import_s"])
        samples["scenario.parse_s"].append(probe["parse_s"])
    for k, (name, result) in enumerate((("run", run), ("check", check),
                                        ("replay", replay), ("sweep", sweep))):
        samples[f"{name}_s"].append(result.wall_s)
        scaled[f"{name}_s"].append(
            result.wall_s * 2 * REF_S / (refs[k] + refs[k + 1]))
        samples[f"{name}_rss_mb"].append(result.rss_mb)


# --- the traced pass ---------------------------------------------------------


def traced_metrics(argvs: dict, trace_file: Path, sweep_seeds: int, gate: Gate,
                   samples: dict, pinned: Optional[dict]) -> tuple[dict, dict]:
    """Per-layer metrics plus detail (every variant, the spans)."""
    sys.path.insert(0, str(ROOT / "src"))
    import layers

    trace_file.unlink(missing_ok=True)
    res = layers.traced_pass(argvs, str(trace_file))
    out, code = res["stdout"], res["exit"]
    run_rep = report(out["run"])
    gate.op("traced run", run_problems(code["run"], out["run"], "",
                                       trace_file, pinned))
    gate.op("traced check", check_problems(code["check"], out["check"], "",
                                           run_rep))
    gate.op("traced replay", replay_problems(code["replay"], out["replay"], "",
                                             run_rep))
    gate.op("traced sweep", sweep_problems(code["sweep"], out["sweep"], "",
                                           run_rep, sweep_seeds, pinned))
    drive = res["drive"]
    gate.op("replica drive",
            [f"{drive['mismatches']} inputs whose outputs differ from the "
             "trace"] if drive["mismatches"] else [])
    gate.op("codec round trip",
            [] if res["codec"]["round_trip_ok"] else ["decode(encode(m)) != m"])

    m = layers.layer_metrics(res)
    setup = median(samples["setup_s"])
    m["trace.overhead_s"] = sum(
        m[f"cli.{cmd}.traced_s"] - (min(samples[f"{cmd}_s"]) - setup)
        for cmd in ("run", "check", "replay", "sweep"))
    m["cli.import_s"] = median(samples["cli.import_s"])
    m["scenario.parse_s"] = median(samples["scenario.parse_s"])
    for key in ("certificates_checked", "commits_checked") + SIMULATED:
        name = ("analysis.commit_latency_mean_ticks"
                if key == "commit_latency_mean" else f"analysis.{key}")
        try:
            m[name] = float(run_rep[key])
        except (KeyError, ValueError):
            m[name] = 0.0
    detail = {"spans": [vars(s) for s in res["tracer"].spans],
              "all_layer_values": m}
    return {name: m[name] for name, _ in PER_LAYER}, detail


# --- main ---------------------------------------------------------------------


def median(values: list[float]) -> float:
    return quartiles(values)[1] if values else 0.0


def environment() -> dict:
    sha = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


def bench_workload(name: str, seed: Optional[int], seconds: int, trace: bool,
                   work: Path, env: dict) -> dict:
    scenario = HERE / "workloads" / f"{name}.scenario"
    scenario_arg = str(scenario.relative_to(ROOT))
    default, sweep_seeds = scenario_seeds(scenario)
    if seed is None:
        seed = default
    pins = json.loads((HERE / "pinned.json").read_text())[name]
    pinned = pins if pins["seed"] == seed else None
    out_dir = work / name
    out_dir.mkdir()
    argvs = command_argvs(scenario_arg, seed, sweep_seeds, out_dir)
    trace_file = out_dir / f"run-seed{seed}.trace.jsonl"
    gate = Gate()
    samples: dict[str, list[float]] = defaultdict(list)
    scaled: dict[str, list[float]] = defaultdict(list)  # see REF_S
    env_before = environment()

    kill_at = time.perf_counter() + seconds + GRACE_S
    # the untimed first probe fills the bytecode caches, if Python writes them
    setup_probe(scenario_arg, work, env, kill_at, gate)
    run_child(STARTUP_REF, work, env)
    # Stop before an iteration that, as long as the last one, would end
    # after the deadline; the first always runs.
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        iteration(argvs, sweep_seeds, scenario_arg, trace_file, work, env,
                  kill_at, gate, samples, scaled, pinned)
        now = time.perf_counter()
        if 2 * now - t0 > deadline:
            break

    if trace:
        metrics, detail = traced_metrics(argvs, trace_file, sweep_seeds,
                                         gate, samples, pinned)
        units = dict(PER_LAYER)
    else:
        metrics = {key: median(scaled.get(key) or samples[key])
                   for key, _ in END_TO_END}
        detail = {}
        units = dict(END_TO_END)
    return {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace),
            "attempted": gate.attempted, "failed": gate.failed,
            "problems": gate.problems,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
            "samples": dict(samples), "scaled": dict(scaled),
            "env": {"start": env_before, "end": environment()},
            **detail}


def print_human(res: dict) -> None:
    w = res["workload"]
    print(f"{w} seed={res['seed']} trace={res['trace']} "
          f"env={json.dumps(res['env']['start'])}")
    for key, metric in res["metrics"].items():
        vals = res["scaled"].get(key) or res["samples"].get(key)
        extra = ""
        if vals and len(vals) > 1:
            q1, _, q3 = quartiles(vals)
            extra = f"  (median of {len(vals)}, q1 {q1:.4g}, q3 {q3:.4g})"
        elif vals:
            extra = "  (1 sample)"
        print(f"{w}  {key}  {metric['value']:.6g} {metric['unit']}{extra}")
    extra = res.get("all_layer_values", {})
    for v in [k for k in extra if k.startswith("replica.inputs.")]:
        variant = v.rsplit(".", 1)[1]
        print(f"{w}  replica variant {variant}: {extra[v]:.0f} inputs, "
              f"{extra['replica.us_per_input.' + variant]:.2f} us/input")
    print(f"{w}  failed/attempted: {res['failed']}/{res['attempted']}")
    for p in res["problems"][:20]:
        print(f"{w}  FAILED {p}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the scenario's seed)")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "bftsim" / "cli.py").is_file():
        sys.stderr.write(f"no bftsim sources under {ROOT / 'src'}\n")
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        results = [bench_workload(name, args.seed, args.seconds,
                                  bool(args.trace), work, child_env())
                   for name in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stamp = time.strftime("%Y%m%dT%H%M%S")
    for res in results:
        path = OUT / (f"{res['workload']}-seed{res['seed']}-"
                      f"trace{res['trace']}-{stamp}.json")
        path.write_text(json.dumps(res, indent=1) + "\n")
        print_human(res)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
