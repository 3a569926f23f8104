"""Command line interface.

    bftsim run    --config scenario.ini [--seed N] [--horizon H] [--out DIR]
    bftsim sweep  --config scenario.ini [--seeds A..B] [--out DIR]
    bftsim replay TRACE.jsonl
    bftsim check  TRACE.jsonl

Exit codes: 0 success, 1 safety violation or replay mismatch, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import fields, replace
from typing import TYPE_CHECKING, Optional

from . import simnet
from .core import ConfigError, ReplicaConfig, sha256
from .scenario import (ScenarioConfig, format_faults, format_model,
                       parse_int_list, parse_scenario)
from .simnet import Trace

# Each command imports only the code it runs: analysis where it checks,
# the replica where it simulates (simnet.Simulation) and CPython's own
# sha256 where it hashes (core.sha256); none maps OpenSSL through
# hashlib.  The import every call pays loads none of them.
if TYPE_CHECKING:
    from . import analysis


def _timestamp_line() -> str:
    now = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
    return f"generated_at: {now}"


def _print(lines: list[str], quiet: bool) -> None:
    if not quiet:
        sys.stdout.write("\n".join(lines) + "\n")


def _run_report(scenario_path: str, cfg: ScenarioConfig, trace: Trace,
                digest: str, safety: analysis.SafetyReport,
                metrics: analysis.MetricsReport) -> list[str]:
    lines = ["command: run", f"scenario: {scenario_path}"]
    # one line per protocol field, in declaration order; run_seed is
    # spelled as its [run] key
    for f in fields(cfg.protocol):
        key = "seed" if f.name == "run_seed" else f.name
        lines.append(f"{key}: {getattr(cfg.protocol, f.name)}")
    lines += [
        f"horizon: {cfg.horizon}",
        f"coin_prf: {trace.meta['prf']}",
        f"genesis_id: {trace.meta['genesis_id']}",
        f"adversary: {format_model(cfg.adversary.model)}",
        f"faults: {format_faults(cfg.adversary.faults)}",
        f"trace_digest: {digest}",
        f"undelivered_at_horizon: {trace.meta['undelivered']}",
    ]
    metric_dict = metrics.to_dict()
    lines += [f"{key}: {json.dumps(value) if isinstance(value, dict) else value}"
              for key, value in metric_dict.items()]
    lines += safety.lines()
    return lines


def cmd_run(args) -> int:
    from . import analysis

    cfg = parse_scenario(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    if args.horizon is not None:
        cfg = replace(cfg, horizon=args.horizon)
    out_dir = args.out or cfg.out_dir
    trace = simnet.run(cfg.protocol, cfg.adversary, cfg.horizon)
    idx = analysis.index(trace)
    safety = analysis.check_safety(trace, idx)
    metrics = analysis.measure(trace, idx)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, f"run-seed{cfg.protocol.run_seed}")
        digest = trace.to_jsonl(base + ".trace.jsonl")
    else:
        digest = trace.digest()
    lines = _run_report(args.config, cfg, trace, digest, safety, metrics)
    lines.append(_timestamp_line())
    if out_dir:
        with open(base + ".report.txt", "w") as fh:
            fh.write("\n".join(lines) + "\n")
    _print(lines, args.quiet)
    return 0 if safety.ok else 1


def _sweep_run(cfg: ScenarioConfig, protocol: ReplicaConfig,
               path: Optional[str]) -> tuple[bool, analysis.MetricsReport]:
    """One grid point: its safety verdict and metrics.  The records go
    straight into the index, unless they are held to be written to
    ``path``; held ones are indexed after the run."""
    from . import analysis

    idx, add = analysis.indexer(protocol, cfg.adversary)
    trace = simnet.run(protocol, cfg.adversary, cfg.horizon,
                       None if path else add)
    for rec in trace.records:
        add(rec)
    safety = analysis.check_safety(trace, idx)
    metrics = analysis.measure(trace, idx)
    if path:
        trace.to_jsonl(path)
    return safety.ok, metrics


def _in_children(func, calls: list[tuple]) -> list:
    """``func(*args)`` for each of ``calls``, in order.  Each call runs in
    its own forked child, at most one per usable CPU at a time, and pickles
    its result or exception back through a pipe.  A child's exception is
    raised here, with its type, once every child is reaped.  With room for
    one child, or no sched_getaffinity, the calls run in this process.
    The CLI starts no threads, so a forked child holds no lock mid-use."""
    try:
        width = min(len(calls), len(os.sched_getaffinity(0)))
    except AttributeError:  # only platforms with fork have sched_getaffinity
        width = 1
    if width <= 1:
        return [func(*args) for args in calls]
    import pickle
    import select

    results: list = [None] * len(calls)
    failed: dict[int, BaseException] = {}
    running: dict[int, tuple[int, int, list[bytes]]] = {}  # fd -> i, pid, data
    todo = iter(enumerate(calls))
    try:
        while True:
            while not failed and len(running) < width and (
                    (nxt := next(todo, None)) is not None):
                i, args = nxt
                r, w = os.pipe()
                pid = os.fork()
                if pid == 0:  # the child: never return, never flush stdio
                    status = 1
                    try:
                        os.close(r)
                        for fd in running:
                            os.close(fd)
                        try:
                            data = pickle.dumps((True, func(*args)))
                        except Exception as exc:
                            data = pickle.dumps((False, exc))
                        with os.fdopen(w, "wb") as fh:
                            fh.write(data)
                        status = 0
                    finally:
                        os._exit(status)
                os.close(w)
                running[r] = (i, pid, [])
            if not running:
                break
            for fd in select.select(list(running), [], [])[0]:
                chunk = os.read(fd, 1 << 16)
                if chunk:
                    running[fd][2].append(chunk)
                    continue
                # the pipe is at EOF: the child is done writing
                os.close(fd)
                i, pid, data = running.pop(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code != 0 or not data:
                    failed[i] = ChildProcessError(
                        f"sweep run {i + 1} ended without a result "
                        f"(exit status {code})")
                    continue
                ok, value = pickle.loads(b"".join(data))
                if ok:
                    results[i] = value
                else:
                    failed[i] = value
    finally:
        # only reached with children running if this process was
        # interrupted; each ends at its next write or when its run ends
        for fd, (_, pid, _) in running.items():
            os.close(fd)
            os.waitpid(pid, 0)
    if failed:
        raise failed[min(failed)]
    return results


def cmd_sweep(args) -> int:
    cfg = parse_scenario(args.config)
    seeds = parse_int_list(args.seeds) if args.seeds else (
        cfg.sweep_seeds or [cfg.protocol.run_seed])
    n_values = cfg.sweep_n or [cfg.protocol.n]
    out_dir = args.out or cfg.out_dir
    # the whole grid is checked before any run starts
    protocols = {}
    for n in n_values:
        protocols[n] = replace(cfg.protocol, n=n, f=(n - 1) // 3)
        simnet.validate(protocols[n], cfg.adversary, cfg.horizon)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    # the code every run needs, loaded once here, not once in each forked
    # child: the replica, the checker, and the sha256 for the block ids
    from . import analysis, replica  # noqa: F401
    sha256()
    # a point the grid lists twice runs once, and counts twice
    points = list(dict.fromkeys((n, seed) for n in n_values for seed in seeds))
    results = dict(zip(points, _in_children(_sweep_run, [
        (cfg, replace(protocols[n], run_seed=seed),
         out_dir and os.path.join(out_dir, f"sweep-n{n}-seed{seed}.trace.jsonl"))
        for n, seed in points])))

    lines = ["command: sweep",
             f"scenario: {args.config}",
             f"seeds: {','.join(map(str, seeds))}",
             f"n_values: {','.join(map(str, n_values))}"]
    all_ok = all(ok for ok, _ in results.values())
    mean_mpc: list[tuple[int, float]] = []
    for n in n_values:
        runs = [results[n, seed][1] for seed in seeds]
        mean_msgs = sum(r.messages_delivered for r in runs) / len(runs)
        mean_commits = sum(r.commits_total for r in runs) / len(runs)
        mpc = [r.messages_per_commit for r in runs
               if r.messages_per_commit is not None]
        mean_per_commit = sum(mpc) / len(mpc) if mpc else None
        if mean_per_commit is not None:
            mean_mpc.append((n, mean_per_commit))
        lines.append(
            f"n={n} runs={len(runs)} mean_messages={mean_msgs:.1f} "
            f"mean_commits={mean_commits:.1f} "
            f"mean_messages_per_commit="
            + (f"{mean_per_commit:.3f}" if mean_per_commit is not None else "na"))
    if len({n for n, _ in mean_mpc}) >= 2:
        xs = [x for x, _ in mean_mpc]
        ys = [y for _, y in mean_mpc]
        (slope, intercept), r2 = analysis.fit_polynomial(xs, ys)
        lines.append(f"fit_messages_per_commit_vs_n: slope={slope:.4f} "
                     f"intercept={intercept:.4f} r2={r2:.6f}")
    lines.append(f"safety: {'ok' if all_ok else 'VIOLATION'}")
    lines.append(_timestamp_line())
    if out_dir:
        with open(os.path.join(out_dir, "sweep-summary.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    _print(lines, args.quiet)
    return 0 if all_ok else 1


def cmd_replay(args) -> int:
    trace, recomputed, got, first = simnet.replay(args.trace)
    # All three must agree: header digest, digest over the bytes as stored,
    # and the digest of a fresh deterministic re-run.
    match = got == trace.stored_digest == recomputed
    lines = [f"trace: {args.trace}",
             f"embedded_digest: {trace.stored_digest}",
             f"recomputed_digest: {recomputed}",
             f"replayed_digest: {got}",
             f"replay: {'match' if match else 'MISMATCH'}"]
    if not match:
        lines.append(f"first_difference: line {first}")
    _print(lines, args.quiet)
    return 0 if match else 1


def cmd_check(args) -> int:
    from . import analysis

    header = Trace.read_header(args.trace)
    idx, add = analysis.indexer(header.protocol, header.adversary)
    trace = Trace.from_jsonl(args.trace, add)
    safety = analysis.check_safety(trace, idx)
    lines = [f"trace: {args.trace}"] + safety.lines()
    _print(lines, args.quiet)
    return 0 if safety.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bftsim",
        description="Deterministic simulator for a chained BFT protocol "
                    "with an asynchronous fallback view-change.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and check safety")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--horizon", type=int)
    p_run.add_argument("--out")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a seed/size grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--seeds")
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--quiet", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_replay = sub.add_parser("replay",
                              help="re-run a trace and compare digests")
    p_replay.add_argument("trace")
    p_replay.add_argument("--quiet", action="store_true")
    p_replay.set_defaults(func=cmd_replay)

    p_check = sub.add_parser("check", help="run the safety checker on a trace")
    p_check.add_argument("trace")
    p_check.add_argument("--quiet", action="store_true")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, simnet.HorizonTooSmall) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"file error: {exc}\n")
        return 2
    except simnet.TraceFormatError as exc:
        sys.stderr.write(f"trace error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
