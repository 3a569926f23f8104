"""Command line interface.

    bftsim run    --config scenario.ini [--seed N] [--horizon H] [--out DIR]
    bftsim sweep  --config scenario.ini [--seeds A..B] [--out DIR]
    bftsim replay TRACE.jsonl
    bftsim check  TRACE.jsonl

Exit codes: 0 success, 1 safety violation or replay mismatch, 2 usage,
configuration or input error, 3 internal error (an unexpected exception,
also one raised in a sweep worker: one ``internal error:`` line and the
traceback on stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
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
    lines += [f"{'seed' if name == 'run_seed' else name}: {value}"
              for name, value in cfg.protocol._asdict().items()]
    lines += [
        f"horizon: {cfg.horizon}",
        f"coin_prf: {trace.meta['prf']}",
        f"genesis_id: {trace.meta['genesis_id']}",
        f"adversary: {format_model(cfg.adversary.model)}",
        f"faults: {format_faults(cfg.adversary.faults)}",
        f"trace_digest: {digest}",
        f"undelivered_at_horizon: {trace.meta['undelivered']}",
    ]
    lines += [f"{key}: {json.dumps(value) if isinstance(value, dict) else value}"
              for key, value in metrics.to_dict().items()]
    return lines + safety.lines() + [_timestamp_line()]


def _simulate(cfg: ScenarioConfig, protocol: ReplicaConfig,
              path: Optional[str]) -> tuple:
    """One run of ``protocol``: its trace, the digest of its file at
    ``path``, its safety report and metrics.  With no path, the records go
    straight into the index; held ones are indexed after the run."""
    from . import analysis

    idx, add = analysis.indexer(protocol, cfg.adversary)
    trace = simnet.run(protocol, cfg.adversary, cfg.horizon,
                       None if path else add)
    for rec in trace.records:
        add(rec)
    safety, metrics = analysis.check_safety(idx), analysis.measure(idx)
    return trace, path and trace.to_jsonl(path), safety, metrics


def cmd_run(args) -> int:
    cfg = parse_scenario(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    if args.horizon is not None:
        cfg = cfg._replace(horizon=args.horizon)
    out_dir = args.out or cfg.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, f"run-seed{cfg.protocol.run_seed}")
    trace, digest, safety, metrics = _simulate(
        cfg, cfg.protocol, base + ".trace.jsonl" if out_dir else os.devnull)
    lines = _run_report(args.config, cfg, trace, digest, safety, metrics)
    if out_dir:
        with open(base + ".report.txt", "w") as fh:
            fh.write("\n".join(lines) + "\n")
    _print(lines, args.quiet)
    return 0 if safety.ok else 1


def _sweep_run(*call) -> tuple[bool, analysis.MetricsReport]:
    _, _, safety, metrics = _simulate(*call)  # all a sweep worker sends back
    return safety.ok, metrics


def _in_children(func, calls: list[tuple]) -> list:
    """``func(*args)`` for each of ``calls``, in order.  One worker per
    usable CPU is forked once and inherits the calls.  The parent writes
    the index of a call to the first free worker's pipe, and the worker
    pickles that call's result back through its own, or its exception with
    the worker's traceback as a note.  Once a call fails, no worker gets
    another; the exception of the earliest failed call in ``calls`` is
    raised here, with its type, once every worker is reaped.  With room
    for one worker, or no sched_getaffinity, the calls run in this
    process.  The CLI starts no threads, so a forked worker
    holds no lock mid-use."""
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
    # a worker's result pipe -> its pid, its index pipe, its call or None;
    # its index pipe is closed, which ends the worker, once it has no call
    workers: dict = {}
    todo = iter(range(len(calls)))

    def hand_out(worker: list) -> None:
        worker[2] = None if failed else next(todo, None)
        if worker[2] is None:
            os.close(worker[1])
        else:
            os.write(worker[1], b"%d\n" % worker[2])
    try:
        for _ in range(width):
            (up, up_w), (down_r, down) = os.pipe(), os.pipe()
            pid = os.fork()
            if pid == 0:  # a worker: never return, never flush stdio
                status = 1
                try:
                    for fd in (up, down, *[w[1] for w in workers.values()],
                               *[fh.fileno() for fh in workers]):
                        os.close(fd)
                    with os.fdopen(down_r, "rb") as indices, \
                            os.fdopen(up_w, "wb") as out:
                        for line in indices:
                            try:
                                data = pickle.dumps(
                                    (True, func(*calls[int(line)])))
                            except Exception as exc:
                                import traceback  # the parent prints it
                                exc.add_note(traceback.format_exc().rstrip())
                                data = pickle.dumps((False, exc))
                            out.write(data)
                            out.flush()
                    status = 0
                finally:
                    os._exit(status)
            os.close(up_w)
            os.close(down_r)
            workers[os.fdopen(up, "rb")] = worker = [pid, down, None]
            hand_out(worker)
        while workers:
            for fh in select.select(list(workers), [], [])[0]:
                worker = workers[fh]
                try:
                    ok, value = pickle.load(fh)
                except (EOFError, pickle.UnpicklingError):
                    # the pipe is at EOF: the worker has ended
                    fh.close()
                    pid, down, i = workers.pop(fh)
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    if i is not None:
                        os.close(down)
                        failed[i] = ChildProcessError(
                            f"sweep run {i + 1} ended without a result "
                            f"(exit status {code})")
                    continue
                (results if ok else failed)[worker[2]] = value
                hand_out(worker)
    finally:
        # only reached with workers left if this process was interrupted;
        # each ends at its next write or when its call ends
        for fh, (pid, down, i) in workers.items():
            fh.close()
            if i is not None:
                os.close(down)
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
        protocols[n] = cfg.protocol._replace(n=n, f=(n - 1) // 3)
        for seed in seeds:
            simnet.validate(protocols[n]._replace(run_seed=seed),
                            cfg.adversary, cfg.horizon)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    # the code every run needs, loaded once here, not once in each forked
    # worker: the replica, the checker, and the sha256 for the block ids
    from . import analysis, replica  # noqa: F401
    sha256()
    # a point the grid lists twice runs once, and counts twice
    points = list(dict.fromkeys((n, seed) for n in n_values for seed in seeds))
    results = dict(zip(points, _in_children(_sweep_run, [
        (cfg, protocols[n]._replace(run_seed=seed),
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


def _difference(no: int, theirs: Optional[bytes],
                mine: Optional[bytes]) -> list[str]:
    """Where a replay first differs: the line, its record's kind and
    replica (a send's sender, a deliver's recipient, else ``rid``) as the
    run has it unless ended, and both lines cut to the same 120 characters,
    from at most 80 before their first differing byte ("..." where cut)."""
    start = max(0, len(os.path.commonprefix([theirs or b"", mine or b""]))
                - 80)
    record = "header"
    if no > 1:  # a record line of the run, or of a file read clean
        rec = json.loads(mine or theirs)
        owner = {"send": "frm", "deliver": "to"}.get(rec["kind"], "rid")
        record = f"{rec['kind']}, replica {rec[owner]}"
    return [f"first_difference: line {no}", f"record: {record}"] + [
        f"{side}: " + (ended if line is None else "..." * (start > 0) + line[
            start:start + 120].decode(errors="replace").rstrip("\n"))
        for side, line, ended in (("file", theirs, "(end of file)"),
                                  ("run", mine, "(end of run)"))]


def cmd_replay(args) -> int:
    trace, recomputed, got, first = simnet.replay(args.trace)
    match = first is None  # no line differs, the header's digest included
    lines = [f"trace: {args.trace}",
             f"embedded_digest: {trace.stored_digest}",
             f"recomputed_digest: {recomputed}",
             f"replayed_digest: {got}",
             f"replay: {'match' if match else 'MISMATCH'}"]
    if not match:
        lines += _difference(*first)
    _print(lines, args.quiet)
    return 0 if match else 1


def cmd_check(args) -> int:
    from . import analysis

    def fold(header: Trace) -> simnet.Sink:
        nonlocal idx
        idx, add = analysis.indexer(header.protocol, header.adversary)
        return add

    idx = None
    Trace.from_jsonl(args.trace, fold)  # a file or a pipe, read once
    safety = analysis.check_safety(idx)
    _print([f"trace: {args.trace}"] + safety.lines(), args.quiet)
    return 0 if safety.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bftsim",
        description="Deterministic simulator for a chained BFT protocol "
                    "with an asynchronous fallback view-change.")
    sub = parser.add_subparsers(dest="command", required=True)
    for func, help, arguments in (
            (cmd_run, "run one scenario and check safety",
             ("--config", "--seed", "--horizon", "--out")),
            (cmd_sweep, "run a seed/size grid", ("--config", "--seeds", "--out")),
            (cmd_replay, "re-run a trace and compare digests", ("trace",)),
            (cmd_check, "run the safety checker on a trace", ("trace",))):
        command = sub.add_parser(func.__name__[4:], help=help)
        for name in arguments:  # a string unless said otherwise
            command.add_argument(name, **{
                "--config": {"required": True}, "--seed": {"type": int},
                "--horizon": {"type": int}}.get(name, {}))
        command.add_argument("--quiet", action="store_true")
        command.set_defaults(func=func)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, simnet.TraceFormatError) as exc:
        what = ("config" if isinstance(exc, ConfigError) else
                "file" if isinstance(exc, OSError) else "trace")
        sys.stderr.write(f"{what} error: {exc}\n")
        return 2
    except Exception as exc:  # a fault of bftsim's own, not a verdict
        import traceback

        sys.stderr.write(f"internal error: {exc!r}\n")
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
