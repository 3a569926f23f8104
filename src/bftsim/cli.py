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
import datetime
import json
import os
import sys
from dataclasses import replace
from typing import Optional

from . import analysis, simnet
from .replica import ConfigError
from .scenario import ScenarioConfig, parse_int_list, parse_scenario
from .simnet import (Asynchronous, Crash, Honest, PartialSynchrony,
                     Synchronous, Trace)


def _timestamp_line() -> str:
    now = datetime.datetime.now(datetime.timezone.utc)
    return f"generated_at: {now.isoformat(timespec='seconds')}"


def _render_model(model) -> str:
    if isinstance(model, Synchronous):
        return f"synchronous delta={model.delta}"
    if isinstance(model, PartialSynchrony):
        return (f"partial_synchrony gst={model.gst} delta={model.delta} "
                f"pre_gst_delay_bound={model.pre_gst_delay_bound}")
    if isinstance(model, Asynchronous):
        per = " ".join(f"{k}={lo}..{hi}" for k, (lo, hi) in model.per_variant)
        base = f"base={model.base_delay[0]}..{model.base_delay[1]}"
        return f"asynchronous {base}" + (f" {per}" if per else "")
    return str(model)


def _render_faults(faults) -> str:
    return " ".join(f"{rid}:crash@{spec.at}" if isinstance(spec, Crash)
                    else f"{rid}:{simnet.kind_name(spec, simnet.FAULT_KINDS)}"
                    for rid, spec in faults) or "none"


def _print(lines: list[str], quiet: bool) -> None:
    if not quiet:
        sys.stdout.write("\n".join(lines) + "\n")


def _run_report(scenario_path: str, cfg: ScenarioConfig, trace: Trace,
                digest: str, safety: analysis.SafetyReport,
                metrics: analysis.MetricsReport) -> list[str]:
    p = cfg.protocol
    lines = [
        "command: run",
        f"scenario: {scenario_path}",
        f"n: {p.n}",
        f"f: {p.f}",
        f"variant: {p.variant}",
        f"pacemaker: {p.pacemaker}",
        f"timeout_duration: {p.timeout_duration}",
        f"leader_rotation_period: {p.leader_rotation_period}",
        f"seed: {p.run_seed}",
        f"horizon: {cfg.horizon}",
        f"coin_prf: {trace.meta['prf']}",
        f"genesis_id: {trace.meta['genesis_id']}",
        f"adversary: {_render_model(cfg.adversary.model)}",
        f"faults: {_render_faults(cfg.adversary.faults)}",
        f"trace_digest: {digest}",
        f"undelivered_at_horizon: {trace.meta['undelivered']}",
    ]
    metric_dict = metrics.to_dict()
    lines += [f"{key}: {json.dumps(value) if isinstance(value, dict) else value}"
              for key, value in metric_dict.items()]
    lines += safety.lines()
    return lines


def _inject_conflicting_commit(trace: Trace) -> None:
    """Test hook: plant a commit with no supporting evidence so the safety
    checker (and exit code 1 path) can be exercised end to end."""
    honest = sorted(r for r, s in (
        (i, trace.adversary.fault_of(i)) for i in range(trace.protocol.n))
        if isinstance(s, (Honest, Crash)))
    rid = honest[0] if honest else 0
    trace.records.append({"t": trace.horizon, "q": 10 ** 9, "kind": "commit",
                          "rid": rid, "blocks": ["0" * 32], "log_len": 0})


def cmd_run(args) -> int:
    cfg = parse_scenario(args.config)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    if args.horizon is not None:
        cfg = replace(cfg, horizon=args.horizon)
    out_dir = args.out or cfg.out_dir
    trace = simnet.run(cfg.protocol, cfg.adversary, cfg.horizon)
    if cfg.inject_conflicting_commit:
        _inject_conflicting_commit(trace)
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


def cmd_sweep(args) -> int:
    cfg = parse_scenario(args.config)
    seeds = parse_int_list(args.seeds) if args.seeds else (
        cfg.sweep_seeds or cfg.seeds)
    n_values = cfg.sweep_n or [cfg.protocol.n]
    out_dir = args.out or cfg.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    lines = ["command: sweep",
             f"scenario: {args.config}",
             f"seeds: {','.join(map(str, seeds))}",
             f"n_values: {','.join(map(str, n_values))}"]
    all_ok = True
    mean_mpc: list[tuple[int, float]] = []
    for n in n_values:
        f = (n - 1) // 3
        protocol = replace(cfg.protocol, n=n, f=f)
        protocol.validate()
        runs = []
        for seed in seeds:
            pconf = replace(protocol, run_seed=seed)
            trace = simnet.run(pconf, cfg.adversary, cfg.horizon)
            idx = analysis.index(trace)
            safety = analysis.check_safety(trace, idx)
            metrics = analysis.measure(trace, idx)
            all_ok = all_ok and safety.ok
            runs.append(metrics)
            if out_dir:
                trace.to_jsonl(os.path.join(out_dir,
                                            f"sweep-n{n}-seed{seed}.trace.jsonl"))
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
    if len(mean_mpc) >= 2:
        xs = [x for x, _ in mean_mpc]
        ys = [y for _, y in mean_mpc]
        (slope, intercept), r2 = analysis.fit_polynomial(xs, ys, 1)
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
    trace, recomputed = Trace.scan_jsonl(args.trace)
    got = simnet.run(trace.protocol, trace.adversary, trace.horizon).digest()
    # All three must agree: header digest, digest over the bytes as stored,
    # and the digest of a fresh deterministic re-run.
    match = got == trace.stored_digest == recomputed
    lines = [f"trace: {args.trace}",
             f"embedded_digest: {trace.stored_digest}",
             f"recomputed_digest: {recomputed}",
             f"replayed_digest: {got}",
             f"replay: {'match' if match else 'MISMATCH'}"]
    _print(lines, args.quiet)
    return 0 if match else 1


def cmd_check(args) -> int:
    trace = Trace.from_jsonl(args.trace)
    safety = analysis.check_safety(trace)
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
    except FileNotFoundError as exc:
        sys.stderr.write(f"missing file: {exc}\n")
        return 2
    except simnet.TraceFormatError as exc:
        sys.stderr.write(f"trace error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
