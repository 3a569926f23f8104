"""Command-line harness: subcommands, exit codes, artifacts, reports."""

import json
import subprocess
import sys

import pytest

from bftsim import cli

STEADY = """
[protocol]
n = 4
f = 1
variant = three_chain
pacemaker = async_fallback
timeout_duration = 50

[adversary]
model = synchronous
delta = 1

[run]
horizon = 240
seed = 7
"""

SWEEP = STEADY + """
[sweep]
n_values = 4, 7
seeds = 1..2
"""


def write(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_cli(*argv):
    return cli.main(list(argv))


# --- run ----------------------------------------------------------------------


def test_run_clean_exit_zero_with_artifacts(tmp_path, capsys):
    cfg = write(tmp_path, STEADY)
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    for needle in ("n: 4", "variant: three_chain", "safety: ok",
                   "commits_total: 118", "trace_digest:", "generated_at:"):
        assert needle in stdout
    trace_file = out / "run-seed7.trace.jsonl"
    report_file = out / "run-seed7.report.txt"
    assert trace_file.exists() and report_file.exists()
    header = json.loads(trace_file.read_text().splitlines()[0])
    assert header["format"] == "bftsim-trace-v2"
    assert "safety: ok" in report_file.read_text()


def test_run_overrides_seed_and_horizon(tmp_path, capsys):
    cfg = write(tmp_path, STEADY)
    assert run_cli("run", "--config", cfg, "--seed", "9",
                   "--horizon", "120") == 0
    stdout = capsys.readouterr().out
    assert "seed: 9" in stdout
    assert "horizon: 120" in stdout


def test_run_quiet_silences_stdout(tmp_path, capsys):
    cfg = write(tmp_path, STEADY)
    assert run_cli("run", "--config", cfg, "--quiet") == 0
    assert capsys.readouterr().out == ""


def test_run_report_is_deterministic_up_to_timestamp(tmp_path, capsys):
    cfg = write(tmp_path, STEADY)
    run_cli("run", "--config", cfg)
    first = capsys.readouterr().out.splitlines()
    run_cli("run", "--config", cfg)
    second = capsys.readouterr().out.splitlines()
    assert first[-1].startswith("generated_at:")
    assert second[-1].startswith("generated_at:")
    assert first[:-1] == second[:-1]


def test_run_injected_conflict_exits_one(tmp_path, capsys):
    cfg = write(tmp_path, STEADY + "inject_conflicting_commit = true\n")
    assert run_cli("run", "--config", cfg) == 1
    stdout = capsys.readouterr().out
    assert "safety: VIOLATION" in stdout
    assert "violation:" in stdout


def test_run_bad_configs_exit_two(tmp_path, capsys):
    bad_n = write(tmp_path, STEADY.replace("n = 4", "n = 5"), "bad_n.ini")
    assert run_cli("run", "--config", bad_n) == 2
    assert "config error" in capsys.readouterr().err

    unknown = write(tmp_path, STEADY.replace("delta = 1", "warp = 9"),
                    "unknown.ini")
    assert run_cli("run", "--config", unknown) == 2

    assert run_cli("run", "--config", str(tmp_path / "missing.ini")) == 2


def test_run_malformed_crash_tick_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, STEADY.replace("delta = 1",
                                         "delta = 1\nfaults = 0:crash@soon"))
    assert run_cli("run", "--config", cfg) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        cli.main(["run"])  # --config is required
    assert err.value.code == 2


# --- replay -------------------------------------------------------------------


def make_trace(tmp_path):
    cfg = write(tmp_path, STEADY)
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", str(out), "--quiet") == 0
    return out / "run-seed7.trace.jsonl"


def test_replay_match_exits_zero(tmp_path, capsys):
    trace = make_trace(tmp_path)
    assert run_cli("replay", str(trace)) == 0
    stdout = capsys.readouterr().out
    assert "replay: match" in stdout


def test_replay_detects_tampered_record(tmp_path, capsys):
    trace = make_trace(tmp_path)
    lines = trace.read_text().splitlines()
    assert '"p0-r1-v0"' in lines[1]
    lines[1] = lines[1].replace('"p0-r1-v0"', '"p9-r1-v0"')
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    assert run_cli("replay", str(tampered)) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_replay_detects_tampered_header(tmp_path, capsys):
    trace = make_trace(tmp_path)
    lines = trace.read_text().splitlines()
    header = json.loads(lines[0])
    header["digest"] = "0" * 64
    lines[0] = json.dumps(header, sort_keys=True)
    tampered = tmp_path / "hdr.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    assert run_cli("replay", str(tampered)) == 1


def test_replay_missing_file_exits_two(tmp_path):
    assert run_cli("replay", str(tmp_path / "absent.jsonl")) == 2


def rewrite(tmp_path, lines, name="bad.jsonl"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def assert_trace_error(capsys, path, commands=("check", "replay")):
    for command in commands:
        assert run_cli(command, path) == 2, command
        captured = capsys.readouterr()
        assert captured.err.startswith("trace error:"), command
        assert "match" not in captured.out.lower()


def test_truncated_trace_exits_two(tmp_path, capsys):
    data = make_trace(tmp_path).read_bytes()
    cut_record = tmp_path / "cut_record.jsonl"
    cut_record.write_bytes(data[:len(data) // 2])
    assert_trace_error(capsys, str(cut_record))
    cut_header = tmp_path / "cut_header.jsonl"
    cut_header.write_bytes(data[:40])
    assert_trace_error(capsys, str(cut_header))
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    assert_trace_error(capsys, str(empty))


def test_trace_header_missing_fields_exits_two(tmp_path, capsys):
    lines = make_trace(tmp_path).read_text().splitlines()
    for field, value in (("protocol", None), ("digest", None),
                         ("format", "bftsim-trace-v1")):
        header = json.loads(lines[0])
        if value is None:
            del header[field]
        else:
            header[field] = value
        path = rewrite(tmp_path, [json.dumps(header)] + lines[1:])
        assert_trace_error(capsys, path)


def test_bad_record_lines_exit_two_on_check(tmp_path, capsys):
    lines = make_trace(tmp_path).read_text().splitlines()
    first_sq = next(k for k, line in enumerate(lines)
                    if '"sq":' in line)
    unknown_kind = json.loads(lines[1])
    unknown_kind["kind"] = "teleport"
    dangling = json.loads(lines[first_sq])
    dangling["sq"] = 10 ** 9
    for k, line in ((1, "{not json"), (1, json.dumps(unknown_kind)),
                    (first_sq, json.dumps(dangling))):
        path = rewrite(tmp_path, lines[:k] + [line] + lines[k + 1:])
        assert_trace_error(capsys, path, ("check",))
        # replay hashes the stored bytes without decoding them: changed
        # record bytes under an intact header are a mismatch
        assert run_cli("replay", path) == 1
        assert "MISMATCH" in capsys.readouterr().out


# --- check --------------------------------------------------------------------


def test_check_clean_trace_exits_zero(tmp_path, capsys):
    trace = make_trace(tmp_path)
    assert run_cli("check", str(trace)) == 0
    assert "safety: ok" in capsys.readouterr().out


def test_check_flags_forged_commit(tmp_path, capsys):
    trace = make_trace(tmp_path)
    forged = json.dumps({"t": 239, "q": 10 ** 9, "kind": "commit", "rid": 0,
                         "blocks": ["f" * 32], "log_len": 999})
    with open(trace, "a") as fh:
        fh.write(forged + "\n")
    assert run_cli("check", str(trace)) == 1
    assert "violation" in capsys.readouterr().out


# --- sweep --------------------------------------------------------------------


def test_sweep_grid_with_linear_fit(tmp_path, capsys):
    cfg = write(tmp_path, SWEEP)
    out = tmp_path / "sweepout"
    assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "n=4" in stdout and "n=7" in stdout
    assert "mean_messages=720.0" in stdout
    assert "mean_messages=1440.0" in stdout
    fit = [l for l in stdout.splitlines()
           if l.startswith("fit_messages_per_commit_vs_n")]
    assert len(fit) == 1
    assert "r2=1.000000" in fit[0]
    summary = out / "sweep-summary.txt"
    assert summary.exists()
    assert "safety: ok" in summary.read_text()
    assert (out / "sweep-n4-seed1.trace.jsonl").exists()
    assert (out / "sweep-n7-seed2.trace.jsonl").exists()


def test_sweep_seeds_override(tmp_path, capsys):
    cfg = write(tmp_path, SWEEP)
    assert run_cli("sweep", "--config", cfg, "--seeds", "5..6") == 0
    assert "seeds: 5,6" in capsys.readouterr().out


def test_sweep_malformed_seeds_exit_two(tmp_path, capsys):
    cfg = write(tmp_path, SWEEP)
    for seeds in ("1..x", "x..3", ","):
        assert run_cli("sweep", "--config", cfg, "--seeds", seeds) == 2
        assert capsys.readouterr().err.startswith("config error:")


# --- packaging ----------------------------------------------------------------


def test_module_entry_point_runs(tmp_path):
    cfg = write(tmp_path, STEADY)
    proc = subprocess.run(
        [sys.executable, "-m", "bftsim.cli", "run", "--config", cfg,
         "--horizon", "60"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "safety: ok" in proc.stdout
