"""Command-line harness: subcommands, exit codes, artifacts, reports."""

import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from bftsim import cli, simnet
from bftsim.replica import ReplicaConfig

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

# every proposal arrives after the timeout, so every view runs the fallback
STARVED = STEADY.replace("synchronous\ndelta = 1", "asynchronous\n"
                         "base_delay = 1..8\ndelay_proposal = 60..120")

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


def test_run_reports_every_protocol_field(tmp_path, capsys):
    cfg = write(tmp_path, STEADY.replace(
        "timeout_duration = 50",
        "timeout_duration = 50\nadopt_foreign_fchains = true"))
    assert run_cli("run", "--config", cfg) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:10] == [
        "n: 4", "f: 1", "variant: three_chain", "pacemaker: async_fallback",
        "timeout_duration: 50", "leader_rotation_period: 4",
        "adopt_foreign_fchains: True", "seed: 7"]
    keys = {line.partition(": ")[0] for line in lines}
    assert {f.name for f in fields(ReplicaConfig)} - {"run_seed"} <= keys


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


def test_run_injected_conflict_exits_one(tmp_path, capsys, monkeypatch):
    # plant a commit with no supporting evidence in the simulated trace
    real_run = simnet.run

    def run_with_conflict(*args):
        trace = real_run(*args)
        trace.records.append({"t": trace.horizon, "q": 10 ** 9,
                              "kind": "commit", "rid": 0,
                              "blocks": ["0" * 32], "log_len": 0})
        return trace

    monkeypatch.setattr(simnet, "run", run_with_conflict)
    cfg = write(tmp_path, STEADY)
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


@pytest.mark.parametrize("model", [
    "synchronous\ndelta = 0",
    "partial_synchrony\ngst = 50\npre_gst_delay_bound = 0",
    "partial_synchrony\ngst = 50\ndelta = 0",
    "asynchronous\nbase_delay = 5..1",
    "asynchronous\ndelay_proposal = 5..1",
])
def test_run_bad_delay_range_exits_two(tmp_path, capsys, model):
    cfg = write(tmp_path, STEADY.replace("synchronous\ndelta = 1", model))
    assert run_cli("run", "--config", cfg) == 2
    assert capsys.readouterr().err.startswith("config error: bad delay range")


def test_run_reports_adversary_as_scenario_keys(tmp_path, capsys):
    cfg = write(tmp_path, STEADY.replace(
        "synchronous\ndelta = 1",
        "asynchronous\nbase_delay = 1..8\ndelay_proposal = 60..120\n"
        "faults = 3:crash@100"))
    assert run_cli("run", "--config", cfg, "--horizon", "60") == 0
    lines = capsys.readouterr().out.splitlines()
    assert "adversary: asynchronous base_delay=1..8 delay_proposal=60..120" \
        in lines
    assert "faults: 3:crash@100" in lines


def test_readme_scenario_runs(tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = write(tmp_path, example)
    assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "out"),
                   "--quiet") == 0


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        cli.main(["run"])  # --config is required
    assert err.value.code == 2


# --- replay -------------------------------------------------------------------


def make_trace(tmp_path, text=STEADY):
    cfg = write(tmp_path, text)
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


def test_unusable_paths_exit_two(tmp_path, capsys):
    cfg = write(tmp_path, STEADY)
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in (("check", str(tmp_path)), ("replay", str(tmp_path)),
                 ("run", "--config", cfg, "--out", str(taken), "--quiet")):
        assert run_cli(*argv) == 2, argv
        assert capsys.readouterr().err.startswith("file error:"), argv


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


def edit_header(tmp_path, edit):
    lines = make_trace(tmp_path).read_text().splitlines()
    header = json.loads(lines[0])
    edit(header)
    return rewrite(tmp_path, [json.dumps(header)] + lines[1:])


def test_trace_header_string_n_exits_two(tmp_path, capsys):
    path = edit_header(tmp_path, lambda h: h["protocol"].update(n="4"))
    assert_trace_error(capsys, path)


def test_trace_header_string_horizon_exits_two(tmp_path, capsys):
    path = edit_header(tmp_path, lambda h: h.update(horizon="x"))
    assert_trace_error(capsys, path)


def test_trace_header_bad_delay_range_exits_two(tmp_path, capsys):
    path = edit_header(tmp_path, lambda h: h.update(adversary={
        "model": "asynchronous", "base_delay": [5, 1], "per_variant": []}))
    assert_trace_error(capsys, path)


def edit_record(tmp_path, kind, edit, text=STEADY):
    """The trace of scenario ``text`` with its first ``kind`` record
    changed by ``edit``."""
    lines = make_trace(tmp_path, text).read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if f'"kind":"{kind}"' in line)
    rec = json.loads(lines[k])
    edit(rec)
    return rewrite(tmp_path, lines[:k] + [json.dumps(rec)] + lines[k + 1:])


def test_deliver_missing_fields_exits_two_on_check(tmp_path, capsys):
    for edit in (lambda r: r.pop("to"),
                 lambda r: (r.pop("m", None), r.pop("sq", None))):
        path = edit_record(tmp_path, "deliver", edit)
        assert_trace_error(capsys, path, ("check",))


def test_commit_blocks_not_a_list_exits_two_on_check(tmp_path, capsys):
    for blocks in (7, [7]):
        path = edit_record(tmp_path, "commit", lambda r: r.update(blocks=blocks))
        assert_trace_error(capsys, path, ("check",))


def test_message_field_of_wrong_type_exits_two_on_check(tmp_path, capsys):
    def parent(r):
        return r["m"]["block"]["parent"]
    # certificates of a kind their slot does not admit
    qc = {"kind": "qc", "block_id": "0" * 32, "round": 1, "view": 0,
          "signers": [0, 1, 2]}
    tc = {"kind": "tc", "round": 1, "signers": [0, 1, 2]}
    coin = {"kind": "coin", "view": 0, "elected": 1, "signers": [0, 1]}
    for text, kind, edit in (
            (STEADY, "proposal", lambda r: parent(r).update(block_id=5)),
            (STEADY, "proposal",
             lambda r: parent(r)["signers"].__setitem__(0, "0")),
            (STEADY, "vote", lambda r: r["m"].update(round="1")),
            (STEADY, "proposal", lambda r: r["m"]["block"].update(parent=tc)),
            (STEADY, "proposal",
             lambda r: r["m"]["block"].update(parent=coin)),
            (STARVED, "timeout", lambda r: r["m"].update(high_qc=tc)),
            (STARVED, "ftc_relay", lambda r: r["m"].update(ftc=qc))):
        path = edit_record(tmp_path, kind, edit, text)
        assert_trace_error(capsys, path, ("check",))


def test_bad_record_lines_exit_two_on_check(tmp_path, capsys):
    lines = make_trace(tmp_path).read_text().splitlines()
    first_sq = next(k for k, line in enumerate(lines)
                    if '"sq":' in line)
    unknown_kind = json.loads(lines[1])
    unknown_kind["kind"] = "teleport"
    dangling = json.loads(lines[first_sq])
    dangling["sq"] = 10 ** 9
    # a deliver from another sender than the send it names
    misrouted = json.loads(lines[first_sq])
    misrouted["frm"] = next(j for j in range(4)
                            if j not in (misrouted["frm"], misrouted["to"]))
    deliver = json.loads(lines[first_sq])
    for k, line in ((1, "{not json"), (1, json.dumps(unknown_kind)),
                    (first_sq, json.dumps(dangling)),
                    (first_sq, json.dumps(misrouted)),
                    # the writer formats each record from its kind's shape:
                    # an sq of another type or a key outside it is refused
                    (first_sq, json.dumps(dict(deliver,
                                               sq=float(deliver["sq"])))),
                    (first_sq, json.dumps(dict(deliver, sq=True))),
                    (1, json.dumps(dict(json.loads(lines[1]), zz=1)))):
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


def test_sweep_fits_only_distinct_sizes(tmp_path, capsys):
    cfg = write(tmp_path, SWEEP.replace("n_values = 4, 7", "n_values = 4, 4"))
    assert run_cli("sweep", "--config", cfg) == 0
    assert "fit_messages_per_commit_vs_n" not in capsys.readouterr().out


# --- packaging ----------------------------------------------------------------


def test_module_entry_point_runs(tmp_path):
    cfg = write(tmp_path, STEADY)
    proc = subprocess.run(
        [sys.executable, "-m", "bftsim.cli", "run", "--config", cfg,
         "--horizon", "60"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "safety: ok" in proc.stdout


def test_cli_import_leaves_numpy_out():
    # bftsim has no runtime dependencies; scipy (and numpy with it) is test-only
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bftsim.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
