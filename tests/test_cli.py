"""Command-line harness: subcommands, exit codes, artifacts, reports."""

import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bftsim import analysis, cli, crypto, scenario, simnet
from bftsim.core import GENESIS_ID, MAX_HORIZON, MAX_N
from bftsim.replica import Replica, ReplicaConfig

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
    assert set(ReplicaConfig._fields) - {"run_seed"} <= keys


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


# files that configparser itself refuses, and one that is not UTF-8
MALFORMED = {
    "no_header": b"n = 4\n" + SWEEP.encode(),
    "unclosed_section": SWEEP.replace("[adversary]", "[adversary").encode(),
    "repeated_key": SWEEP.replace("f = 1", "f = 1\nf = 1").encode(),
    "repeated_section": (SWEEP + "[run]\nhorizon = 10\n").encode(),
    "not_utf8": SWEEP.encode().replace(b"three_chain", b"three_\xffchain"),
}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_scenario_files_exit_two(tmp_path, capsys, name, command):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_bytes(MALFORMED[name])
    assert run_cli(command, "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot parse scenario file {cfg}: ")
    assert err.count("\n") == 1, err


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


def test_replay_of_another_header_prints_the_true_digest(tmp_path, capsys):
    # the hash starts from the stored header; a re-run that ends with
    # another undelivered count cannot match it, and is run once more
    original = make_trace(tmp_path)
    with open(original, "rb") as fh:
        stored = simnet.Trace.read_header(fh, str(original))
    true = simnet.run(stored.protocol, stored.adversary,
                      stored.horizon).digest()
    count = stored.meta["undelivered"]
    path = edit_header(tmp_path, lambda h: h.update(undelivered=count + 1))
    assert run_cli("replay", path) == 1
    out = capsys.readouterr().out
    assert f"replayed_digest: {true}\n" in out
    assert "replay: MISMATCH" in out
    # a count that is no int is no count a run writes
    for value in (None, float(count), str(count)):
        path = edit_header(tmp_path, lambda h: h.update(undelivered=value))
        assert_trace_error(capsys, path, says="undelivered is not int")


def test_replay_match_prints_five_lines(tmp_path, capsys):
    trace = make_trace(tmp_path)
    digest = json.loads(trace.read_text().split("\n", 1)[0])["digest"]
    assert run_cli("replay", str(trace)) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"trace: {trace}", f"embedded_digest: {digest}",
        f"recomputed_digest: {digest}", f"replayed_digest: {digest}",
        "replay: match"]


def replay_mismatch(capsys, path) -> list[str]:
    """What ``replay`` prints on a mismatch: the five lines, then where,
    the record there, and the file's and the run's line."""
    assert run_cli("replay", path) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 9 and out[4] == "replay: MISMATCH"
    return out


def what_differs(out: list[str]) -> list[str]:
    """The record, file and run lines of a mismatch, after the line number."""
    assert [line.partition(": ")[0] for line in out[6:]] == [
        "record", "file", "run"]
    return [line.partition(": ")[2] for line in out[6:]]


def test_replay_names_an_edited_record_line(tmp_path, capsys):
    lines = make_trace(tmp_path).read_text().splitlines()
    for no in (2, len(lines) // 2, len(lines)):
        edited = list(lines)
        # a well-formed edit: the record's tick, one later
        assert lines[no - 1].count('"t":') == 1
        t = json.loads(lines[no - 1])["t"]
        edited[no - 1] = lines[no - 1].replace(f'"t":{t}', f'"t":{t + 1}')
        out = replay_mismatch(capsys, rewrite(tmp_path, edited))
        assert out[5] == f"first_difference: line {no}"
        # a header digest forged to fit the edit names the same line
        header = dict(json.loads(lines[0]), digest=out[2].split(": ")[1])
        out = replay_mismatch(capsys, rewrite(
            tmp_path, [json.dumps(header), *edited[1:]]))
        assert out[1].split(": ")[1] == out[2].split(": ")[1]
        assert out[5] == f"first_difference: line {no}"
        # a key no record has is refused by both commands, with one text
        edited[no - 1] = lines[no - 1].replace('"t":', '"T":', 1)
        assert_trace_error(capsys, rewrite(tmp_path, edited),
                           says=f" line {no}: ")


def test_replay_names_where_the_shorter_side_ends(tmp_path, capsys):
    # the file lacks the run's last line, or the run lacks the file's
    lines = make_trace(tmp_path).read_text().splitlines()
    last = json.loads(lines[-1])
    owner = last[{"send": "frm", "deliver": "to"}.get(last["kind"], "rid")]
    record = f"{last['kind']}, replica {owner}"
    out = replay_mismatch(capsys, rewrite(tmp_path, lines[:-1]))
    assert out[5] == f"first_difference: line {len(lines)}"
    assert what_differs(out) == [record, "(end of file)", lines[-1][:120]]
    # a file cut at a line's end, long before the run's
    out = replay_mismatch(capsys, rewrite(tmp_path, lines[:3]))
    assert out[5] == "first_difference: line 4"
    assert what_differs(out)[1:] == ["(end of file)", lines[3][:120]]
    out = replay_mismatch(capsys, rewrite(tmp_path, lines + lines[-1:]))
    assert out[5] == f"first_difference: line {len(lines) + 1}"
    assert what_differs(out) == [record, lines[-1][:120], "(end of run)"]


@pytest.mark.parametrize("kind,owner,old,new", [
    ("send", "frm", '"frm":', '"frm":1'),
    ("commit", "rid", '"log_len":', '"log_len":1')])
def test_replay_shows_an_edited_record(kind, owner, old, new, tmp_path,
                                       capsys):
    lines = make_trace(tmp_path).read_text().splitlines()
    no, line = max((no, line) for no, line in enumerate(lines[1:], 2)
                   if json.loads(line)["kind"] == kind)
    edited = line.replace(old, new, 1)
    assert edited[:120] != line[:120]
    out = replay_mismatch(capsys, rewrite(
        tmp_path, lines[:no - 1] + [edited] + lines[no:]))
    assert out[5] == f"first_difference: line {no}"
    assert what_differs(out) == [
        f"{kind}, replica {json.loads(line)[owner]}", edited[:120],
        line[:120]]


def test_replay_names_the_header_line(tmp_path, capsys):
    path = make_trace(tmp_path)
    with open(path, "rb") as fh:
        count = simnet.Trace.read_header(fh, str(path)).meta["undelivered"]
    # each side shows the same window, around the first byte that differs:
    # undelivered ends the header, and the digest is within its first 80
    # characters, so that window is the header's start
    for edit, shown in ((lambda h: h.update(undelivered=count + 1),
                         f'"undelivered":{count + 1}}}'),
                        (lambda h: h.update(digest="0" * 64),
                         '{"adversary":{"delta":1,"model":"synchronous"},'
                         '"digest":"0000')):
        out = replay_mismatch(capsys, edit_header(tmp_path, edit))
        assert out[5] == "first_difference: line 1"
        record, theirs, mine = what_differs(out)
        assert record == "header"
        assert shown in theirs and shown not in mine, (theirs, mine)


def test_replay_reads_a_pipe(tmp_path, capsys):
    data = make_trace(tmp_path).read_bytes()
    lines = data.splitlines(keepends=True)
    middle = len(lines) // 2
    malformed = b"".join([*lines[:middle],
                          lines[middle].replace(b'"t":', b'"T":', 1),
                          *lines[middle + 1:]])
    path = tmp_path / "t.jsonl"
    for text, code in ((data, 0), (data[:-1], 2), (malformed, 2)):
        err = {}
        for command in ("replay", "check"):
            proc = subprocess.run(
                [sys.executable, "-m", "bftsim.cli", command, "/dev/stdin"],
                input=text, capture_output=True, timeout=60)
            assert proc.returncode == code, (command, proc.stderr)
            err[command] = proc.stderr
        # replay refuses a pipe with the text check prints
        assert err["replay"] == err["check"]
        # what the same bytes give as a file, named /dev/stdin
        path.write_bytes(text)
        assert run_cli("check", str(path)) == code
        captured = capsys.readouterr()
        assert (proc.stdout.decode(), proc.stderr.decode()) == (
            captured.out.replace(str(path), "/dev/stdin"),
            captured.err.replace(str(path), "/dev/stdin"))


def test_replay_refuses_a_bad_file_before_simulating(tmp_path, capsys,
                                                     monkeypatch):
    data = make_trace(tmp_path).read_bytes()
    bad_header = edit_header(tmp_path, lambda h: h.update(horizon="x"))
    cut = tmp_path / "cut.jsonl"
    cut.write_bytes(data[:len(data) // 2])

    def simulate(*args):
        raise AssertionError("simulated a trace it should refuse")
    monkeypatch.setattr(simnet.Simulation, "run", simulate)
    for path in (bad_header, str(cut)):
        assert_trace_error(capsys, path, ("replay",))


def check_a_pipe(data: bytes, *argv) -> int:
    """``check /dev/fd/N`` in this process, N a real pipe that a thread
    fills with ``data``."""
    r, w = os.pipe()

    def feed():
        with open(w, "wb") as fh:
            fh.write(data)
    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return run_cli("check", f"/dev/fd/{r}", *argv)
    finally:
        os.close(r)
        writer.join()


def test_check_and_replay_hold_no_trace(tmp_path):
    cfg = write(tmp_path, STEADY.replace("horizon = 240", "horizon = 1000"))
    out = tmp_path / "out"
    assert run_cli("run", "--config", cfg, "--out", str(out), "--quiet") == 0
    path = str(out / "run-seed7.trace.jsonl")
    with open(path, "rb") as fh:
        stored = simnet.Trace.read_header(fh, path)

    def peak(work) -> int:
        tracemalloc.start()
        try:
            work()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    held_file = peak(lambda: simnet.Trace.from_jsonl(path))
    assert peak(lambda: run_cli("check", path, "--quiet")) < held_file / 2
    # a pipe is folded as it is read, as a file is
    data, codes = Path(path).read_bytes(), []
    assert peak(lambda: codes.append(check_a_pipe(data, "--quiet"))) < (
        held_file / 2)
    assert codes == [0]
    held = peak(lambda: simnet.run(stored.protocol, stored.adversary,
                                   stored.horizon))
    assert peak(lambda: run_cli("replay", path, "--quiet")) < held / 2
    # a header one count off: replay reads the file and runs again, for
    # the run's true digest, and holds neither
    lines = Path(path).read_text().splitlines()
    header = dict(json.loads(lines[0]), undelivered=(
        stored.meta["undelivered"] + 1))
    other = rewrite(tmp_path, [canonical(header), *lines[1:]])
    codes = []
    assert peak(lambda: codes.append(run_cli("replay", other,
                                             "--quiet"))) < held / 2
    assert codes == [1]


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


def assert_trace_error(capsys, path, commands=("check", "replay"), says=""):
    """Each command exits 2 with the same trace error, which says ``says``;
    returns it."""
    errors = set()
    for command in commands:
        assert run_cli(command, path) == 2, command
        captured = capsys.readouterr()
        assert captured.err.startswith("trace error:"), command
        assert says in captured.err, (command, captured.err)
        assert "match" not in captured.out.lower()
        errors.add(captured.err)
    assert len(errors) == 1, errors
    return captured.err


def test_truncated_trace_exits_two(tmp_path, capsys):
    data = make_trace(tmp_path).read_bytes()
    cut_record = tmp_path / "cut_record.jsonl"
    cut_record.write_bytes(data[:len(data) // 2])
    assert_trace_error(capsys, str(cut_record))
    cut_header = tmp_path / "cut_header.jsonl"
    cut_header.write_bytes(data[:40])
    assert_trace_error(capsys, str(cut_header))
    # every record whole, but the last line has lost its newline: check
    # names the line, and replay refuses the file too
    no_newline = tmp_path / "no_newline.jsonl"
    no_newline.write_bytes(data[:-1])
    last = data.count(b"\n")
    err = assert_trace_error(capsys, str(no_newline), ("check",),
                             says=f" line {last}: ")
    assert "truncated" in err, err
    assert_trace_error(capsys, str(no_newline), ("replay",),
                       says="last record line is truncated")
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


# header edits that no run writes, or that a run refuses before it starts,
# each as (edit, what the error says); both commands refuse them as they
# read the header
REFUSED_HEADERS = [
    (lambda h: h.update(horizon=-5), "precedes the first event"),
    (lambda h: h.update(horizon=0), "precedes the first event"),
    (lambda h: h["protocol"].update(n=5), "n must equal 3f+1"),
    (lambda h: h["protocol"].update(n=MAX_N + 1, f=MAX_N // 3),
     f"exceeds MAX_N={MAX_N}"),
    (lambda h: h["protocol"].update(variant="four_chain"), "unknown variant"),
    (lambda h: h.update(faults={"9": {"fault": "mute_leader"}}),
     "unknown replica 9"),
    # replay would re-simulate to the horizon before comparing digests
    (lambda h: h.update(horizon=MAX_HORIZON + 1),
     f"exceeds MAX_HORIZON={MAX_HORIZON}"),
    # another program's block ids or coin
    (lambda h: h.update(genesis_id="00"), f"is not {GENESIS_ID!r}"),
    (lambda h: h.update(prf="sha512-mod"), f"is not {crypto.PRF_ID!r}"),
    # a delay range of three numbers
    (lambda h: h.update(adversary={"model": "asynchronous",
                                   "base_delay": [1, 2, 3],
                                   "per_variant": []}),
     "base_delay is not"),
    # a fault under an id that int() reads as a replica's, but a run
    # never writes
    *((lambda h, rid=rid: h.update(faults={rid: {"fault": "mute_leader"}}),
       f"faults.{rid} is not None but {{'fault': 'mute_leader'}}")
      for rid in ("01", " 0", "+0", "0_0")),
    # a key that no run writes, or one that it does not leave out
    (lambda h: h.update(zz=1), "zz is not None but 1"),
    (lambda h: h.pop("undelivered"), "KeyError('undelivered')"),
    (lambda h: h["protocol"].pop("leader_rotation_period"),
     "protocol.leader_rotation_period is not 4 but None"),
    # a count that is no int, or a digest that is no string
    (lambda h: h.update(undelivered="0"), "undelivered is not int"),
    (lambda h: h.update(undelivered=0.0), "undelivered is not int"),
    (lambda h: h.update(digest=5), "digest not str"),
    # a delay for an unknown message variant, and delays out of order
    (lambda h: h.update(adversary={"model": "asynchronous",
                                   "base_delay": [1, 8],
                                   "per_variant": [["zz", [1, 2]]]}),
     "unknown key 'delay_zz' in [adversary] asynchronous"),
    (lambda h: h.update(adversary={"model": "asynchronous",
                                   "base_delay": [1, 8],
                                   "per_variant": [["vote", [1, 2]],
                                                   ["proposal", [3, 4]]]}),
     "adversary.per_variant is not [['proposal', [3, 4]], ['vote', [1, 2]]]"
     " but [['vote', [1, 2]], ['proposal', [3, 4]]]"),
]


@pytest.mark.parametrize("edit,says", REFUSED_HEADERS)
def test_check_and_replay_refuse_the_same_headers(tmp_path, capsys, edit,
                                                  says):
    assert_trace_error(capsys, edit_header(tmp_path, edit), says=says)


WORKLOAD_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"


@pytest.fixture(scope="module")
def workload_traces(tmp_path_factory):
    """The trace that ``run`` writes for each benchmark workload."""
    out = tmp_path_factory.mktemp("workloads")
    for name in ("steady_long", "starved_fallback", "byzantine_sweep"):
        assert cli.main(["run", "--config",
                         str(WORKLOAD_DIR / f"{name}.scenario"),
                         "--out", str(out / name), "--quiet"]) == 0
    return {name.name: name / "run-seed1.trace.jsonl"
            for name in out.iterdir()}


def header_edits(value, path=()):
    """("delete", path) for each key of a header, at the top level or in
    ``protocol``, ``adversary`` or a fault, and ("string", path) for each
    of its scalars that is no string."""
    if isinstance(value, dict):
        for key, item in value.items():
            if path != ("faults",):  # a fault id names a whole fault
                yield "delete", path + (key,)
            yield from header_edits(item, path + (key,))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from header_edits(item, path + (k,))
    elif not isinstance(value, str):
        yield "string", path


@pytest.mark.parametrize("name", ["steady_long", "starved_fallback",
                                  "byzantine_sweep"])
def test_check_and_replay_refuse_a_workload_header_one_key_off(
        name, workload_traces, tmp_path, capsys):
    path = str(workload_traces[name])
    assert run_cli("check", path, "--quiet") == 0
    assert run_cli("replay", path, "--quiet") == 0
    # the header is refused before any record is read
    text, *records = workload_traces[name].read_text().splitlines()[:20]
    edits = list(header_edits(json.loads(text)))
    assert {path[0] for how, path in edits if how == "delete"} == set(
        json.loads(text))
    for how, path in edits:
        header = json.loads(text)
        *outer, last = path
        inner = header
        for key in outer:
            inner = inner[key]
        if how == "delete":
            del inner[last]
        else:  # 4 as "4", false as "false"
            inner[last] = json.dumps(inner[last])
        assert_trace_error(capsys, rewrite(tmp_path, [canonical(header),
                                                      *records]),
                           says="bad header")


def test_replay_shows_the_bytes_that_differ(workload_traces, tmp_path,
                                            capsys):
    # steady_long: undelivered ends the header, and a send's tick t comes
    # just before its line's last two fields, both far past the first 120
    # characters
    lines = workload_traces["steady_long"].read_text().splitlines()
    header = json.loads(lines[0])
    count = header["undelivered"]
    header["undelivered"] = count + 1
    send = lines[1]
    rec = json.loads(send)
    t, tail = rec["t"], f',"to":{rec["to"]},"u":{rec["u"]}}}'
    assert len(send) > 200 and send.endswith(f'"t":{t}{tail}')
    for edited, no, theirs, mine in (
            ([canonical(header), *lines[1:]], 1,
             f'"undelivered":{count + 1}}}', f'"undelivered":{count}}}'),
            ([lines[0], send.removesuffix(f"{t}{tail}") + f"{t + 1}{tail}",
              *lines[2:]], 2,
             f'"t":{t + 1}{tail}', f'"t":{t}{tail}')):
        out = replay_mismatch(capsys, rewrite(tmp_path, edited))
        assert out[5] == f"first_difference: line {no}"
        _, file_side, run_side = what_differs(out)
        assert file_side.startswith("...") and file_side.endswith(theirs)
        assert run_side.startswith("...") and run_side.endswith(mine)


def test_a_record_integer_of_minus_zero_is_refused(workload_traces, tmp_path,
                                                   capsys):
    # steady_long's line 2 is at tick 0; both commands refuse -0 there
    lines = workload_traces["steady_long"].read_text().splitlines()
    assert '"t":0,' in lines[1]
    path = rewrite(tmp_path, [lines[0], lines[1].replace('"t":0,', '"t":-0,'),
                              *lines[2:]])
    assert_trace_error(capsys, path, says=" line 2: ")


def test_a_send_whose_u_is_not_its_size_is_refused(workload_traces, tmp_path,
                                                  capsys):
    # steady_long's line 2 is a send; a run writes no other u, so both
    # commands refuse one more
    lines = workload_traces["steady_long"].read_text().splitlines()
    u = json.loads(lines[1])["u"]
    path = rewrite(tmp_path, [lines[0], lines[1].removesuffix(f"{u}}}")
                              + f"{u + 1}}}", *lines[2:]])
    assert_trace_error(capsys, path, says=" line 2: ")


def test_run_refuses_n_past_the_cap(tmp_path, capsys):
    # refused before any replica is built
    cfg = write(tmp_path, STEADY.replace("n = 4\nf = 1",
                                         f"n = {MAX_N + 1}\nf = {MAX_N // 3}"))
    assert run_cli("run", "--config", cfg) == 2
    assert f"exceeds MAX_N={MAX_N}" in capsys.readouterr().err


def test_run_and_sweep_refuse_a_horizon_past_the_cap(tmp_path, capsys):
    says = f"config error: horizon {MAX_HORIZON + 1} exceeds MAX_HORIZON"
    assert run_cli("run", "--config", write(tmp_path, STEADY),
                   "--horizon", str(MAX_HORIZON + 1)) == 2
    assert capsys.readouterr().err.startswith(says)
    far = SWEEP.replace("horizon = 240", f"horizon = {MAX_HORIZON + 1}")
    assert run_cli("sweep", "--config", write(tmp_path, far)) == 2
    assert capsys.readouterr().err.startswith(says)


def test_replay_refuses_a_horizon_past_the_cap_at_once(tmp_path):
    # refused from the header, before a tick is simulated
    path = edit_header(tmp_path, lambda h: h.update(horizon=MAX_HORIZON + 1))
    proc = subprocess.run([sys.executable, "-m", "bftsim.cli", "replay", path],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr.startswith("trace error:")


# a record line is its shape's canonical line: sorted keys, no spaces
canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
NOT_CANONICAL = "not a record shape's canonical line"


def edit_record(tmp_path, kind, edit, text=STEADY):
    """The trace of scenario ``text`` with its first ``kind`` record
    changed by ``edit`` and written back canonically."""
    lines = make_trace(tmp_path, text).read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if f'"kind":"{kind}"' in line)
    rec = json.loads(lines[k])
    edit(rec)
    return rewrite(tmp_path, lines[:k] + [canonical(rec)] + lines[k + 1:])


def test_deliver_missing_fields_exits_two_on_check(tmp_path, capsys):
    for edit in (lambda r: r.pop("to"),
                 lambda r: (r.pop("m", None), r.pop("sq", None))):
        path = edit_record(tmp_path, "deliver", edit)
        assert_trace_error(capsys, path, ("check",), NOT_CANONICAL)


def test_commit_blocks_not_a_list_exits_two_on_check(tmp_path, capsys):
    for blocks, says in ((7, NOT_CANONICAL),
                         ([7], "commit blocks must be ids")):
        path = edit_record(tmp_path, "commit", lambda r: r.update(blocks=blocks))
        assert_trace_error(capsys, path, ("check",), says)


def test_message_field_of_wrong_type_exits_two_on_check(tmp_path, capsys):
    def parent(r):
        return r["m"]["block"]["parent"]
    # certificates of a kind their slot does not admit
    qc = {"kind": "qc", "block_id": "0" * 32, "round": 1, "view": 0,
          "signers": [0, 1, 2]}
    tc = {"kind": "tc", "round": 1, "signers": [0, 1, 2]}
    coin = {"kind": "coin", "view": 0, "elected": 1, "signers": [0, 1]}
    for text, kind, edit, says in (
            (STEADY, "proposal", lambda r: parent(r).update(block_id=5),
             "certificate fields hold"),
            (STEADY, "proposal",
             lambda r: parent(r)["signers"].__setitem__(0, "0"),
             "are not ids"),
            (STEADY, "vote", lambda r: r["m"].update(round="1"),
             "message fields hold"),
            (STEADY, "proposal", lambda r: r["m"]["block"].update(parent=tc),
             "certificate slot holds {'kind': 'tc'"),
            (STEADY, "proposal",
             lambda r: r["m"]["block"].update(parent=coin),
             "certificate slot holds {'elected'"),
            (STARVED, "timeout", lambda r: r["m"].update(high_qc=tc),
             "certificate slot holds {'kind': 'tc'"),
            (STARVED, "ftc_relay", lambda r: r["m"].update(ftc=qc),
             "certificate slot holds {'block_id'")):
        path = edit_record(tmp_path, kind, edit, text)
        assert_trace_error(capsys, path, ("check",), says)


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
    # a self-delivery's message handed to another replica, with no send
    first_self = next(k for k, line in enumerate(lines)
                      if '"kind":"deliver","m":' in line)
    self_delivery = json.loads(lines[first_self])
    self_delivery.update(self=False, to=(self_delivery["to"] + 1) % 4)
    first_send = next(k for k, line in enumerate(lines)
                      if '"kind":"send"' in line)
    send = json.loads(lines[first_send])
    teleport = dict(send, m=dict(send["m"], kind="teleport"))
    for k, line, says in (
            (1, "{not json", NOT_CANONICAL),
            (1, canonical(unknown_kind), NOT_CANONICAL),
            (first_sq, canonical(dangling), "no send for sq"),
            (first_sq, canonical(misrouted), "deliver disagrees"),
            # the writer formats each record from its kind's shape: an sq
            # of another type or a key outside it is refused
            (first_sq, canonical(dict(deliver, sq=float(deliver["sq"]))),
             NOT_CANONICAL),
            (first_sq, canonical(dict(deliver, sq=True)), NOT_CANONICAL),
            # a deliver by sq is never a self-delivery, and only a
            # self-delivery carries m
            (first_sq, canonical(dict(deliver, self=True)),
             "deliver disagrees"),
            (first_self, canonical(self_delivery), "must be to itself"),
            (first_send, canonical(teleport),
             "unknown message kind: 'teleport'"),
            (1, canonical(dict(json.loads(lines[1]), zz=1)), NOT_CANONICAL)):
        path = rewrite(tmp_path, lines[:k] + [line] + lines[k + 1:])
        # check has folded the lines before it, and names the bad one;
        # replay reads a file that differs from its run as check does
        err = assert_trace_error(capsys, path, says=says)
        assert f" line {k + 1}: " in err, err


def test_other_spellings_inside_a_message_or_commit_exit_two(tmp_path,
                                                             capsys):
    # the steady_long workload at seed 1: each edit below keeps the line
    # valid JSON of the right types, so only a canonical check refuses it
    steady_long = STEADY.replace("horizon = 240\nseed = 7",
                                 "horizon = 3000\nseed = 1")
    cfg = write(tmp_path, steady_long)
    assert run_cli("run", "--config", cfg, "--out", str(tmp_path / "out"),
                   "--quiet") == 0
    lines = (tmp_path / "out" / "run-seed1.trace.jsonl").read_text(
        ).splitlines()
    for old, new in (
            ('"kind":"proposal"', ' "kind":"proposal"'),  # a space in m
            ('"signers":[0,1,2,3]', '"signers":[3,2,1,0]'),
            ('"signers":[0,1,2]', '"signers":[0,1,1,2]'),  # a repeated id
            ('"payload":["p', '"payload":["\\u0070'),  # a needless escape
            ('"blocks":["', '"blocks":[ "')):
        k = next(k for k, line in enumerate(lines) if old in line)
        path = rewrite(tmp_path, lines[:k] + [lines[k].replace(old, new, 1)]
                       + lines[k + 1:])
        err = assert_trace_error(capsys, path)
        assert f" line {k + 1}: " in err, (new, err)


# small traces, each with its kind of traffic: the happy path, every view
# through the fallback, and an equivocating leader under partial synchrony
SMALL = {"steady": STEADY.replace("horizon = 240", "horizon = 60"),
         "starved": STARVED.replace("horizon = 240", "horizon = 150"),
         "byzantine": STEADY.replace("synchronous\ndelta = 1",
                                     "partial_synchrony\ngst = 60\n"
                                     "delta = 2\npre_gst_delay_bound = 30\n"
                                     "faults = 0:equivocate")
                            .replace("horizon = 240", "horizon = 100")}


@pytest.fixture(scope="module")
def small_traces(tmp_path_factory):
    """The bytes of the trace ``run`` writes for each of SMALL."""
    out = tmp_path_factory.mktemp("small")
    traces = {}
    for name, text in SMALL.items():
        (out / f"{name}.ini").write_text(text)
        assert cli.main(["run", "--config", str(out / f"{name}.ini"),
                         "--out", str(out / name), "--quiet"]) == 0
        traces[name] = (out / name / "run-seed7.trace.jsonl").read_bytes()
    return traces


# one edit: a byte changed, a line deleted, duplicated or swapped with the
# next, or the file cut; each position is taken modulo the file's size
EDITS = (st.tuples(st.just("byte"), st.integers(0), st.integers(0, 255))
         | st.tuples(st.sampled_from(("delete", "duplicate", "swap", "cut")),
                     st.integers(0)))


def edited(data: bytes, how: str, at: int, byte: int = 0) -> bytes:
    if how == "byte":
        at %= len(data)
        return data[:at] + bytes([byte]) + data[at + 1:]
    if how == "cut":
        return data[:at % len(data)]
    lines = data.splitlines(keepends=True)
    k = at % len(lines)
    if how == "delete":
        del lines[k]
    elif how == "duplicate":
        lines.insert(k, lines[k])
    else:
        lines[k:k + 2] = lines[k:k + 2][::-1]
    return b"".join(lines)


def test_check_and_replay_refuse_the_same_edits(small_traces, tmp_path,
                                                capsys):
    # one reader judges a trace file for both commands: an edit that one
    # refuses, the other refuses with the same text
    path = str(tmp_path / "edited.jsonl")

    @settings(derandomize=True, database=None, max_examples=120,
              deadline=None)
    @given(st.sampled_from(sorted(small_traces)), EDITS)
    def search(name, edit):
        with open(path, "wb") as fh:
            fh.write(edited(small_traces[name], *edit))
        codes, errors = [], []
        for command in ("check", "replay"):
            codes.append(run_cli(command, path, "--quiet"))
            errors.append(capsys.readouterr().err)
        assert (codes[0] == 2) == (codes[1] == 2), (edit, codes, errors)
        assert codes[0] != 2 or errors[0] == errors[1], (edit, errors)
    search()


def test_json_nested_past_the_recursion_limit_exits_two(tmp_path, capsys):
    lines = make_trace(tmp_path).read_text().splitlines()
    deep = "[" * 100_000 + "]" * 100_000
    header = rewrite(tmp_path, ['{"x":%s}' % deep] + lines[1:])
    assert_trace_error(capsys, header, says="bad header")
    # a send's message and a commit's blocks
    for kind, key, value in (("send", "m", '{"x":%s}' % deep),
                             ("commit", "blocks", deep)):
        k = next(k for k, line in enumerate(lines)
                 if f'"kind":"{kind}"' in line)
        line = canonical(dict(json.loads(lines[k]), **{key: "@"}))
        path = rewrite(tmp_path, lines[:k] + [line.replace('"@"', value)]
                       + lines[k + 1:])
        err = assert_trace_error(capsys, path, ("check",), "RecursionError")
        assert f" line {k + 1}: " in err, err


# --- check --------------------------------------------------------------------


def test_check_clean_trace_exits_zero(tmp_path, capsys):
    trace = make_trace(tmp_path)
    assert run_cli("check", str(trace)) == 0
    assert "safety: ok" in capsys.readouterr().out


def test_check_reads_the_header_once(tmp_path, monkeypatch, capsys):
    trace = make_trace(tmp_path)
    spell, calls = scenario.respelled, []

    def respelled(*args):
        calls.append(args)
        return spell(*args)
    monkeypatch.setattr(scenario, "respelled", respelled)
    reports = []
    for check in (lambda: run_cli("check", str(trace)),
                  lambda: check_a_pipe(trace.read_bytes())):
        calls.clear()
        assert check() == 0
        assert len(calls) == 1
        reports.append(capsys.readouterr().out.split("\n", 1)[1])
    assert reports[0] == reports[1]  # all but the trace: line


def test_check_flags_forged_commit(tmp_path, capsys):
    trace = make_trace(tmp_path)
    forged = canonical({"t": 239, "q": 10 ** 9, "kind": "commit", "rid": 0,
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


# sweep's per-n, fit and safety lines, for three grids
SWEEPS = {
    "steady": (SWEEP, [
        "n=4 runs=2 mean_messages=720.0 mean_commits=118.0 "
        "mean_messages_per_commit=6.102",
        "n=7 runs=2 mean_messages=1440.0 mean_commits=118.0 "
        "mean_messages_per_commit=12.203",
        "fit_messages_per_commit_vs_n: slope=2.0339 intercept=-2.0339 "
        "r2=1.000000",
        "safety: ok"]),
    "starved": (STARVED + SWEEP[len(STEADY):], [
        "n=4 runs=2 mean_messages=309.5 mean_commits=4.0 "
        "mean_messages_per_commit=77.375",
        "n=7 runs=2 mean_messages=975.5 mean_commits=4.0 "
        "mean_messages_per_commit=243.875",
        "fit_messages_per_commit_vs_n: slope=55.5000 intercept=-144.6250 "
        "r2=1.000000",
        "safety: ok"]),
    # an equivocating leader under partial synchrony, over three sizes: the
    # means do not lie on a line, so the fit's rounding shows
    "byzantine": (SWEEP.replace("three_chain", "two_chain")
                  .replace("async_fallback", "baseline_tc")
                  .replace("synchronous\ndelta = 1",
                           "partial_synchrony\ngst = 120\ndelta = 2\n"
                           "pre_gst_delay_bound = 30\nfaults = 0:equivocate")
                  .replace("horizon = 240", "horizon = 300")
                  .replace("n_values = 4, 7", "n_values = 4, 7, 10"), [
        "n=4 runs=2 mean_messages=159.0 mean_commits=11.0 "
        "mean_messages_per_commit=14.455",
        "n=7 runs=2 mean_messages=517.0 mean_commits=22.0 "
        "mean_messages_per_commit=23.520",
        "n=10 runs=2 mean_messages=893.5 mean_commits=23.0 "
        "mean_messages_per_commit=38.848",
        "fit_messages_per_commit_vs_n: slope=4.0655 intercept=-2.8515 "
        "r2=0.978499",
        "safety: ok"])}


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_writes_what_run_writes(name, tmp_path, capsys):
    # sweep indexes records as it simulates, and holds them only for --out
    text, want = SWEEPS[name]
    cfg = write(tmp_path, text)
    out = tmp_path / "sweepout"
    summaries = []
    for argv in ((), ("--out", str(out))):
        assert run_cli("sweep", "--config", cfg, *argv) == 0
        summaries.append(capsys.readouterr().out.splitlines()[4:-1])
    assert summaries == [want] * 2
    for n in (4, 7):
        sized = write(tmp_path, text.replace("n = 4\nf = 1",
                                             f"n = {n}\nf = {(n - 1) // 3}"))
        for seed in (1, 2):
            run_out = tmp_path / f"run-n{n}"
            assert run_cli("run", "--config", sized, "--seed", str(seed),
                           "--out", str(run_out), "--quiet") == 0
            assert ((out / f"sweep-n{n}-seed{seed}.trace.jsonl").read_bytes()
                    == (run_out / f"run-seed{seed}.trace.jsonl").read_bytes())


def test_sweep_seeds_override(tmp_path, capsys):
    cfg = write(tmp_path, SWEEP)
    assert run_cli("sweep", "--config", cfg, "--seeds", "5..6") == 0
    assert "seeds: 5,6" in capsys.readouterr().out


def test_sweep_malformed_seeds_exit_two(tmp_path, capsys):
    cfg = write(tmp_path, SWEEP)
    for seeds in ("1..x", "x..3", ","):
        assert run_cli("sweep", "--config", cfg, "--seeds", seeds) == 2
        assert capsys.readouterr().err.startswith("config error:")


def test_sweep_refuses_a_range_past_the_cap(tmp_path, capsys, monkeypatch):
    def capped(*args):
        values = range(*args)
        assert len(values) <= scenario.MAX_RANGE, "a long range was built"
        return values
    monkeypatch.setattr(scenario, "range", capped, raising=False)
    too_long = "1..100000000000"
    cfg = write(tmp_path, SWEEP)
    assert run_cli("sweep", "--config", cfg, "--seeds", too_long) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and too_long in err, err
    cfg = write(tmp_path, SWEEP.replace("n_values = 4, 7",
                                        f"n_values = {too_long}"))
    assert run_cli("sweep", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and too_long in err, err


def test_sweep_fits_only_distinct_sizes(tmp_path, capsys):
    cfg = write(tmp_path, SWEEP.replace("n_values = 4, 7", "n_values = 4, 4"))
    assert run_cli("sweep", "--config", cfg) == 0
    assert "fit_messages_per_commit_vs_n" not in capsys.readouterr().out


def test_sweep_checks_the_whole_grid_before_any_run(tmp_path, capsys,
                                                   monkeypatch):
    # replica 5 exists at n=7 but not at n=4
    text = (SWEEP.replace("n = 4\nf = 1", "n = 7\nf = 2")
            .replace("delta = 1", "delta = 1\nfaults = 5:crash@100")
            .replace("n_values = 4, 7", "n_values = 7, 4"))
    cfg = write(tmp_path, text)

    def no_run(self, sink=None):
        raise AssertionError("a run started")
    monkeypatch.setattr(simnet.Simulation, "run", no_run)
    assert run_cli("sweep", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "unknown replica 5" in err


def test_a_negative_seed_is_refused_in_every_spelling(tmp_path, capsys,
                                                     monkeypatch):
    # random.Random(-3) draws seed 3's delays, so seed -3 is no new run
    def no_run(self, sink=None):
        raise AssertionError("a run started")
    monkeypatch.setattr(simnet.Simulation, "run", no_run)
    cfg = write(tmp_path, SWEEP)
    negative = write(tmp_path, SWEEP.replace("seed = 7", "seed = -3"),
                     "negative.ini")
    # --seeds -3..1 reads as an option to argparse, a usage error (exit 2)
    for argv in (("run", "--config", cfg, "--seed", "-3"),
                 ("run", "--config", negative),
                 ("sweep", "--config", cfg, "--seeds=-3..1"),
                 ("sweep", "--config", cfg, "--seeds=1,-3")):
        assert run_cli(*argv) == 2, argv
        assert capsys.readouterr().err == (
            "config error: seed must be >= 0, got -3\n"), argv
    monkeypatch.undo()
    trace = make_trace(tmp_path)
    lines = trace.read_text().splitlines(keepends=True)
    lines[0] = lines[0].replace('"run_seed":7', '"run_seed":-3')
    trace.write_text("".join(lines))
    assert run_cli("check", str(trace)) == 2
    err = capsys.readouterr().err
    assert err.startswith("trace error:") and "seed must be >= 0" in err


def cpus(monkeypatch, k):
    """Make sweep see ``k`` usable CPUs, whatever the machine has."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(k)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sweep_runs_a_repeated_point_once(tmp_path, capsys, monkeypatch):
    cpus(monkeypatch, 1)  # runs are counted in this process
    runs, writes = [], []
    real_run, real_write = simnet.run, simnet.Trace.to_jsonl

    def counted_run(config, *args):
        runs.append((config.n, config.run_seed))
        return real_run(config, *args)

    def counted_write(self, path):
        writes.append(path)
        return real_write(self, path)
    monkeypatch.setattr(simnet, "run", counted_run)
    monkeypatch.setattr(simnet.Trace, "to_jsonl", counted_write)

    def sweep(text, out):
        assert run_cli("sweep", "--config", write(tmp_path, text),
                       "--out", str(out)) == 0
        return capsys.readouterr().out.splitlines()[4:-1]

    # a point listed twice counts twice: each mean is its own value
    twice = [line.replace("runs=1", "runs=2") for line in sweep(
        SWEEP.replace("seeds = 1..2", "seeds = 1"), tmp_path / "once")]
    n4, _, _, safe = SWEEPS["steady"][1]
    for old, new, points, want in (
            ("n_values = 4, 7", "n_values = 4, 4", [(4, 1), (4, 2)],
             [n4, n4, safe]),
            ("seeds = 1..2", "seeds = 1,1", [(4, 1), (7, 1)], twice)):
        runs.clear()
        writes.clear()
        out = tmp_path / new[0]
        assert sweep(SWEEP.replace(old, new), out) == want
        assert runs == points
        assert writes == [str(out / f"sweep-n{n}-seed{seed}.trace.jsonl")
                          for n, seed in points]


def test_sweep_output_is_the_same_at_every_width(tmp_path, capsys,
                                                 monkeypatch):
    cfg = write(tmp_path, SWEEP)
    seen = []
    for k in (1, 2, 4):
        cpus(monkeypatch, k)
        out = tmp_path / f"cpus{k}"
        assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
        assert_no_child_left()
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[-1].startswith("generated_at:")
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        summary = files.pop("sweep-summary.txt").decode().splitlines()
        assert summary == stdout
        assert len(files) == 4
        seen.append((stdout[:-1], files))
    assert seen[0][0][4:] == SWEEPS["steady"][1]
    assert seen[1] == seen[0] and seen[2] == seen[0]


@pytest.mark.parametrize("k", (1, 2))
def test_sweep_exit_codes_hold_in_children(k, tmp_path, capsys, monkeypatch):
    cpus(monkeypatch, k)
    cfg = write(tmp_path, SWEEP)
    real_check = analysis.check_safety

    def violated(idx):
        report = real_check(idx)
        return report._replace(ok=False,
                               violations=[*report.violations, "planted"])
    with monkeypatch.context() as m:
        m.setattr(analysis, "check_safety", violated)
        assert run_cli("sweep", "--config", cfg) == 1
    assert_no_child_left()
    assert "safety: VIOLATION" in capsys.readouterr().out

    out = tmp_path / "out"
    first = out / "sweep-n4-seed1.trace.jsonl"
    real_run = simnet.run

    def unwritable(protocol, *args):
        # the first point fails before it simulates, so it has failed
        # long before the points beside it end and free a slot
        if (protocol.n, protocol.run_seed) == (4, 1):
            raise PermissionError(13, "planted", str(first))
        return real_run(protocol, *args)
    with monkeypatch.context() as m:
        m.setattr(simnet, "run", unwritable)
        assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 2
    assert_no_child_left()
    captured = capsys.readouterr()
    assert captured.err == f"file error: [Errno 13] planted: '{first}'\n"
    assert captured.out == ""
    # no run starts once one has failed: the last point never has a slot
    assert not (out / "sweep-n7-seed2.trace.jsonl").exists()


def test_sweep_child_that_dies_is_an_error(tmp_path, capsys, monkeypatch):
    cpus(monkeypatch, 2)
    parent = os.getpid()

    def die(idx):
        assert os.getpid() != parent, "the run is not in a child"
        os._exit(0)
    monkeypatch.setattr(analysis, "measure", die)
    assert run_cli("sweep", "--config", write(tmp_path, SWEEP)) == 2
    assert_no_child_left()
    err = capsys.readouterr().err
    assert err.startswith("file error: sweep run 1 ended without a result")


@pytest.mark.parametrize("k", [1, 2])
def test_an_internal_fault_exits_three(k, tmp_path, capsys, monkeypatch):
    # exit 1 is a verdict on the protocol, so a crash of bftsim is not one
    cpus(monkeypatch, k)

    def broken(self, msg, frm):
        raise RuntimeError("planted")
    monkeypatch.setattr(Replica, "handle_message", broken)
    for argv in (("run", "--config", write(tmp_path, STEADY)),
                 ("sweep", "--config", write(tmp_path, SWEEP))):
        assert run_cli(*argv) == 3, argv
        assert_no_child_left()
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert err[0] == "internal error: RuntimeError('planted')", argv
        # the traceback reaches the handler, also from a worker
        assert err[1] == "Traceback (most recent call last):", argv
        assert any("in broken" in line for line in err), argv


def test_sweep_forks_one_worker_per_cpu_not_one_per_point(tmp_path, capsys,
                                                         monkeypatch):
    cfg = write(tmp_path, SWEEP.replace("horizon = 240", "horizon = 60")
                .replace("seeds = 1..2", "seeds = 1..8"))
    cpus(monkeypatch, 1)
    assert run_cli("sweep", "--config", cfg) == 0
    serial = capsys.readouterr().out.splitlines()[:-1]
    assert serial[4].startswith("n=4 runs=8 ")  # 16 points, in 2 sizes
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        forks.append(pid)  # a worker's append stays in the worker
        return pid
    cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork)
    assert run_cli("sweep", "--config", cfg) == 0
    assert_no_child_left()
    assert len(forks) == 2 and all(forks)
    assert capsys.readouterr().out.splitlines()[:-1] == serial


def test_workers_return_results_in_call_order(monkeypatch):
    cpus(monkeypatch, 2)

    def result(i, size):
        time.sleep(0.3 * (i == 0))  # the other worker ends every later call
        return i, b"%d" % i * size
    # two results are larger than a pipe's buffer
    calls = [(0, 1), (1, 1 << 17), (2, 3), (3, 1 << 18)]
    assert cli._in_children(result, calls) == [
        (i, b"%d" % i * size) for i, size in calls]
    assert_no_child_left()


def test_a_worker_that_dies_names_the_call_it_died_in(monkeypatch):
    cpus(monkeypatch, 2)
    ran = []  # each worker appends to its own copy

    def second_call_dies(i):
        ran.append(i)
        if len(ran) == 2:
            os._exit(0)
        return i
    # runs 1 and 2 are the two workers' first calls, so run 3 is the
    # second call of the worker that is free first
    with pytest.raises(ChildProcessError, match=r"^sweep run 3 ended without "
                       r"a result \(exit status 0\)$"):
        cli._in_children(second_call_dies, [(i,) for i in range(4)])
    assert_no_child_left()
    assert ran == []


def test_an_interrupted_sweep_leaves_no_worker(tmp_path, capsys, monkeypatch):
    import select
    cpus(monkeypatch, 2)
    real_select, waits = select.select, []

    def interrupted(*args):
        # the first wait ends with a result, the second is interrupted
        if waits:
            raise KeyboardInterrupt
        waits.append(real_select(*args))
        return waits[-1]
    monkeypatch.setattr(select, "select", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_cli("sweep", "--config", write(tmp_path, SWEEP))
    assert_no_child_left()
    assert len(waits) == 1 and waits[0][0]
    assert capsys.readouterr().out == ""


def test_sweep_children_leave_stdio_to_the_parent(tmp_path):
    # text buffered before the fork is written once, by the parent
    cfg = write(tmp_path, SWEEP)
    script = ("import os, sys\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "sys.stdout.write('buffered\\n')\n"
              "from bftsim import cli\n"
              f"sys.exit(cli.main(['sweep', '--config', {cfg!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("buffered") == 1
    assert proc.stdout.count("safety: ok") == 1


# --- packaging ----------------------------------------------------------------


def test_module_entry_point_runs(tmp_path):
    cfg = write(tmp_path, STEADY)
    proc = subprocess.run(
        [sys.executable, "-m", "bftsim.cli", "run", "--config", cfg,
         "--horizon", "60"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "safety: ok" in proc.stdout


# what some commands run and others must not load: OpenSSL (through
# hashlib, which no command loads), the replica, the checker, and the
# arithmetic of fits; and what no command loads: dataclasses, which
# generates methods at import and loads inspect
LAZY = ("hashlib", "_hashlib", "bftsim.replica", "bftsim.analysis",
        "statistics", "fractions", "datetime", "dataclasses", "inspect")


def loaded_after(script: str, *args: str) -> list[str]:
    """The modules of LAZY in ``held`` after ``script`` ran in a fresh
    interpreter, with ``args`` as ``sys.argv[1:]`` and bftsim.cli as
    ``cli``; ``held`` is ``sys.modules`` unless the script rebinds it."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bftsim.cli as cli\n"
         "held = sys.modules\n" + script
         + f"\nprint(*(m for m in {LAZY!r} if m in held))", *args],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_each_command_loads_only_what_it_runs(tmp_path):
    trace, cfg = str(make_trace(tmp_path)), write(tmp_path, STEADY, "again.ini")
    # what every call pays: the import and the scenario
    assert loaded_after("cli.parse_scenario(sys.argv[1])", cfg) == []
    # check takes the genesis id from core, so it hashes nothing
    assert loaded_after(
        "assert cli.main(['check', sys.argv[1], '--quiet']) == 0",
        trace) == ["bftsim.analysis"]
    # replay hashes, with CPython's own sha256, and simulates, and checks
    # nothing
    assert loaded_after(
        "assert cli.main(['replay', sys.argv[1], '--quiet']) == 0",
        trace) == ["bftsim.replica"]
    # run simulates and checks; neither it nor any command maps OpenSSL
    assert loaded_after(
        "assert cli.main(['run', '--config', sys.argv[1], '--quiet']) == 0",
        cfg) == ["bftsim.replica", "bftsim.analysis"]


def test_sweep_loads_what_its_runs_need_before_it_forks(tmp_path):
    # loaded once in the parent, not once in each forked worker
    script = ("import os\n"
              "os.sched_getaffinity = lambda pid: {0, 1}\n"
              "real_fork = os.fork\n"
              "def fork():\n"
              "    global held\n"
              "    if held is sys.modules:\n"
              "        held = set(sys.modules)\n"
              "    return real_fork()\n"
              "os.fork = fork\n"
              "assert cli.main(['sweep', '--config', sys.argv[1], "
              "'--quiet']) == 0\n"
              "assert held is not sys.modules, 'sweep never forked'\n"
              "assert {'_sha2', '_sha256'} & held, 'no sha256 before the fork'\n"
              "assert not {'hashlib', '_hashlib'} & sys.modules.keys()")
    loaded = loaded_after(script, write(tmp_path, SWEEP))
    assert {"bftsim.replica", "bftsim.analysis"} <= set(loaded)
    assert not {"dataclasses", "inspect"} & set(loaded)


def test_cli_import_leaves_numpy_out():
    # bftsim has no runtime dependencies; of its tools, only the benchmark's
    # start-up reference (perfbench/startup_ref.py) imports numpy
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bftsim.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
