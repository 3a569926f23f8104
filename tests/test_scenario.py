"""Scenario file parsing: strict sections, delay models, fault lists."""

from typing import get_type_hints

import pytest

from bftsim.replica import ConfigError, ReplicaConfig
from bftsim.scenario import (MAX_RANGE, format_faults, format_model,
                             parse_int_list, parse_scenario)
from bftsim.simnet import (
    FAULT_KINDS,
    MODEL_KINDS,
    Asynchronous,
    Crash,
    Equivocate,
    MuteLeader,
    PartialSynchrony,
    Synchronous,
)

FULL = """
[protocol]
n = 7
f = 2
variant = two_chain
pacemaker = async_fallback
timeout_duration = 45
leader_rotation_period = 2

[adversary]
model = partial_synchrony
gst = 150
delta = 3
pre_gst_delay_bound = 25
faults = 0:crash@100, 5:mute_leader

[run]
horizon = 500
seed = 11
out = results

[sweep]
n_values = 4, 7, 10
seeds = 2,4
"""


def write(tmp_path, text, name="s.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_full_scenario_parses(tmp_path):
    sc = parse_scenario(write(tmp_path, FULL))
    assert sc.protocol.n == 7 and sc.protocol.f == 2
    assert sc.protocol.variant == "two_chain"
    assert sc.protocol.timeout_duration == 45
    assert sc.protocol.leader_rotation_period == 2
    assert sc.protocol.run_seed == 11
    assert sc.adversary.model == PartialSynchrony(150, 3, 25)
    assert sc.adversary.faults == ((0, Crash(100)), (5, MuteLeader()))
    assert sc.horizon == 500
    assert sc.out_dir == "results"
    assert sc.sweep_n == [4, 7, 10] and sc.sweep_seeds == [2, 4]


def test_minimal_scenario_defaults(tmp_path):
    sc = parse_scenario(write(tmp_path, """
[protocol]
n = 4
f = 1

[adversary]
model = synchronous

[run]
horizon = 100
"""))
    assert sc.protocol.variant == "three_chain"
    assert sc.protocol.pacemaker == "async_fallback"
    assert sc.adversary.model == Synchronous(1)
    assert sc.adversary.faults == ()
    assert sc.protocol.run_seed == ReplicaConfig(n=4, f=1).run_seed == 0
    assert sc.out_dir is None
    assert sc.sweep_n == [] and sc.sweep_seeds == []


def test_asynchronous_model_with_per_variant_delays(tmp_path):
    sc = parse_scenario(write(tmp_path, """
[protocol]
n = 4
f = 1

[adversary]
model = asynchronous
base_delay = 1..8
delay_proposal = 60..120
delay_vote = 2..5

[run]
horizon = 100
"""))
    m = sc.adversary.model
    assert isinstance(m, Asynchronous)
    assert m.base_delay == (1, 8)
    assert dict(m.per_variant) == {"proposal": (60, 120), "vote": (2, 5)}


def test_fault_kinds_parse(tmp_path):
    sc = parse_scenario(write(tmp_path, """
[protocol]
n = 7
f = 2

[adversary]
model = synchronous
faults = 1:equivocate, 3:crash@77

[run]
horizon = 50
"""))
    assert sc.adversary.faults == ((1, Equivocate()), (3, Crash(77)))


def test_with_seed_rebinds_protocol_seed(tmp_path):
    sc = parse_scenario(write(tmp_path, FULL))
    sc9 = sc.with_seed(9)
    assert sc9.protocol.run_seed == 9
    assert sc.protocol.run_seed == 11  # original untouched


def test_parse_int_list():
    assert parse_int_list("1..5") == [1, 2, 3, 4, 5]
    assert parse_int_list("7") == [7]
    assert parse_int_list("3, 5, 9") == [3, 5, 9]
    with pytest.raises(ConfigError):
        parse_int_list("5..1")
    with pytest.raises(ConfigError):
        parse_int_list("a,b")
    # a range spans at most MAX_RANGE values
    assert len(parse_int_list(f"1..{MAX_RANGE}")) == MAX_RANGE
    with pytest.raises(ConfigError, match="spans more than"):
        parse_int_list(f"0..{MAX_RANGE}")


@pytest.mark.parametrize("mutation,needle", [
    ("[protocol]\nn = 5\nf = 1", "3f+1"),
    ("[protocol]\nn = 4\nf = 1\nbogus = 1", "bogus"),
    ("[protocol]\nn = 4\nf = 1\n\n[mystery]\nx = 1", "mystery"),
    ("warp = 1\n\n[protocol]\nn = 4\nf = 1", "unknown key 'warp' in [run]"),
    ("[protocol]\nn = 4\nf = 1\n\n[sweep]\nwarp = 1",
     "unknown key 'warp' in [sweep]"),
])
def test_bad_scenarios_rejected(tmp_path, mutation, needle):
    # the mutation follows [run], so its first lines may add keys to it
    text = """
[adversary]
model = synchronous

[run]
horizon = 100
""" + mutation
    with pytest.raises(ConfigError) as err:
        parse_scenario(write(tmp_path, text))
    assert needle in str(err.value)


def test_missing_required_pieces_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_scenario(write(tmp_path, "[protocol]\nn = 4\nf = 1\n"))
    with pytest.raises(ConfigError):
        parse_scenario(write(tmp_path, """
[protocol]
n = 4
f = 1

[adversary]
model = synchronous

[run]
seed = 2
"""))
    with pytest.raises(ConfigError):
        parse_scenario(write(tmp_path, """
[protocol]
n = 4
f = 1

[adversary]
model = warp_drive

[run]
horizon = 10
"""))
    # partial synchrony without gst
    with pytest.raises(ConfigError):
        parse_scenario(write(tmp_path, """
[protocol]
n = 4
f = 1

[adversary]
model = partial_synchrony

[run]
horizon = 10
"""))


def test_too_many_faults_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_scenario(write(tmp_path, """
[protocol]
n = 4
f = 1

[adversary]
model = synchronous
faults = 0:crash@5, 1:mute_leader

[run]
horizon = 10
"""))


def test_unreadable_file_rejected():
    with pytest.raises(ConfigError):
        parse_scenario("/nonexistent/scenario.ini")


# --- the config value types are the schema ---------------------------------


def scenario(protocol="n = 4\nf = 1", adversary="model = synchronous"):
    return (f"[protocol]\n{protocol}\n\n[adversary]\n{adversary}\n\n"
            "[run]\nhorizon = 100\n")


PROTOCOL = {"n": 7, "f": 2, "variant": "two_chain", "pacemaker": "baseline_tc",
            "timeout_duration": 45, "leader_rotation_period": 2,
            "adopt_foreign_fchains": True}


def test_every_protocol_field_is_a_key(tmp_path):
    assert PROTOCOL.keys() == set(ReplicaConfig._fields) - {"run_seed"}
    default = ReplicaConfig(n=7, f=2)
    assert all(getattr(default, k) != v for k, v in PROTOCOL.items()
               if k not in ("n", "f"))
    text = "\n".join(f"{k} = {str(v).lower()}" for k, v in PROTOCOL.items())
    sc = parse_scenario(write(tmp_path, scenario(text)))
    assert sc.protocol == ReplicaConfig(**PROTOCOL)
    with pytest.raises(ConfigError, match="run_seed"):
        parse_scenario(write(tmp_path, scenario("n = 4\nf = 1\nrun_seed = 3")))


@pytest.mark.parametrize("adversary,key", [
    ("model = synchronous\ngst = 50", "gst"),
    ("model = synchronous\ndelay_proposal = 60..120", "delay_proposal"),
    ("model = partial_synchrony\ngst = 50\nbase_delay = 1..5", "base_delay"),
])
def test_keys_of_another_model_rejected(tmp_path, adversary, key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_scenario(write(tmp_path, scenario(adversary=adversary)))


@pytest.mark.parametrize("faults", ["0:crash", "0:mute_leader@3", "0:teleport",
                                    "x:equivocate", "1:crash@5 1:mute_leader"])
def test_bad_fault_entries_rejected(tmp_path, faults):
    with pytest.raises(ConfigError):
        parse_scenario(write(tmp_path, scenario(
            adversary=f"model = synchronous\nfaults = {faults}")))


# a non-default value for each field annotation a delay model or fault uses
SAMPLES = {int: 7, tuple[int, int]: (3, 9),
           tuple[tuple[str, tuple[int, int]], ...]:
               (("proposal", (60, 120)), ("vote", (2, 5)))}


def sample(cls):
    """An instance of ``cls`` with every field set from its annotation."""
    return cls(**{name: SAMPLES[hint]
                  for name, hint in get_type_hints(cls).items()})


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_report_model_text_parses_back(tmp_path, kind):
    model = sample(MODEL_KINDS[kind])
    name, *pairs = format_model(model).split()
    assert name == kind
    lines = [f"model = {kind}"] + [p.replace("=", " = ", 1) for p in pairs]
    sc = parse_scenario(write(tmp_path, scenario(adversary="\n".join(lines))))
    assert sc.adversary.model == model


def test_report_faults_text_parses_back(tmp_path):
    faults = tuple((rid, sample(cls))
                   for rid, cls in enumerate(FAULT_KINDS.values()))
    text = format_faults(faults)
    sc = parse_scenario(write(tmp_path, scenario(
        "n = 10\nf = 3", f"model = synchronous\nfaults = {text}")))
    assert sc.adversary.faults == faults
