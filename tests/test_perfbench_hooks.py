"""What the benchmark in ``perfbench/`` needs from bftsim.

The benchmark wraps layer entry points by name, drives replicas through
the simulator's fault harness and times a few helpers directly.  It is
changed apart from the program, so a rename or removal in ``src/`` must
fail here, not first in a benchmark run.
"""

import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

from bftsim import analysis, crypto, simnet
from bftsim.replica import ReplicaConfig
from bftsim.simnet import AdversarySpec, Synchronous

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_layers(monkeypatch):
    """``perfbench/layers.py``, which imports its sibling ``stats``.  Its
    own imports from bftsim are the first check."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_traced_layer_call_resolves(monkeypatch):
    layers = load_layers(monkeypatch)
    assert layers.LAYER_CALLS
    for owner, attr, name in layers.LAYER_CALLS:
        # what ``layers.patched`` wraps: a function, or a classmethod's
        static = inspect.getattr_static(owner, attr)
        assert callable(getattr(static, "__func__", static)), name


def test_a_bare_cli_import_holds_parse_scenario():
    # setup_probe.py and LAYER_CALLS reach it as cli.parse_scenario, so
    # cli may defer what its commands import, but not this
    proc = subprocess.run(
        [sys.executable, "-c", "import inspect, bftsim.cli as cli; "
         "print(callable(inspect.getattr_static(cli, 'parse_scenario')))"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_from_jsonl_is_a_classmethod_with_an_optional_sink():
    assert isinstance(inspect.getattr_static(simnet.Trace, "from_jsonl"),
                      classmethod)
    sink = inspect.signature(simnet.Trace.from_jsonl).parameters["sink"]
    assert sink.default is None


def test_the_names_the_benchmark_reaches_exist():
    assert callable(analysis.fallback_stats)
    assert issubclass(analysis.NoFallbacks, Exception)
    for name in ("init", "on_message", "on_timer"):
        assert callable(getattr(simnet._Harness, name)), name
    assert callable(crypto.verify_certificate)
    # the traced pass reads the records of the trace ``run`` returns
    trace = simnet.run(ReplicaConfig(n=4, f=1), AdversarySpec(Synchronous(1)),
                       20)
    assert trace.records


def test_committed_counts_the_whole_log():
    # replica_drive compares len(state.committed) with each commit record's
    # log_len, so pruning must leave the count whole
    sim = simnet.Simulation(ReplicaConfig(n=4, f=1),
                            AdversarySpec(Synchronous(1)), 400)
    trace = sim.run()
    last = {rec["rid"]: rec["log_len"] for rec in trace.records
            if rec["kind"] == "commit"}
    assert sorted(last) == [0, 1, 2, 3]
    for rid, log_len in last.items():
        state = sim.harnesses[rid].replica.state
        assert len(state.committed) == log_len > 4 * len(state.blocks)
