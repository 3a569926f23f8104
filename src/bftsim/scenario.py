"""Scenario files: INI-style sections with key=value entries.

Four sections: [protocol] (replica parameters), [adversary] (delay model and
fault assignments), [run] (horizon/seed/output), optional [sweep] (value
grids for the sweep command).  Unknown sections or keys are rejected so a
typo cannot silently change an experiment.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from typing import Optional

from .core import MESSAGE_VARIANTS
from .replica import ConfigError, ReplicaConfig
from .simnet import (AdversarySpec, Asynchronous, Crash, Equivocate,
                     FaultSpec, Honest, MuteLeader, PartialSynchrony,
                     Synchronous)

_PROTOCOL_KEYS = {"n", "f", "variant", "pacemaker", "timeout_duration",
                  "leader_rotation_period", "adopt_foreign_fchains"}
_ADVERSARY_KEYS = ({"model", "delta", "gst", "pre_gst_delay_bound",
                    "base_delay", "faults"}
                   | {f"delay_{v}" for v in MESSAGE_VARIANTS})
_RUN_KEYS = {"horizon", "seed", "seeds", "out", "inject_conflicting_commit"}
_SWEEP_KEYS = {"n_values", "seeds"}
_SECTIONS = {"protocol": _PROTOCOL_KEYS, "adversary": _ADVERSARY_KEYS,
             "run": _RUN_KEYS, "sweep": _SWEEP_KEYS}


@dataclass
class ScenarioConfig:
    protocol: ReplicaConfig
    adversary: AdversarySpec
    horizon: int
    seed: int
    seeds: list[int]
    out_dir: Optional[str]
    inject_conflicting_commit: bool
    sweep_n: list[int]
    sweep_seeds: list[int]

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed,
                       protocol=replace(self.protocol, run_seed=seed))


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}")


def _parse_bool(section: str, key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"[{section}] {key} must be a boolean, got {raw!r}")


def parse_int_list(raw: str) -> list[int]:
    """Accepts "1..30" ranges or comma lists like "4,10,22"."""
    raw = raw.strip()
    try:
        if ".." in raw and "," not in raw:
            lo, hi = (int(part) for part in raw.split("..", 1))
            values = list(range(lo, hi + 1))
        else:
            values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse integer list {raw!r}")
    if not values:
        raise ConfigError(f"empty integer list {raw!r}")
    return values


def _parse_delay_range(section: str, key: str, raw: str) -> tuple[int, int]:
    raw = raw.strip()
    if ".." in raw:
        lo, hi = raw.split("..", 1)
        lo, hi = _parse_int(section, key, lo), _parse_int(section, key, hi)
    else:
        lo = hi = _parse_int(section, key, raw)
    if not 1 <= lo <= hi:
        raise ConfigError(f"[{section}] {key}: bad delay range {raw!r}")
    return lo, hi


def _parse_faults(raw: str) -> tuple[tuple[int, FaultSpec], ...]:
    out: list[tuple[int, FaultSpec]] = []
    raw = raw.strip()
    if raw in ("", "none"):
        return ()
    for part in raw.split(","):
        part = part.strip()
        try:
            rid_s, kind = part.split(":", 1)
            rid = int(rid_s)
        except ValueError:
            raise ConfigError(f"bad fault entry {part!r}")
        kind = kind.strip()
        spec: FaultSpec
        if kind.startswith("crash@"):
            spec = Crash(_parse_int("adversary", "faults", kind[len("crash@"):]))
        elif kind == "mute_leader":
            spec = MuteLeader()
        elif kind == "equivocate":
            spec = Equivocate()
        elif kind == "honest":
            spec = Honest()
        else:
            raise ConfigError(f"unknown fault kind {kind!r}")
        out.append((rid, spec))
    return tuple(out)


def _build_model(sec: configparser.SectionProxy):
    name = sec.get("model", "").strip()
    if name == "synchronous":
        return Synchronous(delta=_parse_int("adversary", "delta",
                                            sec.get("delta", "1")))
    if name == "partial_synchrony":
        if "gst" not in sec:
            raise ConfigError("[adversary] partial_synchrony needs gst")
        return PartialSynchrony(
            gst=_parse_int("adversary", "gst", sec["gst"]),
            delta=_parse_int("adversary", "delta", sec.get("delta", "1")),
            pre_gst_delay_bound=_parse_int(
                "adversary", "pre_gst_delay_bound",
                sec.get("pre_gst_delay_bound", "30")))
    if name == "asynchronous":
        base = _parse_delay_range("adversary", "base_delay",
                                  sec.get("base_delay", "1..10"))
        per = []
        for variant in MESSAGE_VARIANTS:
            key = f"delay_{variant}"
            if key in sec:
                per.append((variant,
                            _parse_delay_range("adversary", key, sec[key])))
        return Asynchronous(base, tuple(sorted(per)))
    raise ConfigError(f"[adversary] unknown model {name!r}")


def parse_scenario(path: str) -> ScenarioConfig:
    cp = configparser.ConfigParser(interpolation=None)
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read scenario file {path}")

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    for required in ("protocol", "adversary", "run"):
        if required not in cp:
            raise ConfigError(f"missing section [{required}]")

    prot = cp["protocol"]
    for required in ("n", "f"):
        if required not in prot:
            raise ConfigError(f"[protocol] missing {required}")
    run = cp["run"]
    if "horizon" not in run:
        raise ConfigError("[run] missing horizon")
    seed = _parse_int("run", "seed", run.get("seed", "1"))

    protocol = ReplicaConfig(
        n=_parse_int("protocol", "n", prot["n"]),
        f=_parse_int("protocol", "f", prot["f"]),
        variant=prot.get("variant", "three_chain").strip(),
        pacemaker=prot.get("pacemaker", "async_fallback").strip(),
        timeout_duration=_parse_int("protocol", "timeout_duration",
                                    prot.get("timeout_duration", "50")),
        leader_rotation_period=_parse_int(
            "protocol", "leader_rotation_period",
            prot.get("leader_rotation_period", "4")),
        adopt_foreign_fchains=_parse_bool(
            "protocol", "adopt_foreign_fchains",
            prot.get("adopt_foreign_fchains", "false")),
        run_seed=seed,
    )
    protocol.validate()

    adv_sec = cp["adversary"]
    adversary = AdversarySpec(_build_model(adv_sec),
                              _parse_faults(adv_sec.get("faults", "")))
    adversary.validate(protocol)

    seeds = parse_int_list(run["seeds"]) if "seeds" in run else [seed]
    sweep_n: list[int] = []
    sweep_seeds: list[int] = []
    if "sweep" in cp:
        if "n_values" in cp["sweep"]:
            sweep_n = parse_int_list(cp["sweep"]["n_values"])
        if "seeds" in cp["sweep"]:
            sweep_seeds = parse_int_list(cp["sweep"]["seeds"])

    return ScenarioConfig(
        protocol=protocol,
        adversary=adversary,
        horizon=_parse_int("run", "horizon", run["horizon"]),
        seed=seed,
        seeds=seeds,
        out_dir=run.get("out", "").strip() or None,
        inject_conflicting_commit=_parse_bool(
            "run", "inject_conflicting_commit",
            run.get("inject_conflicting_commit", "false")),
        sweep_n=sweep_n,
        sweep_seeds=sweep_seeds,
    )
