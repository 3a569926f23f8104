"""Scenario files: INI-style sections with key=value entries.

Four sections: [protocol] (replica parameters), [adversary] (delay model and
fault assignments), [run] (horizon/seed/output), optional [sweep] (value
grids for the sweep command).  The config value types are the schema: the
keys of [protocol], of each delay model and of each fault are the fields of
``ReplicaConfig`` and of the classes in ``MODEL_KINDS`` and ``FAULT_KINDS``,
each parsed by its annotation, and an absent key keeps its field's
default.  Unknown sections or keys are rejected so a typo cannot silently
change an experiment.
"""

from __future__ import annotations

import configparser
from typing import NamedTuple, Optional, get_type_hints

from .core import MESSAGE_VARIANTS, ConfigError, ReplicaConfig, value_types
from .simnet import (FAULT_KINDS, MODEL_KINDS, AdversarySpec, DelayTable,
                     kind_name)


class ScenarioConfig(NamedTuple):
    protocol: ReplicaConfig
    adversary: AdversarySpec
    horizon: int
    out_dir: Optional[str]
    sweep_n: list[int]
    sweep_seeds: list[int]

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return self._replace(protocol=self.protocol._replace(run_seed=seed))


value_types(ScenarioConfig)
# Keys of [run] and [sweep]; those of [protocol] and [adversary] are fields.
_SECTIONS = {"protocol": None, "adversary": None,
             "run": {"horizon", "seed", "out"}, "sweep": {"n_values", "seeds"}}


def _parse(where: str, key: str, raw: str, hint):
    """One value by its field's annotation: int, bool, str, or a delay range
    lo..hi or one integer for both ends (``AdversarySpec.validate`` checks
    the bounds)."""
    try:
        if hint is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if hint is str:
            return raw
        if hint is int:
            return int(raw)
        lo, _, hi = raw.partition("..")
        return int(lo), int(hi or lo)
    except (KeyError, ValueError):
        what = hint.__name__ if hint in (int, bool) else "lo..hi"
        raise ConfigError(f"{where} {key} must be {what}, got {raw!r}")


MAX_RANGE = 10_000  # values a range may span: each is a run of a sweep


def parse_int_list(raw: str) -> list[int]:
    """Accepts "1..30" ranges or comma lists like "4,10,22".  A range may
    span at most ``MAX_RANGE`` values, checked before its list is built."""
    if ".." in raw and "," not in raw:
        lo, hi = _parse("integer list", "range", raw, tuple[int, int])
        if hi - lo >= MAX_RANGE:
            raise ConfigError(f"integer list {raw!r} spans more than "
                              f"{MAX_RANGE} values")
        values = list(range(lo, hi + 1))
    else:
        values = [_parse("integer list", "item", part, int)
                  for part in raw.split(",") if part.strip()]
    if not values:
        raise ConfigError(f"empty integer list {raw!r}")
    return values


def _build(cls, items: dict[str, str], where: str, **fixed):
    """An instance of config value type ``cls`` from a section's raw values,
    which it consumes: each field not ``fixed`` is parsed by its annotation,
    an absent key keeps the field's default, and a key left over is
    unknown.  A delay table is spelled delay_<variant> = lo..hi."""
    hints, kw = get_type_hints(cls), dict(fixed)
    for name in cls._fields:
        hint = hints[name]
        if name in fixed:
            continue
        if hint == DelayTable:
            kw[name] = tuple(
                (v, _parse(where, k, items.pop(k), tuple[int, int]))
                for v in sorted(MESSAGE_VARIANTS)
                if (k := f"delay_{v}") in items)
        elif name in items:
            kw[name] = _parse(where, name, items.pop(name), hint)
        elif name not in cls._field_defaults:
            raise ConfigError(f"{where} missing {name}")
    if items:
        raise ConfigError(f"unknown key {next(iter(items))!r} in {where}")
    return cls(**kw)


def _parse_fault(entry: str):
    """``rid:kind``, or ``rid:kind@value`` for a kind with one field."""
    rid, _, spec = entry.partition(":")
    kind, at, value = spec.partition("@")
    cls = FAULT_KINDS.get(kind)
    # a kind takes an @value exactly when it has a field to fill
    if not rid.isdigit() or cls is None or len(cls._fields) != bool(at):
        raise ConfigError(f"bad fault entry {entry!r}")
    items = {cls._fields[0]: value} if at else {}
    return int(rid), _build(cls, items, f"[adversary] {kind} fault")


def parse_scenario(path: str) -> ScenarioConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # configparser's messages run over several lines
        raise ConfigError(f"cannot parse scenario file {path}: "
                          + " ".join(str(exc).split())) from None
    if not read:
        raise ConfigError(f"cannot read scenario file {path}")
    return parse_sections(cp)


def parse_sections(cp: configparser.ConfigParser) -> ScenarioConfig:
    """A scenario from its sections, read from a file or ``respelled``."""
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if _SECTIONS[section] and key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    for required in ("protocol", "adversary", "run"):
        if required not in cp:
            raise ConfigError(f"missing section [{required}]")

    run = cp["run"]
    if "horizon" not in run:
        raise ConfigError("[run] missing horizon")
    # run_seed is [run] seed, not a [protocol] key; absent, it keeps its default
    seed = (_parse("[run]", "seed", run["seed"], int) if "seed" in run
            else ReplicaConfig._field_defaults["run_seed"])
    protocol = _build(ReplicaConfig, dict(cp["protocol"]), "[protocol]",
                      run_seed=seed)
    protocol.validate()

    adv = dict(cp["adversary"])
    kind = adv.pop("model", "")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"[adversary] unknown model {kind!r}")
    # entries separated by commas or, as the run report prints them, spaces
    faults = adv.pop("faults", "").replace(",", " ").split()
    adversary = AdversarySpec(
        _build(MODEL_KINDS[kind], adv, f"[adversary] {kind}"),
        () if faults == ["none"] else tuple(map(_parse_fault, faults)))
    adversary.validate(protocol)

    sweep = cp["sweep"] if "sweep" in cp else {}
    return ScenarioConfig(
        protocol=protocol,
        adversary=adversary,
        horizon=_parse("[run]", "horizon", run["horizon"], int),
        out_dir=run.get("out", "") or None,
        sweep_n=parse_int_list(sweep["n_values"]) if "n_values" in sweep else [],
        sweep_seeds=parse_int_list(sweep["seeds"]) if "seeds" in sweep else [],
    )


def _spelled(spec) -> list[tuple[str, str]]:
    """A config value's fields as scenario (key, value) text pairs."""
    pairs = []
    for name, hint in get_type_hints(type(spec)).items():
        value = getattr(spec, name)
        if hint == DelayTable:
            pairs += [(f"delay_{v}", f"{lo}..{hi}") for v, (lo, hi) in value]
        elif hint == tuple[int, int]:
            pairs.append((name, f"{value[0]}..{value[1]}"))
        else:
            pairs.append((name, str(value)))
    return pairs


def respelled(protocol: ReplicaConfig, adversary: AdversarySpec,
              horizon) -> ScenarioConfig:
    """What the scenario that spells this configuration gives, such as a
    trace header's: a value a scenario cannot give comes back otherwise."""
    protocol = dict(_spelled(protocol))
    run = {"horizon": horizon, "seed": protocol.pop("run_seed")}
    # not strict: keys that differ only in case are one key, the last
    cp = configparser.ConfigParser(interpolation=None, strict=False)
    cp.read_dict({
        "protocol": protocol, "run": run,
        "adversary": {"model": kind_name(adversary.model, MODEL_KINDS),
                      **dict(_spelled(adversary.model)),
                      "faults": format_faults(adversary.faults)}})
    return parse_sections(cp)


def format_model(model) -> str:
    """``kind key=value ...``: a delay model as its scenario keys spell it."""
    return " ".join([kind_name(model, MODEL_KINDS),
                     *(f"{key}={value}" for key, value in _spelled(model))])


def format_faults(faults) -> str:
    """``rid:kind[@value] ...``: fault entries as a scenario spells them."""
    return " ".join(
        f"{rid}:{kind_name(spec, FAULT_KINDS)}"
        + "".join(f"@{value}" for _, value in _spelled(spec))
        for rid, spec in faults) or "none"
