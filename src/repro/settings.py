"""Run settings: every ``REPRO_*`` knob, parsed and validated in one place.

:class:`Settings` has one field per knob.  Each field's metadata names
its environment variable (``env``), the parser that validates it
(``parse``) and its ``repro list`` line (``help``), so
``dataclasses.fields(Settings)`` is the one table of knobs.

- :func:`from_env` builds :class:`Settings` from a mapping (pure);
- :func:`current` resolves ``os.environ`` once and caches the result,
  so an invalid knob fails at the first settings read;
- :func:`configure` overrides fields at runtime, validating each value
  with the same parser as its environment variable::

      from repro import settings
      settings.configure(obs=True, obs_trace="/tmp/t.jsonl", verify=True)
      ...
      settings.reset()   # back to the environment's settings

Forked experiment workers inherit the parent's resolved settings.  Hot
paths never read settings per access: caches capture their verify flag
at construction, and the tracer binds its category channels whenever an
``obs*`` field changes.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from typing import (Any, Callable, FrozenSet, List, Mapping, Optional,
                    Tuple)

from repro.common.errors import ConfigError

#: every event category the tracer knows
ALL_CATEGORIES: Tuple[str, ...] = ("llc", "compression", "mem", "run",
                                   "engine", "resilience")

#: what the engine does with a cell whose worker raised
ON_ERROR_MODES = ("raise", "skip")

#: fault-injection modes understood by ``REPRO_FAULT_INJECT``
FAULT_MODES = ("crash", "kill")

_FALSY = ("", "0", "false", "no", "off")


@dataclass(frozen=True)
class FaultDirective:
    """One parsed ``REPRO_FAULT_INJECT`` directive.

    ``selector`` is ``"index"`` (fire on exactly ``value``) or
    ``"stride"`` (fire on every ``value``-th cell — ``crash@10%`` parses
    to stride 10, i.e. 10% of cells, deterministically by index).
    """

    mode: str
    selector: str
    value: int

    def matches(self, index: int) -> bool:
        if self.selector == "index":
            return index == self.value
        return index % self.value == 0


# -- parsers: (env name, raw value) -> validated value ----------------------
#
# ``raw`` is the environment string, or whatever a caller passed to
# :func:`configure`; parsers read both through ``str(raw)`` (categories
# also take an iterable), so both paths accept and reject the same
# values.

def _flag(name: str, raw: Any) -> bool:
    return str(raw).strip().lower() not in _FALSY


def _text(name: str, raw: Any) -> str:
    return str(raw)


def _choice(options: Tuple[str, ...], blank: str = "") -> Callable:
    def parse(name: str, raw: Any) -> str:
        value = str(raw).strip().lower() or blank
        if value not in options:
            raise ConfigError(f"{name} must be one of {list(options)}, "
                              f"got {value!r}")
        return value
    return parse


def _number(cast: Callable[[str], Any], minimum: float,
            exclusive: bool = False) -> Callable:
    """Parser for a number ``>= minimum`` (``> minimum`` if exclusive)."""
    kind = "an integer" if cast is int else "numeric"

    def parse(name: str, raw: Any) -> Any:
        try:
            value = cast(str(raw).strip())
        except ValueError:
            raise ConfigError(f"{name} must be {kind}, got {raw!r}")
        if value <= minimum if exclusive else value < minimum:
            raise ConfigError(f"{name} must be "
                              f"{'>' if exclusive else '>='} {minimum:g}, "
                              f"got {raw!r}")
        return value
    return parse


def _categories(name: str, raw: Any) -> FrozenSet[str]:
    parts = raw.split(",") if isinstance(raw, str) else list(raw)
    names = frozenset(str(part).strip() for part in parts
                      if str(part).strip())
    unknown = names - frozenset(ALL_CATEGORIES)
    if unknown:
        raise ConfigError(f"{name} has unknown categories "
                          f"{sorted(unknown)}; choose from "
                          f"{list(ALL_CATEGORIES)}")
    return names or frozenset(ALL_CATEGORIES)


def _faults(name: str, raw: Any) -> Tuple[FaultDirective, ...]:
    """Comma-separated ``mode@index`` or ``mode@N%`` directives."""
    directives: List[FaultDirective] = []
    for token in str(raw).split(","):
        token = token.strip()
        if not token:
            continue
        mode, at, selector = token.partition("@")
        try:
            if mode not in FAULT_MODES or not at or not selector:
                raise ValueError
            if selector.endswith("%"):
                percent = int(selector[:-1])
                if not 0 < percent <= 100:
                    raise ValueError
                directives.append(FaultDirective(
                    mode, "stride", max(1, round(100 / percent))))
            else:
                directives.append(FaultDirective(
                    mode, "index", int(selector)))
        except ValueError:
            raise ConfigError(
                f"{name} directive {token!r} is not mode@index or "
                f"mode@N% with mode in {list(FAULT_MODES)}")
    return tuple(directives)


def _knob(env: str, parse: Callable, default: Any, help: str) -> Any:
    return field(default=default, metadata={
        "env": env, "parse": parse, "help": help})


@dataclass(frozen=True)
class Settings:
    """One resolved, validated value per ``REPRO_*`` knob."""

    obs: bool = _knob("REPRO_OBS", _flag, False,
                      "enable event tracing (default 0)")
    obs_trace: str = _knob("REPRO_OBS_TRACE", _text, "repro_obs.jsonl",
                           "trace output path (default repro_obs.jsonl)")
    obs_categories: FrozenSet[str] = _knob(
        "REPRO_OBS_CATEGORIES", _categories, frozenset(ALL_CATEGORIES),
        "comma-separated category filter (default all)")
    obs_sample: int = _knob("REPRO_OBS_SAMPLE", _number(int, 1), 64,
                            "memory queue sampling stride (default 64)")
    #: ``None`` = one worker per CPU
    jobs: Optional[int] = _knob("REPRO_JOBS", _number(int, 1), None,
                                "experiment worker processes "
                                "(default cpu count)")
    scale: float = _knob("REPRO_SCALE", _number(float, 0, exclusive=True),
                         1.0, "scale factor for default instruction counts")
    on_error: str = _knob("REPRO_ON_ERROR",
                          _choice(ON_ERROR_MODES, blank="raise"), "raise",
                          "failed-cell policy: raise or skip "
                          "(default raise)")
    fault_inject: Tuple[FaultDirective, ...] = _knob(
        "REPRO_FAULT_INJECT", _faults, (),
        "deterministic fault injection, e.g. crash@10%,kill@3")
    verify: bool = _knob("REPRO_VERIFY", _flag, False,
                         "round-trip + invariant self-verification "
                         "(default 0)")

    def category_enabled(self, category: str) -> bool:
        return self.obs and category in self.obs_categories


def from_env(environ: Mapping[str, str]) -> Settings:
    """Parse and validate every knob present in ``environ``."""
    values = {}
    for knob in dataclasses.fields(Settings):
        raw = environ.get(knob.metadata["env"])
        if raw is not None:
            values[knob.name] = knob.metadata["parse"](
                knob.metadata["env"], raw)
    return Settings(**values)


_current: Optional[Settings] = None


def current() -> Settings:
    """The process's settings, resolved from ``os.environ`` on first use."""
    global _current
    if _current is None:
        _current = from_env(os.environ)
    return _current


def configure(**overrides: Any) -> Settings:
    """Override fields by name, each validated by its knob's parser.

    Caches capture their verify flag at construction, so reconfigure
    *before* building the cache under test.
    """
    knobs = {knob.name: knob for knob in dataclasses.fields(Settings)}
    values = {}
    for name, raw in overrides.items():
        if name not in knobs:
            raise TypeError(f"unknown setting {name!r}; choose from "
                            f"{sorted(knobs)}")
        meta = knobs[name].metadata
        values[name] = meta["parse"](meta["env"], raw)
    global _current
    _current = dataclasses.replace(current(), **values)
    if any(name.startswith("obs") for name in values):
        from repro.obs import trace
        trace.refresh()
    return _current


def reset() -> Settings:
    """Re-read the environment (undo :func:`configure`)."""
    global _current
    _current = from_env(os.environ)
    from repro.obs import trace
    trace.refresh()
    trace.clear_context()
    return _current
