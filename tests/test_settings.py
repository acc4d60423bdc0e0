"""One settings module: every ``REPRO_*`` knob parsed, validated, listed.

Covers :mod:`repro.settings`: each knob's parser through
:func:`~repro.settings.from_env`, the same validation for runtime
overrides through :func:`~repro.settings.configure`, and the knob table
that ``repro list`` and ``docs/performance.md`` publish.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro import settings
from repro.cli import main as cli_main
from repro.common.errors import ConfigError
from repro.experiments import parallel
from repro.experiments.runner import scale_instructions
from repro.obs import trace as obs_trace

ROOT = Path(__file__).resolve().parents[1]

KNOBS = dataclasses.fields(settings.Settings)

#: read only by ``benchmarks/``, so it is not a :class:`Settings` field
BENCH_ONLY = "REPRO_BENCH_FULL"

#: one value per knob, invalid wherever the knob validates its value;
#: REPRO_OBS, REPRO_OBS_TRACE and REPRO_VERIFY accept every string, so
#: for those the value must parse the same both ways instead
CASES = {
    "obs": "banana",
    "obs_trace": "",
    "obs_categories": "llc,warp",
    "obs_sample": "0",
    "jobs": "many",
    "scale": "0",
    "on_error": "ignore",
    "fault_inject": "explode@1",
    "verify": "maybe",
}
FREE_FORM = {"obs", "obs_trace", "verify"}


@pytest.fixture(autouse=True)
def _restore_settings():
    yield
    settings.reset()


def _env(name):
    return "REPRO_" + name.upper()


# -- the knob table ---------------------------------------------------------

def test_every_knob_is_named_after_its_field():
    assert len(KNOBS) == 9
    for knob in KNOBS:
        assert knob.metadata["env"] == _env(knob.name)
        assert knob.metadata["help"]


def test_repro_list_prints_every_knob(capsys):
    assert cli_main(["list"]) == 0
    output = capsys.readouterr().out
    for knob in KNOBS:
        assert knob.metadata["env"] in output


def test_performance_doc_has_one_row_per_knob():
    text = (ROOT / "docs" / "performance.md").read_text()
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", text, re.MULTILINE)
    expected = [knob.metadata["env"] for knob in KNOBS] + [BENCH_ONLY]
    assert sorted(rows) == sorted(expected)


def test_every_mentioned_knob_exists():
    known = {knob.metadata["env"] for knob in KNOBS} | {BENCH_ONLY}
    paths = [*(ROOT / "src").rglob("*.py"), ROOT / "README.md",
             ROOT / "DESIGN.md", ROOT / "CONTRIBUTING.md",
             *(ROOT / "docs").glob("*.md"),
             *(ROOT / ".claude" / "skills").rglob("*.md"),
             *(ROOT / "benchmarks").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py"),
             *(ROOT / "examples").glob("*.py"),
             *(ROOT / ".github" / "workflows").glob("*.yml")]
    stale = {f"{path.relative_to(ROOT)}: {token}"
             for path in paths if path.exists()
             for token in re.findall(r"REPRO_[A-Z_]+", path.read_text())
             if token not in known}
    assert not stale


# -- env and runtime overrides validate alike ------------------------------

def test_cases_cover_every_knob():
    assert set(CASES) == {knob.name for knob in KNOBS}


@pytest.mark.parametrize("name", sorted(CASES))
def test_env_and_override_agree(name):
    raw = CASES[name]
    if name in FREE_FORM:
        parsed = getattr(settings.from_env({_env(name): raw}), name)
        assert getattr(settings.configure(**{name: raw}), name) == parsed
        return
    with pytest.raises(ConfigError):
        settings.from_env({_env(name): raw})
    before = settings.current()
    with pytest.raises(ConfigError):
        settings.configure(**{name: raw})
    assert settings.current() == before


def test_typed_overrides_are_validated():
    with pytest.raises(ConfigError):
        settings.configure(obs_categories=["bogus"])
    with pytest.raises(ConfigError):
        settings.configure(obs_sample=0)
    assert settings.configure(obs_categories=["llc"]).obs_categories == {
        "llc"}
    assert settings.configure(jobs=5).jobs == 5


def test_unknown_override_rejected():
    with pytest.raises(TypeError):
        settings.configure(fast=True)


# -- resolution ---------------------------------------------------------------

def test_from_env_reads_only_its_argument(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "3")
    assert settings.from_env({}) == settings.Settings()


def test_reset_rereads_environment(monkeypatch):
    settings.configure(scale=5)
    monkeypatch.setenv("REPRO_SCALE", "3")
    assert settings.current().scale == 5
    assert settings.reset().scale == 3


def test_obs_override_rebinds_tracer(tmp_path):
    settings.configure(obs=True, obs_trace=str(tmp_path / "t.jsonl"),
                       obs_categories="llc")
    assert obs_trace.LLC is not None
    assert obs_trace.MEM is None
    settings.configure(obs=False)
    assert not obs_trace.tracing_active()


# -- per-knob parsing (from_env) ----------------------------------------------

def test_obs_knobs_from_env():
    config = settings.from_env({"REPRO_OBS": "1",
                                "REPRO_OBS_CATEGORIES": "llc,mem",
                                "REPRO_OBS_SAMPLE": "8"})
    assert config.obs
    assert config.obs_categories == frozenset({"llc", "mem"})
    assert config.obs_sample == 8
    assert config.category_enabled("llc")
    assert not config.category_enabled("compression")
    for bad in ({"REPRO_OBS_CATEGORIES": "llc,warp"},
                {"REPRO_OBS_CATEGORIES": "", "REPRO_OBS_SAMPLE": "0"},
                {"REPRO_OBS_SAMPLE": "many"}):
        with pytest.raises(ConfigError):
            settings.from_env(bad)


def test_fault_inject_from_env():
    def parse(raw):
        return settings.from_env({"REPRO_FAULT_INJECT": raw}).fault_inject

    directives = parse("crash@2,kill@1,crash@10%")
    assert [d.mode for d in directives] == ["crash", "kill", "crash"]
    assert directives[1].selector == "index" and directives[1].value == 1
    stride = directives[2]
    assert stride.selector == "stride" and stride.value == 10
    assert stride.matches(0) and stride.matches(10)
    assert not stride.matches(5)
    assert parse("") == ()
    for bad in ("explode@1", "crash", "crash@x", "crash@0%", "crash@1:2"):
        with pytest.raises(ConfigError):
            parse(bad)


def test_jobs_from_env():
    assert settings.from_env({"REPRO_JOBS": "3"}).jobs == 3
    assert settings.from_env({}).jobs is None
    for bad in ("0", "many"):
        with pytest.raises(ConfigError):
            settings.from_env({"REPRO_JOBS": bad})
    settings.configure(jobs=3)
    assert parallel.worker_count() == 3
    settings.reset()
    assert parallel.worker_count() >= 1


def test_scale_from_env():
    assert settings.from_env({"REPRO_SCALE": "2"}).scale == 2.0
    for bad in ("0", "-1", "nope"):
        with pytest.raises(ConfigError):
            settings.from_env({"REPRO_SCALE": bad})
    settings.configure(scale="2")
    assert scale_instructions(10_000) == 20_000
