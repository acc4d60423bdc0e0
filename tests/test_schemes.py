"""The scheme rows: every row runs end to end, and a bad row cannot exist.

``REPRO_VERIFY=1`` on this file puts every MORC codec row (LBE, C-Pack,
LZ, raw) through its commit-verify path on a real trace.
"""

import pytest

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.common.stats import StatGroup
from repro.sim.energy import compute_energy
from repro.sim.metrics import RunMetrics
from repro.sim.schemes import NAMES, MorcBuilder, Scheme
from repro.sim.system import make_llc, run_single_program

#: scheme -> (the name its LLC reports, MORC data algorithm, whether it
#: pays compression-engine energy)
EXPECTED = {
    "Uncompressed": ("Uncompressed", None, False),
    "Adaptive": ("Adaptive", None, True),
    "Decoupled": ("Decoupled", None, True),
    "SC2": ("SC2", None, True),
    "MORC": ("MORC", "lbe", True),
    "Uncompressed8x": ("Uncompressed", None, False),
    "MORCMerged": ("MORCMerged", "lbe", True),
    "MORC-CPack": ("MORC-CPack", "cpack", True),
    "MORC-LZ": ("MORC-LZ", "lz", True),
    "MORC-Raw": ("MORC-Raw", "raw", False),
}


def test_every_row_is_expected():
    assert NAMES == tuple(EXPECTED)


@pytest.mark.parametrize("scheme", NAMES)
def test_row_runs_end_to_end(scheme):
    name, algorithm, engine = EXPECTED[scheme]
    llc = make_llc(scheme, SystemConfig())
    result = run_single_program("gcc", scheme, n_instructions=2000, llc=llc)
    assert llc.name == name
    assert getattr(llc, "algorithm", None) == algorithm
    assert result.energy.total_j > 0
    assert (result.energy.compression_j > 0) == engine


def test_lbe_cache_names_itself_by_tag_layout():
    merged = SystemConfig().with_morc(merged_tags=True)
    assert make_llc("MORC", merged).name == "MORCMerged"
    assert make_llc("MORC-CPack", merged).name == "MORC-CPack"


def test_incomplete_row_cannot_be_built():
    with pytest.raises(TypeError):
        Scheme("Half", MorcBuilder("lbe"))


def test_misspelled_engine_field_fails():
    with pytest.raises(ConfigError):
        Scheme("Typo", MorcBuilder("lbe"),
               ("lbe_compress_j", "lbe_decompres_j"))


def test_unknown_morc_algorithm_fails():
    with pytest.raises(ConfigError):
        MorcBuilder("lbz")


def test_unknown_scheme_raises_config_error():
    with pytest.raises(ConfigError, match="MORC-Raw"):
        make_llc("Mystery", SystemConfig())
    with pytest.raises(ConfigError, match="MORC-Raw"):
        compute_energy("Mystery", RunMetrics(), StatGroup("llc"))
