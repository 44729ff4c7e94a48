"""Radio-environment substrate: grids, propagation, coverage maps, database.

Reconstructs the paper's FCC/TVFool data product synthetically — per-channel
availability regions ``C_r`` and per-cell quality statistics ``q*_r(m, n)``
over four 75 km x 75 km areas gridded into 100 x 100 cells.
"""

from repro.geo.coverage import ChannelCoverage, CoverageMap, build_channel_coverage
from repro.geo.database import GeoLocationDatabase
from repro.geo.datasets import (
    AREA_CONFIGS,
    AreaConfig,
    N_LA_CHANNELS,
    clear_coverage_cache,
    make_coverage_map,
    cached_database,
    make_database,
)
from repro.geo.grid import Cell, GridSpec
from repro.geo.io import load_coverage_map, save_coverage_map
from repro.geo.sensing import EnergyDetector, SensingReport
from repro.geo.summary import area_summary_table, channel_mode_counts
from repro.geo.propagation import (
    FCC_THRESHOLD_DBM,
    PRACTICAL_THRESHOLD_DBM,
    PropagationModel,
)
from repro.geo.terrain import shadowing_field
from repro.geo.transmitters import Transmitter, place_transmitters

__all__ = [
    "ChannelCoverage",
    "CoverageMap",
    "build_channel_coverage",
    "GeoLocationDatabase",
    "AREA_CONFIGS",
    "AreaConfig",
    "N_LA_CHANNELS",
    "clear_coverage_cache",
    "make_coverage_map",
    "cached_database",
    "make_database",
    "Cell",
    "GridSpec",
    "load_coverage_map",
    "save_coverage_map",
    "EnergyDetector",
    "SensingReport",
    "area_summary_table",
    "channel_mode_counts",
    "FCC_THRESHOLD_DBM",
    "PRACTICAL_THRESHOLD_DBM",
    "PropagationModel",
    "shadowing_field",
    "Transmitter",
    "place_transmitters",
]
