from .tiles import TileGrid, concatenate, parse_ascii, render_ascii
from .decoder import DecoderParams, decode_levels, decoder_params
from .metrics import (
    GapReport, LeniencyBreakdown, decoration_frequency, detect_gaps,
    enemy_distribution, leniency, negative_space, position_distribution,
)
from .sim import (
    AGENT_KINDS, SimulationResult, air_time, basic_fitness, simulate,
    time_taken,
)

__all__ = [
    "TileGrid", "concatenate", "parse_ascii", "render_ascii",
    "DecoderParams", "decode_levels", "decoder_params",
    "GapReport", "LeniencyBreakdown", "decoration_frequency", "detect_gaps",
    "enemy_distribution", "leniency", "negative_space",
    "position_distribution",
    "AGENT_KINDS", "SimulationResult", "air_time", "basic_fitness",
    "simulate", "time_taken",
]
