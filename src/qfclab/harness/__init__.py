"""Experiment orchestration: evaluation grids, sweeps, reports, and the CLI."""

from .config import SweepConfig, desk_scale, parse_config_file, table_defaults
from .evaluate import (
    CellResult,
    MissingCheckpointError,
    cell_seed,
    evaluate,
    sweep,
    threshold_alpha,
)
from .report import emit_report, parse_results_csv
