"""Experiment orchestration: evaluation grids, sweeps, reports, and the CLI."""
