import sys
from pathlib import Path

from hypothesis import settings

# test-local helpers (oracles.py) live next to the tests
sys.path.insert(0, str(Path(__file__).parent))

# property tests draw the same examples on every run, with no time limit
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of the run."""
    try:
        from test_acceptance import CRITERION_RESULTS
    except ImportError:
        return
    if not CRITERION_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, name, status, detail in sorted(CRITERION_RESULTS):
        pad = "." * max(2, 44 - len(name))
        line = f"[{number:2d}] {name} {pad} {status}"
        if detail:
            line += f"   ({detail})"
        terminalreporter.write_line(line)

