import sys
from pathlib import Path

from hypothesis import settings

# test-local helpers (oracles.py) live next to the tests
sys.path.insert(0, str(Path(__file__).parent))

# property tests draw the same examples on every run, with no time limit
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qfclab"


def src_line_count() -> int:
    """What ``wc -l src/qfclab/*.py src/qfclab/*/*.py`` totals."""
    files = [*PACKAGE.glob("*.py"), *PACKAGE.glob("*/*.py")]
    return sum(path.read_bytes().count(b"\n") for path in files)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of the run, then the src/ line count."""
    try:
        from test_acceptance import CRITERION_RESULTS
    except ImportError:
        CRITERION_RESULTS = []
    if CRITERION_RESULTS:
        terminalreporter.write_sep("=", "acceptance criteria")
    for number, name, status, detail in sorted(CRITERION_RESULTS):
        pad = "." * max(2, 44 - len(name))
        line = f"[{number:2d}] {name} {pad} {status}"
        if detail:
            line += f"   ({detail})"
        terminalreporter.write_line(line)
    terminalreporter.write_line(f"src/ lines (wc -l src/qfclab/*.py src/qfclab/*/*.py): "
                                f"{src_line_count():,}")

