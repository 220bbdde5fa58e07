"""Shared test helper: acceptance reporting."""

_CRITERION_LINES = []


def record_criterion(number, name, passed, detail):
    """Build, remember and return one acceptance result line."""
    line = f"criterion {number:2d} {'PASS' if passed else 'FAIL'}  {name}: {detail}"
    _CRITERION_LINES.append(line)
    return line


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _CRITERION_LINES:
        terminalreporter.write_line(line)
