"""Shared acceptance reporting: every acceptance criterion records exactly
one PASS/FAIL line, echoed in the terminal summary of the run."""

ACCEPTANCE_RESULTS = []


def record_criterion(name, ok, detail=""):
    ACCEPTANCE_RESULTS.append((name, bool(ok), detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        line = f"{name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
