"""Shared acceptance reporting: every acceptance criterion records exactly
one PASS/FAIL line, echoed in the terminal summary of the run.

Every test also runs with POLYCF_CONSTANT_CACHE pointing at a file of its
session's own, so the oracle cache in the user's home is never read or
written."""

import pytest

ACCEPTANCE_RESULTS = []


@pytest.fixture(autouse=True, scope="session")
def _hermetic_constant_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("oracle") / "constants.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("POLYCF_CONSTANT_CACHE", str(path))
        yield path


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
