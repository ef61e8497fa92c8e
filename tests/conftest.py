import pytest

ACCEPTANCE_LINES = []


def record_acceptance(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" -- {detail}" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def demag_calls(monkeypatch):
    """A list that grows by one entry per demag_field call, whether made
    directly by the integrators or through local_field/energy."""
    from gspm2 import physics, schemes
    calls = []
    demag_field = physics.demag_field

    def counted(kernel, m):
        calls.append(1)
        return demag_field(kernel, m)

    monkeypatch.setattr(schemes, "demag_field", counted)
    monkeypatch.setattr(physics, "demag_field", counted)
    return calls
