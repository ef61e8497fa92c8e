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
    """A list that grows by one entry per demag_field call; `local_field` is
    its one caller in the package, so this counts every convolution."""
    from gspm2 import physics
    calls = []
    demag_field = physics.demag_field

    def counted(kernel, m):
        calls.append(1)
        return demag_field(kernel, m)

    monkeypatch.setattr(physics, "demag_field", counted)
    return calls


@pytest.fixture
def local_field_calls(monkeypatch):
    """A list that grows by one entry per local_field call, whether made by
    the integrators or through energy."""
    from gspm2 import physics, schemes
    calls = []
    local_field = physics.local_field

    def counted(*args, **kwargs):
        calls.append(1)
        return local_field(*args, **kwargs)

    monkeypatch.setattr(schemes, "local_field", counted)
    monkeypatch.setattr(physics, "local_field", counted)
    return calls
