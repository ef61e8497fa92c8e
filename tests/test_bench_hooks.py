"""The benchmark's hook points still exist in the package.

`bench/instrument.py` wraps the functions named in its `TRACED` and `LIGHT`
tables by module attribute, including the scheme registry's entries, and
the benchmark's checks count the calls it sees: one module-level
`integrate` per step size of a temporal study, and the probes of a CFL
bisection. A refactor that renames a hooked function, or calls it other
than through its module, would make those hooks miss silently.
"""

import importlib
import importlib.util
import os

import pytest

from gspm2 import convergence, schemes
from gspm2.manufactured import case_1d

INSTRUMENT = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench",
                          "instrument.py")


@pytest.fixture(scope="module")
def instrument():
    spec = importlib.util.spec_from_file_location("bench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_resolves(instrument):
    for table in (instrument.TRACED, instrument.LIGHT):
        for mod_name, names in table.items():
            module = importlib.import_module(f"{instrument.PACKAGE}.{mod_name}")
            for qual in names:
                target = module
                for part in qual.split("."):
                    target = getattr(target, part, None)
                assert callable(target), f"{mod_name}.{qual}"


def test_registry_holds_the_hooked_steppers(instrument):
    hooked = {getattr(schemes, name) for name in instrument.STEPPERS}
    assert set(convergence._STEPPERS.values()) <= hooked


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_module_integrate_per_step_size(monkeypatch):
    calls = _counting(monkeypatch, convergence, "integrate")
    dt_list = [0.004, 0.002, 0.001]
    report = convergence.run_time_convergence("scheme-a", case_1d(0.01), 0.1,
                                              dt_list, 0.02)
    assert len(calls) == len(dt_list) == len(report.points)


def test_each_stability_probe_calls_classify(monkeypatch):
    calls = _counting(monkeypatch, convergence, "classify_stability")
    report = convergence.stability_scan("scheme-b", case_1d(1.0), [0.1],
                                        t_final=0.5, rounds=2)
    # both bracket ends, then one probe per bisection round
    assert len(calls) == len(report.rows[0].probes) == 2 + 2
