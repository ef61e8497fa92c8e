"""Golden results of every scheme, compared bit for bit.

Five schemes run through `integrate` on five small input families: exchange
only; anisotropy plus an applied field; the sourced 1D bump; the sourced 3D
case; a 6x5x2 film with the stray field on. The final m_curr, m_prev and the
carried fields (g_prev, d_prev, f_prev, f_curr, where a run has them) and
the solve count must equal the stored ones exactly, so a refactor of the
integrators that changes a single rounding fails here.

The fixture `data/golden_schemes.npz` is tied to the numpy/scipy builds, the
BLAS build (the spectral solves transform short axes by matrix products) and
the CPU it was made on. To regenerate it, check out the commit whose results
are the reference and run, from the repo root,

    PYTHONPATH=src python tests/test_golden.py

It prints each entry that differs from the fixture it overwrites, with the
largest absolute difference.
"""

import os

import numpy as np
import pytest

from gspm2.convergence import integrate
from gspm2.manufactured import case_1d, case_3d
from gspm2.mesh import Grid, sample_vector
from gspm2.physics import MaterialParams, build_demag_kernel

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_schemes.npz")
SCHEMES = ("gspm1", "si2", "scheme-a", "scheme-b", "bdf2-ref")
FAMILIES = ("exchange", "field", "mms-1d", "mms-3d", "stray-film")
FIELDS = ("m_curr", "m_prev", "g_prev", "d_prev", "f_prev", "f_curr")
N_STEPS = 5


def _random_unit(grid, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3,) + grid.shape)
    return m / np.sqrt((m * m).sum(axis=0))


def _manufactured(case, grid):
    return sample_vector(grid, lambda X, Y, Z: case.exact(X, Y, Z, 0.0))


def _family(name):
    """(grid, params, m0, dt, kernel, source) of one input family."""
    if name in ("exchange", "field"):
        grid = Grid(4, 3, 2, 1.0, 0.75, 0.5)
        extra = {"q": 2.0, "h_ext": (0.0, 0.5, 0.0)} if name == "field" else {}
        params = MaterialParams(eps=1.0, alpha=0.1, **extra)
        return grid, params, _random_unit(grid, 11), 1e-3, None, None
    if name in ("mms-1d", "mms-3d"):
        case, grid, dt = ((case_1d(0.1), Grid.line(16), 1e-4) if name == "mms-1d"
                          else (case_3d(0.1), Grid.cube(4), 1e-3))
        params = MaterialParams(eps=1.0, alpha=case.alpha)
        return grid, params, _manufactured(case, grid), dt, None, case.source
    grid = Grid(6, 5, 2, 1.0, 0.8, 0.1)
    params = MaterialParams(eps=0.05, alpha=0.1, q=0.3, h_ext=(0.0, 0.1, 0.0),
                            stray_enabled=True)
    return grid, params, _random_unit(grid, 31), 1e-3, build_demag_kernel(grid), None


def _run(scheme, family):
    """{key: array} of one run's final state and solve count."""
    grid, params, m0, dt, kernel, source = _family(family)
    res = integrate(scheme, m0, grid, params, dt, N_STEPS, kernel=kernel,
                    source=source)
    out = {f"{family}__{scheme}__solve_count": np.array(res.solve_count)}
    for name in FIELDS:
        value = getattr(res.state, name)
        if value is not None:
            out[f"{family}__{scheme}__{name}"] = value
    return out


@pytest.fixture(scope="module")
def golden():
    with np.load(FIXTURE) as data:
        return dict(data)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_bitwise_equal_to_fixture(golden, scheme, family):
    got = _run(scheme, family)
    prefix = f"{family}__{scheme}__"
    assert sorted(got) == sorted(k for k in golden if k.startswith(prefix))
    for key, value in got.items():
        assert value.shape == golden[key].shape, key
        assert np.array_equal(value, golden[key]), key


def test_changes_names_each_differing_entry():
    old = {"a": np.zeros(2), "b": np.ones(2), "c": np.zeros(1), "s": np.zeros(2)}
    new = {"a": np.array([0.0, 1e-15]), "b": np.ones(2), "d": np.zeros(1),
           "s": np.zeros(3)}
    assert changes(old, new) == ["a: max abs difference 1e-15", "c: removed",
                                 "d: added", "s: shape (2,) -> (3,)"]


def changes(old, new):
    """One line per entry that differs between two {key: array} tables, with
    the largest absolute difference where the shapes agree."""
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in new or key not in old:
            lines.append(f"{key}: {'removed' if key in old else 'added'}")
        elif old[key].shape != new[key].shape:
            lines.append(f"{key}: shape {old[key].shape} -> {new[key].shape}")
        elif not np.array_equal(old[key], new[key]):
            diff = np.abs(new[key].astype(float) - old[key].astype(float)).max()
            lines.append(f"{key}: max abs difference {diff:.3g}")
    return lines


def regenerate(path=FIXTURE):
    """Overwrite the fixture; print each entry that differs from the old one."""
    arrays = {}
    for family in FAMILIES:
        for scheme in SCHEMES:
            arrays.update(_run(scheme, family))
    old = {}
    if os.path.exists(path):
        with np.load(path) as data:
            old = dict(data)
    lines = changes(old, arrays)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {len(arrays)} entries differ from the old fixture")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, **arrays)
    return path


if __name__ == "__main__":
    print(regenerate())
