"""Golden outputs of the command-line runs, compared byte for byte.

One small config per run kind and scheme goes through `cli.run` and
`cli.emit`; the sha256 of every deterministic file it writes (config.json,
report.json, energy.csv, errors.csv and the VTK files) must equal the stored
one. timing.csv holds wall times and is never pinned. One more test reruns a
film config, one 64x64x3 solve and one 64x64x3 stray field in a process held
to one BLAS thread and requires the same bytes: the outputs must not depend on
the thread count.

The fixture `data/golden_cli.json` is tied to the numpy/scipy builds, the
BLAS build and the CPU it was made on. To regenerate it, check out the commit whose outputs are
the reference and run, from the repo root,

    PYTHONPATH=src python tests/test_cli_golden.py

It prints each digest that differs from the fixture it overwrites.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from gspm2.cli import emit, run
from gspm2.config import ExperimentConfig

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden_cli.json")
FORMATS = ("csv", "json", "vtk")
UNPINNED = ("timing.csv",)

_FILM = {"params": {"eps": 0.05, "alpha": 0.1, "q": 0.3,
                    "h_ext": [0.0, 0.1, 0.0], "stray": True}}

CONFIGS = {
    "converge-time-1d": {
        "kind": "converge-time", "scheme": "scheme-a", "case": "mms-1d",
        "alpha": 0.01, "dx": 0.05, "t_final": 0.02,
        "dt_list": [0.002, 0.001, 0.0005]},
    "converge-time-3d": {
        "kind": "converge-time", "scheme": "scheme-b", "case": "mms-3d",
        "alpha": 0.1, "dx": 0.25, "t_final": 0.004,
        "dt_list": [0.001, 0.0005]},
    "converge-space": {
        "kind": "converge-space", "scheme": "si2", "case": "mms-1d",
        "alpha": 0.1, "dt": 1e-4, "t_final": 0.002,
        "dx_list": [0.25, 0.125, 0.0625]},
    "converge-2d": {
        "kind": "converge-2d", "scheme": "gspm1", "alpha": 0.01, "dx": 0.1,
        "t_final": 4e-5, "dt_divisors": [4, 8], "ref_divisor": 64},
    "stability": {
        "kind": "stability", "scheme": "scheme-b", "alpha": 1.0,
        "h_list": [0.1], "rounds": 3, "t_final": 0.5},
    "micromag-scheme-a": {
        "kind": "micromag", "alpha": 0.1, "grid": [8, 8, 2],
        "dt_seconds": 1e-12, "t_final_seconds": 4e-12, "snapshot_every": 2},
    "micromag-scheme-b-random": {
        "kind": "micromag", "scheme": "scheme-b", "alpha": 0.01,
        "grid": [8, 6, 2], "dt_seconds": 1e-12, "t_final_seconds": 3e-12,
        "initial": {"type": "random"}, "seed": 5},
    "solve-bdf2-ref-stray": dict(
        _FILM, kind="solve", scheme="bdf2-ref", grid=[6, 5, 2],
        domain=[1.0, 0.8, 0.1], initial={"type": "random"}, seed=3,
        dt=1e-3, n_steps=4, snapshot_every=2),
    "solve-gspm1-neel-wall": {
        "kind": "solve", "scheme": "gspm1", "grid": [10, 2, 1],
        "domain": [1.0, 0.2, 0.1], "params": {"eps": 1.0, "alpha": 0.01},
        "initial": {"type": "neel-wall"}, "dt": 1e-4, "n_steps": 5,
        "snapshot_every": 5},
    "solve-scheme-a-uniform": {
        "kind": "solve", "scheme": "scheme-a", "grid": [4, 3, 1],
        "params": {"eps": 1.0, "alpha": 0.1, "q": 1.0,
                   "h_ext": [0.5, 0.0, 0.0]},
        "initial": {"type": "uniform", "direction": [0.0, 0.6, 0.8]},
        "dt": 1e-3, "n_steps": 5},
}


def _digests(name):
    """{file name: sha256} of one config's emitted deterministic files."""
    cfg = ExperimentConfig.from_dict(CONFIGS[name])
    with tempfile.TemporaryDirectory() as out:
        paths = emit(run(cfg), out, FORMATS)
        digests = {}
        for path in paths:
            base = os.path.basename(path)
            if base not in UNPINNED:
                with open(path, "rb") as fh:
                    digests[base] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_byte_identical_to_fixture(golden, name):
    assert _digests(name) == golden[name]


def _film_solve_digest():
    """sha256 of one stacked solve on the 64x64x3 film grid, whose products
    are large enough for the BLAS to split across threads."""
    from gspm2.mesh import Grid
    from gspm2.spectral import build_plan, solve
    plan = build_plan(Grid(64, 64, 3, 1.0, 1.0, 0.02))
    f = np.random.default_rng(4).standard_normal((3, 64, 64, 3))
    return hashlib.sha256(solve(plan, f, 0.1, 0.01).tobytes()).hexdigest()


def _film_field_digest():
    """sha256 of one stray-field call on the 64x64x3 film grid, whose dense
    x transforms are the convolution's largest BLAS products."""
    from gspm2.mesh import Grid
    from gspm2.physics import build_demag_kernel, demag_field
    kernel = build_demag_kernel(Grid(64, 64, 3, 1.0, 1.0, 0.02))
    m = np.random.default_rng(5).standard_normal((3, 64, 64, 3))
    return hashlib.sha256(demag_field(kernel, m).tobytes()).hexdigest()


def test_outputs_independent_of_blas_thread_count():
    """A process held to one BLAS thread writes the same bytes as this one,
    which has the BLAS's default pool: the CSV/JSON/VTK outputs of a film
    run, one film solve and one film stray field agree bit for bit."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = ("import json, test_cli_golden as t; print(json.dumps("
            "[t._digests('micromag-scheme-a'), t._film_solve_digest(), "
            "t._film_field_digest()]))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, here]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == [_digests("micromag-scheme-a"), _film_solve_digest(),
                               _film_field_digest()]


def test_changes_names_each_differing_digest():
    old = {"x": {"a.csv": "0" * 64, "b.json": "1" * 64}}
    new = {"x": {"a.csv": "0" * 64, "b.json": "2" * 64}, "y": {"c.vtk": "3" * 64}}
    assert changes(old, new) == ["x/b.json: 111111111111 -> 222222222222",
                                 "y/c.vtk: absent -> 333333333333"]


def changes(old, new):
    """One line per config/file whose digest differs between two tables,
    with the first 12 hex digits of each."""
    lines = []
    for name in sorted(set(old) | set(new)):
        before, after = old.get(name, {}), new.get(name, {})
        for base in sorted(set(before) | set(after)):
            if before.get(base) != after.get(base):
                lines.append(f"{name}/{base}: {before.get(base, 'absent')[:12]} "
                             f"-> {after.get(base, 'absent')[:12]}")
    return lines


def regenerate(path=FIXTURE):
    """Overwrite the fixture; print each digest that differs from the old one."""
    table = {name: _digests(name) for name in sorted(CONFIGS)}
    old = {}
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
    lines = changes(old, table)
    for line in lines:
        print(line)
    print(f"{len(lines)} of {sum(map(len, table.values()))} digests differ "
          f"from the old fixture")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


if __name__ == "__main__":
    print(regenerate())
