"""Cost of one step in scalar solves: the paper's complexity claim, per grid.

The paper says a step costs about as much as solving the scalar biharmonic
equation implicitly: `scheme-a` makes five such solves a step and `scheme-b`
three, and the rest is pointwise work. With one BLAS thread, a random start,
eps = 1e-3, dt = 1e-4 and alpha = 0.1 on the 1 x 1 x 0.02 film, this prints
per grid the median milliseconds of one scalar solve (I - a Lap + a^2
Lap^2, a = eps dt), then per scheme the median milliseconds of one step
without the stray field and with it (its kernel built once, untimed), each
with its ratio to the solve: the figure ROADMAP item 10's "Done when" is
written in. Each median is over about a second of calls (five at least,
after one untimed call). The grid is 64x64x3, the thin-film workload's;
pass --production to add the 250x250x5 production grid. Run it on two
versions of the library to compare them.
"""

import os
import sys
import time

# one BLAS thread, set before numpy loads OpenBLAS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from gspm2 import Grid, build_demag_kernel  # noqa: E402
from gspm2.physics import MaterialParams  # noqa: E402
from gspm2.schemes import SchemeState, scheme_a_step, scheme_b_step  # noqa: E402
from gspm2.spectral import build_plan, solve  # noqa: E402

EPS, DT, ALPHA = 1e-3, 1e-4, 0.1
SCHEMES = {"scheme-a": scheme_a_step, "scheme-b": scheme_b_step}


def median_ms(call):
    """Median wall milliseconds of call() over about a second of calls."""
    call()
    times = []
    deadline = time.perf_counter() + 1.0
    while len(times) < 5 or time.perf_counter() < deadline:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * float(np.median(times))


def step_ms(step, m0, params, plan, kernel):
    """Median ms of one step, stepping on from a random start."""
    state = SchemeState.from_initial(m0)

    def advance():
        nonlocal state
        state = step(state, params, plan, DT, kernel=kernel)

    return median_ms(advance)


shapes = [(64, 64, 3)]
if "--production" in sys.argv:
    shapes.append((250, 250, 5))

rng = np.random.default_rng(9)
print(f"{'grid':>10} {'scheme':>9} {'solve ms':>9} {'step ms':>8} {'ratio':>6} "
      f"{'stray ms':>9} {'ratio':>6}")
for shape in shapes:
    grid = Grid(*shape, 1.0, 1.0, 0.02)
    plan = build_plan(grid)
    a = EPS * DT
    f = rng.standard_normal(shape)
    solve_ms = median_ms(lambda: solve(plan, f, a, a * a))
    m0 = rng.standard_normal((3,) + shape)
    m0 /= np.sqrt((m0 * m0).sum(axis=0))
    bare = MaterialParams(eps=EPS, alpha=ALPHA)
    stray = MaterialParams(eps=EPS, alpha=ALPHA, stray_enabled=True)
    kernel = build_demag_kernel(grid)
    name = "x".join(str(n) for n in shape)
    for scheme, step in SCHEMES.items():
        without = step_ms(step, m0, bare, plan, None)
        with_stray = step_ms(step, m0, stray, plan, kernel)
        print(f"{name:>10} {scheme:>9} {solve_ms:9.3f} {without:8.3f} "
              f"{without / solve_ms:6.2f} {with_stray:9.3f} "
              f"{with_stray / solve_ms:6.2f}")
