"""Cost of one stray-field convolution: whole `demag_field` calls per grid.

Builds the demag kernel of each grid and times whole `demag_field` calls on
a random m with one BLAS thread: the thin films (64x64x3, the thin-film
workload's grid; the single-layer 128x128x1 and 128x32x1, whose long x axis
over few cells is where the dense x products cost most) and the tall
columns of README's stray-field table, where the dense z products cost
most. Prints per grid the seconds of the one kernel build, the median
milliseconds per call over about a second of calls (five at least, after
one untimed call), the megabytes the kernel's six spectra hold, the build's
peak (the most memory a second, untimed build allocates through numpy,
tracemalloc, the spectra included) and the first 12 hex digits of the
sha256 of the field, so two versions' fields can be compared bit for bit.
Pass --production to add the 250x250x5 production grid, whose kernel build
(`build s`) is timed nowhere else, and the 500x125x1 film, the longest x
axis here: no benchmark workload runs either grid. Run it on two versions
of the library to compare them.
"""

import hashlib
import os
import sys
import time
import tracemalloc

# one BLAS thread, set before numpy loads OpenBLAS
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from gspm2 import Grid, build_demag_kernel, demag_field  # noqa: E402

shapes = [(64, 64, 3), (128, 128, 1), (128, 32, 1), (2, 3, 17), (16, 16, 24), (16, 16, 32),
          (32, 32, 32), (64, 64, 64), (8, 8, 64), (4, 4, 128)]
if "--production" in sys.argv:
    shapes += [(250, 250, 5), (500, 125, 1)]

print(f"{'grid':>12} {'build s':>8} {'ms/call':>9} {'kernel MB':>10} "
      f"{'peak MiB':>9} {'calls':>6} {'field sha256':>12}")
for shape in shapes:
    start = time.perf_counter()
    kernel = build_demag_kernel(Grid(*shape, *(float(n) for n in shape)))
    build = time.perf_counter() - start
    m = np.random.default_rng(8).standard_normal((3,) + shape)
    digest = hashlib.sha256(demag_field(kernel, m).tobytes()).hexdigest()[:12]
    times = []
    deadline = time.perf_counter() + 1.0
    while len(times) < 5 or time.perf_counter() < deadline:
        start = time.perf_counter()
        demag_field(kernel, m)
        times.append(time.perf_counter() - start)
    mb = sum(a.nbytes for a in kernel.fft.values()) / 1e6
    tracemalloc.start()
    build_demag_kernel(kernel.grid)
    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
    tracemalloc.stop()
    name = "x".join(str(n) for n in shape)
    print(f"{name:>12} {build:8.3f} {1e3 * np.median(times):9.3f} {mb:10.2f} "
          f"{peak:9.2f} {len(times):6d} {digest:>12}")
