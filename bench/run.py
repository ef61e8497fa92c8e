"""Run one workload of the gspm2 benchmark and print its metrics.

    python3 bench/run.py --workload thin-film --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its src/
directory. Workloads: thin-film, mms-1d-fine, small-grid (see README.md
beside this file). Rounds of the workload's operations repeat while the next
round is expected to end within --seconds (at least one round).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. The end-to-end times are scaled to the reference
machine's speed by a fixed computation timed between steps (reference.py);
stderr gives them unscaled too. A traced run spends half its time untraced,
then half traced, reports the difference in step time as the tracing
overhead, and writes its spans to .bench_out/. Before its first round, a
workload may run untimed warm-up operations (workloads.py).
"""

from __future__ import annotations

import os

# one thread per process, set before numpy loads its thread pools
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def log(message):
    print(f"bench: {message}", file=sys.stderr, flush=True)


def run_rounds(workload, inst, tally, budget_s):
    """Whole rounds while the next one is expected to end within budget_s."""
    start = time.perf_counter()
    rounds = 0
    while True:
        workload.run_round(inst, tally)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > budget_s:
            return rounds


def write_spans(tracer, path, header):
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [[name, start - t0, end - t0, parent]
             for name, start, end, parent in tracer.spans]
    with open(path, "w") as fh:
        json.dump({**header, "dropped": tracer.dropped, "spans": spans}, fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: the harness self-test's sizes")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gspm2", "__init__.py")):
        log(f"package sources not found under {SRC}")
        return 2
    sys.path.insert(0, SRC)
    import metrics
    from instrument import Instrument
    from reference import Reference
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}")
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT, tiny=args.scale == "tiny")
    tally = Tally(log)

    warm = Instrument()
    warm.install()
    try:
        workload.warm_up(warm, Tally(lambda _: None))
    finally:
        warm.restore()
    inst = Instrument(Reference())
    inst.install()
    try:
        run_rounds(workload, inst, tally,
                   args.seconds / 2 if args.trace else args.seconds)
    finally:
        inst.restore()
    if args.trace:
        traced = Instrument()
        traced.install(traced=True)
        try:
            run_rounds(workload, traced, tally, args.seconds / 2)
        finally:
            traced.restore()
        values = metrics.per_layer(traced, inst.step_ms(), workload)
        write_spans(traced.tracer,
                    os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed})
    else:
        values = metrics.end_to_end(inst, workload)

    ref = inst.reference
    log(f"{ref.chunks} reference chunks, mean {ref.mean_s() * 1e3:.3f} ms ("
        + ", ".join(f"{k} {sum(t) / len(t) * 1e3:.4f}" for k, t in ref.times.items())
        + f"), scale {ref.scale():.4f}; "
        f"unscaled step_ms {inst.step_ms():.6g}, "
        f"setup_s {statistics.median(inst.setups):.6g}")
    for name, metric in values.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
