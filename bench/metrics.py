"""Metric catalogue and the computation of each metric from one run.

End-to-end metrics come from an untraced run; per-layer metrics from the
traced part of a `--trace 1` run (see instrument.py). The end-to-end times
are scaled to the reference machine's speed by the reference chunks timed
during the run (see reference.py); the per-layer ones are raw. Per-call
figures count only calls made inside operations (set-up and stepping), not
the checks.
"""

from __future__ import annotations

import resource
import statistics

from instrument import NO_SPAN, STEPPERS, TRACED

END_TO_END = {
    "setup_s": "s",
    "step_ms": "ms",
    "error_inf": "1",
    "cfl_const": "1",
    "peak_rss_mb": "MB",
}

LAYER_MODULES = tuple(TRACED)

PER_LAYER = {
    "physics.build_demag_kernel_s": "s",
    "physics.kernel_mb": "MB",
    "physics.demag_field_ms": "ms",
    "physics.demag_field_per_step": "count",
    "physics.energy_self_ms": "ms",
    "physics.local_field_self_ms": "ms",
    "spectral.solve_us": "us",
    "spectral.solve_self_us": "us",
    "spectral.solves_per_step": "count",
    "schemes.step_self_ms": "ms",
    "manufactured.source_ms": "ms",
    "convergence.integrate_self_us": "us",
    "cli.emit_s": "s",
    "io.bytes_written_mb": "MB",
    **{f"{mod}.self_ms_per_step": "ms" for mod in LAYER_MODULES},
    "trace.untraced_ms_per_step": "ms",
    "trace.step_ms": "ms",
    "trace.overhead_ms": "ms",
}


def _rss_mb():
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def end_to_end(inst, workload):
    scale = inst.reference.scale()
    values = {
        "setup_s": statistics.median(inst.setups) * scale,
        "step_ms": inst.step_ms() * scale,
        "error_inf": workload.error_inf,
        "cfl_const": workload.cfl_const,
        "peak_rss_mb": _rss_mb(),
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def per_layer(inst, untraced_step_ms, workload):
    t = inst.tracer
    steps = max(inst.steps, 1)

    def per_call(name, self_only=False):
        n = t.count(name)
        if n == 0:
            return 0.0
        return (t.self_of(name) if self_only else t.duration(name)) / n

    def per_step(total):
        return total / steps

    def module_step_self(mod):
        return sum(v for (name, phase), v in t.self_time.items()
                   if phase == "step" and name.startswith(mod + "."))

    kernels = inst.kernels
    values = {
        "physics.build_demag_kernel_s": per_call("physics.build_demag_kernel"),
        "physics.kernel_mb": (sum(a.nbytes for a in kernels[-1].fft.values()) / 1e6
                              if kernels else 0.0),
        "physics.demag_field_ms": per_call("physics.demag_field") * 1e3,
        "physics.demag_field_per_step":
            per_step(t.count("physics.demag_field", ("step",))),
        "physics.energy_self_ms": per_call("physics.energy", True) * 1e3,
        "physics.local_field_self_ms": per_call("physics.local_field", True) * 1e3,
        "spectral.solve_us": per_call("spectral.solve") * 1e6,
        "spectral.solve_self_us": per_call("spectral.solve", True) * 1e6,
        "spectral.solves_per_step": per_step(t.count("spectral.solve", ("step",))),
        "schemes.step_self_ms": per_step(sum(
            t.self_of(f"schemes.{s}", ("step",))
            for s in STEPPERS + ("scheme_b_init",))) * 1e3,
        "manufactured.source_ms": per_call("manufactured.source") * 1e3,
        "convergence.integrate_self_us":
            per_step(t.self_of("convergence.integrate", ("step",))) * 1e6,
        "cli.emit_s": per_call("cli.emit"),
        "io.bytes_written_mb": (statistics.mean(workload.bytes_written) / 1e6
                                if workload.bytes_written else 0.0),
        **{f"{mod}.self_ms_per_step": per_step(module_step_self(mod)) * 1e3
           for mod in LAYER_MODULES},
        "trace.untraced_ms_per_step":
            per_step(t.self_of(NO_SPAN, ("step",))) * 1e3,
        "trace.step_ms": inst.step_ms(),
        "trace.overhead_ms": inst.step_ms() - untraced_step_ms,
    }
    return {k: {"value": float(values[k]), "unit": PER_LAYER[k]} for k in PER_LAYER}
