"""Hooks on gspm2's public functions, installed through module attributes.

Nothing under src/ is edited: each hooked function is replaced, for the life
of one `Instrument.install()`, in every gspm2 module namespace (and module
level dict, such as the scheme registry of `gspm2.convergence`) that holds
it, and in its class for methods. `restore()` puts the originals back.

Two levels:

- light (always on): counts time steps, ends an operation's set-up at its
  first step, and keeps the demag kernels and integration results that the
  workload checks read. O(1) work per hooked call; only the steppers,
  `build_demag_kernel` and `integrate` are hooked.
- reference (untraced runs): every REFERENCE_EVERY_S of stepping, a step
  hook runs one chunk of `reference.Reference` before the step. Its time is
  taken out of the operation's, and the run's times are scaled by it (see
  reference.py).
- traced: every function in `TRACED` additionally opens a span. Elapsed time
  is charged, event by event, to the innermost open span and the current
  phase ("setup", "step" or "idle"), so a span's self time is its duration
  minus the part its child spans cover, and the self times of all names plus
  the time spent with no span open add up to the wall time of each phase.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# functions that advance one time step; the first call in an operation ends
# its set-up
STEPPERS = ("gspm1_step", "si2_step", "scheme_a_step", "scheme_b_step",
            "bdf2_reference_step")

# module -> public functions (Class.method for methods) wrapped in a traced run
TRACED = {
    "cli": ("run", "emit"),
    "io": ("write_csv", "write_json", "write_vtk_structured_points"),
    "physics": ("build_demag_kernel", "demag_field", "local_field", "energy"),
    "spectral": ("build_plan", "solve", "SpectralPlan.forward",
                 "SpectralPlan.inverse"),
    "schemes": STEPPERS + ("scheme_b_init",),
    "manufactured": ("ManufacturedCase.source",),
    "convergence": ("integrate", "run_time_convergence", "stability_scan",
                    "classify_stability", "observed_order"),
}

LIGHT = {
    "schemes": STEPPERS,
    "physics": ("build_demag_kernel",),
    "convergence": ("integrate",),
}

NO_SPAN = "untraced"     # owner of time during which no span is open
REFERENCE_EVERY_S = 0.25  # stepping time between two reference chunks
MAX_SPANS = 50_000       # spans kept for the dump; later ones are still timed
PACKAGE = "gspm2"
MODULES = ("cli", "config", "convergence", "io", "manufactured", "mesh",
           "physics", "schemes", "spectral")


class Tracer:
    """Spans kept in memory, with self time charged per (name, phase)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []                    # [name, start, end, parent index]
        self.dropped = 0                   # spans beyond MAX_SPANS
        self.calls = defaultdict(int)      # (name, phase at entry) -> calls
        self.total = defaultdict(float)    # (name, phase at entry) -> duration, s
        self.self_time = defaultdict(float)  # (name or NO_SPAN, phase) -> s
        self.phase = "idle"
        self._stack = []                   # (name, start, span index, phase)
        self._last = clock()

    def _charge(self, now):
        owner = self._stack[-1][0] if self._stack else NO_SPAN
        self.self_time[(owner, self.phase)] += now - self._last
        self._last = now

    def set_phase(self, phase, now):
        """Switch phase at `now`, a reading of this tracer's clock."""
        self._charge(now)
        self.phase = phase

    def enter(self, name):
        now = self.clock()
        self._charge(now)
        self.calls[(name, self.phase)] += 1
        idx = -1
        if len(self.spans) < MAX_SPANS:
            parent = self._stack[-1][2] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([name, now, None, parent])
        else:
            self.dropped += 1
        self._stack.append((name, now, idx, self.phase))

    def exit(self):
        now = self.clock()
        self._charge(now)
        name, start, idx, phase = self._stack.pop()
        self.total[(name, phase)] += now - start
        if idx >= 0:
            self.spans[idx][2] = now

    @staticmethod
    def _sum(table, name, phases):
        return sum(v for (nm, ph), v in table.items()
                   if nm == name and ph in phases)

    def count(self, name, phases=("setup", "step")):
        """Calls of `name` that began in one of `phases`."""
        return self._sum(self.calls, name, phases)

    def duration(self, name, phases=("setup", "step")):
        """Summed duration of the calls of `name` that began in `phases`."""
        return self._sum(self.total, name, phases)

    def self_of(self, name, phases=("setup", "step")):
        """Time charged to `name` (or NO_SPAN) while in one of `phases`."""
        return self._sum(self.self_time, name, phases)


class Instrument:
    """Light hooks, optional tracing, and per-operation set-up/step timing."""

    def __init__(self, reference=None):
        self.tracer = None
        self.reference = reference
        self.paused = 0.0         # reference chunks run inside operations, s
        self._op_paused = 0.0
        self._next_chunk = 0.0
        self.steps = 0
        self.op_wall = 0.0        # summed wall time of operations, s
        self.setups = []          # per operation: time before its first step, s
        self.kernels = []         # DemagKernel objects built
        self.results = []         # IntegrationResult objects returned
        self._undo = []
        self._op_start = None
        self._in_setup = False

    # ---- operations ---------------------------------------------------

    # phase switches share one clock reading with the tracer, so its step
    # phase covers exactly the time counted here as stepping

    def begin_op(self):
        now = time.perf_counter()
        self._set_phase("setup", now)
        self._in_setup = True
        self._op_start = now
        self._op_paused = self.paused

    def end_op(self):
        now = time.perf_counter()
        if self._in_setup:          # no step taken: the whole operation was set-up
            self.setups.append(now - self._op_start)
            self._in_setup = False
        self.op_wall += now - self._op_start - (self.paused - self._op_paused)
        self._op_start = None
        self._set_phase("idle", now)

    def _set_phase(self, phase, now):
        if self.tracer is not None:
            self.tracer.set_phase(phase, now)

    def _on_step(self):
        if self._in_setup:
            now = time.perf_counter()
            self.setups.append(now - self._op_start)
            self._in_setup = False
            self._set_phase("step", now)
        self.steps += 1
        if self.reference is not None:
            now = time.perf_counter()
            if now >= self._next_chunk:
                self.reference.chunk()
                end = time.perf_counter()
                self.paused += end - now
                self._next_chunk = end + REFERENCE_EVERY_S

    def step_ms(self):
        """Wall time after set-up of all operations over all their steps, ms."""
        return (self.op_wall - sum(self.setups)) / max(self.steps, 1) * 1e3

    # ---- patching -----------------------------------------------------

    def install(self, traced=False):
        """Wrap the light hooks, and every TRACED function if traced."""
        if self._undo:
            raise RuntimeError("instrument already installed")
        if traced:
            self.tracer = Tracer()
        table = TRACED if traced else LIGHT
        for mod_name, names in table.items():
            for qual in names:
                self._patch(mod_name, qual)

    def restore(self):
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo = []

    def _patch(self, mod_name, qual):
        module = importlib.import_module(f"{PACKAGE}.{mod_name}")
        span = f"{mod_name}.{qual.split('.')[-1]}"
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrapper(span, original))
            return
        original = getattr(module, qual)
        wrapper = self._wrapper(span, original)
        namespaces = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._undo.append((ns, key, original))
                    setattr(ns, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, original))
                            value[k] = wrapper

    def _wrapper(self, span, fn):
        name = span.split(".")[-1]
        is_step = name in STEPPERS
        keep = {"build_demag_kernel": self.kernels,
                "integrate": self.results}.get(name)
        on_step = self._on_step
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if is_step:
                on_step()
            if tracer is None:
                out = fn(*args, **kwargs)
            else:
                tracer.enter(span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.exit()
            if keep is not None:
                keep.append(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper
