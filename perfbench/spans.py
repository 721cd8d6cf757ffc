"""In-memory span recording around actx's public functions, and span analysis.

A span is ``[name, start_ns, end_ns, parent, run_id, work]``: ``parent`` is
the index of the enclosing span in the same list (-1 for a root) and
``work`` is a size the wrapper measured (nodes stepped, bytes written or
read, bytes of retained frames), 0 where none applies. Spans are kept in a
list while the program runs and written out once, at the end.

``install`` wraps every public function defined in the traced modules, plus
the three methods the per-layer metrics need (``DoubleWell.eval``,
``EnergyMeasure.from_phase`` and each transport's ``velocity``). A module
that imported a function by name (``from .grid import laplacian``) holds its
own reference, so the wrapper replaces the name in every actx module that
holds the same object, not only in the defining one.

``solver.row`` spans are synthesised rather than wrapped: one runs from the
end of each scheduled step (step index a multiple of ``diag_every``) to the
start of the next step, or to the end of ``solver.run`` after the last one.
The diagnostics row, the frame copy and any snapshot write of that step fall
inside it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("grid", "potential", "scenario", "solver", "measures", "interface", "cli")

# (module, class, method) -> span name
METHODS = {
    ("potential", "DoubleWell", "eval"): "potential.eval",
    ("measures", "EnergyMeasure", "from_phase"): "measures.energy",
}
TRANSPORT_METHOD = "velocity"  # every Transport subclass in scenario -> scenario.velocity


class Recorder:
    """Collects spans of one traced invocation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._row: int | None = None
        self._diag_every = 0

    def open(self, name: str, start: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        start = time.perf_counter_ns() if start is None else start
        self.spans.append([name, start, 0, parent, self.run_id, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, work: float = 0) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter_ns()
        span[5] = work
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")

    def _close_row(self) -> None:
        if self._row is not None:
            self.close(self._row)
            self._row = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            work = 0
            try:
                result = fn(*args, **kwargs)
                work = _work(name, args, result)
                return result
            finally:
                self.close(idx, work)

        return traced

    def wrap_step(self, fn):
        @functools.wraps(fn)
        def traced(state, *args, **kwargs):
            self._close_row()
            idx = self.open("solver.step")
            try:
                result = fn(state, *args, **kwargs)
            finally:
                self.close(idx, state.phi.values.size)
            if self._diag_every and result.step_index % self._diag_every == 0:
                self._row = self.open("solver.row", self.spans[idx][2])
            return result

        return traced

    def wrap_run(self, fn):
        @functools.wraps(fn)
        def traced(cfg, solver=None, *args, **kwargs):
            outer = self._diag_every
            config = solver if solver is not None else sys.modules["actx.solver"].SolverConfig()
            self._diag_every = config.diag_every
            idx = self.open("solver.run")
            work = 0
            try:
                result = fn(cfg, solver, *args, **kwargs)
                work = sum(f.values.nbytes for f in result.trajectory.frames)
                return result
            finally:
                self._close_row()
                self._diag_every = outer
                self.close(idx, work)

        return traced


def _work(name: str, args, result) -> float:
    if name == "grid.write_field":
        return args[1].values.nbytes
    if name == "grid.read_field":
        return result[0].values.nbytes
    return 0


def install(recorder: Recorder) -> None:
    """Wrap the traced functions and methods of the imported actx modules."""
    mods = {m: sys.modules[f"actx.{m}"] for m in MODULES}
    holders = [mod for key, mod in sys.modules.items() if key == "actx" or key.startswith("actx.")]
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            if name == "solver.step":
                wrapped = recorder.wrap_step(fn)
            elif name == "solver.run":
                wrapped = recorder.wrap_run(fn)
            else:
                wrapped = recorder.wrap(name, fn)
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is fn:
                        setattr(holder, key, wrapped)
    for (short, cls_name, meth), name in METHODS.items():
        cls = getattr(mods[short], cls_name)
        _wrap_method(recorder, cls, meth, name)
    base = mods["scenario"].Transport
    for cls in [base, *_subclasses(base)]:
        if TRANSPORT_METHOD in vars(cls):
            _wrap_method(recorder, cls, TRANSPORT_METHOD, "scenario.velocity")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _wrap_method(recorder: Recorder, cls, meth: str, name: str) -> None:
    raw = vars(cls)[meth]
    if isinstance(raw, classmethod):
        setattr(cls, meth, classmethod(recorder.wrap(name, raw.__func__)))
    else:
        setattr(cls, meth, recorder.wrap(name, raw))


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover (ns)."""
    covered = [0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            covered[parent] += span[2] - span[1]
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def enclosing(spans: list[list], names: tuple[str, ...]) -> list[str | None]:
    """For each span, the name of its nearest proper ancestor among ``names``."""
    out: list[str | None] = []
    for span in spans:
        parent = span[3]
        found = None
        while parent >= 0:
            pname = spans[parent][0]
            if pname in names:
                found = pname
                break
            parent = spans[parent][3]
        out.append(found)
    return out


def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for an empty one)."""
    if not sorted_vals:
        return 0.0
    k = max(0, min(len(sorted_vals) - 1, int(-(-q * len(sorted_vals) // 100)) - 1))
    return sorted_vals[k]


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per-name totals of one traced invocation (times in seconds).

    ``calls``, ``busy`` (sum of durations), ``self`` (sum of self times),
    ``work`` (sum of work sizes), ``max_work``, ``durations`` (list), and
    ``in_step`` / ``in_row``: how many of the calls ran inside a step or a
    row span.
    """
    selfs = self_times(spans)
    phase = enclosing(spans, ("solver.step", "solver.row"))
    out: dict[str, dict] = {}
    for span, st, ph in zip(spans, selfs, phase):
        entry = out.setdefault(span[0], {"calls": 0, "busy": 0.0, "self": 0.0, "work": 0.0,
                                         "max_work": 0.0, "durations": [],
                                         "in_step": 0, "in_row": 0})
        dur = (span[2] - span[1]) * 1e-9
        entry["calls"] += 1
        entry["busy"] += dur
        entry["self"] += st * 1e-9
        entry["work"] += span[5]
        entry["max_work"] = max(entry["max_work"], span[5])
        entry["durations"].append(dur)
        entry["in_step"] += ph == "solver.step"
        entry["in_row"] += ph == "solver.row"
    return out


def root_total(spans: list[list]) -> float:
    """Seconds covered by root spans (they do not overlap)."""
    return sum(s[2] - s[1] for s in spans if s[3] < 0) * 1e-9
