"""In-memory span tracing of the sma_bimorph layers, from outside the package.

Each traced layer is a public function; install() wraps it and rebinds the
wrapper under every name that any sma_bimorph module bound to the original
(run_mode_trace, for one, is bound in mechanics, metrology, calibration and
cli).  A span records its name, start, end, parent, thread id, run id and
the thread CPU time spent inside it.  Spans stay in memory until the
caller writes them out.  Layer busy times are self times on the thread CPU
clock (see self_times).

A span opened on a thread with no open span of its own (a sweep pool
worker) takes as parent the innermost open span of the thread that began
the run, so pool cells hang under run_sweep.
"""

import functools
import importlib
import itertools
import json
import math
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    run: int
    start: float            # s, time.perf_counter
    end: float = math.nan   # s
    cpu_s: float = 0.0      # thread CPU time inside the span (time.thread_time)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_run(self) -> int:
        """Start a new run id; the calling thread becomes the home thread."""
        self.run_id += 1
        self._home = self._stack()
        return self.run_id

    def wrap(self, name, func, record=None):
        """func wrapped in a span; record(attrs, args, kwargs, result) runs
        after the span has closed, so its cost stays out of the layer."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            owner = stack or tracer._home
            parent = owner[-1].id if owner else None
            span = Span(next(tracer._ids), name, parent, threading.get_ident(),
                        tracer.run_id, time.perf_counter())
            stack.append(span)
            cpu0 = time.thread_time()
            try:
                result = func(*args, **kwargs)
            finally:
                span.cpu_s = time.thread_time() - cpu0
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if record is not None:
                record(span.attrs, args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans) -> dict:
    """span id -> thread CPU time inside the span minus that of its children.

    Only children on the span's own thread are subtracted: a pool cell's
    CPU time was never part of the run_sweep span's thread.  Thread CPU
    time rather than wall time, because under the interpreter lock a wall
    span also holds every turn the other threads took meanwhile.
    """
    out = {span.id: span.cpu_s for span in spans}
    thread_of = {span.id: span.thread for span in spans}
    for span in spans:
        if span.parent in out and thread_of[span.parent] == span.thread:
            out[span.parent] -= span.cpu_s
    return out


# ---------------------------------------------------------------------------
# traced layers of sma_bimorph

def _record_drive(attrs, args, kwargs, result):
    attrs["samples"] = int(result.t.size)


def _record_trace(attrs, args, kwargs, result):
    attrs["samples"] = int(result.delta.size)


def _record_sweep(attrs, args, kwargs, result):
    attrs["cells"] = len(result.rows) + len(result.errors)
    attrs["cells_failed"] = len(result.errors)
    attrs["threads"] = int(kwargs.get("threads", 1))


def _record_calibration(attrs, args, kwargs, result):
    attrs["loss"] = float(result.loss)


def _record_swimmer(attrs, args, kwargs, result):
    attrs["steps"] = len(result) - 1


def _record_csv(attrs, args, kwargs, result):
    data = Path(result).read_bytes()
    attrs["bytes"] = len(data)
    attrs["rows"] = data.count(b"\n") - 1


# (defining module, function, span name, recorder)
LAYERS = (
    ("sma_bimorph.config", "parse_config", "config.parse_config", None),
    ("sma_bimorph.cli", "run_scenario", "cli.run_scenario", None),
    ("sma_bimorph.drive", "make_pwm_pair", "drive.make_pwm_pair", _record_drive),
    ("sma_bimorph.drive", "average_power", "drive.average_power", None),
    ("sma_bimorph.mechanics", "run_mode_trace", "mechanics.run_mode_trace", None),
    ("sma_bimorph.mechanics", "relaxed_actuator", "mechanics.relaxed_actuator", None),
    ("sma_bimorph.mechanics", "simulate_drive", "mechanics.simulate_drive", _record_trace),
    ("sma_bimorph.metrology", "design_fir", "metrology.design_fir", None),
    ("sma_bimorph.metrology", "filter_zero_phase", "metrology.filter_zero_phase", None),
    ("sma_bimorph.metrology", "compute_amado", "metrology.compute_amado", None),
    ("sma_bimorph.metrology", "run_sweep", "metrology.run_sweep", _record_sweep),
    ("sma_bimorph.calibration", "calibrate", "calibration.calibrate", _record_calibration),
    ("sma_bimorph.calibration", "evaluate_targets", "calibration.evaluate_targets", None),
    ("sma_bimorph.swimmer", "run_swimmer", "swimmer.run_swimmer", _record_swimmer),
    ("sma_bimorph.swimmer", "steady_speed", "swimmer.steady_speed", None),
    ("sma_bimorph.csvio", "write_csv", "csvio.write_csv", _record_csv),
)


class installed:
    """Context manager: LAYERS wrapped for the duration of the block."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def __enter__(self):
        for module_name, func_name, span_name, record in LAYERS:
            original = getattr(importlib.import_module(module_name), func_name)
            wrapper = self.tracer.wrap(span_name, original, record)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if name != "sma_bimorph" and not name.startswith("sma_bimorph."):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
        return self.tracer

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metric values (see perfbench/README.md) from one run's spans."""
    selfs = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def count(name):
        return len(by_name.get(name, ()))

    def self_s(*names):
        return sum(selfs[s.id] for n in names for s in by_name.get(n, ()))

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    sweeps = by_name.get("metrology.run_sweep", ())
    sweep_ids = {s.id for s in sweeps}
    cell_cpu = sum(s.cpu_s for s in spans if s.parent in sweep_ids)
    pool_capacity = sum(s.duration * s.attrs.get("threads", 1) for s in sweeps)
    trace_samples = total("mechanics.simulate_drive", "samples")
    trace_busy = self_s("mechanics.simulate_drive")
    evaluations = count("calibration.evaluate_targets")
    eval_busy = sum(s.cpu_s for s in by_name.get("calibration.evaluate_targets", ()))
    fits = by_name.get("calibration.calibrate", ())
    steps = total("swimmer.run_swimmer", "steps")

    return {
        "drive.calls": count("drive.make_pwm_pair") + count("drive.average_power"),
        "drive.samples": total("drive.make_pwm_pair", "samples"),
        "drive.busy_s": self_s("drive.make_pwm_pair", "drive.average_power"),
        "mechanics.traces": count("mechanics.simulate_drive"),
        "mechanics.trace_samples": trace_samples,
        "mechanics.trace_busy_s": trace_busy,
        "mechanics.trace_ns_per_sample": _ratio(trace_busy, trace_samples) * 1e9,
        "mechanics.relaxed_busy_s": self_s("mechanics.relaxed_actuator"),
        "metrology.fir_designs": count("metrology.design_fir"),
        "metrology.fir_busy_s": self_s("metrology.design_fir"),
        "metrology.filter_calls": count("metrology.filter_zero_phase"),
        "metrology.filter_busy_s": self_s("metrology.filter_zero_phase"),
        "metrology.amado_busy_s": self_s("metrology.compute_amado"),
        "metrology.cells": total("metrology.run_sweep", "cells"),
        "metrology.cells_failed": total("metrology.run_sweep", "cells_failed"),
        "metrology.pool_efficiency": _ratio(cell_cpu, pool_capacity),
        "calibration.evaluations": evaluations,
        "calibration.eval_busy_s": eval_busy,
        "calibration.s_per_eval": _ratio(eval_busy, evaluations),
        "calibration.final_loss": fits[-1].attrs["loss"] if fits else 0.0,
        "swimmer.steps": steps,
        "swimmer.busy_s": self_s("swimmer.run_swimmer", "swimmer.steady_speed"),
        "swimmer.us_per_step": _ratio(self_s("swimmer.run_swimmer"), steps) * 1e6,
        "csvio.files": count("csvio.write_csv"),
        "csvio.rows": total("csvio.write_csv", "rows"),
        "csvio.bytes": total("csvio.write_csv", "bytes"),
        "csvio.busy_s": self_s("csvio.write_csv"),
        "config.parse_busy_s": self_s("config.parse_config"),
        "cli.self_s": self_s("cli.run_scenario"),
    }
