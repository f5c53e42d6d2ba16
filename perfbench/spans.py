"""Span tracing around the program's public functions, from outside it.

The program's source is not edited.  Each traced function is replaced, for
the duration of a traced pass, by a wrapper bound under the name its caller
looks it up by (``spinpb.sweep.build_liouvillian`` and
``spinpb.lindblad.build_liouvillian`` are separate lookups of one function).
A span is recorded per call: name, label, parent span, start, end and an
optional count taken from the result.  Spans are kept in memory and reduced
to per-layer metrics when the pass ends.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import spinpb.analytic
import spinpb.cli
import spinpb.lindblad
import spinpb.model
import spinpb.sweep

DIMS = (25, 36, 49, 64)


def _cfg_dim(args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return cfg.dim


def _liouvillian_dim(args, kwargs):
    return (args[0] if args else kwargs["liouvillian"]).dim


def _delay_count(args, kwargs):
    taus = args[2] if len(args) > 2 else kwargs["tau_grid"]
    return len(taus)


# (module, attribute looked up by that module, span name, label of the call)
TARGETS = [
    (spinpb.cli, "load_json", "config.load_json", None),
    (spinpb.cli, "params_from_dict", "config.params_from_dict", None),
    (spinpb.cli, "hilbert_from_dict", "config.hilbert_from_dict", None),
    (spinpb.cli, "sweep_spec_from_dict", "config.sweep_spec_from_dict", None),
    (spinpb.cli, "run_sweep", "sweep.run_sweep", None),
    (spinpb.cli, "run_optimal", "sweep.run_optimal", None),
    (spinpb.cli, "run_g2tau", "sweep.run_g2tau", None),
    (spinpb.sweep, "find_optimal_pairs", "analytic.find_optimal_pairs", None),
    (spinpb.sweep, "g2_analytic", "analytic.g2_analytic", None),
    (spinpb.sweep, "build_liouvillian", "lindblad.build_liouvillian", _cfg_dim),
    (spinpb.sweep, "steady_state", "lindblad.steady_state", _liouvillian_dim),
    (spinpb.sweep, "g2_zero", "lindblad.g2_zero", None),
    (spinpb.sweep, "mandel_q", "lindblad.mandel_q", None),
    (spinpb.sweep, "g2_tau", "lindblad.g2_tau", _delay_count),
    (spinpb.lindblad, "build_liouvillian", "lindblad.build_liouvillian", _cfg_dim),
    (spinpb.lindblad, "steady_state", "lindblad.steady_state", _liouvillian_dim),
    (spinpb.lindblad, "build_hamiltonian", "model.build_hamiltonian", None),
    (spinpb.lindblad, "embed_ops", "operators.embed_ops", None),
    (spinpb.model, "embed_ops", "operators.embed_ops", None),
    (spinpb.analytic, "steady_amplitudes", "analytic.steady_amplitudes", None),
]
ROOT_SPAN = "cli.main"
# spans that also record a count taken from the function's result
RESULT_COUNTS = {"analytic.find_optimal_pairs": len}

# span fields
NAME, LABEL, PARENT, START, END, COUNT = range(6)


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, label=None):
        spans, stack = self.spans, self._stack
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, label(args, kwargs) if label else None,
                    stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count:
                span[COUNT] = count(result)
            return result
        return traced

    @contextmanager
    def installed(self):
        """Bind the wrappers under the callers' names; restore on exit."""
        originals = [(module, attr, getattr(module, attr))
                     for module, attr, _name, _label in TARGETS]
        try:
            for (module, attr, fn), (_m, _a, name, label) in zip(originals, TARGETS):
                setattr(module, attr, self.wrap(name, fn, label))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def summary(self) -> dict:
        """Calls, busy time and self time per span name.

        Keys are the span name, ``(name, label)`` and ``(name, "in",
        parent name)``, so that a layer can be split by input size or by
        caller.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                   "count": 0, "label_sum": 0})
        for index, span in enumerate(self.spans):
            duration = span[END] - span[START]
            parent = self.spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
            for key in (span[NAME], (span[NAME], span[LABEL]),
                        (span[NAME], "in", parent)):
                entry = out[key]
                entry["calls"] += 1
                entry["busy_s"] += duration
                entry["self_s"] += duration - child_time[index]
                entry["count"] += span[COUNT] or 0
                entry["label_sum"] += span[LABEL] or 0
        return out
