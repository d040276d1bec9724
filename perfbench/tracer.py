"""Span tracer that wraps efgen's public functions from outside the package.

Each traced function is replaced at the module attribute its callers look up
at call time. A call records its duration, and its self time is that
duration minus the time spent in traced calls made from inside it.

Coarse functions (commands, training loops, objective reports) each get a
span with a name, start, end and parent. Hot functions (family, special and
parameter-plumbing calls, up to hundreds of thousands per run) get no span
of their own: their calls and times are summed per parent span, because one
span per call can roughly double a run's peak memory.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc

# (metric prefix, modules whose attribute is replaced, attribute, hot)
# Callers that import a name directly hold their own binding, so such names
# are replaced in the importing module as well.
TARGETS = [
    ("harness.load_config", ["efgen.harness"], "load_config", False),
    ("harness.cmd_generate", ["efgen.harness"], "cmd_generate", False),
    ("harness.cmd_train", ["efgen.harness"], "cmd_train", False),
    ("harness.cmd_verify", ["efgen.harness"], "cmd_verify", False),
    ("harness.write_dataset", ["efgen.harness"], "write_dataset", False),
    ("harness.read_dataset", ["efgen.harness"], "read_dataset", False),
    ("harness.write_trace", ["efgen.harness"], "write_trace", False),
    ("learning.em_mixture", ["efgen.harness", "efgen.learning"], "em_mixture", False),
    ("learning.fit_sbn", ["efgen.harness", "efgen.learning"], "fit_sbn", False),
    ("learning.mixture_m_step", ["efgen.learning"], "mixture_m_step", False),
    (
        "learning.grad_norm_all_params",
        ["efgen.harness", "efgen.learning"],
        "grad_norm_all_params",
        False,
    ),
    ("objective.exact_posterior", ["efgen.objective"], "exact_posterior", False),
    ("objective.elbo_terms", ["efgen.objective"], "elbo_terms", False),
    ("objective.pseudo_elbo_terms", ["efgen.objective"], "pseudo_elbo_terms", False),
    ("models.sample_joint", ["efgen.models"], "sample_joint", False),
    ("models.check_criterion", ["efgen.models"], "check_criterion", False),
    ("models.jacobian_eta", ["efgen.models"], "jacobian_eta", True),
    ("models.replace_params", ["efgen.learning", "efgen.models"], "replace_params", True),
    ("families.log_partition", ["efgen.families"], "log_partition", True),
    ("families.log_density", ["efgen.families"], "log_density", True),
    ("families.sample", ["efgen.families"], "sample", True),
    ("families.entropy", ["efgen.families"], "entropy", True),
    ("families.pseudo_entropy", ["efgen.families"], "pseudo_entropy", True),
    ("families.batch_sufficient_stats", ["efgen.families"], "batch_sufficient_stats", True),
    ("families.batch_log_base_measure", ["efgen.families"], "batch_log_base_measure", True),
    ("special.log_factorial", ["efgen.families"], "log_factorial", True),
    ("special.log_factorial_array", ["efgen.families"], "log_factorial_array", True),
    ("special.log_gamma", ["efgen.families"], "log_gamma", True),
    ("special.digamma", ["efgen.families", "efgen.learning"], "digamma", True),
]

# Functions whose peak traced allocation is reported, via tracemalloc.
MEMORY_TRACED = ("models.check_criterion",)


class Tracer:
    """Records spans and per-function call counts and self times."""

    def __init__(self, clock=time.perf_counter, memory_traced=MEMORY_TRACED):
        self.clock = clock
        self.memory_traced = frozenset(memory_traced)
        self.spans = []  # [id, name, start, end, parent id]
        self.leaves = {}  # (parent span id, name) -> [calls, total_s]
        self.calls = {}  # name -> calls
        self.self_s = {}  # name -> summed self time
        self.peak_bytes = {}  # name -> largest traced allocation peak
        # Open frames: [name, start, traced child time, span id].
        self._stack = []

    def call(self, name, hot, fn, args, kwargs):
        stack = self._stack
        if hot:
            span_id = stack[-1][3] if stack else None
        else:
            span_id = len(self.spans)
            parent = stack[-1][3] if stack else None
            self.spans.append([span_id, name, None, None, parent])
        track_memory = name in self.memory_traced and not tracemalloc.is_tracing()
        if track_memory:
            tracemalloc.start()
        frame = [name, self.clock(), 0.0, span_id]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            if track_memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), peak)
            duration = end - frame[1]
            if stack:
                stack[-1][2] += duration
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]
            if hot:
                leaf = self.leaves.setdefault((span_id, name), [0, 0.0])
                leaf[0] += 1
                leaf[1] += duration
            else:
                self.spans[span_id][2] = frame[1]
                self.spans[span_id][3] = end

    def wrap(self, name, fn, hot):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, hot, fn, args, kwargs)

        return traced

    def install(self):
        """Replace every target attribute; returns a function that restores them."""
        saved = []
        for name, module_names, attr, hot in TARGETS:
            for module_name in module_names:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, hot))

        def restore():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return restore

    def write_spans(self, path):
        """One JSON object per span, with the hot calls aggregated under it."""
        by_parent = {}
        for (span_id, name), (calls, total) in self.leaves.items():
            by_parent.setdefault(span_id, {})[name] = {"calls": calls, "total_s": total}
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "leaves": by_parent.get(span_id, {}),
                }
                fh.write(json.dumps(record) + "\n")
            if None in by_parent:
                fh.write(json.dumps({"id": None, "leaves": by_parent[None]}) + "\n")
