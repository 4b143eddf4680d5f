"""In-memory spans around calls into wignerlab's public functions.

The tracer wraps each traced function and rebinds its name in every
`wignerlab` module that holds it, so calls made through any import path are
seen. Class methods are wrapped on the class.
Nothing in the library is edited; the wrappers live only in this process.

A span is (name, start, end, parent span id, task id). Self time is a span's
duration minus the durations of its direct children; the spans of one thread
nest, so children never overlap.
"""

import functools
import importlib
import os
import statistics
import sys
import time

# (layer, module attribute) for plain functions
FUNCTIONS = (
    ("engine", "density_to_wigner"), ("engine", "wigner_to_density"),
    ("engine", "density_to_chi"), ("engine", "chi_to_wigner"),
    ("wigner", "wigner_from_density"), ("wigner", "inverse_wigner"),
    ("wigner", "reduce_wigner"),
    ("moyal", "moyal_rhs"), ("moyal", "eta_moyal_rhs"), ("moyal", "evolve"),
    ("moyal", "von_neumann_oracle"),
    ("weyl", "weyl_quantize"),
    ("hilbert", "partial_trace"),
    ("feedback", "build_general_hamiltonian"), ("feedback", "classify_coupling"),
    ("feedback", "run_scenario"),
    ("serialize", "save_field_csv"), ("serialize", "save_field_binary"),
    ("serialize", "load_field_binary"),
    ("config", "parse_config"),
    ("runners", "cmd_transform"), ("runners", "cmd_evolve"),
    ("runners", "cmd_oracle"), ("runners", "cmd_feedback"),
    ("cli", "main"),
)

# (layer, class, method, label)
METHODS = (
    ("engine", "SpectralDifferentiator", "__init__", "init"),
    ("engine", "SpectralDifferentiator", "derivative", "derivative"),
    ("moyal", "MoyalGenerator", "__init__", "init"),
)

TRACED = tuple(f"{layer}.{fn}" for layer, fn in FUNCTIONS) + tuple(
    f"{layer}.{cls}.{label}" for layer, cls, _, label in METHODS)

TASK = "bench.task"


def _file_bytes(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _evolve_steps(tracer, args, kwargs, result):
    tracer.counters["moyal.evolve.steps"] += len(result.diagnostics["t"]) - 1


def _csv_bytes(tracer, args, kwargs, result):
    tracer.counters["serialize.save_field_csv.bytes"] += _file_bytes(args[1])


def _binary_bytes(tracer, args, kwargs, result):
    base = args[1]
    tracer.counters["serialize.save_field_binary.bytes"] += _file_bytes(
        base + ".bin", base + ".json")


POST = {"moyal.evolve": _evolve_steps,
        "serialize.save_field_csv": _csv_bytes,
        "serialize.save_field_binary": _binary_bytes}

COUNTERS = ("moyal.evolve.steps", "serialize.save_field_csv.bytes",
            "serialize.save_field_binary.bytes")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.task = None
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.on = True      # off: wrappers call straight through, record nothing

    def span(self, name, fn):
        post = POST.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(None)
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (name, start, end, parent, self.task)
            if post is not None:
                post(self, args, kwargs, result)
            return result
        return wrapper

    def run_task(self, task_id, fn, *args):
        self.task = task_id
        try:
            return self.span(TASK, fn)(*args)
        finally:
            self.task = None

    def install(self):
        """Wrap every traced function and rebind it wherever it is bound."""
        for layer in {layer for layer, _ in FUNCTIONS}:
            importlib.import_module(f"wignerlab.{layer}")
        holders = [m for name, m in list(sys.modules.items())
                   if name == "wignerlab" or name.startswith("wignerlab.")]
        for layer, attr in FUNCTIONS:
            orig = getattr(sys.modules[f"wignerlab.{layer}"], attr)
            wrapped = self.span(f"{layer}.{attr}", orig)
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        for layer, cls_name, meth, label in METHODS:
            cls = getattr(sys.modules[f"wignerlab.{layer}"], cls_name)
            setattr(cls, meth, self.span(f"{layer}.{cls_name}.{label}",
                                         getattr(cls, meth)))

    def layer_metrics(self, n_tasks):
        """Per-task layer metrics from the recorded spans.

        `F.calls` and `F.self_s` are per task (the runner stops on whole
        rounds of task kinds, so calls per task repeat exactly);
        `F.per_call_ms` is the median over every call.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, task in self.spans:
            if parent is not None and task is not None:
                child[parent] += end - start
        durations = {name: [] for name in TRACED}
        self_s = dict.fromkeys(TRACED, 0.0)
        wall = other = 0.0
        rhs_in_evolve = 0
        for sid, (name, start, end, parent, task) in enumerate(self.spans):
            if task is None:        # set-up, outside any task
                continue
            dur = end - start
            if name == TASK:
                wall += dur
                other += dur - child[sid]
                continue
            durations[name].append(dur)
            self_s[name] += dur - child[sid]
            if (name in ("moyal.moyal_rhs", "moyal.eta_moyal_rhs")
                    and parent is not None
                    and self.spans[parent][0] == "moyal.evolve"):
                rhs_in_evolve += 1
        out = {}
        for name in TRACED:
            d = durations[name]
            out[f"{name}.calls"] = (len(d) / n_tasks, "count")
            out[f"{name}.self_s"] = (self_s[name] / n_tasks, "s")
            out[f"{name}.per_call_ms"] = (
                1e3 * statistics.median(d) if d else 0.0, "ms")
        steps = self.counters["moyal.evolve.steps"]
        out["moyal.evolve.steps"] = (steps / n_tasks, "count")
        out["moyal.rhs_per_step"] = (rhs_in_evolve / steps if steps else 0.0,
                                     "count")
        for key in ("serialize.save_field_csv.bytes",
                    "serialize.save_field_binary.bytes"):
            out[key] = (self.counters[key] / n_tasks, "bytes")
        out["bench.task.wall_s"] = (wall / n_tasks, "s")
        out["bench.task.other_s"] = (other / n_tasks, "s")
        return out

    def write(self, path):
        """Write every span as one CSV row: id,name,start,end,parent,task."""
        with open(path, "w") as f:
            f.write("id,name,start,end,parent,task\n")
            for sid, (name, start, end, parent, task) in enumerate(self.spans):
                f.write(f"{sid},{name},{start!r},{end!r},"
                        f"{'' if parent is None else parent},"
                        f"{'' if task is None else task}\n")
