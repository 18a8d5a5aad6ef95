"""Spans for the traced run, and the per-layer metrics derived from them.

install() wraps every public function of every loaded ``qmap`` module and
rebinds each module attribute that refers to it, so the wrapper sits at the
name the caller resolves (``qmap.solver.project_l0``,
``qmap.projection.project_lagrangian``, ``qmap.experiments.pgd_solve``, ...).
A span is (function, start, end, parent, value): the value is a count read
from the call's arguments or result, such as the trellis cells of a Viterbi
pass.  Spans stay in memory and are written once, when the operation ends.

The layer of a span is the module that defines the function.  A span's self
time is its duration minus the durations of its child spans; the program is
single-threaded (``--jobs 1``), so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = (
    "cli", "experiments", "solver", "projection", "empirics",
    "sources", "quantize", "sensing", "validation",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# label -> value recorded with each span, from (args, kwargs, result)
VALUES = {
    "solver.pgd_solve": lambda a, k, r: [r[1].iters, r[1].status],
    "projection.project_lagrangian": lambda a, k, r: (
        len(_arg(a, k, 0, "x"))
        * _arg(a, k, 2, "alphabet").size ** (_arg(a, k, 1, "w").k + 1)
    ),
    "empirics.complexity_cost": lambda a, k, r: (
        len(_arg(a, k, 0, "u")) - _arg(a, k, 1, "w").k
    ),
    "sources.quantized_kernel": lambda a, k, r: r.alphabet.size,
    "quantize.build_alphabet": lambda a, k, r: r.size,
    "sensing.gen_gaussian": lambda a, k, r: r.m * r.n * 8,
    "validation.chi_square_tail": lambda a, k, r: r[0].trials,
    "validation.inner_product_tail": lambda a, k, r: r.trials,
    "validation.mc_empirical_deviation": lambda a, k, r: r.trials,
    "validation.gaussian_projection_check": lambda a, k, r: r.trials,
}


class Recorder:
    """In-memory span list; one per traced process."""

    def __init__(self):
        self.labels: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, label: str):
        fid = len(self.labels)
        self.labels.append(label)
        value_of = VALUES.get(label)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (fid, start, clock(), parent, None)
                raise
            finally:
                stack.pop()
            end = clock()
            value = value_of(args, kwargs, result) if value_of else None
            spans[idx] = (fid, start, end, parent, value)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"labels": self.labels, "spans": self.spans}, fh)


def install() -> Recorder:
    """Wrap the public functions of the loaded qmap modules in place."""
    recorder = Recorder()
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "qmap" or name.startswith("qmap.")]
    wrappers = {}
    for module in modules:
        for obj in list(vars(module).values()):
            if (isinstance(obj, types.FunctionType)
                    and obj.__module__.startswith("qmap.")
                    and not obj.__name__.startswith("_")
                    and obj not in wrappers):
                label = f"{obj.__module__[len('qmap.'):]}.{obj.__name__}"
                wrappers[obj] = recorder.wrap(obj, label)
    for module in modules:
        for name, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(module, name, wrappers[obj])
    return recorder


class Totals:
    """Span durations, self times, counts and values summed by label."""

    def __init__(self):
        self.calls = Counter()
        self.dur_ns = Counter()
        self.self_ns = Counter()
        self.value = Counter()
        self.layer_self_ns = Counter()
        self.status = Counter()  # status -> stages
        self.status_iters = Counter()  # status -> iterations
        self.nested = Counter()  # (parent label, label) -> calls
        self.spans = 0

    def add(self, doc: dict) -> None:
        labels = doc["labels"]
        spans = doc["spans"]
        child_ns = defaultdict(int)
        for fid, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for idx, (fid, start, end, parent, value) in enumerate(spans):
            label = labels[fid]
            dur = end - start
            own = dur - child_ns[idx]
            self.calls[label] += 1
            self.dur_ns[label] += dur
            self.self_ns[label] += own
            self.layer_self_ns[label.split(".", 1)[0]] += own
            if parent >= 0:
                self.nested[(labels[spans[parent][0]], label)] += 1
            if isinstance(value, list):
                self.value[label] += value[0]
                self.status[value[1]] += 1
                self.status_iters[value[1]] += value[0]
            elif value is not None:
                self.value[label] += value
        self.spans += len(spans)

    def dur(self, *labels: str) -> float:
        return sum(self.dur_ns[label] for label in labels) / 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(docs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one round, from the span files of its operations."""
    t = Totals()
    for doc in docs:
        t.add(doc)
    iters = t.value["solver.pgd_solve"]
    viterbi_s = t.dur("projection.project_lagrangian")
    cost_s = t.dur("empirics.complexity_cost")
    constrained = t.calls["projection.project_constrained"]
    m = {
        "cli.config_s": t.dur("cli.load_config"),
        "experiments.trials": t.calls["experiments.run_recovery_trial"],
        "experiments.write_s": t.dur("experiments.write_csv"),
        "solver.stages": t.calls["solver.pgd_solve"],
        "solver.iters": iters,
        "solver.stages_converged": t.status["converged"],
        "solver.stages_max_iters": t.status["max_iters"],
        "solver.iters_max_iters": t.status_iters["max_iters"],
        "solver.self_us_per_iter": 1e6 * _ratio(t.self_ns["solver.pgd_solve"] / 1e9, iters),
        "projection.l0_calls": t.calls["projection.project_l0"],
        "projection.l0_s": t.dur("projection.project_l0"),
        "projection.constrained_calls": constrained,
        "projection.constrained_self_s": t.self_ns["projection.project_constrained"] / 1e9,
        "projection.viterbi_passes": t.calls["projection.project_lagrangian"],
        "projection.viterbi_s": viterbi_s,
        "projection.passes_per_projection": _ratio(
            t.nested[("projection.project_constrained", "projection.project_lagrangian")],
            constrained,
        ),
        "projection.viterbi_ns_per_cell": 1e9 * _ratio(
            viterbi_s, t.value["projection.project_lagrangian"]
        ),
        "empirics.cost_calls": t.calls["empirics.complexity_cost"],
        "empirics.cost_s": cost_s,
        "empirics.windows": t.value["empirics.complexity_cost"],
        "empirics.ns_per_window": 1e9 * _ratio(cost_s, t.value["empirics.complexity_cost"]),
        "sources.kernel_calls": t.calls["sources.quantized_kernel"],
        "sources.kernel_s": t.dur("sources.quantized_kernel", "sources.weights_from_kernel"),
        "sources.kernel_symbols": t.value["sources.quantized_kernel"],
        "sources.sample_calls": t.calls["sources.sample_path"],
        "sources.sample_s": t.dur("sources.sample_path"),
        "quantize.alphabet_calls": t.calls["quantize.build_alphabet"],
        "quantize.alphabet_s": t.dur("quantize.build_alphabet"),
        "quantize.alphabet_symbols": t.value["quantize.build_alphabet"],
        "sensing.design_s": t.dur("sensing.gen_gaussian"),
        "sensing.design_mb": t.value["sensing.gen_gaussian"] / 1e6,
        "sensing.measure_s": t.dur("sensing.measure"),
        "validation.chi_square_s": t.dur("validation.chi_square_tail"),
        "validation.inner_product_s": t.dur("validation.inner_product_tail"),
        "validation.empirical_deviation_s": t.dur("validation.mc_empirical_deviation"),
        "validation.gaussian_projection_s": t.dur("validation.gaussian_projection_check"),
        "validation.f_minimax_s": t.dur("validation.f_minimax"),
        "validation.samples": sum(
            t.value[label] for label in (
                "validation.chi_square_tail", "validation.inner_product_tail",
                "validation.mc_empirical_deviation", "validation.gaussian_projection_check",
            )
        ),
        "trace.spans": t.spans,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t.layer_self_ns[layer] / 1e9
    return m
