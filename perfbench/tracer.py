"""Outside-in span tracing for the benchmark worker.

The tracer replaces, by attribute, the callables that pdnet's engine and
CLI dispatch through at each layer boundary. Every call records one span
(layer, start, end, parent, note) in memory; nothing is written until the
worker summarises the spans into per-layer metrics at the end of a
repetition. Spans read the clock the worker passes in. Nothing under
``src/`` is changed: the wrappers live only in the benchmark process.

A hook point that no longer exists (a refactor renamed or removed it) is
recorded by its dotted name; every metric that depends on that layer is
then reported as None rather than as a misleading zero.
"""

from __future__ import annotations

import importlib

#: layer name -> hook points (module path, attribute). A module path whose
#: last component is a class name patches that class's method.
HOOKS: dict[str, tuple[tuple[str, str], ...]] = {
    "problems.dataset": (("pdnet", "generate_dataset"),
                         ("pdnet.problems", "generate_dataset")),
    "problems.build": (("pdnet", "build_logistic_problem"),
                       ("pdnet.problems", "build_logistic_problem")),
    "problems.reference": (("pdnet", "reference_optimum"),
                           ("pdnet.problems", "reference_optimum")),
    "problems.oracle": tuple(
        ("pdnet.problems.ProblemSpec", m)
        for m in ("agent_objective_grads", "constraint_values_many",
                  "agent_constraint_combo", "agent_constraint_rows")),
    "lagrangian.sampling": (("pdnet.engine", "iteration_uniforms"),
                            ("pdnet.engine", "sample_constraint_indices")),
    "graphs.generate": (("pdnet", "generate_watts_strogatz"),
                        ("pdnet.graphs", "generate_watts_strogatz"),
                        ("pdnet.graphs", "generate_barbell")),
    "graphs.weights": (("pdnet", "lazy_metropolis"),
                       ("pdnet.graphs", "lazy_metropolis")),
    "graphs.sigma2": (("pdnet.graphs", "_second_singular_value"),),
    "engine.run": (("pdnet", "run"), ("pdnet.engine", "run"),
                   ("pdnet", "run_centralized_unregularized"),
                   ("pdnet.engine", "run_centralized_unregularized")),
    "engine.advance": (("pdnet.engine", "_advance"),),
    "engine.mix": (("pdnet.engine", "_mix"),),
    "metrics.record": (("pdnet.metrics", "compute_record"),),
    "metrics.diameter": (("pdnet.metrics", "outputs_diameter"),),
    "config.build": tuple(("pdnet.config", f) for f in (
        "build_problem", "build_graph", "build_weights", "build_run_config")),
    "cli.main": (("pdnet.cli", "main"),),
}

#: layers whose spans carry a note taken from the call's return value
_NOTES = {
    "engine.run": lambda trace: (trace.config.variant, trace.config.iterations),
    "graphs.weights": lambda w: _nnz(w.entries),
}

VARIANTS = ("deterministic", "stochastic", "centralized_unregularized")


def _nnz(entries) -> int:
    nnz = getattr(entries, "nnz", None)  # scipy sparse storage
    return int((entries != 0).sum() if nnz is None else nnz)


def _resolve(path: str):
    """The module at a dotted path, or the class its last component names."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, name = path.rpartition(".")
        try:
            return getattr(importlib.import_module(module), name, None)
        except ImportError:
            return None


class NullTracer:
    """Untraced mode: installs nothing."""

    def install(self) -> None:
        pass


class Tracer:
    """Records one span per hooked call; summarises them into layer metrics."""

    def __init__(self, clock):
        self._clock = clock
        # each span: [layer, start, end, parent index, note]
        self.spans: list[list] = []
        self._stack = [-1]
        #: layer -> dotted names of its hook points that do not exist
        self.missing: dict[str, list[str]] = {}

    def install(self) -> None:
        for layer, points in HOOKS.items():
            for module_path, attr in points:
                owner = _resolve(module_path)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.setdefault(layer, []).append(
                        f"{module_path}.{attr}")
                    continue
                setattr(owner, attr, self._wrap(layer, original))

    def _wrap(self, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, self._clock
        note = _NOTES.get(layer)

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [layer, clock(), 0.0, stack[-1], None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                span[4] = note(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- summary ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float | int | None]:
        """Per-layer totals; None where a needed hook point is missing.

        Self time is a span's duration minus its children's. Per-step
        figures divide by the steps of all runs and count only spans inside
        a run; oracle calls made while recording count as record time.
        """
        n = len(self.spans)
        dur = [end - start for _, start, end, _, _ in self.spans]
        own = dur[:]
        in_run = [False] * n
        in_record = [False] * n
        for i, (layer, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= dur[i]
                in_run[i] = in_run[parent]
                in_record[i] = in_record[parent]
            in_run[i] = in_run[i] or layer == "engine.run"
            in_record[i] = in_record[i] or layer == "metrics.record"

        total = dict.fromkeys(HOOKS, 0.0)    # inclusive time, anywhere
        self_all = dict.fromkeys(HOOKS, 0.0)  # self time, anywhere
        step = dict.fromkeys(HOOKS, 0.0)      # self time inside runs
        count = dict.fromkeys(HOOKS, 0)
        run_s = dict.fromkeys(VARIANTS, 0.0)
        steps = nnz = 0
        for i, (layer, _, _, _, note) in enumerate(self.spans):
            total[layer] += dur[i]
            self_all[layer] += own[i]
            count[layer] += 1
            if in_run[i] and not in_record[i]:
                step[layer] += own[i]
            if note is None:  # the call raised
                continue
            if layer == "engine.run":
                variant, iterations = note
                run_s[variant] = run_s.get(variant, 0.0) + dur[i]
                steps += iterations
            elif layer == "graphs.weights":
                nnz = max(nnz, note)

        records = count["metrics.record"]
        per_step = 1e6 / steps if steps else 0.0
        per_record = 1e6 / records if records else 0.0
        # loop self + the step layers + records partition each run span
        covered = sum(step[layer] for layer in STEP_LAYERS) + total["metrics.record"]
        run_total = total["engine.run"]
        out: dict[str, float | int | None] = {
            "problems.reference_s": total["problems.reference"],
            "problems.reference_calls": count["problems.reference"],
            "problems.dataset_s": total["problems.dataset"],
            "problems.build_s": total["problems.build"],
            "problems.oracle_us_per_step": step["problems.oracle"] * per_step,
            "lagrangian.sampling_us_per_step":
                step["lagrangian.sampling"] * per_step,
            "graphs.generate_s": total["graphs.generate"],
            "graphs.weights_s": self_all["graphs.weights"],
            "graphs.sigma2_s": total["graphs.sigma2"],
            "graphs.w_nnz": nnz,
            "engine.mix_us_per_step": step["engine.mix"] * per_step,
            "engine.advance_self_us_per_step": step["engine.advance"] * per_step,
            "engine.loop_self_us_per_step": step["engine.run"] * per_step,
            "engine.steps": steps,
            "metrics.record_us_per_record": total["metrics.record"] * per_record,
            "metrics.diameter_us_per_record":
                total["metrics.diameter"] * per_record,
            "metrics.records": records,
            "cli.self_s": self_all["cli.main"],
            "bench.layer_sum_gap_pct":
                100.0 * (run_total - covered) / run_total if run_total else 0.0,
            **{f"engine.run_s.{v}": seconds for v, seconds in run_s.items()},
        }
        for metric in out:
            if self.missing_for(metric):
                out[metric] = None
        return out

    def missing_for(self, metric: str) -> list[str]:
        """Dotted names of the missing hook points a metric depends on."""
        return [name for layer in METRIC_LAYERS[metric]
                for name in self.missing.get(layer, ())]


#: layers whose self time inside runs makes up a step (records aside)
STEP_LAYERS = ("engine.run", "problems.oracle", "lagrangian.sampling",
               "engine.advance", "engine.mix")
_RUN_LAYERS = ("engine.run",)
_STEP_COST = STEP_LAYERS + ("metrics.record",)
#: metric -> the layers whose spans it is computed from
METRIC_LAYERS: dict[str, tuple[str, ...]] = {
    "problems.reference_s": ("problems.reference",),
    "problems.reference_calls": ("problems.reference",),
    "problems.dataset_s": ("problems.dataset",),
    "problems.build_s": ("problems.build",),
    "problems.oracle_us_per_step": ("problems.oracle",) + _RUN_LAYERS,
    "lagrangian.sampling_us_per_step": ("lagrangian.sampling",) + _RUN_LAYERS,
    "graphs.generate_s": ("graphs.generate",),
    "graphs.weights_s": ("graphs.weights", "graphs.sigma2"),
    "graphs.sigma2_s": ("graphs.sigma2",),
    "graphs.w_nnz": ("graphs.weights",),
    "engine.mix_us_per_step": ("engine.mix",) + _RUN_LAYERS,
    "engine.advance_self_us_per_step": ("engine.advance", "engine.mix") + _RUN_LAYERS,
    "engine.loop_self_us_per_step": _STEP_COST,
    "engine.steps": _RUN_LAYERS,
    "metrics.record_us_per_record": ("metrics.record",),
    "metrics.diameter_us_per_record": ("metrics.diameter", "metrics.record"),
    "metrics.records": ("metrics.record",),
    "cli.self_s": ("cli.main", "config.build", "problems.reference", "engine.run"),
    "bench.layer_sum_gap_pct": _STEP_COST,
    **{f"engine.run_s.{v}": _RUN_LAYERS for v in VARIANTS},
}
