"""Per-layer tracing, installed from outside the library.

``Tracer.install`` replaces each traced public function of ``rdstail`` with
a wrapper that counts calls and accumulates the time of outermost calls
(a call made while the same function is already running adds its count but
not its time, so recursion and re-entry are not counted twice).  Modules
import these functions by name, so the wrapper is installed wherever the
original is bound: as a module attribute of every ``rdstail`` module and as
a value of module-level dicts such as ``verify.SUITES``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# layer module -> public functions whose time and calls are recorded
TRACED = {
    "model": ("power_system", "product_system"),
    "covers": ("iterate_cover", "join", "pullback"),
    "counting": ("count_profile", "relative_count", "min_cover_size", "minimal_subcover"),
    "tail_entropy": ("tail_entropy_estimate", "integrated_log_count", "check_subadditive"),
    "symbolic": ("sft_tail_sequence", "relative_word_count", "admissible_word_count"),
    "measures": ("relative_entropy_sequence", "conditional_entropy", "skew_pushforward", "defect"),
    "invariant": ("cesaro_limit", "vertex_enumeration"),
    "_linalg": ("rank",),
    "verify": (
        "run_cover_suite",
        "run_entropy_suite",
        "run_invariant_suite",
        "run_theorem_suite",
        "run_principal_suite",
    ),
    "scenario": ("load_scenario",),
}

CLI_COMMANDS = ("validate", "count", "tail", "tail-total", "sft-tail", "entropy", "invariant", "construct", "verify")

# (metric name, unit, better): the per-layer metrics a traced run reports
METRICS = (
    [
        ("covers.iterate_cover_s", "s", "lower"),
        ("covers.iterate_cover_calls", "count", "lower"),
        ("covers.join_s", "s", "lower"),
        ("covers.join_calls", "count", "lower"),
        ("covers.pullback_s", "s", "lower"),
        ("covers.elements_max", "count", "lower"),
        ("counting.count_profile_s", "s", "lower"),
        ("counting.count_profile_calls", "count", "lower"),
        ("counting.relative_count_s", "s", "lower"),
        ("counting.min_cover_size_s", "s", "lower"),
        ("counting.min_cover_size_calls", "count", "lower"),
        ("counting.unique_solve_ratio", "ratio", "higher"),
        ("tail_entropy.tail_entropy_estimate_s", "s", "lower"),
        ("tail_entropy.integrated_log_count_calls", "count", "lower"),
        ("tail_entropy.check_subadditive_s", "s", "lower"),
        ("symbolic.sft_tail_sequence_s", "s", "lower"),
        ("symbolic.relative_word_count_s", "s", "lower"),
        ("symbolic.relative_word_count_calls", "count", "lower"),
        ("symbolic.admissible_word_count_s", "s", "lower"),
        ("symbolic.deep_point_s", "s", "lower"),
        ("measures.relative_entropy_sequence_s", "s", "lower"),
        ("measures.conditional_entropy_s", "s", "lower"),
        ("measures.conditional_entropy_calls", "count", "lower"),
        ("measures.skew_pushforward_s", "s", "lower"),
        ("measures.defect_s", "s", "lower"),
        ("invariant.cesaro_limit_s", "s", "lower"),
        ("invariant.vertex_enumeration_s", "s", "lower"),
        ("linalg.rank_s", "s", "lower"),
        ("linalg.rank_calls", "count", "lower"),
        ("model.power_system_s", "s", "lower"),
        ("model.product_system_s", "s", "lower"),
        ("verify.run_cover_suite_s", "s", "lower"),
        ("verify.run_entropy_suite_s", "s", "lower"),
        ("verify.run_invariant_suite_s", "s", "lower"),
        ("verify.run_theorem_suite_s", "s", "lower"),
        ("verify.run_principal_suite_s", "s", "lower"),
        ("scenario.load_scenario_s", "s", "lower"),
    ]
    + [(f"cli.{c}_s", "s", "lower") for c in CLI_COMMANDS]
    + [("trace.overhead_pct", "%", "lower")]
)


class Tracer:
    def __init__(self):
        self.recording = True
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.elements_max = 0
        self.solves: set = set()
        self._fiber = None
        self._masks, self._masks_key = None, None
        self._systems: list = []  # keeps systems alive so their ids stay unique
        self._active: dict[str, int] = defaultdict(int)

    def add(self, key: str, seconds: float) -> None:
        if self.recording:
            self.seconds[key] += seconds

    def _wrap(self, key: str, fn):
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            tracer.calls[key] += 1
            outer = tracer._active[key] == 0
            tracer._active[key] += 1
            start = perf()
            try:
                return tracer._observe(key, fn, args, kwargs)
            finally:
                tracer._active[key] -= 1
                if outer:
                    tracer.seconds[key] += perf() - start

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _observe(self, key: str, fn, args, kwargs):
        if key in ("counting.relative_count", "counting.minimal_subcover"):
            # (r|s, q|r, omega, rds): remember which fiber the solves belong to
            rds = args[3] if len(args) > 3 else kwargs["rds"]
            omega = args[2] if len(args) > 2 else kwargs["omega"]
            self._systems.append(rds)
            saved, self._fiber = self._fiber, (id(rds), omega)
            try:
                return fn(*args, **kwargs)
            finally:
                self._fiber = saved
        if key == "counting.min_cover_size":
            target = args[0] if args else kwargs["target"]
            masks = args[1] if len(args) > 1 else kwargs["masks"]
            if not isinstance(masks, (list, tuple)):
                masks = list(masks)
            if masks is not self._masks:
                # one mask list serves every target of a relative count:
                # hash its contents once per list, not once per solve
                self._masks, self._masks_key = masks, hash(tuple(masks))
            self.solves.add((self._fiber, target, self._masks_key))
            return fn(target, masks)
        out = fn(*args, **kwargs)
        if key == "covers.iterate_cover":
            self.elements_max = max(self.elements_max, len(out.elements))
        return out

    def install(self) -> None:
        """Wrap every traced function wherever it is bound in ``rdstail``."""
        replace = {}
        for module, names in TRACED.items():
            mod = sys.modules[f"rdstail.{module}"]
            for name in names:
                fn = getattr(mod, name)
                # metric names start with a letter: _linalg reports as linalg
                replace[id(fn)] = (fn, self._wrap(f"{module.lstrip('_')}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "rdstail" and not modname.startswith("rdstail."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    setattr(mod, attr, replace[id(value)][1])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replace and replace[id(v)][0] is v:
                            value[k] = replace[id(v)][1]

    def metrics(self, factor: float) -> dict[str, float]:
        """Every per-layer metric except the overhead, which needs the
        untraced passes, with times multiplied by ``factor``; a layer the
        workload does not reach reads 0."""
        out = {}
        for name, _, _ in METRICS:
            layer_fn, _, suffix = name.rpartition("_")
            if name == "covers.elements_max":
                out[name] = self.elements_max
            elif name == "counting.unique_solve_ratio":
                calls = self.calls["counting.min_cover_size"]
                out[name] = len(self.solves) / calls if calls else 0.0
            elif name == "trace.overhead_pct":
                continue
            elif suffix == "calls":
                out[name] = self.calls[layer_fn]
            else:
                out[name] = self.seconds[layer_fn] * factor
        return out
