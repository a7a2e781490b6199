"""Spans and counters recorded from outside the program.

`Tracer.install` replaces each listed public function with a wrapper in every
`senslab` module namespace that binds it (so `selfcorrect.noise_operator` and
`verify.sensitivity` land in the same span as `noise.noise_operator` and
`core.sensitivity`), and `Tracer.uninstall` puts the originals back.  A
wrapper records the call's wall time minus the time of wrapped calls nested
inside it (self time), and may run a counting hook after the call; hook time
is its own span, `trace.hooks`, so the self times of one pass plus the time
outside every span add up to the pass.

Hot helpers (`popcount`, `weight`, `Point`, `weights_vector`) are never
wrapped: they run millions of times per pass and the wrapper would dominate.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from functools import wraps

import numpy as np

HOOKS = "trace.hooks"


def _count_butterflies(counts: Counter, rows: int, n: int, transforms: int, itemsize: int):
    """Count `transforms` subset butterflies over `rows` tables of length
    2^n: n stages of 2^(n-1) pair updates each, and bytes from a model of
    one read and one write of the whole table per stage (computed from the
    shapes, not measured; caches are ignored)."""
    counts["core.butterfly.ops"] += transforms * rows * n * (1 << (n - 1))
    counts["core.butterfly.bytes_computed"] += transforms * rows * n * 2 * (1 << n) * itemsize


# Counting hooks: hook(counts, args, kwargs, result, before) where `before`
# is what the matching pre-hook returned (None without one).

def _hook_table_butterfly(transforms: int, itemsize: int):
    def hook(counts, args, kwargs, result, before):
        _count_butterflies(counts, 1, args[0].n, transforms, itemsize)
    return hook


def _hook_walsh(counts, args, kwargs, result, before):
    _count_butterflies(counts, 1, len(args[0]).bit_length() - 1, 1, 8)


def _hook_degree_batch(counts, args, kwargs, result, before):
    tables, n = args[0], args[1]
    _count_butterflies(counts, len(tables), n, 1, 8)


def _hook_extend_batch(itemsize: int):
    def hook(counts, args, kwargs, result, before):
        n, tables = args[0], args[3]
        _count_butterflies(counts, len(tables), n, 2, itemsize)
    return hook


def _hook_parallel(counts, args, kwargs, result, before):
    f, points = args[0], np.asarray(args[2], dtype=np.int64)
    counts["evaluate.parallel_eval_batch.evals"] += int(result.size)
    counts["evaluate.parallel_eval_batch.correct"] += int(
        (result == f.values[points][:, None]).sum()
    )


def _oracle_before(args, kwargs):
    return args[0].query_count


def _hook_local_batch(counts, args, kwargs, result, before):
    oracle, x = args[0], args[1]
    counts["selfcorrect.oracle.queries"] += oracle.query_count - before
    counts["selfcorrect.local_correct_batch.evals"] += int(result.size)
    counts["selfcorrect.local_correct_batch.correct"] += int(
        (result == oracle.truth.values[x.index]).sum()
    )


def _hook_local(counts, args, kwargs, result, before):
    counts["selfcorrect.oracle.queries"] += args[0].query_count - before


def _hook_majority_step(counts, args, kwargs, result, before):
    counts["selfcorrect.majority_step.ties"] += len(result[1])


def _hook_global(counts, args, kwargs, result, before):
    counts["selfcorrect.global_correct.iterations"] += result.iterations


# (module, function) -> (pre-hook, hook).  Only public functions of the
# library modules; a name missing from the library is skipped and listed as
# such in the report, so the benchmark survives refactors of the program.
WRAPPED: dict[tuple[str, str], tuple] = {
    ("core", "mobius_coefficients"): (None, _hook_table_butterfly(1, 8)),
    ("core", "zeta_transform"): (None, _hook_table_butterfly(1, 8)),
    ("core", "mobius_coefficients_f2"): (None, _hook_table_butterfly(1, 1)),
    ("core", "pointwise_sensitivity"): (None, None),
    ("core", "sensitivity"): (None, None),
    ("core", "degree"): (None, None),
    ("core", "restrict_to_ball"): (None, None),
    ("reconstruct", "majority_extend_batch"): (None, None),
    ("reconstruct", "majority_extend"): (None, None),
    ("reconstruct", "parity_extend_batch"): (None, _hook_extend_batch(8)),
    ("reconstruct", "f2_extend_batch"): (None, _hook_extend_batch(1)),
    ("reconstruct", "parity_extend"): (None, _hook_table_butterfly(2, 8)),
    ("reconstruct", "f2_extend"): (None, _hook_table_butterfly(2, 1)),
    ("reconstruct", "r_maj_bruteforce"): (None, None),
    ("evaluate", "bottom_up_all"): (None, None),
    ("evaluate", "top_down_all"): (None, None),
    ("evaluate", "top_down_visit_profile"): (None, None),
    ("evaluate", "bottom_up_eval"): (None, None),
    ("evaluate", "top_down_eval"): (None, None),
    ("evaluate", "parallel_eval_batch"): (None, _hook_parallel),
    ("noise", "walsh_hadamard"): (None, _hook_walsh),
    ("noise", "noise_operator"): (None, None),
    ("noise", "distance_census"): (None, None),
    ("noise", "exact_noise_value"): (None, None),
    ("noise", "exact_noise_values"): (None, None),
    ("noise", "noise_sensitivity_all"): (None, None),
    ("noise", "lambda_set"): (None, None),
    ("noise", "hypercontractivity_check"): (None, None),
    ("noise", "sse_corollary_check"): (None, None),
    ("noise", "downward_mismatch_table"): (None, None),
    ("selfcorrect", "majority_step"): (None, _hook_majority_step),
    ("selfcorrect", "global_correct"): (None, _hook_global),
    ("selfcorrect", "local_correct_batch"): (_oracle_before, _hook_local_batch),
    ("selfcorrect", "local_correct"): (_oracle_before, _hook_local),
    ("selfcorrect", "corrupt"): (None, None),
    ("selfcorrect", "corrupt_targeted"): (None, None),
    ("counting", "all_tables"): (None, None),
    ("counting", "per_function_sensitivity"): (None, None),
    ("counting", "per_function_degree"): (None, _hook_degree_batch),
    ("counting", "build_census"): (None, None),
    ("families", "constant"): (None, None),
    ("families", "dictator"): (None, None),
    ("families", "or_fn"): (None, None),
    ("families", "and_fn"): (None, None),
    ("families", "parity"): (None, None),
    ("families", "majority"): (None, None),
    ("families", "tribes"): (None, None),
    ("families", "addressing"): (None, None),
    ("families", "junta_lift"): (None, None),
    ("families", "random_dt"): (None, None),
    ("families", "random_function"): (None, None),
}


class _Frame:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class Tracer:
    """Self times, call counts and counters of one phase (set-up or a pass)."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.patched: list[tuple[object, str, object]] = []
        self.wrapped: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    # -- spans ------------------------------------------------------------

    def _enter(self) -> tuple[_Frame, float]:
        frame = _Frame()
        self.stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, name: str, frame: _Frame, started: float) -> None:
        elapsed = time.perf_counter() - started
        self.stack.pop()
        self.self_s[name] += elapsed - frame.child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1].child += elapsed

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        frame, started = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, frame, started)

    def root(self, fn) -> float:
        """Run fn() as a root span and return its wall time; the time not
        covered by any nested span is booked as `unattributed`."""
        if self.stack:
            raise RuntimeError("root span opened inside another span")
        frame, started = self._enter()
        try:
            fn()
        finally:
            elapsed = time.perf_counter() - started
            self.stack.pop()
        self.self_s["unattributed"] += elapsed - frame.child
        return elapsed

    def _wrap(self, name: str, fn, before_hook, hook):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            before = before_hook(args, kwargs) if before_hook is not None else None
            frame, started = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, frame, started)
            if hook is not None:
                tracer.span(HOOKS, hook, tracer.counts, args, kwargs, result, before)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch every senslab namespace that binds a listed function."""
        if self.patched:
            raise RuntimeError("wrappers already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "senslab" or name.startswith("senslab."))
        ]
        self.wrapped, self.missing = {}, []
        for (mod_name, fn_name), (before_hook, hook) in WRAPPED.items():
            name = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"senslab.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, before_hook, hook)
            bound_in = []
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
                        bound_in.append(f"{module.__name__}.{attr}")
            self.wrapped[name] = bound_in

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)
        self.patched = []
