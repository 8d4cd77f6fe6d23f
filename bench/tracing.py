"""Per-layer tracing from outside the program.

:class:`Tracer` replaces each listed public function with a wrapper in every
``profint`` module that binds it (the modules import each other by name) and
restores them on :meth:`Tracer.uninstall`.  While ``active`` is set, each call
records a span ``(function, parent span, request, start, end)`` in memory;
self time is a span's duration minus that of its direct children, and a
function's total time counts only its outermost spans.  Nothing inside
``profint`` changes.
"""
from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from time import perf_counter

#: metric prefix -> (module, attribute) of each function that gets spans
SPANNED = {
    "pseudonumber.clearing_factor": ("profint.pseudonumber", "clearing_factor"),
    "pseudonumber.eval_mod": ("profint.pseudonumber", "eval_mod"),
    "pseudonumber.parse_pseudonumber": ("profint.pseudonumber", "parse_pseudonumber"),
    "word_problem.equal_in_ab": ("profint.word_problem", "equal_in_ab"),
    "supernatural.parse_supernatural": ("profint.supernatural", "parse_supernatural"),
    "supernatural.Supernatural.split": ("profint.supernatural", "Supernatural.split"),
    "intlinalg.smith_normal_form": ("profint.intlinalg", "smith_normal_form"),
    "intlinalg.solve_congruences": ("profint.intlinalg", "solve_congruences"),
    "solver.solve_system": ("profint.solver", "solve_system"),
    "solver.solve_single_with_refutation": ("profint.solver", "solve_single_with_refutation"),
    "solver.verify_solution": ("profint.solver", "verify_solution"),
    "semilinear.parse_semilinear": ("profint.semilinear", "parse_semilinear"),
    "semilinear.member_of_closure": ("profint.semilinear", "member_of_closure"),
    "terms.parse_term": ("profint.terms", "parse_term"),
    "terms.abelianize": ("profint.terms", "abelianize"),
    "reducibility.decide_and_witness": ("profint.reducibility", "decide_and_witness"),
    "reducibility.verify_witness": ("profint.reducibility", "verify_witness"),
    "cli.main": ("profint.cli", "main"),
}
#: metric prefix -> (module, attribute) of each function whose calls are counted
COUNTED = {
    "pseudonumber.Pseudonumber.init": ("profint.pseudonumber", "Pseudonumber.__init__"),
    "word_problem.refuting_modulus": ("profint.word_problem", "refuting_modulus"),
}
MODULES = (
    "profint", "profint.cli", "profint.intlinalg", "profint.oracle", "profint.pseudonumber",
    "profint.reducibility", "profint.semilinear", "profint.solver", "profint.supernatural",
    "profint.terms", "profint.word_problem",
)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for key in SPANNED:
        names += [(f"{key}.calls", "count"), (f"{key}.self_ms", "ms"), (f"{key}.total_ms", "ms")]
    names += [(f"{key}.calls", "count") for key in COUNTED]
    names += [
        ("pseudonumber.clearing_factor.factor_bits_max", "bits"),
        ("intlinalg.smith_normal_form.witness_bits_max", "bits"),
        ("intlinalg.smith_normal_form.dim_max", "count"),
        ("reducibility.combinations_tried", "count"),
        ("reducibility.combinations_per_system", "count"),
        ("numutil.perfect_root.hit_ratio", "ratio"),
        ("witness_bytes_max", "bytes"),
        ("max_int_bits", "bits"),
        ("refuting_modulus_bits_p50", "bits"),
        ("bench.trace_overhead_ratio", "ratio"),
    ]
    return names


def _bits_of_matrices(result) -> int:
    return max(
        (x.bit_length() for m in (result.left, result.right) for row in m.entries for x in row),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.active = False
        self.request = -1
        self.keys = list(SPANNED)
        self.spans: list[list] = []  # [key index, parent, request, start, end, outermost]
        self.stack: list[int] = []
        self.depth = Counter()
        self.counts = Counter()
        self.factor_bits_max = 0
        self.snf_bits_max = 0
        self.snf_dim_max = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(name) for name in MODULES]
        for index, (key, target) in enumerate(SPANNED.items()):
            self._replace(modules, target, lambda fn, i=index: self._spanned(i, fn))
        for key, target in COUNTED.items():
            self._replace(modules, target, lambda fn, k=key: self._counted(k, fn))
        # calls to solve_system from reducibility are branch combinations
        reducibility = importlib.import_module("profint.reducibility")
        self._set(reducibility, "solve_system",
                  self._counted("reducibility.combinations_tried", reducibility.solve_system))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, modules, target, make):
        module_name, path = target
        owner = importlib.import_module(module_name)
        if "." in path:  # a method: replace it on its class
            class_name, attr = path.split(".")
            cls = getattr(owner, class_name)
            self._set(cls, attr, make(cls.__dict__[attr]))
            return
        original = getattr(owner, path)
        wrapper = make(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, index, fn):
        spans, stack, depth = self.spans, self.stack, self.depth
        key = self.keys[index]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [index, stack[-1] if stack else -1, self.request, 0.0, 0.0, depth[index] == 0]
            stack.append(len(spans))
            spans.append(record)
            depth[index] += 1
            record[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                depth[index] -= 1
                stack.pop()
            if key == "pseudonumber.clearing_factor":
                self.factor_bits_max = max(self.factor_bits_max, result[0].bit_length())
            elif key == "intlinalg.smith_normal_form":
                self.snf_bits_max = max(self.snf_bits_max, _bits_of_matrices(result))
                self.snf_dim_max = max(self.snf_dim_max, args[0].rows, args[0].cols)
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics (values only) computed from the recorded spans."""
        calls = Counter()
        self_s = Counter()
        total_s = Counter()
        children = [0.0] * len(self.spans)
        for index, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for pos, (index, _, _, start, end, outermost) in enumerate(self.spans):
            calls[index] += 1
            self_s[index] += end - start - children[pos]
            if outermost:
                total_s[index] += end - start
        out = {}
        for index, key in enumerate(self.keys):
            out[f"{key}.calls"] = calls[index]
            out[f"{key}.self_ms"] = self_s[index] * 1e3
            out[f"{key}.total_ms"] = total_s[index] * 1e3
        for key in COUNTED:
            out[f"{key}.calls"] = self.counts[key]
        tried = self.counts["reducibility.combinations_tried"]
        systems = out["reducibility.decide_and_witness.calls"]
        out.update({
            "pseudonumber.clearing_factor.factor_bits_max": self.factor_bits_max,
            "intlinalg.smith_normal_form.witness_bits_max": self.snf_bits_max,
            "intlinalg.smith_normal_form.dim_max": self.snf_dim_max,
            "reducibility.combinations_tried": tried,
            "reducibility.combinations_per_system": tried / systems if systems else 0,
        })
        return out

    def write(self, path):
        """Write every span, with the function names, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["function", "parent", "request", "start_s", "end_s", "outermost"],
                "functions": self.keys,
                "spans": self.spans,
            }, handle)
