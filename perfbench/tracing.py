"""Per-layer tracing from outside the program.

A Tracer rebinds the public functions of each heckezero module to wrappers
that count calls and accumulate self time: the inclusive time of a call minus
the time spent in wrapped calls below it.  `from x import f` copies the
binding, so a wrapper replaces the name in every heckezero module that holds
the original object.  Uninstalling puts every original back.

The hot constructors of `exact` are counted, not timed.  Work a hook does
after a call (reading the result) is charged to the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# module -> public functions timed as layer spans
TIMED = {
    "cli": ("main",),
    "shintani": ("partial_hecke_L_zero", "partial_zeta_zero"),
    "kernels": ("zeta12_times",),
    "quadfield": ("norm_residue", "lattice_product", "ideal_norm",
                  "make_field", "class_numbers"),
    "characters": ("char_eval", "enumerate_characters", "char_invariants",
                   "gen_bernoulli_b1", "modp_realizations"),
    "cfrac": ("minus_expand", "plus_expand", "plus_to_minus"),
    "linearity": ("family_instance", "closed_form_cd", "hypothesis_check_norm",
                  "closed_form_chi", "verify_linearity"),
    "biro": ("condition_star_search", "residue_mod_p",
             "factorization_oracle_check"),
    "exact": ("factorize",),
}
# counters that are not "<timed function>.calls"
COUNTERS = ("kernels.digit_steps", "kernels.pure_fallback_calls",
            "cfrac.period_digits", "exact.QuadSurd.new",
            "exact.CycloElement.new", "exact.bernoulli_poly.calls")


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, fns in TIMED.items():
        for fn in fns:
            out += [(f"{mod}.{fn}.calls", "count"),
                    (f"{mod}.{fn}.self_s", "s")]
    out += [(name, "count") for name in COUNTERS]
    out += [("characters.char_eval.zero_frac", "ratio"),
            ("trace.overhead_s", "s")]
    return out


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "heckezero"
                                  or name.startswith("heckezero."))]


def _is_zero(value) -> bool:
    test = getattr(value, "is_zero", None)
    return test() if callable(test) else value == 0


class Tracer:
    """Collects calls, self time and counters while installed."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self._stack = [0.0]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers

    def _timed(self, key, fn, before=None, after=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[key] += dt - stack.pop()
                stack[-1] += dt
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _rebind(self, module: str, name: str, make, skip=()) -> None:
        """Replace `name` wherever a heckezero module binds the original."""
        mod = sys.modules.get(f"heckezero.{module}")
        orig = getattr(mod, name, None)
        if orig is None:
            self.missing.add(f"{module}.{name}")
            return
        wrapper = make(orig)
        for m in _modules():
            if m.__name__ not in skip and m.__dict__.get(name) is orig:
                self._set(m, name, wrapper)

    def _count_new(self, module: str, cls_name: str) -> None:
        cls = getattr(sys.modules.get(f"heckezero.{module}"), cls_name, None)
        if cls is None:
            self.missing.add(f"{module}.{cls_name}")
            return
        self._set(cls, "__init__",
                  self._counted(f"{module}.{cls_name}.new", cls.__init__))

    def install(self) -> None:
        counts = self.counts

        def digit_steps(args):
            counts["kernels.digit_steps"] += len(args[3])

        def char_zero(result):
            if _is_zero(result):
                counts["characters.char_eval.zero"] += 1

        def period_digits(result):
            counts["cfrac.period_digits"] += len(result.period)

        hooks = {"kernels.zeta12_times": (digit_steps, None),
                 "characters.char_eval": (None, char_zero),
                 "cfrac.minus_expand": (None, period_digits),
                 "cfrac.plus_expand": (None, period_digits),
                 "cfrac.plus_to_minus": (None, period_digits)}
        # the pure kernel's own module keeps its name for the fallback
        # counter below
        kernel_skip = ("heckezero._zcore_py",)
        for mod, fns in TIMED.items():
            for fn in fns:
                key = f"{mod}.{fn}"
                before, after = hooks.get(key, (None, None))
                skip = kernel_skip if key == "kernels.zeta12_times" else ()
                self._rebind(mod, fn, lambda f, k=key, b=before, a=after:
                             self._timed(k, f, b, a), skip)
        # the time in cli.main outside the subcommand bodies is cli self time
        cli = sys.modules["heckezero.cli"]
        for name in sorted(vars(cli)):
            if name.startswith("cmd_"):
                self._rebind("cli", name,
                             lambda f, k=f"cli.{name}": self._timed(k, f))
        # calls into the pure per-cell kernel through a module attribute:
        # the big-operand fallback of a compiled kernel
        for mod, name in (("_zcore_py", "zeta12_times"),
                          ("kernels", "pure_zeta12_times")):
            self._rebind(mod, name, lambda f: self._counted(
                "kernels.pure_fallback_calls", f))
        self._rebind("exact", "bernoulli_poly", lambda f: self._counted(
            "exact.bernoulli_poly.calls", f))
        self._count_new("exact", "QuadSurd")
        self._count_new("exact", "CycloElement")

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    # -- results

    def metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric except the overhead, per traced pass."""
        out = {}
        for mod, fns in TIMED.items():
            for fn in fns:
                key = f"{mod}.{fn}"
                out[f"{key}.calls"] = self.calls[key] / passes
                out[f"{key}.self_s"] = self.self_s[key] / passes
        for name in COUNTERS:
            out[name] = self.counts[name] / passes
        evals = self.calls["characters.char_eval"]
        out["characters.char_eval.zero_frac"] = \
            self.counts["characters.char_eval.zero"] / evals if evals else 0.0
        return out
