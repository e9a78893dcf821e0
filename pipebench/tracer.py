"""Per-layer spans for the traced benchmark run, installed from outside the library.

The layers are the modules of ``src/trigonal``.  ``Tracer.install`` replaces
each public function named in ``LAYERS`` by a timing wrapper: on the module
that defines it, on every ``trigonal`` module that re-binds it through
``from .x import f``, and, for methods, on every class of the module that
defines the method itself.  A span's self time is its duration minus the
time of the wrapped calls it makes.  Spans are aggregated in memory, per op
and per function; nothing is written until the run ends.

Counters are recorded at the same boundaries (see ``COUNTERS``).  Every
count depends only on the inputs, so two traced runs of one seed give the
same ``.calls`` and counters.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

LAYERS = {
    "fields": ("make_extension", "embed", "project", "frobenius_power", "sqrt", "is_square", "inv"),
    "polyring": ("factorize", "roots", "pow_mod", "gcd", "xgcd", "exact_square_root", "reduce_mod_cubic"),
    "curves": ("OddModel.from_curve", "random_class_on", "cantor_add", "cantor_mul", "count_points"),
    "subgroups": ("pattern_of", "enumerate_tractable"),
    "trigmaps": ("build_M", "kernel_basis", "rationality_discriminant", "trigonal_map_for", "verify_trigonal"),
    "construction": ("build_fibration", "build_X", "build_plane_model", "build_correspondence"),
    "evaluation": ("phi_on_class", "fiber_points", "reverse_on_xdivisor", "fiber_partition_oracle"),
    "survey": ("random_curve", "survey_trial"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

COUNTERS = (
    "subgroups.tractable_per_curve",  # subgroups returned / enumerate_tractable calls
    "trigmaps.trig_rational_ratio",  # square discriminants / rationality_discriminant calls
    "trigmaps.mobius_retries",  # trigonal_map_for calls at _depth > 0
    "construction.isog_rational_ratio",  # square alpha / fibrations built
    "survey.curves_per_op",  # random_curve calls / ops
    "evaluation.shuffle_attempts_per_class",  # random_class_on inside phi_on_class / phi_on_class calls
    "evaluation.bad_support",  # BadSupport raised while phi_on_class runs, caught retries included
    "evaluation.fiber_ext_degree_mean",  # mean field.k over fiber_points calls
)

# error codes of trigonal.errors; "other" is any other exception and
# "deadline" an op stopped by the per-op deadline
ERROR_CODES = (
    "bad_degree", "bad_support", "context_mismatch", "degenerate_configuration",
    "degenerate_pair", "error", "model_mismatch", "no_rational_weierstrass_point",
    "non_prime", "not_a_factor", "not_a_partition_of_8", "not_monic_cubic",
    "not_rational", "prime_too_small", "ramified_fiber", "square_root_obstruction",
    "too_large", "zero_polynomial", "other", "deadline",
)

# per-layer metrics that depend on timing; every other one repeats exactly
# across traced runs of one seed
TIMED_SUFFIXES = ("self_s", ".share", "trace.ops_per_s", "trace.overhead")


def _legendre_square(p, a):
    """Euler's criterion over F_p, computed here so the check adds no traced call."""
    return a % p == 0 or pow(a, (p - 1) // 2, p) == 1


class Tracer:
    """Timing wrappers around the public functions of every layer."""

    def __init__(self):
        self.stack = [0.0]  # child time of each open span; [0] is the op level
        self.stats = {name: [0, 0.0] for name in FUNCTIONS}  # calls, self seconds
        self.counts = Counter()
        self.in_phi = 0
        self._undo = []
        self._hooks = {
            "subgroups.enumerate_tractable": (None, self._after_enumerate),
            "trigmaps.rationality_discriminant": (None, self._after_discriminant),
            "trigmaps.trigonal_map_for": (self._before_map, None),
            "construction.build_fibration": (None, self._after_fibration),
            "evaluation.phi_on_class": (self._enter_phi, self._leave_phi),
            "curves.random_class_on": (self._before_shuffle, None),
            "evaluation.fiber_points": (self._before_fiber, None),
        }

    # -- counters ------------------------------------------------------------

    def _after_enumerate(self, args, kwargs, result, ok):
        if ok:
            self.counts["enumerate_results"] += len(result)

    def _after_discriminant(self, args, kwargs, result, ok):
        field = args[0] if args else kwargs["field"]
        if ok and _legendre_square(field.p, result):
            self.counts["square_discriminants"] += 1

    def _before_map(self, args, kwargs):
        depth = args[2] if len(args) > 2 else kwargs.get("_depth", 0)
        if depth > 0:
            self.counts["trigmaps.mobius_retries"] += 1

    def _after_fibration(self, args, kwargs, result, ok):
        if ok:
            self.counts["fibrations"] += 1
            if _legendre_square(result.field.p, result.alpha):
                self.counts["square_alpha"] += 1

    def _enter_phi(self, args, kwargs):
        self.in_phi += 1

    def _leave_phi(self, args, kwargs, result, ok):
        self.in_phi -= 1

    def _before_shuffle(self, args, kwargs):
        if self.in_phi:
            self.counts["shuffles_in_phi"] += 1

    def _before_fiber(self, args, kwargs):
        field = args[2] if len(args) > 2 else kwargs["field"]
        self.counts["fiber_degree_sum"] += field.k

    # -- installation --------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self.stack
        stat = self.stats[name]
        clock = time.perf_counter
        before, after = self._hooks.get(name, (None, None))

        if before is None and after is None:

            def traced(*args, **kwargs):
                stack.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat[0] += 1
                    stat[1] += dt - stack.pop()
                    stack[-1] += dt

        else:

            def traced(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                result, ok = None, False
                stack.append(0.0)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                    return result
                finally:
                    dt = clock() - t0
                    stat[0] += 1
                    stat[1] += dt - stack.pop()
                    stack[-1] += dt
                    if after is not None:
                        after(args, kwargs, result, ok)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every function in LAYERS; undo with uninstall()."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sorted(sys.modules.items()) if m is not None and (n == "trigonal" or n.startswith("trigonal."))]
        for mod_name, fns in LAYERS.items():
            mod = sys.modules[f"trigonal.{mod_name}"]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    self._set(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                    continue
                fn = mod.__dict__.get(fn_name)
                if fn is not None:
                    wrapped = self._wrap(name, fn)
                    for m in package:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                self._set(m, attr, wrapped)
                    continue
                owners = [
                    c for c in vars(mod).values()
                    if isinstance(c, type) and c.__module__ == mod.__name__ and fn_name in c.__dict__
                ]
                if not owners:
                    raise LookupError(f"no function or method {name}")
                for cls in owners:
                    self._set(cls, fn_name, self._wrap(name, cls.__dict__[fn_name]))
        self._patch_bad_support()

    def _patch_bad_support(self):
        from trigonal.errors import BadSupport

        had_own = "__init__" in BadSupport.__dict__
        parent_init = BadSupport.__init__
        tracer = self

        def counting_init(exc, *args, **kwargs):
            if tracer.in_phi:
                tracer.counts["evaluation.bad_support"] += 1
            parent_init(exc, *args, **kwargs)

        if had_own:
            self._set(BadSupport, "__init__", counting_init)
        else:
            BadSupport.__init__ = counting_init
            self._undo.append((BadSupport, "__init__", None))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def reset(self):
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        self.counts.clear()
        self.stack[:] = [0.0]
        self.in_phi = 0

    def snapshot(self):
        """Calls and self time per function since the last reset."""
        return {name: (stat[0], stat[1]) for name, stat in self.stats.items()}

    def module_self(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, self_s) in self.snapshot().items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def counters(self, ops):
        """The COUNTERS values from the counts since the last reset."""
        calls = {name: stat[0] for name, stat in self.stats.items()}
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "subgroups.tractable_per_curve": ratio(c["enumerate_results"], calls["subgroups.enumerate_tractable"]),
            "trigmaps.trig_rational_ratio": ratio(c["square_discriminants"], calls["trigmaps.rationality_discriminant"]),
            "trigmaps.mobius_retries": c["trigmaps.mobius_retries"],
            "construction.isog_rational_ratio": ratio(c["square_alpha"], c["fibrations"]),
            "survey.curves_per_op": ratio(calls["survey.random_curve"], ops),
            "evaluation.shuffle_attempts_per_class": ratio(c["shuffles_in_phi"], calls["evaluation.phi_on_class"]),
            "evaluation.bad_support": c["evaluation.bad_support"],
            "evaluation.fiber_ext_degree_mean": ratio(c["fiber_degree_sum"], calls["evaluation.fiber_points"]),
        }
