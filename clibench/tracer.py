"""Per-layer spans around su2haar's public functions, for traced calls only.

`install()` runs in a forked call before the CLI starts.  Each traced
function is wrapped in every module namespace (and class dictionary) that
binds it, so `from .powers import power_scan` in `cli` and `harness` gets its
own wrapper.  To prove that no call runs outside its span, the original
function object keeps its identity but gets a sentinel code object: a call
that reaches it without passing through a wrapper (a binding the walk
missed, a reference captured earlier) counts as escaped and then runs the
original code.  An lru_cache's cached function is reached legitimately from
inside its own wrapper; the wrapper arms it for that.

A span records calls, inclusive time (outermost occurrence of its name
only) and self time (duration minus the spans directly inside it).  Layers
are the package's modules; a span name starts with its layer.
"""

from __future__ import annotations

import sys
import time
import types
from collections import Counter, defaultdict

SENTINEL_MODULE = "_clibench_sentinel"

# (module, attribute, span name); the attribute is looked up once and every
# binding of the same object in any su2haar namespace gets the wrapper.
FUNCTIONS = (
    ("su2haar.cli", "main", "cli.main"),
    ("su2haar._kernel", "balanced_compositions", "kernel.enum"),
    ("su2haar._kernel", "convolve", "kernel.convolve"),
    ("su2haar._kernel", "vec_pow", "kernel.convolve"),
    ("su2haar.integrals", "integrate_product", "integrals"),
    ("su2haar.powers", "power_scan", "powers"),
    ("su2haar.powers", "power_integral", "powers"),
    ("su2haar.powers", "power_integral_with_witness", "powers"),
    ("su2haar.powers", "enumerate_balanced_compositions", "powers"),
    ("su2haar.wigner", "theta_restriction", "wigner"),
    ("su2haar.wigner", "matrix_element_trigpoly", "wigner"),
    ("su2haar.hull", "hull_certificate", "hull.certificate"),
    ("su2haar.hull", "origin_in_hull", "hull.membership"),
    ("su2haar.hull", "vanishing_threshold", "hull.threshold"),
    ("su2haar.harness", "check_proven_direction", "harness.trial"),
    ("su2haar.harness", "fuzz", "harness.fuzz"),
    ("su2haar.harness", "run_verification_suite", "harness.verify"),
    ("su2haar.numeric", "mc_integral", "numeric.mc"),
)

# RadicalScalar arithmetic and constructors, plus its JSON output.
SCALAR_METHODS = (
    "__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "conjugate",
    "times_i_power", "zero", "one", "from_rational", "from_gaussian", "from_terms", "sqrt_int",
)


def _layer(span: str) -> str:
    return span.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.stack = []                 # open spans: [name, time of spans directly inside]
        self.depth = Counter()
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.entries = Counter()        # calls entering a layer from outside it
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.trial_s = []
        self.max_bits = 0
        self.escaped = Counter()
        self._impls = {}
        self._armed = Counter()
        self._wrappers = set()

    # ---- wrapping ------------------------------------------------------

    def _wrap(self, name, call, hook=None, arm=None, entry_hook=None):
        stack, depth, clock = self.stack, self.depth, time.perf_counter
        layer = _layer(name)
        armed = self._armed

        def wrapper(*args, **kwargs):
            if not stack or _layer(stack[-1][0]) != layer:
                self.entries[name] += 1
                if entry_hook is not None:
                    entry_hook(self, args)
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            if arm is not None:
                armed[arm] += 1
            start = clock()
            try:
                result = call(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if arm is not None:
                    armed[arm] -= 1
                depth[name] -= 1
                stack.pop()
                self.calls[name] += 1
                self.self_time[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if not depth[name]:
                    self.incl[name] += elapsed
            if hook is not None:
                hook(self, args, kwargs, result, elapsed)
            return result

        self._wrappers.add(wrapper)
        return wrapper

    def _sentinel(self, func):
        """Give `func` a code object that reports calls bypassing the wrappers.

        Returns a copy of the original function to call instead, or None for
        objects whose code cannot be swapped.
        """
        if not isinstance(func, types.FunctionType) or func.__closure__:
            return None
        fid = len(self._impls)
        impl = types.FunctionType(func.__code__, func.__globals__, func.__name__, func.__defaults__)
        impl.__kwdefaults__ = func.__kwdefaults__
        self._impls[fid] = (func.__qualname__, impl)
        src = (f"def sentinel(*args, **kwargs):\n"
               f"    return __import__('sys').modules[{SENTINEL_MODULE!r}].enter({fid}, args, kwargs)\n")
        scope = {}
        exec(compile(src, "<clibench sentinel>", "exec"), scope)
        func.__code__ = scope["sentinel"].__code__
        func.__defaults__ = None
        func.__kwdefaults__ = None
        return fid, impl

    def enter(self, fid, args, kwargs):
        name, impl = self._impls[fid]
        if not self._armed[fid]:
            self.escaped[name] += 1
        return impl(*args, **kwargs)

    def _install_function(self, modules, module, attr, name):
        target = getattr(sys.modules[module], attr)
        hook, entry_hook = HOOKS.get(attr), ENTRY_HOOKS.get(attr)
        inner = getattr(target, "__wrapped__", None)          # functools.lru_cache
        if inner is not None:
            sentinel = self._sentinel(inner)
            wrapper = self._wrap(name, target, hook, sentinel[0] if sentinel else None, entry_hook)
        else:
            sentinel = self._sentinel(target)
            wrapper = self._wrap(name, sentinel[1] if sentinel else target, hook, None, entry_hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, key, wrapper)

    def _install_method(self, cls, attr, name):
        raw = cls.__dict__[attr]
        if raw in self._wrappers:         # an alias such as __rmul__ = __mul__
            return
        func = raw.__func__ if isinstance(raw, staticmethod) else raw
        sentinel = self._sentinel(func)
        wrapper = self._wrap(name, sentinel[1] if sentinel else func, HOOKS.get(attr))
        for key, value in list(cls.__dict__.items()):
            if value is raw:
                setattr(cls, key, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "su2haar" or key.startswith("su2haar.")]
        sys.modules[SENTINEL_MODULE] = self
        for module, attr, name in FUNCTIONS:
            self._install_function(modules, module, attr, name)
        scalars = sys.modules["su2haar.scalars"].RadicalScalar
        for attr in SCALAR_METHODS:
            if attr in scalars.__dict__:
                self._install_method(scalars, attr, "scalars")
        self._install_method(scalars, "to_json", "scalars.to_json")
        return self

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "incl": dict(self.incl),
            "self": dict(self.self_time),
            "entries": dict(self.entries),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "trial_s": self.trial_s,
            "max_bits": self.max_bits,
            "escaped": dict(self.escaped),
        }


# ---- counters taken at the span boundaries -----------------------------------

def _compositions(t, args, kwargs, result, elapsed):
    t.counts["kernel.compositions"] += len(result)


def _convolve(t, args, kwargs, result, elapsed):
    t.counts["kernel.convolve.calls"] += 1


def _product(t, args, kwargs, result, elapsed):
    t.counts["integrals.products"] += 1
    t.distinct["integrals.products"].add((args[0], args[1] if len(args) > 1 else kwargs.get("shift")))
    if not result.is_zero():
        t.counts["integrals.nonzero"] += 1


def _value(t, args, kwargs, result, elapsed):
    t.counts["powers.values"] += 1


def _expansion(t, args, kwargs, result, elapsed):
    t.counts["wigner.expansions"] += 1
    t.distinct["wigner.expansions"].add(args[0])


def _hull_points(t, args):
    t.counts["hull.points"] += len(args[0].points)


def _trial(t, args, kwargs, result, elapsed):
    t.trial_s.append(elapsed)


def _samples(t, args, kwargs, result, elapsed):
    t.counts["numeric.samples"] += result.samples


def _to_json(t, args, kwargs, result, elapsed):
    for side in ("real", "imag"):
        for term in result[side]:
            num, _, den = term["coeff"].partition("/")
            t.max_bits = max(t.max_bits, abs(int(num)).bit_length(), int(den or 1).bit_length())


HOOKS = {
    "balanced_compositions": _compositions,
    "convolve": _convolve,
    "integrate_product": _product,
    "power_integral": _value,
    "power_integral_with_witness": _value,
    "theta_restriction": _expansion,
    "matrix_element_trigpoly": _expansion,
    "check_proven_direction": _trial,
    "mc_integral": _samples,
    "to_json": _to_json,
}


# Called when a call enters the span's layer from outside it, before it runs.
ENTRY_HOOKS = {
    "hull_certificate": _hull_points,
    "origin_in_hull": _hull_points,
    "vanishing_threshold": _hull_points,
}


def install() -> Tracer:
    return Tracer().install()
