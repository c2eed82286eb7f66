"""Spans and counters around the public functions of every drinfeldforms module.

`Tracer.install()` replaces, in place, each public function and method of
the package (plus the arithmetic dunders, named without underscores, e.g.
`polynomials.BiPoly.mul` for `BiPoly.__mul__`) with a wrapper that records
a span: calls, inclusive time and self time (the span's duration minus the
time of the spans it caused).  Recursive calls add their inclusive time
once, at the outermost level.  A few wrappers also record counts where the
work happens: coefficient term pairs multiplied, brute-force tuples
enumerated, field-table slots built, `d2` fixed-point passes and `u_c`
cache hits.

Hooks that read private attributes (`FiniteField._build_tables`,
`FormCatalog._uc_pow`) count 0 once those are gone, rather than failing
the traced command.  Time spent in a hook is charged to no span, so it
lands in `other.self_s`.

Element-level field operations and trivial accessors (see SKIP) are not
spans: they are O(1) lookups called millions of times, so wrapping them
would mostly measure the wrapper.  Their time counts as self time of the
span that called them.  Tracing lives in the benchmark, not in the
package; nothing here changes what the package computes.
"""

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

ARITH_DUNDERS = {"__add__", "__sub__", "__mul__", "__neg__", "__pow__",
                 "__divmod__", "__floordiv__", "__mod__"}

SKIP = {
    # O(1) element arithmetic and encoding in F_q
    "fields.FiniteField.add", "fields.FiniteField.sub", "fields.FiniteField.mul",
    "fields.FiniteField.neg", "fields.FiniteField.inv", "fields.FiniteField.pow",
    "fields.FiniteField.scalar", "fields.FiniteField.elements",
    "fields.FiniteField.digits", "fields.FiniteField.from_digits",
    "fields.is_prime",
    # constant-size constructors and accessors
    "polynomials.UniPoly.zero", "polynomials.UniPoly.one",
    "polynomials.UniPoly.constant", "polynomials.UniPoly.gen",
    "polynomials.BiPoly.zero", "polynomials.BiPoly.one",
    "polynomials.BiPoly.scalar", "polynomials.BiPoly.theta_pow",
    "polynomials.BiPoly.t_pow",
    "series.USeries.zero", "series.USeries.one", "series.USeries.val",
    "taurec.TauSequence.items", "taurec.TauSequence.window",
}

# Catalog properties are the forms themselves, so they are spans too.
TRACED_PROPERTIES = {"forms.FormCatalog." + n for n in ("g", "h", "delta", "e", "ee", "d2")}


def _useries_term_pairs(a, b):
    """Coefficient term pairs USeries.__mul__ multiplies (pairs below the product precision)."""
    val_a = min(a.coeffs) if a.coeffs else a.prec
    val_b = min(b.coeffs) if b.coeffs else b.prec
    prec = min(a.prec + val_b, b.prec + val_a)
    sizes_b = [(n, len(c.terms)) for n, c in b.coeffs.items()]
    pairs = 0
    for n1, c1 in a.coeffs.items():
        k = len(c1.terms)
        for n2, m in sizes_b:
            if n1 + n2 < prec:
                pairs += k * m
    return pairs


class Tracer:
    """Span and counter store; one per traced process."""

    def __init__(self):
        self.stack = []
        self.depth = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.hooks = {
            "fields.FiniteField._build_tables": self._count_table,
            "polynomials.BiPoly.mul": self._count_bipoly_pairs,
            "series.USeries.mul": self._count_useries_pairs,
            "series.USeries.tau": self._count_d2_pass,
            "forms.FormCatalog.u_c": self._count_uc_hit,
            "identities.lemma3_bruteforce": self._count_tuples,
        }

    def reset(self):
        """Forget everything recorded so far (spans must all be closed)."""
        if self.stack:
            raise RuntimeError("reset inside an open span")
        self.calls.clear()
        self.counts.clear()
        self.self_s.clear()
        self.incl_s.clear()

    # -- counters recorded where the work happens ------------------------------

    def _count_table(self, args, kwargs):
        self.counts["fields.table_slots"] += args[0].q ** 2

    def _count_bipoly_pairs(self, args, kwargs):
        self.counts["polynomials.BiPoly.mul.term_pairs"] += (
            len(args[0].terms) * len(args[1].terms))

    def _count_useries_pairs(self, args, kwargs):
        self.counts["series.USeries.mul.term_pairs"] += _useries_term_pairs(args[0], args[1])

    def _count_d2_pass(self, args, kwargs):
        k = args[1] if len(args) > 1 else kwargs.get("k", 1)
        if k == 1 and self.depth["forms.FormCatalog.d2"]:
            self.counts["forms.d2.passes"] += 1

    def _count_uc_hit(self, args, kwargs):
        catalog, c = args[0], args[1]
        power = args[2] if len(args) > 2 else kwargs.get("power", 1)
        if (c.coeffs, power) in getattr(catalog, "_uc_pow", {}):
            self.counts["forms.uc_cache.hits"] += 1

    def _count_tuples(self, args, kwargs):
        inst = args[0]
        self.counts["identities.lemma3_bruteforce.tuples"] += (
            inst.base_field.q ** len(inst.ws) - 1)

    # -- spans ----------------------------------------------------------------------

    def span(self, name, fn):
        """Wrap fn so that each call records a span called name."""
        stack, depth, calls = self.stack, self.depth, self.calls
        self_s, incl_s = self.self_s, self.incl_s
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            if hook is not None:
                # the hook is the tracer's own work: charged to no span's self time
                t0 = perf_counter()
                hook(args, kwargs)
                if stack:
                    stack[-1][1] += perf_counter() - t0
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            depth[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                stack.pop()
                depth[name] -= 1
                self_s[name] += dur - frame[1]
                if not depth[name]:
                    incl_s[name] += dur
                if stack:
                    stack[-1][1] += dur

        return traced

    def install(self):
        """Wrap the package's public functions in every module that names them."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("drinfeldforms.") and mod is not None}
        replaced = {}
        for mod_name, mod in modules.items():
            layer = mod_name.split(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod_name or attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if name not in SKIP:
                        replaced[obj] = self.span(name, obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        # rebind every module-level reference, including `from x import f`
        # copies and dispatch tables such as cli.HANDLERS
        for mod in list(modules.values()) + [sys.modules["drinfeldforms"]]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in replaced:
                            obj[key] = replaced[value]

    def _install_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in ARITH_DUNDERS
            name = f"{layer}.{cls.__name__}.{attr.strip('_')}"
            if attr == "_build_tables":
                name = f"{layer}.{cls.__name__}.{attr}"
            elif not public or name in SKIP:
                continue
            if isinstance(obj, property):
                if name in TRACED_PROPERTIES:
                    setattr(cls, attr, property(self.span(name, obj.fget), obj.fset,
                                                obj.fdel, obj.__doc__))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.span(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.span(name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.span(name, obj))
