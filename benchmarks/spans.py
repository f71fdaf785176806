"""Spans around the unirank layers, installed from outside the package.

``Tracer.install()`` replaces the public entry points of each module with
wrappers that record one span per call: name, key, parent span, trace id
(one per CLI invocation), start and end.  ``Tracer.uninstall()`` puts the
originals back.  Nothing under ``src/`` knows about the tracer.

Wrapping rules:

* A function that other modules import by name (``pochhammer``,
  ``theta_sum``, the ``series_*`` builders, ...) is replaced in every
  ``unirank`` module that holds it.  A patch on its home module alone would
  miss every call made through the imported name.
* Catalog builders are wrapped by swapping each ``REGISTRY`` record for a
  copy whose builder is wrapped; ``verify`` looks the record up per call.
* ``ZetaLaurent`` is never wrapped: its per-coefficient operations run
  millions of times at N = 100.  Wrapping stops at the ``TruncatedSeries``
  and ``PrefixedSeries`` level, tens of thousands of calls per run.

``summarize()`` turns the spans of one traced pass into the per-layer
metrics listed in ``PER_LAYER``.
"""

import dataclasses
import functools
import sys
import time
from fractions import Fraction

LAYERS = ("series", "gflib", "identities", "families", "growth", "parity",
          "cli")
# keys are fixed here, not imported, so that the metric set stays the same
# when the program's own key lists change
SERIES_KEYS = ("P", "U", "Uzeta", "R", "Rbar", "Rbar2", "R2", "Ubar",
               "Ubar2", "U2", "Ubar-q", "Ubar2-q", "U2-q")
IDENTITY_KEYS = ("eq1.1", "eq1.2", "lemma3.1", "cor3.2", "prop4.1",
                 "cor4.2", "false-dual", "prop5.1", "cor5.2",
                 "prop5.3-mod2", "thetid", "prop5.4", "omega", "heine",
                 "watson", "ab621", "ab6312", "bailey-lemma", "lovejoy-bp",
                 "jtp")
COUNT_KEYS = ("p", "u", "u2bar", "u2")

TRUNCATED_METHODS = {
    "__mul__": "series.mul",
    "invert": "series.invert",
    "mul_binomial": "series.binomial",
    "div_binomial": "series.binomial",
    "__add__": "series.add",
    "__sub__": "series.add",
    "__neg__": "series.add",
    "scalar_mul": "series.other",
    "shift_q": "series.other",
    "substitute_q_power": "series.other",
    "negate_q": "series.other",
    "truncate": "series.other",
    "marginal": "series.other",
    "bar": "series.other",
    "negate_zeta": "series.other",
    "first_mismatch": "series.other",
}
PREFIXED_METHODS = ("__mul__", "add", "__add__", "__sub__", "invert",
                    "mul_binomial", "div_binomial", "compare", "negate",
                    "times_scalar", "times_i_power", "times_zeta_half",
                    "times_q24", "times_body")
METHODS = {   # (module, class) -> {method: span name}
    ("series", "TruncatedSeries"): TRUNCATED_METHODS,
    ("series", "PrefixedSeries"): dict.fromkeys(PREFIXED_METHODS,
                                                "series.prefixed"),
    ("gflib", "PrefixedWithPoles"): {"cleared": "gflib.appell"},
}

# (module, function, span name, first argument is the span key)
FUNCTIONS = (
    ("series", "pochhammer", "series.pochhammer", False),
    ("series", "pochhammer_prefixed", "series.pochhammer", False),
    ("gflib", "build", "gflib.build", True),
    ("gflib", "bilateral_expand", "gflib.bilateral", False),
    ("gflib", "theta_sum", "gflib.theta", False),
    ("gflib", "theta_product", "gflib.theta", False),
    ("gflib", "eta_power", "gflib.theta", False),
    ("gflib", "appell_sum", "gflib.appell", False),
    ("gflib", "mu_sum", "gflib.appell", False),
    ("identities", "verify", "identities.verify", True),
    ("identities", "bailey_pair_pairs", "identities.bailey", False),
    ("identities", "check_bailey_pair", "identities.bailey", False),
    ("identities", "apply_bailey_lemma", "identities.bailey", False),
    ("identities", "lovejoy_pair", "identities.bailey", False),
    ("families", "count_by_rank", "families.count_by_rank", False),
    ("families", "count", "families.count", False),
    ("growth", "exact_counts", "growth.exact_counts", True),
    ("growth", "partial_sum_terms", "growth.partial_sum_terms", False),
    ("growth", "asymptotic_main", "growth.asymptotic", False),
    ("parity", "count_parity_bits", "parity.count_route", False),
    ("parity", "theta_parity_bits", "parity.theta_route", False),
    ("parity", "norm_parity_bits", "parity.norm_route", False),
    ("parity", "odd_criterion", "parity.odd_criterion", False),
    ("parity", "parity_agreement", "parity.agreement", False),
)


def _per_layer():
    names = [(f"{layer}.self_s", "s") for layer in LAYERS]
    for op in ("mul", "invert", "binomial", "pochhammer"):
        names += [(f"series.{op}.calls", "count"),
                  (f"series.{op}.self_s", "s")]
    names += [("series.add.self_s", "s"), ("series.prefixed.self_s", "s"),
              ("series.max_coeff_bits", "bits"),
              ("series.max_zeta_span", "count")]
    names += [(f"gflib.build.{key}_s", "s") for key in SERIES_KEYS]
    names += [(f"gflib.{part}.self_s", "s")
              for part in ("bilateral", "theta", "appell")]
    for key in IDENTITY_KEYS:
        names += [(f"identities.{key}.build_s", "s"),
                  (f"identities.{key}.compare_s", "s")]
    names += [("identities.pairs", "count"),
              ("identities.compared_depth_min", "count")]
    names += [("families.count_by_rank.calls", "count"),
              ("families.count_by_rank.self_s", "s"),
              ("families.dp_builds", "count"),
              ("families.dp_build.self_s", "s")]
    names += [(f"growth.exact_counts.{key}_s", "s") for key in COUNT_KEYS]
    names += [("parity.count_route_s", "s"), ("parity.theta_route_s", "s"),
              ("parity.norm_route_s", "s"),
              ("parity.odd_criterion.calls", "count"),
              ("parity.odd_criterion.s", "s"),
              ("parity.agreement.self_s", "s")]
    names += [("cli.main.self_s", "s"), ("cli.stdout_bytes", "bytes"),
              ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return names


# every per-layer metric with its unit, in report order
PER_LAYER = _per_layer()
# the exact counts a change may not lower without saying so
HIGHER_IS_BETTER = ("identities.pairs", "identities.compared_depth_min")

# span fields, stored as lists: [name, key, parent, trace, start, end]
NAME, KEY, PARENT, TRACE, START, END = range(6)


class Tracer:
    """Records spans in memory while ``active``; one trace per invocation."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.trace = -1
        self.root = -1
        self.active = False
        self.kept = []       # results whose coefficients feed exact counts
        self.missing = []    # entry points not found by install()
        self._undo = []

    def wrap(self, fn, name, keyed=False, key=None, keep=None):
        """Span-recording wrapper around ``fn``.

        ``keyed`` takes the span key from the first argument; ``key`` fixes
        it.  ``keep="top"`` keeps the result of calls made directly by the
        CLI, ``keep="all"`` keeps every result.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [name, args[0] if keyed else key, parent, self.trace,
                    clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep == "all" or (keep == "top" and parent == self.root):
                self.kept.append(out)
            return out

        return traced

    def install(self):
        """Wrap every entry point named above.  A name that no longer exists
        is skipped and listed in ``self.missing``; the traced run then
        reports itself incorrect, so a rename or merge under ``src/`` forces
        these tables to be updated instead of reading as zero time."""
        modules = {n: m for n, m in sorted(sys.modules.items())
                   if n == "unirank" or n.startswith("unirank.")}

        def find(mod, *path):
            obj = modules.get("unirank." + mod)
            for attr in path:
                obj = getattr(obj, attr, None)
            if obj is None:
                self.missing.append(".".join((mod,) + path))
            return obj

        for (mod, cls_name), methods in METHODS.items():
            cls = find(mod, cls_name)
            for attr, name in methods.items() if cls else ():
                original = cls.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{mod}.{cls_name}.{attr}")
                    continue
                setattr(cls, attr, self.wrap(original, name))
                self._undo.append((cls, attr, original))
        gflib = find("gflib")
        builders = [attr for attr in vars(gflib)
                    if attr.startswith("series_")] if gflib else []
        if not builders:
            self.missing.append("gflib.series_*")
        functions = list(FUNCTIONS) + [
            ("gflib", attr, "gflib.series", False) for attr in builders]
        for mod, attr, name, keyed in functions:
            original = find(mod, attr)
            if original is None:
                continue
            wrapper = self.wrap(original, name, keyed,
                                keep="top" if mod == "gflib" else None)
            for holder in modules.values():
                for held, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, held, wrapper)
                        self._undo.append((holder, held, original))
        registry = find("identities", "REGISTRY") or {}
        for key, record in list(registry.items()):
            builder = self.wrap(record.builder, "identities.build", key=key,
                                keep="all")
            registry[key] = dataclasses.replace(record, builder=builder)
            self._undo.append((registry, key, record))
        tables = find("families", "_DP_TABLES") or {}
        for family, table in list(tables.items()):
            tables[family] = self.wrap(table, "families.dp_build")
            self._undo.append((tables, family, table))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def call_root(self, main, argv):
        """Run ``main(argv)`` as the root span of a new trace."""
        self.trace += 1
        self.root = len(self.spans)
        return self.wrap(main, "cli.main")(argv)


def coefficient_stats(obj):
    """(largest coefficient in bits, widest zeta span) of a returned series,
    an identity's (label, lhs, rhs) pair list, or anything else (0, 0)."""
    from unirank.series import PrefixedSeries, TruncatedSeries, ZetaLaurent

    if isinstance(obj, list):
        stats = [coefficient_stats(side) for _, lhs, rhs in obj
                 for side in (lhs, rhs)]
        return tuple(max(col, default=0) for col in zip(*stats))
    if isinstance(obj, PrefixedSeries):
        obj = obj.body
    if not isinstance(obj, TruncatedSeries):
        return 0, 0
    bits = span = 0
    for c in obj.coeffs:
        if isinstance(c, ZetaLaurent):
            if c.c:
                span = max(span, max(c.c) - min(c.c))
            values = c.c.values()
        else:
            values = (c,)
        for v in values:
            if isinstance(v, Fraction):
                bits = max(bits, abs(v.numerator).bit_length(),
                           v.denominator.bit_length())
            else:
                bits = max(bits, abs(int(v)).bit_length())
    return bits, span


def compared_depth(lhs, rhs):
    """Depth through which verify compared one pair, mirroring
    ``identities._compare``; None when the comparison reports no depth."""
    from unirank.series import PrefixedSeries

    if isinstance(lhs, PrefixedSeries) or isinstance(rhs, PrefixedSeries):
        return lhs.compare(rhs).through
    return min(lhs.order, rhs.order)


def self_times(spans):
    """Span duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(spans, argvs):
    """Per-layer metrics of one traced pass; ``argvs[t]`` is trace t's argv.

    Within each invocation the self times add up to the root span's
    duration by construction: every child's time is taken from its direct
    parent, which lies in the same trace.
    """
    own = self_times(spans)
    calls, self_s, total, keyed, top_gflib = {}, {}, {}, {}, {}

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        add(calls, name, 1)
        add(self_s, name, own[i])
        add(total, name, dur)
        if s[KEY] is not None:
            add(keyed, (name, s[KEY]), dur)
        if (s[PARENT] >= 0 and name.startswith("gflib.")
                and spans[s[PARENT]][NAME] == "cli.main"):
            add(top_gflib, s[TRACE], dur)
        if name == "identities.verify":
            add(keyed, ("identities.compare", s[KEY]), dur)
        elif name == "identities.build":
            add(keyed, ("identities.compare", spans[s[PARENT]][KEY]), -dur)

    def layer_self(layer):
        return sum(v for n, v in self_s.items() if n.split(".")[0] == layer)

    m = {f"{layer}.self_s": layer_self(layer) for layer in LAYERS}
    for op in ("mul", "invert", "binomial", "pochhammer"):
        m[f"series.{op}.calls"] = calls.get(f"series.{op}", 0)
        m[f"series.{op}.self_s"] = self_s.get(f"series.{op}", 0.0)
    m["series.add.self_s"] = self_s.get("series.add", 0.0)
    m["series.prefixed.self_s"] = self_s.get("series.prefixed", 0.0)
    for key in SERIES_KEYS:
        m[f"gflib.build.{key}_s"] = sum(
            v for t, v in top_gflib.items()
            if argvs[t][0] == "expand" and argvs[t][2] == key)
    for part in ("bilateral", "theta", "appell"):
        m[f"gflib.{part}.self_s"] = self_s.get(f"gflib.{part}", 0.0)
    for key in IDENTITY_KEYS:
        m[f"identities.{key}.build_s"] = keyed.get(("identities.build", key),
                                                   0.0)
        m[f"identities.{key}.compare_s"] = keyed.get(
            ("identities.compare", key), 0.0)
    m["families.count_by_rank.calls"] = calls.get("families.count_by_rank", 0)
    m["families.count_by_rank.self_s"] = self_s.get("families.count_by_rank",
                                                    0.0)
    m["families.dp_builds"] = calls.get("families.dp_build", 0)
    m["families.dp_build.self_s"] = self_s.get("families.dp_build", 0.0)
    for key in COUNT_KEYS:
        m[f"growth.exact_counts.{key}_s"] = keyed.get(
            ("growth.exact_counts", key), 0.0)
    for route in ("count", "theta", "norm"):
        m[f"parity.{route}_route_s"] = total.get(f"parity.{route}_route", 0.0)
    m["parity.odd_criterion.calls"] = calls.get("parity.odd_criterion", 0)
    m["parity.odd_criterion.s"] = self_s.get("parity.odd_criterion", 0.0)
    m["parity.agreement.self_s"] = self_s.get("parity.agreement", 0.0)
    m["cli.main.self_s"] = self_s.get("cli.main", 0.0)
    return m
