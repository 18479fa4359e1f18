"""Spans around qsym's public functions, installed from outside the program.

A ``Tracer`` replaces every binding of a traced function -- module
attributes, from-imported copies, class-attribute aliases such as
``RatFun.__radd__`` and values of module-level dicts such as
``identities._CHECKERS`` -- with a wrapper that records one span
``(name, start, end, parent, note)`` in memory.  ``dump`` writes the spans
and the ``lru_cache`` statistics to a JSON file; ``per_layer`` turns one or
more dumps into the per-layer metrics listed in ``PER_LAYER``.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from fractions import Fraction


def qsym_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qsym" or name.startswith("qsym."))]


def qsym_caches() -> dict:
    """Every ``functools.lru_cache`` defined in qsym, by qualified name."""
    found = {}
    for mod in qsym_modules():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", "").startswith("qsym"):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def cache_stats(caches: dict) -> dict:
    """[hits, misses, currsize] per cache."""
    return {name: [fn.cache_info().hits, fn.cache_info().misses, fn.cache_info().currsize]
            for name, fn in caches.items()}


# -- notes: small per-call counters computed from arguments and result --------


def _products(args, kwargs, result):
    a, b = args[0], args[1]
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _hit(args, kwargs, result):
    return 0 if result is None else 1


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    return abs(c).bit_length()


def _canonical_input(args, kwargs, result):
    f = args[0]
    coeffs = list(f.num.terms.values()) + list(f.den.terms.values())
    return [len(coeffs), max(map(_coeff_bits, coeffs))]


def _tuples(args, kwargs, result):
    n, h, r, x, ctx, N = args
    return ctx.p ** (r * N)


def _sweep_note(args, kwargs, result):
    threads = args[1] if len(args) > 1 else kwargs.get("threads", 1)
    return [len(result), threads]


# (span name, module, attribute path, note)
TARGETS = (
    ("ratfun.poly_mul", "qsym.ratfun", "LaurentPoly.__mul__", _products),
    ("ratfun.mul", "qsym.ratfun", "RatFun.__mul__", None),
    ("ratfun.add", "qsym.ratfun", "RatFun.__add__", None),
    ("ratfun.exact_div", "qsym.ratfun", "LaurentPoly.exact_div", _hit),
    ("ratfun.eq", "qsym.ratfun", "RatFun.__eq__", None),
    ("ratfun.canonical", "qsym.ratfun", "RatFun.canonical", _canonical_input),
    ("ratfun.evaluate", "qsym.ratfun", "RatFun.evaluate", None),
    ("qcore.bracket_poly", "qsym.qcore", "bracket_poly", None),
    ("qbernoulli.beta_higher", "qsym.qbernoulli", "beta_higher", None),
    ("qbernoulli.beta_weighted", "qsym.qbernoulli", "beta_weighted", None),
    ("qbernoulli.t_sum", "qsym.qbernoulli", "t_sum", None),
    ("qbernoulli.t_sum_h", "qsym.qbernoulli", "t_sum_h", None),
    ("volkenborn.multi", "qsym.volkenborn", "riemann_sum_multi", None),
    ("volkenborn.weighted", "qsym.volkenborn", "riemann_sum_weighted", _tuples),
    ("volkenborn.report", "qsym.volkenborn", "convergence_report", None),
    ("identities.thm3", "qsym.identities", "check_thm3", None),
    ("identities.thm4", "qsym.identities", "check_thm4", None),
    ("identities.thm5", "qsym.identities", "check_thm5", None),
    ("identities.thm6", "qsym.identities", "check_thm6", None),
    ("identities.sweep", "qsym.identities", "sweep", _sweep_note),
    ("cli.serialize", "qsym.ratfun", "RatFun.to_json_obj", None),
    ("cli.serialize", "qsym.ratfun", "RatFun.__str__", None),
    ("cli.serialize", "qsym.identities", "CheckReport.to_json_line", None),
    ("cli.serialize", "qsym.volkenborn", "ConvergenceReport.to_json", None),
)


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = vars(obj)[part]
    return obj


def _bindings():
    """(container, key, value) for every attribute of a qsym module, entry of a
    module-level dict and attribute of a class defined in qsym."""
    for mod in qsym_modules():
        for attr, val in list(vars(mod).items()):
            yield mod, attr, val
            if isinstance(val, dict):
                for k, v in list(val.items()):
                    yield val, k, v
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                for cattr, cval in list(vars(val).items()):
                    yield val, cattr, cval


class Tracer:
    """Records spans for the functions in TARGETS (or the subset named in ``only``)."""

    def __init__(self, only=None):
        import qsym  # noqa: F401  (loads every qsym module before rebinding)
        import qsym.cli  # noqa: F401

        self.caches = qsym_caches()  # before rebinding hides the cached callables
        self.names: list[str] = []
        self.spans: list = []
        self._stack: list[int] = []
        self.originals: dict = {}  # id(original) -> (original, wrapper)
        for name, module, path, note in TARGETS:
            if only is None or name in only:
                fn = _resolve(module, path)
                self.originals[id(fn)] = (fn, self._wrap(name, fn, note))
        self._rebind()

    def _wrap(self, name: str, fn, note):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name_id, t0, clock(), parent, None)
                raise
            finally:
                stack.pop()
            t1 = clock()
            spans[idx] = (name_id, t0, t1, parent,
                          note(args, kwargs, result) if note else None)
            return result

        return wrapper

    def _original(self, val):
        entry = self.originals.get(id(val))
        return entry if entry is not None and entry[0] is val else None

    def _rebind(self) -> None:
        """Replace every binding of an original in qsym's modules, classes and dicts."""
        for container, key, val in _bindings():
            entry = self._original(val)
            if entry is None:
                continue
            if isinstance(container, dict):
                container[key] = entry[1]
            else:
                setattr(container, key, entry[1])

    def unwrapped_bindings(self) -> list:
        """Bindings that still point at an original (empty after a complete install)."""
        return [f"{getattr(c, '__name__', 'dict')}[{k!r}]" for c, k, v in _bindings()
                if self._original(v) is not None]

    def dump(self, path: str, extra: dict | None = None) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "caches": cache_stats(self.caches), "extra": extra or {}}, fh)


# -- per-layer metrics ----------------------------------------------------------

CLI_SLOTS = ("beta12", "beta8", "beta_h", "tsum", "tsum_h", "table",
             "verify_t1", "verify_t2", "volkenborn", "beta0", "beta1_pretty")

_COUNTED = ("ratfun.poly_mul", "ratfun.mul", "ratfun.add", "ratfun.exact_div", "ratfun.eq",
            "ratfun.canonical", "qcore.bracket_poly", "qbernoulli.beta_higher",
            "qbernoulli.beta_weighted", "qbernoulli.t_sum", "qbernoulli.t_sum_h",
            "volkenborn.multi", "volkenborn.weighted", "identities.thm3", "identities.thm4",
            "identities.thm5", "identities.thm6")


def _metric(unit: str, better: str) -> dict:
    return {"unit": unit, "better": better}


# name -> unit and direction; every traced run reports all of them (0 where unused).
PER_LAYER = {
    "ratfun.poly_mul.calls": _metric("count", "lower"),
    "ratfun.poly_mul.self_s": _metric("s", "lower"),
    "ratfun.poly_mul.coeff_products": _metric("count", "lower"),
    "ratfun.mul.calls": _metric("count", "lower"),
    "ratfun.mul.self_s": _metric("s", "lower"),
    "ratfun.add.calls": _metric("count", "lower"),
    "ratfun.add.self_s": _metric("s", "lower"),
    "ratfun.exact_div.calls": _metric("count", "lower"),
    "ratfun.exact_div.hit_ratio": _metric("ratio", "higher"),
    "ratfun.eq.calls": _metric("count", "lower"),
    "ratfun.eq.s": _metric("s", "lower"),
    "ratfun.canonical.calls": _metric("count", "lower"),
    "ratfun.canonical.s": _metric("s", "lower"),
    "ratfun.canonical.in_terms_max": _metric("terms", "lower"),
    "ratfun.canonical.coeff_bits_max": _metric("bits", "lower"),
    "ratfun.evaluate.s": _metric("s", "lower"),
    "qcore.bracket_poly.calls": _metric("count", "lower"),
    "qcore.cache.hit_ratio": _metric("ratio", "higher"),
    **{f"qbernoulli.{f}.{k}": _metric("count" if k == "calls" else "s", "lower")
       for f in ("beta_higher", "beta_weighted", "t_sum", "t_sum_h") for k in ("calls", "self_s")},
    "qbernoulli.scaffold.hit_ratio": _metric("ratio", "higher"),
    "qbernoulli.cache.entries": _metric("count", "lower"),
    "volkenborn.multi.calls": _metric("count", "lower"),
    "volkenborn.multi.s": _metric("s", "lower"),
    "volkenborn.weighted.calls": _metric("count", "lower"),
    "volkenborn.weighted.s": _metric("s", "lower"),
    "volkenborn.tuples": _metric("count", "lower"),
    "volkenborn.closed_form.s": _metric("s", "lower"),
    **{f"identities.thm{i}.{k}": _metric("count" if k == "calls" else "s", "lower")
       for i in (3, 4, 5, 6) for k in ("calls", "s")},
    "identities.eq_share": _metric("ratio", "lower"),
    "identities.sweep.jobs": _metric("count", "lower"),
    "identities.sweep.serial_s": _metric("s", "lower"),
    "identities.sweep.pool_s": _metric("s", "lower"),
    "identities.sweep.scaling_eff_2w": _metric("ratio", "higher"),
    "identities.sweep.pool_start_s": _metric("s", "lower"),
    "cli.startup_s": _metric("s", "lower"),
    "cli.import_s": _metric("s", "lower"),
    "cli.serialize_s": _metric("s", "lower"),
    "cli.stdout_bytes": _metric("bytes", "lower"),
    **{f"cli.main.{slot}.s": _metric("s", "lower") for slot in CLI_SLOTS},
    "trace.overhead": _metric("ratio", "lower"),
    "trace.spans": _metric("count", "lower"),
}


# The per-layer metrics each workload is meant to move; a traced run of that
# workload must record a nonzero value for each of them.
LAYER_MAP = {
    "sweep": [
        *(f"ratfun.{f}.{k}" for f in ("poly_mul", "mul", "add") for k in ("calls", "self_s")),
        "ratfun.poly_mul.coeff_products", "ratfun.exact_div.calls", "ratfun.exact_div.hit_ratio",
        "ratfun.eq.calls", "ratfun.eq.s", "qcore.bracket_poly.calls", "qcore.cache.hit_ratio",
        *(f"qbernoulli.{f}.{k}" for f in ("beta_higher", "beta_weighted", "t_sum", "t_sum_h")
          for k in ("calls", "self_s")),
        "qbernoulli.scaffold.hit_ratio", "qbernoulli.cache.entries",
        *(f"identities.thm{i}.{k}" for i in (3, 4, 5, 6) for k in ("calls", "s")),
        "identities.eq_share", "identities.sweep.jobs", "identities.sweep.serial_s",
        "identities.sweep.pool_s", "identities.sweep.scaling_eff_2w",
        "identities.sweep.pool_start_s",
    ],
    "cli": [
        "ratfun.canonical.calls", "ratfun.canonical.s", "ratfun.canonical.in_terms_max",
        "ratfun.canonical.coeff_bits_max",
        *(f"qbernoulli.{f}.calls" for f in ("beta_higher", "beta_weighted", "t_sum", "t_sum_h")),
        "identities.sweep.jobs", "identities.sweep.pool_s",
        "cli.startup_s", "cli.import_s", "cli.serialize_s", "cli.stdout_bytes",
        *(f"cli.main.{slot}.s" for slot in CLI_SLOTS),
    ],
    "volkenborn": [
        "ratfun.evaluate.s", "volkenborn.multi.calls", "volkenborn.multi.s",
        "volkenborn.weighted.calls", "volkenborn.weighted.s", "volkenborn.tuples",
        "volkenborn.closed_form.s",
    ],
}


class _Agg:
    """Calls, outermost total, self time and notes per span name, over many dumps."""

    def __init__(self):
        self.calls: dict = {}
        self.total: dict = {}
        self.self_s: dict = {}
        self.notes: dict = {}
        self.eq_in_checks = 0.0
        self.spans = 0

    def add(self, dump: dict) -> None:
        names, spans = dump["names"], dump["spans"]
        checks = {i for i, n in enumerate(names) if n.startswith("identities.thm")}
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (nid, t0, t1, parent, note) in enumerate(spans):
            name = names[nid]
            d = t1 - t0
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + d - child[i]
            ancestors = set()
            p = parent
            while p >= 0:
                ancestors.add(spans[p][0])
                p = spans[p][3]
            if nid not in ancestors:
                self.total[name] = self.total.get(name, 0.0) + d
            if name == "ratfun.eq" and ancestors & checks:
                self.eq_in_checks += d
            if note is not None:
                self.notes.setdefault(name, []).append((note, spans, i))
        self.spans += len(spans)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(dumps: list, extra: dict) -> dict:
    """Per-layer metric values from traced dumps plus harness measurements in ``extra``."""
    agg = _Agg()
    for d in dumps:
        agg.add(d)
    calls, total, self_s, notes = agg.calls, agg.total, agg.self_s, agg.notes
    m = {name: 0 for name in PER_LAYER}
    for name in _COUNTED:
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in ("ratfun.poly_mul", "ratfun.mul", "ratfun.add", "qbernoulli.beta_higher",
                 "qbernoulli.beta_weighted", "qbernoulli.t_sum", "qbernoulli.t_sum_h"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("ratfun.eq", "ratfun.canonical", "ratfun.evaluate", "volkenborn.multi",
                 "volkenborn.weighted", "identities.thm3", "identities.thm4",
                 "identities.thm5", "identities.thm6"):
        m[f"{name}.s"] = total.get(name, 0.0)
    m["ratfun.poly_mul.coeff_products"] = sum(n for n, _, _ in notes.get("ratfun.poly_mul", ()))
    m["ratfun.exact_div.hit_ratio"] = _ratio(
        sum(n for n, _, _ in notes.get("ratfun.exact_div", ())), calls.get("ratfun.exact_div", 0))
    canon = [n for n, _, _ in notes.get("ratfun.canonical", ())]
    m["ratfun.canonical.in_terms_max"] = max((t for t, _ in canon), default=0)
    m["ratfun.canonical.coeff_bits_max"] = max((b for _, b in canon), default=0)
    m["volkenborn.tuples"] = sum(n for n, _, _ in notes.get("volkenborn.weighted", ()))
    m["volkenborn.closed_form.s"] = (total.get("volkenborn.report", 0.0)
                                     - total.get("volkenborn.multi", 0.0)
                                     - total.get("volkenborn.weighted", 0.0))
    checks = sum(total.get(f"identities.thm{i}", 0.0) for i in (3, 4, 5, 6))
    m["identities.eq_share"] = _ratio(agg.eq_in_checks, checks)

    stats = [d["caches"] for d in dumps]

    def hit_ratio(prefixes):
        hits = sum(v[0] for s in stats for k, v in s.items() if k.startswith(prefixes))
        misses = sum(v[1] for s in stats for k, v in s.items() if k.startswith(prefixes))
        return _ratio(hits, hits + misses)

    m["qcore.cache.hit_ratio"] = hit_ratio(("qsym.qcore.",))
    m["qbernoulli.scaffold.hit_ratio"] = hit_ratio(("qsym.qbernoulli._higher_scaffold",
                                                    "qsym.qbernoulli._weighted_scaffold"))
    m["qbernoulli.cache.entries"] = max((sum(v[2] for v in s.values()) for s in stats), default=0)

    sweeps = notes.get("identities.sweep", ())
    m["identities.sweep.jobs"] = sum(jobs for (jobs, _), _, _ in sweeps)
    serial = sum(sp[i][2] - sp[i][1] for (_, th), sp, i in sweeps if th <= 1)
    pool = sum(sp[i][2] - sp[i][1] for (_, th), sp, i in sweeps if th > 1)
    m["identities.sweep.serial_s"] = serial
    m["identities.sweep.pool_s"] = pool
    m["identities.sweep.scaling_eff_2w"] = _ratio(serial, 2 * pool) if serial and pool else 0.0

    m["cli.serialize_s"] = total.get("cli.serialize", 0.0)
    mains = [d["extra"] for d in dumps if "slot" in d["extra"]]
    for e in mains:
        m[f"cli.main.{e['slot']}.s"] += e["main_s"]
    if mains:
        m["cli.startup_s"] = statistics.median(e["startup_s"] for e in mains)
        m["cli.import_s"] = statistics.median(e["import_s"] for e in mains)
    m["trace.spans"] = agg.spans
    m.update(extra)
    return m
