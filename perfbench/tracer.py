"""Outside-in layer tracing for polycf.

Wrappers are installed on the public functions of each polycf module from
here, never from inside the package: every module attribute (and the
``RationalFunction.__call__`` method) that is bound to a traced function is
replaced by a wrapper that keeps a call stack, so a layer's self time is its
duration minus the time of the traced calls it made.

Coarse layers also keep one span ``(name, start, end, parent)`` per call in
memory; the per-term layers (``poly.ratfn_call``, ``cf.term_at``) are only
aggregated as a count plus self time, because a span per term would cost
more than the term.
"""

import json
import os
import sys
import time

# layer name -> (module, attribute); "poly.ratfn_call" is a method, see install
LAYERS = {
    "cf.term_at": ("polycf.cf", "term_at"),
    "cf.evaluate": ("polycf.cf", "evaluate"),
    "cf.convergents": ("polycf.cf", "convergents"),
    "cf.to_integer_cf": ("polycf.cf", "to_integer_cf"),
    "transforms.even_part": ("polycf.transforms", "even_part"),
    "transforms.odd_part": ("polycf.transforms", "odd_part"),
    "transforms.bauer_muir": ("polycf.transforms", "bauer_muir"),
    "transforms.extension_bmoe": ("polycf.transforms", "extension_bmoe"),
    "transforms.euler_from_series": ("polycf.transforms", "euler_from_series"),
    "families.build_preset": ("polycf.families", "build_preset"),
    "analysis.reference_constant": ("polycf.analysis", "reference_constant"),
    "analysis.verify_limit": ("polycf.analysis", "verify_limit"),
    "analysis.tietze_check": ("polycf.analysis", "tietze_check"),
    "analysis.growth_diagnostics": ("polycf.analysis", "growth_diagnostics"),
    "cli.main": ("polycf.cli", "main"),
}
AGGREGATED = ("poly.ratfn_call", "cf.term_at")
ALL_LAYERS = ("poly.ratfn_call",) + tuple(LAYERS)


class Tracer:
    """Call-stack bookkeeping shared by every wrapper of one process."""

    def __init__(self, cache_path=None):
        self.cache_path = cache_path
        self.stack = []
        self.spans = []
        self.count = dict.fromkeys(ALL_LAYERS, 0)
        self.self_s = dict.fromkeys(ALL_LAYERS, 0.0)
        self.evaluate_terms = 0
        self.evaluate_converged = 0
        self.oracle_cold_s = 0.0
        self.oracle_warm_s = 0.0
        self.oracle_named_calls = 0
        self._installed = []

    def wrap(self, name, fn):
        stack, count, self_s = self.stack, self.count, self.self_s
        keep_span = name not in AGGREGATED
        is_oracle = name == "analysis.reference_constant"
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0, len(spans) if keep_span else None]
            parent = stack[-1][1] if stack else None
            if keep_span:
                spans.append(None)
            stack.append(frame)
            before = tracer._cache_stamp() if is_oracle else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                count[name] += 1
                self_s[name] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if keep_span:
                    spans[frame[1]] = (name, t0, t1, parent)
            if name == "cf.evaluate":
                tracer.evaluate_terms += result.terms_used
                tracer.evaluate_converged += bool(result.converged)
            elif is_oracle and _is_named(args[0] if args else kwargs.get("constant")):
                tracer.oracle_named_calls += 1
                if tracer._cache_stamp() != before:
                    tracer.oracle_cold_s += d
                else:
                    tracer.oracle_warm_s += d
            return result

        traced.__wrapped__ = fn
        return traced

    def _cache_stamp(self):
        # a miss rewrites the cache file, which changes its inode or mtime
        try:
            st = os.stat(self.cache_path)
        except (OSError, TypeError):
            return None
        return (st.st_ino, st.st_mtime_ns, st.st_size)

    def install(self):
        """Wrap every traced function wherever a polycf module binds it."""
        import polycf.analysis  # noqa: F401  (load every traced module)
        import polycf.cli  # noqa: F401
        import polycf.poly

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "polycf" or n.startswith("polycf."))]
        for name, (mod_name, attr) in LAYERS.items():
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, orig))
        cls = polycf.poly.RationalFunction
        orig = cls.__call__
        cls.__call__ = self.wrap("poly.ratfn_call", orig)
        self._installed.append((cls, "__call__", orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._installed):
            setattr(owner, key, orig)
        self._installed.clear()

    def summary(self):
        """Aggregates of this process, summed across processes by ``merge``."""
        return {
            "count": dict(self.count),
            "self_s": dict(self.self_s),
            "evaluate_terms": self.evaluate_terms,
            "evaluate_converged": self.evaluate_converged,
            "oracle_cold_s": self.oracle_cold_s,
            "oracle_warm_s": self.oracle_warm_s,
            "oracle_named_calls": self.oracle_named_calls,
        }

    def write_spans(self, path):
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _is_named(claim):
    # exact LimitClaims never reach the oracle or its cache
    return getattr(claim, "kind", "named") != "exact"


def empty_summary():
    return Tracer().summary()


def merge(total, part):
    for key in ("count", "self_s"):
        for layer, v in part[key].items():
            total[key][layer] += v
    for key in ("evaluate_terms", "evaluate_converged", "oracle_cold_s",
                "oracle_warm_s", "oracle_named_calls"):
        total[key] += part[key]
    return total


def count_cache_entries(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return 0
    return len(data) if isinstance(data, dict) else 0


def layer_metrics(summary, wall_s, import_s, misses, report_bytes):
    """Per-layer metrics of one traced pass; self times plus remainder = wall."""
    c, s = summary["count"], summary["self_s"]
    m = {}
    for layer in ALL_LAYERS:
        m[f"{layer}.count"] = (c[layer], "count")
        m[f"{layer}.self_s"] = (s[layer], "s")
    ev_self = s["cf.evaluate"]
    m["cf.evaluate.terms"] = (summary["evaluate_terms"], "count")
    m["cf.evaluate.terms_per_s"] = (
        summary["evaluate_terms"] / ev_self if ev_self > 0 else 0.0, "1/s")
    m["cf.evaluate.converged_ratio"] = (
        summary["evaluate_converged"] / c["cf.evaluate"] if c["cf.evaluate"] else 0.0,
        "ratio")
    named = summary["oracle_named_calls"]
    m["analysis.oracle.cold_s"] = (summary["oracle_cold_s"], "s")
    m["analysis.oracle.warm_s"] = (summary["oracle_warm_s"], "s")
    m["analysis.oracle.misses"] = (misses, "count")
    m["analysis.oracle.hit_ratio"] = (
        max(named - misses, 0) / named if named else 0.0, "ratio")
    m["cli.import_s"] = (import_s, "s")
    m["cli.report_bytes"] = (report_bytes, "bytes")
    traced_self = sum(s.values()) + import_s
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.remainder_s"] = (wall_s - traced_self, "s")
    return m
