"""Library-side processes of the benchmark, one fresh interpreter each.

    python3 worker.py '<json config>'

Modes:
  setup  import polycf and build the workload's inputs, then print "ready"
  ops    exact-core: run every operation of one pass, timed one by one
  check  exact-core: run every operation once, untimed, and check it
  hp     high-precision: oracle calls (and verifications, in the cold phase)
  probe  one oracle call under a deadline

Timed children write a JSON result to ``config["out"]``; ``PYTHONPATH``
must point at the polycf sources under test.
"""

import dataclasses
import json
import signal
import sys
import time
from fractions import Fraction

from refloop import Meter

clock = time.perf_counter


def _import_polycf(cli):
    t0 = clock()
    import polycf  # noqa: F401
    if cli:
        import polycf.cli  # noqa: F401
    return clock() - t0


# ---------------------------------------------------------------------------
# exact-core

def exact_ops(specs):
    """(spec, call, check) for each op; calls look functions up at call time."""
    import checks
    import workloads
    import polycf.analysis as A
    import polycf.cf as C
    import polycf.families as F
    import polycf.transforms as T

    half = Fraction(1, 2)
    ops = []
    for s in specs:
        N = s["size"]
        if s["op"] == "euler_from_series":
            series = [Fraction(0)] + [Fraction(1, (n + s["offset"]) ** s["k"])
                                      for n in range(1, N + 1)]
            ops.append((s, lambda x=series: T.euler_from_series(x),
                        lambda r, x=series: checks.check_euler(r, x)))
            continue
        cf = F.build_preset(s["preset"], dict(s["params"])).cf
        op = s["op"]
        if op == "convergents":
            call = lambda cf=cf, N=N: C.convergents(cf, N)
            check = lambda r, cf=cf, N=N: checks.check_convergents(r, cf, N)
        elif op == "evaluate":
            tol = Fraction(workloads.EVALUATE_TOL)
            call = lambda cf=cf, N=N, tol=tol: C.evaluate(cf, tol, N)
            check = lambda r, cf=cf, N=N: checks.check_evaluate(r, cf, N)
        elif op in ("even_part", "odd_part"):
            call = lambda cf=cf, N=N, op=op: getattr(T, op)(cf, N)
            check = lambda r, cf=cf, N=N, op=op: getattr(checks, "check_" + op)(r, cf, N)
        elif op == "bauer_muir":
            w = [half] * (N + 1)
            call = lambda cf=cf, N=N, w=w: T.bauer_muir(cf, w, N)
            check = lambda r, cf=cf, N=N, w=w: checks.check_bauer_muir(r, cf, w, N)
        elif op == "extension_bmoe":
            w = [Fraction(0)] + [half] * (N + 1)
            call = lambda cf=cf, N=N, w=w: T.extension_bmoe(cf, w, N)
            check = lambda r, cf=cf, N=N, w=w: checks.check_extension_bmoe(r, cf, w, N)
        elif op == "to_integer_cf":
            call = lambda cf=cf, N=N: C.to_integer_cf(cf, N)
            check = lambda r, cf=cf, N=N: checks.check_to_integer_cf(r, cf, N)
        elif op == "tietze_check":
            call = lambda cf=cf, N=N: A.tietze_check(cf, N)
            check = lambda r, cf=cf, N=N: checks.check_tietze(r, cf)
        elif op == "growth_diagnostics":
            call = lambda cf=cf, N=N: A.growth_diagnostics(cf, N)
            check = lambda r, cf=cf, N=N: checks.check_growth(r, cf, N)
        else:
            raise ValueError(f"unknown exact-core op {op!r}")
        ops.append((s, call, check))
    return ops


def digest(x):
    """Deterministic hash of a polycf result (run with PYTHONHASHSEED=0)."""
    if isinstance(x, (list, tuple)):
        return hash(tuple(digest(v) for v in x))
    if dataclasses.is_dataclass(x):
        return hash(tuple(digest(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if hasattr(x, "num") and hasattr(x, "den"):
        return hash((x.num.coeffs, x.den.coeffs))
    if x is None or type(x).__hash__ is object.__hash__:
        return hash(type(x).__name__)  # identity hashes differ between processes
    return hash(x)


def run_ops(cfg, ops, check):
    meter = Meter()
    tracer = _tracer(cfg)
    digests, bad = [], []
    for spec, call, chk in ops:
        t0 = clock()
        try:
            result = call()
        except Exception as e:  # an op that raises is a failed op, not a crash
            meter.record(clock() - t0)
            digests.append(None)
            bad.append([f"{spec['op']} {spec.get('preset', '')}: {type(e).__name__}: {e}"])
            continue
        meter.record(clock() - t0)
        digests.append(digest(result))
        bad.append(chk(result) if check else [])
    return meter, digests, bad, tracer


def _tracer(cfg):
    if not cfg.get("trace"):
        return None
    import os

    from tracer import Tracer

    t = Tracer(os.environ.get("POLYCF_CONSTANT_CACHE"))
    t.install()
    return t


# ---------------------------------------------------------------------------
# high-precision

def _constant(c):
    from polycf.families import NamedConstant
    return NamedConstant(c["name"], dict(c["params"]))


def hp_ops(inputs, phase):
    import polycf.analysis as A
    import polycf.families as F

    ops = [("constant", c, lambda k=_constant(c), b=c["bits"]: A.reference_constant(k, b))
           for c in inputs["constants"]]
    if phase == "cold":
        for v in inputs["verifies"]:
            member = F.build_preset(v["preset"], dict(v["params"]))
            tol = Fraction(1, 2 ** (v["bits"] - 40))
            ops.append(("verify", v, lambda m=member, v=v, tol=tol: A.verify_limit(
                m, v["terms"], v["bits"], tol, preset=v["preset"], params=v["params"])))
    return ops


def run_hp(cfg, ops):
    meter = Meter(wide=True)
    tracer = _tracer(cfg)
    out = []
    for kind, spec, call in ops:
        t0 = clock()
        result = call()
        meter.record(clock() - t0)
        if kind == "constant":
            man, exp = result.man_exp
            out.append({"kind": kind, "spec": spec, "man": str(man), "exp": exp})
        else:
            out.append({"kind": kind, "spec": spec, "report": result.to_json()})
    return out, meter, tracer


# ---------------------------------------------------------------------------

def _setup(cfg):
    import workloads

    name = cfg["workload"]
    import_s = _import_polycf(cli=name in ("paper-suite", "cold-cli"))
    if name == "exact-core":
        inputs = exact_ops(workloads.exact_core(cfg["seed"])[: cfg.get("limit")])
    elif name == "high-precision":
        inputs = workloads.high_precision(cfg["seed"])
        if cfg.get("limit"):
            inputs["constants"] = inputs["constants"][: cfg["limit"]]
            inputs["verifies"] = inputs["verifies"][: cfg["limit"]]
        if cfg["mode"] != "probe":
            inputs = hp_ops(inputs, cfg.get("phase", "cold"))
    elif name == "cold-cli":
        inputs = workloads.cold_cli(cfg["seed"])
    else:
        inputs = workloads.PAPER_GRID
    return import_s, inputs


def _alarm(signum, frame):
    raise TimeoutError


def main(cfg):
    import_s, inputs = _setup(cfg)
    mode = cfg["mode"]
    if mode == "setup":
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return
    result = {"import_s": import_s}
    if mode in ("ops", "check"):
        meter, digests, bad, tracer = run_ops(cfg, inputs, check=mode == "check")
        result.update(digests=digests, bad=bad, specs=[spec for spec, _, _ in inputs])
    elif mode == "hp":
        result["ops"], meter, tracer = run_hp(cfg, inputs)
    elif mode == "probe":
        import polycf.analysis as A

        tracer = None
        c = inputs["probe"]
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, cfg["deadline"])
        t0 = clock()
        try:
            value = A.reference_constant(_constant(c), c["bits"])
            signal.setitimer(signal.ITIMER_REAL, 0)
            man, exp = value.man_exp
            result.update(done=True, man=str(man), exp=exp)
        except TimeoutError:
            result["done"] = False
        result.update(lat=clock() - t0, spec=c)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "probe":
        result.update(lat=meter.scaled(), raw=meter.raw, factor=meter.factor())
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write_spans(cfg["spans"])
    with open(cfg["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
