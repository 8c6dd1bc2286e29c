"""polycf benchmark: four workloads, end-to-end metrics, outside-in layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one after another
    python3 perfbench/run.py --self-test         # tiny batches plus corrupted outputs

Run from anywhere inside a polycf checkout; the package under test is the
``src/polycf`` next to this directory.  Every library call runs in a fresh
interpreter started from here, each with its own empty oracle cache file
under ``.perfbench_work/``, which is removed at the end.  All times are in
reference-speed seconds (see refloop.py).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  See NOTES.md for what each workload and metric means.
"""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from refloop import NOMINAL_S, PROCESS_NOMINAL_S, Meter, process_reference_s  # noqa: E402

clock = time.perf_counter
WORKLOADS = ("paper-suite", "exact-core", "cold-cli", "high-precision")
SETUP_REPS = 5
MAX_MEASURE_S = 120          # hard stop so that a run ends well inside 180 s
# Wall seconds of one pass (process start, reference loop and all) on the
# host the benchmark was defined on.  A run makes a fixed number of passes,
# about --seconds of them at that speed, so that how many operations it
# attempts, and how many of them fail, never depends on the host's speed.
PASS_S = {"paper-suite": 5.0, "exact-core": 2.5, "cold-cli": 25.0, "high-precision": 1.25}
CHILD_TIMEOUT_S = 100
PROBE_DEADLINE_S = 2.0

# Failures present at the seed, kept in the workloads so a fix shows as fewer
# failures (NOTES.md has the numbers).  A violation matching none of these
# makes the run incorrect.
KNOWN_DEFECTS = {
    "zeta-1024-deadline": r"^probe Zeta\(k=3\)@1024: deadline",
    "ex3.5-pass-loophole": r"^ex3\.5 .*: Pass with abs_err",
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# processes

def child_env(cache, **extra):
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               POLYCF_CONSTANT_CACHE=str(cache))
    env.update({k: str(v) for k, v in extra.items()})
    return env


def spawn(argv, env, out_path, err_path, timeout=CHILD_TIMEOUT_S):
    """Run one process to completion: (exit code, wall seconds, peak RSS MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = clock()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=str(ROOT))
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = clock() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def worker(cfg, work, tag, timeout=CHILD_TIMEOUT_S):
    """A worker.py process; returns (its JSON result, peak RSS MB)."""
    cfg = dict(cfg, out=str(work / f"{tag}.json"), spans=str(work / "spans.jsonl"))
    cache = cfg.pop("cache", work / f"{tag}-cache.json")
    code, _, rss = spawn([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                         child_env(cache), work / f"{tag}.out", work / f"{tag}.err", timeout)
    if code != 0:
        err = (work / f"{tag}.err").read_text(errors="replace")[-2000:]
        raise BenchError(f"worker {tag} exited {code}: {err}")
    with open(cfg["out"], encoding="utf-8") as fh:
        return json.load(fh), rss


def measure_setup(name, seed, work, reps=SETUP_REPS):
    """Median time from spawning a fresh interpreter to "inputs built"."""
    cfg = json.dumps({"workload": name, "seed": seed, "mode": "setup"})
    times = []
    ref = process_reference_s()
    for i in range(reps):
        t0 = clock()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), cfg],
                                env=child_env(work / f"setup-{i}.json"), cwd=str(ROOT),
                                stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        line = proc.stdout.readline()
        times.append(clock() - t0)
        proc.stdout.close()
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != b"ready":
            raise BenchError(f"setup of {name} failed")
        ref, ref_before = process_reference_s(), ref
        times[-1] *= PROCESS_NOMINAL_S * 2 / (ref_before + ref)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# passes

class Pass:
    """One pass over a workload's batch: timings plus what is needed to check it.

    `wall` and `lat` are in reference-speed seconds (refloop.py); `raw_wall`
    is the measured wall time and `factor` the mean scale between them.
    """

    def __init__(self, wall, lat, rss_mb, outputs, raw_wall, factor):
        self.wall, self.lat, self.rss_mb, self.outputs = wall, lat, rss_mb, outputs
        self.raw_wall, self.factor = raw_wall, factor
        self.summary, self.import_s, self.misses, self.report_bytes = None, 0.0, 0, 0
        self.import_in_wall = False
        self.bad = {}       # op label -> violations, filled by the checks
        self.good = 0       # ops that passed every check (with a Pass verdict if any)
        self.ops = 0


def paper_pass(run, i, traced):
    w = run.work
    out_dir, rows = w / f"rp-{i}", w / f"rp-{i}-rows.json"
    extra = {"PERFBENCH_ROWS": rows}
    if traced:
        extra.update(PERFBENCH_TRACE=w / f"rp-{i}-trace.json", PERFBENCH_SPANS=w / "spans.jsonl")
    cache = w / f"rp-{i}-cache.json"
    code, wall, rss = spawn([sys.executable, str(HERE / "child.py"), "reproduce-paper",
                             "--out", str(out_dir)], child_env(cache, **extra),
                            w / f"rp-{i}.out", w / f"rp-{i}.err")
    timing = json.loads(rows.read_text())
    reports = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.json"))}
    stdout = (w / f"rp-{i}.out").read_bytes()
    # the reference samples ran inside the process: not part of its work
    raw = wall - timing["ref_s"]
    p = Pass(raw * timing["factor"], timing["lat"], rss,
             {"code": code, "reports": reports, "stdout": stdout,
              "stderr": (w / f"rp-{i}.err").read_bytes()}, raw, timing["factor"])
    if traced:
        t = json.loads((w / f"rp-{i}-trace.json").read_text())
        p.summary, p.import_s = t["trace"], t["import_s"]
        p.summary["self_s"]["cli.main"] -= timing["ref_in_main_s"]
        p.misses = tracer.count_cache_entries(cache)
        p.report_bytes = sum(map(len, reports.values())) + len(stdout)
        p.import_in_wall = True
    shutil.rmtree(out_dir, ignore_errors=True)
    return p


def cli_pass(run, i, traced):
    w = run.work
    rss, outs = 0.0, []
    summary, import_s, misses = tracer.empty_summary(), 0.0, 0
    meter = Meter(every_s=1.0, process=True)
    for j, argv in enumerate(run.inputs):
        tag = f"cc-{i}-{j}"
        cache = w / f"{tag}-cache.json"
        extra = {}
        if traced:
            extra = {"PERFBENCH_TRACE": w / f"{tag}-trace.json",
                     "PERFBENCH_SPANS": w / "spans.jsonl"}
        code, wall, peak = spawn([sys.executable, str(HERE / "child.py")] + argv,
                                 child_env(cache, **extra), w / f"{tag}.out", w / f"{tag}.err")
        meter.record(wall)
        rss = max(rss, peak)
        outs.append({"code": code, "stdout": (w / f"{tag}.out").read_bytes(),
                     "stderr": (w / f"{tag}.err").read_bytes()})
        if traced:
            t = json.loads((w / f"{tag}-trace.json").read_text())
            tracer.merge(summary, t["trace"])
            import_s += t["import_s"]
            misses += tracer.count_cache_entries(cache)
    lat = meter.scaled()
    p = Pass(sum(lat), lat, rss, outs, sum(meter.raw), meter.factor())
    if traced:
        p.summary, p.import_s, p.misses = summary, import_s, misses
        p.report_bytes = sum(len(o["stdout"]) for o in outs)
        p.import_in_wall = True
    for f in w.glob(f"cc-{i}-*"):
        f.unlink()
    return p


def exact_pass(run, i, traced):
    cfg = {"workload": "exact-core", "seed": run.seed, "mode": "ops",
           "trace": traced, "limit": run.limit}
    res, rss = worker(cfg, run.work, f"ec-{i}")
    p = Pass(sum(res["lat"]), res["lat"], rss, res, sum(res["raw"]), res["factor"])
    if traced:
        p.summary, p.import_s = res["trace"], res["import_s"]
    return p


def hp_pass(run, i, traced):
    cache = run.work / f"hp-{i}-cache.json"
    base = {"workload": "high-precision", "seed": run.seed, "mode": "hp",
            "trace": traced, "limit": run.limit, "cache": str(cache)}
    cold, rss_cold = worker(dict(base, phase="cold"), run.work, f"hp-{i}-cold")
    misses = tracer.count_cache_entries(cache)
    warm, rss_warm = worker(dict(base, phase="warm"), run.work, f"hp-{i}-warm")
    ops = cold["ops"] + [dict(op, warm=True) for op in warm["ops"]]
    lat = cold["lat"] + warm["lat"]
    p = Pass(sum(lat), lat, max(rss_cold, rss_warm), ops, sum(cold["raw"] + warm["raw"]),
             (cold["factor"] + warm["factor"]) / 2)
    if traced:
        p.summary = tracer.merge(cold["trace"], warm["trace"])
        p.import_s = cold["import_s"] + warm["import_s"]
        p.misses = misses
    return p


# ---------------------------------------------------------------------------
# checks, outside every timed region

def describe(name, params):
    if not params:
        return name
    return name + "(" + ",".join(f"{k}={params[k]}" for k in sorted(params)) + ")"


def check_paper(passes):
    grid = {checks.params_key(p, params): (tol, bits)
            for p, params, _, tol, bits in workloads.PAPER_GRID}
    first = passes[0].outputs
    rows, bad = [], {}
    for name, blob in sorted(first["reports"].items()):
        rows += json.loads(blob)["rows"]
    seen = set()
    for row in rows:
        key = checks.params_key(row["preset"], row["params"])
        if key not in grid or key in seen:
            bad[key] = [f"{key}: row not in the paper grid or repeated"]
            continue
        seen.add(key)
        tol, bits = grid[key]
        v = checks.check_verdict_row(row, tol, bits)
        if v:
            bad[key] = v
    for key in set(grid) - seen:
        bad[key] = [f"{key}: row missing from the reports"]
    want_code = 0 if all(r["verdict"] == "Pass" for r in rows) and len(rows) == len(grid) else 1
    if first["code"] != want_code or b"Traceback" in first["stderr"]:
        bad["exit"] = [f"reproduce-paper exited {first['code']}, expected {want_code}"]
    good = sum(1 for r in rows if r["verdict"] == "Pass"
               and checks.params_key(r["preset"], r["params"]) not in bad)
    for p in passes:
        p.ops = len(grid)
        if p is passes[0]:
            p.bad, p.good = bad, good
        elif (p.outputs["reports"], p.outputs["stdout"], p.outputs["code"]) != (
                first["reports"], first["stdout"], first["code"]):
            p.bad = {key: [f"{key}: report files differ between two passes"] for key in grid}
        else:
            p.bad, p.good = bad, good


def cli_reference(argv):
    """Run polycf.cli.main in this process: (exit code, stdout text)."""
    import contextlib
    import io

    import polycf.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = polycf.cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return code or 0, out.getvalue()


def check_cli_outputs(requests, outs, refs):
    bad = {}
    for j, (argv, o, (ref_code, ref_out)) in enumerate(zip(requests, outs, refs)):
        label = f"{j}: polycf {' '.join(argv[:3])}"
        v = []
        if ref_code != 0:
            v.append(f"{label}: in-process reference exited {ref_code}")
        if o["code"] != ref_code:
            v.append(f"{label}: exit code {o['code']}, expected {ref_code}")
        try:
            if json.loads(o["stdout"]) != json.loads(ref_out):
                v.append(f"{label}: output differs from the in-process reference")
        except ValueError:
            v.append(f"{label}: stdout is not one JSON document")
        if o["code"] == 0 and o["stderr"]:
            v.append(f"{label}: wrote to stderr")
        if v:
            bad[label] = v
    return bad


def check_cli(passes, requests):
    refs = [cli_reference(argv) for argv in requests]
    for p in passes:
        p.ops = len(requests)
        p.bad = check_cli_outputs(requests, p.outputs, refs)
        p.good = p.ops - len(p.bad)


def check_exact(passes, run):
    cfg = {"workload": "exact-core", "seed": run.seed, "mode": "check", "limit": run.limit}
    ref, _ = worker(cfg, run.work, "ec-check")
    labels = [f"{i}: {s['op']} {s.get('preset', '')} {s.get('params', '')}"
              for i, s in enumerate(ref["specs"])]
    for p in passes:
        p.ops = len(labels)
        p.bad = {}
        for label, d, d_ref, v in zip(labels, p.outputs["digests"], ref["digests"], ref["bad"]):
            if v or d is None:
                p.bad[label] = v or [f"{label}: raised"]
            elif d != d_ref:
                p.bad[label] = [f"{label}: result differs from the checked run"]
        p.good = p.ops - len(p.bad)


def _mpf(op):
    import mpmath
    return mpmath.mpf((int(op["man"]), op["exp"]))


def check_hp(passes):
    from fractions import Fraction

    import mpmath

    for p in passes:
        p.ops, p.bad, p.good = len(p.outputs), {}, 0
        cold = {}
        for op in p.outputs:
            spec = op["spec"]
            if op["kind"] == "verify":
                label = f"{spec['preset']} {spec['params']} @{spec['bits']}"
                v = checks.check_verdict_row(op["report"], Fraction(1, 2 ** (spec["bits"] - 40)),
                                             spec["bits"])
                ok_verdict = op["report"]["verdict"] == "Pass"
            else:
                key = describe(spec["name"], spec["params"]) + f"@{spec['bits']}"
                label = key + (" warm" if op.get("warm") else " cold")
                with mpmath.workprec(spec["bits"] + 64):
                    value = _mpf(op)
                    v = [] if checks.close(value, describe(spec["name"], spec["params"]),
                                           spec["bits"]) else [f"{label}: value disagrees with mpmath"]
                if op.get("warm") and cold.get(key) != (op["man"], op["exp"]):
                    v.append(f"{label}: warm value differs from the cold one")
                cold.setdefault(key, (op["man"], op["exp"]))
                ok_verdict = True
            if v:
                p.bad[label] = v
            elif ok_verdict:
                p.good += 1


def run_probe(run):
    """The 1024-bit Zeta(k=3) oracle call under a deadline: one op, out of wall_s."""
    cfg = {"workload": "high-precision", "seed": run.seed, "mode": "probe",
           "deadline": run.probe_deadline}
    res, _ = worker(cfg, run.work, "probe", timeout=run.probe_deadline + 30)
    c = res["spec"]
    label = f"probe {describe(c['name'], c['params'])}@{c['bits']}"
    if not res["done"]:
        return {label: [f"{label}: deadline {run.probe_deadline} s missed"]}
    import mpmath
    with mpmath.workprec(c["bits"] + 64):
        if not checks.close(_mpf(res), describe(c["name"], c["params"]), c["bits"]):
            return {label: [f"{label}: value disagrees with mpmath"]}
    return {}


# ---------------------------------------------------------------------------
# one run

PASS_FNS = {"paper-suite": paper_pass, "exact-core": exact_pass,
            "cold-cli": cli_pass, "high-precision": hp_pass}


class Run:
    def __init__(self, name, seed, seconds, trace, quick=False):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.limit = 12 if quick else None
        self.probe_deadline = 0.5 if quick else PROBE_DEADLINE_S
        self.work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
        self.inputs = None
        if name == "cold-cli":
            self.inputs = workloads.cold_cli(seed)[: 6 if quick else None]

    def plan(self):
        """(untraced, traced) pass counts, fixed by the workload and --seconds."""
        n = max(1, round(self.seconds / PASS_S[self.name]))
        min_plain = 2 if self.name == "paper-suite" else 1
        if not self.trace:
            return max(n, min_plain), 0
        return max((n + 1) // 2, min_plain), max(n // 2, 1)

    def measure(self):
        """The planned untraced passes (and, with trace, traced ones alternating)."""
        fn = PASS_FNS[self.name]
        n_plain, n_traced = self.plan()
        plain, traced = [], []
        t_start = clock()
        i = 0
        while len(plain) < n_plain or len(traced) < n_traced:
            do_trace = len(traced) < n_traced and (i % 2 == 1 or len(plain) >= n_plain)
            (traced if do_trace else plain).append(fn(self, i, do_trace))
            i += 1
            if plain and (traced or not n_traced) and clock() - t_start > MAX_MEASURE_S:
                break
        return plain, traced

    def check(self, passes):
        if self.name == "paper-suite":
            check_paper(passes)
        elif self.name == "cold-cli":
            check_cli(passes, self.inputs)
        elif self.name == "exact-core":
            check_exact(passes, self)
        else:
            check_hp(passes)

    def execute(self):
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            setup_s = measure_setup(self.name, self.seed, self.work, 2 if self.limit else SETUP_REPS)
            plain, traced = self.measure()
            self.check(plain + traced)
            probe = [run_probe(self)] if self.name == "high-precision" else []
            spans = self.work / "spans.jsonl"
            if spans.exists():
                spans.replace(self.work.parent / f"spans-{self.name}.jsonl")
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return Result(self, setup_s, plain, traced, probe)


def p90_with_tail(values, tail=10):
    """The highest percentile up to p90 with at least `tail` samples above it."""
    s = sorted(values)
    n = len(s)
    idx = min(math.ceil(0.9 * n), n - tail) - 1
    if idx < 0:  # too few samples for any such percentile: report the maximum
        idx = n - 1
    return s[idx], (idx + 1) / n


class Result:
    def __init__(self, run, setup_s, plain, traced, probe):
        """`probe`: one {label: violations} per single operation run outside the passes."""
        self.run, self.setup_s, self.plain, self.traced = run, setup_s, plain, traced
        bads = [p.bad for p in plain + traced] + probe
        self.attempted = sum(p.ops for p in plain + traced) + len(probe)
        self.failed = sum(len(bad) for bad in bads)
        self.violations = [v for bad in bads for vs in bad.values() for v in vs]
        self.unexpected = [v for v in self.violations
                           if not any(re.search(rx, v) for rx in KNOWN_DEFECTS.values())]
        self.correct = not self.unexpected
        lat = [x for p in plain for x in p.lat]
        self.p90, self.p90_level = p90_with_tail(lat)
        self.samples = len(lat)
        self.e2e = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(p.wall for p in plain), "s"),
            "op_p50_s": (statistics.median(lat), "s"),
            "op_p90_s": (self.p90, "s"),
            "rows_pass": (plain[0].good, "count"),
            "peak_rss_mb": (max(p.rss_mb for p in plain), "MB"),
        }
        self.fail_frac = self.failed / self.attempted if self.attempted else 0.0
        self.layers = self._layers() if traced else None

    def _layers(self):
        traced = sorted(self.traced, key=lambda p: p.wall)
        p = traced[len(traced) // 2]
        s = dict(p.summary, self_s={k: v * p.factor for k, v in p.summary["self_s"].items()})
        for key in ("oracle_cold_s", "oracle_warm_s"):
            s[key] *= p.factor
        import_s = p.import_s * p.factor
        m = tracer.layer_metrics(s, p.raw_wall * p.factor, import_s if p.import_in_wall else 0.0,
                                 p.misses, p.report_bytes)
        m["cli.import_s"] = (import_s, "s")
        m["trace.overhead_s"] = (statistics.median(t.wall for t in self.traced)
                                 - self.e2e["wall_s"][0], "s")
        m["fail_frac"] = (self.fail_frac, "ratio")
        return m

    def metrics(self):
        chosen = self.layers if self.run.trace else self.e2e
        return {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}

    def report(self, out):
        name = self.run.name
        out.write(f"# {name}: seed {self.run.seed}, {len(self.plain)} timed passes, "
                  f"{len(self.traced)} traced\n")
        for k, (v, u) in self.e2e.items():
            out.write(f"{name} {k} = {v:.6g} {u}\n")
        out.write(f"{name} fail_frac = {self.fail_frac:.6g} ratio "
                  f"({self.failed} of {self.attempted})\n")
        out.write(f"{name} op latency samples = {self.samples}, op_p90_s is "
                  f"p{100 * self.p90_level:.1f}\n")
        if name == "cold-cli":
            ref, nominal = "reference process", PROCESS_NOMINAL_S
        else:
            ref, nominal = "reference loop", NOMINAL_S[name == "high-precision"]
        out.write(f"{name} measured wall_s = {statistics.median(p.raw_wall for p in self.plain):.6g}"
                  f" s; {ref} {nominal / statistics.median(p.factor for p in self.plain):.6g}"
                  f" s, times above are scaled to {nominal} s of it\n")
        if self.layers:
            for k, (v, u) in self.layers.items():
                out.write(f"{name} {k} = {v:.6g} {u}\n")
        for v in sorted(set(self.violations)):
            tag = "unexpected" if v in self.unexpected else "known defect"
            out.write(f"{name} failure ({tag}): {v}\n")


# ---------------------------------------------------------------------------
# environment and entry points

def environment():
    import mpmath
    import mpmath.libmp

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), text=True,
                                    capture_output=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for f in sorted((SRC / "polycf").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "python_flint": importlib.util.find_spec("flint") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "polycf_commit": commit,
        "polycf_src_sha256": h.hexdigest()[:16],
    }


def final_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def self_test():
    """Each workload on a tiny batch, then corrupted outputs that must be flagged."""
    ok = True
    for name in WORKLOADS:
        res = Run(name, 1, 1, trace=True, quick=True).execute()
        res.report(sys.stdout)
        if not res.correct:
            ok = False
            print(f"self-test: {name} has unexpected failures")
    # a report row whose oracle is off in its last digits
    run = Run("paper-suite", 1, 1, trace=False)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        passes = [paper_pass(run, 0, False)]
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    name = sorted(passes[0].outputs["reports"])[0]
    doc = json.loads(passes[0].outputs["reports"][name])
    row = doc["rows"][0]
    row["oracle"] = row["oracle"][:-3] + ("1" if row["oracle"][-3] != "1" else "2") + row["oracle"][-2:]
    passes[0].outputs["reports"][name] = json.dumps(doc).encode()
    check_paper(passes)
    flagged = [v for vs in passes[0].bad.values() for v in vs if "oracle" in v]
    print(f"self-test: corrupted oracle flagged: {bool(flagged)}")
    ok &= bool(flagged)
    # a convergent list with one wrong entry
    import dataclasses

    import polycf

    cf = polycf.build_preset("e").cf
    conv = polycf.convergents(cf, 40)
    conv[17] = dataclasses.replace(conv[17], A=conv[17].A + 1)
    flagged = checks.check_convergents(conv, cf, 40)
    print(f"self-test: wrong convergent flagged: {bool(flagged)}")
    ok &= bool(flagged)
    shutil.rmtree(Path(os.environ["POLYCF_CONSTANT_CACHE"]).parent, ignore_errors=True)
    print("self-test: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "polycf" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no polycf sources at {SRC}/polycf\n")
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    # one core for this process and every child, so that the reference loop
    # runs where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # the in-process references of the checks get their own oracle cache too
    os.environ["POLYCF_CONSTANT_CACHE"] = str(
        ROOT / ".perfbench_work" / f"reference-{os.getpid()}" / "cache.json")
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    sys.stdout.write("# env " + json.dumps(env, sort_keys=True) + "\n")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = Run(name, args.seed, args.seconds, bool(args.trace)).execute()
        res.report(sys.stdout)
        results.append(res)
    shutil.rmtree(Path(os.environ["POLYCF_CONSTANT_CACHE"]).parent, ignore_errors=True)
    if len(results) == 1:
        metrics = results[0].metrics()
    else:
        metrics = {f"{r.run.name}.{k}": v for r in results for k, v in r.metrics().items()}
    sys.stdout.write(final_line(all(r.correct for r in results),
                                sum(r.attempted for r in results),
                                sum(r.failed for r in results), metrics) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        sys.exit(1)
