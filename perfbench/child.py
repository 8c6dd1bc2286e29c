"""Bootstrap of one fresh ``polycf`` CLI process.

    python3 child.py <polycf arguments...>

Behaves like the ``polycf`` console script.  Two environment variables add
measurement from outside the package:

  PERFBENCH_ROWS   file that receives the duration of each verify_limit call,
                   in reference-speed seconds (see refloop.py)
  PERFBENCH_TRACE  file that receives the layer summary of a traced process;
                   spans are appended to PERFBENCH_SPANS
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import polycf.cli  # noqa: E402

import_s = time.perf_counter() - t0
trace_out = os.environ.get("PERFBENCH_TRACE")
rows_out = os.environ.get("PERFBENCH_ROWS")
tracer = None

if trace_out:
    from tracer import Tracer

    tracer = Tracer(os.environ.get("POLYCF_CONSTANT_CACHE"))
    tracer.install()

if rows_out:
    import polycf.analysis
    from refloop import Meter

    verify_limit = polycf.analysis.verify_limit
    meter = Meter()

    def timed_verify_limit(*args, **kwargs):
        start = time.perf_counter()
        try:
            return verify_limit(*args, **kwargs)
        finally:
            meter.record(time.perf_counter() - start)

    polycf.analysis.verify_limit = timed_verify_limit

try:
    code = polycf.cli.main(sys.argv[1:])
except SystemExit as e:
    code = e.code
finally:
    sys.stdout.flush()
    if tracer is not None:
        tracer.uninstall()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "trace": tracer.summary()}, fh)
        tracer.write_spans(os.environ["PERFBENCH_SPANS"])
    if rows_out:
        with open(rows_out, "w", encoding="utf-8") as fh:
            # samples after the first ran inside polycf.cli.main's span
            in_main_s = sum(meter.refs[1:])
            lat = meter.scaled()
            json.dump({"lat": lat, "factor": meter.factor(), "ref_s": sum(meter.refs),
                       "ref_in_main_s": in_main_s}, fh)
sys.exit(code)
