"""Host-speed reference: every reported time is scaled to a fixed speed.

The 2-core host this benchmark was defined on switches between speed levels
up to 2x apart, holding each for seconds to minutes (a pure-Python loop
reads 0.05 s in one minute and 0.09 s the next).  A pass timed across such
a switch says more about the host than about polycf.  So the benchmark
times a short fixed loop of exact and mpf recurrences, which uses no
polycf code, between operations on the same core, and reports each
operation's time multiplied by NOMINAL_S over the mean of the two loop
timings around it: seconds at the speed where the loop takes NOMINAL_S.

Starting a process moves with the host differently again (file reads,
unmarshalling, page faults), and the loop tracks it poorly.  Whole fresh
processes are therefore scaled by a reference process instead: a fresh
interpreter that imports mpmath and the standard modules polycf uses, and
no polycf code.  Over 27 blocks of ten `polycf eval` processes the spread
(standard deviation over mean) of the block medians was 0.128 in plain
seconds, 0.083 scaled by the loop and 0.021 scaled by the reference process.
"""

import statistics
import subprocess
import sys
import time
from fractions import Fraction

import mpmath

clock = time.perf_counter
# never change: they set the unit of every reported time
NOMINAL_S = {False: 0.015, True: 0.019}
PROCESS_NOMINAL_S = 0.13
PROCESS_IMPORTS = "import argparse, dataclasses, fractions, json, mpmath"


def reference_s(wide=False):
    """Seconds taken by the fixed reference loop, run here and now.

    `wide` adds 4096-bit mpf steps, for work dominated by wide mpf numbers,
    which host speed changes move differently from small-number work.
    """
    t0 = clock()
    A, A_prev, B, B_prev = Fraction(1), Fraction(0), Fraction(1), Fraction(1)
    for n in range(1, 100):
        a, b = Fraction(n * n, n + 1), Fraction(2 * n + 1, 3)
        A, A_prev = b * A + a * A_prev, A
        B, B_prev = b * B + a * B_prev, B
    with mpmath.workprec(160):
        x, y = mpmath.mpf(1), mpmath.mpf(0)
        for n in range(1, 1500):
            x, y = (2 * n + 1) * x + n * n * y, x
            if n % 64 == 0:
                x = x / y
    if wide:
        with mpmath.workprec(4096):
            x, y = mpmath.mpf(1), mpmath.mpf(3)
            for n in range(1, 150):
                x, y = (2 * n + 1) * x + n * n * y, x
                x = x / y
    return clock() - t0


def process_reference_s():
    """Seconds taken by a fresh reference interpreter, started here and now."""
    t0 = clock()
    subprocess.run([sys.executable, "-c", PROCESS_IMPORTS], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return clock() - t0


class Meter:
    """Operation latencies with reference samples at least every `every_s`.

    `process` scales by the reference process instead of the loop.
    """

    def __init__(self, every_s=0.1, wide=False, process=False):
        self.every_s = every_s
        if process:
            self.nominal, self.reference = PROCESS_NOMINAL_S, process_reference_s
        else:
            self.nominal, self.reference = NOMINAL_S[wide], lambda: reference_s(wide)
        self.refs = [self.reference()]
        self.raw, self.segment = [], []
        self._since = 0.0

    def record(self, dt):
        self.raw.append(dt)
        self.segment.append(len(self.refs) - 1)
        self._since += dt
        if self._since >= self.every_s:
            self.refs.append(self.reference())
            self._since = 0.0

    def scaled(self):
        """Latencies in reference-speed seconds."""
        if not self.segment or self.segment[-1] + 1 >= len(self.refs):
            self.refs.append(self.reference())
            self._since = 0.0
        return [dt * self.nominal * 2 / (self.refs[s] + self.refs[s + 1])
                for dt, s in zip(self.raw, self.segment)]

    def factor(self):
        """Mean scale factor, for times not split by operation."""
        return self.nominal / statistics.mean(self.refs)
