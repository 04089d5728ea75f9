"""Run xplain, or set-up code, with a speed gauge interleaved; for bench/run.py.

    python3 gauge.py GAUGE.json cli -- <xplain arguments>
    python3 gauge.py GAUGE.json exec CODE

The virtual machine the benchmark was written on changes its CPU speed by
up to 1.7x from one minute to the next, and by 20% within seconds, so CPU
time alone does not repeat. After every INTERVAL_S of this process's CPU
time (ITIMER_PROF), a SIGPROF handler runs one fixed reference unit of
pure-Python and small-numpy work, the kind of work xplain does, and records
the CPU time it took. The samples come from the same CPU at the same
moments as the code they interleave with, so their mean tracks the speed
the code ran at. GAUGE.json gets the number of units and their CPU seconds;
bench/run.py takes those out of the process's CPU time and scales the rest
to the reference speed. Both modes expect the repository's `src` on
PYTHONPATH.
"""

import json
import signal
import sys
import time

import numpy as np

INTERVAL_S = 0.02
_M = np.linspace(0.5, 1.5, 12 * 20).reshape(12, 20)


def unit():
    """The reference work: a fixed mix of bytecode and small array updates."""
    s, d = 0, {}
    for i in range(2000):
        s += i * i % 7
        d[i & 255] = s
    m = _M.copy()
    for k in range(60):
        r, c = k % 12, k % 20
        m[r] /= m[r, c] + 1.0
        m -= np.outer(m[:, c] * 1e-3, m[r])
    return s, m


def gauged(run, out):
    """run() under the gauge; writes {"units", "unit_cpu_s"} to out."""
    samples = []

    def sample(signum, frame):
        t0 = time.thread_time()
        unit()
        samples.append(time.thread_time() - t0)

    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    try:
        return run()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        with open(out, "w") as f:
            json.dump({"units": len(samples), "unit_cpu_s": sum(samples)}, f)


def main():
    if len(sys.argv) >= 4 and sys.argv[2:4] == ["cli", "--"]:
        def run():
            import xplain.cli
            return xplain.cli.main(sys.argv[4:])
        return gauged(run, sys.argv[1])
    if len(sys.argv) == 4 and sys.argv[2] == "exec":
        gauged(lambda: exec(sys.argv[3], {}), sys.argv[1])
        return 0
    sys.exit(f"usage: {sys.argv[0]} GAUGE.json cli -- ARGS... | GAUGE.json exec CODE")


if __name__ == "__main__":
    sys.exit(main())
