"""Speed probe: samples how fast the CPU runs while an operation runs.

On a shared host the same deterministic fit can take anywhere between 1x and
2x its best time, and the speed changes within seconds. The probe measures a
fixed reference loop (small numpy operations and interpreter work, like the
package's inner loops) every INTERVAL_S seconds from a SIGALRM handler,
which Python runs in the main thread between bytecodes. An operation's time
divided by the reference loop's time over the same interval is then a
measure of its work from which the host's speed largely cancels out.

The handler's own time is recorded, so callers subtract it from the
operation's wall time.

Run as a script, ``python3 probe.py MODULE ARGS...`` runs MODULE as
``__main__`` while sampling and prints the samples' summary as the last line
of standard output; the benchmark times its set-up that way.
"""

from __future__ import annotations

import contextlib
import json
import runpy
import signal
import statistics
import sys
import time
from typing import Iterator, List

import numpy as np

INTERVAL_S = 0.02  # one sample per 20 ms; a sample takes ~0.2-0.4 ms
# Times in reference loops are turned back into seconds at a nominal speed at
# which one reference loop takes this long (about a 2-vCPU cloud VM at its
# fastest during a fit).
NOMINAL_REF_S = 0.2e-3


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._m = rng.random((4, 4))
        self._b = rng.random((7, 64))
        self.samples: List[float] = []
        self.overhead_s = 0.0  # time the samples took inside the last block
        for _ in range(3):  # the first calls of a process run slower
            self.reference()

    def reference(self) -> float:
        """The fixed reference loop; its result only keeps it from being idle."""
        m, b = self._m, self._b
        x, s = m, 0.0
        for _ in range(20):
            x = np.tanh(x @ m * 0.1) + m.T
            c = b[:, :60] * 1.1 + b[:, 4:]
            s += float(np.dot(c[0], c[1])) + sum(range(10))
        return s + float(x[0, 0])

    def sample(self) -> None:
        start = time.perf_counter()
        self.reference()
        self.samples.append(time.perf_counter() - start)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    @contextlib.contextmanager
    def sampling(self) -> Iterator["SpeedProbe"]:
        """Sample every INTERVAL_S seconds inside the block; at least once."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.overhead_s = sum(self.samples)
        if not self.samples:
            self.sample()

    def ref_s(self) -> float:
        """Time of one reference loop over the last sampled block.

        The samples are evenly spaced in wall time, so the work the CPU did
        per second over the block is proportional to the mean of 1 / sample:
        the block's wall time divided by the samples' harmonic mean is its
        work in reference loops. A sample stretched by preemption adds
        little to that mean."""
        return statistics.harmonic_mean(self.samples)


def main(argv: List[str]) -> int:
    module, args = argv[0], argv[1:]
    probe = SpeedProbe()
    code = 0
    with probe.sampling():
        sys.argv = [module, *args]
        try:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    print(json.dumps({"overhead_s": probe.overhead_s, "ref_s": probe.ref_s()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
