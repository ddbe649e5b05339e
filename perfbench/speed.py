"""The host's interpreter speed, measured with a fixed kernel, to rescale timings.

On a shared virtual machine the same pure-Python work runs at different
speeds from one second to the next: on the 2-vCPU Xeon VM this benchmark
was built on, a CPU-bound loop alternated between two plateaus 1.36x
apart, for seconds to minutes at a time, while CPU time tracked wall
time.  Raw pass times of one workload spread by 15% (quartile distance
over median), far more than any change worth detecting.

So the benchmark also times ``kernel``, a fixed loop that is part of the
benchmark and never of the program, while the timed work runs, and
reports that work at a reference speed::

    rescaled seconds = seconds * REFERENCE_KERNEL_S / typical kernel time

A faster program lowers the rescaled time exactly as it lowers the raw
time; a slower host does not.  On the VM above this cut the quartile
spread of single passes from about 15% to 3-4%, and that of 25-second
runs to 2-4%.  The raw times are kept in every result record.
"""

import threading
import time

# the kernel's time on the VM above in its fast state (Python 3.11)
REFERENCE_KERNEL_S = 0.00033
SAMPLE_INTERVAL_S = 0.02


def kernel():
    """Integer arithmetic, then a sparse product of dicts keyed by exponent
    tuples: the two kinds of work the library's arithmetic does."""
    s = 0
    d = {}
    for i in range(1500):
        s += i * i % 7
        d[i & 63] = s
    a = {(i, j, 0): i - j + 1 for i in range(6) for j in range(6)}
    b = list(a.items())[:12]
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b:
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            c = out.get(e, 0) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return s, out


def kernel_time():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def typical(samples):
    """Mean of the samples without the slowest tenth (interrupts, GC)."""
    kept = sorted(samples)[: max(1, len(samples) * 9 // 10)]
    return sum(kept) / len(kept)


def rescale(seconds, samples):
    """``seconds`` at the reference speed, given kernel times from then."""
    return seconds * REFERENCE_KERNEL_S / typical(samples)


class Sampler:
    """Times the kernel every ``SAMPLE_INTERVAL_S`` in a background thread.

    The thread takes the interpreter lock for each sample, so the timed
    work pauses meanwhile; ``busy_s`` is that paused time, to subtract.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.samples.append(kernel_time())

    def __enter__(self):
        self.samples.append(kernel_time())
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.samples.append(kernel_time())

    @property
    def busy_s(self):
        return sum(self.samples[1:-1])
