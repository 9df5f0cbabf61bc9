"""Duration-only clocks are allowed in protocol code."""

import time


def measure(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
