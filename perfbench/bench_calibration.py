"""Calibration samples that report benchmark times at a reference speed.

On a host whose cores are shared with other workloads, the same op takes up
to twice as long while they run, on each core separately. A short kernel (an
integer loop in Python, a numpy convolution and a pass over a fresh 8 MB
array: the interpreter, compute and memory work the ops do) is timed on the
core an op runs on, before it, after it and, where the op can host them,
inside it; the op's time is divided by the slowdown the samples saw.

This module imports numpy only inside the full kernel, so a child process
can take a Python-only sample before it loads anything else.
"""

from __future__ import annotations

import time

# Seconds the calibration kernels take on an uncontended core of the
# reference machine (see README.md): the full kernel, and its Python part
# alone, which runs before numpy is imported.
CALIBRATION_REF_S = 0.014
PYTHON_REF_S = 0.0019
# Kernel runs per sample: the slowdown switches within a second, so one short
# run is a noisy snapshot of it.
CALIBRATION_REPEATS = 3


def _python_kernel():
    x = 1
    for _ in range(20_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF


def _full_kernel():
    import numpy as np

    _python_kernel()
    bits = np.arange(20_000, dtype=np.int64) & 1
    np.convolve(bits, bits[:1000])
    float(np.arange(1_000_000, dtype=np.float64).sum())


def sample(python_only: bool = False) -> tuple[float, float, float]:
    """(start, end, slowdown) of one calibration sample; slowdown > 1 while the
    host is slow. `python_only` times the integer loop alone."""
    kernel, reference = (_python_kernel, PYTHON_REF_S) if python_only \
        else (_full_kernel, CALIBRATION_REF_S)
    start = time.perf_counter()
    for _ in range(CALIBRATION_REPEATS):
        kernel()
    end = time.perf_counter()
    return start, end, (end - start) / CALIBRATION_REPEATS / reference


def scaled_seconds(start: float, end: float, before: float, after: float, inner=()) -> float:
    """Wall seconds from start to end at the reference speed.

    `before` and `after` are the slowdowns sampled just before and after the
    interval; `inner` holds (start, end, slowdown) samples taken inside it,
    in order, whose own time is left out. Each stretch between two samples
    is divided by the mean of their slowdowns.
    """
    total, cursor, speed = 0.0, start, before
    for sample_start, sample_end, sample_speed in inner:
        total += (sample_start - cursor) / ((speed + sample_speed) / 2)
        cursor, speed = sample_end, sample_speed
    return total + (end - cursor) / ((speed + after) / 2)
