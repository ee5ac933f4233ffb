"""Performance instrumentation and the tracked benchmark harness.

Two halves:

* :mod:`repro.perf.counters` — :class:`~repro.perf.counters.SimCounters`, the
  cheap hot-path counters the fluid network increments (waterfill calls,
  flows touched per recompute, rate-cache traffic).  A leaf module so
  :mod:`repro.simnet` can import it without layering violations.
* :mod:`repro.perf.bench` — the pinned three-scale benchmark suite behind
  ``speakup-repro bench``, which appends dated entries to
  ``BENCH_speakup.json`` so the repo carries its performance trajectory.

The bench half sits at the *top* of the layering (it imports the scenario
registry, which imports everything), so this package imports only the
counters; import the bench as :mod:`repro.perf.bench`.
"""

from repro.perf.counters import SimCounters

__all__ = ["SimCounters"]
