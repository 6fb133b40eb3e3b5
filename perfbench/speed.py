"""Host speed, read from a fixed pure-Python reference loop.

The shared machine the benchmark runs on changes speed with other
tenants' load: a pure-Python loop swings by up to 1.8x within seconds,
with no CPU time stolen from the process (the vCPU runs, only slower).
Raw op times then say more about the neighbours than about the program.

So the timed loop runs ``reference()`` just before and just after every
op, and scales each op's time by ``REF_US / median(recent reference
times)``: times are reported as they would read on a host where the
reference loop takes ``REF_US`` microseconds.  run.py pins itself and
its children to one CPU, so the reference reads the speed of the CPU
the op ran on.  The reference is the benchmark's own code and calls
nothing in the package, so a change to the program cannot move it.  The
raw times are kept in the results record.
"""

from __future__ import annotations

import collections
import dataclasses
import fractions
import statistics
import time

REF_US = 60.0   # reference time on the nominal host (this host, unloaded)
WINDOW = 16     # reference samples the scale is taken over


@dataclasses.dataclass(frozen=True)
class _State:
    coeffs: tuple
    weight: float


_XS = tuple(0.01 * k - 0.3 for k in range(30))
_STEPS = (0.3 + 0.1j, -0.2j, 0.5, 0.1 - 0.4j, 0.25 + 0.25j, 0.7)


def _step(state: _State, z: complex) -> _State:
    return _State(tuple(a * z - 0.1 for a in state.coeffs), state.weight + abs(z))


def reference() -> float:
    """Fixed work in the style of the package's kernels: exact rational
    sums, then frozen-dataclass states rebuilt from complex tuples.

    A tight complex-arithmetic loop was tried first: under load it slowed
    by a different factor than the ops, and scaled spreads stayed at
    0.04-0.06 of the median; with this method-call and allocation heavy
    mix they were 0.01-0.02 over the same six runs."""
    total = fractions.Fraction(0)
    for k in range(1, 9):
        total += fractions.Fraction(k, k + 3)
    state = _State(tuple(complex(x, 0.1) for x in _XS), 0.0)
    weights = []
    for z in _STEPS:
        state = _step(state, z)
        weights.append(state.weight)
    return float(total) + sum(weights)


def sample(reps: int) -> list[float]:
    """Seconds taken by each of `reps` reference() calls."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference()
        out.append(time.perf_counter() - t0)
    return out


class Scale:
    """Rolling median of the last WINDOW reference times."""

    def __init__(self):
        self.window = collections.deque(maxlen=WINDOW)

    def add(self, samples: list[float]) -> None:
        self.window.extend(samples)

    def factor(self) -> float:
        """What to multiply a raw time by to get it at the nominal speed."""
        return REF_US * 1e-6 / statistics.median(self.window)
