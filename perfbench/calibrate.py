"""A fixed reference kernel that puts host times on one speed scale.

The benchmark's host shares its cores with other tenants, and their load
comes and goes in phases of seconds that slow every instruction this process
runs by up to about 1.7x.  Each timed op (and each set-up) is therefore
preceded by one run of this kernel, and its host time is rescaled by
``NOMINAL_NS / kernel time``: the time the op would have taken at the speed
at which the kernel takes ``NOMINAL_NS``.

The kernel mimics the simulator's host work: a walk over a few thousand
slotted node objects with a nested flags object, an inbox list and a child
tuple, one small word object allocated per node visit, and writes into the
children's inboxes.  Its sensitivity to a noisy neighbour is therefore close
to the simulator's, which a small in-cache loop's is not.  The kernel lives
in the benchmark, so a change to the program under test cannot move it.
"""

from __future__ import annotations

import gc
from time import perf_counter_ns

# Roughly the kernel's time in quiet periods (7 to 8 ms) on a 2-vCPU Intel
# Xeon (model 207) KVM guest with CPython 3.11.  It fixes only the scale of
# the normalised times, never their ratios.
NOMINAL_NS = 8_000_000


class _Word:
    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int) -> None:
        self.width = width
        self.value = value


class _Flags:
    def __init__(self) -> None:
        self.state = 0
        self.match = 1
        self.links = [0, 0]


class _Node:
    __slots__ = ("word", "flags", "inbox", "clock", "kids")

    def __init__(self, i: int) -> None:
        self.word = _Word(16, i & 0xFFFF)
        self.flags = _Flags()
        self.inbox = [None, None]
        self.clock = 0
        self.kids: tuple[_Node, ...] = ()


def _rotate(word: _Word) -> _Word:
    out = _Word.__new__(_Word)
    w = word.width
    out.width = w
    out.value = ((word.value << 1) | (word.value >> (w - 1))) & ((1 << w) - 1)
    return out


_NODES = 3000  # a binary tree of node objects, about the size of search-lookups
_ROUNDS = 4    # walks per kernel run


class Calibrator:
    def __init__(self) -> None:
        self.nodes = [_Node(i) for i in range(_NODES)]
        for i, nd in enumerate(self.nodes):
            nd.kids = tuple(self.nodes[j] for j in (2 * i + 1, 2 * i + 2) if j < _NODES)

    def _kernel(self) -> int:
        acc = 0
        for _ in range(_ROUNDS):
            for nd in self.nodes:
                f = nd.flags
                inbox = nd.inbox
                s = f.state
                for b in inbox:
                    if b:
                        s |= 1
                f.state = s | (nd.word.value & 1)
                nd.word = _rotate(nd.word)
                nd.clock += 1
                for kid in nd.kids:
                    kid.inbox[0] = f.state
                inbox[1] = None
                acc += f.state
        return acc

    def measure(self) -> int:
        """Host time of one kernel run, in ns.

        The cyclic collector is paused so that its passes over the program's
        heap, whose size a change under test may alter, stay out of it.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter_ns()
            self._kernel()
            return perf_counter_ns() - t0
        finally:
            if enabled:
                gc.enable()
