"""Brute-force reference answers, kept independent of the simulator.

These functions share no helper logic with the tree machinery; they exist
so property tests and the CLI's verify mode have a second opinion.  The
classic sorters double as the bench subcommand's baselines; each counts
the element comparisons it performs.
"""

from __future__ import annotations

from typing import Literal, Sequence

__all__ = [
    "OracleReport",
    "oracle_search",
    "oracle_extremum",
    "oracle_sort_desc",
    "BASELINE_SORTS",
    "run_baseline",
]

from dataclasses import dataclass


@dataclass(frozen=True)
class OracleReport:
    agreed: int
    detail: str = ""


def compare(expected: object, actual: object) -> OracleReport:
    if expected == actual:
        return OracleReport(agreed=1)
    return OracleReport(
        agreed=0,
        detail=f"simulator answered {actual!r}, oracle says {expected!r}",
    )


def oracle_search(elements: Sequence[int], key: int) -> int:
    """1 iff the key occurs in the list; linear scan."""
    for x in elements:
        if x == key:
            return 1
    return 0


def oracle_extremum(elements: Sequence[int], which: Literal["max", "min"],
                    identity: int) -> int:
    """Max or min of the list, or the supplied identity when it is empty."""
    if not elements:
        return identity
    return max(elements) if which == "max" else min(elements)


def oracle_sort_desc(elements: Sequence[int]) -> list[int]:
    """Descending-ordered copy of the multiset."""
    return sorted(elements, reverse=True)


# --- baseline sorters -------------------------------------------------------
#
# Hand-rolled classics, all producing descending output to match
# oracle_sort_desc.  Each returns (sorted_list, comparison_count); radix
# performs no element comparisons and reports 0.


def _insertion(xs: list[int]) -> tuple[list[int], int]:
    a = list(xs)
    comps = 0
    for i in range(1, len(a)):
        v = a[i]
        j = i - 1
        while j >= 0:
            comps += 1
            if a[j] < v:
                a[j + 1] = a[j]
                j -= 1
            else:
                break
        a[j + 1] = v
    return a, comps


def _selection(xs: list[int]) -> tuple[list[int], int]:
    a = list(xs)
    comps = 0
    for i in range(len(a)):
        best = i
        for j in range(i + 1, len(a)):
            comps += 1
            if a[j] > a[best]:
                best = j
        a[i], a[best] = a[best], a[i]
    return a, comps


def _bubble(xs: list[int]) -> tuple[list[int], int]:
    a = list(xs)
    comps = 0
    for i in range(len(a)):
        swapped = False
        for j in range(len(a) - 1 - i):
            comps += 1
            if a[j] < a[j + 1]:
                a[j], a[j + 1] = a[j + 1], a[j]
                swapped = True
        if not swapped:
            break
    return a, comps


def _merge(xs: list[int]) -> tuple[list[int], int]:
    comps = 0

    def rec(a: list[int]) -> list[int]:
        nonlocal comps
        if len(a) <= 1:
            return a
        mid = len(a) // 2
        left, right = rec(a[:mid]), rec(a[mid:])
        out: list[int] = []
        i = j = 0
        while i < len(left) and j < len(right):
            comps += 1
            if left[i] >= right[j]:
                out.append(left[i])
                i += 1
            else:
                out.append(right[j])
                j += 1
        out.extend(left[i:])
        out.extend(right[j:])
        return out

    return rec(list(xs)), comps


def _heap(xs: list[int]) -> tuple[list[int], int]:
    # Min-heap then pop into a reversed tail gives descending output.
    a = list(xs)
    n = len(a)
    comps = 0

    def sift(start: int, end: int) -> None:
        nonlocal comps
        root = start
        while 2 * root + 1 <= end:
            child = 2 * root + 1
            if child + 1 <= end:
                comps += 1
                if a[child + 1] < a[child]:
                    child += 1
            comps += 1
            if a[child] < a[root]:
                a[root], a[child] = a[child], a[root]
                root = child
            else:
                return

    for start in range(n // 2 - 1, -1, -1):
        sift(start, n - 1)
    for end in range(n - 1, 0, -1):
        a[0], a[end] = a[end], a[0]
        sift(0, end - 1)
    return a, comps


def _quick(xs: list[int]) -> tuple[list[int], int]:
    comps = 0

    def rec(a: list[int]) -> list[int]:
        nonlocal comps
        if len(a) <= 1:
            return a
        pivot = a[len(a) // 2]
        hi, eq, lo = [], [], []
        for x in a:
            comps += 1
            if x > pivot:
                hi.append(x)
            elif x == pivot:
                eq.append(x)
            else:
                lo.append(x)
        return rec(hi) + eq + rec(lo)

    return rec(list(xs)), comps


def _radix(xs: list[int]) -> tuple[list[int], int]:
    a = list(xs)
    if not a:
        return a, 0
    shift = 0
    top = max(a)
    while (top >> shift) > 0 or shift == 0:
        buckets: list[list[int]] = [[] for _ in range(256)]
        for x in a:
            buckets[(x >> shift) & 0xFF].append(x)
        a = [x for b in reversed(buckets) for x in b]
        shift += 8
        if (top >> shift) == 0:
            break
    return a, 0


BASELINE_SORTS = {
    "insertion": _insertion,
    "selection": _selection,
    "bubble": _bubble,
    "merge": _merge,
    "heap": _heap,
    "quick": _quick,
    "radix": _radix,
}


def run_baseline(name: str, elements: Sequence[int]) -> tuple[list[int], int]:
    """Run one named baseline; returns (descending output, comparisons)."""
    try:
        fn = BASELINE_SORTS[name]
    except KeyError:
        raise ValueError(f"unknown baseline sorter {name!r}") from None
    return fn(list(elements))
