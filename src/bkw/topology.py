"""Finite closed-set topologies and their co-Heyting operations.

A topology is stored by its closed sets, which must contain the empty set
and the carrier and be closed under union and intersection (``validate``).
Each point then has a smallest closed superset, its *hull*; the hulls,
computed once per topology, decide all closure: a set's closure is the
union of its points' hulls, and the closed sets are the sets equal to
their closure (Alexandroff 1937: a finite topology is the set of down-sets
of a preorder).  ``discrete``, ``product`` and ``enumerate_topologies``
build topologies from hulls by that rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product as iproduct
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class ClosedTopology:
    carrier: frozenset
    closed: frozenset
    #: The hull table: each point's smallest closed superset.
    hulls: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        hulls = dict.fromkeys(self.carrier, self.carrier)
        for c in self.closed:
            for p in c & self.carrier:
                hulls[p] &= c
        object.__setattr__(self, "hulls", hulls)

    @staticmethod
    def make(carrier: Iterable, closed: Iterable[Iterable]) -> "ClosedTopology":
        return ClosedTopology(frozenset(carrier), frozenset(frozenset(c) for c in closed))


def _closure_table(hulls: Sequence[int]) -> list[int]:
    """Every mask's closure, the union of its bits' hulls, indexed by the
    mask; hulls[i] is the hull mask of bit i."""
    closure = [0]
    for mask in range(1, 1 << len(hulls)):  # add the lowest bit's hull
        closure.append(closure[mask & mask - 1] | hulls[(mask & -mask).bit_length() - 1])
    return closure


def _closed_masks(hulls: Sequence[int]) -> list[int]:
    """The masks equal to their own closure."""
    return [mask for mask, c in enumerate(_closure_table(hulls)) if c == mask]


def _hull_tables(n: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """Every transitive hull table on n bits (a preorder: each hull holds
    its bits' hulls) with its closure table, in ascending order of the bit
    set of their closed masks."""
    bits = range(n)
    choices = [[h for h in range(1 << n) if h >> i & 1] for i in bits]
    tables = [(hulls, _closure_table(hulls)) for hulls in iproduct(*choices)
              if all(hulls[j] | h == h for h in hulls for j in bits if h >> j & 1)]
    tables.sort(key=lambda table: sum(1 << m for m, c in enumerate(table[1]) if c == m))
    return tables


def _from_hulls(points: Sequence, hulls: Sequence[int]) -> ClosedTopology:
    """The topology that the hulls generate; bit i stands for points[i]."""
    return ClosedTopology(frozenset(points), frozenset(
        frozenset(p for i, p in enumerate(points) if mask >> i & 1)
        for mask in _closed_masks(hulls)))


def discrete(carrier: Iterable) -> ClosedTopology:
    """Topology in which every subset is closed."""
    points = sorted(carrier)
    return _from_hulls(points, [1 << i for i in range(len(points))])


def validate(t: ClosedTopology) -> list[str]:
    """Return the list of axiom violations (empty means the family is a topology)."""
    problems = []
    if frozenset() not in t.closed:
        problems.append("missing empty set")
    if t.carrier not in t.closed:
        problems.append("missing carrier")
    family = sorted(t.closed, key=sorted)
    for c in family:
        if not c <= t.carrier:
            problems.append(f"set {sorted(c)} is not a subset of the carrier")
    for c1, c2 in combinations(family, 2):
        if c1 | c2 not in t.closed:
            problems.append(f"union of {sorted(c1)} and {sorted(c2)} is not closed")
        if c1 & c2 not in t.closed:
            problems.append(f"intersection of {sorted(c1)} and {sorted(c2)} is not closed")
    return problems


def closure(t: ClosedTopology, s: Iterable) -> frozenset:
    """Smallest closed superset of s: the union of its points' hulls."""
    s = frozenset(s)
    if not s <= t.carrier:
        raise ValueError(f"points {sorted(s - t.carrier)} are outside the carrier")
    return frozenset().union(*map(t.hulls.__getitem__, s))


def _complement(t: ClosedTopology, s: Iterable) -> frozenset:
    """The carrier minus s, after the same carrier check as ``closure``:
    a complement would silently drop the points of s outside it."""
    s = frozenset(s)
    if not s <= t.carrier:
        raise ValueError(f"points {sorted(s - t.carrier)} are outside the carrier")
    return t.carrier - s


def interior(t: ClosedTopology, s: Iterable) -> frozenset:
    """Largest open subset of s (opens are complements of closed sets)."""
    return t.carrier - closure(t, _complement(t, s))


def boundary(t: ClosedTopology, s: Iterable) -> frozenset:
    s = frozenset(s)
    return closure(t, s) - interior(t, s)


def pneg(t: ClosedTopology, s: Iterable) -> frozenset:
    """Paraconsistent negation: closure of the complement."""
    return closure(t, _complement(t, s))


def ineg(t: ClosedTopology, s: Iterable) -> frozenset:
    """Intuitionistic negation: interior of the complement."""
    return interior(t, _complement(t, s))


def _require_closed(t: ClosedTopology, s: frozenset, role: str) -> None:
    if s not in t.closed:
        raise ValueError(f"{role} {sorted(s)} is not closed in this topology")


def subtraction(t: ClosedTopology, a: Iterable, b: Iterable) -> frozenset:
    """Co-Heyting subtraction: the smallest closed x with a <= x | b."""
    a, b = frozenset(a), frozenset(b)
    _require_closed(t, a, "minuend")
    _require_closed(t, b, "subtrahend")
    return closure(t, a - b)


def exponent(t: ClosedTopology, c1: Iterable, c2: Iterable) -> frozenset:
    """Exponent object of the closed-set category: Clo(complement(c1) & c2)."""
    c1, c2 = frozenset(c1), frozenset(c2)
    _require_closed(t, c1, "base")
    _require_closed(t, c2, "exponent")
    return closure(t, (t.carrier - c1) & c2)


def product(ta: ClosedTopology, tb: ClosedTopology) -> ClosedTopology:
    """Product topology: closed sets are all unions of closed rectangles,
    so the hull of a pair is the rectangle of its coordinates' hulls."""
    points = list(iproduct(ta.carrier, tb.carrier))
    bit = {p: 1 << i for i, p in enumerate(points)}
    return _from_hulls(points, [sum(bit[q] for q in iproduct(ta.hulls[x], tb.hulls[y]))
                                for x, y in points])


def enumerate_topologies(carrier: Iterable) -> Iterator[ClosedTopology]:
    """All closed-set topologies on up to 4 points, one per transitive hull
    table, in ascending order of the bit set of their closed masks."""
    points = sorted(carrier)
    if len(points) > 4:
        raise ValueError("carrier too large for exhaustive topology enumeration")
    for hulls, _ in _hull_tables(len(points)):
        yield _from_hulls(points, hulls)
