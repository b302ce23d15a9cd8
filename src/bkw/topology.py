"""Finite closed-set topologies and their co-Heyting operations.

A topology is stored by its closed sets, which must contain the empty set
and the carrier and be closed under union and intersection (``validate``).
Each point then has a smallest closed superset, its *hull*.  A topology
derives its ``points`` (the sorted carrier; bit i of a point mask stands
for points[i]) and their ``hulls`` as masks once; they decide all closure:
a set's closure is the union of its points' hulls (``hull_union``), and
the closed sets are the sets equal to their closure (Alexandroff 1937: a
finite topology is the set of down-sets of a preorder).  ``discrete``,
``product`` and ``enumerate_topologies`` build topologies by that rule;
``_hull_tables`` grows the preorders point by point, so its work follows
the number of topologies, not of candidate hull tables.
``MaskLattice`` is the one implementation of the co-Heyting operations, on
point masks over a closure callable: one topology's hull union, or a
lookup in a closure table, which takes numpy arrays of masks.  The
frozenset functions ``closure`` ... ``exponent`` are adapters over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, product as iproduct
from operator import itemgetter, or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


@dataclass(frozen=True)
class ClosedTopology:
    carrier: frozenset
    closed: frozenset
    #: The carrier in sorted order; bit i of a point mask stands for points[i].
    points: tuple = field(init=False, repr=False, compare=False)
    #: Each point's hull, its smallest closed superset, as a point mask.
    hulls: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        points = tuple(sorted(self.carrier))
        hulls = [(1 << len(points)) - 1] * len(points)
        for c in self.closed:
            mask = sum(1 << i for i, p in enumerate(points) if p in c)
            hulls = [h & mask if mask >> i & 1 else h for i, h in enumerate(hulls)]
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "hulls", tuple(hulls))

    @staticmethod
    def make(carrier: Iterable, closed: Iterable[Iterable]) -> "ClosedTopology":
        return ClosedTopology(frozenset(carrier), frozenset(frozenset(c) for c in closed))


def hull_union(hulls: Sequence[int], s: int) -> int:
    """The closure of the point mask s: the union of its bits' hulls."""
    out = 0
    for i, h in enumerate(hulls):
        if s >> i & 1:
            out |= h
    return out


class MaskLattice(NamedTuple):
    """The co-Heyting operations on point masks over a closure; each takes
    ints, or numpy arrays of masks when ``close`` is a table lookup."""

    close: Callable  # a mask's closure
    full: int  # the carrier's mask

    def subtraction(self, a, b):
        """The smallest closed x with a <= x | b, for closed a and b."""
        return self.close(a & ~b)

    def pneg(self, s):
        return self.close(self.full & ~s)

    def interior(self, s):
        return self.full & ~self.pneg(s)

    def boundary(self, s):
        return self.close(s) & ~self.interior(s)

    def ineg(self, s):
        return self.interior(self.full & ~s)


def _closure_table(hulls: Sequence[int]) -> list[int]:
    """Every mask's closure, the union of its bits' hulls, indexed by the
    mask; hulls[i] is the hull mask of bit i."""
    closure = [0]
    for h in hulls:  # the masks with bit i as their top bit add its hull
        closure += [c | h for c in closure]
    return closure


def _hull_tables(n: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """Every preorder on n bits as its hull table (hulls[i] holds i and the
    bits below it) with its closure table, in ascending order of the bit
    set of their closed masks.  The preorders on bits 0..m grow those on
    0..m-1 by bit m: m's hull is m plus a closed set D of the old bits (the
    bits below m), and an open set U of the old bits lies above m.  The
    pair is kept when every hull in U holds D, and each hull in U then
    gains m.  Each preorder carries its family, the bit set of its closed
    masks (its down-sets): the old ones that miss U, and those that hold D
    with m added; the family is also the sort key."""
    grown = [((), 1)]  # (hulls, family) of the one preorder on 0 bits
    for m in range(n):
        bit, masks = 1 << m, range(1 << m)
        # as bit sets: the masks that miss u, and the masks that hold d
        misses = [sum(1 << x for x in masks if x & u == 0) for u in masks]
        holds = [sum(1 << x for x in masks if x & d == d) for d in masks]
        # gains[u][i]: what bit i's hull gains when u lies above m
        gains = [[bit if u >> i & 1 else 0 for i in range(m)] for u in masks]
        extended = []
        for hulls, family in grown:
            closed = [x for x in masks if family >> x & 1]
            for d in closed:
                holds_d = sum(1 << i for i, h in enumerate(hulls) if h & d == d)
                for c in closed:
                    up = bit - 1 & ~c
                    if up & ~holds_d == 0:
                        extended.append((tuple(map(or_, hulls, gains[up])) + (d | bit,),
                                         (family & misses[up]) | (family & holds[d]) << bit))
        grown = extended
    grown.sort(key=itemgetter(1))
    return [(hulls, _closure_table(hulls)) for hulls, _ in grown]


def _from_hulls(points: Sequence, closure: Sequence[int]) -> ClosedTopology:
    """The topology of a closure table's fixed points; bit i stands for points[i]."""
    return ClosedTopology(frozenset(points), frozenset(
        frozenset(p for i, p in enumerate(points) if mask >> i & 1)
        for mask, c in enumerate(closure) if c == mask))


def discrete(carrier: Iterable) -> ClosedTopology:
    """Topology in which every subset is closed."""
    points = sorted(carrier)
    return _from_hulls(points, range(1 << len(points)))


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


def _apply(t: ClosedTopology, op: str, *sets: Iterable) -> frozenset:
    """The lattice operation op of t on the point masks of the sets, as names."""
    masks = []
    for s in map(frozenset, sets):
        if not s <= t.carrier:
            raise ValueError(f"points {sorted(s - t.carrier)} are outside the carrier")
        masks.append(sum(1 << t.points.index(p) for p in s))
    lattice = MaskLattice(partial(hull_union, t.hulls), (1 << len(t.points)) - 1)
    out = getattr(lattice, op)(*masks)
    return frozenset(p for i, p in enumerate(t.points) if out >> i & 1)


def closure(t: ClosedTopology, s: Iterable) -> frozenset:
    """Smallest closed superset of s: the union of its points' hulls."""
    return _apply(t, "close", s)


def interior(t: ClosedTopology, s: Iterable) -> frozenset:
    """Largest open subset of s (opens are complements of closed sets)."""
    return _apply(t, "interior", s)


def boundary(t: ClosedTopology, s: Iterable) -> frozenset:
    return _apply(t, "boundary", s)


def pneg(t: ClosedTopology, s: Iterable) -> frozenset:
    """Paraconsistent negation: closure of the complement."""
    return _apply(t, "pneg", s)


def ineg(t: ClosedTopology, s: Iterable) -> frozenset:
    """Intuitionistic negation: interior of the complement."""
    return _apply(t, "ineg", s)


def _require_closed(t: ClosedTopology, s: frozenset, role: str) -> None:
    if s not in t.closed:
        raise ValueError(f"{role} {sorted(s)} is not closed in this topology")


def subtraction(t: ClosedTopology, a: Iterable, b: Iterable) -> frozenset:
    """Co-Heyting subtraction: the smallest closed x with a <= x | b."""
    a, b = frozenset(a), frozenset(b)
    _require_closed(t, a, "minuend")
    _require_closed(t, b, "subtrahend")
    return _apply(t, "subtraction", a, b)


def exponent(t: ClosedTopology, c1: Iterable, c2: Iterable) -> frozenset:
    """Exponent object of the closed-set category: Clo(complement(c1) & c2) = c2 - c1."""
    c1, c2 = frozenset(c1), frozenset(c2)
    _require_closed(t, c1, "base")
    _require_closed(t, c2, "exponent")
    return _apply(t, "subtraction", c2, c1)


def product(ta: ClosedTopology, tb: ClosedTopology) -> ClosedTopology:
    """Product topology: closed sets are all unions of closed rectangles,
    so the hull of a pair is the rectangle of its coordinates' hulls; the
    pair (ta.points[i], tb.points[j]) is bit i * |B| + j."""
    nb = len(tb.points)
    hulls = [sum(hb << i * nb for i in range(len(ta.points)) if ha >> i & 1)
             for ha, hb in iproduct(ta.hulls, tb.hulls)]
    return _from_hulls(list(iproduct(ta.points, tb.points)), _closure_table(hulls))


def enumerate_topologies(carrier: Iterable) -> Iterator[ClosedTopology]:
    """All closed-set topologies on up to 4 points, one per transitive hull
    table, in ascending order of the bit set of their closed masks."""
    points = sorted(carrier)
    if len(points) > 4:
        raise ValueError("carrier too large for exhaustive topology enumeration")
    for _, table in _hull_tables(len(points)):
        yield _from_hulls(points, table)
