from functools import partial, reduce
from itertools import chain, combinations, product
from operator import and_, or_

import numpy as np
import pytest

from bkw import topology as tp
from bkw.harness import _closure_table

SIERPINSKI = tp.ClosedTopology.make("ab", [[], ["a"], ["a", "b"]])


def powerset(points):
    points = sorted(points)
    return [frozenset(c) for c in chain.from_iterable(
        combinations(points, n) for n in range(len(points) + 1))]


def all_topologies_up_to(n):
    for size in range(n + 1):
        yield from tp.enumerate_topologies([f"x{i}" for i in range(size)])


def test_validate():
    assert tp.validate(SIERPINSKI) == []
    bad = tp.ClosedTopology.make("ab", [["a"]])
    problems = tp.validate(bad)
    assert "missing empty set" in problems
    assert "missing carrier" in problems
    assert tp.validate(tp.discrete("ab")) == []
    # a set that leaves the carrier is reported, also by the hull table's builder
    outside = tp.ClosedTopology.make("ab", [[], ["a", "z"], ["a", "b"]])
    assert tp.validate(outside)[0] == "set ['a', 'z'] is not a subset of the carrier"


def test_validate_catches_missing_union():
    bad = tp.ClosedTopology.make("abc", [[], ["a"], ["b"], ["a", "b", "c"]])
    assert any("union" in p for p in tp.validate(bad))


def test_closure_interior_boundary():
    s = frozenset("a")
    assert tp.closure(SIERPINSKI, s) == frozenset("a")
    assert tp.interior(SIERPINSKI, s) == frozenset()
    assert tp.boundary(SIERPINSKI, s) == frozenset("a")
    carrier = SIERPINSKI.carrier
    assert tp.closure(SIERPINSKI, carrier) == carrier
    assert tp.boundary(SIERPINSKI, carrier) == carrier - tp.interior(SIERPINSKI, carrier)
    for op in (tp.closure, tp.interior, tp.boundary):
        assert op(SIERPINSKI, frozenset()) == frozenset()
    # points outside the carrier are named, not silently closed over or dropped
    for op in (tp.closure, tp.interior, tp.boundary, tp.pneg, tp.ineg):
        for s in (frozenset("az"), frozenset("z")):
            with pytest.raises(ValueError, match=r"^points \['z'\] are outside the carrier$"):
                op(SIERPINSKI, s)


def test_closure_is_smallest_closed_superset():
    for t in all_topologies_up_to(4):
        for s in powerset(t.carrier):
            c = tp.closure(t, s)
            assert c in t.closed and s <= c
            for other in t.closed:
                if s <= other:
                    assert c <= other


def test_pneg_examples():
    assert tp.pneg(SIERPINSKI, frozenset("a")) == frozenset("ab")
    assert tp.pneg(SIERPINSKI, SIERPINSKI.carrier) == frozenset()


def test_pneg_join_law_exhaustive():
    for t in all_topologies_up_to(3):
        for s in t.closed:
            assert s | tp.pneg(t, s) == t.carrier


def test_pneg_minimality_for_closed_sets():
    # smallest closed set whose join with s covers the carrier
    for t in all_topologies_up_to(3):
        for s in t.closed:
            neg = tp.pneg(t, s)
            candidates = [x for x in t.closed if s | x == t.carrier]
            assert neg in candidates
            assert all(not (x < neg) for x in candidates)


def test_ineg():
    assert tp.ineg(tp.discrete("ab"), frozenset("a")) == frozenset("b")
    assert tp.ineg(SIERPINSKI, frozenset("ab")) == frozenset()
    # largest open disjoint from s, by brute force
    for t in all_topologies_up_to(3):
        opens = [t.carrier - c for c in t.closed]
        for s in powerset(t.carrier):
            neg = tp.ineg(t, s)
            candidates = [o for o in opens if not (o & s)]
            assert neg in candidates
            assert all(not (neg < o) for o in candidates)


def test_negations_collapse_on_discrete():
    t = tp.discrete("abc")
    for s in powerset(t.carrier):
        assert tp.pneg(t, s) == t.carrier - s
        assert tp.ineg(t, s) == t.carrier - s


def test_subtraction():
    for t in all_topologies_up_to(3):
        for a in t.closed:
            assert tp.subtraction(t, a, frozenset()) == a
            assert tp.subtraction(t, a, a) == frozenset()
    with pytest.raises(ValueError):
        tp.subtraction(SIERPINSKI, frozenset("b"), frozenset())


def test_subtraction_adjunction_exhaustive():
    for t in all_topologies_up_to(3):
        for a in t.closed:
            for b in t.closed:
                sub = tp.subtraction(t, a, b)
                for x in t.closed:
                    assert (sub <= x) == (a <= x | b)


def test_boundary_overlap_law():
    # a closed set meets its paraconsistent negation exactly on its boundary
    for size in range(5):
        for t in tp.enumerate_topologies([f"x{i}" for i in range(size)]):
            for s in t.closed:
                assert s & tp.pneg(t, s) == tp.boundary(t, s)


def _least(masks):
    """The mask below every mask of a nonempty list, checked to be one of them."""
    least = reduce(and_, masks)
    assert least in masks
    return least


def _largest(masks):
    """The mask above every mask of a nonempty list, checked to be one of them."""
    largest = reduce(or_, masks)
    assert largest in masks
    return largest


def _transitive(hulls):
    """Whether each hull holds the hulls of its bits: a preorder's table."""
    return all(hulls[j] | h == h for h in hulls for j in range(len(hulls)) if h >> j & 1)


def _filtered_hull_tables(n):
    """The transitive hull tables on n bits found by filtering every
    candidate table (bit i in hulls[i]), in ascending order of the bit set
    of their closed masks, the fixed points of hull_union."""
    choices = [[h for h in range(1 << n) if h >> i & 1] for i in range(n)]
    tables = [hulls for hulls in product(*choices) if _transitive(hulls)]
    tables.sort(key=lambda hulls: sum(1 << m for m in range(1 << n)
                                      if tp.hull_union(hulls, m) == m))
    return tables


def test_hull_tables_grow_the_filtered_preorders():
    # the same tables in the same order as the filter up to 4 points
    for n in range(5):
        assert tp._hull_tables(n) == _filtered_hull_tables(n)
    # 6,942 preorders on 5 points and 209,527 on 6 (OEIS A000798), where
    # the filter would read 2^20 and 2^30 candidates
    hulls = tp._hull_tables(5)
    assert len(set(hulls)) == len(hulls) == 6942
    assert all(_transitive(h) for h in hulls)
    hulls = tp._hull_tables(6)
    assert len(set(hulls)) == len(hulls) == 209527


def test_mask_lattice_matches_brute_force_definitions():
    # both closure forms, a lookup in the stacked closure tables and the
    # hull union, on every topology of up to 4 points, against the
    # definitions over t.closed
    for n in range(5):
        full = (1 << n) - 1
        stack = tp._hull_tables(n)
        for hulls, table in zip(stack, _closure_table(stack), strict=True):
            t = tp._from_hulls([f"x{i}" for i in range(n)], hulls)
            assert tp.validate(t) == [] and t.hulls == hulls
            closed = [sum(1 << t.points.index(p) for p in c) for c in t.closed]
            opens = [full & ~c for c in closed]
            for lat in (tp.MaskLattice(table.__getitem__, full),
                        tp.MaskLattice(partial(tp.hull_union, t.hulls), full)):
                for s in range(1 << n):
                    clo = _least([c for c in closed if s & ~c == 0])
                    inner = _largest([o for o in opens if o & ~s == 0])
                    assert lat.close(s) == clo and lat.interior(s) == inner
                    assert lat.boundary(s) == clo & ~inner
                    assert lat.pneg(s) == _least([c for c in closed if s | c == full])
                    assert lat.ineg(s) == _largest([o for o in opens if s & o == 0])
                for a, b in product(closed, repeat=2):
                    assert lat.subtraction(a, b) == _least([x for x in closed
                                                            if a & ~(x | b) == 0])


def test_boundary_of_negation_is_not_always_symmetric():
    s = frozenset("a")
    assert tp.boundary(SIERPINSKI, s) == frozenset("a")
    assert tp.boundary(SIERPINSKI, tp.pneg(SIERPINSKI, s)) == frozenset()


def test_exponent():
    assert tp.exponent(SIERPINSKI, SIERPINSKI.carrier, frozenset("a")) == frozenset()
    assert tp.exponent(SIERPINSKI, frozenset(), SIERPINSKI.carrier) == SIERPINSKI.carrier
    assert tp.exponent(SIERPINSKI, frozenset("a"), frozenset("ab")) == frozenset("ab")
    with pytest.raises(ValueError):
        tp.exponent(SIERPINSKI, frozenset("b"), frozenset("a"))


def test_product():
    d2 = tp.discrete("ab")
    prod = tp.product(d2, d2)
    assert len(prod.carrier) == 4
    assert len(prod.closed) == 16  # discrete x discrete is discrete
    assert tp.validate(prod) == []
    for ta in all_topologies_up_to(2):
        for tb in all_topologies_up_to(2):
            p = tp.product(ta, tb)
            assert tp.validate(p) == []
            assert len(p.carrier) == len(ta.carrier) * len(tb.carrier)
            unions = {frozenset()}
            for c in ta.closed:
                for d in tb.closed:
                    rect = frozenset(product(c, d))
                    unions |= {u | rect for u in unions}
            assert p.closed == unions


def _family_key(t, points):
    """The order of enumerate_topologies: bit m set for each closed mask m."""
    bit = {p: 1 << i for i, p in enumerate(points)}
    return sum(1 << sum(bit[p] for p in c) for c in t.closed)


def test_enumerate_topologies_counts():
    assert sum(1 for _ in tp.enumerate_topologies([])) == 1
    assert sum(1 for _ in tp.enumerate_topologies(["x"])) == 1
    assert sum(1 for _ in tp.enumerate_topologies(["x", "y"])) == 4
    # 29 distinct topologies exist on a labeled 3-point set
    assert sum(1 for _ in tp.enumerate_topologies(["x", "y", "z"])) == 29
    # the same families, in the same order, as filtering every candidate
    # family by the axioms
    for points in ([], ["x"], ["x", "y"], ["x", "y", "z"]):
        full = frozenset(points)
        optional = [s for s in powerset(points) if s not in (frozenset(), full)]
        optional.sort(key=lambda s: sum(1 << points.index(p) for p in s))
        brute = []
        for mask in range(1 << len(optional)):
            family = {frozenset(), full}
            family.update(s for i, s in enumerate(optional) if mask >> i & 1)
            t = tp.ClosedTopology(full, frozenset(family))
            if not tp.validate(t):
                brute.append(t)
        assert list(tp.enumerate_topologies(points)) == brute
    # 355 topologies on 4 labelled points (OEIS A000798), in strictly
    # increasing order
    points = ["w", "x", "y", "z"]
    four = list(tp.enumerate_topologies(points))
    assert len(four) == 355
    assert all(tp.validate(t) == [] for t in four)
    keys = [_family_key(t, points) for t in four]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    # 6,942 on 5 points; the 209,527 on 6 points take about 20 s
    assert sum(1 for _ in tp.enumerate_topologies("abcde")) == 6942
    with pytest.raises(ValueError):
        next(tp.enumerate_topologies("abcdefg"))
