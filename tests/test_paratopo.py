import functools
import random
from itertools import product

import pytest

from bkw import formula as fm
from bkw import paratopo as pt
from bkw import topology as tp
from bkw.harness import fixture_bk_topo
from conftest import classical_topo_ext, random_paratopo, random_topo_formula, topo_truth

FIXTURE = fixture_bk_topo()


def discrete_model(a, b, t_a, t_b, val=None):
    return pt.ParaTopoModel(tp.discrete(a), tp.discrete(b), t_a, t_b, val)


def random_discrete_model(rng):
    na, nb = rng.randint(1, 3), rng.randint(1, 3)
    a = [f"a{i}" for i in range(na)]
    b = [f"b{i}" for i in range(nb)]
    t_a = [(x, y) for x in a for y in b if rng.random() < 0.5]
    t_b = [(y, x) for y in b for x in a if rng.random() < 0.5]
    val = {"p": [s for s in a + b if rng.random() < 0.5],
           "q": [s for s in a + b if rng.random() < 0.5]}
    return discrete_model(a, b, t_a, t_b, val)


def test_validation():
    with pytest.raises(ValueError):  # image not closed
        pt.ParaTopoModel(
            tp.ClosedTopology.make("xy", [[], ["x", "y"]]),
            tp.ClosedTopology.make("uv", [[], ["u", "v"]]),
            t_a=[("x", "u")], t_b=[])
    with pytest.raises(ValueError):  # overlapping carriers
        pt.ParaTopoModel(tp.discrete("xy"), tp.discrete("yz"), [], [])
    with pytest.raises(ValueError):  # relation outside the carriers
        discrete_model("x", "u", [("u", "x")], [])
    with pytest.raises(ValueError, match="not a topology: missing empty set"):
        pt.ParaTopoModel(  # neither {} nor the union {x} | {y} is closed
            tp.ClosedTopology.make("xyz", [["x"], ["y"], ["x", "y", "z"]]),
            tp.discrete("u"), t_a=[], t_b=[("u", "x")])


def test_evaluate_assumption_on_fixture():
    ext = pt.evaluate(FIXTURE, fm.parse("Xb Dt"))
    assert ext == frozenset(["b1"])
    assert pt.evaluate(FIXTURE, fm.parse("true")) == FIXTURE.universe


def test_empty_image_believes_everything_but_sees_nothing():
    m = discrete_model("x", "u", [], [("u", "x")])
    assert pt.evaluate(m, fm.parse("Ba false")) == frozenset(["x"])
    assert pt.evaluate(m, fm.parse("Ba p")) == frozenset(["x"])
    assert pt.evaluate(m, fm.parse("Ea true")) == frozenset()
    # the empty image assumes exactly the empty extension
    assert pt.evaluate(m, fm.parse("Xa false")) == frozenset(["x"])


def test_language_separation():
    for text in ("[ab] p", "Hba p", "<ab> p", "D", "D+"):
        with pytest.raises(fm.LanguageError):
            pt.evaluate(FIXTURE, fm.parse(text))


def test_diagonal_fixture():
    assert pt.diagonal(FIXTURE) == frozenset(["a1"])


def test_diagonal_empty_relation_is_everything():
    m = discrete_model("xy", "uv", [], [("u", "x")])
    assert pt.diagonal(m) == m.a


def test_diagonal_discrete_matches_classical():
    rng = random.Random(31)
    for _ in range(60):
        m = random_discrete_model(rng)
        classical = frozenset(
            x for x in m.a
            if all((y, x) not in m.t_b for y in m.image_a[x]))
        assert pt.diagonal(m) == classical


def test_bk_witnesses():
    assert pt.bk_witnesses(FIXTURE) == frozenset(["a1"])
    assert pt.bk_witnesses(pt.with_discrete_topologies(FIXTURE)) == frozenset()
    empty = discrete_model("xy", "uv", [], [])
    assert pt.bk_witnesses(empty) == frozenset()


def test_assumption_implies_belief():
    rng = random.Random(32)
    for _ in range(40):
        m = random_discrete_model(rng)
        body = random_topo_formula(rng, 2)
        for agent in "ab":
            assert (pt.evaluate(m, fm.TAsm(agent, body))
                    <= pt.evaluate(m, fm.TBel(agent, body)))


def test_discrete_evaluator_matches_classical_oracle():
    rng = random.Random(33)
    for _ in range(60):
        m = random_discrete_model(rng)
        for _ in range(8):
            f = random_topo_formula(rng, 3)
            assert pt.evaluate(m, f) == classical_topo_ext(m, f)


def test_evaluator_matches_paraconsistent_oracle():
    rng = random.Random(34)
    non_discrete = 0
    for _ in range(60):
        m = random_paratopo(rng)
        non_discrete += m.tau_a != tp.discrete(m.a) or m.tau_b != tp.discrete(m.b)
        for _ in range(8):
            f = random_topo_formula(rng, 3)
            assert pt.evaluate(m, f) == frozenset(
                x for x in m.universe if topo_truth(m, f, x))
        assert pt.diagonal(m) == frozenset(
            x for x in m.a if topo_truth(m, fm.Dtopo(), x))
    assert non_discrete >= 40


def test_horizontal_vertical_closedness():
    a_pts = sorted(FIXTURE.a)
    b_pts = sorted(FIXTURE.b)
    rect = frozenset((x, y) for x in ["a1"] for y in b_pts)  # {a1} x B
    assert pt.horizontally_closed(FIXTURE, rect)
    assert pt.vertically_closed(FIXTURE, rect)
    assert pt.horizontally_closed(FIXTURE, frozenset())
    assert pt.vertically_closed(FIXTURE, frozenset())
    # {a2} is not closed in tau_A, so a singleton column through a2 fails
    assert not pt.horizontally_closed(FIXTURE, frozenset([("a2", "b1")]))
    assert pt.horizontally_closed(FIXTURE, frozenset([("a1", "b1")]))
    # a checked coordinate outside its carrier has no closed slice
    assert not pt.horizontally_closed(FIXTURE, frozenset([("b1", "b1")]))
    assert not pt.vertically_closed(FIXTURE, frozenset([("a1", "a1")]))
    # both predicates against their definition: some closed slice through
    # each point of s lies in s
    rng = random.Random(35)
    for _ in range(20):
        m = random_paratopo(rng)
        cells = sorted((x, y) for x in m.a for y in m.b)
        for mask in range(1 << len(cells)):
            s = frozenset(c for i, c in enumerate(cells) if mask >> i & 1)
            assert pt.horizontally_closed(m, s) == all(
                any(x in c and all((x2, y) in s for x2 in c) for c in m.tau_a.closed)
                for x, y in s)
            assert pt.vertically_closed(m, s) == all(
                any(y in c and all((x, y2) in s for y2 in c) for c in m.tau_b.closed)
                for x, y in s)


def test_rectangles_of_closed_sets_are_closed_both_ways():
    for c in FIXTURE.tau_a.closed:
        for d in FIXTURE.tau_b.closed:
            rect = frozenset((x, y) for x in c for y in d)
            if rect:
                assert pt.horizontally_closed(FIXTURE, rect)
                assert pt.vertically_closed(FIXTURE, rect)


def test_assumption_completeness():
    tiny = discrete_model("x", "u", [("x", "u")], [("u", "x")])
    assert pt.is_assumption_complete(tiny).complete
    report = pt.is_assumption_complete(FIXTURE)
    assert not report.complete
    assert ("b2",) in report.missing_subsets_of_b


def test_assumption_completeness_one_sided():
    # tA hits every nonempty subset of B, so only the A side is missing
    a = ["a0", "a1", "a2"]
    b = ["b0", "b1"]
    t_a = [("a0", "b0"), ("a1", "b1"), ("a2", "b0"), ("a2", "b1")]
    t_b = [("b0", "a0")]
    report = pt.is_assumption_complete(discrete_model(a, b, t_a, t_b))
    assert report.missing_subsets_of_b == ()
    assert not report.complete and report.missing_subsets_of_a


def test_assumption_completeness_pigeonhole():
    # 7 nonempty subsets of a 3-point space cannot be covered by 6 states
    a = [f"a{i}" for i in range(6)]
    b = ["b0", "b1", "b2"]
    t_a = [(x, y) for i, x in enumerate(a) for j, y in enumerate(b)
           if (i + 1) >> j & 1]  # distinct nonempty images
    t_b = [(y, a[0]) for y in b]
    m = discrete_model(a, b, t_a, t_b)
    report = pt.is_assumption_complete(m)
    assert len({m.image_a[x] for x in m.a}) == 6
    assert not report.complete
    assert len(report.missing_subsets_of_b) == 1


def test_weak_assumption_completeness():
    both_discrete = discrete_model("xy", "uv", [], [])
    assert pt.is_weak_assumption_complete(both_discrete).holds
    report = pt.is_weak_assumption_complete(FIXTURE)
    assert not report.holds
    assert report.failing_set is not None
    # a failing set really is not closed in one of the two directions
    s = frozenset(report.failing_set)
    assert not (pt.horizontally_closed(FIXTURE, s)
                and pt.vertically_closed(FIXTURE, s))
    point = discrete_model("x", "u", [], [])
    assert pt.is_weak_assumption_complete(point).holds
    # 16 cells and 2^16 product subsets, answered by one pass over the cells
    big = discrete_model("abcd", "uvwz", [], [])
    assert pt.is_weak_assumption_complete(big) == pt.WeakAssumptionReport(
        holds=True, failing_set=None, subsets_checked=2 ** 16)
    # b's hull is {a, b}: the cells of a pass, the first failing set is {(b, u)}
    b_open = pt.ParaTopoModel(tp._from_hulls("abcd", [1, 0b11, 4, 8]), tp.discrete("uvwz"),
                              [], [])
    report = pt.is_weak_assumption_complete(b_open)
    assert report == pt.WeakAssumptionReport(holds=False, failing_set=(("b", "u"),),
                                             subsets_checked=2 ** 4 + 1)
    assert report == _weak_by_subsets(b_open)


def _weak_by_subsets(m):
    """Every product subset in mask order, cell i being bit i of the
    sorted cells: the first not both horizontally and vertically closed,
    and the subsets tried up to it."""
    cells = sorted(product(sorted(m.a), sorted(m.b)))
    for mask in range(1 << len(cells)):
        s = frozenset(c for i, c in enumerate(cells) if mask >> i & 1)
        if not (pt.horizontally_closed(m, s) and pt.vertically_closed(m, s)):
            return pt.WeakAssumptionReport(holds=False, failing_set=tuple(sorted(s)),
                                           subsets_checked=mask + 1)
    return pt.WeakAssumptionReport(holds=True, failing_set=None,
                                   subsets_checked=1 << len(cells))


def test_weak_assumption_completeness_matches_the_subset_loop():
    def spaces(side):
        return [t for n in range(4)
                for t in tp.enumerate_topologies(f"{side}{i}" for i in range(n))]
    for tau_a, tau_b in product(spaces("a"), spaces("b")):
        m = pt.ParaTopoModel(tau_a, tau_b, [], [])
        assert pt.is_weak_assumption_complete(m) == _weak_by_subsets(m)


@functools.cache
def _tables_by_lead(n):
    """The hull tables on n points grouped by how many leading points are
    closed, so that a draw of a group, then a table, puts the first
    failing cell anywhere in a product."""
    groups = {}
    for hulls in tp._hull_tables(n):
        lead = next((i for i, h in enumerate(hulls) if h != 1 << i), n)
        groups.setdefault(lead, []).append(hulls)
    return list(groups.values())


@pytest.mark.parametrize("na, nb", [(3, 4), (4, 3), (2, 5), (5, 2), (2, 6), (6, 2),
                                    (1, 6), (6, 1)])
def test_weak_assumption_completeness_matches_the_subset_loop_up_to_12_cells(na, nb):
    a, b = [f"a{i}" for i in range(na)], [f"b{i}" for i in range(nb)]
    rng = random.Random(na * 10 + nb)
    for _ in range(12):
        tau_a = tp._from_hulls(a, rng.choice(rng.choice(_tables_by_lead(na))))
        tau_b = tp._from_hulls(b, rng.choice(rng.choice(_tables_by_lead(nb))))
        m = pt.ParaTopoModel(tau_a, tau_b, [], [])
        assert pt.is_weak_assumption_complete(m) == _weak_by_subsets(m)
