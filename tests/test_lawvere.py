from itertools import product

import pytest

from bkw import lawvere as lv


def selfmap(rows, codomain=None):
    n = len(rows)
    values = codomain if codomain is not None else sorted({v for r in rows for v in r})
    return lv.FiniteSelfMap(domain=tuple(range(n)), codomain=tuple(values),
                            rows=tuple(tuple(r) for r in rows))


def test_single_valued_codomain_is_always_wps():
    s = selfmap([[0, 0], [0, 0]], codomain=[0])
    assert lv.is_weakly_point_surjective(s).is_wps


def test_constant_rows_miss_the_identity():
    s = selfmap([[0, 0], [1, 1]], codomain=[0, 1])
    result = lv.is_weakly_point_surjective(s)
    assert not result.is_wps
    assert result.unrepresented == (0, 1)  # the identity map on {0, 1}


def test_counting_bound_forces_failure():
    # |Y|^|A| = 4 > 2 = |A|: no g over a 2-element domain can be wps
    for rows in product(product((0, 1), repeat=2), repeat=2):
        s = selfmap(list(rows), codomain=[0, 1])
        assert not lv.is_weakly_point_surjective(s).is_wps


def test_fixed_point_property_trivial_codomain():
    s = selfmap([[0]], codomain=[0])
    report = lv.check_fixed_point_property(s)
    assert report.applicable
    assert not report.violations
    assert report.cases[0].fixed_point == 0


def test_fixed_point_not_applicable_without_wps():
    s = selfmap([[0, 0], [1, 1]], codomain=[0, 1])
    assert not lv.check_fixed_point_property(s).applicable


def test_diagonal_identity_on_every_witness_found():
    for size_a in (1, 2, 3):
        result = lv.search_wps(size_a, 1)
        assert result.witness is not None
        report = lv.check_fixed_point_property(result.witness)
        assert report.applicable and not report.violations
        for case in report.cases:
            f = dict(zip(result.witness.codomain, case.endomap))
            assert f[case.fixed_point] == case.fixed_point


def test_search_exhausts_on_two_valued_codomains():
    for size_a, size_y in product((1, 2, 3), (2, 3)):
        result = lv.search_wps(size_a, size_y)
        assert result.exhausted
        assert result.candidates_checked == (size_y ** size_a) ** size_a


def _search_by_selfmaps(size_a, size_y):
    """The first weakly point-surjective FiniteSelfMap in lexicographic
    order of its rows, and the candidates tried up to it."""
    domain, codomain = tuple(range(size_a)), tuple(range(size_y))
    checked = 0
    for rows in product(product(codomain, repeat=size_a), repeat=size_a):
        checked += 1
        s = lv.FiniteSelfMap(domain=domain, codomain=codomain, rows=rows)
        if lv.is_weakly_point_surjective(s).is_wps:
            return s, checked
    return None, checked


@pytest.mark.parametrize("size_a, size_y", list(product((1, 2, 3), repeat=2)))
def test_search_matches_the_selfmap_loop(size_a, size_y):
    result = lv.search_wps(size_a, size_y)
    assert (result.witness, result.candidates_checked) == _search_by_selfmaps(size_a, size_y)


def _first_cover_by_candidates(size_a, size_y):
    """The first tuple of row indices that covers every map, tried one
    candidate at a time, and the candidates tried up to it."""
    maps = size_y ** size_a
    checked = 0
    for rows in product(range(maps), repeat=size_a):
        checked += 1
        if len(set(rows)) == maps:
            return rows, checked
    return None, checked


@pytest.mark.parametrize("size_a, size_y", [(4, 2), (2, 4), (3, 4), (4, 1)])
def test_prefix_decision_matches_the_candidate_loop_past_the_guard(size_a, size_y):
    # the counting bound: a cover at |Y| = 1 only, and then at once
    assert lv._first_cover(size_a, size_y) == _first_cover_by_candidates(size_a, size_y)


def test_search_guard():
    with pytest.raises(ValueError):
        lv.search_wps(4, 1)
    with pytest.raises(ValueError):
        lv.search_wps(1, 0)


def test_selfmap_validation():
    with pytest.raises(ValueError):
        lv.FiniteSelfMap(domain=(0, 1), codomain=(0,), rows=((0, 0),))
    with pytest.raises(ValueError):
        lv.FiniteSelfMap(domain=(0,), codomain=(0,), rows=((1,),))
    s = selfmap([[0, 1], [1, 0]], codomain=[0, 1])
    assert s.apply(0, 1) == 1


@pytest.mark.parametrize("domain, codomain, message", [
    ((0, 1), (0, 0), "codomain element 0 is repeated"),
    ((0, 0), (0, 1), "domain element 0 is repeated"),
    ((0, 1, 1, 0), (0, 1), "domain element 1 is repeated"),
    (("x", "y"), ("b", "a", "c", "a", "b"), "codomain element 'a' is repeated"),
])
def test_selfmap_rejects_repeated_elements(domain, codomain, message):
    rows = tuple((codomain[0],) * len(domain) for _ in domain)
    with pytest.raises(ValueError, match=message):
        lv.FiniteSelfMap(domain=domain, codomain=codomain, rows=rows)
