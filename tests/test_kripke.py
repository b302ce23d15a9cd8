import random

import pytest

from bkw import formula as fm
from bkw import hyperset as hs
from bkw import kripke as kr
from bkw.harness import enumerate_kripke, fixture_ninestate, two_cycle
from conftest import kripke_truth, random_kripke, random_relational_formula

TWO_CYCLE = two_cycle()
NO_EDGES = kr.KripkeModel(states="xy", rel=[], ua=["x"], ub=["y"])
SINGLE = kr.KripkeModel(states=["x"], rel=[], ua=["x"], ub=[])


def test_model_validation():
    with pytest.raises(ValueError):
        kr.KripkeModel(states="xy", rel=[], ua=["x"], ub=["x", "y"])
    with pytest.raises(ValueError):
        kr.KripkeModel(states="xy", rel=[], ua=["x"], ub=[])
    with pytest.raises(ValueError):
        kr.KripkeModel(states="xy", rel=[("x", "z")], ua=["x"], ub=["y"])
    # strict mode forbids same-type edges; non-strict mode allows them
    with pytest.raises(ValueError):
        kr.KripkeModel(states="xy", rel=[("x", "x")], ua=["x", "y"], ub=[])
    m = kr.KripkeModel(states="xy", rel=[("x", "x")], ua=["x", "y"], ub=[],
                       strict=False)
    assert m.successors("x") == frozenset(["x"])


def test_extension_examples():
    assert kr.extension(TWO_CYCLE, fm.parse("Hab Ub")) == frozenset(["x"])
    assert kr.extension(TWO_CYCLE, fm.parse("Hba Ua")) == frozenset(["y"])
    assert kr.extension(TWO_CYCLE, fm.parse("true")) == TWO_CYCLE.states


def test_extension_rejects_topological_connectives():
    for text in ("~p", "Ba p", "Xa p", "Ea p", "Dt"):
        with pytest.raises(fm.LanguageError):
            kr.extension(TWO_CYCLE, fm.parse(text))
    with pytest.raises(fm.LanguageError):
        kr.extension(TWO_CYCLE, fm.parse("D+"))


def test_diagonal():
    assert kr.diagonal_D(TWO_CYCLE) == frozenset()
    assert kr.diagonal_D(NO_EDGES) == NO_EDGES.states
    m = kr.KripkeModel(states="xy", rel=[("x", "y")], ua=["x"], ub=["y"])
    assert kr.diagonal_D(m) == frozenset(["x", "y"])


def test_satisfiable_valid():
    assert kr.is_satisfiable(TWO_CYCLE, fm.parse("Hab Ub"))
    assert not kr.is_satisfiable(TWO_CYCLE, fm.parse("false"))
    assert kr.is_valid(TWO_CYCLE, fm.parse("true"))


def test_holes_when_assumption_unwitnessed():
    report = kr.find_holes(NO_EDGES)
    assert report.slot("hole at Ua").is_hole
    assert report.any_hole
    single = kr.find_holes(SINGLE)
    assert single.slot("hole at Ua").is_hole


def test_two_cycle_is_hole_free():
    # recorded finding: every slot of the scan is closed on this model
    for heart in kr.HEART_SEMANTICS:
        report = kr.find_holes(TWO_CYCLE, heart)
        assert not report.any_hole
        assert report.slot("hole at Ua").witness_ba == ("y",)


def test_scan_reports_each_slot_formula_as_printed():
    # the slot texts are printed once per language, in the scan's order
    for diagonal, report in ((fm.Dclass(), kr.find_holes(TWO_CYCLE)),
                             (fm.Dplus(), hs.nwf_find_holes(fixture_ninestate()))):
        slots = kr.hole_slots(diagonal)
        assert [s.formula for s in report.slots] == [fm.to_text(phi) for _, phi, _ in slots]
        assert [s.label for s in report.slots] == [label for label, _, _ in slots]


def test_lemma_record_two_cycle():
    # recorded finding: the chained-belief implication fails at x under
    # both assumption semantics, while the negative sentence stays valid
    for heart in kr.HEART_SEMANTICS:
        record = kr.check_lemma_1(TWO_CYCLE, heart)
        assert record.premise_holds
        assert not record.part1_valid
        assert record.part1_counterwitnesses == ("x",)
        assert record.part2_valid


def test_lemma_record_no_edges():
    # successor-less states believe everything vacuously, so the negative
    # sentence fails at x even though nothing is assumed anywhere
    record = kr.check_lemma_1(NO_EDGES)
    assert not record.premise_holds
    assert not record.part2_valid
    assert record.part2_counterwitnesses == ("x",)


def test_lemma_record_empty_opposite_type():
    record = kr.check_lemma_1(SINGLE)
    assert record.premise_holds  # assumption of Ub holds vacuously
    assert record.part1_valid


def test_heart_implies_box():
    rng = random.Random(7)
    for _ in range(100):
        m = random_kripke(rng, 4)
        body = random_relational_formula(rng, 2, fm.Dclass())
        for d in ("ab", "ba"):
            for heart in kr.HEART_SEMANTICS:
                h = kr.extension(m, fm.Heart(d, body), heart)
                b = kr.extension(m, fm.Box(d, body), heart)
                assert h <= b


def test_boolean_laws():
    rng = random.Random(8)
    for _ in range(60):
        m = random_kripke(rng, 4, strict=False)
        f = random_relational_formula(rng, 2, fm.Dclass())
        g = random_relational_formula(rng, 2, fm.Dclass())
        assert kr.extension(m, fm.Not(f)) == m.states - kr.extension(m, f)
        assert kr.extension(m, fm.And(f, g)) == (kr.extension(m, f)
                                                 & kr.extension(m, g))
        assert kr.extension(m, fm.Or(f, g)) == (kr.extension(m, f)
                                                | kr.extension(m, g))


def test_strict_mode_type_extensions():
    for m in enumerate_kripke(3):
        assert kr.extension(m, fm.parse("[ab] Ub")) == m.ua
        assert kr.extension(m, fm.parse("[ba] Ua")) == m.ub
        box_ua = kr.extension(m, fm.parse("[ab] Ua"))
        if all(m.successors(x) for x in m.ua):
            assert box_ua == frozenset()
        else:
            assert box_ua == frozenset(x for x in m.ua if not m.successors(x))


def test_extension_matches_state_oracle():
    rng = random.Random(9)
    cases = []
    for m in enumerate_kripke(2, strict=True):
        cases.append(m)
    for _ in range(40):
        cases.append(random_kripke(rng, 3, strict=False))
    for m in cases:
        for _ in range(12):
            f = random_relational_formula(rng, 3, fm.Dclass())
            for heart in kr.HEART_SEMANTICS:
                expected = frozenset(x for x in m.states
                                     if kripke_truth(m, f, x, heart))
                assert kr.extension(m, f, heart) == expected


def test_equality_and_hash_respect_strictness():
    strict = kr.KripkeModel(states="xy", rel=[("x", "y")], ua=["x"], ub=["y"])
    loose = kr.KripkeModel(states="xy", rel=[("x", "y")], ua=["x"], ub=["y"],
                           strict=False)
    assert strict != loose
    assert len({strict, loose}) == 2
    assert strict == kr.KripkeModel(states="xy", rel=[("x", "y")], ua=["x"], ub=["y"])
