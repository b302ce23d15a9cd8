import random
import time

import pytest

from bkw import formula as fm
from bkw import harness as hn
from bkw import hyperset as hs
from bkw import program as pg
from bkw.harness import (fixture_ninestate, fixture_prop24, fixture_prop25,
                         fixture_quine_pair, fixture_singleton_quine)
from conftest import bisimulation, nwf_truth, random_hyperset, random_relational_formula


def quine(name):
    return [(name, name)]


def test_model_validation():
    with pytest.raises(ValueError):
        hs.HypersetModel(nodes="w", mem=quine("w"), ua=["w"], ub=["w"],
                         urelements=["w"])  # urelement with members
    with pytest.raises(ValueError):
        hs.HypersetModel(nodes="wv", mem=[], ua=["w"], ub=[])  # cover fails
    with pytest.raises(ValueError):
        hs.HypersetModel(nodes="w", mem=[], ua=["w"], ub=["w"],
                         urelements=["w"])  # overlap without the flag
    m = hs.HypersetModel(nodes="w", mem=[], ua=["w"], ub=["w"],
                         urelements=["w"], disjoint_types=False)
    assert m.kind("w") == "urelement"


def test_classify_state():
    m = fixture_quine_pair()
    assert hs.classify_state(m, "w").is_quine
    assert not hs.classify_state(m, "w").is_urelement
    prop25 = fixture_prop25()
    t = hs.classify_state(prop25, "t")
    assert t.is_urelement and not t.is_quine and t.is_transitive
    # w = {v, w}, v = {u}, u not in w: membership fails to be transitive at w
    m2 = hs.HypersetModel(nodes="wvu", mem=[("w", "v"), ("w", "w"), ("v", "u")],
                          ua=["w", "u"], ub=["v"])
    assert not hs.classify_state(m2, "w").is_transitive
    with pytest.raises(ValueError):
        hs.classify_state(m, "nope")


def test_diagonal_examples():
    assert hs.diagonal_Dplus(fixture_prop24()) == frozenset()
    ures = hs.HypersetModel(nodes="ab", mem=[], ua=["a"], ub=["b"],
                            urelements=["a", "b"])
    assert hs.diagonal_Dplus(ures) == ures.nodes
    assert "u" in hs.diagonal_Dplus(fixture_prop25())


def test_assumption_of_truth_and_falsehood_at_quine_states():
    m = fixture_quine_pair()
    assert "w" in hs.nwf_extension(m, fm.parse("Hab q"))
    assert "w" not in hs.nwf_extension(m, fm.parse("Hab p"))
    assert hs.nwf_extension(m, fm.parse("true")) == m.nodes
    assert "w" in hs.nwf_extension(m, fm.parse("Hab false"))
    assert "w" not in hs.nwf_extension(m, fm.parse("Hab true"))


def test_language_separation():
    m = fixture_quine_pair()
    for text in ("~p", "Ba p", "Xb p", "Eb p", "Dt"):
        with pytest.raises(fm.LanguageError):
            hs.nwf_extension(m, fm.parse(text))
    with pytest.raises(fm.LanguageError):
        hs.nwf_extension(m, fm.parse("D"))


def test_extension_matches_state_oracle():
    rng = random.Random(101)
    for _ in range(80):
        m = random_hyperset(rng, 4, allow_overlap=rng.random() < 0.3)
        for _ in range(10):
            f = random_relational_formula(rng, 3, fm.Dplus())
            expected = frozenset(w for w in m.nodes if nwf_truth(m, f, w))
            assert hs.nwf_extension(m, f) == expected


def test_heart_implies_box():
    rng = random.Random(102)
    for _ in range(80):
        m = random_hyperset(rng, 4)
        body = random_relational_formula(rng, 2, fm.Dplus())
        for d in ("ab", "ba"):
            assert (hs.nwf_extension(m, fm.Heart(d, body))
                    <= hs.nwf_extension(m, fm.Box(d, body)))


# ---------------------------------------------------------------------------
# canonical forms


def test_canonicalize_merges_equal_quines():
    m = hs.HypersetModel(nodes="ab", mem=[("a", "a"), ("b", "b")],
                         ua=["a", "b"], ub=[], disjoint_types=False)
    canon, rep = hs.canonicalize(m)
    assert len(canon.nodes) == 1
    assert rep["a"] == rep["b"]
    only = next(iter(canon.nodes))
    assert canon.members(only) == frozenset([only])


def test_canonicalize_keeps_distinct_urelements():
    m = hs.HypersetModel(nodes="ab", mem=[], ua=["a", "b"], ub=[],
                         urelements=["a", "b"], disjoint_types=False)
    canon, rep = hs.canonicalize(m)
    assert len(canon.nodes) == 2
    assert rep["a"] != rep["b"]


def test_canonicalize_idempotent_on_random_graphs():
    rng = random.Random(103)
    for _ in range(500):
        m = random_hyperset(rng, 8, allow_overlap=rng.random() < 0.3)
        once, _ = hs.canonicalize(m)
        twice, rep = hs.canonicalize(once)
        assert twice == once
        assert all(rep[w] == w for w in once.nodes)


def test_quotient_map_matches_bisimilarity():
    rng = random.Random(104)
    for _ in range(120):
        m = random_hyperset(rng, 5)
        canon, rep = hs.canonicalize(m)
        for a in m.nodes:
            for b in m.nodes:
                assert (rep[a] == rep[b]) == hs.bisimilar(m, a, m, b)


def test_bisimilar_examples():
    pair = hs.HypersetModel(nodes="ab", mem=[("a", "b"), ("b", "a")],
                            ua=["a", "b"], ub=[], disjoint_types=False)
    q = hs.HypersetModel(nodes="q", mem=[("q", "q")], ua=["q"], ub=[],
                         disjoint_types=False)
    assert hs.bisimilar(pair, "a", q, "q")
    empty_set = hs.HypersetModel(nodes="e", mem=[], ua=["e"], ub=[],
                                 disjoint_types=False)
    urelement = hs.HypersetModel(nodes="u", mem=[], ua=["u"], ub=[],
                                 urelements=["u"], disjoint_types=False)
    assert not hs.bisimilar(empty_set, "e", urelement, "u")
    assert hs.bisimilar(pair, "a", pair, "a")


def test_extension_invariant_under_canonicalize():
    # diagonal-free modal formulas on disjoint-type models
    rng = random.Random(105)
    for _ in range(100):
        m = random_hyperset(rng, 5)
        canon, rep = hs.canonicalize(m)
        for _ in range(6):
            f = random_relational_formula(rng, 3)
            ext = hs.nwf_extension(m, f)
            ext_c = hs.nwf_extension(canon, f)
            for w in m.nodes:
                assert (w in ext) == (rep[w] in ext_c)


def test_diagonal_atom_is_not_bisimulation_invariant():
    # backward membership separates bisimilar nodes: n0 and n3 have the
    # same members and labels, but only n0 is contained in n1
    m = hs.HypersetModel(
        nodes=["n0", "n1", "n3"], mem=[("n0", "n1"), ("n1", "n0"), ("n3", "n1")],
        ua=["n0", "n1", "n3"], ub=[])
    assert hs.bisimilar(m, "n0", m, "n3")
    diag = hs.diagonal_Dplus(m)
    assert "n3" in diag and "n0" not in diag


def _renamed(m, prefix):
    """m with every node renamed, so its urelements match m's only by label."""
    name = lambda nodes: [prefix + w for w in nodes]
    return hs.HypersetModel(name(m.nodes), [(prefix + w, prefix + v) for w, v in m.mem],
                            name(m.ua), name(m.ub), name(m.urelements),
                            {atom: name(sts) for atom, sts in m.val.items()},
                            m.disjoint_types)


def test_canonicalize_and_bisimilar_match_the_pair_oracle():
    rng = random.Random(106)
    for _ in range(150):
        m = random_hyperset(rng, 6, allow_overlap=rng.random() < 0.3)
        _, rep = hs.canonicalize(m)
        same = bisimulation(m, m)
        for a in m.nodes:
            for b in m.nodes:
                assert ((a, b) in same) == (rep[a] == rep[b]) == hs.bisimilar(m, a, m, b)
        copy = _renamed(m, "c")
        assert all(hs.bisimilar(m, w, copy, "c" + w) for w in m.nodes)
        for other in (copy, random_hyperset(rng, 6, allow_overlap=not m.disjoint_types)):
            cross = bisimulation(m, other)
            for a in m.nodes:
                for b in other.nodes:
                    assert ((a, b) in cross) == hs.bisimilar(m, a, other, b)


def test_urelements_match_by_label_only_across_models():
    m = hs.HypersetModel(nodes="wxuv", mem=[("w", "u"), ("x", "v")], ua="wxuv", ub=[],
                         urelements="uv", disjoint_types=False)
    assert not hs.bisimilar(m, "u", m, "v") and not hs.bisimilar(m, "w", m, "x")
    equal = hs.HypersetModel(m.nodes, m.mem, m.ua, m.ub, m.urelements,
                             disjoint_types=False)
    assert equal == m and equal is not m
    # an equal copy is the same model: its urelements stay distinct atoms
    assert not hs.bisimilar(m, "u", equal, "v") and not hs.bisimilar(m, "w", equal, "x")
    assert hs.bisimilar(m, "u", equal, "u") and hs.bisimilar(m, "w", equal, "w")
    assert hs.bisimilar(m, "w", _renamed(m, "c"), "cx")


def test_deep_graphs_canonicalize_in_well_under_a_second():
    # one refinement round per level of depth; a block key that nests one
    # round deeper each round costs time exponential in the depth
    names = [f"n{i:02d}" for i in range(64)]
    chain = hs.HypersetModel(names, list(zip(names, names[1:])), names, [],
                             disjoint_types=False)
    to_quine = hs.HypersetModel(names, list(zip(names, names[1:])) + [(names[-1], names[-1])],
                                names, [], disjoint_types=False)
    path = [f"g{i:02d}" for i in range(41)]
    game = hs.graph_to_structure(path, list(zip(path, path[1:])), path[0],
                                 {w: "ab"[i % 2] for i, w in enumerate(path)})
    start = time.perf_counter()
    assert len(hs.canonicalize(chain)[0].nodes) == 64  # each depth its own set
    assert hs.canonicalize(to_quine)[0] == hs.HypersetModel(
        ["n00"], [("n00", "n00")], ["n00"], [], disjoint_types=False)
    assert len(hs.canonicalize(game)[0].nodes) == 41
    assert not hs.bisimilar(chain, "n00", _renamed(chain, "c"), "cn01")
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# named checks


def test_theorem_2_2_unit_cases():
    m = fixture_quine_pair()
    assert hs.check_theorem_2_2(m) == []
    overlap = fixture_singleton_quine()
    with pytest.raises(ValueError):
        hs.check_theorem_2_2(overlap)


def test_theorem_2_2_urelement_vacuous_direction():
    m = hs.HypersetModel(nodes="uv", mem=[], ua=["u"], ub=["v"],
                         urelements=["u", "v"], val={"p": ["v"]})
    # u falsifies p, so u must assume p; u satisfies Ua, so must not assume it
    assert "u" in hs.nwf_extension(m, fm.parse("Hab p"))
    assert "u" not in hs.nwf_extension(m, fm.parse("Hab Ua"))
    assert hs.check_theorem_2_2(m) == []


def test_theorem_2_3():
    assert hs.check_theorem_2_3(fixture_singleton_quine()) == []
    lonely = hs.HypersetModel(nodes="wv", mem=quine("w"), ua=["w"],
                              ub=["v"], urelements=["v"])
    assert "w" not in hs.nwf_extension(lonely, fm.parse("Hab true"))
    assert hs.check_theorem_2_3(lonely) == []
    no_quines = fixture_prop25()
    assert hs.check_theorem_2_3(no_quines) == []


def test_theorem_programs_are_compiled_once():
    # the checks and the sweeps share one compile of each theorem's
    # formulas, whose ops do not depend on the atoms declared
    for program, formulas in ((hs.theorem22_program, hs.bounded_formula_family()),
                              (hs.theorem23_program, [f for _, f in hs.TRUE_ASSUMPTIONS])):
        assert program() is program()
        ops, slots = pg.compile_program(formulas, "nwf")
        assert program() == (tuple(ops), tuple(slots))
    assert hn._SWEEPS["theorem22"].program is hs.theorem22_program
    assert hn._SWEEPS["theorem23"].program is hs.theorem23_program


def test_validity_lists_on_urelement_pair():
    m = hs.HypersetModel(nodes="wv", mem=[], ua=["w"], ub=["v"],
                         urelements=["w", "v"])
    verdicts = {v.formula: v for v in hs.check_validity_lists(m)}
    assert verdicts["[ab] Ub <-> Ua"].holds
    assert verdicts["[ba] Ua <-> Ub"].holds
    # memberless states believe everything, so the bottom biconditionals fail
    assert not verdicts["[ab] Ua <-> false"].holds
    assert verdicts["[ab] Ua <-> false"].failing_states == ("w",)
    assert not verdicts["[ba] Ub <-> false"].holds


def test_validity_lists_finds_invalidity_witnesses():
    m = fixture_prop24()
    verdicts = {v.formula: v for v in hs.check_validity_lists(m)}
    assert not verdicts["[ab] Ub -> Ub"].holds


def test_bounded_formula_family():
    family = hs.bounded_formula_family()
    assert len(family) == len(set(family)) == 602
    assert all(fm.modal_depth(f) <= 2 for f in family)
    assert fm.Ua() in family and fm.Atom("p") in family


# ---------------------------------------------------------------------------
# hole scan and graph reading


def test_nwf_holes_examples():
    only_a = hs.HypersetModel(nodes="w", mem=[], ua=["w"], ub=[])
    report = hs.nwf_find_holes(only_a)
    assert report.slot("hole at Ua").is_hole
    prop24 = hs.nwf_find_holes(fixture_prop24())
    assert not prop24.slot("big hole at [ba] [ab] Hba Ua").is_hole
    nine = hs.nwf_find_holes(fixture_ninestate())
    assert not nine.any_hole


def test_graph_to_structure_leaf_kinds():
    single_ure = hs.graph_to_structure(["n"], [], "n", {"n": "a"})
    assert single_ure.kind("n") == "urelement"
    single_set = hs.graph_to_structure(["n"], [], "n", {"n": "a"},
                                       leaf_kind="empty_set")
    assert single_set.kind("n") == "set" and not single_set.members("n")


def test_graph_to_structure_rejects_disconnected():
    with pytest.raises(ValueError):
        hs.graph_to_structure(["a", "b"], [], "a", {"a": "a", "b": "b"})


def test_graph_to_structure_names_an_unknown_root_or_untyped_node():
    with pytest.raises(ValueError, match="unknown root 'c'"):
        hs.graph_to_structure(["a", "b"], [("a", "b")], "c", {"a": "a", "b": "b"})
    with pytest.raises(ValueError, match="node 'b' has no type"):
        hs.graph_to_structure(["a", "b"], [("a", "b")], "a", {"a": "a"})
    with pytest.raises(ValueError, match="node 'b' has type 'x', not 'a' or 'b'"):
        hs.graph_to_structure(["a", "b"], [("a", "b")], "a", {"a": "a", "b": "x"})


def test_isomorphic_graphs_give_bisimilar_structures():
    cycle1 = hs.graph_to_structure(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")], "a",
        {"a": "a", "b": "b", "c": "a"})
    cycle2 = hs.graph_to_structure(
        ["z", "x", "y"], [("x", "y"), ("y", "z"), ("z", "x")], "x",
        {"x": "a", "y": "b", "z": "a"})
    c1, _ = hs.canonicalize(cycle1)
    c2, _ = hs.canonicalize(cycle2)
    assert hs.bisimilar(c1, "a", c2, "x")
    assert len(c1.nodes) == len(c2.nodes)
