import random

import numpy as np
import pytest

from bkw import formula as fm
from bkw import harness as hn
from bkw import hyperset as hs
from bkw import kripke as kr
from bkw import program as pg
from bkw.modelio import load_model
from conftest import (kripke_truth, nwf_truth, random_hyperset,
                      random_relational_formula)


def test_enumerate_kripke_counts():
    assert sum(1 for _ in hn.enumerate_kripke(1)) == 2
    models = list(hn.enumerate_kripke(2))
    assert len(models) == 12  # 2 one-state + 10 two-state frames
    fixed_partition = [m for m in models
                       if m.ua == frozenset(["s0"]) and len(m.states) == 2]
    assert len(fixed_partition) == 4  # two cross edges, all subsets
    assert len(list(hn.enumerate_kripke(3))) == 110
    with pytest.raises(ValueError):
        next(hn.enumerate_kripke(6))


def test_enumerate_kripke_is_duplicate_free():
    seen = set()
    for m in hn.enumerate_kripke(3):
        key = (tuple(sorted(m.states)), tuple(sorted(m.ua)),
               tuple(sorted(m.rel)))
        assert key not in seen
        seen.add(key)


def test_enumerate_kripke_serial_filter():
    for m in hn.enumerate_kripke(3, serial=True):
        assert all(m.successors(x) for x in m.states)
    # complete and in order: exactly the serial frames of the full sweep
    serial = list(hn.enumerate_kripke(3, strict=False, serial=True))
    assert serial == [m for m in hn.enumerate_kripke(3, strict=False)
                      if all(m.successors(x) for x in m.states)]


def test_enumerate_hypersets_counts():
    singles = list(hn.enumerate_hypersets(1))
    # empty set, quine, urelement, each with two type choices
    assert len(singles) == 6
    kinds = {(m.kind("n0"), m.members("n0") == frozenset(["n0"]),
              "n0" in m.ua) for m in singles}
    assert len(kinds) == 6
    assert all(not v for m in singles for v in m.val.values())
    with pytest.raises(ValueError):
        next(hn.enumerate_hypersets(5))


def test_enumerate_hypersets_all_validate():
    count = 0
    models = set()
    for m in hn.enumerate_hypersets(2, allow_overlap=True):
        count += 1
        assert m.ua | m.ub == m.nodes
        models.add(m)
    assert count == 25 * 9 + 3 * 3  # two-node space + single-node space
    assert len(models) == count  # pairwise distinct


def test_campaign_validation():
    with pytest.raises(ValueError):
        hn.Campaign(target="nonsense")
    with pytest.raises(ValueError):
        hn.Campaign(target="lemma1", heart="sideways")
    with pytest.raises(ValueError):
        hn.run_campaign(hn.Campaign(target="lawvere_scan", max_size=9))


def test_campaign_reports_are_deterministic():
    c = hn.Campaign(target="theorem12", max_size=3, strict=True)
    assert hn.run_campaign(c).text == hn.run_campaign(c).text
    c2 = hn.Campaign(target="lemma1", max_size=2, strict=False)
    assert hn.run_campaign(c2).text == hn.run_campaign(c2).text


def test_fail_records_reload_and_reproduce():
    report = hn.run_campaign(hn.Campaign(target="theorem12", max_size=3))
    blocks = _dump_blocks(report.lines)
    assert blocks, "expected hole-free counter-models at this size"
    for text in blocks:
        m = load_model(text)
        assert not kr.find_holes(m).any_hole
    report = hn.run_campaign(hn.Campaign(target="lemma1", max_size=2))
    for text in _dump_blocks(report.lines):
        m = load_model(text)
        rec = kr.check_lemma_1(m)
        assert (rec.premise_holds and not rec.part1_valid) or not rec.part2_valid


def _dump_blocks(lines):
    blocks, current = [], None
    for line in lines:
        if line.startswith("fail-dump"):
            if current:
                blocks.append("\n".join(current) + "\n")
            current = []
        elif current is not None and line.startswith("  "):
            current.append(line[2:])
        elif current is not None:
            blocks.append("\n".join(current) + "\n")
            current = None
    if current:
        blocks.append("\n".join(current) + "\n")
    return blocks


def test_two_cycle_landmark_in_reports():
    for heart in ("frame", "local"):
        report = hn.run_campaign(hn.Campaign(target="lemma1", max_size=1,
                                             heart=heart))
        landmark = [l for l in report.lines if l.startswith("landmark two_cycle")]
        assert len(landmark) == 1
        assert "part1_valid=False" in landmark[0]
        assert "part2_valid=True" in landmark[0]
        assert "any_hole=False" in landmark[0]


def _oracle_lemma1(m, heart):
    premise, part1, part2_body = kr.LEMMA1
    holds = lambda f: {x for x in m.states if kripke_truth(m, f, x, heart)}
    return bool(holds(premise)), holds(part1) == m.states, not holds(part2_body)


def _oracle_any_hole(m, heart):
    sat = lambda f: any(kripke_truth(m, f, x, heart) for x in m.states)
    for _, phi, use_box in kr.hole_slots(fm.Dclass()):
        mod = fm.Box if use_box else fm.Heart
        if ((sat(fm.And(fm.Ub(), phi)) and not sat(mod("ab", phi)))
                or (sat(fm.And(fm.Ua(), phi)) and not sat(mod("ba", phi)))):
            return True
    return False


def test_vectorized_engine_matches_reference():
    # every strict frame up to 3 states, both assumption semantics
    ops, slots = kr.lemma1_program()
    for heart in ("frame", "local"):
        seen = 0
        for lanes in hn._relation_lanes(3, True, False, heart, ops):
            n = len(lanes.record)
            premise, part1_fails, part2_body = (
                np.broadcast_to(mask, n) for mask in
                kr.lemma1_masks(pg.run(ops, lanes.frame), slots,
                                (1 << lanes.frame.k) - 1))
            for idx in range(n):
                m = hn._rebuild_kripke(lanes.compact(idx), True)
                got = (bool(premise[idx]), part1_fails[idx] == 0,
                       part2_body[idx] == 0)
                assert got == _oracle_lemma1(m, heart)
                seen += 1
        assert seen == 110


def test_vectorized_holes_match_reference_on_nonstrict_sample():
    rng = random.Random(61)
    ops, slots = kr.hole_program("kripke")
    for heart in ("frame", "local"):
        sampled = 0
        for lanes in hn._relation_lanes(3, False, False, heart, ops):
            if lanes.frame.k != 3 or lanes.frame.ua not in (0b001, 0b110, 0b111):
                continue
            any_hole = np.zeros(len(lanes.record), dtype=bool)
            for _, hole in kr.hole_masks(pg.run(ops, lanes.frame), slots):
                any_hole |= hole
            for idx in rng.sample(range(len(lanes.record)), 40):
                m = hn._rebuild_kripke(lanes.compact(idx), False)
                assert bool(any_hole[idx]) == _oracle_any_hole(m, heart)
                sampled += 1
        assert sampled == 3 * 40


def test_mask_program_matches_reference_evaluator():
    # the membership lanes of every model up to 2 nodes with atom p
    family = hs.bounded_formula_family()[:200]
    ops, slots = pg.compile_program(family, "nwf", atoms=("p",))
    count = 0
    for lanes in hn._membership_lanes(2, False, True, ops):
        vals = pg.run(ops, lanes.frame)
        for lane in range(len(lanes.record)):
            m = hn._rebuild_hyperset(lanes.compact(lane))
            nodes = sorted(m.nodes)
            for f, slot in zip(family, slots):
                got = np.broadcast_to(vals[slot], len(lanes.record))[lane]
                for i, n in enumerate(nodes):
                    assert bool(got >> i & 1) == nwf_truth(m, f, n)
            count += 1
    assert count == 412


def test_campaign_state_checks_match_reference_modalities():
    # the theorem 2.2 predicate derives per-state assumption and belief
    # directly from the body mask; both must agree with the oracle
    rng = random.Random(62)
    for _ in range(60):
        m = random_hyperset(rng, 4)
        names, frame = hs.to_frame(m)
        ure = pg.masker(names)(m.urelements)
        body_f = random_relational_formula(rng, 2)
        ops, (slot,) = pg.compile_program([body_f], "nwf")
        body = pg.run(ops, frame)[slot]
        for w, name in enumerate(names):
            direction = "ab" if name in m.ua else "ba"
            holds = nwf_truth(m, body_f, name)
            assumes = nwf_truth(m, fm.Heart(direction, body_f), name)
            believes = nwf_truth(m, fm.Box(direction, body_f), name)
            wrong_assumption, belief_fails = hs.theorem22_faults(frame, w, body)
            assert bool(wrong_assumption) == (assumes == holds)
            assert bool(belief_fails) == (not believes)
            special = name in m.urelements or m.members(name) == {name}
            assert bool(hs.is_special(frame, ure, w)) == special


def test_theorem23_predicate_matches_reference_modalities():
    rng = random.Random(63)
    for _ in range(60):
        m = random_hyperset(rng, 4, allow_overlap=True)
        names, frame = hs.to_frame(m)
        for direction, f in hs.TRUE_ASSUMPTIONS:
            ops, (slot,) = pg.compile_program([f], "nwf")
            assumed = pg.run(ops, frame)[slot]
            for w, name in enumerate(names):
                expected = (m.members(name) == {name} and name not in m.urelements
                            and nwf_truth(m, f, name)
                            and not (name in m.ua and name in m.ub))
                assert bool(hs.theorem23_fault(frame, w, assumed)) == expected


def test_sweeps_reject_unenumerated_atoms():
    # a sweep values only p, so q must not silently read as empty
    with pytest.raises(fm.LanguageError):
        pg.compile_program([fm.parse("Hab q")], "nwf", atoms=("p",))
    with pytest.raises(fm.LanguageError):
        pg.compile_program([fm.parse("[ab] q")], "kripke", atoms=())
    # one model reads every atom it values
    m = hs.HypersetModel(nodes=["w"], mem=[("w", "w")], ua=["w"], ub=[],
                         val={"q": ["w"]})
    assert hs.nwf_extension(m, fm.parse("q")) == frozenset(["w"])
    assert hs.nwf_extension(m, fm.parse("r")) == frozenset()


def test_fixture_registry_all_pass():
    report = hn.verify_fixtures()
    assert report.ok
    assert len(report.claims) >= 30
    names = {name for name, _ in report.claims}
    assert names == set(hn.FIXTURES)
    assert "all claims pass" in report.text
