"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

import numpy as np

from bkw import formula as fm
from bkw import harness as hn
from bkw import hyperset as hs
from bkw import lawvere as lv
from bkw import paratopo as pt
from bkw import program as pg
from conftest import random_formula, random_hyperset


def _compact_records(max_nodes):
    """The compact (k, members, ure, ua, ub, pval) records of every
    membership model with disjoint types and no atom, up to max_nodes."""
    for lanes in hn._membership_lanes(max_nodes, overlap=False, with_atom=False, ops=[]):
        for lane in range(len(lanes.record)):
            yield lanes.compact(lane)


def _report(number: int, description: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_fixture_suite():
    start = time.perf_counter()
    report = hn.verify_fixtures()
    elapsed = time.perf_counter() - start
    failures = [f"{name}: {c.description}" for name, c in report.claims
                if not c.passed]
    _report(1, "fixture suite reproduces every recorded claim exactly",
            report.ok and elapsed < 1.0,
            f"{len(report.claims)} claims, {elapsed:.3f}s{failures or ''}")


def test_criterion_2_assumption_theorem_campaign():
    report = hn.run_campaign(hn.Campaign(target="theorem22", max_size=3))
    ok = report.summary["violations"] == 0

    # strengthen the formula family semantically: sweep every candidate
    # extension a formula could have, not just the generated family
    extra_violations = 0
    for rec in _compact_records(3):
        k, members, ure, ua, ub, _ = rec
        for w in range(k):
            if not (ure >> w & 1 or members[w] == 1 << w):
                continue
            tgt = ub if ua >> w & 1 else ua
            need = members[w] & tgt
            domain = members[w] | 1 << w
            for candidate in range(1 << k):
                assumes = candidate & domain == need
                believes = need & ~candidate == 0
                if assumes != (not candidate >> w & 1) or not believes:
                    extra_violations += 1
    _report(2, "quine/urelement assumption theorem has zero violations",
            ok and extra_violations == 0,
            f"{report.summary['models']} models x 602 formulas, "
            f"all-extension sweep adds {extra_violations} violations")


def test_criterion_3_true_assumption_campaign():
    report = hn.run_campaign(hn.Campaign(target="theorem23", max_size=3))
    _report(3, "true assumptions at quine states force both type spaces",
            report.summary["violations"] == 0,
            f"{report.summary['models']} overlap models")


def test_criterion_4_co_heyting_law_suite():
    adj = hn.run_campaign(hn.Campaign(target="adjunction", max_size=4))
    bnd = hn.run_campaign(hn.Campaign(target="boundary_law", max_size=4))
    _report(4, "subtraction adjunction, join law, boundary overlap law",
            adj.summary["violations"] == 0 and bnd.summary["violations"] == 0,
            f"{adj.summary['topologies']} topologies, "
            f"{adj.summary['checks'] + bnd.summary['checks']} checks")


def test_criterion_5_diagonal_fixed_point_scan():
    exhausted = all(lv.search_wps(a, y).exhausted
                    for a, y in ((1, 2), (2, 2), (3, 2), (2, 3)))
    witnesses_ok = True
    identity_ok = True
    for size_a in (1, 2, 3):
        result = lv.search_wps(size_a, 1)
        witnesses_ok &= result.witness is not None
        if result.witness is not None:
            fp = lv.check_fixed_point_property(result.witness)
            identity_ok &= fp.applicable and not fp.violations
    _report(5, "no weak point-surjection onto 2 values; diagonal identity holds",
            exhausted and witnesses_ok and identity_ok)


def test_criterion_6_paraconsistent_satisfiability():
    m = hn.fixture_bk_topo()
    closed_witnesses = pt.bk_witnesses(m)
    discrete_witnesses = pt.bk_witnesses(pt.with_discrete_topologies(m))
    _report(6, "belief sentence satisfiable paraconsistently, impossible classically",
            bool(closed_witnesses) and not discrete_witnesses,
            f"witnesses={sorted(closed_witnesses)} vs discrete={sorted(discrete_witnesses)}")


#: models/holds/fails/degenerate of the classical campaigns at 4 states,
#: by (target, strict, heart, serial); the heart rule changes no count.
CLASSICAL_COUNTS = {
    ("lemma1", True, "frame", False): (2160, 526, 1030, 604),
    ("lemma1", True, "local", False): (2160, 526, 1030, 604),
    ("lemma1", False, "frame", False): (1052740, 149310, 598132, 305298),
    ("lemma1", False, "local", False): (1052740, 149310, 598132, 305298),
    ("theorem12", True, "frame", False): (2160, 2090, 70, 0),
    ("theorem12", True, "local", False): (2160, 2090, 70, 0),
    ("theorem12", False, "frame", False): (1052740, 1009140, 43600, 0),
    ("theorem12", False, "local", False): (1052740, 1009140, 43600, 0),
    ("theorem12", False, "frame", True): (812782, 771678, 41104, 0),
}


def test_criterion_7_classical_claim_campaigns():
    start = time.perf_counter()
    texts = {}
    ok = True
    wrong_counts = []
    for target, strict, heart, serial in CLASSICAL_COUNTS:
        c = hn.Campaign(target=target, max_size=4, strict=strict,
                        heart=heart, serial=serial)
        report = hn.run_campaign(c)
        texts[(target, strict, heart, serial)] = report.text
        ok &= report.summary["models"] > 0
        ok &= any(line.startswith("landmark two_cycle")
                  and "part1_valid=False" in line
                  for line in report.lines)
        counts = tuple(report.summary[key]
                       for key in ("models", "holds", "fails", "degenerate"))
        if counts != CLASSICAL_COUNTS[(target, strict, heart, serial)]:
            wrong_counts.append(f"{target} strict={strict} heart={heart} "
                                f"serial={serial}: {counts}")
    rerun = hn.run_campaign(hn.Campaign(target="theorem12", max_size=4,
                                        strict=False, heart="frame"))
    deterministic = rerun.text == texts[("theorem12", False, "frame", False)]
    elapsed = time.perf_counter() - start
    hole_free = rerun.summary["fails"]
    _report(7, "classical-claim campaigns complete deterministically "
               "with the two-cycle verdict and the recorded counts",
            ok and not wrong_counts and deterministic and elapsed < 600.0,
            f"8 flag runs and a serial run over <=4 states in {elapsed:.1f}s; "
            f"{hole_free} hole-free frames in the non-strict sweep"
            + (f"; wrong counts: {wrong_counts}" if wrong_counts else ""))


def test_criterion_8_parser_round_trip():
    rng = random.Random(20240811)
    failures = 0
    for _ in range(1000):
        f = random_formula(rng, rng.randint(0, 6))
        if fm.parse(fm.to_text(f)) != f:
            failures += 1
    _report(8, "1000 random ASTs survive print-then-parse", failures == 0,
            f"{failures} failures")


def _invariance_family():
    family = list(hs.bounded_formula_family())
    bases = (fm.Ua(), fm.Ub(), fm.Atom("p"))
    ctors = [lambda f, d=d, c=c: c(d, f)
             for c in (fm.Box, fm.Heart) for d in ("ab", "ba")]
    chains = list(bases)
    for _ in range(4):
        chains = [ctor(f) for ctor in ctors for f in chains]
        if fm.modal_depth(chains[0]) >= 3:
            family.extend(chains)
    return family


def test_criterion_9_canonicalization_invariance():
    family = _invariance_family()
    assert max(fm.modal_depth(f) for f in family) == 4
    ops, slots = pg.compile_program(family, "nwf")

    def extensions(frame, lanes):
        """The family's extension masks on a frame, one column per lane."""
        vals = pg.run(ops, frame)
        out = np.empty((len(slots), lanes), dtype=np.uint8)
        for i, slot in enumerate(slots):
            out[i] = vals[slot]
        return out

    def quotient(m):
        """m's canonical quotient, its compact record, and per node of m the
        index of its representative there (7, a bit no mask sets, pads to
        six nodes)."""
        canon, rep = hs.canonicalize(m)
        names, frame = hs.to_frame(canon)
        rec = (frame.k, tuple(frame.rows), pg.masker(names)(canon.urelements),
               frame.ua, frame.ub, frame.atoms.get("p", 0))
        target = [names.index(rep[n]) for n in sorted(m.nodes)]
        return canon, rec, target + [7] * (6 - len(target))

    def mismatches(ext, ext_c, targets):
        """(model, formula, node) triples whose bit in ext differs from the
        bit of the node's representative in ext_c."""
        moved = np.zeros_like(ext)
        for i, rep in enumerate(np.array(targets, dtype=np.uint8).T):
            moved |= (ext_c >> rep & 1) << i
        return int(np.bitwise_count(ext ^ moved).sum())

    # every enumerated record up to 3 nodes, without p and with p at n0, as
    # lanes; a quotient of one is again one, so its column is read back
    records, columns = [], []
    for lanes in hn._membership_lanes(3, False, False, ops):
        for pval in (0, 1):
            lanes = lanes._replace(frame=lanes.frame._replace(atoms={"p": pval}))
            columns.append(extensions(lanes.frame, len(lanes.record)))
            records += [lanes.compact(i) for i in range(len(lanes.record))]
    ext = np.concatenate(columns, axis=1)
    column = {rec: j for j, rec in enumerate(records)}
    canon_columns, targets = [], []
    for rec in records:
        _, canon, target = quotient(hn._rebuild_hyperset(rec))
        canon_columns.append(column[canon])
        targets.append(target)
    violations = mismatches(ext, ext[:, canon_columns], targets)

    rng = random.Random(90)
    randoms = [random_hyperset(rng, 6) for _ in range(400)]
    quotients = [quotient(m) for m in randoms]
    violations += mismatches(
        np.hstack([extensions(hs.to_frame(m)[1], 1) for m in randoms]),
        np.hstack([extensions(hs.to_frame(canon)[1], 1) for canon, _, _ in quotients]),
        [target for _, _, target in quotients])
    models = len(records) + len(randoms)
    _report(9, "extensions are invariant under the bisimulation quotient",
            violations == 0,
            f"{models} graphs x {len(family)} formulas of modal depth <= 4, "
            f"{violations} mismatches")
