"""Seeded input generators and independent references for the benchmark.

The truth functions below decide satisfaction one state at a time by
unfolding each connective's quantifiers, as the oracles of the test suite
do.  They never call the library's evaluators, so a result that agrees
with them was reached by two routes.  Atoms are drawn from p, q and r, so
an engine that silently reads some atoms as empty disagrees here.
"""

from __future__ import annotations

import random

from bkw import formula as fm
from bkw.hyperset import HypersetModel
from bkw.kripke import KripkeModel
from bkw.paratopo import ParaTopoModel
from bkw.topology import ClosedTopology

ATOMS = ("p", "q", "r")
DIRECTIONS = ("ab", "ba")
AGENTS = ("a", "b")


# ---------------------------------------------------------------------------
# Formulas


def _leaf(rng: random.Random, leaves) -> fm.Formula:
    leaf = rng.choice(leaves)
    return fm.Atom(rng.choice(ATOMS)) if leaf is fm.Atom else leaf()


def random_formula(rng: random.Random, depth: int, language: str) -> fm.Formula:
    """Random AST of at most ``depth`` levels in one language.

    ``language`` is "mixed" (every connective, for the parser corpus),
    "kripke" or "nwf" (relational connectives with that kind's diagonal
    atom) or "topo" (topological connectives with ``Dt``).
    """
    leaves = [fm.Atom, fm.Top, fm.Bot, fm.Ua, fm.Ub]
    if language == "mixed":
        leaves += [fm.Dclass, fm.Dplus, fm.Dtopo]
        unary = [fm.Not, fm.Pneg]
        modal = [(c, DIRECTIONS) for c in (fm.Box, fm.Heart, fm.Diamond)]
        modal += [(c, AGENTS) for c in (fm.TBel, fm.TAsm, fm.TDia)]
    elif language == "topo":
        leaves.append(fm.Dtopo)
        unary = [fm.Not, fm.Pneg]
        modal = [(c, AGENTS) for c in (fm.TBel, fm.TAsm, fm.TDia)]
    else:
        leaves.append(fm.Dclass if language == "kripke" else fm.Dplus)
        unary = [fm.Not]
        modal = [(c, DIRECTIONS) for c in (fm.Box, fm.Heart, fm.Diamond)]
    binary = [fm.And, fm.Or, fm.Imp, fm.Iff]

    def build(d: int) -> fm.Formula:
        kind = rng.randrange(8)
        if d == 0 or kind == 0:
            return _leaf(rng, leaves)
        if kind == 1:
            return rng.choice(unary)(build(d - 1))
        if kind <= 4:
            ctor, tags = rng.choice(modal)
            return ctor(rng.choice(tags), build(d - 1))
        return rng.choice(binary)(build(d - 1), build(d - 1))

    return build(depth)


_CONSTANT_TEXT = {fm.Top: "true", fm.Bot: "false", fm.Ua: "Ua", fm.Ub: "Ub",
                  fm.Dclass: "D", fm.Dplus: "D+", fm.Dtopo: "Dt"}
_BINARY_TEXT = {fm.And: "&", fm.Or: "|", fm.Imp: "->", fm.Iff: "<->"}
_MODAL_TEXT = {fm.Box: "[{}]", fm.Diamond: "<{}>", fm.Heart: "H{}",
               fm.TBel: "B{}", fm.TAsm: "X{}", fm.TDia: "E{}"}


def paren_text(f: fm.Formula) -> str:
    """Fully parenthesised text of ``f``, written from the grammar alone."""
    t = type(f)
    if t is fm.Atom:
        return f.name
    if t in _CONSTANT_TEXT:
        return _CONSTANT_TEXT[t]
    if t is fm.Not:
        return f"!({paren_text(f.body)})"
    if t is fm.Pneg:
        return f"~({paren_text(f.body)})"
    if t in _BINARY_TEXT:
        return f"({paren_text(f.left)}) {_BINARY_TEXT[t]} ({paren_text(f.right)})"
    tag = f.direction if hasattr(f, "direction") else f.agent
    return f"{_MODAL_TEXT[t].format(tag)} ({paren_text(f.body)})"


# ---------------------------------------------------------------------------
# Models


def _valuation(rng: random.Random, points) -> dict[str, list[str]]:
    return {a: [x for x in points if rng.random() < 0.5] for a in ATOMS}


def random_kripke(rng: random.Random, max_states: int = 6) -> KripkeModel:
    names = [f"s{i}" for i in range(rng.randint(1, max_states))]
    ua = [x for x in names if rng.random() < 0.5]
    strict = rng.random() < 0.5
    rel = [(x, y) for x in names for y in names
           if (not strict or (x in ua) != (y in ua)) and rng.random() < 0.4]
    return KripkeModel(states=names, rel=rel, ua=ua,
                       ub=[x for x in names if x not in ua],
                       val=_valuation(rng, names), strict=strict)


def random_hyperset(rng: random.Random, max_nodes: int = 9) -> HypersetModel:
    names = [f"n{i}" for i in range(rng.randint(1, max_nodes))]
    ure = [w for w in names if rng.random() < 0.2]
    mem = [(w, v) for w in names for v in names
           if w not in ure and rng.random() < 0.3]
    ua = [w for w in names if rng.random() < 0.5]
    return HypersetModel(nodes=names, mem=mem, ua=ua,
                         ub=[w for w in names if w not in ua],
                         urelements=ure, val=_valuation(rng, names))


def _random_topology(rng: random.Random, points: list[str]) -> ClosedTopology:
    """Close a few random subsets under union and intersection."""
    full = frozenset(points)
    family = {frozenset(), full}
    for _ in range(rng.randint(0, 3)):
        family.add(frozenset(x for x in points if rng.random() < 0.5))
    grown = True
    while grown:
        new = {a | b for a in family for b in family}
        new |= {a & b for a in family for b in family}
        grown = not new <= family
        family |= new
    return ClosedTopology(full, frozenset(family))


def _closed_images(rng: random.Random, sources, target: ClosedTopology):
    closed = sorted(target.closed, key=sorted)
    return [(x, y) for x in sources for y in sorted(rng.choice(closed))]


def random_paratopo(rng: random.Random) -> ParaTopoModel:
    a = [f"a{i}" for i in range(rng.randint(2, 3))]
    b = [f"b{i}" for i in range(rng.randint(2, 3))]
    tau_a, tau_b = _random_topology(rng, a), _random_topology(rng, b)
    return ParaTopoModel(tau_a, tau_b, _closed_images(rng, a, tau_b),
                         _closed_images(rng, b, tau_a), _valuation(rng, a + b))


def bk_topo(discrete: bool = False) -> ParaTopoModel:
    """The paper's paraconsistent witness model, or its discrete variant."""
    a, b = ["a1", "a2"], ["b1", "b2"]
    if discrete:
        sets_a = [[], ["a1"], ["a2"], a]
        sets_b = [[], ["b1"], ["b2"], b]
    else:
        sets_a, sets_b = [[], ["a1"], a], [[], ["b1"], b]
    return ParaTopoModel(ClosedTopology.make(a, sets_a), ClosedTopology.make(b, sets_b),
                         t_a=[("a1", "b1"), ("a2", "b1"), ("a2", "b2")],
                         t_b=[("b1", "a1"), ("b2", "a1"), ("b2", "a2")])


def model_fields(m) -> tuple:
    """Every field that defines a model, strictness included."""
    val = tuple(sorted((k, frozenset(v)) for k, v in m.val.items() if v))
    if isinstance(m, KripkeModel):
        return ("kripke", m.states, m.rel, m.ua, m.ub, val, m.strict)
    if isinstance(m, HypersetModel):
        return ("nwf", m.nodes, m.mem, m.ua, m.ub, m.urelements, val,
                m.disjoint_types)
    return ("paratopo", m.tau_a, m.tau_b, m.t_a, m.t_b, val)


# ---------------------------------------------------------------------------
# Per-state truth


class Truth:
    """Memoised per-state satisfaction for one model.

    ``heart`` selects the kripke assumption reading: "frame" compares
    over all states, "local" only over the opposite type space.
    """

    def __init__(self, m, heart: str = "frame"):
        self.m = m
        self.heart = heart
        self.memo: dict = {}
        if isinstance(m, KripkeModel):
            self.points = m.states
            self.ua, self.ub = m.ua, m.ub
            self.succ = lambda x: {y for (w, y) in m.rel if w == x}
            self.step = self._relational
        elif isinstance(m, HypersetModel):
            self.points = m.nodes
            self.ua, self.ub = m.ua, m.ub
            self.succ = lambda x: {v for (w, v) in m.mem if w == x}
            self.step = self._relational
        else:
            self.points = m.a | m.b
            self.ua, self.ub = m.a, m.b
            self.step = self._topological

    def holds(self, f: fm.Formula, x: str) -> bool:
        key = (f, x)
        if key not in self.memo:
            self.memo[key] = self._common(f, x)
        return self.memo[key]

    def extension(self, f: fm.Formula) -> frozenset:
        return frozenset(x for x in self.points if self.holds(f, x))

    def _common(self, f: fm.Formula, x: str) -> bool:
        t = type(f)
        if t is fm.Atom:
            return x in self.m.val.get(f.name, ())
        if t is fm.Top:
            return True
        if t is fm.Bot:
            return False
        if t is fm.Ua:
            return x in self.ua
        if t is fm.Ub:
            return x in self.ub
        if t is fm.Not:
            return not self.holds(f.body, x)
        if t is fm.And:
            return self.holds(f.left, x) and self.holds(f.right, x)
        if t is fm.Or:
            return self.holds(f.left, x) or self.holds(f.right, x)
        if t is fm.Imp:
            return not self.holds(f.left, x) or self.holds(f.right, x)
        if t is fm.Iff:
            return self.holds(f.left, x) == self.holds(f.right, x)
        return self.step(f, x)

    def _relational(self, f: fm.Formula, x: str) -> bool:
        t = type(f)
        m = self.m
        if t is fm.Dclass and isinstance(m, KripkeModel):
            return all(not ((x, z) in m.rel and (z, x) in m.rel) for z in m.states)
        if t is fm.Dplus and isinstance(m, HypersetModel):
            return all((v, x) not in m.mem for v in self.succ(x))
        if t not in (fm.Box, fm.Diamond, fm.Heart):
            raise fm.LanguageError(f"{t.__name__} is outside the relational language")
        src, tgt = (self.ua, self.ub) if f.direction == "ab" else (self.ub, self.ua)
        if x not in src:
            return False
        succ = self.succ(x)
        if t is fm.Box:
            return all(self.holds(f.body, y) for y in succ if y in tgt)
        if t is fm.Diamond:
            return any(self.holds(f.body, y) for y in succ if y in tgt)
        if isinstance(m, HypersetModel):
            domain = succ | {x}
        elif self.heart == "frame":
            domain = self.points
        else:
            domain = tgt
        return all((y in succ and y in tgt) == self.holds(f.body, y) for y in domain)

    def _in_closure_of_complement(self, topo: ClosedTopology, x: str, inside) -> bool:
        """x lies in every closed set that holds each carrier point failing ``inside``."""
        return all(x in c for c in topo.closed
                   if all(y in c for y in topo.carrier if not inside(y)))

    def _topological(self, f: fm.Formula, x: str) -> bool:
        t = type(f)
        m = self.m
        if t is fm.Pneg:
            topo = m.tau_a if x in m.a else m.tau_b
            return self._in_closure_of_complement(topo, x, lambda y: self.holds(f.body, y))
        if t is fm.Dtopo:
            return x in m.a and all(
                self._in_closure_of_complement(m.tau_a, x, lambda z: (y, z) in m.t_b)
                for y in m.b if (x, y) in m.t_a)
        if t not in (fm.TBel, fm.TAsm, fm.TDia):
            raise fm.LanguageError(f"{t.__name__} is outside the topological language")
        if f.agent == "a":
            carrier, rel, opposite = m.a, m.t_a, m.b
        else:
            carrier, rel, opposite = m.b, m.t_b, m.a
        if x not in carrier:
            return False
        if t is fm.TBel:
            return all(self.holds(f.body, y) for y in opposite if (x, y) in rel)
        if t is fm.TDia:
            return any(self.holds(f.body, y) for y in opposite if (x, y) in rel)
        return all(((x, y) in rel) == self.holds(f.body, y) for y in opposite)


# ---------------------------------------------------------------------------
# Hole scan and bisimulation quotient


HOLE_SLOTS = ("hole at Ua", "hole at Ub", "big hole at Hba Ua",
              "big hole at [ab] Hba Ua", "big hole at [ba] [ab] Hba Ua",
              "hole at Ua & D", "big hole at Hba (Ua & D)")


def hole_rows(truth: Truth, diagonal: fm.Formula) -> list[tuple]:
    """(label, is_hole, content_b, content_a, witness_ab, witness_ba) per slot."""
    heart_ua = fm.Heart("ba", fm.Ua())
    ua_d = fm.And(fm.Ua(), diagonal)
    slots = ((fm.Ua(), False), (fm.Ub(), False), (heart_ua, True),
             (fm.Box("ab", heart_ua), True), (fm.Box("ba", fm.Box("ab", heart_ua)), True),
             (ua_d, False), (fm.Heart("ba", ua_d), True))
    rows = []
    for label, (phi, big) in zip(HOLE_SLOTS, slots):
        mod = fm.Box if big else fm.Heart
        sets = [tuple(sorted(truth.extension(g))) for g in
                (fm.And(fm.Ub(), phi), fm.And(fm.Ua(), phi), mod("ab", phi), mod("ba", phi))]
        is_hole = (bool(sets[0]) and not sets[2]) or (bool(sets[1]) and not sets[3])
        rows.append((label, is_hole, *sets))
    return rows


def holes_cli_text(rows) -> str:
    """What ``bkw holes`` prints for the given slot rows."""
    lines = [f"{label}: {'HOLE' if hole else 'no hole'}"
             f" (assume/believe witnesses: ab={list(wab)} ba={list(wba)})"
             for label, hole, _, _, wab, wba in rows]
    lines.append(f"any hole: {any(row[1] for row in rows)}")
    return "\n".join(lines) + "\n"


def check_cli_text(ext: frozenset, universe: frozenset) -> str:
    """What ``bkw check`` prints for an extension."""
    return (f"extension: {' '.join(sorted(ext)) if ext else '(empty)'}\n"
            f"satisfiable: {bool(ext)}\nvalid: {ext == universe}\n")


def bisimilar_pairs(m: HypersetModel) -> set:
    """Greatest label-respecting bisimulation, by removing failing pairs.

    Distinct urelements of one model are never related.
    """
    def label(w):
        return (w in m.urelements, w in m.ua, w in m.ub,
                frozenset(a for a, sts in m.val.items() if w in sts))

    members = {w: {v for (x, v) in m.mem if x == w} for w in m.nodes}
    pairs = {(a, b) for a in m.nodes for b in m.nodes
             if label(a) == label(b)
             and not (a != b and a in m.urelements and b in m.urelements)}
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            forth = all(any((x, y) in pairs for y in members[b]) for x in members[a])
            back = all(any((x, y) in pairs for x in members[a]) for y in members[b])
            if not (forth and back):
                pairs.discard((a, b))
                changed = True
    return pairs


def quotient_problem(m: HypersetModel, quotient: HypersetModel, rep: dict) -> str | None:
    """Why (quotient, rep) is not the least-name bisimulation quotient of m, if it is not."""
    pairs = bisimilar_pairs(m)
    for a in m.nodes:
        cls = {b for b in m.nodes if (a, b) in pairs}
        if rep.get(a) != min(cls):
            return f"rep[{a}]={rep.get(a)} but its class is {sorted(cls)}"
    image = lambda pts: frozenset(rep[w] for w in pts)
    expect = (image(m.nodes), frozenset((rep[w], rep[v]) for w, v in m.mem),
              image(m.ua), image(m.ub), image(m.urelements),
              {a: image(sts) for a, sts in m.val.items()})
    got = (quotient.nodes, quotient.mem, quotient.ua, quotient.ub,
           quotient.urelements, dict(quotient.val))
    return None if got == expect else "quotient structure differs from the image under rep"
