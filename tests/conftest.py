"""Shared generators and independent oracle evaluators.

The oracles re-derive satisfaction by direct per-state quantifier
unfolding, deliberately avoiding the library's extension-set evaluators,
so that agreement tests check two routes to the same semantics.
"""

from __future__ import annotations

import random

from bkw import formula as fm
from bkw.hyperset import HypersetModel
from bkw.kripke import KripkeModel
from bkw.paratopo import ParaTopoModel
from bkw.topology import enumerate_topologies

ATOM_POOL = ("p", "q", "r")


def random_formula(rng: random.Random, depth: int) -> fm.Formula:
    """Random AST over the full mixed language (for parser round-trips)."""
    leaves = [fm.Atom(rng.choice(ATOM_POOL)), fm.Top(), fm.Bot(), fm.Ua(),
              fm.Ub(), fm.Dclass(), fm.Dplus(), fm.Dtopo()]
    if depth == 0:
        return rng.choice(leaves)
    kind = rng.randrange(12)
    sub = lambda: random_formula(rng, depth - 1)
    if kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return fm.Not(sub())
    if kind == 2:
        return fm.Pneg(sub())
    if kind == 3:
        return fm.And(sub(), sub())
    if kind == 4:
        return fm.Or(sub(), sub())
    if kind == 5:
        return fm.Imp(sub(), sub())
    if kind == 6:
        return fm.Iff(sub(), sub())
    if kind == 7:
        return fm.Box(rng.choice(("ab", "ba")), sub())
    if kind == 8:
        return fm.Heart(rng.choice(("ab", "ba")), sub())
    if kind == 9:
        return fm.Diamond(rng.choice(("ab", "ba")), sub())
    if kind == 10:
        return fm.TBel(rng.choice(("a", "b")), sub())
    return rng.choice((fm.TAsm, fm.TDia))(rng.choice(("a", "b")), sub())


def random_relational_formula(rng: random.Random, depth: int,
                              diagonal: fm.Formula | None = None) -> fm.Formula:
    """Random AST usable by the kripke or membership evaluator.

    Pass the model kind's diagonal atom to include it; diagonal atoms are
    not bisimulation-invariant, so invariance tests leave it out.
    """
    leaves = [fm.Atom("p"), fm.Top(), fm.Bot(), fm.Ua(), fm.Ub()]
    if diagonal is not None:
        leaves.append(diagonal)
    if depth == 0:
        return rng.choice(leaves)
    kind = rng.randrange(8)
    sub = lambda: random_relational_formula(rng, depth - 1, diagonal)
    if kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return fm.Not(sub())
    if kind == 2:
        return fm.And(sub(), sub())
    if kind == 3:
        return fm.Or(sub(), sub())
    if kind == 4:
        return fm.Imp(sub(), sub())
    if kind == 5:
        return fm.Box(rng.choice(("ab", "ba")), sub())
    if kind == 6:
        return fm.Heart(rng.choice(("ab", "ba")), sub())
    return fm.Diamond(rng.choice(("ab", "ba")), sub())


def random_topo_formula(rng: random.Random, depth: int) -> fm.Formula:
    """Random AST in the topological language over atoms p and q."""
    leaves = [fm.Atom("p"), fm.Atom("q"), fm.Top(), fm.Bot(), fm.Ua(), fm.Ub(),
              fm.Dtopo()]
    if depth == 0:
        return rng.choice(leaves)
    kind = rng.randrange(8)
    sub = lambda: random_topo_formula(rng, depth - 1)
    if kind == 0:
        return rng.choice(leaves)
    if kind == 1:
        return fm.Pneg(sub())
    if kind == 2:
        return fm.Not(sub())
    if kind == 3:
        return fm.And(sub(), sub())
    if kind == 4:
        return fm.Or(sub(), sub())
    if kind == 5:
        return fm.TBel(rng.choice("ab"), sub())
    if kind == 6:
        return fm.TAsm(rng.choice("ab"), sub())
    return fm.TDia(rng.choice("ab"), sub())


def kripke_truth(m: KripkeModel, f: fm.Formula, x: str, heart: str = "frame") -> bool:
    """Oracle: truth at one state by quantifier unfolding."""
    if isinstance(f, fm.Atom):
        return x in m.val.get(f.name, frozenset())
    if isinstance(f, fm.Top):
        return True
    if isinstance(f, fm.Bot):
        return False
    if isinstance(f, fm.Ua):
        return x in m.ua
    if isinstance(f, fm.Ub):
        return x in m.ub
    if isinstance(f, fm.Dclass):
        return all(not ((x, z) in m.rel and (z, x) in m.rel) for z in m.states)
    if isinstance(f, fm.Not):
        return not kripke_truth(m, f.body, x, heart)
    if isinstance(f, fm.And):
        return kripke_truth(m, f.left, x, heart) and kripke_truth(m, f.right, x, heart)
    if isinstance(f, fm.Or):
        return kripke_truth(m, f.left, x, heart) or kripke_truth(m, f.right, x, heart)
    if isinstance(f, fm.Imp):
        return (not kripke_truth(m, f.left, x, heart)
                or kripke_truth(m, f.right, x, heart))
    if isinstance(f, fm.Iff):
        return kripke_truth(m, f.left, x, heart) == kripke_truth(m, f.right, x, heart)
    src, tgt = (m.ua, m.ub) if f.direction == "ab" else (m.ub, m.ua)
    if x not in src:
        return False
    if isinstance(f, fm.Box):
        return all(kripke_truth(m, f.body, y, heart)
                   for y in m.states if (x, y) in m.rel and y in tgt)
    if isinstance(f, fm.Diamond):
        return any(kripke_truth(m, f.body, y, heart)
                   for y in m.states if (x, y) in m.rel and y in tgt)
    if heart == "frame":
        return all(((x, y) in m.rel and y in tgt)
                   == kripke_truth(m, f.body, y, heart) for y in m.states)
    return all(((x, y) in m.rel) == kripke_truth(m, f.body, y, heart) for y in tgt)


def nwf_truth(m: HypersetModel, f: fm.Formula, w: str) -> bool:
    """Oracle: membership-semantics truth at one node."""
    if isinstance(f, fm.Atom):
        return w in m.val.get(f.name, frozenset())
    if isinstance(f, fm.Top):
        return True
    if isinstance(f, fm.Bot):
        return False
    if isinstance(f, fm.Ua):
        return w in m.ua
    if isinstance(f, fm.Ub):
        return w in m.ub
    if isinstance(f, fm.Dplus):
        return all(w not in m.members(v) for v in m.members(w))
    if isinstance(f, fm.Not):
        return not nwf_truth(m, f.body, w)
    if isinstance(f, fm.And):
        return nwf_truth(m, f.left, w) and nwf_truth(m, f.right, w)
    if isinstance(f, fm.Or):
        return nwf_truth(m, f.left, w) or nwf_truth(m, f.right, w)
    if isinstance(f, fm.Imp):
        return not nwf_truth(m, f.left, w) or nwf_truth(m, f.right, w)
    if isinstance(f, fm.Iff):
        return nwf_truth(m, f.left, w) == nwf_truth(m, f.right, w)
    src, tgt = (m.ua, m.ub) if f.direction == "ab" else (m.ub, m.ua)
    if w not in src:
        return False
    if isinstance(f, fm.Box):
        return all(nwf_truth(m, f.body, v)
                   for v in m.members(w) if v in tgt)
    if isinstance(f, fm.Diamond):
        return any(nwf_truth(m, f.body, v)
                   for v in m.members(w) if v in tgt)
    return all((v in m.members(w) and v in tgt) == nwf_truth(m, f.body, v)
               for v in m.members(w) | {w})


def classical_topo_ext(m: ParaTopoModel, f: fm.Formula) -> frozenset:
    """Oracle for discrete topologies: negation is plain complement and the
    diagonal is the classical no-return condition."""
    universe = m.universe
    if isinstance(f, fm.Atom):
        return m.val.get(f.name, frozenset())
    if isinstance(f, fm.Top):
        return universe
    if isinstance(f, fm.Bot):
        return frozenset()
    if isinstance(f, fm.Ua):
        return m.a
    if isinstance(f, fm.Ub):
        return m.b
    if isinstance(f, fm.Dtopo):
        return frozenset(x for x in m.a
                         if all((y, x) not in m.t_b for y in m.image_a[x]))
    if isinstance(f, (fm.Not, fm.Pneg)):
        return universe - classical_topo_ext(m, f.body)
    if isinstance(f, fm.And):
        return classical_topo_ext(m, f.left) & classical_topo_ext(m, f.right)
    if isinstance(f, fm.Or):
        return classical_topo_ext(m, f.left) | classical_topo_ext(m, f.right)
    if isinstance(f, fm.Imp):
        return (universe - classical_topo_ext(m, f.left)) | classical_topo_ext(m, f.right)
    if isinstance(f, fm.Iff):
        le, re = classical_topo_ext(m, f.left), classical_topo_ext(m, f.right)
        return (le & re) | (universe - le - re)
    body = classical_topo_ext(m, f.body)
    if f.agent == "a":
        carrier, image, opposite = m.a, m.image_a, m.b
    else:
        carrier, image, opposite = m.b, m.image_b, m.a
    if isinstance(f, fm.TBel):
        return frozenset(x for x in carrier if image[x] <= body)
    if isinstance(f, fm.TAsm):
        return frozenset(x for x in carrier if image[x] == body & opposite)
    return frozenset(x for x in carrier if image[x] & body)


def _closure(tau, s) -> frozenset:
    """Closure from the definition: the intersection of the closed supersets."""
    result = set(tau.carrier)
    for c in tau.closed:
        if s <= c:
            result &= c
    return frozenset(result)


def topo_truth(m: ParaTopoModel, f: fm.Formula, x: str) -> bool:
    """Oracle: paraconsistent-topological truth at one state.

    ``~`` and the diagonal use the closure above, not the library's
    negation: ``~phi`` holds at x when x lies in the closure of the states
    of x's carrier that falsify phi, and ``Dt`` holds at x in A when x lies
    in the closure of A minus tB(y) for every y in tA(x).
    """
    if isinstance(f, fm.Atom):
        return x in m.val.get(f.name, frozenset())
    if isinstance(f, fm.Top):
        return True
    if isinstance(f, fm.Bot):
        return False
    if isinstance(f, fm.Ua):
        return x in m.a
    if isinstance(f, fm.Ub):
        return x in m.b
    if isinstance(f, fm.Dtopo):
        return x in m.a and all(x in _closure(m.tau_a, m.a - m.image_b[y])
                                for y in m.image_a[x])
    if isinstance(f, fm.Not):
        return not topo_truth(m, f.body, x)
    if isinstance(f, fm.Pneg):
        tau = m.tau_a if x in m.a else m.tau_b
        falsifiers = frozenset(y for y in tau.carrier if not topo_truth(m, f.body, y))
        return x in _closure(tau, falsifiers)
    if isinstance(f, fm.And):
        return topo_truth(m, f.left, x) and topo_truth(m, f.right, x)
    if isinstance(f, fm.Or):
        return topo_truth(m, f.left, x) or topo_truth(m, f.right, x)
    if isinstance(f, fm.Imp):
        return not topo_truth(m, f.left, x) or topo_truth(m, f.right, x)
    if isinstance(f, fm.Iff):
        return topo_truth(m, f.left, x) == topo_truth(m, f.right, x)
    if f.agent == "a":
        carrier, image, opposite = m.a, m.image_a, m.b
    else:
        carrier, image, opposite = m.b, m.image_b, m.a
    if x not in carrier:
        return False
    if isinstance(f, fm.TBel):
        return all(topo_truth(m, f.body, y) for y in image[x])
    if isinstance(f, fm.TDia):
        return any(topo_truth(m, f.body, y) for y in image[x])
    return all((y in image[x]) == topo_truth(m, f.body, y) for y in opposite)


def random_paratopo(rng: random.Random) -> ParaTopoModel:
    """Random topologies on carriers of two or three points, each image a
    random closed set of the opposite topology, and atoms p and q."""
    a = [f"a{i}" for i in range(rng.randint(2, 3))]
    b = [f"b{i}" for i in range(rng.randint(2, 3))]
    tau_a = rng.choice(list(enumerate_topologies(a)))
    tau_b = rng.choice(list(enumerate_topologies(b)))
    closed_a = sorted(tau_a.closed, key=sorted)
    closed_b = sorted(tau_b.closed, key=sorted)
    t_a = [(x, y) for x in a for y in rng.choice(closed_b)]
    t_b = [(y, x) for y in b for x in rng.choice(closed_a)]
    val = {atom: [s for s in a + b if rng.random() < 0.5] for atom in ("p", "q")}
    return ParaTopoModel(tau_a, tau_b, t_a, t_b, val)


def random_hyperset(rng: random.Random, max_nodes: int,
                    allow_overlap: bool = False) -> HypersetModel:
    k = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(k)]
    urelements = [n for n in names if rng.random() < 0.2]
    mem = [(w, v) for w in names for v in names
           if w not in urelements and rng.random() < 0.4]
    types = [rng.choice(("a", "b", "ab") if allow_overlap else ("a", "b"))
             for _ in names]
    val = {"p": [n for n in names if rng.random() < 0.5]}
    return HypersetModel(
        nodes=names, mem=mem,
        ua=[n for n, t in zip(names, types) if "a" in t],
        ub=[n for n, t in zip(names, types) if "b" in t],
        urelements=urelements, val=val,
        disjoint_types=not allow_overlap)


def _node_label(m: HypersetModel, w: str) -> tuple:
    return (w in m.urelements, w in m.ua, w in m.ub,
            frozenset(name for name, sts in m.val.items() if w in sts))


def bisimulation(m1: HypersetModel, m2: HypersetModel) -> set:
    """Oracle: the largest labeled bisimulation between the nodes of m1 and
    m2, by removing the pairs that fail to transfer until none does.
    Within one model (``m1 == m2``, an equal copy included) distinct
    urelements are distinct atoms; across models urelements match when
    their labels do."""
    same = m1 == m2
    pairs = {(a, b) for a in m1.nodes for b in m2.nodes
             if _node_label(m1, a) == _node_label(m2, b)
             and not (same and a in m1.urelements and a != b)}

    def transfer(a: str, b: str) -> bool:
        return (all(any((x, y) in pairs for y in m2.members(b)) for x in m1.members(a))
                and all(any((x, y) in pairs for x in m1.members(a)) for y in m2.members(b)))

    changed = True
    while changed:
        changed = False
        for a, b in sorted(pairs):
            if not transfer(a, b):
                pairs.discard((a, b))
                changed = True
    return pairs


def random_kripke(rng: random.Random, max_states: int,
                  strict: bool = True) -> KripkeModel:
    k = rng.randint(1, max_states)
    names = [f"s{i}" for i in range(k)]
    ua = [n for n in names if rng.random() < 0.5]
    ub = [n for n in names if n not in ua]
    if strict:
        candidates = [(x, y) for x in names for y in names
                      if (x in ua) != (y in ua)]
    else:
        candidates = [(x, y) for x in names for y in names]
    rel = [pair for pair in candidates if rng.random() < 0.4]
    return KripkeModel(states=names, rel=rel, ua=ua, ub=ub,
                       val={"p": [n for n in names if rng.random() < 0.5]},
                       strict=strict)
