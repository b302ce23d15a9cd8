"""Finite verification of the diagonal fixed-point argument.

A self-map assignment g: A -> (A -> Y) is weakly point-surjective when
every total map A -> Y is one of the g(x).  In that case every endomap
f: Y -> Y gains a fixed point: represent p(y) = f(g(y)(y)) by some x and
evaluate at x itself.  On carriers with |Y| >= 2 weak point-surjectivity
is impossible (there are |Y|^|A| > |A| maps), which is the finite shadow
of the classical impossibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct


@dataclass(frozen=True)
class FiniteSelfMap:
    """Carriers A, Y and g: A -> Y^A, with g(domain[i]) stored as row i."""

    domain: tuple
    codomain: tuple
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for name, carrier in (("domain", self.domain), ("codomain", self.codomain)):
            for i, x in enumerate(carrier):
                if carrier.index(x) < i:
                    raise ValueError(f"{name} element {x!r} is repeated")
        if len(self.rows) != len(self.domain):
            raise ValueError("one row per domain element required")
        for row in self.rows:
            if len(row) != len(self.domain):
                raise ValueError("each row must be a total map on the domain")
            for value in row:
                if value not in self.codomain:
                    raise ValueError(f"value {value!r} is not in the codomain")

    def apply(self, x, y):
        """g(x)(y)."""
        return self.rows[self.domain.index(x)][self.domain.index(y)]


@dataclass(frozen=True)
class WpsResult:
    is_wps: bool
    unrepresented: tuple | None


def is_weakly_point_surjective(s: FiniteSelfMap) -> WpsResult:
    """Does some point represent every total map domain -> codomain?"""
    represented = set(s.rows)
    for p in iproduct(s.codomain, repeat=len(s.domain)):
        if p not in represented:
            return WpsResult(is_wps=False, unrepresented=p)
    return WpsResult(is_wps=True, unrepresented=None)


@dataclass(frozen=True)
class FixedPointCase:
    endomap: tuple
    representing_point: object
    fixed_point: object


@dataclass(frozen=True)
class FixedPointReport:
    applicable: bool
    cases: tuple[FixedPointCase, ...]
    violations: tuple


def check_fixed_point_property(s: FiniteSelfMap) -> FixedPointReport:
    """For a weakly point-surjective s, exhibit a fixed point of every endomap.

    The diagonal map p(y) = f(g(y)(y)) is represented by some x; then
    g(x)(x) is fixed by f.  Not applicable when s is not weakly
    point-surjective.
    """
    if not is_weakly_point_surjective(s).is_wps:
        return FixedPointReport(applicable=False, cases=(), violations=())
    n = len(s.domain)
    cases = []
    violations = []
    for f_values in iproduct(s.codomain, repeat=len(s.codomain)):
        f = dict(zip(s.codomain, f_values))
        p = tuple(f[s.rows[i][i]] for i in range(n))
        x_index = s.rows.index(p)
        candidate = s.rows[x_index][x_index]
        if f[candidate] != candidate:
            violations.append((f_values, candidate))
        else:
            cases.append(FixedPointCase(
                endomap=f_values,
                representing_point=s.domain[x_index],
                fixed_point=candidate))
    return FixedPointReport(applicable=True, cases=tuple(cases),
                            violations=tuple(violations))


@dataclass(frozen=True)
class SearchResult:
    witness: FiniteSelfMap | None
    candidates_checked: int

    @property
    def exhausted(self) -> bool:
        return self.witness is None


def _first_cover(size_a: int, size_y: int) -> tuple[tuple | None, int]:
    """The first candidate covering every map and the count up to it, or (None, all)."""
    if size_y == 1:
        return (0,) * size_a, 1
    return None, (size_y ** size_a) ** size_a


def search_wps(size_a: int, size_y: int) -> SearchResult:
    """The first weakly point-surjective g on carriers of the given sizes
    in lexicographic order of its rows, or exhaustion of all (|Y|^|A|)^|A|:
    |A| rows name at most |A| of the |Y|^|A| maps, and |Y|^|A| > |A|
    whenever |Y| >= 2, while at |Y| = 1 the first g covers the one map.
    The witness is confirmed by ``is_weakly_point_surjective``."""
    if not (1 <= size_a <= 3 and 1 <= size_y <= 3):
        raise ValueError("search is guarded to carrier sizes 1..3")
    rows, checked = _first_cover(size_a, size_y)
    if rows is None:
        return SearchResult(witness=None, candidates_checked=checked)
    all_rows = list(iproduct(range(size_y), repeat=size_a))
    s = FiniteSelfMap(domain=tuple(range(size_a)), codomain=tuple(range(size_y)),
                      rows=tuple(all_rows[r] for r in rows))
    if not is_weakly_point_surjective(s).is_wps:
        raise RuntimeError(f"row indices {rows} cover every map, "
                           "but their rows are not weakly point-surjective")
    return SearchResult(witness=s, candidates_checked=checked)
