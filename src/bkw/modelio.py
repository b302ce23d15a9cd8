"""Line-based model files for the three model kinds.

A file starts with a header line (``kripke``, ``nwf`` or ``paratopo``),
followed by ``key: values`` declarations.  ``#`` starts a comment,
identifiers are whitespace-separated, arrows write pairs (``x->y``),
braces write sets (``{x y}``).  Duplicate declarations, and a source
named twice in an image map (``tA``, ``tB``), are errors.
"""

from __future__ import annotations

import re

from . import formula as fm
from .hyperset import HypersetModel
from .kripke import KripkeModel
from .paratopo import ParaTopoModel
from .topology import ClosedTopology

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ModelFormatError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _logical_lines(text: str) -> list[tuple[int, str]]:
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((number, body))
    return lines


def _split_decl(line: str, number: int) -> tuple[str, str]:
    if ":" not in line:
        raise ModelFormatError(f"expected 'key: values', got {line!r}", number)
    key, _, value = line.partition(":")
    return key.strip(), value.strip()


def _idents(value: str, number: int) -> list[str]:
    names = value.split()
    for name in names:
        if not _IDENT.match(name):
            raise ModelFormatError(f"bad identifier {name!r}", number)
    return names


def _pairs(value: str, number: int) -> list[tuple[str, str]]:
    pairs = []
    for chunk in value.split():
        if "->" not in chunk:
            raise ModelFormatError(f"expected 'x->y', got {chunk!r}", number)
        left, _, right = chunk.partition("->")
        for name in (left, right):
            if not _IDENT.match(name):
                raise ModelFormatError(f"bad identifier {name!r}", number)
        pairs.append((left, right))
    return pairs


def _brace_sets(value: str, number: int) -> list[frozenset]:
    sets = []
    rest = value
    while rest.strip():
        rest = rest.lstrip()
        if not rest.startswith("{"):
            raise ModelFormatError(f"expected a brace set, got {rest!r}", number)
        end = rest.find("}")
        if end < 0:
            raise ModelFormatError("unterminated brace set", number)
        sets.append(frozenset(_idents(rest[1:end], number)))
        rest = rest[end + 1:]
    return sets


def _image_map(value: str, number: int) -> list[tuple[str, frozenset]]:
    entries = []
    for chunk in re.findall(r"\S+->\{[^}]*\}", value):
        source, _, braced = chunk.partition("->")
        if not _IDENT.match(source):
            raise ModelFormatError(f"bad identifier {source!r}", number)
        if any(source == seen for seen, _ in entries):
            raise ModelFormatError(f"source {source!r} is given twice", number)
        entries.append((source, _brace_sets(braced, number)[0]))
    leftovers = re.sub(r"\S+->\{[^}]*\}", "", value).strip()
    if leftovers:
        raise ModelFormatError(f"expected 'x->{{...}}' entries, got {leftovers!r}", number)
    return entries


def _check_atom(name: str, number: int) -> None:
    if name in fm.RESERVED_WORDS:
        raise ModelFormatError(f"atom name {name!r} is reserved", number)


class _Declarations:
    """Key->value store that rejects duplicates."""

    def __init__(self, lines: list[tuple[int, str]]):
        self.decls: dict[str, tuple[int, str]] = {}
        self.flags: set[str] = set()
        self.val: dict[str, tuple[int, str]] = {}
        for number, line in lines:
            if ":" not in line:
                if line in self.flags:
                    raise ModelFormatError(f"duplicate flag {line!r}", number)
                self.flags.add(line)
                continue
            key, value = _split_decl(line, number)
            if key.startswith("val "):
                atom = key[4:].strip()
                if not _IDENT.match(atom):
                    raise ModelFormatError(f"bad atom name {atom!r}", number)
                _check_atom(atom, number)
                if atom in self.val:
                    raise ModelFormatError(f"duplicate valuation for {atom!r}", number)
                self.val[atom] = (number, value)
            else:
                if key in self.decls:
                    raise ModelFormatError(f"duplicate declaration {key!r}", number)
                self.decls[key] = (number, value)

    def take(self, key: str, required: bool = False) -> tuple[int, str] | None:
        if key not in self.decls:
            if required:
                raise ModelFormatError(f"missing declaration {key!r}", 0)
            return None
        return self.decls.pop(key)

    def finish(self, header: str) -> None:
        for key, (number, _) in self.decls.items():
            raise ModelFormatError(f"unknown declaration {key!r} in a {header} file", number)


def load_model(text: str) -> KripkeModel | HypersetModel | ParaTopoModel:
    lines = _logical_lines(text)
    if not lines:
        raise ModelFormatError("empty model file", 0)
    number, header = lines[0]
    loader = {"kripke": _load_kripke, "nwf": _load_nwf, "paratopo": _load_paratopo}.get(header)
    if loader is None:
        raise ModelFormatError(f"unknown model header {header!r}", number)
    try:
        return loader(_Declarations(lines[1:]))
    except ValueError as exc:
        if isinstance(exc, ModelFormatError):
            raise
        raise ModelFormatError(str(exc), number) from exc


def _valuation(decls: _Declarations) -> dict[str, list[str]]:
    return {atom: _idents(value, number)
            for atom, (number, value) in sorted(decls.val.items())}


def _load_kripke(decls: _Declarations) -> KripkeModel:
    number, states = decls.take("states", required=True)
    ua = decls.take("Ua", required=True)
    ub = decls.take("Ub", required=True)
    rel = decls.take("P")
    strict = "non-strict" not in decls.flags
    decls.flags.discard("non-strict")
    for flag in decls.flags:
        raise ModelFormatError(f"unknown flag {flag!r}", 0)
    decls.finish("kripke")
    return KripkeModel(
        states=_idents(states, number),
        rel=_pairs(rel[1], rel[0]) if rel else [],
        ua=_idents(ua[1], ua[0]),
        ub=_idents(ub[1], ub[0]),
        val=_valuation(decls),
        strict=strict,
    )


def _load_nwf(decls: _Declarations) -> HypersetModel:
    number, states = decls.take("states", required=True)
    ua = decls.take("Ua", required=True)
    ub = decls.take("Ub", required=True)
    mem = decls.take("mem")
    ure = decls.take("urelements")
    allow_overlap = "allow-overlap" in decls.flags
    decls.flags.discard("allow-overlap")
    for flag in decls.flags:
        raise ModelFormatError(f"unknown flag {flag!r}", 0)
    decls.finish("nwf")
    return HypersetModel(
        nodes=_idents(states, number),
        mem=_pairs(mem[1], mem[0]) if mem else [],
        ua=_idents(ua[1], ua[0]),
        ub=_idents(ub[1], ub[0]),
        urelements=_idents(ure[1], ure[0]) if ure else [],
        val=_valuation(decls),
        disjoint_types=not allow_overlap,
    )


def _load_paratopo(decls: _Declarations) -> ParaTopoModel:
    number_a, a = decls.take("A", required=True)
    number_b, b = decls.take("B", required=True)
    closed_a = decls.take("closedA", required=True)
    closed_b = decls.take("closedB", required=True)
    t_a = decls.take("tA")
    t_b = decls.take("tB")
    for flag in decls.flags:
        raise ModelFormatError(f"unknown flag {flag!r}", 0)
    decls.finish("paratopo")
    tau_a = ClosedTopology.make(_idents(a, number_a), _brace_sets(closed_a[1], closed_a[0]))
    tau_b = ClosedTopology.make(_idents(b, number_b), _brace_sets(closed_b[1], closed_b[0]))
    pairs_a = []
    for x, image in (_image_map(t_a[1], t_a[0]) if t_a else []):
        pairs_a.extend((x, y) for y in sorted(image))
    pairs_b = []
    for y, image in (_image_map(t_b[1], t_b[0]) if t_b else []):
        pairs_b.extend((y, x) for x in sorted(image))
    return ParaTopoModel(tau_a, tau_b, pairs_a, pairs_b, val=_valuation(decls))


def _dump_val(val: dict) -> list[str]:
    return [f"val {name}: {' '.join(sorted(states))}"
            for name, states in sorted(val.items())]


def dump_kripke(m: KripkeModel) -> str:
    lines = [
        "kripke",
        f"states: {' '.join(sorted(m.states))}",
        f"Ua: {' '.join(sorted(m.ua))}",
        f"Ub: {' '.join(sorted(m.ub))}",
        "P: " + " ".join(f"{x}->{y}" for x, y in sorted(m.rel)) if m.rel else "P:",
    ]
    if not m.strict:
        lines.append("non-strict")
    lines += _dump_val(m.val)
    return "\n".join(line.rstrip() for line in lines) + "\n"


def dump_nwf(m: HypersetModel) -> str:
    lines = [
        "nwf",
        f"states: {' '.join(sorted(m.nodes))}",
    ]
    if m.urelements:
        lines.append(f"urelements: {' '.join(sorted(m.urelements))}")
    lines.append(f"mem: {' '.join(f'{w}->{v}' for w, v in sorted(m.mem))}" if m.mem
                 else "mem:")
    lines.append(f"Ua: {' '.join(sorted(m.ua))}")
    lines.append(f"Ub: {' '.join(sorted(m.ub))}")
    if not m.disjoint_types:
        lines.append("allow-overlap")
    lines += _dump_val(m.val)
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _dump_family(closed) -> str:
    parts = []
    for c in sorted(closed, key=lambda s: (len(s), tuple(sorted(s)))):
        parts.append("{" + " ".join(sorted(c)) + "}")
    return " ".join(parts)


def dump_paratopo(m: ParaTopoModel) -> str:
    lines = [
        "paratopo",
        f"A: {' '.join(sorted(m.a))}",
        f"B: {' '.join(sorted(m.b))}",
        f"closedA: {_dump_family(m.tau_a.closed)}",
        f"closedB: {_dump_family(m.tau_b.closed)}",
        "tA: " + " ".join(f"{x}->{{{' '.join(sorted(m.image_a[x]))}}}"
                          for x in sorted(m.a)),
        "tB: " + " ".join(f"{y}->{{{' '.join(sorted(m.image_b[y]))}}}"
                          for y in sorted(m.b)),
    ]
    lines += _dump_val(m.val)
    return "\n".join(line.rstrip() for line in lines) + "\n"


def dump_model(m) -> str:
    if isinstance(m, KripkeModel):
        return dump_kripke(m)
    if isinstance(m, HypersetModel):
        return dump_nwf(m)
    if isinstance(m, ParaTopoModel):
        return dump_paratopo(m)
    raise TypeError(f"not a model: {m!r}")
