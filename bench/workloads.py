"""The benchmark's workloads: each one is a list of public calls per pass.

Every call carries a check that compares its result with a reference
that does not come from the code under test: the stored campaign
``SUMMARY`` objects and fixture report, the topology counts of OEIS
A000798, or the per-state oracle in ``oracle.py``.  Checks run outside
the timed pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from bkw import cli, harness, hyperset, kripke, modelio, paratopo, topology
from bkw import formula as fm

import oracle

REFERENCE = Path(__file__).resolve().parent / "reference"


@dataclass
class Call:
    """One public call: ``fn(*args)``, or ``fn(previous result)`` when ``chain``.

    ``check`` returns a description of what is wrong with the result, or
    None when it agrees with the reference.
    """

    layer: str
    fn: Callable
    args: tuple
    check: Callable[[object], str | None]
    chain: bool = False


def campaign_key(c: harness.Campaign) -> str:
    return (f"{c.target} max_size={c.max_size} strict={c.strict} "
            f"heart={c.heart} serial={c.serial}")


def load_summaries() -> dict:
    return json.loads((REFERENCE / "summaries.json").read_text(encoding="utf-8"))


class Sweep:
    """Exhaustive campaigns at fixed bounds; the same calls on every pass.

    ``probe`` holds calls made only in the traced run, once per round,
    for layers that have no span of their own inside a campaign.
    """

    def __init__(self, campaigns, reference: dict, probe=()):
        self.campaigns = list(campaigns)
        self.reference = reference
        self.probe = list(probe)
        self.summaries: dict[str, dict] = {}

    def calls(self, seed: int, index: int) -> list[Call]:
        return [Call(f"harness.run_campaign.{c.target}", harness.run_campaign, (c,),
                     lambda report, key=campaign_key(c): self._check(key, report))
                for c in self.campaigns]

    def _check(self, key: str, report) -> str | None:
        summary = json.loads(json.dumps(report.summary))
        self.summaries[key] = summary
        expected = self.reference.get(key)
        if summary != expected:
            return f"{key}: SUMMARY {summary} differs from the reference {expected}"
        return None

    def record(self) -> dict:
        return {"summaries": self.summaries}


def _drain_topologies(points: list[str]) -> int:
    return sum(1 for _ in topology.enumerate_topologies(points))


# Number of topologies on n labelled points (OEIS A000798).
TOPOLOGY_COUNTS = (1, 1, 4, 29, 355)


def topology_probe(max_points: int = 4) -> list[Call]:
    return [Call("topology.enumerate_topologies", _drain_topologies,
                 ([f"x{i + 1}" for i in range(n)],),
                 lambda count, n=n: None if count == TOPOLOGY_COUNTS[n]
                 else f"{count} topologies on {n} points, expected {TOPOLOGY_COUNTS[n]}")
            for n in range(max_points + 1)]


def _sweep_campaigns(name: str) -> list[harness.Campaign]:
    C = harness.Campaign
    if name == "membership_sweep":
        return [C("theorem22", 2), C("theorem23", 3), C("validity_lists", 3)]
    if name == "classical_sweep":
        runs = [C(target, 4, strict=strict, heart=heart)
                for target in ("lemma1", "theorem12")
                for strict in (True, False)
                for heart in ("frame", "local")]
        return runs + [C("theorem12", 4, strict=False, serial=True)]
    if name == "topology_laws":
        return [C("adjunction", 4), C("boundary_law", 4), C("lawvere_scan", 3)]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Single-model query stream


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _model_file(m) -> str:
    """Model file text written from the documented format, not by modelio."""
    val = [f"val {a}: {' '.join(sorted(sts))}" for a, sts in sorted(m.val.items())]
    if isinstance(m, kripke.KripkeModel):
        lines = ["kripke", f"states: {' '.join(sorted(m.states))}",
                 f"Ua: {' '.join(sorted(m.ua))}", f"Ub: {' '.join(sorted(m.ub))}",
                 "P: " + " ".join(f"{x}->{y}" for x, y in sorted(m.rel))]
        lines += [] if m.strict else ["non-strict"]
    elif isinstance(m, hyperset.HypersetModel):
        lines = ["nwf", f"states: {' '.join(sorted(m.nodes))}",
                 "mem: " + " ".join(f"{w}->{v}" for w, v in sorted(m.mem)),
                 f"Ua: {' '.join(sorted(m.ua))}", f"Ub: {' '.join(sorted(m.ub))}"]
        lines += [f"urelements: {' '.join(sorted(m.urelements))}"] if m.urelements else []
    else:
        family = lambda t: " ".join("{" + " ".join(sorted(c)) + "}"
                                    for c in sorted(t.closed, key=sorted))
        image = lambda src, rel: " ".join(
            f"{x}->{{{' '.join(sorted(y for w, y in rel if w == x))}}}" for x in sorted(src))
        lines = ["paratopo", f"A: {' '.join(sorted(m.a))}", f"B: {' '.join(sorted(m.b))}",
                 f"closedA: {family(m.tau_a)}", f"closedB: {family(m.tau_b)}",
                 f"tA: {image(m.a, m.t_a)}", f"tB: {image(m.b, m.t_b)}"]
    return "\n".join(lines + val) + "\n"


def _mismatch(what: str, got, expected) -> str | None:
    return None if got == expected else f"{what}: got {got!r}, expected {expected!r}"


def _hole_problem(report, rows) -> str | None:
    got = [(s.label, s.is_hole, s.content_b, s.content_a, s.witness_ab, s.witness_ba)
           for s in report.slots]
    return _mismatch("hole scan", (got, report.any_hole),
                     ([tuple(r) for r in rows], any(r[1] for r in rows)))


class SingleModel:
    """A seeded stream of single-model calls, one fresh input per call.

    ``mix`` fixes how many queries of each kind one pass makes, so every
    pass does the same kinds of work on new inputs; their order is
    shuffled.  The counts in ``MIX`` are not sampled from real traffic.
    They were set so that each of the eleven query groups (parse, to_text,
    nwf_extension, kripke frame and local, paratopo, canonicalize, the
    dump/load round trip, find_holes, nwf_find_holes, verify_fixtures and
    the three CLI commands) took about a ninth to a twelfth of a pass when
    the benchmark was written; README gives the measured shares.  A speed-up
    of any one group then moves ``wall_s`` by about the same amount.  Model
    files for the ``cli.main`` calls are written to ``workdir`` before the
    pass.
    """

    MIX = {"parse": 220, "to_text": 930, "nwf_extension": 260,
           "kripke_frame": 126, "kripke_local": 126, "paratopo": 240,
           "canonicalize": 118, "roundtrip": 86, "find_holes": 22, "nwf_find_holes": 18,
           "verify_fixtures": 6, "cli_check": 2, "cli_holes": 2, "cli_parse": 2}

    def __init__(self, workdir: Path, fixture_text: str, mix: dict | None = None):
        self.workdir = workdir
        self.fixture_text = fixture_text
        self.mix = dict(self.MIX if mix is None else mix)
        self.probe: list[Call] = []

    def record(self) -> dict:
        return {"mix": self.mix}

    def calls(self, seed: int, index: int) -> list[Call]:
        rng = random.Random(f"single_model:{seed}:{index}")
        queries = []
        for kind, count in sorted(self.mix.items()):
            make = getattr(self, f"_q_{kind}")
            queries += [make(rng, f"{kind}{i}") for i in range(count)]
        rng.shuffle(queries)
        return [call for query in queries for call in query]

    # Each _q_* method builds one query: a list of calls made in order.

    def _q_parse(self, rng, tag):
        f = oracle.random_formula(rng, rng.randint(0, 6), "mixed")
        return [Call("formula.parse", fm.parse, (oracle.paren_text(f),),
                     lambda out: _mismatch("parse", out, f))]

    def _q_to_text(self, rng, tag):
        f = oracle.random_formula(rng, rng.randint(0, 6), "mixed")
        return [Call("formula.to_text", fm.to_text, (f,),
                     lambda out: _mismatch(f"parse(to_text) of {out!r}", fm.parse(out), f))]

    def _evaluation(self, layer, fn, m, f, *extra, heart="frame"):
        truth = oracle.Truth(m, heart)
        return [Call(layer, fn, (m, f, *extra),
                     lambda out: _mismatch(f"extension of {oracle.paren_text(f)}",
                                           out, truth.extension(f)))]

    def _q_nwf_extension(self, rng, tag):
        return self._evaluation("hyperset.nwf_extension", hyperset.nwf_extension,
                                oracle.random_hyperset(rng),
                                oracle.random_formula(rng, rng.randint(1, 6), "nwf"))

    def _q_kripke_frame(self, rng, tag, heart="frame"):
        return self._evaluation("kripke.extension", kripke.extension,
                                oracle.random_kripke(rng),
                                oracle.random_formula(rng, rng.randint(1, 6), "kripke"),
                                heart, heart=heart)

    def _q_kripke_local(self, rng, tag):
        return self._q_kripke_frame(rng, tag, heart="local")

    def _paratopo_model(self, rng):
        pick = rng.randrange(10)
        return oracle.bk_topo(discrete=pick == 1) if pick < 2 else oracle.random_paratopo(rng)

    def _q_paratopo(self, rng, tag):
        return self._evaluation("paratopo.evaluate", paratopo.evaluate,
                                self._paratopo_model(rng),
                                oracle.random_formula(rng, rng.randint(1, 6), "topo"))

    def _q_canonicalize(self, rng, tag):
        m = oracle.random_hyperset(rng)
        return [Call("hyperset.canonicalize", hyperset.canonicalize, (m,),
                     lambda out: oracle.quotient_problem(m, *out))]

    def _q_find_holes(self, rng, tag):
        m, heart = oracle.random_kripke(rng), rng.choice(("frame", "local"))
        rows = lambda: oracle.hole_rows(oracle.Truth(m, heart), fm.Dclass())
        return [Call("kripke.find_holes", kripke.find_holes, (m, heart),
                     lambda out: _hole_problem(out, rows()))]

    def _q_nwf_find_holes(self, rng, tag):
        m = oracle.random_hyperset(rng)
        rows = lambda: oracle.hole_rows(oracle.Truth(m), fm.Dplus())
        return [Call("hyperset.nwf_find_holes", hyperset.nwf_find_holes, (m,),
                     lambda out: _hole_problem(out, rows()))]

    def _q_roundtrip(self, rng, tag):
        m = rng.choice((oracle.random_kripke, oracle.random_hyperset,
                        self._paratopo_model))(rng)
        fields = oracle.model_fields(m)
        return [Call("modelio.dump_model", modelio.dump_model, (m,),
                     lambda out: _mismatch("dump header", out.split("\n", 1)[0], fields[0])),
                Call("modelio.load_model", modelio.load_model, (), chain=True,
                     check=lambda out: _mismatch("round trip", oracle.model_fields(out),
                                                 fields))]

    def _q_verify_fixtures(self, rng, tag):
        return [Call("harness.verify_fixtures", harness.verify_fixtures, (),
                     lambda out: _mismatch("fixture report", (out.ok, out.text),
                                           (True, self.fixture_text)))]

    def _q_cli_parse(self, rng, tag):
        path = self.workdir / f"{tag}.txt"
        formulas = [oracle.random_formula(rng, rng.randint(0, 6), "mixed") for _ in range(5)]
        path.write_text("".join(oracle.paren_text(f) + "\n" for f in formulas),
                        encoding="utf-8")
        return [Call("cli.main", run_cli, (["parse", str(path)],),
                     lambda out: _mismatch("bkw parse", (out[0], [
                         fm.parse(line) for line in out[1].splitlines()]), (0, formulas)))]

    def _q_cli_check(self, rng, tag):
        return self._cli_model_query(rng, tag, "check", ("kripke", "nwf", "topo"))

    def _q_cli_holes(self, rng, tag):
        return self._cli_model_query(rng, tag, "holes", ("kripke", "nwf"))

    def _cli_model_query(self, rng, tag, command, kinds):
        kind = rng.choice(kinds)
        m = {"kripke": oracle.random_kripke, "nwf": oracle.random_hyperset,
             "topo": self._paratopo_model}[kind](rng)
        heart = rng.choice(("frame", "local")) if kind == "kripke" else "frame"
        path = self.workdir / f"{tag}.txt"
        path.write_text(_model_file(m), encoding="utf-8")
        argv = [command, str(path)] + (["--heart-local"] if heart == "local" else [])
        truth = oracle.Truth(m, heart)
        if command == "holes":
            diagonal = fm.Dclass() if kind == "kripke" else fm.Dplus()
            expected = lambda: oracle.holes_cli_text(oracle.hole_rows(truth, diagonal))
        else:
            f = oracle.random_formula(rng, rng.randint(1, 6), kind)
            argv.insert(2, oracle.paren_text(f))
            expected = lambda: oracle.check_cli_text(truth.extension(f), truth.points)
        return [Call("cli.main", run_cli, (argv,),
                     lambda out: _mismatch(f"bkw {' '.join(argv)}", out, (0, expected())))]


def make(name: str, workdir: Path):
    """The named workload at its benchmark size."""
    if name == "single_model":
        text = (REFERENCE / "fixtures.txt").read_text(encoding="utf-8")
        return SingleModel(workdir, text)
    probe = topology_probe() if name == "topology_laws" else ()
    return Sweep(_sweep_campaigns(name), load_summaries(), probe)
