"""Command line front end.

Exit codes: 0 the command ran (findings included), 1 a fixture claim
failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import TARGETS
from . import formula as fm
from . import hyperset, kripke, lawvere, paratopo
from .modelio import ModelFormatError, load_model

EXIT_OK = 0
EXIT_FIXTURE_FAILURE = 1
EXIT_INPUT_ERROR = 2


class SystemExit2(Exception):
    """Input errors that should exit with status 2."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit2(f"cannot read {path}: {exc}")


def _cmd_parse(args) -> int:
    status = EXIT_OK
    for number, line in enumerate(_read(args.file).splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            print(fm.to_text(fm.parse(body)))
        except fm.ParseError as exc:
            print(f"line {number}: {exc}", file=sys.stderr)
            status = EXIT_INPUT_ERROR
    return status


def _load(path: str):
    try:
        return load_model(_read(path))
    except ModelFormatError as exc:
        raise SystemExit2(f"{path}: {exc}")


def _cmd_check(args) -> int:
    model = _load(args.model)
    try:
        f = fm.parse(args.formula)
    except fm.ParseError as exc:
        raise SystemExit2(str(exc))
    try:
        if isinstance(model, kripke.KripkeModel):
            ext = kripke.extension(model, f, heart=args.heart)
            universe = model.states
        elif isinstance(model, hyperset.HypersetModel):
            ext = hyperset.nwf_extension(model, f)
            universe = model.nodes
        else:
            ext = paratopo.evaluate(model, f)
            universe = model.universe
    except fm.LanguageError as exc:
        raise SystemExit2(str(exc))
    print(f"extension: {' '.join(sorted(ext)) if ext else '(empty)'}")
    print(f"satisfiable: {bool(ext)}")
    print(f"valid: {ext == universe}")
    return EXIT_OK


def _cmd_holes(args) -> int:
    model = _load(args.model)
    if isinstance(model, kripke.KripkeModel):
        report = kripke.find_holes(model, heart=args.heart)
    elif isinstance(model, hyperset.HypersetModel):
        report = hyperset.nwf_find_holes(model)
    else:
        raise SystemExit2("hole scanning applies to kripke and nwf models")
    for slot in report.slots:
        print(f"{slot.label}: {'HOLE' if slot.is_hole else 'no hole'}"
              f" (assume/believe witnesses: ab={list(slot.witness_ab)}"
              f" ba={list(slot.witness_ba)})")
    print(f"any hole: {report.any_hole}")
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    from . import harness
    report = harness.verify_fixtures()
    print(report.text, end="")
    return EXIT_OK if report.ok else EXIT_FIXTURE_FAILURE


def _cmd_campaign(args) -> int:
    from . import harness
    campaign = harness.Campaign(
        target=args.target,
        max_size=args.max_states,
        strict=args.strict,
        heart=args.heart,
        serial=args.serial,
    )
    try:
        report = harness.run_campaign(campaign)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    print(report.text, end="")
    return EXIT_OK


def _cmd_lawvere(args) -> int:
    try:
        result = lawvere.search_wps(args.size_a, args.size_y)
    except ValueError as exc:
        raise SystemExit2(str(exc))
    if result.witness is None:
        print(f"exhausted {result.candidates_checked} candidates: "
              "no weakly point-surjective map")
    else:
        print(f"witness after {result.candidates_checked} candidates: "
              f"rows={result.witness.rows}")
        fp = lawvere.check_fixed_point_property(result.witness)
        for case in fp.cases:
            print(f"endomap {case.endomap}: fixed point {case.fixed_point} "
                  f"(represented at {case.representing_point})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bkw",
        description="finite-model workbench for interactive belief structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse formulas, one per line")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("check", help="evaluate a formula on a model file")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--heart-local", dest="heart", action="store_const",
                   const="local", default="frame",
                   help="assumption biconditional restricted to the opposite type space")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("holes", help="run the seven-slot hole scan on a model file")
    p.add_argument("model")
    p.add_argument("--heart-local", dest="heart", action="store_const",
                   const="local", default="frame")
    p.set_defaults(handler=_cmd_holes)

    p = sub.add_parser("fixtures", help="verify every named fixture's claims")
    p.set_defaults(handler=_cmd_fixtures)

    p = sub.add_parser("campaign", help="sweep a claim across an enumerated space")
    p.add_argument("target", choices=TARGETS)
    p.add_argument("--max-states", type=int, default=3)
    p.add_argument("--strict", action=argparse.BooleanOptionalAction, default=True)
    heart = p.add_mutually_exclusive_group()
    heart.add_argument("--heart-frame", dest="heart", action="store_const",
                       const="frame", default="frame")
    heart.add_argument("--heart-local", dest="heart", action="store_const",
                       const="local")
    p.add_argument("--serial", action="store_true", default=False)
    p.set_defaults(handler=_cmd_campaign)

    p = sub.add_parser("lawvere", help="scan for weakly point-surjective maps")
    p.add_argument("--sizeA", dest="size_a", type=int, required=True)
    p.add_argument("--sizeY", dest="size_y", type=int, required=True)
    p.set_defaults(handler=_cmd_lawvere)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except RecursionError:
        # last resort: a formula too deeply nested for the recursive compiler
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
