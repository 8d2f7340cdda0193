"""Command-line front end.

Commands: verify, analyze, classify, subrings, iso, catalog, enumerate,
solve-cos. Report-producing commands take --json for machine output; JSON
reports use sorted keys and floats rounded to 12 significant digits so that
byte-identical output is reproducible, and _emit writes them with
ringfile.json_text, the package's one JSON writer. Exit status: 0 success,
1 domain error or failed verdict (axiom violations, refuted claims, not
isomorphic), 2 command-line usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

import numpy as np

from . import catalog, groups as gr, structure as st
from .classify import classify, verify_claims
from .numerics import (COS_TARGET, ConvergenceError, _fmt, fp_dimensions, solve_cos_equation,
                       type_signature)
from .ring import StructuralError, _require_valid, find_isomorphism, verify_axioms
from .ringfile import RingFormatError, json_text, parse_ring, ring_to_document, serialize_ring


class CliError(Exception):
    """Domain failure reported on stderr with exit status 1."""


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _emit(report: dict) -> None:
    print(json_text(report))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"cannot read {path}: not UTF-8 text ({exc})") from None


def _load_ring(path: str):
    try:
        return parse_ring(_read_text(path))
    except RingFormatError as exc:
        raise CliError(f"{path}: {exc}") from None


def _gated(ring, path: str):
    try:
        _require_valid(ring)
    except StructuralError as exc:
        raise CliError(f"{path}: {exc}") from None
    return ring


def _load_valid_ring(path: str):
    return _gated(_load_ring(path), path)


# ----------------------------------------------------------------- commands

def _cmd_verify(args) -> int:
    ring = _load_ring(args.ringfile)
    violations = verify_axioms(ring)
    if args.json:
        _emit({
            "report": "verify",
            "rank": ring.rank,
            "ok": not violations,
            "violations": [{"axiom": v.axiom, "at": list(v.at)} for v in violations],
        })
    elif violations:
        for v in violations:
            print(v)
        print(f"FAIL: {len(violations)} axiom violation(s)")
    else:
        print(f"ok: all fusion-ring axioms hold (rank {ring.rank})")
    return 1 if violations else 0


def _cmd_analyze(args) -> int:
    ring = _load_valid_ring(args.ringfile)
    data = fp_dimensions(ring)
    sig = type_signature(ring)
    group, emb = st.invertibles(ring)
    grading = st.universal_grading(ring)
    adjoint = st.adjoint_subring(ring)
    nil = st.nilpotency(ring)
    faithful, cyclic = st.faithful_simples(ring)

    if args.json:
        _emit({
            "report": "analyze",
            "rank": ring.rank,
            "commutative": ring.is_commutative(),
            "type": sig.text(),
            "total": float(_fmt(data.total)),
            "dims": [
                {"index": i, "label": ring.label(i),
                 "value": float(_fmt(data.dims[i])), "tag": data.recognized[i]}
                for i in range(ring.rank)
            ],
            "invertibles": {"order": group.order,
                            "name": gr.identify_group(group),
                            "members": list(emb)},
            "grading": {"order": grading.group.order,
                        "name": gr.identify_group(grading.group),
                        "components": [list(c) for c in grading.components]},
            "adjoint": list(adjoint.members),
            "nilpotency": nil,
            "faithful_simples": list(faithful),
            "grading_cyclic": cyclic,
        })
        return 0

    print(f"rank: {ring.rank}")
    print(f"commutative: {_yesno(ring.is_commutative())}")
    print(f"type: {sig.text()}")
    print(f"FPdim total: {_fmt(data.total)}")
    print("dimensions:")
    for i in range(ring.rank):
        tag = f" = {data.recognized[i]}" if data.recognized[i] else ""
        print(f"  {i}: {_fmt(data.dims[i])}{tag}  [{ring.label(i)}]")
    print(f"invertibles: order {group.order}, {gr.identify_group(group)}, "
          f"members {list(emb)}")
    print(f"universal grading: order {grading.group.order}, "
          f"{gr.identify_group(grading.group)}")
    for cid, comp in enumerate(grading.components):
        print(f"  component {grading.group.element_name(cid)}: {list(comp)}")
    print(f"adjoint subring: {list(adjoint.members)}")
    print(f"nilpotency class: {nil if nil is not None else 'none (not nilpotent)'}")
    print(f"faithful simples: {list(faithful)} (grading cyclic: {_yesno(cyclic)})")
    return 0


def _cmd_classify(args) -> int:
    ring = _load_valid_ring(args.ringfile)
    cls = classify(ring)
    reports = verify_claims(ring)
    counts = {status: sum(1 for r in reports if r.status == status)
              for status in ("verified", "refuted", "inapplicable")}

    if args.json:
        _emit({
            "report": "classify",
            "rank": ring.rank,
            "type": cls.signature.text(),
            "flags": list(cls.flags()),
            "evidence": cls.evidence,
            "claims": [{"claim": r.claim, "status": r.status, "scope": r.scope,
                        "detail": r.detail} for r in reports],
            "counts": counts,
        })
    else:
        flags = ", ".join(cls.flags()) if cls.flags() else "(none)"
        print(f"flags: {flags}")
        print(f"type: {cls.signature.text()}")
        print("claims:")
        for r in reports:
            scope = r.scope
            line = f"  {r.status:<13}[{scope}] {r.claim}"
            if r.status == "refuted" and r.detail:
                line += f"  {r.detail}"
            print(line)
        print(f"summary: {counts['verified']} verified, {counts['refuted']} refuted, "
              f"{counts['inapplicable']} inapplicable")
    return 1 if counts["refuted"] else 0


def _cmd_subrings(args) -> int:
    ring = _load_valid_ring(args.ringfile)
    try:
        subs = st.all_subrings(ring)
    except ValueError as exc:  # the rank limit
        raise CliError(f"{args.ringfile}: {exc}") from None
    if args.json:
        _emit({
            "report": "subrings",
            "rank": ring.rank,
            "count": len(subs),
            "subrings": [{"members": list(s.members), "rank": s.rank,
                          "pointed": s.pointed} for s in subs],
        })
    else:
        print(f"subrings: {len(subs)}")
        for s in subs:
            kind = "pointed" if s.pointed else "non-pointed"
            print(f"  rank {s.rank:<3}{kind:<12}{list(s.members)}")
    return 0


def _cmd_iso(args) -> int:
    first = _load_valid_ring(args.ringfile)
    second = _load_ring(args.other)
    perm = find_isomorphism(first, second)
    # A found map s fixes the unit, commutes with the duals (each search step
    # assigns a dual pair) and passes _maps_tensor: second is first moved by
    # s, entry for entry, so it passes every axiom first passed. Only without
    # a map can second be invalid, and then the gate gives its error line.
    if perm is None:
        _gated(second, args.other)
    if args.json:
        _emit({
            "report": "iso",
            "isomorphic": perm is not None,
            "map": list(perm) if perm is not None else None,
        })
    elif perm is not None:
        print("isomorphic: " + ", ".join(f"{i}->{p}" for i, p in enumerate(perm)))
    else:
        print("not isomorphic")
    return 0 if perm is not None else 1


def _catalog_ring(name: str, group_name: str | None):
    key = name.lower()
    if key in ("ising", "yang-lee"):
        if group_name is not None:
            raise CliError(f"catalog {key} takes no --group")
        return catalog.ising() if key == "ising" else catalog.yang_lee()
    if key in ("pointed", "yl-ext", "yl-extension"):
        if group_name is None:
            raise CliError(f"catalog {key} requires --group "
                           f"(one of {', '.join(gr.NAMED_GROUPS)})")
        if key == "pointed":
            return catalog.pointed(group_name)
        return catalog.yl_extension(group_name)
    raise CliError(f"unknown catalog name {name!r} "
                   "(choose from: ising, yang-lee, pointed, yl-ext)")


def _cmd_catalog(args) -> int:
    ring = _catalog_ring(args.name, args.group)
    text = serialize_ring(ring)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)
    return 0


def _cmd_enumerate(args) -> int:
    rings = catalog.enumerate_extensions(args.base, args.group)
    entries = []
    for ring in rings:
        entries.append({
            "rank": ring.rank,
            "type": type_signature(ring).text(),
            "invertibles": int(np.count_nonzero(ring.invertible)),
            "ring": ring_to_document(ring),
        })
    if args.json:
        _emit({
            "report": "enumerate",
            "base": args.base,
            "group": args.group,
            "count": len(rings),
            "rings": entries,
        })
    else:
        print(f"{len(rings)} extension ring(s): base {args.base}, "
              f"grading group {args.group}")
        for idx, entry in enumerate(entries):
            print(f"  [{idx}] rank {entry['rank']}, type {entry['type']}, "
                  f"{entry['invertibles']} invertible(s)")
    return 0


def _cmd_solve_cos(args) -> int:
    solutions = solve_cos_equation(args.terms, target=COS_TARGET, bound=args.bound)
    if args.json:
        _emit({
            "report": "solve-cos",
            "terms": args.terms,
            "bound": args.bound,
            "target": float(_fmt(COS_TARGET)),
            "solutions": [list(s) for s in solutions],
        })
    elif not solutions:
        print("no solutions")
    else:
        for sol in solutions:
            print(" ".join(f"{name}={v}" for name, v in zip("abc", sol)))
    return 0


# ------------------------------------------------------------------- parser

def _json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON report")


#: (name, help, ring file arguments, handler) of each command that reads ring files.
_RING_COMMANDS = (
    ("verify", "check the fusion-ring axioms on a ring file", ("ringfile",), _cmd_verify),
    ("analyze", "dimensions, type, grading and related invariants", ("ringfile",), _cmd_analyze),
    ("classify", "family flags and the structural-claim suite", ("ringfile",), _cmd_classify),
    ("subrings", "enumerate all subrings", ("ringfile",), _cmd_subrings),
    ("iso", "search for a basis-preserving ring isomorphism", ("ringfile", "other"), _cmd_iso),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionring",
        description="Toolkit for fusion rings: axiom verification, "
                    "Frobenius-Perron data, gradings, family recognition "
                    "and extension enumeration.")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    for name, text, files, func in _RING_COMMANDS:
        p = sub.add_parser(name, help=text)
        for arg in files:
            p.add_argument(arg)
        _json_flag(p)
        p.set_defaults(func=func)

    p = sub.add_parser("catalog", help="emit a built-in ring as a ring file")
    p.add_argument("name", help="ising | yang-lee | pointed | yl-ext")
    p.add_argument("--group", help=f"group name ({', '.join(gr.NAMED_GROUPS)})")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("enumerate",
                       help="enumerate extension rings over a grading group")
    p.add_argument("--base", required=True, choices=("yang-lee", "pointed-z2"))
    p.add_argument("--group", required=True,
                   help=f"grading group name ({', '.join(gr.NAMED_GROUPS)})")
    _json_flag(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("solve-cos",
                       help="integer solutions of sum of cos^2(pi/a_i) hitting "
                            "the golden target (5+sqrt(5))/8")
    p.add_argument("--terms", type=int, required=True, choices=(2, 3))
    p.add_argument("--bound", type=int, default=100,
                   help="search bound for each denominator (default 100)")
    _json_flag(p)
    p.set_defaults(func=_cmd_solve_cos)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use: parse_args leaves it as it was."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, ConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the final
        # flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the report was written", file=sys.stderr)
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
