"""Seeded inputs, requests and output checks for the benchmark workloads.

Each workload is a list of requests. A request has one or more variants,
the same query on differently relabelled inputs; its k-th sample runs
variant k modulo their number. A variant's ``run`` is the timed call into
fusionring; its ``check`` runs afterwards, outside the timed region, and
returns a failure reason or None. The seed sets every basis and group
relabelling and nothing else is random; the program sees only the
generated ring files (or group objects, for ``enumerate-le8``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import jsonschema
import numpy as np

from fusionring import catalog, cli, groups as gr
from fusionring.ring import FusionRing, verify_axioms
from fusionring.ringfile import ring_to_document

YL_TOTAL = 1.0 + ((1.0 + math.sqrt(5.0)) / 2.0) ** 2   # FPdim total of Yang-Lee
# Relabellings per input where the program's search depends on the labels:
# the time of such a query varies with the labelling, and cycling through a
# few of them in each run keeps one unlucky labelling from setting a run's
# figures.
VARIANTS = 3

# Grading groups of order <= 8 with their pointed-Z2 extension counts.
ENUMERATION_COUNTS = {
    "Z1": 1, "Z2": 3, "Z3": 1, "Z4": 4, "Z2xZ2": 6, "Z5": 1, "Z6": 3, "S3": 3,
    "Z7": 1, "Z8": 4, "Z2xZ4": 14, "Z2xZ2xZ2": 9, "D4": 14, "Q8": 4,
}


@dataclass
class Variant:
    run: Callable[[], Any]                    # timed
    check: Callable[[Any], str | None]        # untimed; failure reason or None


@dataclass
class Request:
    label: str                                # names the input in failure reports
    variants: list[Variant]


# ------------------------------------------------------------ relabelling

def permutation(seed: int, key: str, size: int, force: bool = False) -> list[int]:
    """Map old index -> new index with 0 fixed, drawn from (seed, key).

    Seed 0 gives the identity unless ``force`` is set.
    """
    rest = list(range(1, size))
    if seed or force:
        random.Random(f"{seed}/{key}").shuffle(rest)
    return [0] + rest


def relabel_table(group: gr.FiniteGroup, p: list[int]) -> tuple[tuple[int, ...], ...]:
    m = group.order
    table = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            table[p[a]][p[b]] = p[group.table[a][b]]
    return tuple(tuple(row) for row in table)


def relabel_ring(ring: FusionRing, p: list[int]) -> FusionRing:
    n = np.empty_like(ring.n)
    n[np.ix_(p, p, p)] = ring.n
    dual = [0] * ring.rank
    labels = [""] * ring.rank
    for i in range(ring.rank):
        dual[p[i]] = p[ring.dual[i]]
        labels[p[i]] = ring.label(i)
    return FusionRing(ring.rank, tuple(dual), n, tuple(labels))


def corrupt(ring: FusionRing) -> FusionRing:
    """Move one constituent of the first product x*y (x, y, constituents != unit).

    Unit and duality rows stay intact, so the ring still constructs, while
    Frobenius reciprocity and associativity break.
    """
    n = ring.n.copy()
    for i in range(1, ring.rank):
        for j in range(1, ring.rank):
            row = n[i, j]
            if row[0]:
                continue
            old = int(np.nonzero(row)[0][0])
            new = next(k for k in range(1, ring.rank) if row[k] == 0)
            row[old] -= 1
            row[new] += 1
            return FusionRing(ring.rank, ring.dual, n, ring.labels)
    raise ValueError("ring has no product to corrupt")


def is_isomorphism(r1: FusionRing, r2: FusionRing, perm) -> bool:
    s = np.asarray(perm)
    if sorted(perm) != list(range(r1.rank)) or perm[0] != 0:
        return False
    if not np.array_equal(r1.n, r2.n[np.ix_(s, s, s)]):
        return False
    return all(perm[r1.dual[i]] == r2.dual[perm[i]] for i in range(r1.rank))


# ------------------------------------------------------------ helpers

def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)   # looked up at call time, so tracing sees it
    return code, out.getvalue(), err.getvalue()


def cli_variant(argv: list[str], check: Callable[[Any], str | None]) -> Variant:
    """Runs the CLI in-process on fixed arguments.

    An output identical to one that already passed its check passes again
    without re-running the check, which keeps repeated samples cheap.
    """
    passed: set[tuple[int, str, str]] = set()

    def checked(result: tuple[int, str, str]) -> str | None:
        if result in passed:
            return None
        reason = check(result)
        if reason is None:
            passed.add(result)
        return reason

    return Variant(lambda: call_cli(argv), checked)


def write_ring(workdir: Path, name: str, ring: FusionRing) -> str:
    """Compact JSON: the indented form costs seconds per large ring to write."""
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(ring_to_document(ring)), encoding="utf-8")
    return str(path)


def invertible_flags(ring: FusionRing) -> list[bool]:
    """i is invertible when i * dual(i) is exactly the unit (integer check)."""
    return [bool(ring.n[i, ring.dual[i], 0] == 1 and ring.n[i, ring.dual[i]].sum() == 1)
            for i in range(ring.rank)]


def _json_report(code: int, out: str, err: str, want_code: int):
    if code != want_code:
        return None, f"exit {code}, expected {want_code}; stderr: {err.strip()[:200]}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def _ring(spec: str) -> FusionRing:
    """Build a ring from a short spec: yl:G, pointed:G, or A*B for a Deligne product."""
    if "*" in spec:
        left, right = spec.split("*", 1)
        return catalog.deligne_product(_ring(left), _ring(right))
    kind, _, group = spec.partition(":")
    if kind == "ising":
        return catalog.ising()
    make = {"yl": catalog.yl_extension, "pointed": catalog.pointed}[kind]
    return make(_group(group))


def _group(name: str) -> gr.FiniteGroup:
    composite = {
        "Z4xZ4": lambda: gr.product_of_cyclics([4, 4]),
        "Z2xZ8": lambda: gr.product_of_cyclics([2, 8]),
        "Z2xD4": lambda: gr.product_group(gr.cyclic(2), gr.dihedral(4)),
        "Z2xQ8": lambda: gr.product_group(gr.cyclic(2), gr.quaternion8()),
        "D8": lambda: gr.dihedral(8),
    }
    return composite[name]() if name in composite else gr.named_group(name)


# ------------------------------------------------------------ enumerate-le8

def _extension_problem(ring: FusionRing, order: int) -> str | None:
    """None when the ring is a valid pointed or (1,2n; sqrt2,n) extension of Z2."""
    if verify_axioms(ring):
        return "axiom violations"
    inv = invertible_flags(ring)
    noninv = [i for i in range(ring.rank) if not inv[i]]
    if not noninv:
        return None if ring.rank == 2 * order else f"pointed ring of rank {ring.rank}"
    if 2 * len(noninv) != ring.rank - len(noninv) or ring.rank - len(noninv) != order:
        return f"type is not (1,{order}; sqrt2,{order // 2})"
    for x in noninv:
        row = ring.n[x, ring.dual[x]]
        # d(x)^2 = 2 exactly when x * x* is two invertibles (with multiplicity)
        if any(row[k] for k in noninv) or int(row.sum()) != 2:
            return f"x * x* for x = {x} is not two invertibles"
    return None


def enumerate_le8(seed: int, workdir: Path) -> list[Request]:
    requests = []
    for m in range(1, 9):
        for named in gr.groups_of_order(m):
            tables = [relabel_table(named, permutation(seed, f"group/{named.name}/{v}", m))
                      for v in range(VARIANTS)]
            want = ENUMERATION_COUNTS[named.name]

            def check(rings, want=want, order=m):
                if len(rings) != want:
                    return f"{len(rings)} rings, expected {want}"
                for idx, ring in enumerate(rings):
                    problem = _extension_problem(ring, order)
                    if problem:
                        return f"ring {idx}: {problem}"
                return None

            # A fresh group object per call, as for the parsed rings of the other
            # workloads: caches keyed on the object start cold in every sample.
            requests.append(Request(f"enumerate pointed-z2 {named.name}", [
                Variant(lambda m=m, t=t: catalog.enumerate_extensions("pointed-z2",
                                                                      gr.FiniteGroup(m, t)),
                        check)
                for t in tables]))
    return requests


# ------------------------------------------------------------ cli-corpus: analyze, classify

def _expected_flags(kind: str, ring: FusionRing) -> list[str]:
    if kind == "pointed":
        return ["pointed"]
    if kind == "yl":
        return ["yang-lee", "yl-extension"] if ring.rank == 2 else ["yl-extension"]
    if kind == "extension":   # enumerated pointed-Z2 extension
        if all(invertible_flags(ring)):
            return ["pointed"]
        head = ["ising"] if ring.rank == 3 else []
        return head + ["generalized-ty", "rank2-pointed-extension"]
    if kind == "none":
        return []
    raise ValueError(kind)


def _corpus() -> list[tuple[str, FusionRing, str, float]]:
    """(name, ring, flag kind, closed-form FPdim total) before relabelling."""
    small = [g for m in range(1, 9) for g in gr.groups_of_order(m)]
    out = [("ising", catalog.ising(), "extension", 4.0),
           ("yang-lee", catalog.yang_lee(), "yl", YL_TOTAL)]
    for g in small:
        out.append((f"pointed-{g.name}", catalog.pointed(g), "pointed", float(g.order)))
        out.append((f"yl-{g.name}", catalog.yl_extension(g), "yl", g.order * YL_TOTAL))
    for name in ("Z2", "Z4", "Z2xZ2", "Z6", "S3", "Z8"):
        group = gr.named_group(name)
        for idx, ring in enumerate(catalog.enumerate_extensions("pointed-z2", group)):
            out.append((f"ext-{name}-{idx}", ring, "extension", 2.0 * group.order))
    for name in ("Z4xZ4", "Z2xD4", "D8"):
        out.append((f"yl-{name}", _ring(f"yl:{name}"), "yl", 16 * YL_TOTAL))
    out.append(("yl-Q8xising", _ring("yl:Q8*ising"), "none", 8 * YL_TOTAL * 4.0))
    out.append(("yl-S3xpointed-Z4", _ring("yl:S3*pointed:Z4"), "yl", 6 * YL_TOTAL * 4.0))
    return out


def classify_corpus(seed: int, workdir: Path) -> list[Request]:
    root = Path(__file__).resolve().parent.parent
    validator = jsonschema.Draft202012Validator(json.loads(
        (root / "src" / "fusionring" / "schemas" / "report.schema.json").read_text()))
    requests = []

    def add(paths: list[str], label: str, rank: int, total: float | None,
            flags: list[str] | None, golden: dict[str, str] | None):
        for command in ("analyze", "classify"):
            def check(result, command=command):
                code, out, err = result
                if golden is not None and out != golden[command]:
                    return "output differs from the golden file"
                report, problem = _json_report(code, out, err, 0)
                if problem:
                    return problem
                try:
                    validator.validate(report)
                except jsonschema.ValidationError as exc:
                    return f"schema: {exc.message[:200]}"
                if report["rank"] != rank:
                    return f"rank {report['rank']}, expected {rank}"
                if command == "analyze":
                    if total is not None and not math.isclose(report["total"], total,
                                                              rel_tol=1e-9):
                        return f"total {report['total']}, expected {total:.12g}"
                    return None
                refuted = [c["claim"] for c in report["claims"] if c["status"] == "refuted"]
                if refuted or report["counts"]["refuted"]:
                    return f"refuted claims: {refuted}"
                if flags is not None and report["flags"] != flags:
                    return f"flags {report['flags']}, expected {flags}"
                return None

            requests.append(Request(f"{command} {label}", [
                cli_variant([command, path, "--json"], check) for path in paths]))

    for name, ring, kind, total in _corpus():
        paths = [write_ring(workdir, f"{name}-{v}",
                            relabel_ring(ring, permutation(seed, f"ring/{name}/{v}", ring.rank)))
                 for v in range(VARIANTS)]
        add(paths, name, ring.rank, total, _expected_flags(kind, ring), None)

    data, golden_dir = root / "tests" / "data", root / "tests" / "golden"
    for name in ("ising", "yang_lee", "ylext_z3"):
        golden = {c: (golden_dir / f"{c}_{name}.json").read_text() for c in ("analyze", "classify")}
        src = (data / f"{name}.json").read_text()
        path = workdir / f"data-{name}.json"
        path.write_text(src, encoding="utf-8")
        rank = json.loads(src)["rank"]
        add([str(path)], f"tests/data/{name}.json", rank, None, None, golden)
    return requests


# ------------------------------------------------------------ cli-corpus: verify, iso

VERIFY_RINGS = ("yl:Q8", "yl:D8", "yl:S3*pointed:Z4", "yl:Z2xZ2xZ2*pointed:Z4")
# Positive iso queries: each ring against two seed relabellings of itself.
ISO_POSITIVE = tuple(f"yl:{g}" for g in ("Z4", "Z2xZ2", "Z5", "Z6", "S3", "Z7", "Z8",
                                         "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8")) \
    + tuple(f"pointed:{g}" for g in ("Z8", "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8")) \
    + ("ext:Z8", "ising*ising", "ising*pointed:Z4", "ising*pointed:Q8",
       "yl:Z3*pointed:Z4", "yl:Z2xD4", "yl:Q8*ising")
ISO_PARTNERS = 2
ISO_NEGATIVE = (("yl:Z4xZ4", "yl:Z2xZ8"), ("yl:Z2xD4", "yl:Z2xQ8"),
                ("yl:Z2xZ4", "yl:D4"), ("pointed:Z4xZ4", "pointed:Z2xZ8"),
                ("yl:Q8*ising", "yl:D4*ising"))


def verify_iso(seed: int, workdir: Path) -> list[Request]:
    requests = []
    built: dict[str, FusionRing] = {}

    def ring(spec: str) -> FusionRing:
        if spec not in built:
            if spec == "ext:Z8":   # a non-pointed near-group ring of rank 12
                rings = catalog.enumerate_extensions("pointed-z2", "Z8")
                built[spec] = next(r for r in rings if not all(invertible_flags(r)))
            else:
                built[spec] = _ring(spec)
        return built[spec]

    def place(key: str, base: FusionRing, force: bool = False):
        relabelled = relabel_ring(base, permutation(seed, key, base.rank, force))
        return relabelled, write_ring(workdir, key.replace("/", "-").replace(":", "_")
                                      .replace("*", "x"), relabelled)

    for spec in VERIFY_RINGS:
        base = ring(spec)
        _, good = place(f"verify/{spec}", base)
        _, bad = place(f"corrupt/{spec}", corrupt(base))

        def check_good(result, rank=base.rank):
            report, problem = _json_report(*result, want_code=0)
            if problem:
                return problem
            if not report["ok"] or report["violations"] or report["rank"] != rank:
                return "valid ring was not reported ok"
            return None

        def check_bad(result):
            report, problem = _json_report(*result, want_code=1)
            if problem:
                return problem
            axioms = {v["axiom"] for v in report["violations"]}
            if report["ok"] or not {"frobenius-reciprocity", "associativity"} <= axioms:
                return f"corrupted ring reported violations {sorted(axioms)}"
            return None

        # verify does no search, so one labelling per ring is enough
        requests.append(Request(f"verify {spec}",
                                [cli_variant(["verify", good, "--json"], check_good)]))
        requests.append(Request(f"verify corrupted {spec}",
                                [cli_variant(["verify", bad, "--json"], check_bad)]))

    for spec in ISO_POSITIVE:
        r1, p1 = place(f"iso/{spec}", ring(spec))
        for partner in range(ISO_PARTNERS):
            variants = []
            for v in range(VARIANTS):
                r2, p2 = place(f"iso/{spec}/partner{partner}/{v}", ring(spec), force=True)

                def check_pos(result, r1=r1, r2=r2):
                    report, problem = _json_report(*result, want_code=0)
                    if problem:
                        return problem
                    if not report["isomorphic"] or not is_isomorphism(r1, r2, report["map"]):
                        return f"map {report['map']} is not an isomorphism"
                    return None

                variants.append(cli_variant(["iso", p1, p2, "--json"], check_pos))
            requests.append(Request(f"iso {spec} vs relabelling {partner}", variants))

    for left, right in ISO_NEGATIVE:
        def check_neg(result):
            report, problem = _json_report(*result, want_code=1)
            if problem:
                return problem
            if report["isomorphic"] or report["map"] is not None:
                return "non-isomorphic pair reported isomorphic"
            return None

        requests.append(Request(f"iso {left} vs {right}", [
            cli_variant(["iso", place(f"neg/{left}/{v}", ring(left))[1],
                         place(f"neg/{right}/{v}", ring(right))[1], "--json"], check_neg)
            for v in range(VARIANTS)]))
    return requests


def cli_corpus(seed: int, workdir: Path) -> list[Request]:
    """The classify corpus and the verify and iso queries as one traffic mix.

    They are one workload so that each run is long enough to sample the
    expensive requests of both several times on a host whose speed swings.
    """
    return classify_corpus(seed, workdir) + verify_iso(seed, workdir)


WORKLOADS: dict[str, Callable[[int, Path], list[Request]]] = {
    "enumerate-le8": enumerate_le8,
    "cli-corpus": cli_corpus,
}
