"""Oracles the tests share: relabellings, seeded permutations, golden cases, the report schema.

Plain functions and data, no fixtures: every test module imports what it
needs from here.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import jsonschema
import numpy as np

from fusionring.groups import FiniteGroup
from fusionring.ring import FusionRing

HERE = Path(__file__).resolve().parent


def unit_fixing_shuffle(size, seed):
    """[0], then 1..size-1 in the order random.Random(seed).shuffle leaves them."""
    rest = list(range(1, size))
    random.Random(seed).shuffle(rest)
    return [0] + rest


def relabelled(ring, p):
    """The ring with basis element i renamed p[i] (p fixes the unit); labels are dropped."""
    n = np.zeros_like(ring.n)
    n[np.ix_(p, p, p)] = ring.n
    dual = [0] * ring.rank
    for i in range(ring.rank):
        dual[p[i]] = p[ring.dual[i]]
    return FusionRing(ring.rank, tuple(dual), n)


def relabelled_group(group, p):
    """The group with element a renamed p[a] (p fixes the identity); the name is dropped."""
    m = group.order
    table = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            table[p[a]][p[b]] = p[group.table[a][b]]
    return FiniteGroup(m, tuple(tuple(row) for row in table))


def load_bench_workloads():
    """The benchmark's bench/workloads.py, imported from the checkout."""
    path = HERE.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


#: (argv, file under tests/golden/) of each CLI run whose output is frozen
GOLDEN_CASES = [
    ((*argv, *json_flag), f"{stem}{suffix}")
    for argv, stem in [((cmd, str(HERE / "data" / f"{name}.json")), f"{cmd}_{name}")
                       for name in ("ising", "yang_lee", "ylext_z3")
                       for cmd in ("analyze", "classify")]
    + [(("solve-cos", "--terms", terms), f"solve_cos_{terms}") for terms in ("2", "3")]
    for json_flag, suffix in (((), ".txt"), (("--json",), ".json"))
]

_REPORT_SCHEMA = HERE.parent / "src" / "fusionring" / "schemas" / "report.schema.json"
_VALIDATOR = jsonschema.Draft202012Validator(json.loads(_REPORT_SCHEMA.read_text()))


def check_schema(text):
    """Validate a JSON report's text against report.schema.json."""
    _VALIDATOR.validate(json.loads(text))
