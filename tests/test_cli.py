import importlib
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import fusionring as fr
from fusionring import catalog as cat
from fusionring.cli import run
from fusionring.ringfile import parse_ring, ring_from_document, serialize_ring

HERE = pathlib.Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"
SCHEMA = json.loads(
    (HERE.parent / "src" / "fusionring" / "schemas" / "report.schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


def cli(capsys, *argv):
    code = run([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(out):
    VALIDATOR.validate(json.loads(out))


# ------------------------------------------------------------- golden files

GOLDEN_CASES = []
for name in ("ising", "yang_lee", "ylext_z3"):
    for cmd in ("analyze", "classify"):
        GOLDEN_CASES.append(((cmd, DATA / f"{name}.json"), f"{cmd}_{name}.txt"))
        GOLDEN_CASES.append(((cmd, DATA / f"{name}.json", "--json"),
                             f"{cmd}_{name}.json"))
for terms in (2, 3):
    GOLDEN_CASES.append((("solve-cos", "--terms", terms), f"solve_cos_{terms}.txt"))
    GOLDEN_CASES.append((("solve-cos", "--terms", terms, "--json"),
                         f"solve_cos_{terms}.json"))


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES,
                         ids=[g for _, g in GOLDEN_CASES])
def test_golden(capsys, argv, golden):
    code, out, err = cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == (GOLDEN / golden).read_text()
    if golden.endswith(".json"):
        check_schema(out)


def test_golden_runs_are_deterministic(capsys):
    _, first, _ = cli(capsys, "analyze", DATA / "ylext_z3.json", "--json")
    _, second, _ = cli(capsys, "analyze", DATA / "ylext_z3.json", "--json")
    assert first == second


def test_seed_env_is_accepted_and_ignored(capsys, monkeypatch):
    monkeypatch.setenv("FUSIONRING_SEED", "20260815")
    code, out, _ = cli(capsys, "analyze", DATA / "ising.json", "--json")
    assert code == 0
    assert out == (GOLDEN / "analyze_ising.json").read_text()


# ---------------------------------------------------------------- classify

def test_classify_exits_1_on_a_refuted_claim(capsys, monkeypatch):
    classify_module = importlib.import_module("fusionring.classify")
    claims = list(classify_module._CLAIMS)
    name, scope, applicable, _ = claims[1]
    claims[1] = (name, scope, applicable, lambda ring: (False, {"counterexample": [1, 2, 3]}))
    monkeypatch.setattr(classify_module, "_CLAIMS", tuple(claims))

    code, out, err = cli(capsys, "classify", DATA / "ising.json")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert f"  refuted      [ring-level] {name}  {{'counterexample': [1, 2, 3]}}" in lines
    assert lines[-1] == "summary: 9 verified, 1 refuted, 9 inapplicable"

    code, out, _ = cli(capsys, "classify", DATA / "ising.json", "--json")
    assert code == 1
    check_schema(out)
    doc = json.loads(out)
    assert [c for c in doc["claims"] if c["status"] == "refuted"] == \
        [{"claim": name, "status": "refuted", "scope": "ring-level",
          "detail": {"counterexample": [1, 2, 3]}}]
    assert doc["counts"] == {"verified": 9, "refuted": 1, "inapplicable": 9}


# ------------------------------------------------------------------ verify

def test_verify_ok(capsys):
    code, out, _ = cli(capsys, "verify", DATA / "ising.json")
    assert code == 0
    assert out == "ok: all fusion-ring axioms hold (rank 3)\n"


@pytest.fixture
def broken_ring_file(tmp_path):
    doc = json.loads((DATA / "ising.json").read_text())
    doc["duality"] = [0, 2, 1]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return path


def test_verify_reports_violations(capsys, broken_ring_file):
    code, out, _ = cli(capsys, "verify", broken_ring_file)
    assert code == 1
    assert "duality" in out
    assert "FAIL:" in out


def test_verify_json(capsys, broken_ring_file):
    code, out, _ = cli(capsys, "verify", broken_ring_file, "--json")
    assert code == 1
    check_schema(out)
    doc = json.loads(out)
    assert doc["ok"] is False and doc["violations"]

    code, out, _ = cli(capsys, "verify", DATA / "yang_lee.json", "--json")
    assert code == 0
    check_schema(out)
    assert json.loads(out) == {"report": "verify", "rank": 2, "ok": True,
                               "violations": []}


def test_verify_reports_a_duality_that_is_not_an_involution(capsys, tmp_path):
    # a permutation of the basis, but 1 -> 2 -> 3 -> 1
    ring = fr.FusionRing(4, (0, 2, 3, 1), cat.pointed("Z4").n)
    assert [(v.axiom, v.at) for v in fr.verify_axioms(ring)[:3]] == \
        [("dual-involution", (i,)) for i in (1, 2, 3)]
    path = tmp_path / "cycle.json"
    path.write_text(serialize_ring(ring))
    code, out, _ = cli(capsys, "verify", path, "--json")
    assert code == 1
    check_schema(out)
    assert json.loads(out)["violations"][:3] == \
        [{"axiom": "dual-involution", "at": [i]} for i in (1, 2, 3)]


def test_other_commands_refuse_invalid_rings(capsys, broken_ring_file):
    for cmd in ("analyze", "classify", "subrings"):
        code, out, err = cli(capsys, cmd, broken_ring_file)
        assert code == 1
        assert err.startswith(f"error: {broken_ring_file}: not a fusion ring")


# -------------------------------------------------------------------- iso

def test_iso_finds_permutation(capsys, tmp_path):
    ring = cat.ising()
    perm = (0, 2, 1)   # swap d and X slots
    inv = tuple(perm.index(i) for i in range(3))
    n = np.zeros_like(ring.n)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                n[perm[i], perm[j], perm[k]] = ring.n[i, j, k]
    shuffled = fr.FusionRing(3, tuple(perm[ring.dual[inv[i]]] for i in range(3)), n)
    other = tmp_path / "shuffled.json"
    other.write_text(serialize_ring(shuffled))

    code, out, _ = cli(capsys, "iso", DATA / "ising.json", other)
    assert code == 0
    assert out == "isomorphic: 0->0, 1->2, 2->1\n"

    code, out, _ = cli(capsys, "iso", DATA / "ising.json", other, "--json")
    check_schema(out)
    assert json.loads(out)["map"] == [0, 2, 1]


def test_iso_negative(capsys):
    code, out, _ = cli(capsys, "iso", DATA / "ising.json", DATA / "yang_lee.json")
    assert code == 1
    assert out == "not isomorphic\n"

    code, out, _ = cli(capsys, "iso", DATA / "ising.json", DATA / "yang_lee.json",
                       "--json")
    assert code == 1
    check_schema(out)
    assert json.loads(out) == {"report": "iso", "isomorphic": False, "map": None}


# ----------------------------------------------------------------- subrings

def test_subrings_human(capsys, tmp_path):
    path = tmp_path / "ylext_z2.json"
    path.write_text(serialize_ring(cat.yl_extension("Z2")))
    code, out, _ = cli(capsys, "subrings", path)
    assert code == 0
    assert out.splitlines()[0] == "subrings: 4"
    assert sum("non-pointed" in line for line in out.splitlines()) == 2


def test_subrings_json(capsys):
    code, out, _ = cli(capsys, "subrings", DATA / "ising.json", "--json")
    assert code == 0
    check_schema(out)
    doc = json.loads(out)
    assert [s["members"] for s in doc["subrings"]] == [[0], [0, 1], [0, 1, 2]]
    assert [s["pointed"] for s in doc["subrings"]] == [True, True, False]


# ------------------------------------------------------------------ catalog

def test_catalog_stdout_parses(capsys):
    code, out, _ = cli(capsys, "catalog", "ising")
    assert code == 0
    ring = parse_ring(out)
    assert fr.find_isomorphism(ring, cat.ising()) == (0, 1, 2)


def test_catalog_group_variants(capsys, tmp_path):
    target = tmp_path / "ring.json"
    code, _, _ = cli(capsys, "catalog", "yl-extension", "--group", "S3",
                     "-o", target)
    assert code == 0
    ring = parse_ring(target.read_text())
    assert ring.rank == 12 and not ring.is_commutative()


def test_catalog_errors(capsys):
    code, _, err = cli(capsys, "catalog", "pointed")
    assert code == 1 and "--group" in err
    code, _, err = cli(capsys, "catalog", "ising", "--group", "Z2")
    assert code == 1 and "takes no --group" in err
    code, _, err = cli(capsys, "catalog", "toric")
    assert code == 1 and err.startswith("error:")
    code, _, err = cli(capsys, "catalog", "pointed", "--group", "F20")
    assert code == 1 and err.startswith("error:")


def test_catalog_to_a_missing_directory_exits_1_without_traceback(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = cli(capsys, "catalog", "ising", "-o", target)
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_catalog_without_group_lists_every_accepted_name(capsys):
    code, _, err = cli(capsys, "catalog", "pointed")
    assert code == 1 and "Z2xZ2xZ2" in err
    code, out, _ = cli(capsys, "catalog", "pointed", "--group", "Z2xZ2xZ2")
    assert code == 0 and parse_ring(out).rank == 8


# ---------------------------------------------------------------- enumerate

def test_enumerate_human(capsys):
    code, out, _ = cli(capsys, "enumerate", "--base", "pointed-z2",
                       "--group", "Z2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 extension ring(s): base pointed-z2, grading group Z2"
    assert len(lines) == 4 and all(line.startswith("  [") for line in lines[1:])


def test_enumerate_json_rings_are_loadable(capsys):
    code, out, _ = cli(capsys, "enumerate", "--base", "yang-lee",
                       "--group", "Z3", "--json")
    assert code == 0
    check_schema(out)
    doc = json.loads(out)
    assert len(doc["rings"]) == 1
    ring = ring_from_document(doc["rings"][0]["ring"])
    assert fr.verify_axioms(ring) == []
    assert fr.find_isomorphism(ring, cat.yl_extension("Z3")) is not None


def test_enumerate_errors(capsys):
    code, _, err = cli(capsys, "enumerate", "--base", "pointed-z2",
                       "--group", "Z16")
    assert code == 1 and "error:" in err
    code, _, _ = cli(capsys, "enumerate", "--base", "frobenius", "--group", "Z2")
    assert code == 2   # argparse choice


# ---------------------------------------------------------------- solve-cos

def test_solve_cos_custom_bound(capsys):
    code, out, _ = cli(capsys, "solve-cos", "--terms", "2", "--bound", "10")
    assert code == 0
    assert out == "a=3 b=5\n"


def test_solve_cos_bound_too_small(capsys):
    code, _, err = cli(capsys, "solve-cos", "--terms", "2", "--bound", "9")
    assert code == 1 and err.startswith("error:")


# --------------------------------------------------------------- exit codes

def test_usage_errors_exit_2(capsys):
    assert cli(capsys, "frobenius")[0] == 2
    assert cli(capsys, "analyze", DATA / "ising.json", "--loud")[0] == 2
    assert cli(capsys, "solve-cos", "--terms", "4")[0] == 2
    assert cli(capsys)[0] == 2


def test_missing_file(capsys):
    code, _, err = cli(capsys, "analyze", "/nonexistent/ring.json")
    assert code == 1
    assert err.startswith("error: cannot read")


def test_non_utf8_file_names_the_path(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"rank": 1, "labels": ["\xff"]}')
    code, out, err = cli(capsys, "verify", path)
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot read {path}: not UTF-8 text")
    assert "Traceback" not in err


def test_malformed_json_file(capsys, tmp_path):
    path = tmp_path / "mangled.json"
    path.write_text('{"rank": ')
    code, _, err = cli(capsys, "verify", path)
    assert code == 1
    assert "not valid JSON" in err


def test_oversized_entry_exits_1_without_traceback(capsys, tmp_path):
    doc = json.loads((DATA / "ising.json").read_text())
    doc["N"][1][1][0] = 2 ** 63
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps(doc))
    code, out, err = cli(capsys, "verify", path)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: N[1][1][0] is too large")
    assert "Traceback" not in err


def test_deeply_nested_json_exits_1_without_traceback(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = cli(capsys, "verify", path)
    assert code == 1 and out == ""
    assert err.startswith("error:")
    assert "nested too deeply" in err
    assert "Traceback" not in err


def test_module_entry_point_runs_from_a_checkout():
    # python -m fusionring with only the source directory on the path
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "fusionring", "verify", str(DATA / "ising.json")],
                          capture_output=True, text=True, env=env, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok: all fusion-ring axioms hold")


def test_closed_stdout_exits_with_a_message():
    # the report (about 0.7 MB) outgrows the pipe buffer, so the write after
    # the reader closes its end fails
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    with subprocess.Popen(
            [sys.executable, "-m", "fusionring", "enumerate", "--base", "pointed-z2",
             "--group", "Z2xZ4", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=HERE.parent) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait() == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def fresh_process(*argv, hash_seed="0"):
    """(exit code, stdout, stderr) of python with argv in a new process on the checkout."""
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, *map(str, argv)],
                          capture_output=True, text=True, env=env, cwd=HERE.parent)
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_answers_as_a_fresh_process(capsys):
    # run builds its parser once per process; a usage error on it must not
    # change what later calls print
    calls = [("verify",), ("verify", DATA / "ising.json", "--json"),
             ("iso", DATA / "ylext_z3.json", DATA / "ylext_z3.json", "--json"),
             ("iso", DATA / "ising.json", DATA / "yang_lee.json", "--json")]
    in_process = [cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in in_process] == [2, 0, 0, 1]
    assert in_process == [fresh_process("-m", "fusionring", *argv) for argv in calls]


def test_iso_map_does_not_depend_on_the_hash_seed(tmp_path):
    ring = cat.deligne_product(cat.yl_extension("S3"), cat.pointed("Z2"))
    p = [0] + list(np.random.default_rng(24).permutation(np.arange(1, 24)))
    n = np.zeros_like(ring.n)
    n[np.ix_(p, p, p)] = ring.n
    dual = [0] * 24
    for i in range(24):
        dual[p[i]] = p[ring.dual[i]]
    paths = tmp_path / "a.json", tmp_path / "b.json"
    paths[0].write_text(serialize_ring(ring))
    paths[1].write_text(serialize_ring(fr.FusionRing(24, tuple(dual), n)))
    runs = [fresh_process("-m", "fusionring", "iso", *paths, "--json", hash_seed=seed)
            for seed in ("0", "12345")]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and json.loads(runs[0][1])["isomorphic"]
    # the colours themselves, not only the map they lead to, are the same
    script = ("import sys; from fusionring.ring import colour_classes; "
              "from fusionring.ringfile import parse_ring; "
              "print(colour_classes(parse_ring(open(sys.argv[1]).read())))")
    colours = [fresh_process("-c", script, paths[1], hash_seed=seed) for seed in ("0", "12345")]
    assert colours[0] == colours[1] and colours[0][0] == 0
