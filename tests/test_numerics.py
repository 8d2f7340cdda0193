import contextlib
import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring import catalog as cat
from fusionring.cli import run
from fusionring.numerics import (
    COS_TARGET,
    GOLDEN,
    dimension_classes,
    fp_dimensions,
    recognize,
    solve_cos_equation,
    type_signature,
)
from fusionring.ring import FusionRing
from fusionring.ringfile import serialize_ring
from oracles import relabelled

PHI = (1 + math.sqrt(5)) / 2


def test_ising_dimensions():
    data = fp_dimensions(cat.ising())
    assert abs(data.dims[0] - 1) <= 1e-12
    assert abs(data.dims[1] - 1) <= 1e-12
    assert abs(data.dims[2] - math.sqrt(2)) <= 1e-9
    assert abs(data.total - 4) <= 1e-9
    assert data.recognized == ("1", "1", "sqrt(2)")


def test_yang_lee_dimensions():
    data = fp_dimensions(cat.yang_lee())
    assert abs(data.dims[1] - PHI) <= 1e-9
    assert abs(data.total - (5 + math.sqrt(5)) / 2) <= 1e-9
    assert data.recognized[1] == "golden"


def test_yl_extension_total():
    # 3 invertibles plus 3 golden simples: 3 + 3*phi^2 = 6 + 3*phi
    data = fp_dimensions(cat.yl_extension("Z3"))
    assert abs(data.total - (6 + 3 * PHI)) <= 1e-9


def test_ring_with_a_zero_product_is_rejected():
    n = np.zeros((2, 2, 2), dtype=np.int64)
    n[0] = np.eye(2, dtype=np.int64)   # 1 * 1 = 1 and nothing else
    with pytest.raises(fr.StructuralError, match="not a fusion ring"):
        fp_dimensions(FusionRing(2, (0, 1), n))


@pytest.mark.parametrize("fn", [fp_dimensions, type_signature, dimension_classes])
def test_dimensions_need_a_valid_ring(fn):
    # every product is non-zero, so the Perron vector exists, but the ring
    # breaks duality, reciprocity and associativity: there is no FPdim to give
    base = cat.yl_extension("Z2")
    n = base.n.copy()
    n[3, 3] += 1
    ring = FusionRing(base.rank, base.dual, n)
    assert len(fr.verify_axioms(ring)) == 38
    with pytest.raises(fr.StructuralError) as info:
        fn(ring)
    assert str(info.value).startswith("not a fusion ring (38 axiom violation(s): ")


def test_duality_symmetry_is_exact():
    # under some labellings the Perron vector's entries of a dual pair differ
    # in the last bit
    rng = np.random.default_rng(0)
    for base in (cat.yl_extension("S3"), cat.yl_extension("Z7"),
                 cat.enumerate_extensions("pointed-z2", "Z6")[0],
                 cat.enumerate_extensions("pointed-z2", "S3")[0]):
        for _ in range(5):
            r = relabelled(base, [0] + list(1 + rng.permutation(base.rank - 1)))
            data = fp_dimensions(r)
            for i in range(r.rank):
                assert data.dims[r.dual[i]] == data.dims[i]


@pytest.mark.parametrize("ring", [
    cat.ising(), cat.yang_lee(), cat.pointed("Q8"), cat.yl_extension("Z4"),
    cat.deligne_product(cat.ising(), cat.yang_lee()),
])
def test_eigenvector_consistency(ring):
    data = fp_dimensions(ring)
    d = np.array(data.dims)
    lhs = np.einsum("i,j->ij", d, d)
    rhs = np.einsum("ijk,k->ij", ring.n, d)
    assert np.abs(lhs - rhs).max() < 1e-8 * data.total


@pytest.mark.parametrize("ring", [
    cat.ising(), cat.pointed("Z2xZ4"), cat.yl_extension("Z2"),
])
def test_invertible_iff_dimension_one(ring):
    data = fp_dimensions(ring)
    for i in range(ring.rank):
        assert (abs(data.dims[i] - 1) <= 1e-12) == ring.invertible[i]


def test_recognize_tags():
    assert recognize(3.0) == "3"
    assert recognize(math.sqrt(7)) == "sqrt(7)"
    assert recognize(math.sqrt(2)) == "sqrt(2)"  # preferred over 2cos(pi/4)
    assert recognize(GOLDEN) == "golden"         # preferred over 2cos(pi/5)
    assert recognize(2 * math.cos(math.pi / 7)) == "2cos(pi/7)"
    assert recognize(2 * math.cos(math.pi / 30)) == "2cos(pi/30)"
    assert recognize(1.2345) is None
    assert recognize(2 * math.cos(math.pi / 31)) is None


def test_dimension_classes_ising():
    classes = dimension_classes(cat.ising())
    assert len(classes) == 2
    (d1, m1), (d2, m2) = classes
    assert m1 == (0, 1) and abs(d1 - 1) <= 1e-9
    assert m2 == (2,) and abs(d2 - math.sqrt(2)) <= 1e-9


def test_type_signature_text():
    assert type_signature(cat.ising()).text() == "(1,2; 1.41421356237,1)"
    assert type_signature(cat.pointed("Z2")).text() == "(1,2)"
    assert type_signature(cat.yl_extension("Z3")).text() == "(1,3; 1.61803398875,3)"


@pytest.mark.parametrize("ring", [
    cat.yang_lee(), cat.ising(), cat.pointed("D4"), cat.yl_extension("Z6"),
])
def test_type_signature_invariants(ring):
    sig = type_signature(ring)
    dims = [v for v, _ in sig.entries]
    assert dims == sorted(dims)
    assert all(dims[i + 1] - dims[i] > 1e-9 for i in range(len(dims) - 1))
    assert abs(dims[0] - 1) <= 1e-9
    assert sum(m for _, m in sig.entries) == ring.rank


def test_solve_cos_other_target():
    assert solve_cos_equation(2, target=0.5, bound=40) == [(3, 3)]


def test_solve_cos_solutions_are_nondecreasing_tuples():
    for sol in solve_cos_equation(2, target=1.25, bound=60):
        assert list(sol) == sorted(sol)
        assert all(a >= 3 for a in sol)


def test_solve_cos_rejects_bad_arguments():
    with pytest.raises(ValueError):
        solve_cos_equation(4)
    with pytest.raises(ValueError):
        solve_cos_equation(2, bound=9)


def test_cos_target_identity():
    # the target value equals cos^2(pi/10)
    assert abs(COS_TARGET - math.cos(math.pi / 10) ** 2) <= 1e-15


# ------------------------------------------- pinned reports and a reference

def report_rings(name):
    """The catalog ring `name`, or for ext-G every pointed-Z2 extension of G."""
    if name == "ising":
        return [cat.ising()]
    if name == "yang-lee":
        return [cat.yang_lee()]
    kind, group = name.split("-", 1)
    if kind == "ext":
        return cat.enumerate_extensions("pointed-z2", group)
    return [{"pointed": cat.pointed, "yl": cat.yl_extension}[kind](group)]


def report_digest(rings, workdir):
    """sha256 of the exit codes and `analyze --json`, `classify --json` outputs."""
    digest = hashlib.sha256()
    for idx, ring in enumerate(rings):
        path = workdir / f"ring{idx}.json"
        path.write_text(serialize_ring(ring), encoding="utf-8")
        for command in ("analyze", "classify"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run([command, str(path), "--json"])
            digest.update(f"{command} {code}\n{out.getvalue()}".encode())
    return digest.hexdigest()


# The 12-digit dimensions, totals and type strings of these reports, with
# every flag and claim, must not move when the dimension computation changes.
REPORT_DIGESTS = {
    "ising": "62c12af116520d637d5cc858fdf2fb0ff885241d5676684a81534f7db1b9e3c5",
    "yang-lee": "3ac2fbef887d24a85d8acebfb07939de3acefd1502d78bda523a13b9d486003d",
    "pointed-Z1": "2e5ff1abb3e6afb28898f97bf448797c91f78a3595f27e9e4f4d36879c535da7",
    "pointed-Z2": "ef84e13d1768a3f44f2c52a79a9ef6241fa9cd574b02c080b3ff9a2e5d0fbc32",
    "pointed-Z3": "aea8ca8ebe306a5c946cb98c84b07d6dfb7b819393eac00bd2807fa2f175f22c",
    "pointed-Z4": "41fa301802be47a936c1f6627eb95f57f89292aadab7cf44dd59b7939731637f",
    "pointed-Z2xZ2": "674a2611a91c48253dbb650fd2efa5b05d93f7d03c8d2ea5798322d36c82950f",
    "pointed-Z5": "1ec21b4c2d85477d21682088355db60fd97d3c5cc9c16f98ce638f165778d05f",
    "pointed-Z6": "7c4ea9cdaee49c44467b0ee67b6248eca2204604f49804d65177fd02917c0f47",
    "pointed-S3": "c51832e569c4bfc609f3023285dc078a3d186ed5a3083bc30aa709d67d237095",
    "pointed-Z7": "63438a3317190e0dd07c40762c4d87bbecd0b8acae99e3592d62052dbb067d1a",
    "pointed-Z8": "55ac6f36fbfed815dfa7935b03e0c0fc4e3a4f0274648edf58d9d6640b5c62d4",
    "pointed-Z2xZ4": "d7af166118a4e5e3630a6d08c3f85e00fb1f31d1ab2c351bbd68c72dc8285511",
    "pointed-Z2xZ2xZ2": "4edea79660a2bddca0b9a61574f2fb9a506cf8e7320c000a4f9c81bf6743e4ed",
    "pointed-D4": "c3c26a5fe3e5396bdd69918eef508174e791e27abe3571e42d55d4bb02205f4a",
    "pointed-Q8": "2e02c249880a7d64a01a49c5c5363c17f96857d3e4d3acd23993ed4c7e31e9ab",
    "yl-Z1": "db43b00d59c385e7ac844843b44db934daecf6ccd2ccaf1c469c3e3ac0671deb",
    "yl-Z2": "f168bee1b6a96d37706819bf99c2d7d9aab765a3505660e06f1cd294c6b6424f",
    "yl-Z3": "9e73c0286b74083d158703980e83c396d743f3b00e27d61925e8691b265bf5c5",
    "yl-Z4": "ae51f87dd717ed85ec49ee0e4667c653b6956f2be2b688d3ed489484c6cf80ed",
    "yl-Z2xZ2": "684b7c0039522bb3c233a8fe14f1ff9019d3352b3dd1eaa4c868b27e7dc2f012",
    "yl-Z5": "1244d447328123e0a6006f1d14ef6c9584b929a74b9ea2f1d95c6639815b66c4",
    "yl-Z6": "28bd00013715673889287f8f05c6b66adefe445f953193e672d9282a9b94571f",
    "yl-S3": "020a78129bf1c661184e5d83611fa42e4c8b95b2a3eef6026f0cec2660c87c69",
    "yl-Z7": "a315d0d1cbe73e425ec70535ec3c0023a99b1d1f2932fe3569ec5546080dcf34",
    "yl-Z8": "ccd42a420b2ad707ffa1c551d594a346afe00847fd6d6f2a6b259dadd08c05d9",
    "yl-Z2xZ4": "ab7ec2c8f10cd796bd63c0d1e397f5a8fdbeb3ff902a78e8d7ceba36316c5325",
    "yl-Z2xZ2xZ2": "ad9e15db68be1eee6d5229edae5b9f358d22cda64d9c36f655698470a9e5aab7",
    "yl-D4": "ab9be8a9fb9866ec0c14469cfd109a10abb6e56efa912a7964230f5c7ad7bd8f",
    "yl-Q8": "797d643116ab1018be2d5042de4fc1befa26a6bd5db900e9bfae8f23283bbe4f",
    "ext-Z1": "ef84e13d1768a3f44f2c52a79a9ef6241fa9cd574b02c080b3ff9a2e5d0fbc32",
    "ext-Z2": "5061f79ed65473cbb5248edd5241dae468d71341ee0e5b2d25bc5a8f1b3261b8",
    "ext-Z3": "173af8e19958f016ffe39b736bcfefd4fcc34539baee4e3090e5646d4d3ec226",
    "ext-Z4": "36f29fcd0ad8faafa16c039585af46c4c3e83d3ffd7a12cfbb92a5ec24d5bc67",
    "ext-Z2xZ2": "a4b963be8e3a3decbaf396f56278c5c0938e550463fc83346f5acc3d3f57e6c3",
    "ext-Z5": "926602f47f31f3e9222dbed544ec131c5e241ada16bf8b88373c928f4b0178a0",
    "ext-Z6": "3d0289f0d315149a9958c7416eaf5323e637dc9ef9a8f7647a3f55d7c776cdea",
    "ext-S3": "82f99a5a398b5bd7b99a7fbf85612c5c47d5a06764872822314093035429ce75",
    "ext-Z7": "2c0edf647a45be4214d4318ea749392b048ea0c28a30195a6dc451ec7e3f08f8",
    "ext-Z8": "b7bf3561ef3b04ef96b5d2f8a526afa39b23fcaba962170ccb94bd45168f658d",
    "ext-Z2xZ4": "ecbacd2ac80eb27c24193013a496f91725696c6584ae8dcc40d2e39dbba598c9",
    "ext-Z2xZ2xZ2": "9c14a4dc0ce41fc3c82a740cf42bac793f0a53b7a6a9d1481a13258c878c1384",
    "ext-D4": "4620a6e0860b527f851416de4a8f6fededb9d1112c97e4b6462c8d6e94f36ce7",
    "ext-Q8": "48fc6b08bb2747c79090dee4e0520f19a6f260726067c489e56cbae1a79fc071",
}


@pytest.mark.parametrize("name", list(REPORT_DIGESTS))
def test_reports_are_pinned(name, tmp_path):
    assert report_digest(report_rings(name), tmp_path) == REPORT_DIGESTS[name]


def reference_dimension(matrix):
    """The largest real eigenvalue, from a dense eigensolver."""
    eig = np.linalg.eigvals(matrix.astype(float))
    return max(e.real for e in eig if abs(e.imag) <= 1e-9)


REFERENCE_RINGS = [
    cat.ising(), cat.yang_lee(), cat.pointed("Q8"), cat.yl_extension("S3"),
    cat.yl_extension("Z2xZ2xZ2"),
    cat.enumerate_extensions("pointed-z2", "D4")[-1],
    cat.deligne_product(cat.ising(), cat.yang_lee()),
    cat.deligne_product(cat.ising(), cat.deligne_product(cat.ising(), cat.ising())),
    cat.deligne_product(cat.yl_extension("Q8"), cat.ising()),                # rank 48
    cat.deligne_product(cat.yl_extension("S3"), cat.pointed("Z4")),          # rank 48
    cat.deligne_product(cat.yl_extension("Z2xZ2xZ2"), cat.pointed("Z4")),    # rank 64
]


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_dimensions_match_a_dense_eigensolver(data):
    base = data.draw(st.sampled_from(REFERENCE_RINGS))
    ring = relabelled(base, [0] + data.draw(st.permutations(list(range(1, base.rank)))))
    dims = fp_dimensions(ring).dims
    for i in range(ring.rank):
        ref = reference_dimension(ring.n[i].T)
        assert abs(dims[i] - ref) <= 1e-12 * ref, (ring.rank, i, dims[i], ref)
