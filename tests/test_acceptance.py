"""Acceptance suite: one test per release criterion.

Each test prints a single ``PASS:``/``FAIL:`` line (visible with ``pytest -s``
or in the captured output of a failing run) and enforces the pinned numeric
tolerances and time budgets.
"""

import math
import pathlib
import time
from contextlib import contextmanager

import numpy as np
import pytest

import fusionring as fr
from fusionring import catalog as cat, groups as gr, structure as st
from fusionring.classify import find_ising_subring_unchecked
from fusionring.cli import run as cli_run
from fusionring.numerics import GOLDEN, solve_cos_equation
from fusionring.ringfile import parse_ring, serialize_ring
from oracles import GOLDEN_CASES, check_schema

HERE = pathlib.Path(__file__).parent
SQRT2 = math.sqrt(2.0)

SMALL_GROUPS = [g for m in range(1, 9) for g in gr.groups_of_order(m)]


@contextmanager
def criterion(label, seconds=None, extra=0.0):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start + extra
    if seconds is not None and elapsed >= seconds:
        print(f"FAIL: {label} — took {elapsed:.2f}s, budget {seconds}s")
        raise AssertionError(f"{label}: {elapsed:.2f}s exceeds {seconds}s budget")
    print(f"PASS: {label} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def extensions():
    """All pointed-Z2 extension rings for |u| <= 8, plus the build time."""
    start = time.perf_counter()
    per_group = [(g, cat.enumerate_extensions("pointed-z2", g))
                 for g in SMALL_GROUPS]
    return per_group, time.perf_counter() - start


def all_catalog_rings(extensions):
    rings = [cat.ising(), cat.yang_lee()]
    rings += [cat.pointed(name) for name in gr.NAMED_GROUPS]
    rings += [cat.yl_extension(g) for g in SMALL_GROUPS]
    rings += [r for _, group_rings in extensions[0] for r in group_rings]
    return rings


def test_criterion_01_axiom_suite(extensions):
    with criterion("criterion 1: axiom suite on every catalog ring", seconds=5.0):
        rings = all_catalog_rings(extensions)
        assert len(rings) > 90
        for ring in rings:
            assert fr.verify_axioms(ring) == []


def test_criterion_02_cos_equation():
    with criterion("criterion 2: cosine-product solver on every bound",
                   seconds=1.0):
        target = (5.0 + math.sqrt(5.0)) / 8.0
        for bound in range(10, 101):
            assert solve_cos_equation(2, target, bound=bound) == [(3, 5)]
            assert solve_cos_equation(3, target, bound=bound) == []


def test_criterion_03_golden_extension_structure():
    with criterion("criterion 3: yl_extension structure for every group of "
                   "order <= 8", seconds=5.0):
        for g in SMALL_GROUPS:
            ring = cat.yl_extension(g)
            sig = fr.type_signature(ring).entries
            assert len(sig) == 2
            (one, n_one), (phi, n_phi) = sig
            assert abs(one - 1.0) < 1e-9 and n_one == g.order and n_phi == g.order
            assert abs(phi - GOLDEN) < 1e-9

            grading = st.universal_grading(ring)
            assert all(len(c) == 2 for c in grading.components)

            adjoint = st.adjoint_subring(ring).members
            assert adjoint == (0, g.order)   # unit and Y over the identity
            assert np.array_equal(ring.n[np.ix_(adjoint, adjoint, adjoint)],
                                  cat.yang_lee().n)

            invert_group, _ = st.invertibles(ring)
            assert gr.are_isomorphic(grading.group, g)
            assert gr.are_isomorphic(invert_group, g)


def test_criterion_04_subring_subgroup_bijection():
    expected = {"Z2": 2, "Z3": 2, "Z4": 3, "Z2xZ2": 5, "Z6": 4}
    with criterion("criterion 4: non-pointed subrings of yl_extension(G) "
                   "match subgroups of G", seconds=10.0):
        for name, count in expected.items():
            group = gr.named_group(name)
            assert len(gr.subgroups(group)) == count
            ring = cat.yl_extension(group)
            grading = st.universal_grading(ring)

            supports = set()
            for sub in st.all_subrings(ring):
                if sub.pointed:
                    continue
                support = frozenset(cid for cid, comp
                                    in enumerate(grading.components)
                                    if set(comp) & set(sub.members))
                supports.add(support)
            assert len(supports) == count   # injective over subrings
            assert supports == {frozenset(s) for s in gr.subgroups(group)}


def test_criterion_05_near_group_enumeration(extensions):
    per_group, build_seconds = extensions
    with criterion("criterion 5: every pointed-Z2 extension with |u| <= 8 is "
                   "pointed or of type (1,2n; sqrt2,n)", seconds=30.0,
                   extra=build_seconds):
        checked = 0
        for _g, rings in per_group:
            for ring in rings:
                assert fr.verify_axioms(ring) == []
                if all(ring.invertible):
                    continue
                sig = fr.type_signature(ring).entries
                assert len(sig) == 2
                (one, n_one), (val, n) = sig
                assert abs(one - 1.0) < 1e-9 and n_one == 2 * n
                assert abs(val - SQRT2) < 1e-9
                assert len(st.adjoint_subring(ring).members) == 2
                assert st.universal_grading(ring).group.order == 2 * n
                checked += 1
        assert checked >= 30


def test_criterion_06_ising_predicates(extensions):
    with criterion("criterion 6: the three Ising-existence predicates agree, "
                   "and odd n or elementary abelian grading forces Ising"):
        nonpointed = [r for _, rings in extensions[0] for r in rings
                      if not all(r.invertible)]
        odd_cases = elementary_cases = 0
        for ring in nonpointed:
            det = find_ising_subring_unchecked(ring)
            assert det.closure_is_ising == det.rank1_component_at_involution \
                == det.self_dual_noninvertible
            found = det.subring is not None
            assert found == det.closure_is_ising

            group = st.universal_grading(ring).group
            n = group.order // 2
            if n % 2 == 1:
                odd_cases += 1
                assert found
            if all(o <= 2 for o in group.element_orders):
                elementary_cases += 1
                assert found
        assert odd_cases and elementary_cases


def test_criterion_07_product_decompositions(extensions):
    with criterion("criterion 7: yl_extension(G) = Yang-Lee x pointed(G), and "
                   "Ising x pointed(Z2) occurs in the enumeration"):
        for g in (g for g in SMALL_GROUPS if g.is_abelian()):
            product = cat.deligne_product(cat.yang_lee(), cat.pointed(g))
            assert fr.find_isomorphism(cat.yl_extension(g), product) is not None

        # Ising x pointed(Z2) is graded by its Z2xZ2 invertibles with the
        # rank 2 pointed base at the identity, so it must show up among the
        # |u| = 4 extension rings
        ip = cat.deligne_product(cat.ising(), cat.pointed("Z2"))
        assert fr.type_signature(ip).text() == "(1,4; 1.41421356237,2)"
        assert fr.classify(ip).generalized_ty
        candidates = [r for _, rings in extensions[0] for r in rings
                      if r.rank == ip.rank]
        assert any(fr.find_isomorphism(ip, r) is not None for r in candidates)


def test_criterion_08_numerics(extensions):
    with criterion("criterion 8: dimension residuals, dual symmetry, unit "
                   "normalization on every catalog ring"):
        for ring in all_catalog_rings(extensions):
            data = fr.fp_dimensions(ring)
            d = np.asarray(data.dims)
            residual = np.abs(np.einsum("ijk,k->ij", ring.n, d)
                              - np.outer(d, d)).max()
            assert residual < 1e-8
            for i in range(ring.rank):
                assert data.dims[ring.dual[i]] == data.dims[i]
            assert abs(data.dims[0] - 1.0) <= 1e-12


def test_criterion_09_delta_pairing(extensions):
    with criterion("criterion 9: free order-2 invertibles pair every "
                   "dimension class"):
        def check_pairing(ring, delta):
            report = st.even_rank_pairing(ring, delta)
            if not report.free:
                return False
            for cls in report.classes:
                assert len(cls.members) % 2 == 0
                covered = {x for pair in cls.pairs for x in pair}
                assert covered == set(cls.members)
                for x, y in cls.pairs:
                    assert ring.n[delta, x, y] == 1
            return True

        ylz2 = cat.yl_extension("Z2")
        assert check_pairing(ylz2, 1)

        paired_rings = 0
        for _, rings in extensions[0]:
            for ring in rings:
                order2 = [i for i in range(1, ring.rank)
                          if ring.invertible[i] and ring.n[i, i, 0] == 1]
                if any(check_pairing(ring, d) for d in order2):
                    paired_rings += 1
        assert paired_rings >= 20   # the claim is not vacuous


def test_criterion_10_cli_golden_files(capsys):
    with criterion("criterion 10: CLI golden files, schema validation, "
                   "serialization round trip"):
        for argv, golden in GOLDEN_CASES:
            code = cli_run(list(argv))
            out = capsys.readouterr().out
            assert code == 0, argv
            assert out == (HERE / "golden" / golden).read_text(), golden
            if golden.endswith(".json"):
                check_schema(out)

        for name in ("ising", "yang_lee", "ylext_z3"):
            text = (HERE / "data" / f"{name}.json").read_text()
            assert serialize_ring(parse_ring(text)) == text
