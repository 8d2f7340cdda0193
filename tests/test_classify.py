import dataclasses
import gc
import importlib
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring import catalog as cat
from fusionring import groups as gr
from fusionring import structure
from fusionring.classify import _has_dim_sqrt2, find_ising_subring_unchecked
from fusionring.ring import FusionRing
from oracles import relabelled

classify_module = importlib.import_module("fusionring.classify")


def ty_z3():
    """Rank 4 near-group ring over Z3: X.X = 1 + a + a^2, dimension sqrt(3)."""
    n = np.zeros((4, 4, 4), dtype=np.int64)
    for i in range(3):
        for j in range(3):
            n[i, j, (i + j) % 3] = 1
    for i in range(3):
        n[i, 3, 3] = 1
        n[3, i, 3] = 1
    n[3, 3, 0] = n[3, 3, 1] = n[3, 3, 2] = 1
    return FusionRing(4, (0, 2, 1, 3), n, labels=("1", "a", "aa", "X"))


def flags_of(ring):
    return fr.classify(ring).flags()


def test_ty_z3_is_a_valid_ring():
    assert fr.verify_axioms(ty_z3()) == []


def test_flag_table():
    assert flags_of(cat.pointed("Z1")) == ("pointed",)
    assert flags_of(cat.pointed("Z4")) == ("pointed",)
    # Yang-Lee is the trivial (n = 1) member of its own extension family,
    # just as Ising is the n = 1 near-group ring
    assert flags_of(cat.yang_lee()) == ("yang-lee", "yl-extension")
    assert flags_of(cat.ising()) == ("ising", "generalized-ty",
                                     "rank2-pointed-extension")
    assert flags_of(cat.yl_extension("Z3")) == ("yl-extension",)
    assert flags_of(cat.deligne_product(cat.ising(), cat.pointed("Z2"))) == \
        ("generalized-ty", "rank2-pointed-extension")
    # sqrt(3) dimensions: near-group but outside the sqrt(2) family
    assert flags_of(ty_z3()) == ("generalized-ty",)


def test_yl_extension_flag_requires_canonical_rules():
    # same type signature, wrong fusion rules: Yang-Lee x Yang-Lee has type
    # (1,1; phi,2; phi^2,1), so it is filtered by the type test already
    d = cat.deligne_product(cat.yang_lee(), cat.yang_lee())
    cls = fr.classify(d)
    assert not cls.yl_extension


def test_classification_evidence():
    cls = fr.classify(cat.ising())
    assert cls.evidence["ising_subring"] == [0, 1, 2]
    assert cls.evidence["invertibles_name"] == "Z2"

    cls = fr.classify(cat.yl_extension("Z2xZ2"))
    assert cls.evidence["grading_name"] == "Z2xZ2"
    assert "canonical_map" in cls.evidence


def test_find_ising_subring_on_ising():
    det = fr.find_ising_subring(cat.ising())
    assert det.subring is not None and det.subring.members == (0, 1, 2)
    assert det.closure_is_ising and det.rank1_component_at_involution \
        and det.self_dual_noninvertible


def test_find_ising_subring_in_product():
    r = cat.deligne_product(cat.ising(), cat.pointed("Z3"))
    det = fr.find_ising_subring(r)
    assert det.subring is not None
    assert len(det.subring.members) == 3


def test_find_ising_subring_absent_when_no_self_dual():
    # grading Z4: the two sqrt(2) objects are dual to each other, not self-dual
    rings = [r for r in cat.enumerate_extensions("pointed-z2", "Z4")
             if not all(r.invertible)]
    assert rings
    for r in rings:
        det = fr.find_ising_subring(r)
        assert det.subring is None
        assert not det.closure_is_ising
        assert not det.rank1_component_at_involution
        assert not det.self_dual_noninvertible


def test_find_ising_subring_precondition():
    with pytest.raises(ValueError):
        fr.find_ising_subring(cat.pointed("Z4"))
    with pytest.raises(ValueError):
        fr.find_ising_subring(cat.yl_extension("Z2"))
    with pytest.raises(ValueError):
        fr.find_ising_subring(ty_z3())


def claim_status(ring):
    return {rep.claim: rep.status for rep in fr.verify_claims(ring)}


def test_claims_on_ising():
    status = claim_status(cat.ising())
    assert status["near-group-type"] == "verified"
    assert status["ising-subring-when-half-odd"] == "verified"   # n = 1
    assert status["ising-subring-when-elementary-2"] == "verified"
    assert status["invertibles-transitive-on-rest"] == "verified"
    assert status["faithful-simple-iff-cyclic-grading"] == "verified"
    assert status["golden-extension-type"] == "inapplicable"
    assert status["twisted-unit-component-forces-pointed"] == "inapplicable"


def test_claims_on_yl_extension_z4():
    status = claim_status(cat.yl_extension("Z4"))
    for claim in ("golden-extension-type", "golden-extension-components-rank2",
                  "golden-extension-adjoint", "golden-extension-grading-group",
                  "golden-extension-canonical-rules",
                  "nonpointed-subrings-match-subgroups",
                  "commutative-iff-abelian-group",
                  "golden-extension-splits-as-product"):
        assert status[claim] == "verified", claim
    assert status["near-group-type"] == "inapplicable"


def test_claims_on_nonabelian_yl_extension():
    reports = {r.claim: r for r in fr.verify_claims(cat.yl_extension("S3"))}
    rep = reports["commutative-iff-abelian-group"]
    assert rep.status == "verified"
    assert rep.detail == {"commutative": False, "abelian": False}
    assert reports["golden-extension-splits-as-product"].status == "verified"


def test_claims_on_pointed_ring_all_inapplicable():
    assert set(claim_status(cat.pointed("Z2")).values()) == {"inapplicable"}


def test_claims_on_ty_z3_all_inapplicable():
    # near-group ring outside the sqrt(2) family: the theorems do not apply
    assert set(claim_status(ty_z3()).values()) == {"inapplicable"}


def test_categorical_claim_scope():
    reports = fr.verify_claims(cat.ising())
    cat_scoped = [r for r in reports if r.scope == "categorical"]
    assert len(cat_scoped) == 1
    assert cat_scoped[0].status == "inapplicable"


def test_no_refutations_across_catalog_and_enumerations():
    rings = [cat.ising(), cat.yang_lee(), cat.pointed("Z6"), cat.pointed("S3"),
             cat.yl_extension("Z6"), cat.yl_extension("Q8"), ty_z3(),
             cat.deligne_product(cat.ising(), cat.pointed("Z2"))]
    for name in ("Z2", "Z4", "Z2xZ2", "Z6"):
        rings.extend(cat.enumerate_extensions("pointed-z2", name))
    for ring in rings:
        for rep in fr.verify_claims(ring):
            assert rep.status != "refuted", (rep.claim, ring.rank)


def two_invertibles_in_a_component(grading):
    # yl(Z3) has invertibles 0, 1, 2 and golden simples 3, 4, 5
    return dataclasses.replace(grading, components=((0, 1), (2, 3), (4, 5)))


def a_subring_off_the_subgroups(subrings):
    # components 0, 1, 0, 1 of Z3: {0, 1} is not a subgroup
    return [*subrings, fr.Subring((0, 1, 3, 4), False)]


@pytest.mark.parametrize("claim,name,wrong,detail", [
    ("golden-extension-components-rank2", "universal_grading", two_invertibles_in_a_component,
     {"component": [0, 1]}),
    ("nonpointed-subrings-match-subgroups", "all_subrings", a_subring_off_the_subgroups,
     {"subring": [0, 1, 3, 4]}),
])
def test_claims_refute_what_they_read(monkeypatch, claim, name, wrong, detail):
    ring = cat.yl_extension("Z3")
    assert fr.classify(ring).yl_extension   # cached with the true structure
    true = getattr(structure, name)
    monkeypatch.setattr(structure, name, lambda r: wrong(true(r)))
    report = next(r for r in fr.verify_claims(ring) if r.claim == claim)
    assert (report.status, report.detail) == ("refuted", detail)


def test_normality_is_decided_once(monkeypatch):
    monkeypatch.setattr(gr, "_is_normal", lambda group, members: False)
    with pytest.raises(gr.GroupError, match="kernel is not normal"):
        gr.quotient_group(gr.cyclic(4), (0, 2))
    assert claim_status(cat.ising())["adjoint-z2-normal-in-invertibles"] == "refuted"


def test_unchecked_detection_has_no_precondition():
    det = find_ising_subring_unchecked(cat.yang_lee())
    assert det.subring is None
    assert det.self_dual_noninvertible  # Y is self-dual; no sqrt(2) meaning here


# ------------------------------------------------------- per-object caching

def test_invariant_caches_free_the_ring_and_group():
    ring = cat.deligne_product(cat.ising(), cat.pointed("Z2"))
    fr.fp_dimensions(ring)
    fr.universal_grading(ring)
    fr.classify(ring)
    fr.verify_claims(ring)
    fr.find_ising_subring(ring)
    group = gr.named_group("D4")
    gr.subgroups(group)
    assert gr.identify_group(group) == "D4"
    refs = [weakref.ref(ring), weakref.ref(group)]
    del ring, group
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("build,searches", [
    # the canonical-rules search in classify, then the product-splitting claim
    (lambda: cat.yl_extension("S3"), 2),
    # the Ising flag and the Ising subring are read off the fusion rules
    (lambda: cat.deligne_product(cat.ising(), cat.pointed("Z2")), 0),
    (cat.ising, 0),
], ids=["yl-extension-S3", "ising-times-Z2", "ising"])
def test_classify_and_claims_search_once(monkeypatch, build, searches):
    calls = []

    def counting(r1, r2):
        calls.append(r1.rank)
        return fr.find_isomorphism(r1, r2)

    monkeypatch.setattr(classify_module, "find_isomorphism", counting)
    ring = build()
    fr.classify(ring)
    assert all(rep.status != "refuted" for rep in fr.verify_claims(ring))
    assert len(calls) == searches


RELABEL_RINGS = [cat.ising(), cat.yl_extension("S3"), cat.yl_extension("Z2xZ2"),
                 cat.deligne_product(cat.ising(), cat.pointed("Z2")),
                 cat.deligne_product(cat.ising(), cat.pointed("Z3"))]


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_relabelling_keeps_every_invariant(data):
    ring = data.draw(st.sampled_from(RELABEL_RINGS))
    p = [0] + data.draw(st.permutations(list(range(1, ring.rank))))
    conj = relabelled(ring, p)

    dims, dims2 = fr.fp_dimensions(ring), fr.fp_dimensions(conj)
    for i in range(ring.rank):
        assert dims2.dims[p[i]] == pytest.approx(dims.dims[i], abs=1e-12)
        assert dims2.recognized[p[i]] == dims.recognized[i]
    assert fr.type_signature(conj).text() == fr.type_signature(ring).text()
    assert fr.universal_grading(conj).group.order == \
        fr.universal_grading(ring).group.order
    assert fr.classify(conj).flags() == fr.classify(ring).flags()
    assert claim_status(conj) == claim_status(ring)


# ------------------------------------------------- no float in any decision

def decision_rings():
    """Catalog rings, Deligne products and every pointed-Z2 extension of order <= 8."""
    rings = [cat.ising(), cat.yang_lee(), ty_z3(), cat.pointed("Z4"), cat.pointed("S3"),
             cat.yl_extension("Z3"), cat.yl_extension("S3"), cat.yl_extension("Z2xZ2"),
             cat.deligne_product(cat.ising(), cat.pointed("Z2")),
             cat.deligne_product(cat.ising(), cat.pointed("Z3")),
             cat.deligne_product(cat.ising(), cat.ising()),
             cat.deligne_product(cat.ising(), cat.yang_lee()),
             cat.deligne_product(cat.yang_lee(), cat.yang_lee()),
             cat.deligne_product(ty_z3(), cat.pointed("Z2"))]
    for m in range(1, 9):
        for group in gr.groups_of_order(m):
            rings.extend(cat.enumerate_extensions("pointed-z2", group))
    return rings


def test_has_dim_sqrt2_matches_the_perron_dimension():
    for ring in decision_rings():
        dims = fr.fp_dimensions(ring).dims
        for x in range(ring.rank):
            assert _has_dim_sqrt2(ring, x) == (abs(dims[x] - np.sqrt(2.0)) < 1e-9), \
                (ring.rank, x, dims[x])


def test_decisions_do_not_read_the_dimension_tolerance(monkeypatch):
    def decisions():
        return [(fr.classify(r).flags(), claim_status(r)) for r in decision_rings()]

    before = decisions()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fusionring" and hasattr(module, "DIM_TOL"):
            monkeypatch.setattr(module, "DIM_TOL", 0.0)
    assert decisions() == before
