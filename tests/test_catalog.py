import hashlib
import importlib
import math

import numpy as np
import pytest

import fusionring as fr
from fusionring import catalog as cat
from fusionring import groups as gr
from fusionring import structure as st
from fusionring.catalog import GTYSpec
from fusionring.numerics import fp_dimensions, type_signature

numerics_module = importlib.import_module("fusionring.numerics")

SMALL_GROUPS = ["Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "S3",
                "Z7", "Z8", "Z2xZ4", "D4", "Q8"]


def test_pointed_is_the_group_ring():
    g = gr.named_group("S3")
    r = cat.pointed(g)
    assert r.rank == 6
    assert all(r.invertible)
    assert r.dual == g.inverse
    assert not r.is_commutative()
    for a in range(6):
        for b in range(6):
            assert r.constituents(a, b) == (g.table[a][b],)


def test_pointed_accepts_group_names():
    assert cat.pointed("Z4").rank == 4
    with pytest.raises(gr.GroupError):
        cat.pointed("F20")


def test_yang_lee_rules():
    r = cat.yang_lee()
    assert r.rank == 2 and r.dual == (0, 1)
    assert fr.multiply(r, 1, 1).coeffs == (1, 1)
    assert r.labels == ("1", "Y")


def test_ising_rules():
    r = cat.ising()
    assert r.rank == 3 and r.dual == (0, 1, 2)
    assert fr.multiply(r, 2, 2).coeffs == (1, 1, 0)   # X.X = 1 + d
    assert fr.multiply(r, 1, 2).coeffs == (0, 0, 1)   # d.X = X
    assert fr.multiply(r, 1, 1).coeffs == (1, 0, 0)
    assert abs(fp_dimensions(r).total - 4) <= 1e-9


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_catalog_rings_verify(name):
    assert fr.verify_axioms(cat.pointed(name)) == []
    assert fr.verify_axioms(cat.yl_extension(name)) == []


def test_deligne_product_shape_and_total():
    d = cat.deligne_product(cat.ising(), cat.yang_lee())
    assert d.rank == 6
    assert fr.verify_axioms(d) == []
    expected = 4 * (5 + math.sqrt(5)) / 2
    assert abs(fp_dimensions(d).total - expected) <= 1e-9
    assert d.labels[0] == "1*1"


def test_deligne_product_unit_factor_is_identity():
    d = cat.deligne_product(cat.ising(), cat.pointed("Z1"))
    assert fr.find_isomorphism(d, cat.ising()) is not None


def test_deligne_product_associative_up_to_iso():
    a, b, c = cat.yang_lee(), cat.pointed("Z2"), cat.yang_lee()
    left = cat.deligne_product(cat.deligne_product(a, b), c)
    right = cat.deligne_product(a, cat.deligne_product(b, c))
    assert left.rank == 8
    assert fr.find_isomorphism(left, right) is not None


def test_yl_extension_trivial_group_is_yang_lee():
    assert fr.find_isomorphism(cat.yl_extension("Z1"), cat.yang_lee()) is not None


def test_yl_extension_rules_nonabelian():
    g = gr.symmetric3()
    r = cat.yl_extension(g)
    m = 6
    for a in range(m):
        for b in range(m):
            ab = g.table[a][b]
            assert fr.multiply(r, a, b).coeffs[ab] == 1            # d d
            assert fr.multiply(r, a, m + b).coeffs[m + ab] == 1    # d Y
            ba = g.table[b][a]
            assert fr.multiply(r, m + b, a).coeffs[m + ba] == 1    # Y d
            out = fr.multiply(r, m + a, m + b).coeffs               # Y Y
            assert out[ab] == 1 and out[m + ab] == 1 and sum(out) == 2
    assert not r.is_commutative()
    assert cat.yl_extension("Z6").is_commutative()


def test_yl_extension_labels_and_duality():
    r = cat.yl_extension("Z3")
    assert r.labels == ("d[e]", "d[g1]", "d[g2]", "Y[e]", "Y[g1]", "Y[g2]")
    assert r.dual == (0, 2, 1, 3, 5, 4)


def ising_spec():
    z2 = gr.cyclic(2)
    return GTYSpec(grading_group=z2, index2_subgroup=(0,),
                   invertibles=z2, delta=1, quotient_map=(0, 0))


def test_generalized_ty_rebuilds_ising():
    ring = cat.generalized_ty(ising_spec())
    assert ring is not None
    assert fr.find_isomorphism(ring, cat.ising()) is not None


def test_generalized_ty_rank6():
    u = gr.named_group("Z2xZ2")
    g = gr.named_group("Z4")
    spec = GTYSpec(grading_group=u, index2_subgroup=(0, 1),
                   invertibles=g, delta=2, quotient_map=(0, 1, 0, 1))
    ring = cat.generalized_ty(spec)
    assert ring is not None
    assert fr.verify_axioms(ring) == []
    assert type_signature(ring).text() == "(1,4; 1.41421356237,2)"
    group, _ = st.invertibles(ring)
    assert gr.identify_group(group) == "Z4"


def test_generalized_ty_spec_validation():
    z2 = gr.cyclic(2)
    z4 = gr.cyclic(4)
    d4 = gr.dihedral(4)
    with pytest.raises(gr.GroupError):  # delta not of order 2
        cat.generalized_ty(GTYSpec(z2, (0,), z2, 0, (0, 0)))
    with pytest.raises(gr.GroupError):  # sizes disagree
        cat.generalized_ty(GTYSpec(z4, (0, 2), z2, 1, (0, 0)))
    reflection = 4  # d4 reflections are non-central order-2 elements
    assert d4.element_orders[reflection] == 2 and reflection not in d4.center
    with pytest.raises(gr.GroupError):  # delta not central
        cat.generalized_ty(GTYSpec(d4, tuple(gr.index2_subgroups(d4)[0]),
                                   d4, reflection, tuple(0 for _ in range(8))))
    with pytest.raises(gr.GroupError):  # map is not a homomorphism
        cat.generalized_ty(GTYSpec(z4, (0, 2), z4, 2, (0, 0, 2, 2)))
    with pytest.raises(gr.GroupError):  # kernel too large
        cat.generalized_ty(GTYSpec(z4, (0, 2), z4, 2, (0, 0, 0, 0)))


def test_enumerate_yang_lee_base():
    for name in ("Z1", "Z4", "S3"):
        rings = cat.enumerate_extensions("yang-lee", name)
        assert len(rings) == 1
        assert fr.find_isomorphism(rings[0], cat.yl_extension(name)) is not None


@pytest.mark.parametrize("name,count", [
    ("Z1", 1), ("Z2", 3), ("Z3", 1), ("Z4", 4), ("Z2xZ2", 6), ("Z5", 1),
    ("Z6", 3), ("S3", 3), ("Z7", 1), ("Z8", 4), ("Z2xZ4", 14), ("Z2xZ2xZ2", 9),
    ("D4", 14), ("Q8", 4),
])
def test_enumerate_pointed_z2_counts(name, count):
    rings = cat.enumerate_extensions("pointed-z2", name)
    assert len(rings) == count
    for ring in rings:
        assert fr.verify_axioms(ring) == []


# sha256 of the reference output for every group of order <= 8: the
# enumerated rings in output order (tensor, duality, labels) and the tables
# of the central extensions by Z2. A change to which rings are kept, to
# their representatives or to their order changes the digest.
ENUMERATION_DIGESTS = {
    "Z1": ("a8cb7802fae797e2c7b0607693549e8fc68a2078bd16ccb7aeee04526766a288",
           "a0e10c7a00c7e25d546e124a2f6fbc687ecbbb1b2cb4a95dd2ec09a0d05e7461"),
    "Z2": ("776fc246af0c179c5c96b17fd86984f35756671561b2a0b66478a40485e710ec",
           "36b865003b16bcd237f399b120f9eb24ef08acf2436d0fb35db0835b68fa0d82"),
    "Z3": ("e3e77cff623e748b7d7ae688d367e54047b02e8fc0e853a0c99a9e04e6f050ef",
           "ef0948b430e2ddd31205dd2e2ef779bb6798898f0513f77e3bc783eea0462ed1"),
    "Z4": ("3136a5ff92e322dbb13872f391d12701003607fa159927b4590928477e058348",
           "3b086cd52620a89bcbf7859448dd203b95e3dd5c49ee2dfcef4c84b677468a7d"),
    "Z2xZ2": ("8a8463fe11152c76da3849d94f70ab6a0a8f4f00a689d59dcc816a17499d4f69",
              "e8c411ba7ef9ec642fe0ff4d8625b50e0fe5ec6084f1d8bc33c7b40bab362ac4"),
    "Z5": ("6445b176229b95aab953fdc21bb2fda8c19f7cb304144f2bf45a65f5d36aa0ca",
           "23bf192583ba585256dba445d88b7f315b252610b8b9e3cdd8153b26a0645ca9"),
    "Z6": ("8e098b0cc4aed206bbc835ca4f12e5b0f3a54969c033e586cb7ea98c0e13f2e1",
           "ab6d5c959baa18b14701317f1c7dc64e700abf5d045875342501a926d8befe7d"),
    "S3": ("3c0b72b4a5dd1755bb5425c2a7c9e3aaf00d7fc1e27498b365e3f1f690a64b3a",
           "4a3c8e62719485c23e8ca1f7d308cf3eda7b2a4d5836b51c674515f1d061a0a0"),
    "Z7": ("901af90db08b5d74b8e63c61a30e5644386b4f5ba3c80ef05d9d298c8d191d4f",
           "31adc2469de86a9db1d15dc307bc45b2fbaae91933f33e9e07f2416eea6ecd38"),
    "Z8": ("4a505bcdc7ab19ad21a24508b5e9a7ca171cc0d982b9a2398661898a5a15fcb4",
           "73c91a50a9a82bc58e33a1113392ebf7366dcd0114209cd2b05cfcc07c0d02a5"),
    "Z2xZ4": ("b189dee004a058f9e55cf85b6b7f58323469860d6f491b4697a59d8bce8b6f66",
              "119a564e8fa4ae10faea2ffbf1b1aa5d78d9ef8e847a7a0b16c9e6a87dc7a7b5"),
    "Z2xZ2xZ2": ("671eb5375f87182be55ca761da1a1395affebd8d1d20ccde9207bdf8497eb6d3",
                 "04815ea49ad49c23ad51cb2796464cda54e046da9b7c57915e42ce1795cf8b10"),
    "D4": ("6ea19675254996380a86d78441b453264810387bf98dd8a82b873f918178dc7e",
           "dafb26486cb8e8f85dd9a72ef8d199114d97cfa740552ce25a8af0d04dd4ee87"),
    "Q8": ("698435c8a9ab5570a3a219be87fc747f413c5bd945260c2481f81a2a8551ed14",
           "15b6b0367d5bec42b6946935adfa2e6d3d8ac2e2be3169ec909034660875b9d6"),
}


@pytest.mark.parametrize("name", list(ENUMERATION_DIGESTS))
def test_enumeration_output_is_pinned(name):
    rings = hashlib.sha256()
    for ring in cat.enumerate_extensions("pointed-z2", name):
        rings.update(ring.n.astype("<i8").tobytes())
        rings.update(repr(ring.dual).encode())
        rings.update(repr(ring.labels).encode())
    tables = hashlib.sha256()
    for ext in gr.central_extensions_by_z2(gr.named_group(name)):
        tables.update(repr(ext.table).encode())
    assert (rings.hexdigest(), tables.hexdigest()) == ENUMERATION_DIGESTS[name]


def test_dedup_and_isomorphism_read_no_dimensions(monkeypatch):
    def float_dimensions(ring):
        raise AssertionError("an identity decision read Perron-Frobenius dimensions")

    monkeypatch.setattr(numerics_module, "fp_dimensions", float_dimensions)
    rings = cat.enumerate_extensions("pointed-z2", "Z2xZ2")
    assert len(rings) == 6
    assert fr.find_isomorphism(rings[-1], rings[-1]) is not None


def test_enumerate_pointed_z2_z2_contains_ising():
    rings = cat.enumerate_extensions("pointed-z2", "Z2")
    assert any(fr.find_isomorphism(r, cat.ising()) is not None for r in rings)
    pointed_counts = sorted(sum(r.invertible) for r in rings)
    assert pointed_counts == [2, 4, 4]


def test_enumerate_outputs_pairwise_nonisomorphic():
    rings = cat.enumerate_extensions("pointed-z2", "Z2xZ2")
    for i in range(len(rings)):
        for j in range(i + 1, len(rings)):
            assert fr.find_isomorphism(rings[i], rings[j]) is None


def test_enumerate_contains_ising_times_z2():
    target = cat.deligne_product(cat.ising(), cat.pointed("Z2"))
    rings = cat.enumerate_extensions("pointed-z2", "Z2xZ2")
    assert any(fr.find_isomorphism(target, r) is not None for r in rings)


def test_enumerate_rejects_large_or_unknown():
    with pytest.raises(ValueError):
        cat.enumerate_extensions("pointed-z2", "Z16")
    with pytest.raises(ValueError):
        cat.enumerate_extensions("frobenius", "Z2")


def test_gty_outputs_have_normal_adjoint_z2():
    for name in ("Z4", "Z2xZ2", "Z6", "Z8"):
        for ring in cat.enumerate_extensions("pointed-z2", name):
            if all(ring.invertible):
                continue
            group, emb = st.invertibles(ring)
            delta = st.adjoint_subring(ring).members[1]
            pos = emb.index(delta)
            for a in range(group.order):
                conj = group.table[group.table[a][pos]][group.inverse[a]]
                assert conj in (0, pos)
