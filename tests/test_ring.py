import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionring as fr
from fusionring import catalog as cat
from fusionring import groups as gr
from fusionring.ring import (
    AXIOM_ASSOCIATIVITY,
    AXIOM_DUAL,
    AXIOM_DUALITY,
    AXIOM_FROBENIUS,
    AXIOM_UNIT,
    FusionRing,
    StructuralError,
    colour_classes,
    square_profiles,
)


def writable(ring):
    return ring.n.copy()


# ------------------------------------------------------------- construction

def test_structural_checks():
    eye3 = np.eye(3, dtype=np.int64)
    with pytest.raises(StructuralError):
        FusionRing(2, (0, 1), np.zeros((3, 3, 3), dtype=np.int64))
    with pytest.raises(StructuralError):
        FusionRing(3, (0, 1), np.stack([eye3] * 3))
    with pytest.raises(StructuralError):
        FusionRing(3, (0, 2, 2), np.stack([eye3] * 3))  # not a permutation
    with pytest.raises(StructuralError):
        FusionRing(3, (0, 1, 2), np.stack([eye3] * 3), labels=("a", "b"))
    bad = np.stack([eye3] * 3)
    bad[1, 2, 0] = -1
    with pytest.raises(StructuralError) as err:
        FusionRing(3, (0, 1, 2), bad)
    assert "(1,2,0)" in str(err.value)


def test_tensor_is_frozen():
    r = cat.ising()
    with pytest.raises(ValueError):
        r.n[0, 0, 0] = 5


def test_float_tensor_rejected():
    with pytest.raises(StructuralError):
        FusionRing(1, (0,), np.ones((1, 1, 1)))


def test_labels_and_invertibles():
    r = cat.ising()
    assert r.labels == ("1", "d", "X")
    assert r.label(2) == "X"
    assert r.invertible == (True, True, False)
    assert cat.yang_lee().invertible == (True, False)
    assert all(cat.pointed("Z6").invertible)


# ------------------------------------------------------------------ axioms

@pytest.mark.parametrize("ring", [
    cat.ising(), cat.yang_lee(), cat.pointed("Z1"), cat.pointed("S3"),
    cat.yl_extension("Z4"), cat.deligne_product(cat.ising(), cat.yang_lee()),
])
def test_catalog_rings_pass_axioms(ring):
    assert fr.verify_axioms(ring) == []


def test_dual_involution_violation():
    r = cat.yang_lee()
    broken = FusionRing(2, (1, 0), writable(r))
    v = fr.verify_axioms(broken)
    assert v and v[0].axiom == AXIOM_DUAL and v[0].at == (0,)


def test_unit_row_violation():
    n = writable(cat.ising())
    n[0, 1, 1] = 0
    v = fr.verify_axioms(FusionRing(3, (0, 1, 2), n))
    assert v[0].axiom == AXIOM_UNIT
    assert v[0].at == (0, 1, 1)


def test_duality_pairing_violation():
    # Ising tensor with the duality permutation claiming d* = X
    broken = FusionRing(3, (0, 2, 1), writable(cat.ising()))
    v = fr.verify_axioms(broken)
    families = [x.axiom for x in v]
    assert families[0] == AXIOM_DUALITY
    assert set(families) == {AXIOM_DUALITY, AXIOM_FROBENIUS}
    assert v[0].at == (1, 1, 0)


def test_associativity_violation():
    n = writable(cat.ising())
    n[2, 2, 1] = 0  # drop d from X.X, keeping everything else
    v = fr.verify_axioms(FusionRing(3, (0, 1, 2), n))
    families = {x.axiom for x in v}
    assert AXIOM_ASSOCIATIVITY in families
    first_assoc = next(x for x in v if x.axiom == AXIOM_ASSOCIATIVITY)
    assert first_assoc.at == (1, 2, 2, 0)


def test_violations_are_ordered_by_family():
    n = writable(cat.ising())
    n[0, 1, 1] = 0
    n[2, 2, 1] = 0
    v = fr.verify_axioms(FusionRing(3, (0, 2, 1), n))
    order = {AXIOM_DUAL: 0, AXIOM_UNIT: 1, AXIOM_DUALITY: 2,
             AXIOM_FROBENIUS: 3, AXIOM_ASSOCIATIVITY: 4}
    ranks = [order[x.axiom] for x in v]
    assert ranks == sorted(ranks)


@pytest.mark.parametrize("q,b", [
    (3, (3 - pow(3, -1, 2 ** 64)) % 2 ** 64),  # 1 + 3b == 9 modulo 2**64
    (2 ** 30, 2 ** 30),                         # 1 + q*b == q*q in float64
    (2 ** 29, 2 ** 29),                         # 3 * max**2 in [2**53, 2**63): int64
], ids=["int64-wrap", "float64-rounding", "int64-exact"])
def test_associativity_is_exact(q, b):
    # x*x = 1 + q*y, x*y = y*x = q*x, y*y = 1 + b*y. Then (x*x)*y has 1 + q*b
    # copies of y and x*(x*y) has q*q; they differ, but not after the wrap
    # or the rounding named above.
    assert b < 2 ** 63 and 1 + q * b != q * q
    n = np.zeros((3, 3, 3), dtype=np.int64)
    n[0] = np.eye(3, dtype=np.int64)
    n[:, 0] = np.eye(3, dtype=np.int64)
    n[1, 1] = (1, 0, q)
    n[1, 2] = n[2, 1] = (0, q, 0)
    n[2, 2] = (1, 0, b)
    v = fr.verify_axioms(FusionRing(3, (0, 1, 2), n))
    assert [(x.axiom, x.at) for x in v] == [
        (AXIOM_ASSOCIATIVITY, at)
        for at in [(1, 1, 2, 2), (1, 2, 2, 1), (2, 1, 1, 2), (2, 2, 1, 1)]]


def associativity_reference(ring):
    """(i*j)*k against i*(j*k) as two rank**4 tensors of Python ints."""
    n = ring.n.astype(object)
    left = np.einsum("ijm,mkl->ijkl", n, n)
    right = np.einsum("jkm,iml->ijkl", n, n)
    return [tuple(int(x) for x in idx) for idx in np.argwhere(left != right)]


def perturbed(data, ring, values):
    r = ring.rank
    i, j, k = (data.draw(st.integers(0, r - 1)) for _ in range(3))
    n = writable(ring)
    n[i, j, k] = data.draw(values.filter(lambda v: v != n[i, j, k]))
    return FusionRing(r, ring.dual, n)


# rank 24 runs in blocks of four left factors, so violations cross block edges
PERTURB_RINGS = [cat.ising(), cat.pointed("S3"), cat.yl_extension("Z3"),
                 cat.yl_extension("Q8"),
                 cat.deligne_product(cat.yl_extension("Z3"), cat.pointed("Z4"))]


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_associativity_matches_reference(data):
    ring = perturbed(data, data.draw(st.sampled_from(PERTURB_RINGS)), st.integers(0, 3))
    found = [x.at for x in fr.verify_axioms(ring) if x.axiom == AXIOM_ASSOCIATIVITY]
    assert found == associativity_reference(ring)


@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_associativity_matches_reference_with_huge_entries(data):
    # sums beyond 2**53 take the Python-int path, sums beyond 2**63 would wrap int64
    ring = perturbed(data, data.draw(st.sampled_from(PERTURB_RINGS[:4])),
                     st.integers(2 ** 26, 2 ** 63 - 1))
    found = [x.at for x in fr.verify_axioms(ring) if x.axiom == AXIOM_ASSOCIATIVITY]
    assert found == associativity_reference(ring)


def test_associativity_memory_stays_near_rank_cubed():
    ring = cat.deligne_product(cat.yl_extension("Z2xZ2xZ2"), cat.pointed("Z4"))
    assert ring.rank == 64
    tracemalloc.start()
    try:
        assert fr.verify_axioms(ring) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


# ------------------------------------------------------------------ algebra

def test_multiply_ising():
    r = cat.ising()
    xx = fr.multiply(r, 2, 2)
    assert xx.coeffs == (1, 1, 0)
    dx = fr.multiply(r, 1, 2)
    assert dx.coeffs == (0, 0, 1)
    two_x = fr.multiply(r, fr.as_element(r, (0, 0, 2)), 2)
    assert two_x.coeffs == (2, 2, 0)


def test_multiply_group_ring_matches_group():
    from fusionring import groups as gr
    g = gr.symmetric3()
    r = cat.pointed(g)
    for a in range(6):
        for b in range(6):
            prod = fr.multiply(r, a, b)
            expected = [0] * 6
            expected[g.table[a][b]] = 1
            assert prod.coeffs == tuple(expected)


def test_multiply_overflow_guard():
    unit_ring = FusionRing(1, (0,), np.ones((1, 1, 1), dtype=np.int64))
    big = fr.as_element(unit_ring, (2 ** 40,))
    with pytest.raises(OverflowError):
        fr.multiply(unit_ring, big, big)


def test_as_element_rejects_bad_input():
    r = cat.yang_lee()
    with pytest.raises(ValueError):
        fr.as_element(r, (1, -1))
    with pytest.raises(ValueError):
        fr.as_element(r, (1, 2, 3))
    with pytest.raises(ValueError):
        fr.basis_element(r, 5)


# ------------------------------------------------------------------ closure

def test_closure_of_nothing_is_unit():
    r = cat.yl_extension("Z3")
    assert fr.closure(r, ()).members == (0,)


def test_closure_examples():
    r = cat.yl_extension("Z2")
    assert fr.closure(r, (2,)).members == (0, 2)       # Yang-Lee inside
    assert fr.closure(r, (1,)).members == (0, 1)       # pointed part
    assert fr.closure(r, (3,)).members == (0, 1, 2, 3)
    assert fr.closure(r, (2,)).pointed is False
    assert fr.closure(r, (1,)).pointed is True


def test_closure_under_duals():
    r = cat.pointed("Z4")
    assert fr.closure(r, (1,)).members == (0, 1, 2, 3)


def test_is_closed_subset_and_make_subring():
    r = cat.ising()
    assert fr.is_closed_subset(r, (0, 1))
    assert not fr.is_closed_subset(r, (0, 2))
    sub = fr.make_subring(r, (0, 1))
    assert sub.rank == 2 and sub.pointed
    with pytest.raises(ValueError):
        fr.make_subring(r, (0, 2))


@settings(deadline=None, max_examples=25)
@given(seed=st.lists(st.integers(min_value=0, max_value=5), max_size=3))
def test_closure_is_idempotent_and_monotone(seed):
    r = cat.yl_extension("Z3")
    sub = fr.closure(r, seed)
    assert set(seed) <= set(sub.members)
    again = fr.closure(r, sub.members)
    assert again.members == sub.members


# -------------------------------------------------------------- isomorphism

def test_iso_finds_relabeling():
    r = cat.yl_extension("Z3")
    perm = fr.find_isomorphism(r, r)
    assert perm is not None and perm[0] == 0


ISO_RINGS = [cat.ising(), cat.yang_lee(), cat.pointed("S3"), cat.yl_extension("Z3"),
             cat.yl_extension("Z2xZ2"), cat.deligne_product(cat.ising(), cat.pointed("Z2"))] \
    + cat.enumerate_extensions("pointed-z2", "Z2xZ2") \
    + cat.enumerate_extensions("pointed-z2", "Q8")


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_iso_of_conjugated_ring(data):
    r = data.draw(st.sampled_from(ISO_RINGS))
    p = [0] + data.draw(st.permutations(list(range(1, r.rank))))
    n2 = np.zeros_like(r.n)
    n2[np.ix_(p, p, p)] = r.n
    dual2 = [0] * r.rank
    for i in range(r.rank):
        dual2[p[i]] = p[r.dual[i]]
    conj = FusionRing(r.rank, tuple(dual2), n2)
    c1, c2 = colour_classes(r), colour_classes(conj)
    assert all(c2[p[i]] == c1[i] for i in range(r.rank))
    sigma = fr.find_isomorphism(r, conj)
    assert sigma is not None
    s = np.array(sigma)
    assert np.array_equal(r.n, conj.n[np.ix_(s, s, s)])
    assert all(sigma[r.dual[i]] == conj.dual[sigma[i]] for i in range(r.rank))


@pytest.mark.parametrize("build,a,b", [
    (cat.yl_extension, gr.product_of_cyclics([2, 4]), gr.dihedral(4)),
    (cat.pointed, gr.product_of_cyclics([4, 4]), gr.product_of_cyclics([2, 8])),
], ids=["yl-Z2xZ4-D4", "pointed-Z4xZ4-Z2xZ8"])
def test_iso_rejects_rings_with_equal_dimensions(build, a, b):
    r1, r2 = build(a), build(b)
    d1, d2 = sorted(fr.fp_dimensions(r1).dims), sorted(fr.fp_dimensions(r2).dims)
    assert d1 == pytest.approx(d2, abs=1e-9)
    assert fr.find_isomorphism(r1, r2) is None
    assert fr.find_isomorphism(r2, r1) is None


def test_iso_respects_duality():
    r1 = cat.pointed("Z4")
    r2 = cat.pointed("Z2xZ2")
    assert fr.find_isomorphism(r1, r2) is None


def test_iso_distinguishes_rank2_rings():
    semion = cat.pointed("Z2")
    assert fr.find_isomorphism(cat.yang_lee(), semion) is None
    assert fr.find_isomorphism(cat.ising(), cat.yang_lee()) is None


def test_iso_symmetric():
    a = cat.yl_extension("Z2")
    b = cat.deligne_product(cat.yang_lee(), cat.pointed("Z2"))
    ab = fr.find_isomorphism(a, b)
    ba = fr.find_isomorphism(b, a)
    assert ab is not None and ba is not None


def relabelled(ring, p):
    """The ring with basis element i renamed p[i] (p fixes the unit)."""
    n = np.zeros_like(ring.n)
    n[np.ix_(p, p, p)] = ring.n
    dual = [0] * ring.rank
    for i in range(ring.rank):
        dual[p[i]] = p[ring.dual[i]]
    return FusionRing(ring.rank, tuple(dual), n)


def is_isomorphism(r1, r2, sigma):
    s = np.array(sigma)
    return (sorted(sigma) == list(range(r1.rank)) and sigma[0] == 0
            and np.array_equal(r1.n, r2.n[np.ix_(s, s, s)])
            and all(sigma[r1.dual[i]] == r2.dual[sigma[i]] for i in range(r1.rank)))


def brute_force_isomorphic(r1, r2):
    """Whether any unit-fixing basis permutation is an isomorphism, trying all."""
    if r1.rank != r2.rank:
        return False
    r = r1.rank
    perms = np.array([(0,) + p for p in itertools.permutations(range(1, r))])
    d1, d2 = np.array(r1.dual), np.array(r2.dual)
    perms = perms[(perms[:, d1] == d2[perms]).all(axis=1)]
    tensors = r2.n[perms[:, :, None, None], perms[:, None, :, None], perms[:, None, None, :]]
    return bool((tensors == r1.n).all(axis=(1, 2, 3)).any())


# rank <= 8: everything brute force can try in well under a second
SMALL_RINGS = [r for g in ("Z1", "Z2", "Z3", "Z4", "Z2xZ2")
               for r in cat.enumerate_extensions("pointed-z2", g)] \
    + [cat.ising(), cat.yang_lee(), cat.pointed("Z4"), cat.pointed("Z2xZ2"),
       cat.pointed("S3"), cat.yl_extension("Z2"), cat.yl_extension("Z3"),
       cat.yl_extension("Z4"), cat.yl_extension("Z2xZ2"),
       cat.deligne_product(cat.ising(), cat.pointed("Z2")),
       cat.deligne_product(cat.ising(), cat.yang_lee()),
       cat.deligne_product(cat.yang_lee(), cat.yang_lee())]


def draw_relabelling(data, ring):
    return relabelled(ring, [0] + data.draw(st.permutations(list(range(1, ring.rank)))))


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_iso_agrees_with_brute_force(data):
    r1 = data.draw(st.sampled_from(SMALL_RINGS))
    r2 = data.draw(st.sampled_from([r for r in SMALL_RINGS if r.rank == r1.rank]))
    r1, r2 = draw_relabelling(data, r1), draw_relabelling(data, r2)
    sigma = fr.find_isomorphism(r1, r2)
    assert (sigma is not None) == brute_force_isomorphic(r1, r2)
    assert sigma is None or is_isomorphism(r1, r2, sigma)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_iso_agrees_with_brute_force_on_arbitrary_tensors(data):
    # No axiom need hold, so the search cannot lean on Frobenius reciprocity:
    # only the final full-tensor check makes a found map right.
    r = data.draw(st.integers(2, 5))
    dual = [0] + data.draw(st.permutations(list(range(1, r))))
    n = np.array(data.draw(st.lists(st.integers(0, 1), min_size=r ** 3, max_size=r ** 3)),
                 dtype=np.int64).reshape(r, r, r)
    r1 = FusionRing(r, tuple(dual), n)
    r2 = draw_relabelling(data, r1)
    if data.draw(st.booleans()):
        n2 = r2.n.copy()
        i, j, k = (data.draw(st.integers(1, r - 1)) for _ in range(3))
        n2[i, j, k] = 1 - n2[i, j, k]
        r2 = FusionRing(r, r2.dual, n2)
    sigma = fr.find_isomorphism(r1, r2)
    assert (sigma is not None) == brute_force_isomorphic(r1, r2)
    assert sigma is None or is_isomorphism(r1, r2, sigma)


@pytest.fixture(scope="module")
def enumerated_le8():
    return [r for m in range(1, 9) for g in gr.groups_of_order(m)
            for r in cat.enumerate_extensions("pointed-z2", g)]


def test_iso_finds_every_relabelled_enumerated_ring(enumerated_le8):
    rng = np.random.default_rng(5)
    assert len(enumerated_le8) == 68
    for ring in enumerated_le8:
        for _ in range(2):
            other = relabelled(ring, [0] + list(rng.permutation(np.arange(1, ring.rank))))
            q1, q2 = square_profiles(ring), square_profiles(other)
            sigma = fr.find_isomorphism(ring, other)
            assert sigma is not None and is_isomorphism(ring, other, sigma)
            assert all(q2[sigma[i]] == q1[i] for i in range(ring.rank))


def test_iso_of_relabelled_rank64_product():
    # Colour refinement gives the involution of Z2^3 x Z4 that is a square the
    # colour of the other fourteen; without square profiles the search spent
    # up to a minute on wrong images for it.
    ring = cat.deligne_product(cat.yl_extension("Z2xZ2xZ2"), cat.pointed("Z4"))
    p = [0] + list(np.random.default_rng(5).permutation(np.arange(1, 64)))
    other = relabelled(ring, p)
    sigma = fr.find_isomorphism(ring, other)
    assert sigma is not None and is_isomorphism(ring, other, sigma)


def closure_reference(ring, seed):
    """Fixed point of adding duals and constituents of all member products."""
    members = {0} | set(seed)
    while True:
        new = {ring.dual[i] for i in members}
        new |= {int(k) for i in members for j in members for k in np.nonzero(ring.n[i, j])[0]}
        if new <= members:
            return tuple(sorted(members))
        members |= new


CLOSURE_RINGS = [cat.yl_extension("Q8"), cat.deligne_product(cat.ising(), cat.pointed("Q8")),
                 cat.deligne_product(cat.yl_extension("S3"), cat.pointed("Z4"))]


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_closure_matches_fixed_point_reference(data):
    ring = data.draw(st.sampled_from(CLOSURE_RINGS))
    seed = data.draw(st.lists(st.integers(0, ring.rank - 1), max_size=3))
    sub = fr.closure(ring, seed)
    assert sub.members == closure_reference(ring, seed)
    assert sub.pointed == all(ring.invertible[i] for i in sub.members)
