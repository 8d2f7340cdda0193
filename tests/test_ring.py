import functools
import hashlib
import itertools
import json
import math
import pathlib
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    _generating_set,
    _maps_tensor,
    _orbits,
    _residue_primes,
    colour_classes,
    product_support,
    square_profiles,
)
from fusionring.cli import run
from fusionring.ringfile import parse_ring, serialize_ring
from oracles import relabelled, unit_fixing_shuffle


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


def test_unsigned_entries_past_int64_are_rejected():
    # an int64 cast would store 2**64 - 1 as -1
    n = np.zeros((1, 1, 1), dtype=np.uint64)
    n[0, 0, 0] = 2 ** 64 - 1
    with pytest.raises(StructuralError) as err:
        FusionRing(1, (0,), n)
    assert "(0,0,0)" in str(err.value)
    n[0, 0, 0] = 2 ** 63 - 1
    assert int(FusionRing(1, (0,), n).n[0, 0, 0]) == 2 ** 63 - 1


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
    assert repr(r) == "FusionRing(rank=3)"


def test_invertible_ignores_int64_wrap_of_the_row_sum():
    # 1*1 = 1 + 2*x1 + (2**63 - 1)(x2 + x3): the int64 row sum wraps to 1
    n = np.zeros((4, 4, 4), dtype=np.int64)
    n[0] = n[:, 0] = np.eye(4, dtype=np.int64)
    n[1, 1] = (1, 2, 2 ** 63 - 1, 2 ** 63 - 1)
    assert FusionRing(4, (0, 1, 2, 3), n).invertible == (True, False, False, False)


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


def test_package_exports_the_axiom_names():
    n = writable(cat.ising())
    n[0, 1, 1] = 0
    n[2, 2, 1] = 0
    found = fr.verify_axioms(FusionRing(3, (0, 2, 1), n)) \
        + fr.verify_axioms(FusionRing(2, (1, 0), writable(cat.yang_lee())))
    assert {x.axiom for x in found} == {fr.AXIOM_DUAL, fr.AXIOM_UNIT, fr.AXIOM_DUALITY,
                                        fr.AXIOM_FROBENIUS, fr.AXIOM_ASSOCIATIVITY}


@pytest.mark.parametrize("q,b", [
    (3, (3 - pow(3, -1, 2 ** 64)) % 2 ** 64),  # 1 + 3b == 9 modulo 2**64
    (2 ** 30, 2 ** 30),                         # 1 + q*b == q*q in float64
    (2 ** 12 + 2, 2 ** 12 + 2),                 # 1 + q*b == q*q in float32
    (2 ** 29, 2 ** 29),                         # 3 * max**2 in [2**53, 2**63): int64
], ids=["int64-wrap", "float64-rounding", "float32-rounding", "int64-exact"])
def test_associativity_is_exact(q, b):
    # x*x = 1 + q*y, x*y = y*x = q*x, y*y = 1 + b*y. Then (x*x)*y has 1 + q*b
    # copies of y and x*(x*y) has q*q; they differ, but not after the wrap
    # or the rounding named above. In float32, 1 + q*q lies halfway between
    # q*q and the next float32, q*q + 2, and ties round to q*q, whose last
    # bit is even; so it rounds to q*q in any summation order, fused or not.
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


def test_associativity_counts_every_prime():
    # The ring above with 3 * max**2 >= 2**53, so the check runs modulo
    # several primes, and 1 + q*b - q*q a nonzero multiple of the first one:
    # modulo that prime alone the two sides agree.
    q = 2 ** 30
    p = _residue_primes(3, 2 ** 53)[0]
    b = q + (-pow(q, -1, p)) % p
    primes = _residue_primes(3, 3 * b * b)
    assert primes[0] == p and len(primes) > 1
    assert 1 + q * b != q * q and (1 + q * b - q * q) % p == 0
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


@pytest.mark.parametrize("n,at", [
    # S = M = 2, so beta = 5. At (0,0,1) the left side has the counts (4, 0)
    # and the right side (0, 1); in base S*M = 4 both lanes would read 4.
    ([[[0, 2], [0, 1]], [[1, 0], [2, 0]]], (0, 0, 1)),
    # beta = 16386 * 8193 + 1 = 134250499, so b = 1. Lanes of two constituents
    # would pass 2**53 and round [0, 67125249] and [1, 67125249] at (1,0,0),
    # that is 67125249 * beta and one more, to one float.
    ([[[8193, 1], [8193, 8193]], [[0, 8193], [1, 0]]], (1, 0, 0)),
], ids=["carry", "rounding"])
def test_associativity_lanes_are_exact(n, at):
    ring = FusionRing(2, (0, 1), np.array(n, dtype=np.int64))
    found = [x.at for x in fr.verify_axioms(ring) if x.axiom == AXIOM_ASSOCIATIVITY]
    assert found == associativity_reference(ring)
    assert at in {x[:3] for x in found}


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


def reciprocity_reference(ring):
    """(i, j, k) where n[i,j,k], n[i*,k,j] and n[k,j*,i] are not all equal."""
    r, d, n = ring.rank, ring.dual, ring.n.tolist()
    return [(i, j, k) for i in range(r) for j in range(r) for k in range(r)
            if not n[i][j][k] == n[d[i]][k][j] == n[k][d[j]][i]]


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_broken_reciprocity_is_always_reported(data):
    base = data.draw(st.sampled_from(PERTURB_RINGS))
    r = base.rank
    n = writable(base)
    for _ in range(data.draw(st.integers(1, 3))):
        i, j, k = (data.draw(st.integers(0, r - 1)) for _ in range(3))
        n[i, j, k] = data.draw(st.integers(0, 3).filter(lambda v: v != n[i, j, k]))
    ring = FusionRing(r, base.dual, n)
    expected = reciprocity_reference(ring)
    assume(expected)
    found = [x.at for x in fr.verify_axioms(ring) if x.axiom == AXIOM_FROBENIUS]
    assert found == expected


def reciprocity_orbit(ring, i, j, k):
    """The positions whose entries reciprocity ties to n[i,j,k]."""
    d = ring.dual
    orbit, todo = set(), [(i, j, k)]
    while todo:
        a, b, c = at = todo.pop()
        if at not in orbit:
            orbit.add(at)
            todo += [(d[a], c, b), (c, d[b], a)]
    return orbit


def reciprocity_mask_reference(ring):
    """(i, j, k) off reciprocity by the two dense r**3 masks, in C order."""
    n, d = ring.n, np.array(ring.dual)
    mism = (n != n[d].transpose(0, 2, 1)) | (n != n[:, d, :].transpose(2, 1, 0))
    return [tuple(at) for at in np.argwhere(mism).tolist()]


@settings(deadline=None, max_examples=60)
@given(data=st.data(), involutive=st.booleans(), at_zero=st.booleans())
def test_one_reciprocity_defect_is_listed_as_the_dense_masks_list_it(data, involutive, at_zero):
    """One entry changed on a tensor with reciprocity, at a zero or a nonzero.

    verify_axioms decides reciprocity on the nonzero entries alone, which is
    sound only because both index maps are bijections; a defect at a zero,
    or under a dual that is no involution, must be listed all the same.
    """
    r = data.draw(st.integers(2 if involutive else 3, 5))
    perm = data.draw(st.permutations(range(r)))
    if involutive:
        dual = list(range(r))
        for a, b in zip(perm[::2], perm[1::2]):
            if data.draw(st.booleans()):
                dual[a], dual[b] = b, a
    else:
        dual = perm
        assume(any(dual[dual[x]] != x for x in range(r)))
    ring = FusionRing(r, tuple(dual), np.zeros((r, r, r), dtype=np.int64))
    n, done = writable(ring), set()
    for at in itertools.product(range(r), repeat=3):
        if at not in done:  # one value per reciprocity orbit, 0 for most
            orbit = reciprocity_orbit(ring, *at)
            n[tuple(zip(*orbit))] = data.draw(st.sampled_from([0, 0, 0, 1, 2]))
            done |= orbit
    assert reciprocity_mask_reference(FusionRing(r, ring.dual, n.copy())) == []
    spots = [tuple(x) for x in np.argwhere((n == 0) if at_zero else (n != 0)).tolist()]
    assume(spots)
    at = data.draw(st.sampled_from(spots))
    n[at] = data.draw(st.sampled_from([v for v in range(4) if v != n[at]]))
    broken = FusionRing(r, ring.dual, n)
    expected = reciprocity_mask_reference(broken)
    assume(expected)  # an orbit of one position ties n[at] to nothing else
    assert [x.at for x in fr.verify_axioms(broken) if x.axiom == AXIOM_FROBENIUS] == expected
    assert expected == reciprocity_reference(broken)


def orbit_perturbed(data, ring, change):
    """ring with change(entry) applied to one whole reciprocity orbit off the unit.

    Unit, duality and reciprocity stay valid, so verify_axioms reaches its
    associativity check with nothing reported before it.
    """
    r = ring.rank
    i, j, k = (data.draw(st.integers(1, r - 1)) for _ in range(3))
    n = writable(ring)
    for at in reciprocity_orbit(ring, i, j, k):
        n[at] = change(n[at])
    return FusionRing(r, ring.dual, n)


# rank > 16, so the full check runs in more than one block and the generating
# set is tried first. On the relabelled near-group ring the peel stalls five
# times: S is [1, 2, 3, 4, 11], and 2 and 3 are not invertible.
CERTIFIED_RINGS = [cat.deligne_product(cat.yl_extension("Z3"), cat.pointed("Z4")),
                   cat.deligne_product(cat.yl_extension("Q8"), cat.pointed("Z2")),
                   relabelled(cat.deligne_product(cat.enumerate_extensions("pointed-z2", "Z4")[0],
                                                  cat.pointed("Z4")),
                              unit_fixing_shuffle(24, 8))]


def small_associativity_reference(ring):
    """associativity_reference as two int64 products, exact for small entries."""
    r, n = ring.rank, ring.n
    assert r * int(n.max()) ** 2 < 2 ** 63
    left = (n.reshape(r * r, r) @ n.reshape(r, r * r)).reshape(r, r, r, r)
    right = np.matmul(n.reshape(r * r, r), n).reshape(r, r, r, r)
    return [tuple(int(x) for x in idx) for idx in np.argwhere(left != right)]


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_certificate_falls_back_to_the_full_check(data):
    ring = orbit_perturbed(data, data.draw(st.sampled_from(CERTIFIED_RINGS)),
                           lambda v: v + 1)
    found = fr.verify_axioms(ring)
    assert {x.axiom for x in found} <= {AXIOM_ASSOCIATIVITY}
    assert [x.at for x in found] == small_associativity_reference(ring)


@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_certificate_checks_every_generator(data):
    # Perturb the first factor of A x pointed(Z4). Basis element 1 = (1, g) acts
    # on the first factor as the unit does, so it stays in the left nucleus and
    # only a later generator can show the violations.
    left = orbit_perturbed(data, data.draw(st.sampled_from(
        [cat.yl_extension("Z3"), cat.yl_extension("Z4")])), lambda v: v + 1)
    ring = cat.deligne_product(left, cat.pointed("Z4"))
    expected = small_associativity_reference(ring)
    assume(expected)
    assert all(at[0] != 1 for at in expected)
    found = fr.verify_axioms(ring)
    assert [(x.axiom, x.at) for x in found] == [(AXIOM_ASSOCIATIVITY, at) for at in expected]


def test_small_reference_agrees_with_reference():
    ring = cat.deligne_product(cat.yl_extension("Z3"), cat.pointed("Z2"))
    n = writable(ring)
    for at in reciprocity_orbit(ring, 1, 2, 3):
        n[at] += 1
    ring = FusionRing(ring.rank, ring.dual, n)
    assert small_associativity_reference(ring) == associativity_reference(ring) != []


@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_certificate_falls_back_with_huge_entries(data):
    # one value on the whole orbit: 2**26 and up need one or more residue primes;
    # the rank-24 rings only, as the Python-int reference takes seconds at rank 32
    value = data.draw(st.integers(2 ** 26, 2 ** 62))
    ring = orbit_perturbed(data, data.draw(st.sampled_from(CERTIFIED_RINGS[::2])),
                           lambda v: value)
    found = fr.verify_axioms(ring)
    assert {x.axiom for x in found} <= {AXIOM_ASSOCIATIVITY}
    assert [x.at for x in found] == associativity_reference(ring)


def span_rank_mod(ring, gens, q):
    """Rank modulo q of the products of gens, from the unit multiplied on the right."""
    rows = {}  # pivot -> row, zero before its pivot and 1 at it
    todo = [np.eye(ring.rank, dtype=np.int64)[0]]
    while todo:
        v = todo.pop() % q
        for c in sorted(rows):
            v = (v - v[c] * rows[c]) % q
        if v.any():
            c = int(np.flatnonzero(v)[0])
            rows[c] = v * pow(int(v[c]), -1, q) % q
            todo += [rows[c] @ ring.n[:, s, :] for s in gens]
    return len(rows)


def test_generating_set_is_small():
    # the catalog and Deligne rings of rank 24 to 64 that the benchmark verifies,
    # classifies or compares; S is pinned, so that each ring's certificate
    # checks a fixed number of left factors
    z2 = gr.cyclic(2)
    rings = [cat.yl_extension(g) for g in (
        gr.product_of_cyclics([4, 4]), gr.product_of_cyclics([2, 8]),
        gr.product_group(z2, gr.dihedral(4)), gr.product_group(z2, gr.quaternion8()),
        gr.dihedral(8))]
    rings += [cat.deligne_product(cat.yl_extension(g), other) for g, other in (
        ("Z3", cat.pointed("Z4")), ("S3", cat.pointed("Z4")), ("Q8", cat.ising()),
        ("D4", cat.ising()), ("Z2xZ2xZ2", cat.pointed("Z4")))]
    # on this labelling of yl(Z3) x pointed(Z4), products with two constituents
    # outside K wait and peel later; were they dropped, S would be [1, 2, 3, 14]
    rings.append(relabelled(rings[5], unit_fixing_shuffle(24, 2)))
    expected = [[1, 4, 16], [1, 8, 16], [1, 4, 8, 16], [1, 2, 4, 8, 16], [1, 8, 16],
                [1, 4, 12], [1, 4, 12, 24], [1, 2, 3, 6, 12, 24], [1, 2, 3, 12, 24],
                [1, 4, 8, 16, 32], [1, 2]]
    for ring, gens in zip(rings, expected, strict=True):
        assert 24 <= ring.rank <= 64
        assert _generating_set(ring) == gens
        assert span_rank_mod(ring, gens, 1_000_003) == ring.rank


# near-group rings times pointed(Z4) and powers of Ising and Yang-Lee, where a
# product often has several constituents outside K
SPANNED_RINGS = ([cat.deligne_product(ng, cat.pointed("Z4"))
                  for u in ("Z2", "Z4", "Z2xZ2")
                  for ng in cat.enumerate_extensions("pointed-z2", u) if not all(ng.invertible)]
                 + [functools.reduce(cat.deligne_product, [cat.ising()] * 3),
                    functools.reduce(cat.deligne_product, [cat.yang_lee()] * 5)])


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_generating_set_spans_every_relabelling(data):
    # S proves associativity only if its products from the unit span Q^rank;
    # span_rank_mod computes that span independently of the peel
    ring = data.draw(st.sampled_from(SPANNED_RINGS))
    ring = relabelled(ring, [0, *data.draw(st.permutations(range(1, ring.rank)))])
    assert span_rank_mod(ring, _generating_set(ring), 1_000_003) == ring.rank


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


def verify_reference(ring):
    """verify_axioms as (axiom, at) pairs, from loops over Python ints.

    The associator is the full rank**4 object einsum of associativity_reference.
    """
    r, d, n = ring.rank, ring.dual, ring.n.tolist()
    cells = list(itertools.product(range(r), repeat=2))
    return ([(AXIOM_DUAL, (i,)) for i in range(r) if d[d[i]] != i or (i == 0 and d[0] != 0)]
            + [(AXIOM_UNIT, (0, j, k)) for j, k in cells if n[0][j][k] != (j == k)]
            + [(AXIOM_UNIT, (i, 0, k)) for i, k in cells if i and n[i][0][k] != (i == k)]
            + [(AXIOM_DUALITY, (i, j, 0)) for i, j in cells if n[i][j][0] != (j == d[i])]
            + [(AXIOM_FROBENIUS, at) for at in reciprocity_reference(ring)]
            + [(AXIOM_ASSOCIATIVITY, at) for at in associativity_reference(ring)])


def found_pairs(ring):
    return [(x.axiom, x.at) for x in fr.verify_axioms(ring)]


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_verify_matches_reference_on_random_tensors(data):
    r = data.draw(st.integers(1, 5))
    n = np.array(data.draw(st.lists(st.integers(0, 3), min_size=r ** 3, max_size=r ** 3)),
                 dtype=np.int64).reshape(r, r, r)
    if data.draw(st.booleans()):
        # unit rows in place, so the later families carry the violations
        n[0] = n[:, 0] = np.eye(r, dtype=np.int64)
    ring = FusionRing(r, tuple(data.draw(st.permutations(range(r)))), n)
    assert found_pairs(ring) == verify_reference(ring)


def corrupted(ring):
    """One constituent of the first product x*y without the unit moved, as the benchmark does.

    Unit and duality rows stay intact; reciprocity and associativity break.
    """
    n = writable(ring)
    for i, j in itertools.product(range(1, ring.rank), repeat=2):
        row = n[i, j]
        if not row[0]:
            old = int(np.flatnonzero(row)[0])
            new = next(k for k in range(1, ring.rank) if row[k] == 0)
            row[old] -= 1
            row[new] += 1
            return FusionRing(ring.rank, ring.dual, n, ring.labels)
    raise ValueError("ring has no product to corrupt")


# ranks 3 to 32; rank 24 and 32 run the full check in several blocks
CORRUPTIBLE_RINGS = [cat.ising(), cat.yl_extension("S3"), cat.yl_extension("Q8"),
                     cat.deligne_product(cat.yl_extension("Z3"), cat.pointed("Z4")),
                     cat.yl_extension(gr.dihedral(8))]


@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_verify_matches_reference_on_corrupted_rings(data):
    ring = draw_relabelling(data, corrupted(data.draw(st.sampled_from(CORRUPTIBLE_RINGS))))
    found = found_pairs(ring)
    assert {AXIOM_FROBENIUS, AXIOM_ASSOCIATIVITY} <= {axiom for axiom, _ in found}
    assert found == verify_reference(ring)


def lane_bound(k):
    """The largest b with (b*b + b + 1)**k <= 2**53."""
    def beta(b):
        return b * b + b + 1

    b = math.isqrt(round(2 ** (53 / k)))
    while beta(b) ** k > 2 ** 53:
        b -= 1
    while beta(b + 1) ** k <= 2 ** 53:
        b += 1
    return b


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_verify_matches_reference_across_the_float_bounds(data):
    # x*x = 1 + b*x times pointed(G) has M = max(N) = b and S = b + 1, so
    # beta = b*b + b + 1: lanes of the largest k with beta**k <= 2**53 while
    # r*b*b < 2**53, residue primes above. b53 straddles that bound, b24 the
    # bound r*b*b = 2**24, and the lane draws put beta just under and just
    # over 2**(53/k) for k = 1, 2, 3.
    right = cat.pointed(data.draw(st.sampled_from(["Z2", "Z4", "S3", "D4"])))
    r = 2 * right.rank
    b24, b53 = math.isqrt((2 ** 24 - 1) // r), math.isqrt((2 ** 53 - 1) // r)
    lanes = [lane_bound(k) + over for k in (1, 2, 3) for over in (0, 1)]
    b = data.draw(st.sampled_from([b24, b24 + 1, b53, b53 + 1, 2 ** 40, 2 ** 62, *lanes]))
    ring = cat.deligne_product(x_squared_is_1_plus_bx(b), right)
    assert found_pairs(ring) == []
    if data.draw(st.booleans()):
        ring = perturbed(data, ring, st.integers(0, b))
    else:
        ring = orbit_perturbed(data, ring, lambda v: v + 1)
    assert found_pairs(ring) == verify_reference(ring)


# sha256 of `verify --json` on the corrupted rank-48 and rank-64 products, as
# the float64 check with argwhere listing printed them
@pytest.mark.parametrize("left,digest", [
    ("S3", "87c0c1ef6b1571389a95272e71b9fa41ae5cdd4fe1c1f4b02be1e19d8dadc323"),
    ("Z2xZ2xZ2", "7e7bcaa076a56fa2cba74d79592bc678f5b47ebaaa4ce93e50406bc62c33bddd"),
], ids=["rank48", "rank64"])
def test_verify_json_of_corrupted_rings_is_pinned(left, digest, tmp_path, capsys):
    ring = corrupted(cat.deligne_product(cat.yl_extension(left), cat.pointed("Z4")))
    path = tmp_path / "ring.json"
    path.write_text(serialize_ring(ring), encoding="utf-8")
    assert run(["verify", str(path), "--json"]) == 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_of_a_ring_breaking_all_five_families_is_pinned(tmp_path, capsys):
    # Ising with 1*d = 0, X*X = 1 and a duality that swaps 1 and d
    doc = json.loads((pathlib.Path(__file__).parent / "data" / "ising.json").read_text())
    doc["N"][0][1][1] = doc["N"][2][2][1] = 0
    doc["duality"] = [1, 0, 2]
    path = tmp_path / "five.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    ring = parse_ring(path.read_text(encoding="utf-8"))
    assert found_pairs(ring) == verify_reference(ring)
    assert Counter(axiom for axiom, _ in found_pairs(ring)) == {
        AXIOM_DUAL: 1, AXIOM_UNIT: 1, AXIOM_DUALITY: 4, AXIOM_FROBENIUS: 10,
        AXIOM_ASSOCIATIVITY: 8}
    # sha256 of the text and the JSON report, as the per-family loops printed them
    for json_flag, digest in (
            ([], "ec2d96b433f175d02cd961d4553135c07e0aa1159404789769cbdea71b34a42c"),
            (["--json"], "802fc07dbd3ac456f9a9c076ed4f57356c31853c89d816290af1dbc1f1b36238")):
        assert run(["verify", str(path), *json_flag]) == 1
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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


@pytest.mark.parametrize("call,message", [
    (lambda: FusionRing(0, (), np.zeros((0, 0, 0))), "rank must be at least 1"),
    (lambda: fr.as_element(cat.ising(), fr.RingElement((1, 0))),
     "element length does not match ring rank"),
    # a bool or a float is no index or coefficient, though int() would take it
    (lambda: FusionRing(3.0, (0, 1, 2), cat.ising().n), "rank is 3.0, not an integer"),
    (lambda: FusionRing(3, (0, 1, 2.5), cat.ising().n), "duality entry is 2.5, not an integer"),
    (lambda: FusionRing(3, (True, False, 2), cat.ising().n),
     "duality entry is True, not an integer"),
    (lambda: fr.closure(cat.ising(), [1.5]), "seed index is 1.5, not an integer"),
    (lambda: fr.make_subring(cat.ising(), [0.0, 1.0]), "member is 0.0, not an integer"),
    (lambda: fr.is_closed_subset(cat.ising(), [0, 1.2]), "member is 1.2, not an integer"),
    (lambda: fr.multiply(cat.ising(), [1.5, 0, 0], [0, 0, 1]),
     "coefficient is 1.5, not an integer"),
    (lambda: fr.RingElement((2.9, True)), "coefficient is 2.9, not an integer"),
    (lambda: fr.basis_element(cat.ising(), 1.0), "basis index is 1.0, not an integer"),
    (lambda: fr.as_element(cat.ising(), True), "basis index is True, not an integer"),
    (lambda: fr.stabilizer(cat.ising(), 1.0), "basis index is 1.0, not an integer"),
    (lambda: fr.even_rank_pairing(cat.ising(), 1.0), "delta is 1.0, not an integer"),
], ids=["rank-0", "element-length", "float-rank", "float-dual", "bool-dual", "float-seed",
        "float-members", "float-member", "float-coefficient", "float-bool-coefficients",
        "float-basis-index", "bool-basis-index", "float-stabilizer-index", "float-delta"])
def test_input_guards(call, message):
    with pytest.raises(StructuralError) as info:
        call()
    assert str(info.value) == message


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


def test_closure_rejects_a_seed_out_of_range():
    r = cat.ising()
    for seed in ((3,), (1, -1)):
        with pytest.raises(StructuralError):
            fr.closure(r, seed)


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
    conj = relabelled(r, p)
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


def is_isomorphism(r1, r2, sigma):
    s = np.array(sigma)
    return (sorted(sigma) == list(range(r1.rank)) and sigma[0] == 0
            and np.array_equal(r1.n, r2.n[np.ix_(s, s, s)])
            and all(sigma[r1.dual[i]] == r2.dual[sigma[i]] for i in range(r1.rank)))


def least_isomorphism(r1, r2):
    """The least isomorphism r1 -> r2 in the search's order, by trying every map, or None.

    The maps fix the unit and commute with duality. They are compared by
    their images at order[0], order[1], ..., where order lists the non-unit
    colour classes of r1 by (size, smallest member), each class in
    increasing index; the images come in increasing index.
    """
    if r1.rank != r2.rank:
        return None
    r, colours = r1.rank, colour_classes(r1)
    classes = {}
    for i in range(1, r):
        classes.setdefault(colours[i], []).append(i)
    order = [i for cls in sorted(classes.values(), key=lambda m: (len(m), m[0])) for i in cls]
    # permutations come in lexicographic order, so row t holds the t-th map
    perms = np.zeros((math.factorial(r - 1), r), dtype=np.int64)
    perms[:, order] = list(itertools.permutations(range(1, r)))
    d1, d2 = np.array(r1.dual), np.array(r2.dual)
    perms = perms[(perms[:, d1] == d2[perms]).all(axis=1)]
    tensors = r2.n[perms[:, :, None, None], perms[:, None, :, None], perms[:, None, None, :]]
    hits = np.flatnonzero((tensors == r1.n).all(axis=(1, 2, 3)))
    return tuple(perms[hits[0]].tolist()) if len(hits) else None


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
    assert fr.find_isomorphism(r1, r2) == least_isomorphism(r1, r2)


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
    assert fr.find_isomorphism(r1, r2) == least_isomorphism(r1, r2)


def digit_tensor(digits):
    """The r x r x r tensor whose entries, in C order, are the given decimal digits."""
    r = round(len(digits) ** (1 / 3))
    return np.array([int(c) for c in digits], dtype=np.int64).reshape(r, r, r)


# Isomorphic pairs on which colour classes hold every non-unit element, so
# the search tries wrong images before the right one.
@pytest.mark.parametrize("left,right", [
    # a wrong image gives a product with another number of constituents
    ("4555544661464164614641664234453332433023333554451424354353533234"
     "3414453233024534303324544133432335352544344154355333320334233",
     "4555544661464164614641664234453323433535332034415424354303323334"
     "2454413335524534355334144532433323302544344514330233535334323"),
    # every product has one constituent, and a wrong image forces it with
    # another multiplicity
    ("1000100010001000020001000010002000200002001000010002010002000001",
     "1000100010001000020001000002000100200100001002000002002000100001"),
])
def test_iso_rejects_wrong_images_by_their_products(left, right):
    r1, r2 = (FusionRing(len(t), tuple(range(len(t))), t) for t in map(digit_tensor, (left, right)))
    assert len(set(colour_classes(r1)[1:])) == 1
    assert fr.find_isomorphism(r1, r2) == least_isomorphism(r1, r2)


def test_iso_rejects_a_wrong_image_by_the_colours_of_its_products():
    # a_i = 1, 2, 3 and b_i = 4, 5, 6 (i mod 3) with a_i * a_{i+1} = b_i and
    # a_i * a_{i+2} = a_{i+1}: turning both triples keeps the tensor, so each
    # triple is one colour class. In the mirror image (2 and 3 swapped) the
    # search tries 2 -> 2 first, and 2 * 1 = 3 meets 2 * 1 = 6 there: the
    # free constituents of the two products differ in colour.
    n = np.zeros((7, 7, 7), dtype=np.int64)
    n[0, range(7), range(7)] = n[range(7), 0, range(7)] = 1
    for i in range(3):
        a, b, c = 1 + i, 1 + (i + 1) % 3, 1 + (i + 2) % 3
        n[a, b, 4 + i] = n[a, c, b] = 1
    r1 = FusionRing(7, tuple(range(7)), n)
    r2 = relabelled(r1, [0, 1, 3, 2, 4, 5, 6])
    colours = colour_classes(r1)
    assert len(set(colours[1:4])) == len(set(colours[4:])) == 1 and colours[1] != colours[4]
    assert fr.find_isomorphism(r1, r2) == least_isomorphism(r1, r2) == (0, 1, 3, 2, 4, 5, 6)


def test_iso_final_comparison_guards_rings_without_reciprocity(monkeypatch):
    # A 2x2 switch of the 0/1 entries in row 9 of a rank-12 enumerated ring
    # keeps its colours and square profiles but breaks Frobenius reciprocity
    # and associativity. The pair checks of the search then let complete
    # maps through that are no isomorphism (96 in each direction); only the
    # final tensor comparison rejects them. Without it the identity is found.
    r1 = cat.enumerate_extensions("pointed-z2", "Z2xZ2xZ2")[2]
    n = r1.n.copy()
    n[9, 11, 6], n[9, 11, 4], n[9, 8, 6], n[9, 8, 4] = 1, 0, 0, 1
    r2 = FusionRing(12, r1.dual, n)
    assert "frobenius-reciprocity" in {v.axiom for v in fr.verify_axioms(r2)}
    assert sorted(colour_classes(r1)) == sorted(colour_classes(r2))
    assert sorted(square_profiles(r1)) == sorted(square_profiles(r2))
    compared = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda a, b: compared.append(array_equal(a, b)) or compared[-1])
    for left, right in ((r1, r2), (r2, r1)):
        compared.clear()
        assert fr.find_isomorphism(left, right) is None
        assert compared and not any(compared)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_tensor_check_at_the_nonzeros_matches_the_dense_comparison(data):
    # on arbitrary tensors: r2 the image of r1 under sigma, that image with
    # one entry changed or one nonzero added, or the image under another map
    r = data.draw(st.integers(1, 5))
    dual = [0] + data.draw(st.permutations(list(range(1, r))))
    n = np.array(data.draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=r ** 3,
                                    max_size=r ** 3)), dtype=np.int64).reshape(r, r, r)
    r1 = FusionRing(r, tuple(dual), n)
    sigma = [0] + data.draw(st.permutations(list(range(1, r))))
    other = data.draw(st.sampled_from(["image", "changed", "added", "another map"]))
    if other == "another map":
        r2 = relabelled(r1, [0] + data.draw(st.permutations(list(range(1, r)))))
    else:
        r2 = relabelled(r1, sigma)
    if other in ("changed", "added"):
        zeros = np.argwhere(r2.n == 0) if other == "added" else np.argwhere(r2.n >= 0)
        assume(len(zeros))
        at = tuple(zeros[data.draw(st.integers(0, len(zeros) - 1))])
        n2 = r2.n.copy()
        n2[at] = (n2[at] + 1) % 3
        r2 = FusionRing(r, r2.dual, n2)
    s = np.array(sigma)
    dense = np.array_equal(r1.n, r2.n[np.ix_(s, s, s)])
    assert _maps_tensor(r1, r2, sigma) == dense
    if other == "added":  # only the count of nonzeros tells: each nonzero of r1 maps onto its value
        i, j, k = np.nonzero(r1.n)
        assert not dense and np.array_equal(r2.n[s[i], s[j], s[k]], r1.n[i, j, k])


@pytest.fixture(scope="module")
def enumerated_le8():
    return [r for m in range(1, 9) for g in gr.groups_of_order(m)
            for r in cat.enumerate_extensions("pointed-z2", g)]


def test_iso_final_comparison_holds_on_rings_with_reciprocity(enumerated_le8, monkeypatch):
    # Each step checks x*j one way round only, for x in the step's dual pair
    # and j assigned by then; on rings with reciprocity and an involutive dual
    # that proves every complete map an isomorphism (the comment in search).
    # So every search reaches the final comparison once, and it holds; the
    # first that fails stops the test before a search without its checks
    # runs on through wrong maps.
    rings = enumerated_le8 + [cat.yl_extension(g) for m in range(1, 9)
                              for g in gr.groups_of_order(m)]
    compared = []
    array_equal = np.array_equal

    def compare(a, b):
        compared.append(array_equal(a, b))
        assert compared[-1], "a complete map is no isomorphism"
        return True

    monkeypatch.setattr(np, "array_equal", compare)
    searches = 0
    for index, ring in enumerate(rings):
        for side in range(2):
            other = relabelled(ring, unit_fixing_shuffle(ring.rank, f"{index}/{side}"))
            assert fr.find_isomorphism(ring, other) is not None
            searches += 1
    assert len(rings) == 82 and compared == [True] * searches


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


def test_iso_of_two_relabelled_rank64_rings():
    # Both sides relabelled, by independent seeded permutations: three pairs
    # of each ring. The benchmark's iso requests are too small to show a slow
    # search on these.
    rings = [cat.pointed(gr.product_of_cyclics([2] * 6)),
             cat.yl_extension(gr.product_of_cyclics([2] * 5))]
    rng = np.random.default_rng(5)
    elapsed = 0.0
    for ring in rings:
        for _ in range(3):
            r1, r2 = (relabelled(ring, [0] + list(rng.permutation(np.arange(1, 64))))
                      for _ in range(2))
            start = time.perf_counter()
            sigma = fr.find_isomorphism(r1, r2)
            elapsed += time.perf_counter() - start
            assert sigma is not None and is_isomorphism(r1, r2, sigma)
    assert elapsed < 3.0


# sha256 over the maps find_isomorphism returns on two seeded relabelled
# pairs of each ring, ranks 24-64: the search returns the same first map
SEARCH_DIGEST = "9ca6385a909a5f04d724fb7fb72f54b34e5393e0a5e6d6fa84ee71cd19045487"


def test_iso_maps_of_relabelled_pairs_are_pinned():
    rings = [cat.deligne_product(cat.yl_extension("S3"), cat.pointed("Z2")),
             cat.deligne_product(cat.ising(), cat.pointed("Q8")),
             cat.deligne_product(cat.pointed("Z2xZ2xZ2"), cat.pointed("Z4")),
             cat.deligne_product(cat.yl_extension("S3"), cat.pointed("Z4")),
             cat.deligne_product(cat.yl_extension("Q8"), cat.ising()),
             cat.deligne_product(cat.yl_extension("Z2xZ2xZ2"), cat.pointed("Z4"))]
    digest = hashlib.sha256()
    for index, ring in enumerate(rings):
        for pair in range(2):
            r1, r2 = (relabelled(ring, unit_fixing_shuffle(ring.rank, f"{index}/{pair}/{side}"))
                      for side in range(2))
            sigma = fr.find_isomorphism(r1, r2)
            assert sigma is not None and is_isomorphism(r1, r2, sigma)
            digest.update(repr(sigma).encode())
    assert digest.hexdigest() == SEARCH_DIGEST


# sha256 over the maps find_isomorphism returns from each hard input to its
# relabellings by unit_fixing_shuffle(rank, s), s = "a", "b", "c"
HARD_INPUT_DIGEST = "20e35dc060509af3961fe78e121d3ad8993c48a57730d8c9eb876db4092fdb7b"


def test_iso_maps_of_hard_inputs_are_pinned():
    rings = [cat.pointed(gr.product_of_cyclics([2] * 6)),
             cat.pointed(gr.product_of_cyclics([4] * 3)),
             functools.reduce(cat.deligne_product, [cat.ising()] * 4),
             functools.reduce(cat.deligne_product, [cat.yang_lee()] * 6),
             cat.deligne_product(cat.yl_extension("Z2xZ2xZ2"), cat.pointed("Z2xZ2xZ2"))]
    digest = hashlib.sha256()
    for ring in rings:
        for s in "abc":
            other = relabelled(ring, unit_fixing_shuffle(ring.rank, s))
            sigma = fr.find_isomorphism(ring, other)
            assert sigma is not None and is_isomorphism(ring, other, sigma)
            digest.update(repr(sigma).encode())
    assert digest.hexdigest() == HARD_INPUT_DIGEST


def sorted_entry_colours(ring):
    """Reference: colour refinement seeded by the sorted r*r entries of each slot, in int64."""
    r, n = ring.rank, ring.n
    slots = (n, n.transpose(1, 0, 2), n.transpose(2, 0, 1))
    entries = [np.sort(t.reshape(r, -1), axis=1).tolist() for t in slots]
    colours = [hash((bool(ring.invertible[i]), ring.dual[i] == i, int(n[i, i, i]),
                     tuple(entries[0][i]), tuple(entries[1][i]), tuple(entries[2][i])))
               for i in range(r)]
    while True:
        index = {c: a for a, c in enumerate(sorted(set(colours)))}
        onehot = np.zeros((r, len(index)), dtype=np.int64)
        onehot[np.arange(r), [index[c] for c in colours]] = 1
        counts = [(onehot.T @ (t @ onehot)).reshape(r, -1).tolist() for t in slots]
        refined = [hash((colours[i], colours[ring.dual[i]],
                         tuple(counts[0][i]), tuple(counts[1][i]), tuple(counts[2][i])))
                   for i in range(r)]
        if len(set(refined)) <= len(index):
            return tuple(colours)
        colours = refined


def partition(colours):
    """Each element's class, named by the first element of that class."""
    first = {}
    return tuple(first.setdefault(c, i) for i, c in enumerate(colours))


def x_squared_is_1_plus_bx(b):
    """The rank-2 fusion ring with x*x = 1 + b*x."""
    n = np.zeros((2, 2, 2), dtype=np.int64)
    n[0] = np.eye(2, dtype=np.int64)
    n[1, 0, 1] = n[1, 1, 0] = 1
    n[1, 1, 1] = b
    return FusionRing(2, (0, 1), n)


def test_colour_classes_partition_matches_sorted_entry_seed(enumerated_le8):
    rings = SMALL_RINGS + CLOSURE_RINGS + enumerated_le8 + [
        cat.deligne_product(cat.yl_extension("S3"), cat.pointed("Z2")),
        cat.deligne_product(x_squared_is_1_plus_bx(2 ** 60 - 1), cat.pointed("D4"))]
    rng = np.random.default_rng(14)
    for ring in rings:
        for other in (ring, relabelled(ring, [0] + list(rng.permutation(np.arange(1, ring.rank))))):
            assert partition(colour_classes(other)) == partition(sorted_entry_colours(other))


def exact_colours(ring):
    """colour_classes with every count a Python int, from loops over the tensor."""
    r, n = ring.rank, ring.n.tolist()
    slots = [[[n[i][j][k] for j in range(r) for k in range(r)] for i in range(r)],
             [[n[j][i][k] for j in range(r) for k in range(r)] for i in range(r)],
             [[n[j][k][i] for j in range(r) for k in range(r)] for i in range(r)]]
    colours = [hash((bool(ring.invertible[i]), ring.dual[i] == i, n[i][i][i],
                     *(tuple(sorted(Counter(t[i]).items())) for t in slots)))
               for i in range(r)]
    while True:
        index = {c: a for a, c in enumerate(sorted(set(colours)))}
        classes = len(index)
        counts = [[[0] * classes * classes for _ in range(r)] for _ in slots]
        for s, t in enumerate(slots):
            for i in range(r):
                for (j, k), v in zip(itertools.product(range(r), repeat=2), t[i]):
                    counts[s][i][index[colours[j]] * classes + index[colours[k]]] += v
        refined = [hash((colours[i], colours[ring.dual[i]],
                         tuple(counts[0][i]), tuple(counts[1][i]), tuple(counts[2][i])))
                   for i in range(r)]
        if len(set(refined)) <= classes:
            return tuple(colours)
        colours = refined


@pytest.mark.parametrize("b", [2, 2 ** 40, 2 ** 60 - 1, 2 ** 61, 2 ** 62])
def test_colour_values_are_exact_counts(b):
    # r*r*b >= 2**53 from 2**45 on, and the counts, up to r*r*b = 2**70,
    # pass 2**63 at 2**61
    ring = cat.deligne_product(x_squared_is_1_plus_bx(b), cat.pointed("D4"))
    assert colour_classes(ring) == exact_colours(ring)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_colour_values_are_exact_counts_at_the_float_bound(data):
    # colour_classes sums the counts in float64 while r*r*max(N) < 2**53 and
    # in Python ints from there on; the largest entry puts r*r*max(N) just
    # below that bound, or at or just above it. The entrywise maximum over the
    # powers of a permutation s that fixes 0 keeps s as a symmetry, so the
    # classes are not all singletons.
    r = data.draw(st.integers(1, 7))
    above = data.draw(st.booleans())
    top = (2 ** 53 - 1) // (r * r) + above
    s = [0] + data.draw(st.permutations(list(range(1, r))))
    values = [0] * data.draw(st.integers(0, 4)) + [1, top - 1, top]
    base = np.array(data.draw(st.lists(st.sampled_from(values), min_size=r ** 3, max_size=r ** 3)),
                    dtype=np.int64).reshape(r, r, r)
    base[0, 0, 0] = top
    n, p = base.copy(), s
    while p != list(range(r)):
        n[np.ix_(p, p, p)] = np.maximum(n[np.ix_(p, p, p)], base)
        p = [s[x] for x in p]
    ring = FusionRing(r, tuple(range(r)), n)
    assert (r * r * int(n.max()) >= 2 ** 53) == above
    assert colour_classes(ring) == exact_colours(ring)


def one_dual_split():
    """Rank 4, duals 1 -> 2 -> 3 -> 1, and n[3,3,3] = 1 its only nonzero.

    1 and 2 share their seed colour and every count; only the classes of
    their duals, 2 and 3, tell them apart.
    """
    n = np.zeros((4, 4, 4), dtype=np.int64)
    n[3, 3, 3] = 1
    return FusionRing(4, (0, 2, 3, 1), n)


@st.composite
def rings_with_non_involutive_duals(draw):
    """A sparse tensor of rank 3-7, symmetric under a permutation s fixing 0, and duals with x** != x.

    The entrywise maximum over the powers of s keeps s as a symmetry, so the
    colour classes are not all singletons, while the duals need not commute
    with s: elements of one class can have duals in different classes.
    """
    r = draw(st.integers(3, 7))
    dual = [0] + draw(st.permutations(list(range(1, r))))
    assume(any(dual[dual[x]] != x for x in range(r)))
    s = [0] + draw(st.permutations(list(range(1, r))))
    base = np.array(draw(st.lists(st.sampled_from([0] * 6 + [1, 2]), min_size=r ** 3,
                                  max_size=r ** 3)), dtype=np.int64).reshape(r, r, r)
    n, p = base.copy(), s
    while p != list(range(r)):
        n[np.ix_(p, p, p)] = np.maximum(n[np.ix_(p, p, p)], base)
        p = [s[x] for x in p]
    return FusionRing(r, tuple(dual), n)


@settings(deadline=None, max_examples=60)
@given(ring=rings_with_non_involutive_duals())
@example(ring=one_dual_split())
def test_colour_values_are_exact_counts_with_non_involutive_duals(ring):
    assert colour_classes(ring) == exact_colours(ring)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_colour_classes_partition_matches_sorted_entry_seed_on_arbitrary_tensors(data):
    # A random tensor summed over the powers of a permutation s that fixes 0
    # keeps s as a symmetry, so its colour classes are not all singletons.
    r = data.draw(st.integers(1, 7))
    s = [0] + data.draw(st.permutations(list(range(1, r))))
    base = np.array(data.draw(st.lists(st.integers(0, 2), min_size=r ** 3, max_size=r ** 3)),
                    dtype=np.int64).reshape(r, r, r)
    n, p = base.copy(), s
    while p != list(range(r)):
        n[np.ix_(p, p, p)] += base
        p = [s[x] for x in p]
    ring = FusionRing(r, tuple(range(r)), n)
    assert partition(colour_classes(ring)) == partition(sorted_entry_colours(ring))


def assert_sparse_reads_match_loops(ring):
    """product_support, square_profiles and colour values against loops over the tensor."""
    r, n = ring.rank, ring.n.tolist()
    support = product_support(ring)
    assert [[list(cell.items()) for cell in row] for row in support] == [
        [[(k, n[i][j][k]) for k in range(r) if n[i][j][k]] for j in range(r)] for i in range(r)]
    assert all(type(k) is int and type(m) is int
               for row in support for cell in row for k, m in cell.items())
    c = colour_classes(ring)
    assert c == exact_colours(ring)
    assert square_profiles(ring) == tuple(
        hash((tuple(sorted((c[k], n[x][x][k]) for k in range(r) if n[x][x][k])),
              tuple(sorted((c[y], n[y][y][x]) for y in range(r) if n[y][y][x]))))
        for x in range(r))


@pytest.mark.parametrize("ring", [
    FusionRing(1, (0,), np.zeros((1, 1, 1), dtype=np.int64)),
    FusionRing(3, (0, 2, 1), np.zeros((3, 3, 3), dtype=np.int64)),
    cat.deligne_product(x_squared_is_1_plus_bx(2 ** 63 - 1), cat.pointed("D4")),
], ids=["zero-rank1", "zero-rank3", "b=2**63-1"])
def test_sparse_reads_match_loops_at_the_edges(ring):
    assert_sparse_reads_match_loops(ring)


@st.composite
def arbitrary_rings(draw):
    """A ring on an arbitrary tensor of rank 1-7, entries up to 2**63 - 1.

    The entrywise maximum over the powers of a permutation s that fixes 0
    keeps s as a symmetry, so the colour classes are not all singletons.
    """
    r = draw(st.integers(1, 7))
    s = [0] + draw(st.permutations(list(range(1, r))))
    # two large values one apart, which float64 cannot tell apart; the
    # largest may be 2**63 - 1, the int64 maximum
    big = draw(st.sampled_from([3, 2 ** 62, 2 ** 63 - 2]))
    values = [0] * draw(st.integers(0, 8)) + [1, 2, big, big + 1]
    base = np.array(draw(st.lists(st.sampled_from(values), min_size=r ** 3, max_size=r ** 3)),
                    dtype=np.int64).reshape(r, r, r)
    n, p = base.copy(), s
    while p != list(range(r)):
        n[np.ix_(p, p, p)] = np.maximum(n[np.ix_(p, p, p)], base)
        p = [s[x] for x in p]
    return FusionRing(r, tuple(range(r)), n)


@settings(deadline=None, max_examples=60)
@given(ring=arbitrary_rings())
def test_sparse_reads_match_loops_on_arbitrary_tensors(ring):
    assert_sparse_reads_match_loops(ring)


@pytest.mark.parametrize("partner", ["pointed:Z2xZ4", "yl:S3", "pointed:D4"])
def test_iso_of_relabelled_rings_with_entries_near_the_float_bound(partner):
    # colour_classes counts in float64 only while r*r*max(N) < 2**53; the
    # entries b straddle that bound and reach 2**60.
    kind, _, group = partner.partition(":")
    right = {"pointed": cat.pointed, "yl": cat.yl_extension}[kind](group)
    r = 2 * right.rank
    below = (2 ** 53 - 1) // (r * r)
    rng = np.random.default_rng(r)
    for b in (below, below + 1, 2 ** 50 - 1, 2 ** 50 + 1, 2 ** 53 + 1, 2 ** 60 - 1):
        ring = cat.deligne_product(x_squared_is_1_plus_bx(b), right)
        assert int(ring.n.max()) == b
        p = [0] + list(rng.permutation(np.arange(1, r)))
        other = relabelled(ring, p)
        c1, c2 = colour_classes(ring), colour_classes(other)
        assert all(c2[p[i]] == c1[i] for i in range(r))
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
                 cat.deligne_product(cat.yl_extension("S3"), cat.pointed("Z4"))] + [
    ring for group in ("D4", "Q8") for ring in cat.enumerate_extensions("pointed-z2", group)
    if not all(ring.invertible)]  # the near-group rings


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_closure_matches_fixed_point_reference(data):
    ring = data.draw(st.sampled_from(CLOSURE_RINGS))
    seed = data.draw(st.lists(st.integers(0, ring.rank - 1), max_size=3))
    sub = fr.closure(ring, seed)
    assert sub.members == closure_reference(ring, seed)
    assert sub.pointed == all(ring.invertible[i] for i in sub.members)


def union_find_orbits(items, edges):
    """Reference: connected components by union-find, sorted by smallest member."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in edges:
        parent[max(find(x), find(y))] = min(find(x), find(y))
    buckets = {}
    for x in items:
        buckets.setdefault(find(x), []).append(x)
    return tuple(sorted(tuple(sorted(b)) for b in buckets.values()))


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_orbits_match_union_find(data):
    n = data.draw(st.integers(1, 30))
    perms = data.draw(st.lists(st.permutations(range(n)), max_size=3))
    orbits = _orbits(range(n), lambda x: (p[x] for p in perms))
    assert orbits == union_find_orbits(range(n), [(x, p[x]) for p in perms for x in range(n)])
