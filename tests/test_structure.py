import functools
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import fusionring as fr
from fusionring import catalog as cat
from fusionring import groups as gr
from fusionring import ring as rg
from fusionring import structure as st
from fusionring.cli import run
from fusionring.ringfile import parse_ring, serialize_ring
from oracles import load_bench_workloads, relabelled, unit_fixing_shuffle


def brute_force_subrings(ring):
    """Oracle for small ranks: test every subset containing the unit."""
    out = []
    for size in range(1, ring.rank + 1):
        for cand in itertools.combinations(range(ring.rank), size):
            if 0 in cand and fr.is_closed_subset(ring, cand):
                out.append(cand)
    return sorted(out, key=lambda m: (len(m), m))


# ---------------------------------------------------------------- invertibles

def test_invertibles_ising():
    group, emb = st.invertibles(cat.ising())
    assert group.order == 2 and emb == (0, 1)
    assert gr.identify_group(group) == "Z2"


def test_invertibles_of_yl_extension_matches_input_group():
    for name in ("Z2", "Z4", "S3", "Q8"):
        group, emb = st.invertibles(cat.yl_extension(name))
        assert gr.are_isomorphic(group, gr.named_group(name))
        assert emb == tuple(range(group.order))


def test_invertibles_pointed():
    group, _ = st.invertibles(cat.pointed("Z4"))
    assert gr.identify_group(group) == "Z4"


# -------------------------------------------------------------- adjoint/grading

def test_adjoint_subring():
    assert st.adjoint_subring(cat.ising()).members == (0, 1)
    assert st.adjoint_subring(cat.yang_lee()).members == (0, 1)
    assert st.adjoint_subring(cat.pointed("D4")).members == (0,)
    for name in ("Z1", "Z3", "S3"):
        r = cat.yl_extension(name)
        m = gr.named_group(name).order
        assert st.adjoint_subring(r).members == (0, m)


def test_universal_grading_ising():
    g = st.universal_grading(cat.ising())
    assert g.group.order == 2
    assert g.components == ((0, 1), (2,))
    assert g.component_of == (0, 0, 1)


def test_universal_grading_pointed_recovers_group():
    for name in ("Z6", "Z2xZ2", "S3"):
        r = cat.pointed(name)
        g = st.universal_grading(r)
        assert gr.are_isomorphic(g.group, gr.named_group(name))
        assert all(len(c) == 1 for c in g.components)


def test_universal_grading_yl_extension():
    g = st.universal_grading(cat.yl_extension("Z3"))
    assert gr.identify_group(g.group) == "Z3"
    assert g.components == ((0, 3), (1, 4), (2, 5))


@pytest.mark.parametrize("ring", [
    cat.ising(), cat.yang_lee(), cat.pointed("Q8"), cat.yl_extension("Z2xZ2"),
    cat.deligne_product(cat.ising(), cat.yang_lee()),
    cat.deligne_product(cat.ising(), cat.pointed("Z2")),
])
def test_grading_invariants(ring):
    g = st.universal_grading(ring)
    # faithful, identity component = adjoint, dual inverts, product-compatible
    assert all(len(c) > 0 for c in g.components)
    assert g.component_of[0] == 0
    assert g.components[0] == st.adjoint_subring(ring).members
    for i in range(ring.rank):
        assert g.component_of[ring.dual[i]] == g.group.inverse[g.component_of[i]]
    for i in range(ring.rank):
        for j in range(ring.rank):
            target = g.group.table[g.component_of[i]][g.component_of[j]]
            for k in range(ring.rank):
                if ring.n[i, j, k]:
                    assert g.component_of[k] == target


def test_pointed_part():
    assert st.pointed_part(cat.ising()).members == (0, 1)
    assert st.pointed_part(cat.yang_lee()).members == (0,)
    assert st.pointed_part(cat.pointed("Z6")).members == tuple(range(6))
    assert st.pointed_part(cat.yl_extension("Z4")).members == (0, 1, 2, 3)


# ------------------------------------------------------------------- subrings

def test_all_subrings_yang_lee():
    subs = st.all_subrings(cat.yang_lee())
    assert [s.members for s in subs] == [(0,), (0, 1)]


def test_all_subrings_yl_extension_z2():
    subs = st.all_subrings(cat.yl_extension("Z2"))
    assert [s.members for s in subs] == [(0,), (0, 1), (0, 2), (0, 1, 2, 3)]
    assert [s.pointed for s in subs] == [True, True, False, False]


@pytest.mark.parametrize("ring", [
    cat.ising(), cat.yang_lee(), cat.pointed("Z6"), cat.pointed("S3"),
    cat.yl_extension("Z2"), cat.yl_extension("Z4"), cat.yl_extension("Z2xZ2"),
    cat.deligne_product(cat.ising(), cat.yang_lee()),
    cat.deligne_product(cat.yang_lee(), cat.yang_lee()),
])
def test_all_subrings_against_brute_force(ring):
    subs = st.all_subrings(ring)
    assert [s.members for s in subs] == brute_force_subrings(ring)
    assert len({s.members for s in subs}) == len(subs)


def test_all_subrings_walks_once_per_closed_set(monkeypatch):
    # one walk per distinct single-element closure, and one per join of a set
    # found with a single it does not contain; no closure call
    walks = []

    def counted(start, step):
        walks.append(start)
        return walk(start, step)

    ring = cat.yl_extension("Z2xZ2xZ2")
    rg._require_valid(ring)
    walk = rg._walk
    monkeypatch.setattr(rg, "_walk", counted)
    monkeypatch.setattr(st, "closure", None)
    subs = st.all_subrings(ring)
    monkeypatch.undo()
    assert len(subs) == 32 and len(walks) == 261
    assert subs == [rg.closure(ring, s.members) for s in subs]


def test_all_subrings_rank_budget():
    with pytest.raises(ValueError):
        st.all_subrings(cat.yl_extension("Z16"))


@functools.cache
def lattice_rings():
    """Catalogued and enumerated rings of rank at most 16."""
    small = [g for m in range(1, 9) for g in gr.groups_of_order(m)]
    rings = [cat.ising(), cat.yang_lee(), cat.deligne_product(cat.ising(), cat.yang_lee())]
    rings += [cat.pointed(name) for name in gr.NAMED_GROUPS]
    rings += [cat.yl_extension(g) for g in small]
    rings += [r for g in small for r in cat.enumerate_extensions("pointed-z2", g)]
    return [r for r in rings if r.rank <= 16]


def least_closed_superset(ring, seed):
    """Oracle: the smallest subset holding the unit and the seed, closed under products and duals."""
    products = {(a, b): set(np.flatnonzero(ring.n[a, b]).tolist())
                for a in range(ring.rank) for b in range(ring.rank)}
    need = {0, *seed}
    for size in range(len(need), ring.rank + 1):
        for cand in itertools.combinations(range(ring.rank), size):
            s = set(cand)
            if need <= s and all(ring.dual[a] in s for a in s) \
                    and all(products[a, b] <= s for a in s for b in s):
                return cand


@settings(deadline=None, max_examples=100)
@given(data=hs.data())
def test_all_subrings_are_relabelling_equivariant_closed_sets(data):
    ring = data.draw(hs.sampled_from(lattice_rings()))
    p = [0, *data.draw(hs.permutations(range(1, ring.rank)))]
    subs = st.all_subrings(ring)
    moved = sorted(((tuple(sorted(p[i] for i in s.members)), s.pointed) for s in subs),
                   key=lambda s: (len(s[0]), s[0]))
    assert [(s.members, s.pointed) for s in st.all_subrings(relabelled(ring, p))] == moved
    assert all(rg.closure(ring, s.members) == s for s in subs)
    if ring.rank <= 8:
        seed = data.draw(hs.sets(hs.integers(0, ring.rank - 1), max_size=3))
        assert rg.closure(ring, seed).members == least_closed_superset(ring, seed)


def test_nonpointed_subrings_match_subgroups():
    for name, count in (("Z2", 2), ("Z3", 2), ("Z4", 3), ("Z2xZ2", 5), ("Z6", 4)):
        r = cat.yl_extension(name)
        grading = st.universal_grading(r)
        nonpointed = [s for s in st.all_subrings(r) if not s.pointed]
        assert len(nonpointed) == count
        supports = {frozenset(grading.component_of[i] for i in s.members)
                    for s in nonpointed}
        assert len(supports) == count
        for sup in supports:
            assert gr.generated_subgroup(grading.group, sup) == sup


# -------------------------------------------------------- commutator & orbits

def test_commutator():
    ising = cat.ising()
    assert st.commutator(ising, st.pointed_part(ising)).members == (0, 1, 2)
    assert st.commutator(ising, fr.make_subring(ising, (0,))).members == (0, 1)

    r = cat.yl_extension("Z2")
    yl = fr.make_subring(r, (0, 2))
    assert st.commutator(r, yl).members == (0, 1, 2, 3)

    z4 = cat.pointed("Z4")
    assert st.commutator(z4, fr.make_subring(z4, (0,))).members == (0, 1, 2, 3)


def test_commutator_requires_commutative_ring():
    r = cat.pointed("S3")
    with pytest.raises(ValueError):
        st.commutator(r, fr.make_subring(r, (0,)))


def test_stabilizer():
    assert st.stabilizer(cat.ising(), 2) == (0, 1)
    assert st.stabilizer(cat.yl_extension("Z2"), 2) == (0,)
    assert st.stabilizer(cat.pointed("Z4"), 3) == (0,)


def test_stabilizer_rejects_an_index_out_of_range():
    with pytest.raises(fr.StructuralError) as info:
        st.stabilizer(cat.ising(), 3)
    assert str(info.value) == "basis index 3 out of range"


def test_transitivity():
    assert st.is_transitive_on_noninvertibles(cat.ising())[0]
    assert st.is_transitive_on_noninvertibles(cat.yl_extension("Z3"))[0]
    assert st.is_transitive_on_noninvertibles(cat.pointed("Z2"))[0]  # vacuous

    ok, orbits = st.is_transitive_on_noninvertibles(
        cat.deligne_product(cat.ising(), cat.yang_lee()))
    assert not ok
    assert orbits == [(1, 3), (4,), (5,)]


# ------------------------------------------------------------------- pairing

def test_even_rank_pairing_free_case():
    r = cat.yl_extension("Z2")
    rep = st.even_rank_pairing(r, 1)
    assert rep.free and rep.fixed_witness is None
    assert [(c.members, c.pairs) for c in rep.classes] == \
        [((0, 1), ((0, 1),)), ((2, 3), ((2, 3),))]
    for c in rep.classes:
        assert len(c.members) % 2 == 0


def test_even_rank_pairing_not_free_on_ising():
    rep = st.even_rank_pairing(cat.ising(), 1)
    assert not rep.free
    assert rep.fixed_witness == 2


def test_even_rank_pairing_pointed_z2():
    rep = st.even_rank_pairing(cat.pointed("Z2"), 1)
    assert rep.free
    assert [c.members for c in rep.classes] == [(0, 1)]


def test_even_rank_pairing_rejects_bad_delta():
    with pytest.raises(ValueError):
        st.even_rank_pairing(cat.ising(), 2)   # not invertible
    with pytest.raises(ValueError):
        st.even_rank_pairing(cat.ising(), 0)   # not of order 2
    with pytest.raises(ValueError):
        st.even_rank_pairing(cat.pointed("Z4"), 1)  # order 4


def test_free_order2_invertible_keeps_dimensions():
    # FPdim(delta * x) = FPdim(x) exactly; the computed values may differ by
    # rounding only, far below the DIM_TOL that groups dimension classes.
    rings = [cat.ising(), cat.yang_lee()]
    for m in range(1, 9):
        for g in gr.groups_of_order(m):
            rings += [cat.pointed(g), cat.yl_extension(g)]
            rings += cat.enumerate_extensions("pointed-z2", g)
    free = 0
    for ring in rings:
        dims = fr.fp_dimensions(ring).dims
        for delta in range(1, ring.rank):
            if not ring.invertible[delta] or ring.n[delta, delta, 0] != 1:
                continue
            image = [ring.constituents(delta, x)[0] for x in range(ring.rank)]
            if any(image[x] == x for x in range(ring.rank)):
                continue
            free += 1
            for x in range(ring.rank):
                assert abs(dims[image[x]] - dims[x]) <= 1e-12 * dims[x], (ring.rank, delta, x)
    assert free >= 100   # the check is not vacuous


# ------------------------------------------------- faithful simples, nilpotency

def test_faithful_simples():
    faithful, cyclic = st.faithful_simples(cat.ising())
    assert faithful == (2,) and cyclic

    faithful, cyclic = st.faithful_simples(
        cat.deligne_product(cat.ising(), cat.pointed("Z2")))
    assert faithful == () and not cyclic

    faithful, cyclic = st.faithful_simples(cat.pointed("Z3"))
    assert faithful == (1, 2) and cyclic


def test_faithful_simples_matches_cyclicity_on_gty_rings():
    for name in ("Z2", "Z4", "Z2xZ2", "Z6", "Z8"):
        for ring in cat.enumerate_extensions("pointed-z2", name):
            if all(ring.invertible):
                continue
            faithful, cyclic = st.faithful_simples(ring)
            assert (len(faithful) > 0) == cyclic, name


def faithful_by_closure(ring):
    """The reference: every i whose closure is the whole ring, each one walked."""
    whole = tuple(range(ring.rank))
    return tuple(i for i in range(ring.rank) if fr.closure(ring, (i,)).members == whole)


def test_faithful_simples_match_a_walk_from_every_element():
    # faithful_simples walks only the elements whose degree has the order of
    # the grading group; the ones it skips must be ones no walk would keep
    corpus = {name: ring for name, ring, _, _ in load_bench_workloads()._corpus()}
    groups = [g for m in range(1, 9) for g in gr.groups_of_order(m)]
    enumerated = [r for g in groups for r in cat.enumerate_extensions("pointed-z2", g)]
    assert len(enumerated) == 68
    with_faithful = set()
    for index, ring in enumerate([*corpus.values(), *enumerated]):
        for other in [ring] + [relabelled(ring, unit_fixing_shuffle(ring.rank, f"{index}/{s}"))
                               for s in range(2)]:
            faithful, _ = st.faithful_simples(other)
            assert faithful == faithful_by_closure(other), index
            if faithful:
                with_faithful.add(index)
    # cyclic gradings, where some elements are walked and kept
    names = list(corpus)
    assert {names.index(name) for name in ("ising", "yl-Z8", "pointed-Z6")} <= with_faithful


def test_faithful_simples_walk_nothing_without_a_generating_degree(monkeypatch):
    walks = []
    closure = st.closure
    monkeypatch.setattr(st, "closure", lambda ring, seed: walks.append(seed) or closure(ring, seed))
    for ring in (cat.pointed("Q8"), cat.yl_extension("Z2xZ2")):
        st.universal_grading(ring)   # its adjoint subring is a closure too
        walks.clear()
        assert st.faithful_simples(ring) == ((), False)
        assert walks == []


def test_nilpotency():
    assert st.nilpotency(cat.pointed("Q8")) == 1
    assert st.nilpotency(cat.pointed("Z1")) == 0
    assert st.nilpotency(cat.ising()) == 2
    assert st.nilpotency(cat.yang_lee()) is None
    assert st.nilpotency(cat.yl_extension("Z4")) is None
    assert st.nilpotency(cat.deligne_product(cat.ising(), cat.pointed("Z2"))) == 2


# ------------------------------------------------ one gate, groups by proof

def corrupted_ising():
    """Ising with one constituent of sigma*sigma moved: 1 + sigma, not 1 + psi."""
    n = cat.ising().n.copy()
    n[2, 2, 1], n[2, 2, 2] = 0, 1
    return fr.FusionRing(3, cat.ising().dual, n)


GATED = {
    "invertibles": st.invertibles,
    "adjoint_subring": st.adjoint_subring,
    "universal_grading": st.universal_grading,
    "pointed_part": st.pointed_part,
    "all_subrings": st.all_subrings,
    "commutator": lambda r: st.commutator(r, fr.Subring((0,), True)),
    "stabilizer": lambda r: st.stabilizer(r, 2),
    "is_transitive_on_noninvertibles": st.is_transitive_on_noninvertibles,
    "even_rank_pairing": lambda r: st.even_rank_pairing(r, 1),
    "faithful_simples": st.faithful_simples,
    "nilpotency": st.nilpotency,
    "closure": lambda r: fr.closure(r, (2,)),
    "make_subring": lambda r: fr.make_subring(r, (0, 1)),
    "is_closed_subset": lambda r: fr.is_closed_subset(r, (0, 1)),
    "classify": fr.classify,
    "verify_claims": fr.verify_claims,
}


def test_every_structure_function_is_gated():
    public = {name for name, fn in inspect.getmembers(st, inspect.isfunction)
              if fn.__module__ == st.__name__ and not name.startswith("_")}
    assert public <= set(GATED)


@pytest.mark.parametrize("name", GATED)
def test_invalid_ring_is_rejected_by_the_gate(name):
    ring = corrupted_ising()
    violations = fr.verify_axioms(ring)
    assert violations
    head = "; ".join(str(v) for v in violations[:3])
    with pytest.raises(fr.StructuralError) as info:
        GATED[name](ring)
    assert str(info.value) == f"not a fusion ring ({len(violations)} axiom violation(s): {head})"


def test_classify_verifies_the_axioms_once(monkeypatch, tmp_path, capsys):
    ring = cat.yl_extension("Z9")
    assert ring.rank > 16   # verify_axioms takes its generating-set path
    path = tmp_path / "ylz9.json"
    path.write_text(serialize_ring(ring))
    calls = []
    original = rg._associators_differ
    monkeypatch.setattr(rg, "_associators_differ",
                        lambda *args: calls.append(1) or original(*args))
    assert fr.verify_axioms(parse_ring(path.read_text())) == []
    once = len(calls)
    assert once > 0
    calls.clear()
    assert run(["classify", str(path)]) == 0
    capsys.readouterr()
    assert len(calls) == once


def reference_grading_table(ring):
    """The component product by the exhaustive scan over every pair i, j.

    Fails unless the identity component is the adjoint subring, each
    component product lies in one component and is non-empty, and duality
    inverts the grading.
    """
    grading = st.universal_grading(ring)
    comp_of = grading.component_of
    assert grading.components[0] == st.adjoint_subring(ring).members
    k = len(grading.components)
    table = [[-1] * k for _ in range(k)]
    for i in range(ring.rank):
        for j in range(ring.rank):
            ci, cj = comp_of[i], comp_of[j]
            for t in np.flatnonzero(ring.n[i, j]):
                assert table[ci][cj] in (-1, comp_of[t])
                table[ci][cj] = comp_of[t]
    assert all(entry >= 0 for row in table for entry in row)
    group = gr.FiniteGroup(k, tuple(tuple(row) for row in table))
    for i in range(ring.rank):
        assert comp_of[ring.dual[i]] == group.inverse[comp_of[i]]
    return group.table


def reference_rings():
    groups = [g for m in range(1, 9) for g in gr.groups_of_order(m)]
    rings = [cat.ising(), cat.yang_lee()]
    rings += [cat.pointed(g) for g in groups] + [cat.yl_extension(g) for g in groups]
    enumerated = [r for g in groups for r in cat.enumerate_extensions("pointed-z2", g)]
    assert len(enumerated) == 68
    rings += enumerated
    rings += [cat.deligne_product(cat.ising(), cat.yang_lee()),
              cat.deligne_product(cat.ising(), cat.ising()),
              cat.deligne_product(cat.yl_extension("S3"), cat.pointed("Z2")),
              cat.deligne_product(cat.ising(), cat.pointed("Q8"))]
    return rings + [relabelled(r, unit_fixing_shuffle(r.rank, f"{i}/{r.rank}"))
                    for i, r in enumerate(rings)]


def test_grading_table_matches_the_exhaustive_scan():
    for ring in reference_rings():
        assert st.universal_grading(ring).group.table == reference_grading_table(ring)


def reference_invertibles_table(ring):
    """The invertibles' table, each product checked to be one invertible, once."""
    members = [i for i in range(ring.rank) if ring.invertible[i]]
    table = []
    for g in members:
        row = []
        for h in members:
            (k,) = np.flatnonzero(ring.n[g, h])
            assert ring.n[g, h, k] == 1 and k in members
            row.append(members.index(k))
        table.append(tuple(row))
    return tuple(table)


def test_invertibles_table_matches_the_checked_products():
    for ring in reference_rings():
        assert st.invertibles(ring)[0].table == reference_invertibles_table(ring)


def test_built_groups_pass_the_public_constructor():
    for ring in reference_rings():
        for group in (st.invertibles(ring)[0], st.universal_grading(ring).group):
            assert gr.FiniteGroup(group.order, group.table).table == group.table
