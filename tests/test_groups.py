import importlib.util
import itertools
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionring import catalog as cat
from fusionring import groups as gr
from fusionring.numerics import solve_cos_equation
from fusionring.ring import FusionRing, verify_axioms
from oracles import relabelled_group, unit_fixing_shuffle


def dihedral_rule_groups():
    """The 33 non-abelian groups of order 10 to 32 the dihedral rule is checked on."""
    z2 = gr.cyclic(2)
    groups = [gr.dihedral(k) for k in range(5, 17)]
    groups += [gr.product_group(z2, h) for h in (gr.symmetric3(), gr.dihedral(4),
                                                 gr.quaternion8(), gr.dihedral(5), gr.dihedral(6))]
    groups += [h for g in CATALOGUED for h in gr.central_extensions_by_z2(g)
               if not h.is_abelian() and h.order >= 10]
    return groups


DIHEDRAL_RULE_NAMES = [f"D{k}" for k in range(5, 17)] + [
    "D6", "grp16c4", "grp16c4", "D10", "grp24c4",                 # Z2 x S3, D4, Q8, D5, D6
    "D6", "grp12c2",                                              # extensions of S3
    *["grp16c4"] * 6,                                             # of Z2xZ4, Z2xZ2xZ2
    "grp16c4", "D8", "grp16c4", "grp16c2", "grp16c4", "grp16c2",  # of D4
    "grp16c4", "grp16c4",                                         # of Q8
]


def test_identify_group_names_dihedral_groups_as_the_isomorphism_search_does():
    groups = dihedral_rule_groups()
    names = [gr.identify_group(g) for g in groups]
    assert names == DIHEDRAL_RULE_NAMES
    for group, name in zip(groups, names):
        # the reference: a search for an isomorphism onto a built D_k
        k = group.order // 2
        assert (name == f"D{k}") == gr.are_isomorphic(group, gr.dihedral(k))


def load_bench_workloads():
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_identify_group_builds_no_group_over_the_cli_corpus(monkeypatch, tmp_path):
    # every variant of every benchmark cli-corpus request, run once; the
    # groups_of_order tables were built when CATALOGUED was
    requests = load_bench_workloads().cli_corpus(1, tmp_path)
    built, names, depth = [], [], [0]
    identify, post_init, built_group = gr.identify_group, gr.FiniteGroup.__post_init__, gr._built_group

    def counted_identify(group):
        depth[0] += 1
        try:
            names.append(identify(group))
        finally:
            depth[0] -= 1
        return names[-1]

    def counted_post_init(self):
        built.append(depth[0])
        post_init(self)

    def counted_built_group(order, table):
        built.append(depth[0])
        return built_group(order, table)

    monkeypatch.setattr(gr, "identify_group", counted_identify)
    monkeypatch.setattr(gr.FiniteGroup, "__post_init__", counted_post_init)
    monkeypatch.setattr(gr, "_built_group", counted_built_group)
    for request in requests:
        for variant in request.variants:
            variant.run()
    assert {"D8", "grp16c4"} <= set(names)
    assert not any(built)   # no group built inside identify_group


def brute_force_subgroups(group):
    """Oracle: scan every subset containing the identity."""
    found = []
    for size in range(1, group.order + 1):
        for cand in itertools.combinations(range(group.order), size):
            if 0 not in cand:
                continue
            s = set(cand)
            if all(group.table[a][b] in s for a in s for b in s) \
                    and all(group.inverse[a] in s for a in s):
                found.append(tuple(sorted(s)))
    return sorted(found, key=lambda m: (len(m), m))


@pytest.mark.parametrize("call,message", [
    (lambda: gr.FiniteGroup(2, ((0, 1), (1, 2))), "table entry (1,1) is 2, outside 0..1"),
    (lambda: gr.FiniteGroup(2, ((0, 1), (1, 2**70))),
     f"table entry (1,1) is {2**70}, outside 0..1"),
    (lambda: gr.FiniteGroup(2, ((0, 1), (-2**70, 0))),
     f"table entry (1,0) is {-2**70}, outside 0..1"),
    (lambda: gr.FiniteGroup(2, ((0, 1), (1,))), "table must be 2x2"),
    (lambda: gr.cyclic(0), "cyclic order must be positive"),
    (lambda: gr.dihedral(0), "dihedral parameter must be positive"),
    (lambda: gr.groups_of_order(9), "group tables are catalogued only up to order 8"),
    (lambda: gr.quotient_group(gr.cyclic(4), (0, 1)), "kernel is not a subgroup"),
    (lambda: gr.central_extensions_by_z2(gr.product_of_cyclics([2] * 5)),
     "too many cohomology classes to enumerate"),
    (lambda: gr.FiniteGroup(True, ((0,),)), "order is True, not an integer"),
    (lambda: gr.FiniteGroup(2.0, ((0, 1), (1, 0))), "order is 2.0, not an integer"),
], ids=["entry-range", "entry-above-int64", "entry-below-int64", "shape", "cyclic", "dihedral",
        "order-9", "kernel", "cohomology", "bool-order", "float-order"])
def test_input_guards(call, message):
    with pytest.raises(gr.GroupError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("call,error,message", [
    (lambda: gr.dihedral(True), gr.GroupError, "dihedral parameter is True, not an integer"),
    (lambda: gr.cyclic(2.5), gr.GroupError, "cyclic order is 2.5, not an integer"),
    (lambda: gr.dihedral(2.5), gr.GroupError, "dihedral parameter is 2.5, not an integer"),
    (lambda: gr.cyclic("3"), gr.GroupError, "cyclic order is '3', not an integer"),
    (lambda: gr.product_of_cyclics([2.0, 2]), gr.GroupError, "cyclic order is 2.0, not an integer"),
    (lambda: solve_cos_equation(2, bound=10.5), ValueError, "bound is 10.5, not an integer"),
    (lambda: solve_cos_equation(2.0), ValueError, "term count is 2.0, not an integer"),
    (lambda: gr.groups_of_order(True), gr.GroupError, "group order is True, not an integer"),
    (lambda: gr.groups_of_order(2.0), gr.GroupError, "group order is 2.0, not an integer"),
], ids=["dihedral-bool", "cyclic-float", "dihedral-float", "cyclic-str", "product-float",
        "solver-bound", "solver-terms", "groups-of-order-bool", "groups-of-order-float"])
def test_caller_integers_are_checked(call, error, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("orders,name", [
    ([], "Z1"), ([4], "Z4"), ([2, 4], "Z2xZ4"), ([2, 2, 2], "Z2xZ2xZ2"),
])
def test_product_of_cyclics_names(orders, name):
    group = gr.product_of_cyclics(orders)
    assert group.name == name and group.order == int(np.prod(orders))
    assert repr(group) == f"FiniteGroup(order={group.order}, name={name!r})"


def test_table_must_be_latin_square():
    with pytest.raises(gr.GroupError):
        gr.FiniteGroup(2, ((0, 1), (1, 1)))


def test_identity_must_sit_at_zero():
    # Z2 with the roles of 0 and 1 swapped
    with pytest.raises(gr.GroupError):
        gr.FiniteGroup(2, ((1, 0), (0, 1)))


def test_table_must_be_associative():
    # Latin square of order 5 that is not a group table
    table = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    with pytest.raises(gr.GroupError):
        gr.FiniteGroup(5, table)


def is_group_table(table):
    """Oracle: rows and columns are permutations, 0 is the identity, and the product associates."""
    m = len(table)
    full = set(range(m))
    return (all(set(row) == full for row in table)
            and all({row[a] for row in table} == full for a in range(m))
            and all(table[0][a] == a == table[a][0] for a in range(m))
            and all(table[table[a][b]][c] == table[a][table[b][c]]
                    for a, b, c in itertools.product(range(m), repeat=3)))


TABLES_UP_TO_5 = [g.table for m in range(1, 6) for g in gr.groups_of_order(m)]


@st.composite
def small_tables(draw):
    """A catalogued table with one entry redrawn, or a random one, of order <= 5."""
    if draw(st.booleans()):
        table = [list(row) for row in draw(st.sampled_from(TABLES_UP_TO_5))]
        m = len(table)
        a, b = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        table[a][b] = draw(st.integers(0, m - 1))
    else:
        m = draw(st.integers(1, 5))
        table = [[draw(st.integers(0, m - 1)) for _ in range(m)] for _ in range(m)]
        if draw(st.booleans()):  # 0 acts as the identity, so the later checks run
            table[0] = list(range(m))
            for a in range(m):
                table[a][0] = a
    return tuple(tuple(row) for row in table)


@settings(deadline=None, max_examples=300)
@given(table=small_tables())
def test_tables_are_accepted_exactly_when_they_are_groups(table):
    try:
        gr.FiniteGroup(len(table), table)
    except gr.GroupError:
        accepted = False
    else:
        accepted = True
    assert accepted == is_group_table(table)


@pytest.mark.parametrize("entry", [True, np.bool_(True), 1.0, np.float64(1.0)],
                         ids=["bool", "numpy-bool", "float", "numpy-float"])
def test_table_entries_must_be_integers(entry):
    # a bool entry once indexed as a mask in catalog.pointed, a float raised IndexError
    with pytest.raises(gr.GroupError, match=r"entry \(0,1\)"):
        gr.FiniteGroup(2, ((0, entry), (entry, 0)))
    one = np.int64(1)
    z2 = gr.FiniteGroup(2, ((np.int64(0), one), (one, 0)))
    assert gr.are_isomorphic(z2, gr.cyclic(2))


def test_cyclic_basics():
    z6 = gr.cyclic(6)
    assert z6.order == 6
    assert z6.is_abelian() and z6.is_cyclic()
    assert z6.element_orders == (1, 6, 3, 2, 3, 6)
    assert z6.inverse == (0, 5, 4, 3, 2, 1)


def test_dihedral_and_quaternion():
    d4 = gr.dihedral(4)
    assert d4.order == 8 and not d4.is_abelian()
    assert sorted(d4.element_orders) == [1, 2, 2, 2, 2, 2, 4, 4]
    assert d4.center == (0, 2)

    q8 = gr.quaternion8()
    assert sorted(q8.element_orders) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert len(q8.center) == 2
    assert not gr.are_isomorphic(d4, q8)


def test_quaternion8_matches_complex_matrices():
    # index 2u + s is (-1)**s times unit u of 1, i, j, k
    one = np.eye(2, dtype=complex)
    i = np.diag([1j, -1j])
    j = np.array([[0, 1], [-1, 0]], dtype=complex)
    units = [one, i, j, i @ j]
    mats = [(-1) ** s * units[u] for u in range(4) for s in (0, 1)]
    reference = tuple(tuple(next(c for c in range(8) if np.allclose(a @ b, mats[c]))
                            for b in mats) for a in mats)
    assert gr.quaternion8().table == reference


def test_symmetric3_is_dihedral3():
    assert gr.are_isomorphic(gr.symmetric3(), gr.dihedral(3))
    assert not gr.symmetric3().is_abelian()


def test_named_groups_resolve_and_identify():
    for name in gr.NAMED_GROUPS:
        g = gr.named_group(name)
        assert gr.identify_group(g) == name
    with pytest.raises(gr.GroupError):
        gr.named_group("Z99")
    with pytest.raises(gr.GroupError):
        gr.named_group("A5")


def test_identify_group_on_constructed_tables():
    assert gr.identify_group(gr.product_of_cyclics([2, 2, 2])) == "Z2xZ2xZ2"
    assert gr.identify_group(gr.product_of_cyclics([2, 4])) == "Z2xZ4"
    assert gr.identify_group(gr.product_of_cyclics([3, 5])) == "Z15"
    assert gr.identify_group(gr.dihedral(3)) == "S3"
    assert gr.identify_group(gr.dihedral(6)) == "D6"
    # several primes, and several factors per prime
    assert gr.identify_group(gr.product_of_cyclics([2, 6])) == "Z2xZ2xZ3"
    assert gr.identify_group(gr.product_of_cyclics([6, 6])) == "Z2xZ2xZ3xZ3"
    assert gr.identify_group(gr.product_of_cyclics([4, 4])) == "Z4xZ4"
    assert gr.identify_group(gr.product_of_cyclics([2, 2, 4])) == "Z2xZ2xZ4"
    assert gr.identify_group(gr.product_of_cyclics([3, 9])) == "Z3xZ9"
    assert gr.identify_group(gr.product_of_cyclics([2, 4, 8])) == "Z2xZ4xZ8"


def test_groups_of_order_census():
    # number of isomorphism classes for orders 1..8
    counts = [len(gr.groups_of_order(m)) for m in range(1, 9)]
    assert counts == [1, 1, 1, 2, 1, 2, 1, 5]
    for m in range(1, 9):
        classes = gr.groups_of_order(m)
        for a, b in itertools.combinations(classes, 2):
            assert not gr.are_isomorphic(a, b)


def test_generated_subgroup():
    z12 = gr.cyclic(12)
    assert gr.generated_subgroup(z12, [4]) == frozenset({0, 4, 8})
    assert gr.generated_subgroup(z12, []) == frozenset({0})
    s3 = gr.symmetric3()
    assert gr.generated_subgroup(s3, range(6)) == frozenset(range(6))


def brute_force_generated(group, seed):
    """Oracle: add all products of members until nothing new appears."""
    members = {0} | set(seed)
    while True:
        grown = members | {group.table[a][b] for a in members for b in members}
        if grown == members:
            return frozenset(members)
        members = grown


def test_generated_subgroup_matches_closure_under_products():
    seeds = 0
    for m in range(1, 9):
        for group in gr.groups_of_order(m):
            for size in range(5):
                for seed in itertools.combinations(range(m), size):
                    assert gr.generated_subgroup(group, seed) == brute_force_generated(group, seed)
                    seeds += 1
    assert seeds == 1105


@pytest.mark.parametrize("name,count", [
    ("Z1", 1), ("Z2", 2), ("Z3", 2), ("Z4", 3), ("Z2xZ2", 5),
    ("Z5", 2), ("Z6", 4), ("S3", 6), ("Z8", 4), ("Z2xZ4", 8),
    ("D4", 10), ("Q8", 6), ("Z12", 6),
])
def test_subgroup_counts(name, count):
    assert len(gr.subgroups(gr.named_group(name))) == count


@pytest.mark.parametrize("name", ["Z4", "Z6", "Z2xZ2", "S3", "D4", "Q8"])
def test_subgroups_against_brute_force(name):
    g = gr.named_group(name)
    assert list(gr.subgroups(g)) == brute_force_subgroups(g)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_subgroups_are_relabelling_equivariant_closed_sets(data):
    group = gr.named_group(data.draw(st.sampled_from(gr.NAMED_GROUPS)))
    p = [0, *data.draw(st.permutations(range(1, group.order)))]
    subs = gr.subgroups(group)
    moved = sorted((tuple(sorted(p[a] for a in s)) for s in subs), key=lambda s: (len(s), s))
    assert list(gr.subgroups(relabelled_group(group, p))) == moved
    assert all(gr.generated_subgroup(group, s) == frozenset(s) for s in subs)


def test_index2_subgroups():
    assert gr.index2_subgroups(gr.named_group("Z4")) == [(0, 2)]
    assert len(gr.index2_subgroups(gr.named_group("Z2xZ2"))) == 3
    assert gr.index2_subgroups(gr.named_group("Z3")) == []
    assert len(gr.index2_subgroups(gr.named_group("D4"))) == 3
    assert len(gr.index2_subgroups(gr.named_group("Q8"))) == 3


def test_central_elements_of_order2():
    assert gr.central_elements_of_order2(gr.named_group("Z2")) == [1]
    assert gr.central_elements_of_order2(gr.named_group("Z4")) == [2]
    assert gr.central_elements_of_order2(gr.named_group("Z2xZ2")) == [1, 2, 3]
    assert len(gr.central_elements_of_order2(gr.named_group("D4"))) == 1
    assert len(gr.central_elements_of_order2(gr.named_group("Q8"))) == 1
    assert gr.central_elements_of_order2(gr.named_group("Z3")) == []


def test_subgroup_group_and_quotient():
    z4 = gr.named_group("Z4")
    sub, embed = gr.subgroup_group(z4, (0, 2))
    assert sub.order == 2 and embed == (0, 2)
    with pytest.raises(gr.GroupError):
        gr.subgroup_group(z4, ())
    with pytest.raises(gr.GroupError):
        gr.subgroup_group(z4, (-1, 0, 2))   # -1 would index the table as 3

    quot, proj = gr.quotient_group(z4, (0, 2))
    assert quot.order == 2
    assert proj[0] == proj[2] and proj[1] == proj[3] and proj[0] == 0

    s3 = gr.symmetric3()
    reflection = next(i for i in range(6) if s3.element_orders[i] == 2)
    with pytest.raises(gr.GroupError):
        gr.quotient_group(s3, (0, reflection))  # not normal


@pytest.mark.parametrize("group", [g for m in range(1, 9) for g in gr.groups_of_order(m)],
                         ids=lambda g: g.name)
def test_subgroup_group_accepts_exactly_the_subgroups(group):
    # subgroup_group builds its table without the constructor's checks, so
    # its own closure check must reject every other subset
    subs = set(gr.subgroups(group))
    for size in range(1, group.order + 1):
        for members in itertools.combinations(range(group.order), size):
            if members in subs:
                sub, embed = gr.subgroup_group(group, members)
                assert embed == members
                assert all(embed[sub.table[a][b]] == group.table[embed[a]][embed[b]]
                           for a in range(size) for b in range(size))
            else:
                with pytest.raises(gr.GroupError):
                    gr.subgroup_group(group, members)


@pytest.mark.parametrize("member", [9, -1, 1.0, True])
def test_subgroup_and_quotient_reject_members_outside_the_group(member):
    z4 = gr.cyclic(4)
    with pytest.raises(gr.GroupError):
        gr.subgroup_group(z4, (0, member))
    with pytest.raises(gr.GroupError):
        gr.quotient_group(z4, (0, member))
    with pytest.raises(gr.GroupError):
        gr.generated_subgroup(z4, (0, member))


def test_quotient_of_q8_by_center_is_klein():
    q8 = gr.named_group("Q8")
    center = gr.central_elements_of_order2(q8)
    quot, _ = gr.quotient_group(q8, (0, center[0]))
    assert gr.are_isomorphic(quot, gr.named_group("Z2xZ2"))


def test_automorphism_counts():
    assert len(list(gr.iter_isomorphisms(gr.cyclic(4), gr.cyclic(4)))) == 2
    assert len(list(gr.iter_isomorphisms(gr.named_group("Z2xZ2"),
                                         gr.named_group("Z2xZ2")))) == 6
    assert len(list(gr.iter_isomorphisms(gr.symmetric3(), gr.symmetric3()))) == 6
    for name, count in (("Z1", 1), ("Z2xZ4", 8), ("Z2xZ2xZ2", 168), ("D4", 8), ("Q8", 24)):
        g = gr.named_group(name)
        assert len(list(gr.iter_isomorphisms(g, g))) == count, name
    assert list(gr.iter_isomorphisms(gr.cyclic(4), gr.named_group("Z2xZ2"))) == []


@pytest.mark.parametrize("g", [g for m in range(1, 9) for g in gr.groups_of_order(m)],
                         ids=lambda g: g.name)
def test_isomorphisms_are_homomorphisms(g):
    for phi in gr.iter_isomorphisms(g, g):
        assert sorted(phi) == list(range(g.order))
        for a in range(g.order):
            for b in range(g.order):
                assert phi[g.table[a][b]] == g.table[phi[a]][phi[b]]


def shuffled(group, variant):
    """The group relabelled by the unit-fixing shuffle seeded "name/variant"."""
    return relabelled_group(group, unit_fixing_shuffle(group.order, f"{group.name}/{variant}"))


# the 14 groups of order <= 8, each as built and under two seeded relabellings
SMALL_TABLES = [pytest.param(g, v, id=f"{g.name}-{v}")
                for m in range(1, 9) for g in gr.groups_of_order(m) for v in range(3)]


def span(gens, order):
    """Every composite of the maps, reached from the identity one map at a time."""
    seen = {tuple(range(order))}
    todo = list(seen)
    while todo:
        f = todo.pop()
        for g in gens:
            h = tuple(g[x] for x in f)
            if h not in seen:
                seen.add(h)
                todo.append(h)
    return seen


def least_generating_size(group):
    """d(group): the size of the smallest subsets that generate the group."""
    everything = frozenset(range(group.order))
    return next(k for k in range(group.order + 1)
                for seed in itertools.combinations(range(group.order), k)
                if gr.generated_subgroup(group, seed) == everything)


@pytest.mark.parametrize("group", [g for m in range(1, 9) for g in gr.groups_of_order(m)],
                         ids=lambda g: g.name)
def test_generating_sequence_is_least_up_to_order_8(group):
    # the catalogued table (a walk in index order gives Q8 three generators
    # there) and the relabellings seeded name/1 .. name/5
    for g in [group] + [shuffled(group, s) for s in range(1, 6)]:
        gens = gr._generating_sequence(g)
        assert gr.generated_subgroup(g, gens) == frozenset(range(g.order))
        assert len(gens) == least_generating_size(g)


def test_generating_sequence_generates_the_order_16_extensions():
    # above order 8 the sequence need not be least, only generate
    exts = [h for g in gr.groups_of_order(8) for h in gr.central_extensions_by_z2(g)]
    assert len(exts) == 21
    for h in exts:
        assert gr.generated_subgroup(h, gr._generating_sequence(h)) == frozenset(range(16))


@pytest.mark.parametrize("group,variant", SMALL_TABLES)
def test_automorphism_generators_span_aut(group, variant):
    g = shuffled(group, variant) if variant else gr.FiniteGroup(group.order, group.table)
    assert span(gr.automorphism_generators(g), g.order) == set(gr.iter_isomorphisms(g, g))


def image_pools(g1, g2, gens):
    """For each generator, the elements of g2 of its order."""
    return [[h for h in range(g2.order) if g2.element_orders[h] == g1.element_orders[g]]
            for g in gens]


def product_isomorphisms(g1, g2):
    """Oracle: iter_isomorphisms without pruning, _extend on each full tuple of the image pools."""
    if g1.order != g2.order or len(g1.center) != len(g2.center):
        return
    if sorted(g1.element_orders) != sorted(g2.element_orders):
        return
    if gr._square_root_counts(g1) != gr._square_root_counts(g2):
        return
    gens = gr._generating_sequence(g1)
    for images in itertools.product(*image_pools(g1, g2, gens)):
        f = gr._extend(g1, g2, gens, images)
        if f is not None:
            yield tuple(f[a] for a in range(g1.order))


def product_automorphism_generators(group):
    """Oracle: automorphism_generators with each trial completed over the full product."""
    gens = gr._generating_sequence(group)
    pools = image_pools(group, group, gens)
    found = []
    for i in reversed(range(len(gens))):
        orbit = {gens[i]}
        for h in pools[i]:
            if h in orbit:
                continue
            for rest in itertools.product(*pools[i + 1:]):
                f = gr._extend(group, group, gens, (*gens[:i], h, *rest))
                if f is not None:
                    found.append(tuple(f[a] for a in range(group.order)))
                    orbit = {m[gens[i]] for m in span(found, group.order)}
                    break
    return tuple(found)


CATALOGUED = [g for m in range(1, 9) for g in gr.groups_of_order(m)]


def test_pruned_search_yields_the_maps_of_the_full_product():
    pool = CATALOGUED + [h for g in CATALOGUED for h in gr.central_extensions_by_z2(g)]
    pairs = [(a, b) for a in pool for b in pool if a.order == b.order]
    assert len(pairs) == 613
    for a, b in pairs:
        assert list(gr.iter_isomorphisms(a, b)) == list(product_isomorphisms(a, b))


AUT_GROUPS = {g.name: g for g in CATALOGUED} | {
    "Z2xD4": gr.product_group(gr.cyclic(2), gr.dihedral(4)),
    "Z2xQ8": gr.product_group(gr.cyclic(2), gr.quaternion8()),
    "Z4xZ4": gr.product_of_cyclics([4, 4]),
    "Z2xZ8": gr.product_of_cyclics([2, 8]),
    "D8": gr.dihedral(8),
    "Z16": gr.cyclic(16),
    "Z2^4": gr.product_of_cyclics([2, 2, 2, 2]),
    "Z4xZ2xZ2": gr.product_of_cyclics([4, 2, 2]),
}


@pytest.mark.parametrize("group", AUT_GROUPS.values(), ids=AUT_GROUPS)
def test_automorphism_generators_match_the_full_product_chain(group):
    assert gr.automorphism_generators(group) == product_automorphism_generators(group)


def test_automorphism_generators_list_no_automorphisms(monkeypatch):
    def no_listing(g1, g2):
        raise AssertionError("iter_isomorphisms listed every automorphism")

    monkeypatch.setattr(gr, "iter_isomorphisms", no_listing)
    g = gr.named_group("Z2xZ2xZ2")   # a fresh table, no cached generators
    assert len(span(gr.automorphism_generators(g), g.order)) == 168


def test_are_isomorphic():
    assert gr.are_isomorphic(gr.product_of_cyclics([2, 4]),
                             gr.named_group("Z2xZ4"))
    assert not gr.are_isomorphic(gr.named_group("Z8"),
                                 gr.named_group("Z2xZ4"))
    assert not gr.are_isomorphic(gr.named_group("D4"),
                                 gr.named_group("Q8"))


def test_square_root_counts_reject_before_the_search(monkeypatch):
    # The two non-abelian extensions of Q8 by Z2 have the same element orders;
    # 4, 4 and 8 elements square to their three squares in one, 4 and 12 to
    # the two of the other. No search may be needed to tell them apart.
    a, b = [h for h in gr.central_extensions_by_z2(gr.quaternion8()) if not h.is_abelian()]
    assert sorted(a.element_orders) == sorted(b.element_orders)
    assert {gr._square_root_counts(a), gr._square_root_counts(b)} == {(4, 4, 8), (4, 12)}

    def no_search(group):
        raise AssertionError("iter_isomorphisms searched")

    monkeypatch.setattr(gr, "_generating_sequence", no_search)
    assert not gr.are_isomorphic(a, b)
    assert list(gr.iter_isomorphisms(b, a)) == []


@pytest.mark.parametrize("name,expected", [
    ("Z1", {"Z2"}),
    ("Z2", {"Z4", "Z2xZ2"}),
    ("Z3", {"Z6"}),
    ("Z4", {"Z8", "Z2xZ4"}),
    ("Z2xZ2", {"Z2xZ2xZ2", "Z2xZ4", "D4", "Q8"}),
])
def test_central_extensions_by_z2(name, expected):
    exts = gr.central_extensions_by_z2(gr.named_group(name))
    assert {gr.identify_group(h) for h in exts} == expected


def test_central_extensions_have_central_fiber():
    base = gr.named_group("Z4")
    for h in gr.central_extensions_by_z2(base):
        assert h.order == 8
        # the fiber over the identity is {0, 1} by construction
        assert h.table[0][1] == 1
        assert all(h.table[a][1] == h.table[1][a] for a in range(8))
        quot, _ = gr.quotient_group(h, (0, 1))
        assert gr.are_isomorphic(quot, base)


def extension_group(group, cocycle):
    """group x Z2 with (g, s)(h, u) = (gh, s + u + cocycle(g, h))."""
    m = group.order
    table = [[0] * (2 * m) for _ in range(2 * m)]
    for g, s, h, u in itertools.product(range(m), (0, 1), range(m), (0, 1)):
        table[2 * g + s][2 * h + u] = 2 * group.table[g][h] + (s ^ u ^ cocycle(g, h))
    return gr.FiniteGroup(2 * m, tuple(tuple(row) for row in table))


def test_central_extensions_of_z16():
    # 15 cocycle dimensions but only two classes: the bound is on the classes
    exts = gr.central_extensions_by_z2(gr.cyclic(16))
    assert sorted(sorted(h.element_orders) for h in exts) == sorted(
        sorted(g.element_orders) for g in (gr.cyclic(32), gr.product_of_cyclics([2, 16])))


@pytest.fixture
def extend_calls(monkeypatch):
    """The _extend calls made while the test runs, as (images, generators of g1) counts."""
    calls = []
    extend = gr._extend

    def counted(g1, g2, gens, images):
        calls.append((len(images), len(gr._generating_sequence(g1))))
        return extend(g1, g2, gens, images)
    monkeypatch.setattr(gr, "_extend", counted)
    return calls


def tries_only_prefixes_that_can_fail(calls):
    # the empty prefix and one image of a generator's order always extend
    return all(k >= 2 or k == n for k, n in calls)


def test_central_extensions_of_z2xq8_search_little(extend_calls):
    # iter_isomorphisms returns before its search when the centres differ in
    # order, as they do for most pairs of these order-32 extensions
    exts = gr.central_extensions_by_z2(gr.product_group(gr.cyclic(2), gr.quaternion8()))
    assert len(exts) == 6
    assert len(extend_calls) <= 2000
    assert tries_only_prefixes_that_can_fail(extend_calls)


@pytest.mark.parametrize("group,variant", SMALL_TABLES)
def test_search_tries_only_prefixes_that_can_fail(group, variant, extend_calls):
    g = shuffled(group, variant) if variant else gr.FiniteGroup(group.order, group.table)
    gr.automorphism_generators(g)
    gr.central_extensions_by_z2(g)
    for other in gr.groups_of_order(g.order):
        list(gr.iter_isomorphisms(g, other))
    cat.enumerate_extensions("pointed-z2", g)
    assert extend_calls
    assert tries_only_prefixes_that_can_fail(extend_calls)


def test_central_extensions_of_z2xd4_cut_failing_prefixes(extend_calls):
    # non-isomorphic extensions here agree in centre order, element orders
    # and square-root counts, so the search runs; it must cut each prefix of
    # generator images that does not extend, not try its every completion
    exts = gr.central_extensions_by_z2(gr.product_group(gr.cyclic(2), gr.dihedral(4)))
    assert len(exts) == 17
    assert len(extend_calls) <= 6_000
    assert tries_only_prefixes_that_can_fail(extend_calls)


def normal_subgroups(group):
    t, inv = group.table, group.inverse
    return [s for s in gr.subgroups(group)
            if all(t[t[a][x]][inv[a]] in s for a in range(group.order) for x in s)]


def test_built_groups_and_rings_pass_the_public_checks(monkeypatch):
    # every table and tensor the package builds without the constructors'
    # checks, built through the public constructors instead
    monkeypatch.setattr(gr, "_built_group", lambda order, table: gr.FiniteGroup(order, table))
    monkeypatch.setattr(cat, "_built_ring",
                        lambda n, dual, labels: FusionRing(len(n), dual, n, labels))
    small = [shuffled(g, v) if v else gr.FiniteGroup(g.order, g.table)
             for g, v in (param.values for param in SMALL_TABLES)]
    big = [gr.FiniteGroup(g.order, g.table) for g in AUT_GROUPS.values() if g.order == 16]
    assert (len(small), len(big)) == (42, 8)
    rings = []
    for g in small + big:
        for members in gr.subgroups(g):
            gr.subgroup_group(g, members)
        for kernel in normal_subgroups(g):
            gr.quotient_group(g, kernel)
        gr.central_extensions_by_z2(g)
        rings.append(cat.yl_extension(g))
        if g.order <= 8:
            rings.extend(cat.enumerate_extensions("pointed-z2", g))
    rings.append(cat.deligne_product(cat.yl_extension("Q8"), cat.ising()))
    rings.append(cat.deligne_product(cat.yl_extension("S3"), cat.pointed("Z4")))
    for ring in rings:
        assert verify_axioms(ring) == []


def all_cocycle_equations(group):
    """(vidx, every nonzero cocycle equation E(g, h, k) for g, h, k != e, every d(1_x))."""
    m = group.order
    t = group.table
    pairs = [(g, h) for g in range(1, m) for h in range(1, m)]
    vidx = {p: i for i, p in enumerate(pairs)}
    rows = []
    for g, h, k in itertools.product(range(1, m), repeat=3):
        mask = 1 << vidx[(g, h)]
        if t[g][h]:
            mask ^= 1 << vidx[(t[g][h], k)]
        mask ^= 1 << vidx[(h, k)]
        if t[h][k]:
            mask ^= 1 << vidx[(g, t[h][k])]
        if mask:
            rows.append(mask)
    coboundaries = []
    for x in range(1, m):
        coboundaries.append(sum(1 << v for (g, h), v in vidx.items()
                                if (g == x) ^ (h == x) ^ (t[g][h] == x)))
    return vidx, rows, coboundaries


@pytest.mark.parametrize("group,variant", SMALL_TABLES)
def test_cocycle_equations_on_the_generators_span_all_of_them(group, variant):
    # _cocycle_orbits imposes E(g, h, k) only for the generators k, and
    # builds each d(1_x) from its three terms; both span what all do
    g = shuffled(group, variant) if variant else group
    vidx, rows, coboundaries = gr._cocycle_equations(g)
    all_vidx, all_rows, all_coboundaries = all_cocycle_equations(g)
    assert vidx == all_vidx
    assert gr._gf2_echelon(rows) == gr._gf2_echelon(all_rows)
    assert gr._gf2_echelon(coboundaries) == gr._gf2_echelon(all_coboundaries)


def oracle_cocycle_orbits(group):
    """_cocycle_orbits by walking every cocycle of the nullspace basis, in sel order."""
    vidx, rows, coboundaries = all_cocycle_equations(group)
    basis = gr._gf2_nullspace(rows, len(vidx))
    echelon = gr._gf2_echelon(coboundaries)
    classes = {}
    for sel in range(1 << len(basis)):
        vec = 0
        for i, b in enumerate(basis):
            if (sel >> i) & 1:
                vec ^= b
        classes.setdefault(gr._gf2_reduce(vec, echelon), vec)
    residues = list(classes)
    index = {r: i for i, r in enumerate(residues)}
    autos = list(gr.iter_isomorphisms(group, group))

    def step(i):
        for beta in autos:
            image = sum(1 << vidx[(beta[g], beta[h])] for (g, h), v in vidx.items()
                        if (residues[i] >> v) & 1)
            yield index[gr._gf2_reduce(image, echelon)]

    firsts = list(classes.values())
    orbits = gr._orbits(range(len(residues)), step)
    return vidx, [[firsts[i] for i in orbit] for orbit in orbits]


@pytest.mark.parametrize("group,variant", SMALL_TABLES)
def test_cocycle_orbits_match_the_walk_over_every_cocycle(group, variant):
    g = shuffled(group, variant) if variant else group
    assert gr._cocycle_orbits(g) == oracle_cocycle_orbits(g)


@pytest.mark.parametrize("name,classes", [("Z2", 2), ("Z4", 2), ("Z2xZ2", 8), ("D4", 8),
                                          ("Z2xZ2xZ2", 64)])
def test_cocycle_classes_in_one_orbit_give_isomorphic_groups(name, classes):
    group = gr.named_group(name)
    m, t = group.order, group.table
    vidx, orbits = gr._cocycle_orbits(group)
    reps = [c for orbit in orbits for c in orbit]
    assert len(reps) == classes   # |H^2(group, Z2)|

    def value(mask, g, h):
        return 0 if g == 0 or h == 0 else (mask >> vidx[(g, h)]) & 1

    # every coboundary d f, f(e) = 0, by brute force over f
    coboundaries = set()
    for bits in range(1 << (m - 1)):
        f = [0] + [(bits >> (x - 1)) & 1 for x in range(1, m)]
        coboundaries.add(sum(1 << v for (g, h), v in vidx.items() if f[g] ^ f[h] ^ f[t[g][h]]))
    for c in reps:
        assert all(value(c, t[g][h], k) ^ value(c, g, h) == value(c, g, t[h][k]) ^ value(c, h, k)
                   for g, h, k in itertools.product(range(m), repeat=3))
    assert len({min(c ^ b for b in coboundaries) for c in reps}) == classes

    def class_of(mask):
        (j,) = [j for j, c in enumerate(reps) if mask ^ c in coboundaries]
        return j

    # orbits under all of Aut(group), c -> c(beta^-1 ., beta^-1 .), by search
    autos = list(gr.iter_isomorphisms(group, group))
    found, seen = [], set()
    for start in range(len(reps)):
        if start in seen:
            continue
        orbit, todo = {start}, [start]
        while todo:
            c = reps[todo.pop()]
            for beta in autos:
                inv = [beta.index(x) for x in range(m)]
                image = sum(1 << v for (g, h), v in vidx.items() if value(c, inv[g], inv[h]))
                j = class_of(image)
                if j not in orbit:
                    orbit.add(j)
                    todo.append(j)
        seen |= orbit
        found.append(sorted(orbit))
    # the enumeration, which joins classes under generators only, finds the same orbits
    assert found == [[reps.index(c) for c in orbit] for orbit in orbits]
    for orbit in found:
        first = extension_group(group, lambda g, h: value(reps[orbit[0]], g, h))
        for j in orbit[1:]:
            other = extension_group(group, lambda g, h: value(reps[j], g, h))
            assert next(gr.iter_isomorphisms(first, other), None) is not None


IDENTIFIED = [(g.name, g) for g in CATALOGUED] + [
    (g.name, shuffled(g, v)) for g in CATALOGUED for v in (1, 2, 3)] + [
    ("grp16c4", AUT_GROUPS["Z2xD4"]), ("grp16c4", AUT_GROUPS["Z2xQ8"]),
    ("D8", AUT_GROUPS["D8"]), ("Z4xZ4", AUT_GROUPS["Z4xZ4"]),
    ("D5", gr.dihedral(5)), ("D6", gr.dihedral(6)),
]


@pytest.mark.parametrize("name,group", IDENTIFIED,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(IDENTIFIED)])
def test_identify_group_names_are_pinned(name, group):
    assert gr.identify_group(group) == name


def test_identify_group_builds_no_reference_group_up_to_order_8(monkeypatch):
    # CATALOGUED came from groups_of_order, which holds its groups from then on
    groups = [shuffled(g, 1) for g in CATALOGUED]
    built = []
    original = gr.FiniteGroup.__post_init__
    monkeypatch.setattr(gr.FiniteGroup, "__post_init__",
                        lambda self: built.append(self.order) or original(self))
    assert [gr.identify_group(g) for g in groups] == [g.name for g in CATALOGUED]
    assert built == []
