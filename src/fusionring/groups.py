"""Finite groups given by explicit multiplication tables.

Everything here is desk scale (orders up to 16 or so): groups are dense
tables, subgroups are enumerated by closure, and isomorphism is a
backtracking search on generator images.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as iter_product

import numpy as np

from .ring import (_bits, _checked_int, _is_integer, _mask, _orbits, _walk, closed_subsets,
                   per_object_cache)

_CATALOGUED_ORDER = 8  # groups_of_order lists every group up to this order


class GroupError(ValueError):
    """Malformed table or invalid group argument."""


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Group on indices 0..order-1; table[a][b] is the product a*b, 0 the identity."""

    order: int
    table: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __post_init__(self) -> None:
        m = _checked_int(self.order, "order", GroupError)
        object.__setattr__(self, "order", m)
        _check_shape(m, self.table)
        for a, row in enumerate(self.table):
            for b, x in enumerate(row):
                if not _is_integer(x):
                    raise GroupError(f"table entry ({a},{b}) is {x!r}, not an integer")
        arr = np.asarray(self.table, dtype=np.int64)
        if arr.min() < 0 or arr.max() >= m:
            raise GroupError("table entries out of range")
        if any(self.table[0][a] != a or self.table[a][0] != a for a in range(m)):
            raise GroupError("index 0 must act as the identity")
        # with the identity and associativity, right inverses are two-sided
        # (ab = e = bc gives a = (ab)c = c): a group, so rows are permutations
        if not all(0 in row for row in self.table):
            raise GroupError("some row has no inverse")
        left = arr[arr, :]      # left[a,b,c] = (a*b)*c
        right = arr[:, arr]     # right[a,b,c] = a*(b*c)
        if not np.array_equal(left, right):
            a, b, c = (int(x) for x in np.argwhere(left != right)[0])
            raise GroupError(f"not associative at ({a},{b},{c})")

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.table)

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        orders = []
        for a in range(self.order):
            k, x = 1, a
            while x != 0:
                x = self.table[x][a]
                k += 1
            orders.append(k)
        return tuple(orders)

    @cached_property
    def center(self) -> tuple[int, ...]:
        t = self.table
        return tuple(a for a in range(self.order)
                     if all(t[a][b] == t[b][a] for b in range(self.order)))

    def is_abelian(self) -> bool:
        return len(self.center) == self.order

    def is_cyclic(self) -> bool:
        return max(self.element_orders) == self.order

    def is_elementary_abelian_2(self) -> bool:
        return all(o in (1, 2) for o in self.element_orders)

    def element_name(self, a: int) -> str:
        return "e" if a == 0 else f"g{a}"

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, name={self.name!r})"


def _elements(group: FiniteGroup, members) -> list[int]:
    """The members as sorted distinct elements of the group, or GroupError."""
    members = list(members)
    if not all(_is_integer(x) and 0 <= x < group.order for x in members):
        raise GroupError("members must be elements of the group")
    return sorted({int(x) for x in members})


def _check_shape(order: int, table) -> None:
    if order < 1:
        raise GroupError("order must be positive")
    if len(table) != order or any(len(row) != order for row in table):
        raise GroupError(f"table must be {order}x{order}")


def _built_group(order: int, table: tuple[tuple[int, ...], ...]) -> FiniteGroup:
    """A FiniteGroup on a table its builder proved to be a group, identity at 0.

    Only the shape is checked; the entry, identity, inverse and
    associativity checks of the constructor are skipped. Only a builder
    whose docstring gives that proof may call this.
    """
    _check_shape(order, table)
    group = object.__new__(FiniteGroup)
    group.__dict__.update(order=order, table=table, name=None)
    return group


# ---------------------------------------------------------------- constructors

def cyclic(n: int) -> FiniteGroup:
    n = _checked_int(n, "cyclic order", GroupError)
    if n < 1:
        raise GroupError("cyclic order must be positive")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(n, table, name=f"Z{n}")


def product_group(g: FiniteGroup, h: FiniteGroup, name: str | None = None) -> FiniteGroup:
    m, k = g.order, h.order
    table = [[0] * (m * k) for _ in range(m * k)]
    for a, b, c, d in iter_product(range(m), range(k), range(m), range(k)):
        table[a * k + b][c * k + d] = g.table[a][c] * k + h.table[b][d]
    return FiniteGroup(m * k, tuple(tuple(row) for row in table), name=name)


def product_of_cyclics(orders) -> FiniteGroup:
    out, *rest = [cyclic(n) for n in orders] or [cyclic(1)]
    for factor in rest:
        out = product_group(out, factor, name=f"{out.name}x{factor.name}")
    return out


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n; rotations sit at 0..n-1."""
    n = _checked_int(n, "dihedral parameter", GroupError)
    if n < 1:
        raise GroupError("dihedral parameter must be positive")
    m = 2 * n
    table = [[0] * m for _ in range(m)]
    for a in range(n):
        for b in range(n):
            table[a][b] = (a + b) % n
            table[a][n + b] = n + (b - a) % n
            table[n + a][b] = n + (a + b) % n
            table[n + a][n + b] = (b - a) % n
    return FiniteGroup(m, tuple(tuple(row) for row in table), name=f"D{n}")


def quaternion8() -> FiniteGroup:
    """The quaternion group; index 2u + s is (-1)**s times unit u of 1, i, j, k.

    Units multiply by XOR (ij = k, jk = i, ki = j). The sign flips for
    i*i = j*j = k*k = -1 and for the anticyclic pairs ji, kj and ik, where
    (v - u) mod 3 = 2.
    """
    def mul(a: int, b: int) -> int:
        u, v = a // 2, b // 2
        flip = u and v and (u == v or (v - u) % 3 == 2)
        return 2 * (u ^ v) + (a % 2 ^ b % 2 ^ flip)

    return FiniteGroup(8, tuple(tuple(mul(a, b) for b in range(8)) for a in range(8)), name="Q8")


def symmetric3() -> FiniteGroup:
    return FiniteGroup(6, dihedral(3).table, name="S3")


_NAMED_BUILDERS = {f"Z{n}": (lambda n=n: cyclic(n)) for n in range(1, 17)}
_NAMED_BUILDERS.update({
    "Z2xZ2": lambda: product_of_cyclics([2, 2]),
    "Z2xZ4": lambda: product_of_cyclics([2, 4]),
    "Z2xZ2xZ2": lambda: product_of_cyclics([2, 2, 2]),
    "D4": lambda: dihedral(4),
    "Q8": quaternion8,
    "S3": symmetric3,
})

#: Names accepted on the command line.
NAMED_GROUPS: tuple[str, ...] = tuple(_NAMED_BUILDERS)


def named_group(name: str) -> FiniteGroup:
    builder = _NAMED_BUILDERS.get(name)
    if builder is None:
        raise GroupError(f"unknown group name {name!r}")
    return builder()


def groups_of_order(m: int) -> tuple[FiniteGroup, ...]:
    """All isomorphism classes of groups of order m, for m <= 8."""
    # checked before the cache: True and 2.0 hash and compare as 1 and 2
    return _groups_of_order(_checked_int(m, "group order", GroupError))


@lru_cache(maxsize=None)
def _groups_of_order(m: int) -> tuple[FiniteGroup, ...]:
    if not 1 <= m <= _CATALOGUED_ORDER:
        raise GroupError(f"group tables are catalogued only up to order {_CATALOGUED_ORDER}")
    names = {
        1: ["Z1"], 2: ["Z2"], 3: ["Z3"], 4: ["Z4", "Z2xZ2"], 5: ["Z5"],
        6: ["Z6", "S3"], 7: ["Z7"], 8: ["Z8", "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8"],
    }[m]
    return tuple(named_group(n) for n in names)


# ------------------------------------------------------------------- subgroups

def generated_subgroup(group: FiniteGroup, seed) -> frozenset[int]:
    """The walk from e by right multiplication with the seed (inverses are powers)."""
    seed = _elements(group, seed)
    return frozenset(_bits(_walk(1, lambda a: _mask(group.table[a][b] for b in seed))))


@per_object_cache
def subgroups(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Every subgroup, as a sorted member tuple, smallest first."""
    moves = [[1 << int(c) for c in row] for row in group.table]
    return tuple(closed_subsets(moves, group.inverse))


def index2_subgroups(group: FiniteGroup) -> list[tuple[int, ...]]:
    return [s for s in subgroups(group) if 2 * len(s) == group.order]


def central_elements_of_order2(group: FiniteGroup) -> list[int]:
    return [g for g in group.center if group.element_orders[g] == 2]


def subgroup_group(group: FiniteGroup, members) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Reindex a subgroup as its own FiniteGroup; returns (group, embedding).

    The table goes to _built_group unchecked. The members are elements of
    the group, and the KeyError below checks that they are closed under
    the product. A closed non-empty subset of a finite group is a subgroup:
    it holds the powers of each member, so e and the inverses, and the
    product is the group's, so associative. e = 0 is the least member, so
    it sits at index 0. The empty set fails _built_group's order check.
    """
    mem = _elements(group, members)
    pos = {g: i for i, g in enumerate(mem)}
    try:
        table = tuple(tuple(pos[group.table[a][b]] for b in mem) for a in mem)
    except KeyError:
        raise GroupError("member set is not closed under multiplication") from None
    return _built_group(len(mem), table), tuple(mem)


def _is_normal(group: FiniteGroup, members: frozenset[int]) -> bool:
    """Whether g*x*g^-1 lies in the members for every g in the group and x among them."""
    t, inv = group.table, group.inverse
    return all(t[t[g][x]][inv[g]] in members for g in range(group.order) for x in members)


def quotient_group(group: FiniteGroup, kernel) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup; returns (quotient, projection).

    The table goes to _built_group unchecked. The kernel K is checked to be
    a normal subgroup, so the cosets aK form the group G/K with
    aK * bK = abK, whatever the representatives. The coset K of e holds the
    least element, 0, so it is numbered 0.
    """
    k = frozenset(_elements(group, kernel))
    if generated_subgroup(group, k) != k:
        raise GroupError("kernel is not a subgroup")
    if not _is_normal(group, k):
        raise GroupError("kernel is not normal")
    t = group.table
    # the cosets aK, numbered by smallest member
    cosets = _orbits(range(group.order), lambda a: (t[a][x] for x in k))
    coset_of = [0] * group.order
    for cid, coset in enumerate(cosets):
        for a in coset:
            coset_of[a] = cid
    reps = [coset[0] for coset in cosets]
    table = tuple(tuple(coset_of[t[a][b]] for b in reps) for a in reps)
    return _built_group(len(reps), table), tuple(coset_of)


# ---------------------------------------------------------------- isomorphisms

@per_object_cache
def _generating_sequence(group: FiniteGroup) -> tuple[int, ...]:
    gens: list[int] = []
    closed = frozenset({0})
    for g in range(group.order):
        if g not in closed:
            gens.append(g)
            closed = generated_subgroup(group, gens)
    return tuple(gens)


@per_object_cache
def _square_root_counts(group: FiniteGroup) -> tuple[int, ...]:
    """The sorted numbers |{y : y*y = s}| over the squares s, an isomorphism invariant."""
    return tuple(sorted(Counter(group.table[y][y] for y in range(group.order)).values()))


def _extend(g1: FiniteGroup, g2: FiniteGroup, gens: tuple[int, ...], images) -> dict[int, int] | None:
    """The injective homomorphism from <gens> in g1 to g2 sending gens[i] to images[i], or None."""
    f = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for gen, img in zip(gens, images):
                y = g1.table[x][gen]
                fy = g2.table[f[x]][img]
                if y in f:
                    if f[y] != fy:
                        return None
                else:
                    f[y] = fy
                    nxt.append(y)
        frontier = nxt
    if len(set(f.values())) != len(f):
        return None
    # f is a homomorphism: the walk checked f(x*gen) = f(x)*img for every
    # x and generator, and f(gen) = f(e)*img = img. Every b is a word in
    # the generators (inverses are powers in a finite group), so
    # f(a*b) = f(a)*f(b) follows by induction on the length of b.
    return f


def _isomorphisms(g1: FiniteGroup, g2: FiniteGroup, gens: tuple[int, ...],
                  images: tuple[int, ...]):
    """Yield every isomorphism g1 -> g2 sending gens[i] to images[i] for i < len(images).

    Each image must have its generator's order. The later generators take
    each image of their order, depth first, so the maps come in
    lexicographic order of their images. An isomorphism restricts to an
    injective homomorphism on <prefix>, so a prefix _extend refuses is cut
    with all its completions. Prefixes of fewer than two images are not
    tried: the empty one always extends, and so does one image h of the
    order of g, by g^i -> h^i on the cyclic <g>. On all of gens,
    <gens> = g1, and an injective homomorphism into g2, of the same order,
    is an isomorphism.
    """
    k = len(images)
    if k == len(gens):
        f = _extend(g1, g2, gens, images)
        if f is not None:
            yield tuple(f[a] for a in range(g1.order))
        return
    if k >= 2 and _extend(g1, g2, gens[:k], images) is None:
        return
    order = g1.element_orders[gens[k]]
    for h in range(g2.order):
        if g2.element_orders[h] == order:
            yield from _isomorphisms(g1, g2, gens, (*images, h))


def iter_isomorphisms(g1: FiniteGroup, g2: FiniteGroup):
    """Yield every isomorphism g1 -> g2 as a tuple indexed by g1 elements."""
    # equal element orders imply equal group orders
    if len(g1.center) != len(g2.center) or sorted(g1.element_orders) != sorted(g2.element_orders):
        return
    if _square_root_counts(g1) != _square_root_counts(g2):
        return
    yield from _isomorphisms(g1, g2, _generating_sequence(g1), ())


@per_object_cache
def automorphism_generators(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """A generating set of Aut(group), read off a stabilizer chain (Schreier-Sims).

    With gens = _generating_sequence(group) = (g_0, ..., g_(k-1)), let A_i be
    the automorphisms fixing g_0, ..., g_(i-1); A_k is trivial, as an
    automorphism is fixed by its generator images, and A_0 = Aut(group).
    From i = k-1 down to 0, the set S generates A_(i+1); each image h of g_i
    of the right order that is not yet in the orbit of g_i under <S> is
    tried, and the first automorphism fixing g_0, ..., g_(i-1) and sending
    g_i to h (searched over the images of the later generators) joins S.
    Then <S> lies in A_i, contains A_(i+1) = the stabilizer of g_i in A_i,
    and moves g_i over its whole A_i-orbit, so |<S>| = |A_i| and <S> = A_i.
    No automorphism is listed: Aut(Z2^3) has 168 elements and gets 5
    generators from 20 trial maps.
    """
    gens = _generating_sequence(group)
    found: list[tuple[int, ...]] = []
    for i in reversed(range(len(gens))):
        orbit = 1 << gens[i]  # the maps found so far fix g_i
        for h in range(group.order):
            if orbit >> h & 1 or group.element_orders[h] != group.element_orders[gens[i]]:
                continue
            auto = next(_isomorphisms(group, group, gens, (*gens[:i], h)), None)
            if auto is not None:
                found.append(auto)
                orbit = _walk(1 << gens[i], lambda x: _mask(f[x] for f in found))
    return tuple(found)


def are_isomorphic(g1: FiniteGroup, g2: FiniteGroup) -> bool:
    return next(iter_isomorphisms(g1, g2), None) is not None


@per_object_cache
def identify_group(group: FiniteGroup) -> str:
    """A display name for the isomorphism class, best effort for order > 16.

    A non-abelian group of order m = 2k > 8 is named D_k, without building
    D_k, exactly when it has an element r of order k and k + [k even]
    elements of order 2. D_k has both: its rotation and its k reflections,
    with the rotation of order 2 when k is even. Conversely, <r> has index
    2 and holds [k even] elements of order 2, so the other k are the whole
    coset outside <r>. Take s there: sr lies there too, so (sr)^2 = e, and
    srs = r^-1 as s = s^-1. So r and s generate the group with
    r^k = s^2 = e and srs^-1 = r^-1, the relations of D_k: the group is a
    quotient of D_k of the same order 2k, so D_k itself.
    """
    m = group.order
    if group.is_cyclic():
        return f"Z{m}"
    if group.is_abelian():
        return "x".join(f"Z{n}" for n in _abelian_invariants(group))
    if m <= _CATALOGUED_ORDER:
        return next(g.name for g in groups_of_order(m) if are_isomorphic(group, g))
    k, orders = m // 2, group.element_orders
    if m % 2 == 0 and k in orders and orders.count(2) == k + (k % 2 == 0):
        return f"D{k}"
    return f"grp{m}c{len(group.center)}"


def _abelian_invariants(group: FiniteGroup) -> list[int]:
    """The prime-power orders of the cyclic factors of an abelian group, ascending.

    In Z_{p^e1} x ... x Z_{p^er} exactly p^(sum_i min(k, e_i)) elements have
    order dividing p^k. So with s_k the exponent of that count, s_k - s_(k-1)
    is the number of factors with e_i >= k, which fixes every e_i.
    """
    out: list[int] = []
    rest, p = group.order, 1
    while rest > 1:
        p += 1
        if rest % p:
            continue
        while rest % p == 0:
            rest //= p
        logs = [0]  # logs[k] = s_k, while it still grows
        while len(logs) < 2 or logs[-1] > logs[-2]:
            count = sum(1 for o in group.element_orders if p ** len(logs) % o == 0)
            logs.append(next(s for s in range(count) if p ** s == count))
        at_least = [b - a for a, b in zip(logs, logs[1:])]  # at_least[k - 1] = s_k - s_(k-1)
        out.extend(p ** sum(1 for a in at_least if a > i) for i in range(at_least[0]))
    return sorted(out)


# ---------------------------------------------------- central extensions by Z2

def _gf2_echelon(rows: list[int]) -> dict[int, int]:
    # Reduced row echelon form over GF(2), rows as bitmasks keyed by their
    # leading (pivot) bit. The invariant kept here is that every echelon row
    # contains its own pivot bit and free-column bits only; the nullspace
    # read-off and the reduction below depend on it.
    echelon: dict[int, int] = {}
    for r in rows:
        cur = r
        while cur:
            lead = cur.bit_length() - 1
            if lead not in echelon:
                break
            cur ^= echelon[lead]
        if not cur:
            continue
        lead = cur.bit_length() - 1
        for l2 in echelon:
            if (cur >> l2) & 1:
                cur ^= echelon[l2]
        for l2 in list(echelon):
            if (echelon[l2] >> lead) & 1:
                echelon[l2] ^= cur
        echelon[lead] = cur
    return echelon


def _gf2_nullspace(rows: list[int], nvars: int) -> list[int]:
    echelon = _gf2_echelon(rows)
    basis = []
    for c in range(nvars):
        if c in echelon:
            continue
        vec = 1 << c
        for lead, row in echelon.items():
            if (row >> c) & 1:
                vec |= 1 << lead
        basis.append(vec)
    return basis


def _gf2_reduce(vec: int, echelon: dict[int, int]) -> int:
    """The representative of vec modulo the row space, with every pivot bit clear."""
    for lead, row in echelon.items():
        if (vec >> lead) & 1:
            vec ^= row
    return vec


def _subset_sums(vectors: list[int]) -> list[int]:
    """The XOR of every subset of the vectors; bit i of the index picks vectors[i]."""
    sums = [0]
    for v in vectors:
        sums += [x ^ v for x in sums]
    return sums


def _cocycle_orbits(group: FiniteGroup) -> tuple[dict[tuple[int, int], int], list[list[int]]]:
    """The cohomology classes of normalized Z2-valued 2-cocycles, grouped by Aut(group)-orbit.

    Returns (vidx, orbits): bit vidx[(g, h)] of a cocycle mask holds c(g, h)
    for g, h != e. A selector sel stands for the sum of basis[i] over the
    bits i of sel, basis being the nullspace basis of the cocycle equations,
    and each class appears as its cocycle of least sel. An orbit lists its
    classes by least sel, and the orbits are ordered by their first class.

    No cocycle is walked. The class of sel is its residue modulo the
    coboundaries, and sel -> residue is linear, so the pairs
    (residue, sel) of the basis vectors, with the residue in the high bits,
    are brought to reduced echelon form. The rows led by a residue bit have
    independent residues spanning the classes (2**dim H^2 of them, bounded
    here instead of the cocycle space), and the rows led by a sel bit
    (residue 0) are the kernel's reduced echelon. The least sel in a kernel
    coset is the one with every pivot bit clear: two such sels would differ
    by a kernel element with no pivot bit, which is 0, and any other sel of
    the coset has the highest pivot bit of its difference set. A residue
    row holds no kernel pivot bit, and neither does a sum of them, so the
    subset sums of the residue rows are exactly each class with its least
    sel. An automorphism acts linearly on residues too, so its action on
    the classes follows from its images of the residue rows.
    """
    m = group.order
    t = group.table
    pairs = [(g, h) for g in range(1, m) for h in range(1, m)]
    vidx = {p: i for i, p in enumerate(pairs)}
    rows = []
    for g in range(1, m):
        for h in range(1, m):
            gh = t[g][h]
            for k in range(1, m):
                hk = t[h][k]
                mask = 1 << vidx[(g, h)]
                if gh:
                    mask ^= 1 << vidx[(gh, k)]
                mask ^= 1 << vidx[(h, k)]
                if hk:
                    mask ^= 1 << vidx[(g, hk)]
                if mask:
                    rows.append(mask)
    basis = _gf2_nullspace(rows, len(pairs))
    # Classes are keyed by their residue modulo the coboundaries d(1_x), x != e.
    coboundaries = []
    for x in range(1, m):
        mask = 0
        for (g, h), v in vidx.items():
            if (g == x) ^ (h == x) ^ (t[g][h] == x):
                mask |= 1 << v
        coboundaries.append(mask)
    echelon = _gf2_echelon(coboundaries)
    # (residue, sel) pairs as residue << d | sel, in reduced echelon form
    d = len(basis)
    spanning = [row for lead, row in _gf2_echelon(
        [_gf2_reduce(b, echelon) << d | 1 << i for i, b in enumerate(basis)]).items() if lead >= d]
    if len(spanning) > 14:
        raise GroupError("too many cohomology classes to enumerate")
    spanning_residues = [row >> d for row in spanning]
    residues = _subset_sums(spanning_residues)
    least = sorted(zip(_subset_sums([row & ((1 << d) - 1) for row in spanning]), residues))
    index = {r: i for i, (_, r) in enumerate(least)}
    # beta acts linearly on residues: by bit (g, h) -> (beta(g), beta(h)),
    # then reduction; odd orders have one class and need no automorphisms
    moves = []
    for beta in (automorphism_generators(group) if len(least) > 1 else ()):
        moved = [vidx[(beta[g], beta[h])] for g, h in pairs]
        image = []
        for res in spanning_residues:
            vec = 0
            for v, w in enumerate(moved):
                if (res >> v) & 1:
                    vec |= 1 << w
            image.append(_gf2_reduce(vec, echelon))
        move = [0] * len(least)
        for r, x in zip(residues, _subset_sums(image)):
            move[index[r]] = index[x]
        moves.append(move)

    def first_cocycle(sel: int) -> int:
        vec = 0
        for i, b in enumerate(basis):
            if (sel >> i) & 1:
                vec ^= b
        return vec

    firsts = [first_cocycle(sel) for sel, _ in least]
    orbits = _orbits(range(len(least)), lambda i: (move[i] for move in moves))
    return vidx, [[firsts[i] for i in orbit] for orbit in orbits]


def central_extensions_by_z2(group: FiniteGroup) -> list[FiniteGroup]:
    """All groups H of order 2m with a central order-2 subgroup K and H/K = group.

    Enumerated through normalized 2-cocycles c with values in Z2: H_c is
    group x Z2 with (g, s)(h, u) = (gh, s + u + c(g, h)). Any order-2 normal
    subgroup is central, so the H_c cover every such extension, and
    cohomologous cocycles give isomorphic groups, so one cocycle per
    cohomology class is enough. An automorphism beta of the group moves c
    to c' = c(beta^-1 ., beta^-1 .), and (g, s) -> (beta(g), s) is an
    isomorphism H_c -> H_c': it maps the product above to
    (beta(g)beta(h), s + u + c'(beta(g), beta(h))). So the classes of one
    Aut(group)-orbit give isomorphic groups, and only the first class of
    each orbit is built. Isomorphic groups may still come from different
    orbits (an isomorphism need not preserve K), so are_isomorphic runs
    across the orbit representatives, in order. Each isomorphism class is a
    union of orbits, so the group kept for it is its first class's, as if
    every class were built.

    Each table goes to _built_group unchecked, as H_c is a group: c is
    normalized, c(e, h) = c(g, e) = 0, so (e, 0) is the identity at index 0;
    the cocycle identity c(g, h) + c(gh, k) = c(h, k) + c(g, hk), the
    equations _cocycle_orbits solves for g, h, k != e (with e it follows
    from normalization), makes both bracketings of (g, s)(h, u)(k, v) equal
    (ghk, s + u + v + that sum); and (g, s)^-1 = (g^-1, s + c(g, g^-1)).
    """
    m = group.order
    t = group.table
    vidx, orbits = _cocycle_orbits(group)
    reps: list[FiniteGroup] = []
    for orbit in orbits:
        vec = orbit[0]
        c = [[0] * m] + [[0, *((vec >> vidx[(g, h)]) & 1 for h in range(1, m))]
                         for g in range(1, m)]
        table = tuple(tuple(2 * t[g][h] + (s ^ u ^ c[g][h]) for h in range(m) for u in (0, 1))
                      for g in range(m) for s in (0, 1))
        cand = _built_group(2 * m, table)
        if not any(are_isomorphic(cand, r) for r in reps):
            reps.append(cand)
    return reps
