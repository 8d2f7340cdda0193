"""Builders for the stock rings and the two extension families.

Group arguments accept either a FiniteGroup or one of the registered group
names (Z1..Z16, Z2xZ2, Z2xZ4, Z2xZ2xZ2, D4, Q8, S3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import groups as gr
from .groups import FiniteGroup, GroupError
from .ring import FusionRing, _orbits, per_object_cache


def _as_group(g) -> FiniteGroup:
    if isinstance(g, FiniteGroup):
        return g
    if isinstance(g, str):
        return gr.named_group(g)
    raise GroupError(f"expected a group or group name, got {type(g).__name__}")


def pointed(g) -> FusionRing:
    """Group ring of g: every basis element is invertible."""
    group = _as_group(g)
    m = group.order
    n = np.zeros((m, m, m), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            n[a, b, group.table[a][b]] = 1
    labels = tuple(group.element_name(a) for a in range(m))
    return FusionRing(m, group.inverse, n, labels)


def yang_lee() -> FusionRing:
    """Rank 2 with Y * Y = 1 + Y."""
    n = np.zeros((2, 2, 2), dtype=np.int64)
    n[0, 0, 0] = n[0, 1, 1] = n[1, 0, 1] = 1
    n[1, 1, 0] = n[1, 1, 1] = 1
    return FusionRing(2, (0, 1), n, ("1", "Y"))


def ising() -> FusionRing:
    """Rank 3 with d * d = 1, d * X = X * d = X, X * X = 1 + d."""
    n = np.zeros((3, 3, 3), dtype=np.int64)
    for a in (0, 1):
        for b in (0, 1):
            n[a, b, a ^ b] = 1
    n[0, 2, 2] = n[2, 0, 2] = n[1, 2, 2] = n[2, 1, 2] = 1
    n[2, 2, 0] = n[2, 2, 1] = 1
    return FusionRing(3, (0, 1, 2), n, ("1", "d", "X"))


def deligne_product(r1: FusionRing, r2: FusionRing) -> FusionRing:
    """Product ring on pairs of basis elements, multiplied slotwise.

    Each entry is the product of one entry of each factor, so products of
    2**63 or more raise OverflowError instead of wrapping in int64.
    """
    if int(r1.n.max()) * int(r2.n.max()) >= 2 ** 63:
        raise OverflowError("product structure constants exceed the int64 range")
    n = np.einsum("ijk,abc->iajbkc", r1.n, r2.n).reshape(
        r1.rank * r2.rank, r1.rank * r2.rank, r1.rank * r2.rank)
    dual = tuple(r1.dual[i] * r2.rank + r2.dual[a]
                 for i in range(r1.rank) for a in range(r2.rank))
    labels = tuple(f"{r1.label(i)}*{r2.label(a)}"
                   for i in range(r1.rank) for a in range(r2.rank))
    return FusionRing(r1.rank * r2.rank, dual, n, labels)


def yl_extension(g) -> FusionRing:
    """Extension of the Yang-Lee ring by a finite group: the Deligne product of both.

    deligne_product(yang_lee(), pointed(g)) relabelled: d_g = 1*g
    (invertible) sits at index g and Y_g = Y*g at |G| + g, so d_g d_h = d_gh,
    d_g Y_h = Y_gh, Y_h d_g = Y_hg and Y_g Y_h = d_gh + Y_gh.
    """
    group = _as_group(g)
    ring = deligne_product(yang_lee(), pointed(group))
    labels = tuple(f"{s}[{group.element_name(a)}]" for s in "dY" for a in range(group.order))
    return FusionRing(ring.rank, ring.dual, ring.n, labels)


@dataclass(frozen=True)
class GTYSpec:
    """Data for a near-group style extension of the rank 2 pointed ring.

    grading_group U of order 2n, an index 2 subgroup of it, an invertibles
    group G of order 2n with a chosen central order-2 element delta, and a
    surjective map G -> U with image the subgroup and kernel {e, delta}.
    """

    grading_group: FiniteGroup
    index2_subgroup: tuple[int, ...]
    invertibles: FiniteGroup
    delta: int
    quotient_map: tuple[int, ...]


def generalized_ty(spec: GTYSpec) -> FusionRing:
    """Build the ring described by the spec.

    Inconsistent spec data (delta not central of order 2, quotient map not a
    homomorphism with kernel {e, delta} onto the subgroup) raises GroupError.
    Data that passes these checks always gives a fusion ring, so the axioms
    are not checked again. Write U1 for the coset U - U0, X_x for x in U1,
    and deg a = q(a), deg X_x = x. The rules are a*b = ab,
    a*X_x = X_{q(a)x}, X_x*a = X_{x q(a)} and X_x*X_y = the sum of the two
    a with q(a) = xy (xy lies in U0 as U0 has index 2; the fibre is a coset
    of ker q = {e, delta}).
    - Unit, duals, reciprocity: with duals a* = a^-1 and X_x* = X_{x^-1},
      N_ij^k is 1 exactly when deg i * deg j = deg k and, if i, j, k all lie
      in G, ij = k; else 0. Since deg i* = (deg i)^-1, the conditions for
      N_ij^k, N_{i*k}^j and N_{kj*}^i are the same, and N_ij^e = 1 exactly
      when j = i*.
    - Associativity, by the number of X factors in (i*j)*k against
      i*(j*k): none is G's associativity; with one, both sides are the X
      of the product of the degrees, as q is a homomorphism; with two, both
      sides are the fibre of q over the product of the degrees, because
      multiplying by a in G moves the fibre over w onto the fibre over
      q(a)w or w q(a); with three, both sides are 2 X_{xyz}.
    """
    u, g = spec.grading_group, spec.invertibles
    u0 = tuple(sorted(spec.index2_subgroup))
    q = spec.quotient_map
    m = g.order
    if u.order != m or 2 * len(u0) != u.order:
        raise GroupError("grading group must have twice the subgroup's order, equal to |G|")
    if gr.generated_subgroup(u, u0) != frozenset(u0):
        raise GroupError("index2_subgroup is not a subgroup")
    if not (0 < spec.delta < m) or g.element_orders[spec.delta] != 2:
        raise GroupError("delta must have order 2")
    if spec.delta not in g.center:
        raise GroupError("delta must be central")
    if len(q) != m or any(not 0 <= x < u.order for x in q):
        raise GroupError("quotient map must assign a grading element to every invertible")
    if set(q) != set(u0):
        raise GroupError("quotient map must cover exactly the index 2 subgroup")
    for a in range(m):
        for b in range(m):
            if q[g.table[a][b]] != u.table[q[a]][q[b]]:
                raise GroupError("quotient map is not a homomorphism")
    if {a for a in range(m) if q[a] == 0} != {0, spec.delta}:
        raise GroupError("quotient map kernel must be exactly {e, delta}")

    coset = [x for x in range(u.order) if x not in set(u0)]
    half = len(coset)
    rank = m + half
    xpos = {x: m + a for a, x in enumerate(coset)}
    fibers = {w: [a for a in range(m) if q[a] == w] for w in u0}
    n = np.zeros((rank, rank, rank), dtype=np.int64)
    for a in range(m):
        for b in range(m):
            n[a, b, g.table[a][b]] = 1
    for a in range(m):
        for x in coset:
            n[a, xpos[x], xpos[u.table[q[a]][x]]] = 1
            n[xpos[x], a, xpos[u.table[x][q[a]]]] = 1
    for x in coset:
        for y in coset:
            w = u.table[x][y]
            for a in fibers[w]:
                n[xpos[x], xpos[y], a] = 1
    dual = tuple(g.inverse[a] for a in range(m)) + \
        tuple(xpos[u.inverse[x]] for x in coset)
    labels = tuple(g.element_name(a) for a in range(m)) + \
        tuple(f"X[{x}]" for x in coset)
    return FusionRing(rank, dual, n, labels)


def _ring_sort_key(ring: FusionRing):
    # No dimensions needed: in one pointed-z2 enumeration the rank fixes
    # them (near-group rings have rank 3|U|/2, pointed ones rank 2|U|).
    return (ring.rank, sum(ring.invertible), ring.n.tobytes())


def _spec_sort_key(spec: GTYSpec) -> tuple[int, ...]:
    """A key that orders specs with equal U and G as _ring_sort_key orders their rings.

    The negated sorted constituents of every cell of generalized_ty(spec)
    outside the G x G block, in row-major order: see _near_group_rings.
    """
    u, q = spec.grading_group, spec.quotient_map
    m, u0 = len(q), set(q)
    coset = [x for x in range(u.order) if x not in u0]
    xpos = {x: m + i for i, x in enumerate(coset)}
    fibres = {w: [-a for a in range(m) if q[a] == w] for w in u0}
    key = [-xpos[u.table[q[a]][x]] for a in range(m) for x in coset]
    for x in coset:
        key.extend(-xpos[u.table[x][q[b]]] for b in range(m))
        for y in coset:
            key.extend(fibres[u.table[x][y]])
    return tuple(key)


def _near_group_rings(u: FiniteGroup) -> list[FusionRing]:
    """One near-group ring per orbit of specs under Aut(U) x Aut(G).

    A spec over U is indexed by (G's index in groups_of_order, delta, q);
    the subgroup U0 is set(q). alpha in Aut(U) maps q to alpha.q, and beta
    in Aut(G) maps (delta, q) to (beta(delta), q.beta^-1). Both relabel the
    ring (X_x -> X_alpha(x), or a -> beta(a)), so the specs of one orbit
    give isomorphic rings. Conversely, take an isomorphism s between the
    rings of two specs over U:
    - s maps invertibles to invertibles (G, as X_x * X_{x^-1} = e + delta),
      so it gives beta in Aut(G) with the same index, because the groups of
      groups_of_order are pairwise non-isomorphic;
    - s preserves the universal grading: the adjoint subring is {e, delta},
      the components are the fibres of q and the singletons {X_x}, and the
      group is U, so s induces alpha in Aut(U);
    - s maps {e, delta} onto {e, delta'} and the fibre of q over w onto that
      of q' over alpha(w), so (delta', q') = (beta(delta), alpha.q.beta^-1)
      lies in the orbit of (delta, q).
    So the orbits are the isomorphism classes. Each orbit keeps the ring of
    its smallest spec in _spec_sort_key order, the first built on ties, and
    only that ring is built. It is the smallest ring of the orbit in
    _ring_sort_key order, the first built on ties:
    - specs with equal U and G give rings of one rank m + |U|/2 with m
      invertibles, so _ring_sort_key compares them by n.tobytes() alone;
    - every entry of n is 0 or 1, and a little-endian int64 0 or 1 compares
      as bytes as it does as a number, so n.tobytes() order is the
      lexicographic order of the cells n[i, j, :] in row-major (i, j) order;
    - the G x G cells are G's table, the same for all these specs. The
      cells (a, X_x) and (X_x, b) hold one constituent, the cells
      (X_x, X_y) two (a fibre of q). Between 0/1 cells with equally many
      ones, the larger is the one whose first one comes first, that is,
      whose sorted constituents, negated, form the larger tuple;
    - _spec_sort_key lists those negated tuples in row-major order, each of
      fixed length, so it compares as n.tobytes() does, equal exactly when
      the tensors are.
    The full key is built only where it decides. Its first block, the cells
    (a, X_x), is the head: the tuple over a of row[q(a)], one row of |U|/2
    entries per w in U0, computed once per U0. The head is a prefix of
    _spec_sort_key made of equal-length blocks, so (head, full key, s)
    orders as (full key, s): each orbit takes its least head, and only
    the members that tie there get the full key.
    The pointed rings of enumerate_extensions need no search either:
    central_extensions_by_z2 returns pairwise non-isomorphic groups, and
    their rings have rank 2|U| against 3|U|/2 here.
    """
    gs = gr.groups_of_order(u.order)
    alphas = gr.automorphism_generators(u)
    betas = [gr.automorphism_generators(g) for g in gs]
    specs: dict[tuple[int, int, tuple[int, ...]], int] = {}
    heads: list[tuple[tuple[int, ...], ...]] = []
    for u0 in gr.index2_subgroups(u):
        u0_group, embed = gr.subgroup_group(u, u0)
        coset = [x for x in range(u.order) if x not in set(u0)]
        xpos = {x: u.order + i for i, x in enumerate(coset)}
        # row[w] is the block of _spec_sort_key that an a with q(a) = w adds
        row = {w: tuple(-xpos[u.table[w][x]] for x in coset) for w in u0}
        for gi, g in enumerate(gs):
            for delta, quot, proj in _central_quotients(g):
                for phi in gr.iter_isomorphisms(quot, u0_group):
                    qmap = tuple(embed[phi[proj[a]]] for a in range(g.order))
                    specs[(gi, delta, qmap)] = len(heads)
                    heads.append(tuple(row[w] for w in qmap))
    spec_keys = list(specs)  # in build order: no spec is built twice

    def step(s: int) -> Iterable[int]:
        gi, delta, q = spec_keys[s]
        for alpha in alphas:
            yield specs[(gi, delta, tuple(alpha[x] for x in q))]
        for beta in betas[gi]:
            moved = [0] * len(q)
            for a, x in enumerate(q):
                moved[beta[a]] = x
            yield specs[(gi, beta[delta], tuple(moved))]

    def spec(s: int) -> GTYSpec:
        gi, delta, q = spec_keys[s]
        return GTYSpec(u, tuple(sorted(set(q))), gs[gi], delta, q)

    rings = []
    for orbit in _orbits(range(len(heads)), step):
        head = min(heads[s] for s in orbit)
        tied = [s for s in orbit if heads[s] == head]
        best = tied[0] if len(tied) == 1 else \
            min(tied, key=lambda s: (_spec_sort_key(spec(s)), s))
        rings.append(generalized_ty(spec(best)))
    return rings


@per_object_cache
def _central_quotients(g: FiniteGroup) -> list[tuple[int, FiniteGroup, tuple[int, ...]]]:
    """(delta, G/{e, delta}, projection) for each central delta of order 2 in g."""
    return [(delta, *gr.quotient_group(g, (0, delta))) for delta in gr.central_elements_of_order2(g)]


def enumerate_extensions(base: str, u) -> list[FusionRing]:
    """All rings extending the base with the given grading group, up to isomorphism.

    base "yang-lee" yields exactly one ring per group. base "pointed-z2"
    yields the near-group family (identity component of the universal
    grading equal to the base) plus the pointed extensions, which arise from
    central extensions of the grading group by Z2. No isomorphism search
    runs: see _near_group_rings for why none is needed.
    """
    group = _as_group(u)
    if group.order > 8:
        raise ValueError("extension enumeration supports grading groups of order at most 8")
    if base == "yang-lee":
        return [yl_extension(group)]
    if base != "pointed-z2":
        raise ValueError(f"unknown base {base!r}; expected 'pointed-z2' or 'yang-lee'")
    out = _near_group_rings(group) if group.order % 2 == 0 else []
    out.extend(pointed(ext) for ext in gr.central_extensions_by_z2(group))
    return sorted(out, key=_ring_sort_key)
