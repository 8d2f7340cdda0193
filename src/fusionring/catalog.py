"""Builders for the stock rings and the two extension families.

Group arguments accept either a FiniteGroup or one of the registered group
names (Z1..Z16, Z2xZ2, Z2xZ4, Z2xZ2xZ2, D4, Q8, S3).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import groups as gr
from .groups import FiniteGroup, GroupError
from .ring import _ENTRY_LIMIT, FusionRing, _built_ring, _is_integer, _orbits, per_object_cache


def _as_group(g) -> FiniteGroup:
    if isinstance(g, FiniteGroup):
        return g
    if isinstance(g, str):
        return gr.named_group(g)
    raise GroupError(f"expected a group or group name, got {type(g).__name__}")


def pointed(g) -> FusionRing:
    """Group ring of g: every basis element is invertible.

    Built by _built_ring unchecked: n is an m x m x m tensor of zeros and
    ones, and the duals, the group's inverses, are a permutation. It is a
    fusion ring, as N_ab^c = 1 exactly when ab = c: e is the unit,
    ab = e exactly when b = a^-1, the conditions ab = c, a^-1 c = b and
    c b^-1 = a agree, and the product is the group's, so associative.
    """
    group = _as_group(g)
    m = group.order
    n = np.zeros((m, m, m), dtype=np.int64)
    a = np.arange(m)
    n[a[:, None], a, group.table] = 1
    labels = tuple(group.element_name(a) for a in range(m))
    return _built_ring(n, group.inverse, labels)


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
    2**63 or more raise OverflowError instead of wrapping in int64. Built by
    _built_ring unchecked past that check: the entries are products of
    non-negative entries below 2**63, and the duals pair the factors'
    dual permutations, so they form a permutation.
    """
    if int(r1.n.max()) * int(r2.n.max()) >= _ENTRY_LIMIT:
        raise OverflowError("product structure constants exceed the int64 range")
    n = np.einsum("ijk,abc->iajbkc", r1.n, r2.n).reshape(
        r1.rank * r2.rank, r1.rank * r2.rank, r1.rank * r2.rank)
    dual = tuple(r1.dual[i] * r2.rank + r2.dual[a]
                 for i in range(r1.rank) for a in range(r2.rank))
    labels = tuple(f"{r1.label(i)}*{r2.label(a)}"
                   for i in range(r1.rank) for a in range(r2.rank))
    return _built_ring(n, dual, labels)


def yl_extension(g) -> FusionRing:
    """Extension of the Yang-Lee ring by a finite group: the Deligne product of both.

    deligne_product(yang_lee(), pointed(g)) relabelled: d_g = 1*g
    (invertible) sits at index g and Y_g = Y*g at |G| + g, so d_g d_h = d_gh,
    d_g Y_h = Y_gh, Y_h d_g = Y_hg and Y_g Y_h = d_gh + Y_gh. Only the
    labels change, so the ring goes to _built_ring unchecked.
    """
    group = _as_group(g)
    ring = deligne_product(yang_lee(), pointed(group))
    labels = tuple(f"{s}[{group.element_name(a)}]" for s in "dY" for a in range(group.order))
    return _built_ring(ring.n, ring.dual, labels)


def generalized_ty(u, g, q) -> FusionRing:
    """The near-group ring of a grading group U, invertibles G and quotient map q: G -> U.

    q lists q(a) for each a in G. Data that is not a homomorphism with a
    kernel of two elements raises GroupError; everything else follows. The
    kernel of a homomorphism is a normal subgroup, so a kernel of two
    elements is {e, delta} with delta of order 2, and delta is central, as
    each conjugate of delta lies in the kernel and is not e. The image
    U0 = set(q) is a subgroup isomorphic to G/{e, delta}, of |G|/2 = |U|/2
    elements, so of index 2. Data that passes these checks always gives a
    fusion ring, so it goes to _built_ring unchecked: n is 0/1 of shape
    r x r x r, and the duals read off it are the permutation below, an
    involution. Write U1 for the coset U - U0, X_x for x in U1, and
    deg a = q(a), deg X_x = x. The rules are a*b = ab, a*X_x = X_{q(a)x},
    X_x*a = X_{x q(a)} and X_x*X_y = the sum of the two a with q(a) = xy
    (xy lies in U0 as U0 has index 2; the fibre is a coset of
    ker q = {e, delta}).
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
    u, g, q = _as_group(u), _as_group(g), tuple(q)
    m = g.order
    if u.order != m:
        raise GroupError("grading group and invertibles must have equal orders")
    if len(q) != m or not all(_is_integer(x) and 0 <= x < m for x in q):
        raise GroupError("quotient map must assign a grading element to every invertible")
    for a in range(m):
        for b in range(m):
            if q[g.table[a][b]] != u.table[q[a]][q[b]]:
                raise GroupError("quotient map is not a homomorphism")
    if q.count(0) != 2:
        raise GroupError("quotient map kernel must have exactly two elements")

    n = _near_group_tensor(u, g, q)
    dual = n[:, :, 0].argmax(axis=1)  # the j with N_ij^e = 1
    labels = tuple(g.element_name(a) for a in range(m)) + \
        tuple(f"X[{x}]" for x in range(m) if x not in q)
    return _built_ring(n, dual, labels)


def _near_group_tensor(u: FiniteGroup, g: FiniteGroup, q: tuple[int, ...]) -> np.ndarray:
    """The structure constants of generalized_ty(u, g, q).

    G comes first, then X_x for x in U - set(q) in increasing order.
    """
    m, ut, qa = g.order, np.array(u.table), np.array(q)
    coset = np.flatnonzero(np.bincount(qa, minlength=u.order) == 0)
    xpos = np.zeros(u.order, dtype=np.intp)
    xpos[coset] = x = np.arange(m, m + len(coset))
    a = np.arange(m)
    n = np.zeros((m + len(coset),) * 3, dtype=np.int64)
    n[a[:, None], a, g.table] = 1                                 # a*b = ab
    n[a[:, None], x, xpos[ut[qa[:, None], coset]]] = 1            # a*X_x = X_{q(a)x}
    n[x[:, None], a, xpos[ut[coset[:, None], qa]]] = 1            # X_x*a = X_{x q(a)}
    n[m:, m:, :m] = ut[coset[:, None], coset][:, :, None] == qa   # X_x*X_y = q^-1(xy)
    return n


def _ring_sort_key(ring: FusionRing):
    # No dimensions or invertible counts needed: in one pointed-z2
    # enumeration the rank fixes them (near-group rings have rank 3|U|/2
    # and |U| invertibles, pointed ones rank 2|U| and 2|U|).
    return (ring.rank, ring.n.tobytes())


def _near_group_rings(u: FiniteGroup) -> list[FusionRing]:
    """One near-group ring per orbit of specs under Aut(U) x Aut(G).

    A spec over U is indexed by (G's index in groups_of_order, q), the
    arguments of generalized_ty; write ker q = {e, delta}. alpha in Aut(U)
    maps q to alpha.q, and beta in Aut(G) maps q to q.beta^-1. Both relabel
    the ring (X_x -> X_alpha(x), or a -> beta(a)), so the specs of one
    orbit give isomorphic rings. Conversely, take an isomorphism s between
    the rings of two specs over U:
    - s maps invertibles to invertibles (G, as X_x * X_{x^-1} = e + delta),
      so it gives beta in Aut(G) with the same index, because the groups of
      groups_of_order are pairwise non-isomorphic;
    - s preserves the universal grading: the adjoint subring is {e, delta},
      the components are the fibres of q and the singletons {X_x}, and the
      group is U, so s induces alpha in Aut(U);
    - s maps the fibre of q over w onto that of q' over alpha(w), so
      q' = alpha.q.beta^-1 lies in the orbit of q.
    So the orbits are the isomorphism classes. Each orbit keeps its least
    ring in _ring_sort_key order, the first built on ties, and only that
    ring is built. Rings of one orbit share their rank, so the key compares
    them by n.tobytes(), and ties on the head below are broken on those very
    bytes, built by _near_group_tensor as generalized_ty builds them. The
    head is the cells (a, X_x): they follow the G x G cells of row a, which
    are G's table for every spec, and come before the rows X_x. Each holds
    one 0/1 constituent, and a little-endian int64 0 or 1 compares as bytes
    as it does as a number, so the cell whose one comes first is the larger.
    The head, the tuple over a of the negated positions row[q(a)], thus
    orders as these cells do in n.tobytes(): each orbit takes its least
    head, and only the members that tie there build their tensors.
    The pointed rings of enumerate_extensions need no search either:
    central_extensions_by_z2 returns pairwise non-isomorphic groups, and
    their rings have rank 2|U| against 3|U|/2 here.
    """
    gs = gr.groups_of_order(u.order)
    alphas = gr.automorphism_generators(u)
    betas = [gr.automorphism_generators(g) for g in gs]
    specs: dict[tuple[int, tuple[int, ...]], int] = {}
    heads: list[tuple[tuple[int, ...], ...]] = []
    for u0 in gr.index2_subgroups(u):
        u0_group, embed = gr.subgroup_group(u, u0)
        coset = [x for x in range(u.order) if x not in set(u0)]
        xpos = {x: u.order + i for i, x in enumerate(coset)}
        # row[w] holds the negated positions of a*X_x, x in coset, for q(a) = w
        row = {w: tuple(-xpos[u.table[w][x]] for x in coset) for w in u0}
        for gi, g in enumerate(gs):
            for quot, proj in _central_quotients(g):
                for phi in gr.iter_isomorphisms(quot, u0_group):
                    qmap = tuple(embed[phi[proj[a]]] for a in range(g.order))
                    specs[(gi, qmap)] = len(heads)
                    heads.append(tuple(row[w] for w in qmap))
    spec_keys = list(specs)  # in build order: no spec is built twice

    def step(s: int) -> Iterable[int]:
        gi, q = spec_keys[s]
        for alpha in alphas:
            yield specs[(gi, tuple(alpha[x] for x in q))]
        for beta in betas[gi]:
            moved = [0] * len(q)
            for a, x in enumerate(q):
                moved[beta[a]] = x
            yield specs[(gi, tuple(moved))]

    rings = []
    for orbit in _orbits(range(len(heads)), step):
        head = min(heads[s] for s in orbit)
        tied = [spec_keys[s] for s in orbit if heads[s] == head]
        # orbits are sorted, so min keeps the first built on ties
        gi, q = tied[0] if len(tied) == 1 else \
            min(tied, key=lambda k: _near_group_tensor(u, gs[k[0]], k[1]).tobytes())
        rings.append(generalized_ty(u, gs[gi], q))
    return rings


@per_object_cache
def _central_quotients(g: FiniteGroup) -> list[tuple[FiniteGroup, tuple[int, ...]]]:
    """(G/{e, delta}, projection) for each central delta of order 2 in g."""
    return [gr.quotient_group(g, (0, delta)) for delta in gr.central_elements_of_order2(g)]


def enumerate_extensions(base: str, u) -> list[FusionRing]:
    """All rings extending the base with the given grading group, up to isomorphism.

    base "yang-lee" yields exactly one ring per group. base "pointed-z2"
    yields the near-group family (identity component of the universal
    grading equal to the base) plus the pointed extensions, which arise from
    central extensions of the grading group by Z2. No isomorphism search
    runs: see _near_group_rings for why none is needed.
    """
    group = _as_group(u)
    if group.order > gr._CATALOGUED_ORDER:
        raise ValueError("extension enumeration supports grading groups of order at most "
                         f"{gr._CATALOGUED_ORDER}")
    if base == "yang-lee":
        return [yl_extension(group)]
    if base != "pointed-z2":
        raise ValueError(f"unknown base {base!r}; expected 'pointed-z2' or 'yang-lee'")
    out = _near_group_rings(group) if group.order % 2 == 0 else []
    out.extend(pointed(ext) for ext in gr.central_extensions_by_z2(group))
    return sorted(out, key=_ring_sort_key)
