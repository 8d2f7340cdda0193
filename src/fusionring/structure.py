"""Structural features of a fusion ring: invertibles, gradings, subrings.

All functions assume an axiom-valid ring; feeding an invalid one either
raises StructuralError (when the inconsistency is detected) or produces
meaningless output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .groups import FiniteGroup
from .numerics import dimension_classes
from .ring import (FusionRing, StructuralError, Subring, closed_subsets, closure, make_subring,
                   per_object_cache, product_support)


@dataclass(frozen=True)
class Grading:
    """The universal grading: a group, plus which component each index sits in."""

    group: FiniteGroup
    component_of: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DimensionClass:
    dim: float
    members: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PairingReport:
    """Outcome of pairing the basis against a free order-2 invertible."""

    delta: int
    free: bool
    fixed_witness: int | None
    classes: tuple[DimensionClass, ...]


def _components(items: Iterable[int],
                edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Connected components of the items under the edges, sorted by smallest member."""
    parent = {x: x for x in items}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in edges:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    buckets: dict[int, list[int]] = {}
    for x in parent:
        buckets.setdefault(find(x), []).append(x)
    return tuple(sorted(tuple(sorted(b)) for b in buckets.values()))


@per_object_cache
def invertibles(ring: FusionRing) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Group formed by the invertible basis elements, plus its embedding."""
    members = [i for i in range(ring.rank) if ring.invertible[i]]
    pos = {g: a for a, g in enumerate(members)}
    table = []
    for g in members:
        row = []
        for h in members:
            prod = tuple(product_support(ring)[g][h].items())
            if len(prod) != 1 or prod[0][1] != 1 or prod[0][0] not in pos:
                raise StructuralError(
                    "product of invertibles is not a single invertible; invalid ring")
            row.append(pos[prod[0][0]])
        table.append(tuple(row))
    return FiniteGroup(len(members), tuple(table)), tuple(members)


def _adjoint_within(ring: FusionRing, members: Iterable[int]) -> Subring:
    """Closure of all constituents of i * dual(i) over the given members i."""
    seed: set[int] = set()
    for i in members:
        seed.update(ring.constituents(i, ring.dual[i]))
    return closure(ring, seed)


@per_object_cache
def adjoint_subring(ring: FusionRing) -> Subring:
    """Closure of all constituents of i * dual(i)."""
    return _adjoint_within(ring, range(ring.rank))


@per_object_cache
def universal_grading(ring: FusionRing) -> Grading:
    """Finest group grading: components are orbits under the adjoint action.

    Two indices land in one component when either appears in the product of
    an adjoint member with the other. The component products must then be
    single components forming a group; that is checked exhaustively and a
    StructuralError flags any inconsistency.
    """
    rank = ring.rank
    support = product_support(ring)
    ad = adjoint_subring(ring).members
    components = _components(range(rank), ((i, j) for a in ad for i in range(rank)
                                           for j in support[a][i]))
    comp_of = [0] * rank
    for cid, comp in enumerate(components):
        for i in comp:
            comp_of[i] = cid
    if components[0] != ad:
        raise StructuralError("identity component differs from the adjoint subring")

    k = len(components)
    table = [[-1] * k for _ in range(k)]
    for i in range(rank):
        for j in range(rank):
            ci, cj = comp_of[i], comp_of[j]
            for t in support[i][j]:
                ct = comp_of[t]
                if table[ci][cj] == -1:
                    table[ci][cj] = ct
                elif table[ci][cj] != ct:
                    raise StructuralError(
                        f"component product ({ci},{cj}) is not a single component")
    if any(entry == -1 for row in table for entry in row):
        raise StructuralError("some component product is empty")
    group = FiniteGroup(k, tuple(tuple(row) for row in table))
    for i in range(rank):
        if comp_of[ring.dual[i]] != group.inverse[comp_of[i]]:
            raise StructuralError("duality does not invert the grading")
    return Grading(group, tuple(comp_of), components)


def pointed_part(ring: FusionRing) -> Subring:
    return make_subring(ring, (i for i in range(ring.rank) if ring.invertible[i]))


def all_subrings(ring: FusionRing) -> list[Subring]:
    """Every closed subset, smallest first. Supports rank up to 24."""
    if ring.rank > 24:
        raise ValueError("subring enumeration supports rank at most 24")
    return [closure(ring, m)
            for m in closed_subsets(lambda seed: closure(ring, seed).members, ring.rank)]


def commutator(ring: FusionRing, sub: Subring) -> Subring:
    """Closure of the indices whose self-pairing lands inside the given subring."""
    if not ring.is_commutative():
        raise ValueError("commutator subrings are defined only for commutative rings")
    inside = set(sub.members)
    seed = [i for i in range(ring.rank)
            if set(ring.constituents(i, ring.dual[i])) <= inside]
    return closure(ring, seed)


def _action_image(ring: FusionRing, g: int, x: int) -> int:
    hits = tuple(product_support(ring)[g][x].items())
    if len(hits) != 1 or hits[0][1] != 1:
        raise StructuralError("invertible action is not a permutation; invalid ring")
    return hits[0][0]


def stabilizer(ring: FusionRing, x: int) -> tuple[int, ...]:
    """Invertibles g with g * x = x, as basis indices (always a subgroup)."""
    if not 0 <= x < ring.rank:
        raise StructuralError(f"basis index {x} out of range")
    _, emb = invertibles(ring)
    return tuple(g for g in emb if _action_image(ring, g, x) == x)


def is_transitive_on_noninvertibles(ring: FusionRing) -> tuple[bool, list[tuple[int, ...]]]:
    """Whether left multiplication by invertibles has one orbit of non-invertibles."""
    _, emb = invertibles(ring)
    noninv = [i for i in range(ring.rank) if not ring.invertible[i]]
    orbits = list(_components(noninv, ((x, _action_image(ring, g, x))
                                       for x in noninv for g in emb)))
    return len(orbits) <= 1, orbits


def even_rank_pairing(ring: FusionRing, delta: int) -> PairingReport:
    """Pair every dimension class against a free order-2 invertible delta.

    When delta fixes nothing, each class of equal-dimension indices splits
    into disjoint pairs {x, delta * x}, forcing even class sizes.
    """
    if not (0 < delta < ring.rank) or not ring.invertible[delta]:
        raise StructuralError("delta must be a nontrivial invertible index")
    if _action_image(ring, delta, delta) != 0:
        raise StructuralError("delta must have order 2")
    image = [_action_image(ring, delta, x) for x in range(ring.rank)]
    for x in range(ring.rank):
        if image[x] == x:
            return PairingReport(delta, False, x, ())
    # Each class holds delta * x along with x. Left multiplication by delta*
    # permutes the basis and N_ij^{delta k} = N_{(delta* i) j}^k, so rows k and
    # delta * k of the matrix M = sum_i n[i]^T behind fp_dimensions are equal.
    # d(delta * x) and d(x) thus differ by rounding only, far below DIM_TOL,
    # and any value sorted between them is closer still: no class boundary
    # falls between them.
    classes = []
    for dim, members in dimension_classes(ring):
        pairs = tuple(sorted((min(x, image[x]), max(x, image[x])) for x in members
                             if x <= image[x]))
        classes.append(DimensionClass(dim, tuple(members), pairs))
    return PairingReport(delta, True, None, tuple(classes))


def faithful_simples(ring: FusionRing) -> tuple[tuple[int, ...], bool]:
    """Indices whose closure is the whole ring, and whether the grading is cyclic."""
    whole = tuple(range(ring.rank))
    faithful = tuple(i for i in range(ring.rank)
                     if closure(ring, (i,)).members == whole)
    return faithful, universal_grading(ring).group.is_cyclic()


def nilpotency(ring: FusionRing) -> int | None:
    """Steps of the iterated adjoint chain down to the trivial subring, or None."""
    current = tuple(range(ring.rank))
    steps = 0
    while len(current) > 1:
        nxt = _adjoint_within(ring, current).members
        if nxt == current:
            return None
        current = nxt
        steps += 1
    return steps
