"""Structural features of a fusion ring: invertibles, gradings, subrings.

Every function needs a ring that passes verify_axioms: past its argument checks it
raises StructuralError on any other, by ring._require_valid or closure or invertibles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .groups import FiniteGroup, _built_group
from .numerics import dimension_classes
from .ring import (FusionRing, StructuralError, Subring, _checked_int, _orbits, _require_valid,
                   closed_subsets, closure, make_subring, per_object_cache, product_support)


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


@per_object_cache
def invertibles(ring: FusionRing) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Group formed by the invertible basis elements, plus its embedding.

    On a valid ring (_require_valid) this is a group table with identity 0,
    so it goes to _built_group. No x*y is 0, as (x*y)*y' = x*(y*y') holds x
    (y' the dual). If g*g' = 1, x = (x*g)*g' sums the non-zero y*g' over the
    constituents y of x*g, so x*g is one basis element, once; so g'*g, which
    holds 1 (duality axiom), is 1, and g*x is one element. For invertible g
    and h, k = g*h has k' = h'*g' (reciprocity) and k*k' = g*(h*h')*g' = 1:
    the invertibles are closed under the associative product, inverses g'.
    """
    _require_valid(ring)
    members = tuple(i for i in range(ring.rank) if ring.invertible[i])
    pos = {g: a for a, g in enumerate(members)}
    table = tuple(tuple(pos[_action_image(ring, g, h)] for h in members) for g in members)
    return _built_group(len(members), table), members


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

    A is the adjoint subring, x' the dual of x (Gelaki & Nikshych, Nilpotent
    fusion categories, 2008, section 3; Etingof, Nikshych & Ostrik, On fusion
    categories, 2005, section 8). As A is closed, the walk C(i) from i over
    the a*i, a in A, is the set of j in some a*i; then i is in a'*j, so the
    C(i) partition the basis, and C(1) = A. On a valid ring (_require_valid,
    in adjoint_subring) the constituents u, v of one i*x share a component:
    x is in i'*u, so v is in (i*i')*u. For u in i*x, u*x' holds i, so all of
    it lies in C(i); by induction on a product of terms x*x' holding a, so
    does all of i*a. So i2*j2, for i2 in a*i and j2 in b*j, lies in
    a*(i*b)*j, in the component of i*j, not 0 as (i*j)*j' holds i. The table
    reads it off one constituent of rep(C)*rep(D): it associates, C(1) = 0
    is the identity and C(i') inverts C(i), so it goes to _built_group.
    """
    rank = ring.rank
    support = product_support(ring)
    ad = adjoint_subring(ring).members
    components = _orbits(range(rank), lambda i: (j for a in ad for j in support[a][i]))
    comp_of = [0] * rank
    for cid, comp in enumerate(components):
        for i in comp:
            comp_of[i] = cid
    reps = [comp[0] for comp in components]
    table = tuple(tuple(comp_of[next(iter(support[a][b]))] for b in reps) for a in reps)
    return Grading(_built_group(len(reps), table), tuple(comp_of), components)


def pointed_part(ring: FusionRing) -> Subring:
    return make_subring(ring, (i for i in range(ring.rank) if ring.invertible[i]))


def all_subrings(ring: FusionRing) -> list[Subring]:
    """Every closed subset, smallest first. Supports rank up to 24."""
    if ring.rank > 24:
        raise ValueError("subring enumeration supports rank at most 24")
    closed = closed_subsets(lambda seed: closure(ring, seed).members, ring.rank)
    return [Subring(m, all(ring.invertible[i] for i in m)) for m in closed]


def commutator(ring: FusionRing, sub: Subring) -> Subring:
    """Closure of the indices whose self-pairing lands inside the given subring."""
    if not ring.is_commutative():
        raise ValueError("commutator subrings are defined only for commutative rings")
    inside = set(sub.members)
    seed = [i for i in range(ring.rank)
            if set(ring.constituents(i, ring.dual[i])) <= inside]
    return closure(ring, seed)


def _action_image(ring: FusionRing, g: int, x: int) -> int:
    """g*x, one basis element for g invertible on a valid ring (see invertibles)."""
    return next(iter(product_support(ring)[g][x]))


def stabilizer(ring: FusionRing, x: int) -> tuple[int, ...]:
    """Invertibles g with g * x = x, as basis indices (always a subgroup)."""
    x = _checked_int(x, "basis index")
    if not 0 <= x < ring.rank:
        raise StructuralError(f"basis index {x} out of range")
    _, emb = invertibles(ring)
    return tuple(g for g in emb if _action_image(ring, g, x) == x)


def is_transitive_on_noninvertibles(ring: FusionRing) -> tuple[bool, list[tuple[int, ...]]]:
    """Whether left multiplication by invertibles has one orbit of non-invertibles."""
    _, emb = invertibles(ring)
    noninv = [i for i in range(ring.rank) if not ring.invertible[i]]
    orbits = list(_orbits(noninv, lambda x: (_action_image(ring, g, x) for g in emb)))
    return len(orbits) <= 1, orbits


def even_rank_pairing(ring: FusionRing, delta: int) -> PairingReport:
    """Pair every dimension class against a free order-2 invertible delta.

    When delta fixes nothing, each class of equal-dimension indices splits
    into disjoint pairs {x, delta * x}, forcing even class sizes.
    """
    _require_valid(ring)
    delta = _checked_int(delta, "delta")
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
