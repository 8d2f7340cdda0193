"""Fusion rings as integer structure-constant tensors over a fixed basis.

A ring of rank r stores its multiplicities in an r x r x r tensor n, where
n[i][j][k] counts how often basis element k appears in the product i * j.
Index 0 is always the unit and duality is a permutation of the basis.

Validation happens in two layers. Shape and typing problems (wrong tensor
dimensions, non-permutation duality, entries outside [0, 2**63)) raise
StructuralError at construction time. The ring axioms themselves (dual
involution, unit rows, duality pairing, reciprocity, associativity) are
checked once per ring: verify_axioms lists every violation, _require_valid raises.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from typing import Any, Callable, Iterable, Sequence, TypeVar

import numpy as np

AXIOM_DUAL = "dual-involution"
AXIOM_UNIT = "unit"
AXIOM_DUALITY = "duality"
AXIOM_FROBENIUS = "frobenius-reciprocity"
AXIOM_ASSOCIATIVITY = "associativity"

_ENTRY_LIMIT = 2 ** 63  # entries are stored as int64


class StructuralError(ValueError):
    """Malformed ring data: wrong shapes, bad dual permutation, entries outside [0, 2**63)."""


_T = TypeVar("_T")


def _is_integer(x) -> bool:
    # a bool indexes numpy arrays as a mask, and a float indexes nothing
    return type(x) is int or isinstance(x, np.integer)


def _checked_int(x, what: str, error: type[ValueError] = StructuralError) -> int:
    """x as an int, or error when _is_integer rejects it."""
    if not _is_integer(x):
        raise error(f"{what} is {x!r}, not an integer")
    return int(x)


def per_object_cache(fn: Callable[[Any], _T]) -> Callable[[Any], _T]:
    """Cache fn(obj) in obj.__dict__, the storage cached_property uses.

    The result lives exactly as long as the ring or group it describes;
    nothing global holds on to the object. Every caller gets the same
    result object, so callers must not mutate it.
    """
    key = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def cached(obj):
        store = obj.__dict__
        if key not in store:
            store[key] = fn(obj)
        return store[key]

    return cached


@dataclass(frozen=True, eq=False)
class FusionRing:
    """Immutable carrier for (rank, duality permutation, structure constants)."""

    rank: int
    dual: tuple[int, ...]
    n: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        r = _checked_int(self.rank, "rank")
        if r < 1:
            raise StructuralError("rank must be at least 1")
        arr = np.asarray(self.n)
        if arr.shape != (r, r, r):
            raise StructuralError(f"N tensor has shape {arr.shape}, expected {(r, r, r)}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise StructuralError("structure constants must be integers")
        if arr.size and arr.min() < 0:
            i, j, k = (int(x) for x in np.argwhere(arr < 0)[0])
            raise StructuralError(f"negative structure constant at ({i},{j},{k})")
        if arr.dtype.kind == "u" and arr.size and arr.max() >= _ENTRY_LIMIT:
            i, j, k = (int(x) for x in np.argwhere(arr >= _ENTRY_LIMIT)[0])
            raise StructuralError(f"structure constant at ({i},{j},{k}) exceeds the int64 range")
        dual = tuple(_checked_int(x, "duality entry") for x in self.dual)
        if len(dual) != r or sorted(dual) != list(range(r)):
            raise StructuralError("duality must be a permutation of the basis")
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != r:
                raise StructuralError("labels must name every basis element")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "rank", r)
        object.__setattr__(self, "dual", dual)
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "n", arr)

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)

    def constituents(self, i: int, j: int) -> tuple[int, ...]:
        return tuple(product_support(self)[i][j])

    @cached_property
    def invertible(self) -> tuple[bool, ...]:
        """invertible[i] is true when i * dual(i) is exactly the unit."""
        flags = []
        for i in range(self.rank):
            row = self.n[i, self.dual[i]]
            flags.append(row[0] == 1 and not row[1:].any())
        return tuple(flags)

    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.n, self.n.transpose(1, 0, 2)))

    def __repr__(self) -> str:
        return f"FusionRing(rank={self.rank})"


def _built_ring(n: np.ndarray, dual, labels) -> FusionRing:
    """A FusionRing on data its builder proved to pass the constructor's checks.

    The proof must give n as an r x r x r tensor of non-negative integers
    below 2**63, dual as a permutation of range(r) and r labels. None of
    the checks run; the fields are normalized as the constructor normalizes
    them. Only a builder whose docstring gives that proof may call this.
    """
    n = np.ascontiguousarray(n, dtype=np.int64)
    n.setflags(write=False)
    ring = object.__new__(FusionRing)
    ring.__dict__.update(rank=len(n), dual=tuple(int(x) for x in dual), n=n,
                         labels=tuple(str(x) for x in labels))
    return ring


@dataclass(frozen=True)
class RingElement:
    """Nonnegative integer combination of basis elements."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        cleaned = tuple(_checked_int(c, "coefficient") for c in self.coeffs)
        if any(c < 0 for c in cleaned):
            raise StructuralError("coefficients must be nonnegative")
        object.__setattr__(self, "coeffs", cleaned)


@dataclass(frozen=True)
class Subring:
    """A closed subset of the basis, tagged pointed when every member is invertible."""

    members: tuple[int, ...]
    pointed: bool

    @property
    def rank(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    at: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.axiom} at {self.at}"


def basis_element(ring: FusionRing, i: int) -> RingElement:
    i = _checked_int(i, "basis index")
    if not 0 <= i < ring.rank:
        raise StructuralError(f"basis index {i} out of range")
    coeffs = [0] * ring.rank
    coeffs[i] = 1
    return RingElement(tuple(coeffs))


def as_element(ring: FusionRing, x) -> RingElement:
    if isinstance(x, RingElement):
        if len(x.coeffs) != ring.rank:
            raise StructuralError("element length does not match ring rank")
        return x
    if isinstance(x, (int, np.integer)):
        return basis_element(ring, x)
    coeffs = tuple(x)
    if len(coeffs) != ring.rank:
        raise StructuralError("element length does not match ring rank")
    return RingElement(coeffs)


def multiply(ring: FusionRing, a, b) -> RingElement:
    """Product of two nonnegative elements, computed exactly over Python ints.

    Coefficients of 2**62 or more raise OverflowError, so every product
    still fits the int64 tensors the rest of the package works with.
    """
    va = np.array(as_element(ring, a).coeffs, dtype=object)
    vb = np.array(as_element(ring, b).coeffs, dtype=object)
    out = tuple(int(c) for c in np.einsum("i,j,ijk->k", va, vb, ring.n.astype(object)))
    if any(c >= 2 ** 62 for c in out):
        raise OverflowError("product coefficients exceed the machine integer range")
    return RingElement(out)


def verify_axioms(ring: FusionRing) -> list[AxiomViolation]:
    """Every axiom violation, in a fixed order.

    Families are checked in the order dual involution, unit, duality,
    reciprocity, associativity; within a family the offending index tuples
    come out lexicographically. An empty list means the ring is valid.
    """
    return list(_violations(ring))


def _require_valid(ring: FusionRing) -> None:
    """Raise StructuralError unless the ring passes verify_axioms: the one axiom gate."""
    violations = _violations(ring)
    if violations:
        head = "; ".join(str(v) for v in violations[:3])
        raise StructuralError(f"not a fusion ring ({len(violations)} axiom violation(s): {head})")


@per_object_cache
def _violations(ring: FusionRing) -> tuple[AxiomViolation, ...]:
    """verify_axioms' list as a tuple, held by per_object_cache."""
    r, n = ring.rank, ring.n
    d = np.array(ring.dual)
    eye = np.eye(r, dtype=np.int64)
    bad_dual = d[d] != np.arange(r)
    bad_dual[0] |= d[0] != 0
    # the (0, 0, k) come with the (0, j, k), so the (i, 0, k) start at i = 1
    out = (_listed(AXIOM_DUAL, bad_dual)
           + _listed(AXIOM_UNIT, (n[0] != eye)[None])
           + _listed(AXIOM_UNIT, (n[1:, 0] != eye[1:])[:, None], start=1)
           + _listed(AXIOM_DUALITY, (n[:, :, 0] != eye[d])[:, :, None]))
    mism = n != n[d].transpose(0, 2, 1)
    mism |= n != n[:, d, :].transpose(2, 1, 0)
    out += _listed(AXIOM_FROBENIUS, mism)

    # (i*j)*k against i*(j*k) as float matrix products, a block of left
    # factors i at a time so that memory stays near rank**3. Every sum is an
    # integer of at most bound = r * max(n)**2, and so is every partial sum,
    # whatever the summation order. Under 2**24 float32 holds each exactly,
    # under 2**53 float64 does. Above, the products run in float64 on n mod p
    # for primes p with r * p**2 < 2**53, whose product exceeds the bound: two
    # sums are equal when they agree modulo every such prime (Chinese
    # remainder theorem). The single modulus 0 stands for no reduction.
    top = int(n.max())
    bound = r * top * top
    primes = _residue_primes(r, bound) if bound >= 2 ** 53 else [0]
    dtype = np.float32 if bound < 2 ** 24 else np.float64
    residues = [(n % p if p else n).astype(dtype) for p in primes]
    step = max(1, 2 ** 16 // r ** 3)
    # With every other axiom in place, associativity of the left factors in
    # _generating_set proves it for all of them. Only when the full check
    # needs more than one block is that worth its cost; a failing generator
    # falls through to the full check, which lists every violation.
    if not out and step < r:
        gens = _generating_set(ring)
        if not any(_associators_differ(primes, residues, gens[t:t + step]).any()
                   for t in range(0, len(gens), step)):
            return ()
    for start in range(0, r, step):
        differ = _associators_differ(primes, residues, slice(start, start + step))
        out += _listed(AXIOM_ASSOCIATIVITY, differ, start)
    return tuple(out)


def _listed(axiom: str, mask: np.ndarray, start: int = 0) -> list[AxiomViolation]:
    """One violation per true entry of mask, in C order (lexicographic), first index + start.

    Flat indices, not argwhere: numpy's nonzero is far slower on an array of several axes.
    """
    first, *rest = np.unravel_index(np.flatnonzero(mask), mask.shape)
    return [AxiomViolation(axiom, at)
            for at in zip((first + start).tolist(), *(x.tolist() for x in rest))]


def _associators_differ(primes: list[int], residues: list[np.ndarray], rows) -> np.ndarray:
    """differ[a, j, k, l]: (i*j)*k and i*(j*k) differ in basis element l, i = rows[a].

    residues[t] is the tensor modulo primes[t] as floats (0: unreduced).
    """
    differ = None
    for p, a in zip(primes, residues):
        r = len(a)
        block = a[rows]
        left = (block @ a.reshape(r, r * r)).reshape(-1, r, r, r)
        right = (a.reshape(r * r, r) @ block).reshape(-1, r, r, r)
        if p:
            np.fmod(left, p, out=left)
            np.fmod(right, p, out=right)
        if differ is None:
            differ = left != right
        else:
            differ |= left != right
    return differ


def _generating_set(ring: FusionRing) -> list[int]:
    """Basis elements S whose products span the ring, when the unit axiom holds.

    Light's associativity test on the left nucleus L = {x : (x*y)*z = x*(y*z)
    for all y, z}. L is a subspace, and 1 is in L when n[0] is the identity.
    L is closed under products by the Teichmueller identity, which holds in
    every algebra for the associator (a, b, c) = (a*b)*c - a*(b*c):
    a*(b,c,d) + (a,b,c)*d = (a*b,c,d) - (a,b*c,d) + (a,b,c*d). For a, b in
    L every term but (a*b,c,d) vanishes. So once the products of S span
    Q^rank, checking the left factors in S proves the ring associative.

    The span starts at the unit and is closed under right multiplication by
    S, as reduced row echelon rows modulo the prime p of _span_prime. Every
    row is the reduction of an integer vector in the span over Q, so the
    rank modulo p is at most the rank over Q and full rank modulo p is a
    proof. While the span is short of full rank, the next generator is the
    smallest basis element y that is not a pivot column: e_y is not in the
    span, and 1*e_y = e_y is added with it. Every pick grows the span, so S
    always reaches full rank.
    """
    r, n = ring.rank, ring.n
    p = _span_prime(r)

    def mulmod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # exact in float64: entries are below p and r * p**2 < 2**53
        return (x.astype(np.float64) @ y.astype(np.float64)).astype(np.int64) % p

    basis = np.eye(1, r, dtype=np.int64)
    pivot_cols = [0]  # pivot_cols[t]: the pivot column of basis[t]
    gens: list[int] = []
    right: list[np.ndarray] = []  # right[t][i, k] = n[i, gens[t], k] mod p
    done = 1  # rows below done have their products by every generator added
    while len(basis) < r:
        if done == len(basis):
            y = min(set(range(r)).difference(pivot_cols))
            gens.append(y)
            right.append(n[:, y, :] % p)
            cand = mulmod(basis, right[-1])
        else:
            cand = np.concatenate([mulmod(basis[done:], m) for m in right])
        done = len(basis)
        cand = (cand - mulmod(cand[:, pivot_cols], basis)) % p
        # each nonzero candidate becomes a pivot row, and its pivot column is
        # cleared from every other row: the rows stay in reduced echelon form
        work = np.concatenate([basis, cand])
        for t in range(done, len(work)):
            row = work[t]
            nonzero = np.flatnonzero(row)
            if len(nonzero):
                c = int(nonzero[0])
                row = row * pow(int(row[c]), -1, p) % p
                work -= np.outer(work[:, c], row)
                work %= p
                work[t] = row
                pivot_cols.append(c)
        basis = work[work.any(axis=1)]
    return gens


@lru_cache(maxsize=None)
def _span_prime(r: int) -> int:
    """The largest prime p with r * p**2 < 2**53, found once per rank."""
    return _residue_primes(r, 1)[0]


def _residue_primes(r: int, bound: int) -> list[int]:
    """The largest primes p with r * p**2 < 2**53, until their product exceeds bound."""
    primes: list[int] = []
    product, p = 1, math.isqrt((2 ** 53 - 1) // r)
    while product <= bound:
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            primes.append(p)
            product *= p
        p -= 1
    return primes


@per_object_cache
def _nonzeros(ring: FusionRing) -> tuple[np.ndarray, ...]:
    """Arrays i, j, k and n[i,j,k] over the nonzero entries in C order; do not mutate."""
    flat = np.flatnonzero(ring.n)  # flat indices, as in _listed
    return (*np.unravel_index(flat, ring.n.shape), ring.n.ravel()[flat])


@per_object_cache
def product_support(ring: FusionRing) -> tuple[tuple[dict[int, int], ...], ...]:
    """The sparse product table: support[i][j] = {k: n[i,j,k]} over n[i,j,k] > 0.

    Keys come in increasing k. Held by per_object_cache; do not mutate.
    """
    r = ring.rank
    support = [[{} for _ in range(r)] for _ in range(r)]
    for i, j, k, m in zip(*(a.tolist() for a in _nonzeros(ring))):  # C order: k increases
        support[i][j][k] = m
    return tuple(tuple(row) for row in support)


def closure(ring: FusionRing, seed: Iterable[int]) -> Subring:
    """Smallest closed subset containing the unit and the seed.

    The ring must pass verify_axioms, or StructuralError is raised
    (_require_valid). The closure is then the walk from the
    unit by right multiplication with the seed and its duals: the set W of
    constituents of words in those generators. W holds the seed (1*g = g)
    and lies in every closed set holding it. It is closed under products:
    if a is a constituent of the word u and b of v, the entries are
    non-negative, so each constituent of a*b is one of u*v, which is a word
    by associativity. It is closed under duals: by reciprocity the dual of a
    constituent of g1*...*gk is one of the word dual(gk)*...*dual(g1).
    """
    _require_valid(ring)
    gens: set[int] = set()
    for i in seed:
        i = _checked_int(i, "seed index")
        if not 0 <= i < ring.rank:
            raise StructuralError(f"seed index {i} out of range")
        gens |= {i, ring.dual[i]}
    support = product_support(ring)

    def step(x: int) -> int:
        mask = 0
        for g in gens:
            for k in support[x][g]:
                mask |= 1 << k
        return mask

    mem = _bits(_walk(1, step))
    return Subring(mem, all(ring.invertible[i] for i in mem))


def is_closed_subset(ring: FusionRing, members: Iterable[int]) -> bool:
    mem = tuple(sorted({_checked_int(i, "member") for i in members}))
    return closure(ring, mem).members == mem


def make_subring(ring: FusionRing, members: Iterable[int]) -> Subring:
    mem = tuple(sorted({_checked_int(i, "member") for i in members}))
    sub = closure(ring, mem)
    if sub.members != mem:
        raise StructuralError(f"members {mem} do not form a closed subset")
    return sub


def _walk(start: int, step: Callable[[int], int]) -> int:
    """The mask of every point reachable from the points of the mask start.

    A mask holds the point x as the bit 1 << x, and step(x) is the mask of
    the points one move from x.
    """
    seen = todo = start
    while todo:
        low = todo & -todo
        new = step(low.bit_length() - 1) & ~seen
        seen |= new
        todo ^= low | new
    return seen


def _mask(points: Iterable[int]) -> int:
    mask = 0
    for x in points:
        mask |= 1 << int(x)  # int: a numpy integer would wrap at bit 63
    return mask


def _bits(mask: int) -> tuple[int, ...]:
    """The points of a mask, increasing."""
    points = []
    while mask:
        low = mask & -mask
        points.append(low.bit_length() - 1)
        mask ^= low
    return tuple(points)


def _orbits(items: Iterable[int],
            step: Callable[[int], Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The orbits of the items under the moves, sorted by smallest member.

    step(x) yields the points one move from x. Each orbit is the walk from
    an item not yet seen, so every move must be undone by moves: a group
    acting through generators (inverses are powers in a finite group) or a
    symmetric relation.
    """
    seen = 0
    orbits = []
    for x in items:
        if not seen >> x & 1:
            orbit = _walk(1 << x, lambda y: _mask(step(y)))
            seen |= orbit
            orbits.append(_bits(orbit))
    return tuple(sorted(orbits))


def closed_subsets(moves: Sequence[Sequence[int]], dual: Sequence[int]) -> list[tuple[int, ...]]:
    """Every closed subset of range(len(moves)), sorted by (size, members).

    moves[x][g] is the mask of the points one move by g from x: the
    constituents of x*g, or the group product. The closure of a seed is the
    walk from 0 over the moves by the seed and its duals (dual[g]), for
    subrings and subgroups alike. A closed set is the join of the
    single-element closures of its members, and joins are associative, so
    joining every set found so far with each single-element closure in turn
    finds every closed set. Each set keeps its rows, rows[x] = the moves
    from x by a seed that generates it; the join of f and b is then the walk
    from f | b over the OR of their rows.
    """
    found = {1: (0,) * len(moves)}  # the closure of no seed: {0}
    singles: dict[int, tuple[int, ...]] = {}
    for g, h in enumerate(dual):
        rows = tuple(row[g] | row[h] for row in moves)
        singles.setdefault(_walk(1, rows.__getitem__), rows)
    for b, b_rows in singles.items():
        for f, f_rows in list(found.items()):
            if not b & ~f:  # b lies in f, so the join is f
                continue
            rows = tuple(map(operator.or_, f_rows, b_rows))
            found.setdefault(_walk(f | b, rows.__getitem__), rows)
    return sorted(map(_bits, found), key=lambda s: (len(s), s))


# -------------------------------------------------------------- isomorphism

@per_object_cache
def colour_classes(ring: FusionRing) -> tuple[int, ...]:
    """An exact colour per basis element, equal across isomorphic rings.

    Colour refinement: the colours start from each element's integer index
    profile and are refined until the number of classes stops growing. Each
    round an element's new colour combines its old colour, its dual's colour
    and, for each of the three tensor slots it can occupy, the total
    multiplicity over every pair of colours in the other two slots.
    Colours are hashes of int tuples only, so they do not vary between
    processes. Any isomorphism maps each element to one of the same colour;
    a hash collision can only merge classes, never split them.
    """
    r, n = ring.rank, ring.n
    # seed, the index profile: invertible, self-dual, n[i,i,i] and, for each
    # slot, the (value, count) pairs of the r*r entries with i in that slot:
    # (0, r*r - nonzeros) when positive, then the runs of equal (index, value)
    # among the nonzeros sorted by (index, value)
    profiles = []
    *indices, values = _nonzeros(ring)
    for at in indices:
        order = np.lexsort((values, at))
        at, value = at[order], values[order]
        starts = np.ones(len(at), dtype=bool)  # first entry of each run
        starts[1:] = (at[1:] != at[:-1]) | (value[1:] != value[:-1])
        first = np.flatnonzero(starts)
        pairs = list(zip(value[first].tolist(), np.diff(first, append=len(at)).tolist()))
        bounds = np.searchsorted(at[first], np.arange(r + 1)).tolist()
        zeros = (r * r - np.bincount(at, minlength=r)).tolist()
        profiles.append([((0, z),) * (z > 0) + tuple(pairs[a:b])
                         for z, a, b in zip(zeros, bounds, bounds[1:])])
    colours = [hash((bool(ring.invertible[i]), ring.dual[i] == i, int(n[i, i, i]),
                     profiles[0][i], profiles[1][i], profiles[2][i]))
               for i in range(r)]
    # Every count below is a sum of non-negative entries, at most r*r*max(N).
    # Under 2**53 each partial sum is an exact float64 whatever the summation
    # order, so the BLAS products give the exact counts; above it, rounding
    # could depend on the order and split isomorphic rings, and int64 sums
    # could wrap past 2**63, so the counts are Python ints.
    exact = r * r * int(n.max()) < 2 ** 53
    m = n.astype(np.float64 if exact else object)
    count_type = np.int64 if exact else object
    slots = (m, m.transpose(1, 0, 2), m.transpose(2, 0, 1))
    while True:
        index = {c: a for a, c in enumerate(sorted(set(colours)))}
        onehot = np.zeros((r, len(index)), dtype=m.dtype)
        onehot[np.arange(r), [index[c] for c in colours]] = 1
        # counts[s][i][a * classes + b]: total multiplicity with i in slot s and
        # colours a, b in the other two slots
        counts = [(onehot.T @ (t @ onehot)).astype(count_type, copy=False).reshape(r, -1).tolist()
                  for t in slots]
        refined = [hash((colours[i], colours[ring.dual[i]],
                         tuple(counts[0][i]), tuple(counts[1][i]), tuple(counts[2][i])))
                   for i in range(r)]
        if len(set(refined)) <= len(index):
            return tuple(colours)
        colours = refined


@per_object_cache
def square_profiles(ring: FusionRing) -> tuple[int, ...]:
    """Per element i, the colours and multiplicities of i*i and of each x with i in x*x.

    Equal across isomorphic rings, like colour_classes, and finer than it on
    the diagonal n[x,x,k], which colour refinement only counts together with
    every other pair of the same colours: in Z2^3 x Z4 the one involution
    that is a square shares its colour with the other fourteen.
    find_isomorphism prunes with it and keeps colour classes as candidates.
    """
    c = colour_classes(ring)
    r = ring.rank
    i, j, k, m = _nonzeros(ring)
    diagonal = i == j  # the entries n[x,x,k]
    out: list[list[tuple[int, int]]] = [[] for _ in range(r)]
    roots: list[list[tuple[int, int]]] = [[] for _ in range(r)]
    for x, k, m in zip(*(a[diagonal].tolist() for a in (i, k, m))):
        out[x].append((c[k], m))
        roots[k].append((c[x], m))
    return tuple(hash((tuple(sorted(out[i])), tuple(sorted(roots[i])))) for i in range(r))


def find_isomorphism(r1: FusionRing, r2: FusionRing) -> tuple[int, ...] | None:
    """The least basis permutation s with n1[i,j,k] = n2[s(i),s(j),s(k)], or None.

    s fixes the unit and commutes with duality. Least compares maps by their
    images at order[0], order[1], ...: the non-unit colour classes of r1 by
    (size, smallest member), each class in increasing index. The search
    branches in that order and tries images in increasing index. Every prune
    below cuts only branches that hold no isomorphism, and every forced
    image is the only one an isomorphism can take, so the first complete
    map is the least.

    The unit is pinned to the unit and each element may only map to one of
    the same colour class (colour_classes); rings whose colour multisets
    differ are rejected before the backtracking search runs, and i -> p also
    needs equal square_profiles. Assigning i -> p checks only the products
    of i with the elements already assigned, on the sparse product tables
    (product_support), and propagates what the assignment forces:
    dual(i) -> dual(p), and for each unassigned constituent of a product
    a*b the sole unassigned constituent of its colour class in s(a)*s(b),
    if there is one. A trail undoes the forced images on backtrack. No
    float is read: every decision is on integer structure. On two rings
    with Frobenius reciprocity and an involutive dual, every complete map is
    an isomorphism (proof at the final comparison); on other tensors that
    comparison is what rejects the maps that are not.
    """
    if r1.rank != r2.rank:
        return None
    rank = r1.rank
    c1, c2 = colour_classes(r1), colour_classes(r2)
    q1, q2 = square_profiles(r1), square_profiles(r2)
    if sorted(c1) != sorted(c2) or sorted(q1) != sorted(q2):
        return None
    cands = [[p for p in range(rank) if c2[p] == c1[i]] for i in range(rank)]
    s1, s2 = product_support(r1), product_support(r2)
    sigma, inverse = [-1] * rank, [-1] * rank
    trail: list[int] = []  # assigned elements, in assignment order
    # Branch on the element with the fewest unbranched elements left in its
    # colour class, lowest index first, forced or not. The rule reads no
    # image, so its order is fixed: a class once picked has the smallest
    # count until used up, giving the non-unit classes by (size, smallest
    # member), each in increasing index.
    classes: dict[int, list[int]] = {}
    for i in range(1, rank):
        classes.setdefault(c1[i], []).append(i)
    order = [i for cls in sorted(classes.values(), key=lambda m: (len(m), m[0])) for i in cls]

    def agrees(a: int, b: int, forced: list[tuple[int, int]]) -> bool:
        # a*b against s(a)*s(b): the same number of constituents, and equal
        # multiplicities wherever the image of a constituent is fixed
        left, right = s1[a][b], s2[sigma[a]][sigma[b]]
        if len(left) != len(right):
            return False
        free = []
        for k, m in left.items():
            q = sigma[k]
            if q < 0:
                free.append(k)
            elif right.get(q) != m:
                return False
        if not free:  # the images of left, all distinct, fill right
            return True
        # an isomorphism extending sigma maps the free constituents of a*b
        # onto the rest of s(a)*s(b), colour to colour: each needs one there
        # of its colour, and takes it when that one is alone
        images = [q for q in right if inverse[q] < 0]
        if len(images) != len(free):
            return False
        for k in free:
            match = [q for q in images if c2[q] == c1[k]]
            if not match or (len(match) == 1 and right[match[0]] != left[k]):
                return False
            if len(match) == 1:
                forced.append((k, match[0]))
        return True

    def assign(i: int, p: int) -> bool:
        queue = [(i, p)]
        while queue:
            i, p = queue.pop()
            if sigma[i] == p:
                continue
            if sigma[i] >= 0 or inverse[p] >= 0 or c1[i] != c2[p] or q1[i] != q2[p]:
                return False
            sigma[i], inverse[p] = p, i
            trail.append(i)
            queue.append((r1.dual[i], r2.dual[p]))
            for j in trail:
                if not (agrees(i, j, queue) and agrees(j, i, queue)):
                    return False
        return True

    def undo(mark: int) -> None:
        for i in trail[mark:]:
            inverse[sigma[i]] = -1
            sigma[i] = -1
        del trail[mark:]

    def search(depth: int) -> bool:
        # A complete map commutes with duality: assign queues (dual(i),
        # dual(p)) with each i -> p and succeeds only on an empty queue. On
        # rings with reciprocity and an involutive dual the comparison cannot
        # fail. Take n1[a,b,k] and the last of a, b, b*, k to be assigned (b
        # and b* go in one assign call): if a or b, the pair (a, b) was
        # checked with k fixed; if k or b*, the pair (k, b*) with a fixed,
        # and n[k,b*,a] = n[a,b,k] on both rings. Each pair also has equal
        # constituent counts, which gives the zeros. On other tensors it is
        # the only guard (test_iso_final_comparison_guards_rings_without_reciprocity).
        if len(trail) == rank:
            perm = np.array(sigma)
            return np.array_equal(r1.n, r2.n[np.ix_(perm, perm, perm)])
        i = order[depth]
        if sigma[i] >= 0:
            return search(depth + 1)
        for p in cands[i]:
            if inverse[p] >= 0:
                continue
            mark = len(trail)
            if assign(i, p) and search(depth + 1):
                return True
            undo(mark)
        return False

    if not (assign(0, 0) and search(0)):
        return None
    return tuple(sigma)
