"""Recognition of the extension families and the structural claims they satisfy.

classify() computes family membership flags from the ring alone. The two
families:

* near-group rings over a rank 2 pointed base: dimensions {1, sqrt(2)},
  half the basis invertible, products of non-invertibles landing in the
  pointed part;
* extensions of the Yang-Lee ring: dimensions {1, golden}, every grading
  component of rank 2.

verify_claims() re-checks, on the concrete ring, each structural statement
the families are supposed to satisfy, reporting verified / refuted /
inapplicable per claim. Everything here is decided at the level of the
based ring (structure constants only); the one claim that would need
associator data is always reported inapplicable. No flag or claim reads a
float: the dimensions enter only through the displayed type signature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import catalog, groups as gr, structure as st
from .numerics import TypeSignature, type_signature
from .ring import (FusionRing, Subring, _require_valid, carry_invariants, closure,
                   find_isomorphism, per_object_cache, product_support)

FLAG_ORDER = ("pointed", "yang-lee", "ising", "generalized-ty",
              "yl-extension", "rank2-pointed-extension")


@dataclass(frozen=True)
class Classification:
    pointed: bool
    yang_lee: bool
    ising: bool
    generalized_ty: bool
    yl_extension: bool
    rank2_pointed_extension: bool
    signature: TypeSignature
    evidence: dict = field(default_factory=dict)

    def flags(self) -> tuple[str, ...]:
        values = (self.pointed, self.yang_lee, self.ising, self.generalized_ty,
                  self.yl_extension, self.rank2_pointed_extension)
        return tuple(name for name, v in zip(FLAG_ORDER, values) if v)


@dataclass(frozen=True)
class IsingDetection:
    """The three equivalent detectors for an Ising subring."""

    subring: Subring | None
    closure_is_ising: bool
    rank1_component_at_involution: bool
    self_dual_noninvertible: bool


@dataclass(frozen=True)
class ClaimReport:
    claim: str
    status: str  # verified | refuted | inapplicable
    scope: str   # ring-level | categorical
    detail: dict = field(default_factory=dict)


def _noninvertible_products_pointed(ring: FusionRing) -> tuple[bool, tuple[int, ...] | None]:
    noninv = [i for i in range(ring.rank) if not ring.invertible[i]]
    for i in noninv:
        for j in noninv:
            for k in ring.constituents(i, j):
                if not ring.invertible[k]:
                    return False, (i, j, k)
    return True, None


def _is_yang_lee_pair(ring: FusionRing, unit: int, y: int) -> bool:
    return product_support(ring)[y][y] == {unit: 1, y: 1} and ring.dual[y] == y


def _has_dim_sqrt2(ring: FusionRing, x: int) -> bool:
    """FPdim(x) = sqrt(2), decided on the fusion rules: x·x* = 1 + g, g invertible.

    FPdim is a ring homomorphism, so FPdim(x)² = FPdim(x·x*) = Σ_k N_{x x*}^k
    FPdim(k). The unit occurs once in x·x*, and every basis element has
    FPdim ≥ 1, with equality exactly for the invertibles (Etingof, Gelaki,
    Nikshych & Ostrik, *Tensor Categories*, 2015, §3.3). So the sum is 2
    exactly when x·x* has multiplicity sum 2 and only invertible constituents.
    """
    product = product_support(ring)[x][ring.dual[x]]
    return sum(product.values()) == 2 and all(ring.invertible[k] for k in product)


def _onto_yl_target(ring: FusionRing, target: FusionRing,
                    names: list[int]) -> tuple[int, ...] | None:
    """find_isomorphism(ring, target), target carrying ring's invariants along psi.

    psi(x) = names[component of x] + |H|·[x not invertible], for the
    preconditions and targets of classify, whose docstring proves psi an
    isomorphism. The search still finds the least map, which need not be psi.
    """
    component_of, half = st.universal_grading(ring).component_of, ring.rank // 2
    carry_invariants(ring, target, [names[component_of[x]] + half * (not ring.invertible[x])
                                    for x in range(ring.rank)])
    return find_isomorphism(ring, target)


@per_object_cache
def classify(ring: FusionRing) -> Classification:
    """Family membership flags plus supporting evidence; StructuralError on an invalid ring.

    The yl-extension flag and its claims need 2|H| = rank, H the group of
    invertibles, and an adjoint subring {1, Y} with Y·Y = 1 + Y and Y* = Y.
    These force the ring to be yang_lee ⊠ pointed(H), by explicit maps:
    - For g in H, Y·g is one basis element, not invertible, as Y = (Y·g)·g*.
      Y·g = Y·h gives Y·k = Y for k = h·g*, so n[Y,k,Y] = n[Y,Y,k] = 1 by
      reciprocity and k = 1. So the basis is H and the |H| elements Y·g.
    - The component of g, the walk from g over products with {1, Y}, is
      {g, Y·g}, as Y·(Y·g) = g + Y·g: each component holds one invertible.
    - Y is central: g·Y·g* is one non-invertible basis element in the
      component of deg(g)·deg(g)^-1, the trivial one {1, Y}, so it is Y.
    - So g·h is the group product, g·(Y·h) = (Y·g)·h = Y·gh,
      (Y·g)·(Y·h) = gh + Y·gh and (Y·g)* = Y·g*: the rules of
      yang_lee ⊠ pointed(H), where 1⊠a sits at a and Y⊠a at |H| + a.
      psi2 maps each x in the component of emb[a] to a + |H|·[x not
      invertible], an isomorphism onto it (emb lists H in the ring).
    - The grading is multiplicative and each component holds one
      invertible, so g -> component_of[g] is an isomorphism from H onto the
      universal grading group Γ, and psi1(x) = component_of[x] +
      |H|·[x not invertible] is one onto yl_extension(Γ).
    So under the preconditions the search for canonical_map cannot fail,
    and the flag is decided by them on the valid ring. Each target gets the
    ring's colour classes and square profiles along its psi
    (_onto_yl_target), instead of computing them.
    """
    _require_valid(ring)
    sig = type_signature(ring)
    group = st.invertibles(ring)[0]
    grading = st.universal_grading(ring)
    adjoint = st.adjoint_subring(ring)

    pointed = all(ring.invertible)
    yang_lee = (ring.rank == 2 and not pointed
                and _is_yang_lee_pair(ring, 0, 1))
    generalized_ty = not pointed and _noninvertible_products_pointed(ring)[0]
    rank2_ext = not pointed and all(_has_dim_sqrt2(ring, i) for i in range(ring.rank)
                                    if not ring.invertible[i])
    # Rank 3 with dimensions {1, sqrt(2)} forces the Ising rules: X·X* = 1 + g
    # needs an invertible g ≠ 1, so the basis is {1, g, X}, whence g² = 1,
    # X* = X, gX = Xg = X and X·X = 1 + g.
    ising = ring.rank == 3 and rank2_ext

    yl_ext = False
    canonical_map = None
    # A map onto Yang-Lee ⊠ pointed(G) gives type (1,n; phi,n) by itself.
    if (2 * group.order == ring.rank
            and adjoint.rank == 2
            and _is_yang_lee_pair(ring, adjoint.members[0], adjoint.members[1])):
        canonical_map = _onto_yl_target(ring, catalog.yl_extension(grading.group),
                                        list(range(group.order)))
        yl_ext = canonical_map is not None

    evidence: dict = {
        "type": sig.text(),
        "invertibles_order": group.order,
        "invertibles_name": gr.identify_group(group),
        "grading_order": grading.group.order,
        "grading_name": gr.identify_group(grading.group),
        "adjoint_members": list(adjoint.members),
    }
    if yl_ext:
        evidence["canonical_map"] = list(canonical_map)
    if rank2_ext:
        det = find_ising_subring_unchecked(ring)
        evidence["ising_subring"] = list(det.subring.members) if det.subring else None
    return Classification(pointed, yang_lee, ising, generalized_ty, yl_ext,
                          rank2_ext, sig, evidence)


@per_object_cache
def find_ising_subring_unchecked(ring: FusionRing) -> IsingDetection:
    """The three Ising detectors, with no precondition check."""
    noninv = [i for i in range(ring.rank) if not ring.invertible[i]]
    self_dual = any(ring.dual[i] == i for i in noninv)

    grading = st.universal_grading(ring)
    rank1_at_involution = any(
        len(comp) == 1 and grading.group.element_orders[cid] == 2
        for cid, comp in enumerate(grading.components))

    # x·x* = 1 + g puts 1, g, x and x* in the closure of x; at rank 3 that
    # leaves {1, g, x} with x* = x, which is the Ising ring.
    found: Subring | None = None
    for i in noninv:
        sub = closure(ring, (i,))
        if sub.rank == 3 and _has_dim_sqrt2(ring, i):
            found = sub
            break
    return IsingDetection(found, found is not None, rank1_at_involution, self_dual)


def find_ising_subring(ring: FusionRing) -> IsingDetection:
    """Ising subring detection for rings with dimensions {1, sqrt(2)}.

    The cheap self-duality test, the grading test and the closure test agree
    on every such ring; the claim ising-detectors-agree reports that for
    each generalized Tambara-Yamagami ring.
    """
    if not classify(ring).rank2_pointed_extension:
        raise ValueError("ring does not have dimension set {1, sqrt(2)}")
    return find_ising_subring_unchecked(ring)


# ------------------------------------------------------------------ claims

def _claim_gty_products(ring):
    ok, bad = _noninvertible_products_pointed(ring)
    detail = {} if ok else {"counterexample": list(bad)}
    return ok, detail


def _claim_gty_type(ring):
    two_n = st.invertibles(ring)[0].order
    ok = 2 * (ring.rank - two_n) == two_n
    return ok, {"invertibles": two_n, "type": classify(ring).signature.text()}


def _claim_gty_adjoint(ring):
    # the adjoint subring is the grading's identity component (universal_grading)
    ad = st.adjoint_subring(ring)
    return ad.rank == 2 and ad.pointed, {"adjoint": list(ad.members)}


def _claim_gty_grading_order(ring):
    grading_order = st.universal_grading(ring).group.order
    ok = grading_order == st.invertibles(ring)[0].order
    return ok, {"grading_order": grading_order}


def _claim_gty_transitive(ring):
    transitive, orbits = st.is_transitive_on_noninvertibles(ring)
    return transitive, {"orbits": [list(o) for o in orbits]}


def _claim_gty_normal(ring):
    ad = st.adjoint_subring(ring)
    group, emb = st.invertibles(ring)
    delta = ad.members[1]
    return gr._is_normal(group, frozenset({0, emb.index(delta)})), {"delta": delta}


def _claim_gty_ising_subring(ring):
    det = find_ising_subring_unchecked(ring)
    ok = det.subring is not None
    return ok, {"subring": list(det.subring.members) if det.subring else None}


def _claim_gty_detectors(ring):
    det = find_ising_subring_unchecked(ring)
    flags = (det.closure_is_ising, det.rank1_component_at_involution,
             det.self_dual_noninvertible)
    return len(set(flags)) == 1, {"detectors": list(flags)}


def _claim_faithful_iff_cyclic(ring):
    faithful, cyclic = st.faithful_simples(ring)
    return (len(faithful) > 0) == cyclic, {"faithful": list(faithful), "cyclic": cyclic}


def _claim_ylext_type(ring):
    n = st.invertibles(ring)[0].order
    ok = ring.rank == 2 * n
    return ok, {"invertibles": n, "type": classify(ring).signature.text()}


def _claim_ylext_components(ring):
    components = st.universal_grading(ring).components
    for comp in components:
        if len(comp) != 2 or sum(ring.invertible[i] for i in comp) != 1:
            return False, {"component": list(comp)}
    return True, {"components": len(components)}


def _claim_ylext_adjoint(ring):
    ad = st.adjoint_subring(ring)
    ok = (ad.rank == 2 and not ad.pointed
          and _is_yang_lee_pair(ring, ad.members[0], ad.members[1]))
    return ok, {"adjoint": list(ad.members)}


def _claim_ylext_grading_group(ring):
    grading_group = st.universal_grading(ring).group
    ok = gr.are_isomorphic(grading_group, st.invertibles(ring)[0])
    return ok, {"grading_name": gr.identify_group(grading_group)}


def _claim_ylext_canonical(ring):
    # classify found this map when it set the yl-extension flag
    return True, {"map": list(classify(ring).evidence["canonical_map"])}


def _claim_ylext_subrings(ring):
    grading = st.universal_grading(ring)
    subs = [s for s in st.all_subrings(ring) if not s.pointed]
    supports = set()
    for s in subs:
        sup = frozenset(grading.component_of[i] for i in s.members)
        if gr.generated_subgroup(grading.group, sup) != sup:
            return False, {"subring": list(s.members)}
        supports.add(sup)
    n_groups = len(gr.subgroups(grading.group))
    ok = len(supports) == len(subs) == n_groups
    return ok, {"nonpointed_subrings": len(subs), "subgroups": n_groups}


def _claim_ylext_commutative(ring):
    abelian = st.invertibles(ring)[0].is_abelian()
    ok = ring.is_commutative() == abelian
    return ok, {"commutative": ring.is_commutative(), "abelian": abelian}


def _claim_ylext_splits(ring):
    group, emb = st.invertibles(ring)
    component_of = st.universal_grading(ring).component_of
    names = [0] * group.order  # the component of emb[a] -> a
    for a, g in enumerate(emb):
        names[component_of[g]] = a
    target = catalog.deligne_product(catalog.yang_lee(), catalog.pointed(group))
    perm = _onto_yl_target(ring, target, names)
    return perm is not None, {"map": list(perm) if perm else None}


def _gty(ring) -> bool:
    return classify(ring).rank2_pointed_extension


def _gty_odd(ring) -> bool:
    return _gty(ring) and st.invertibles(ring)[0].order % 4 == 2


def _gty_elem2(ring) -> bool:
    return _gty(ring) and st.universal_grading(ring).group.is_elementary_abelian_2()


def _ylext(ring) -> bool:
    return classify(ring).yl_extension


def _ylext_small(ring) -> bool:
    return _ylext(ring) and ring.rank <= st._SUBRING_RANK_LIMIT


_CLAIMS: tuple[tuple[str, str, object, object], ...] = (
    ("sqrt2-dims-force-pointed-products", "ring-level", _gty, _claim_gty_products),
    ("near-group-type", "ring-level", _gty, _claim_gty_type),
    ("near-group-adjoint-rank2", "ring-level", _gty, _claim_gty_adjoint),
    ("near-group-grading-order", "ring-level", _gty, _claim_gty_grading_order),
    ("invertibles-transitive-on-rest", "ring-level", _gty, _claim_gty_transitive),
    ("adjoint-z2-normal-in-invertibles", "ring-level", _gty, _claim_gty_normal),
    ("ising-subring-when-half-odd", "ring-level", _gty_odd, _claim_gty_ising_subring),
    ("ising-subring-when-elementary-2", "ring-level", _gty_elem2, _claim_gty_ising_subring),
    ("ising-detectors-agree", "ring-level", _gty, _claim_gty_detectors),
    ("faithful-simple-iff-cyclic-grading", "ring-level", _gty, _claim_faithful_iff_cyclic),
    ("golden-extension-type", "ring-level", _ylext, _claim_ylext_type),
    ("golden-extension-components-rank2", "ring-level", _ylext, _claim_ylext_components),
    ("golden-extension-adjoint", "ring-level", _ylext, _claim_ylext_adjoint),
    ("golden-extension-grading-group", "ring-level", _ylext, _claim_ylext_grading_group),
    ("golden-extension-canonical-rules", "ring-level", _ylext, _claim_ylext_canonical),
    ("nonpointed-subrings-match-subgroups", "ring-level", _ylext_small, _claim_ylext_subrings),
    ("commutative-iff-abelian-group", "ring-level", _ylext, _claim_ylext_commutative),
    ("golden-extension-splits-as-product", "ring-level", _ylext, _claim_ylext_splits),
    ("twisted-unit-component-forces-pointed", "categorical", None, None),
)


def verify_claims(ring: FusionRing) -> list[ClaimReport]:
    """Check every registered structural claim against the ring."""
    out: list[ClaimReport] = []
    for claim, scope, applicable, check in _CLAIMS:
        if check is None:
            out.append(ClaimReport(claim, "inapplicable", scope,
                                   {"note": "needs associator data absent from a fusion ring"}))
            continue
        if not applicable(ring):
            out.append(ClaimReport(claim, "inapplicable", scope))
            continue
        ok, detail = check(ring)
        out.append(ClaimReport(claim, "verified" if ok else "refuted", scope, detail))
    return out
