"""Finite groupoids, isocomma squares, and skeleton decompositions.

Every groupoid here is the action groupoid of a finite group Γ on its
objects: the morphism (x, γ): x -> γ·x has the id x·|Γ| + γ, composition
multiplies in Γ and inversion inverts in Γ.  Γ is a product of factor
groups kept as their own tables; the element (γ_1, ..., γ_m) has the
mixed-radix id (..(γ_1·|Γ_2| + γ_2)..)·|Γ_m| + γ_m, so no table of Γ
itself is built.

The isocomma groupoid (i/j) of two functors i: A -> C <- B : j has objects
(x, y, c) with c: i(x) -> j(y) in C, and is the action groupoid of
Γ_A × Γ_B acting by (γ, δ)·(x, y, c) = (γx, δy, j(δ) o c o i(γ)^-1).  For
subgroup inclusions H, K <= G its connected components (the orbits)
biject with the double cosets K\\G/H, and the vertex group (the
stabiliser) at the component of g is isomorphic to K n gHg^-1.

A functor is its object map and cocycle, F(γ at x) = (F(x), π(x, γ)).
Every check is exact and one law, naturality at the generators s of Γ
(`groups._unnatural`): the action is its case φ(γ) = (x -> γ·x), a functor's
endpoints φ = its object map, its cocycle law φ = π on the objects (x, γ)
with G((x, γ), s) = π(γ·x, s), a natural iso φ = its components.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .groups import FiniteGroup, InjectiveHom, Subgroup, _in_range, _unnatural

__all__ = [
    "FiniteGroupoid",
    "GroupoidFunctor",
    "NaturalIso",
    "IsocommaResult",
    "SkeletonComponent",
    "SkeletonDecomposition",
    "groupoid_from_group",
    "functor_from_hom",
    "isocomma",
    "skeletonize",
    "verify_isocomma_decomposition",
    "IsocommaReport",
    "find_isomorphism",
]


def _scalar_or_array(a):
    return int(a) if np.ndim(a) == 0 else a


class FiniteGroupoid:
    """The action groupoid of Γ = factors[0] × ... × factors[-1] on
    `n_objects` objects, where action[x, γ] = γ·x.

    compose(f, g) is "f after g" (g: a->b, f: b->c).  The morphism (x, γ)
    has the id x·|Γ| + γ; `identity_mor(x)` is (x, e).  compose and inverse
    take morphism ids or arrays of them.
    """

    def __init__(self, factors: Sequence[FiniteGroup], action: np.ndarray):
        self.factors = tuple(factors)
        self.order = math.prod(G.order for G in self.factors)
        self.action = np.asarray(action, dtype=np.int64)
        if self.action.ndim != 2 or self.action.shape[1] != self.order:
            raise ValueError("action table must be objects x |Γ|")
        self.n_objects = self.action.shape[0]
        self.n_morphisms = self.action.size
        self.mor_target = self.action.reshape(-1)
        ident = [G.identity for G in self.factors]
        self.identity = int(self._join(ident))
        # Γ's generators: each factor's, with the identity in the other factors
        self.generators = np.array([self._join(ident[:i] + [s] + ident[i + 1:])
                                    for i, G in enumerate(self.factors)
                                    for s in G.generators()], dtype=np.int64)
        self.gen_left = self._mul(self.generators, np.arange(self.order)[:, None])  # [γ, j]: s_j γ

    # ---- the group Γ, elementwise over arrays of element ids -------------

    def _digits(self, a) -> List[np.ndarray]:
        out = []
        for G in reversed(self.factors[1:]):  # leaves the leading digit, < |Γ_1|
            a, d = np.divmod(a, G.order)
            out.append(d)
        return [a] + out[::-1]

    def _join(self, digits) -> np.ndarray:
        out = np.int64(0)
        for G, d in zip(self.factors, digits):
            out = out * G.order + d
        return out

    def _mul(self, a, b) -> np.ndarray:
        return self._join([G.table[x, y] for G, x, y
                           in zip(self.factors, self._digits(a), self._digits(b))])

    def _inv(self, a) -> np.ndarray:
        return self._join([G.inverse[x] for G, x in zip(self.factors, self._digits(a))])

    # ---- morphisms ---------------------------------------------------------

    def source(self, f: int) -> int:
        return int(f) // self.order

    def target(self, f: int) -> int:
        return int(self.mor_target[f])

    def compose(self, f, g):
        f, g = np.asarray(f), np.asarray(g)
        if np.any(f // self.order != self.mor_target[g]):
            raise ValueError("morphisms are not composable")
        n = self.order
        return _scalar_or_array(g // n * n + self._mul(f % n, g % n))

    def inverse(self, f):
        f = np.asarray(f)
        return _scalar_or_array(self.mor_target[f] * self.order + self._inv(f % self.order))

    def identity_mor(self, obj):
        return obj * self.order + self.identity

    def hom(self, a: int, b: int) -> List[int]:
        """The morphisms a -> b, in increasing id order."""
        return [a * self.order + int(g) for g in np.flatnonzero(self.action[a] == b)]

    def verify(self) -> None:
        """Exact check that `action` is an action of Γ: entries name objects,
        the identity acts trivially and s·(γ·x) = (sγ)·x for every generator
        s and every (x, γ), column sγ being column s after column γ."""
        A, gens = self.action, self.generators
        if not _in_range(A, self.n_objects):
            raise ValueError("action entries out of range")
        if not np.array_equal(A[:, self.identity], np.arange(self.n_objects)):
            raise ValueError("the identity must act trivially")
        bad = _unnatural(A.T, self.gen_left, G=A[:, gens].T[None]).any(axis=0)
        if bad.any():
            raise ValueError(f"generator {gens[bad.argmax()]} does not act compatibly")


class GroupoidFunctor:
    """A functor F(γ at x) = (F(x), π(x, γ)) between action groupoids,
    validated on construction.  `pi` holds elements of the target's Γ: one
    row, the same at every object, or one row per object."""

    def __init__(self, source: FiniteGroupoid, target: FiniteGroupoid,
                 obj_map: Sequence[int], pi: Sequence[int]):
        self.source_gpd, self.target_gpd = source, target
        self.obj_map = np.asarray(obj_map, dtype=np.int64)
        self.pi = np.atleast_2d(np.asarray(pi, dtype=np.int64))
        self._validate()

    def obj(self, x: int) -> int:
        return int(self.obj_map[x])

    def cocycle(self, x, g):
        """π(x, γ), elementwise over arrays of objects and elements."""
        return self.pi[x % len(self.pi), g]

    def mor(self, f):
        x, g = np.divmod(f, self.source_gpd.order)
        return _scalar_or_array(self.obj_map[x] * self.target_gpd.order + self.cocycle(x, g))

    def _validate(self) -> None:
        """Exact, at the generators s of Γ: π(x, e) = e; F(s·x) = π(x, s)·F(x)
        at every object; π(x, sγ) = π(γx, s)·π(x, γ) on every row of π.  By
        induction on word lengths F(γ·x) = π(x, γ)·F(x), so every image has
        the right endpoints, and π(x, δγ) = π(γx, δ)·π(x, γ), so F respects
        every composite."""
        S, T = self.source_gpd, self.target_gpd
        Fo, pi, rows, gens = self.obj_map, self.pi, len(self.pi), S.generators
        if Fo.shape != (S.n_objects,) or pi.shape[1:] != (S.order,) or rows not in (1, S.n_objects):
            raise ValueError("functor maps have wrong shapes")
        if not (_in_range(Fo, T.n_objects) and _in_range(pi, T.order)):
            raise ValueError("functor maps out of range")
        if np.any(pi[:, S.identity] != T.identity):
            raise ValueError("functor breaks the identity")
        bad = np.flatnonzero(_unnatural(Fo, S.action[:, gens], G=pi[:, gens],
                                        mul=lambda g, y: T.action[y, g]).any(axis=1))
        if bad.size:
            raise ValueError(f"functor breaks endpoints at object {bad[0]}")
        # the objects (x, γ) = x·|Γ| + γ on the rows of π, s·(x, γ) = (x, sγ)
        act = (np.arange(rows)[:, None, None] * S.order + S.gen_left).reshape(pi.size, len(gens))
        nxt = (S.action[:rows] % rows).reshape(-1, 1)  # the row of γ·x: itself, or the one row
        if _unnatural(pi.reshape(-1), act, G=pi[nxt, gens], mul=T._mul).any():
            raise ValueError("functor breaks composition")


class NaturalIso:
    """An invertible natural transformation c: F => G between parallel
    functors, its components morphism ids of the target.  Squares paste and
    every morphism is a composite of generating ones (x, s), so naturality
    is c(s·x)·π_F(x, s) = π_G(x, s)·c(x) in the target's Γ at each (x, s)."""

    def __init__(self, F: GroupoidFunctor, G: GroupoidFunctor, components: Sequence[int]):
        if F.source_gpd is not G.source_gpd or F.target_gpd is not G.target_gpd:
            raise ValueError("functors are not parallel")
        self.F, self.G = F, G
        self.components = np.asarray(components, dtype=np.int64)
        S, T, c = F.source_gpd, F.target_gpd, self.components
        if c.shape != (S.n_objects,) or not _in_range(c, T.n_morphisms):
            raise ValueError("components must name one morphism per object")
        bad = np.flatnonzero((c // T.order != F.obj_map) | (T.mor_target[c] != G.obj_map))
        if bad.size:
            raise ValueError(f"component at object {bad[0]} has wrong endpoints")
        gens = S.generators
        bad = _unnatural(c % T.order, S.action[:, gens], F.pi[:, gens], G.pi[:, gens], T._mul)
        if bad.any():
            x, j = np.argwhere(bad)[0]
            raise ValueError(f"naturality square fails at morphism {x * S.order + gens[j]}")

    def component(self, x: int) -> int:
        return int(self.components[x])


def groupoid_from_group(G: FiniteGroup) -> FiniteGroupoid:
    """The one-object groupoid whose morphisms are the group elements: G
    acting on one point."""
    gpd = FiniteGroupoid([G], np.zeros((1, G.order), dtype=np.int64))
    gpd.verify()
    return gpd


def functor_from_hom(hom: InjectiveHom, target_gpd: Optional[FiniteGroupoid] = None,
                     source_gpd: Optional[FiniteGroupoid] = None) -> GroupoidFunctor:
    """The one-object-groupoid functor induced by a group homomorphism."""
    src = source_gpd if source_gpd is not None else groupoid_from_group(hom.source)
    tgt = target_gpd if target_gpd is not None else groupoid_from_group(hom.target)
    return GroupoidFunctor(src, tgt, [0], hom.map)


@dataclass
class IsocommaResult:
    """The isocomma groupoid (i/j) with its two projections and the canonical
    natural isomorphism gamma: i o p => j o q whose component at (x,y,g) is g."""

    groupoid: FiniteGroupoid
    p: GroupoidFunctor
    q: GroupoidFunctor
    gamma: NaturalIso
    objects: List[Tuple[int, int, int]]  # (x, y, g) triples


def isocomma(i: GroupoidFunctor, j: GroupoidFunctor) -> IsocommaResult:
    """The isocomma groupoid of i: A -> C <- B : j.

    Objects are triples (x, y, c) with c in C.hom(i(x), j(y)), ordered
    lexicographically.  It is the action groupoid of Γ_A × Γ_B, whose
    element (γ, δ) has the id γ·|Γ_B| + δ and sends (x, y, c) to
    (γx, δy, j(δ at y) o c o i(γ at x)^-1).
    """
    if i.target_gpd is not j.target_gpd:
        raise ValueError("the two functors must share their target groupoid")
    A, B, C = i.source_gpd, j.source_gpd, i.target_gpd
    objects = [(x, y, c) for x in range(A.n_objects) for y in range(B.n_objects)
               for c in C.hom(i.obj(x), j.obj(y))]
    ox, oy, oc = np.array(objects, dtype=np.int64).reshape(-1, 3).T
    ga, gb = np.arange(A.order), np.arange(B.order)
    # i(γ at x) = (i(x), phi) and j(δ at y) = (j(y), psi) in C, so the image
    # of c = (i(x), c_el) starts at i(γx) and has the element psi c_el phi^-1
    phi = i.cocycle(ox[:, None], ga)
    psi = j.cocycle(oy[:, None], gb)
    c_el = C._mul(psi[:, None, :], C._mul(oc[:, None, None] % C.order, C._inv(phi)[:, :, None]))
    xs, ys = A.action[ox][:, :, None], B.action[oy][:, None, :]
    # c starts at i(x), so its element keys it; a key naming no object looks
    # up len(objects), which verify rejects
    index = np.full(A.n_objects * B.n_objects * C.order, len(objects))
    index[(ox * B.n_objects + oy) * C.order + oc % C.order] = np.arange(len(objects))
    action = index[(xs * B.n_objects + ys) * C.order + c_el].reshape(len(objects), -1)
    gpd = FiniteGroupoid(A.factors + B.factors, action)
    gpd.verify()
    # (γ, δ) has the id γ·|Γ_B| + δ: p's cocycle is its γ digit, q's its δ digit
    p = GroupoidFunctor(gpd, A, ox, np.arange(gpd.order) // B.order)
    q = GroupoidFunctor(gpd, B, oy, np.arange(gpd.order) % B.order)
    gamma = NaturalIso(_compose_functors(i, p), _compose_functors(j, q), oc)
    return IsocommaResult(gpd, p, q, gamma, objects)


def _compose_functors(outer: GroupoidFunctor, inner: GroupoidFunctor) -> GroupoidFunctor:
    """π(x, γ) = π_outer(inner(x), π_inner(x, γ)), one row when both are."""
    S = inner.source_gpd
    x = np.arange(len(inner.pi) if len(outer.pi) == 1 else S.n_objects)[:, None]
    return GroupoidFunctor(S, outer.target_gpd, outer.obj_map[inner.obj_map],
                           outer.cocycle(inner.obj_map[x], inner.cocycle(x, np.arange(S.order))))


@dataclass
class SkeletonComponent:
    objects: List[int]
    representative: int
    aut_morphisms: List[int]          # the vertex group hom(rep, rep), identity first
    to_representative: Dict[int, int]  # object -> a morphism object -> rep


@dataclass
class SkeletonDecomposition:
    groupoid: FiniteGroupoid
    components: List[SkeletonComponent]


def skeletonize(gpd: FiniteGroupoid) -> SkeletonDecomposition:
    """One representative object per connected component (the orbit of its
    least object id), its vertex group (the stabiliser) as the morphisms
    rep -> rep, and a connecting morphism from every object of the
    component to the representative."""
    n = gpd.order
    seen = np.zeros(gpd.n_objects, dtype=bool)
    out: List[SkeletonComponent] = []
    for rep in range(gpd.n_objects):
        if seen[rep]:
            continue
        # first[k] is the least γ with γ·rep = objs[k]; (objs[k], γ^-1) leads back
        objs, first = np.unique(gpd.action[rep], return_index=True)
        seen[objs] = True
        to_rep = dict(zip(objs.tolist(), (objs * n + gpd._inv(first)).tolist()))
        stab = np.flatnonzero(gpd.action[rep] == rep)
        auts = np.concatenate(([gpd.identity], stab[stab != gpd.identity]))
        out.append(SkeletonComponent(objs.tolist(), rep, (rep * n + auts).tolist(), to_rep))
    return SkeletonDecomposition(gpd, out)


# ---------------------------------------------------------------------------
# group isomorphism search


def find_isomorphism(A: FiniteGroup, B: FiniteGroup) -> Optional[List[int]]:
    """An isomorphism A -> B as an element map, or None: images of A's
    generators, tried in lexicographic order among the elements of their
    orders, fix a map along a tree of words, which `InjectiveHom` checks."""
    ordA, ordB = A.element_orders(), B.element_orders()
    if A.order != B.order or sorted(ordA.tolist()) != sorted(ordB.tolist()):
        return None
    gens = A.generators()
    # BFS words over the generators: w = parent[w]·gens[via[w]]
    parent, via, order_found = {}, {}, [A.identity]
    for w in order_found:
        for gi, s in enumerate(gens):
            ws = A.mul(w, s)
            if ws != A.identity and ws not in parent:
                parent[ws], via[ws] = w, gi
                order_found.append(ws)
    if len(order_found) != A.order:
        raise RuntimeError("stored generators do not generate the group")
    for images in itertools.product(*(np.flatnonzero(ordB == ordA[g]).tolist() for g in gens)):
        phi = {A.identity: B.identity}
        for w in order_found[1:]:
            phi[w] = B.mul(phi[parent[w]], images[via[w]])
        try:
            return list(InjectiveHom(A, B, tuple(phi[a] for a in range(A.order))).map)
        except ValueError:
            continue
    return None


# ---------------------------------------------------------------------------
# isocomma vs double cosets


@dataclass
class IsocommaComponentCheck:
    coset_representative: int
    coset_size: int
    expected_group_order: int
    vertex_group_order: int
    isomorphic: bool


@dataclass
class IsocommaReport:
    group_order: int
    left_order: int
    right_order: int
    checks: List[IsocommaComponentCheck]
    counts_match: bool

    @property
    def ok(self) -> bool:
        return self.counts_match and all(c.isomorphic and
                                         c.expected_group_order == c.vertex_group_order
                                         for c in self.checks)


def verify_isocomma_decomposition(G: FiniteGroup, K: Subgroup, H: Subgroup) -> IsocommaReport:
    """Match the isocomma groupoid of the two inclusions against K\\G/H.

    Components must biject with double cosets KgH (same minimal
    representatives), and at the component of g, j o q's cocycle must map the
    vertex group injectively onto K n gHg^-1: its images sort to its elements.
    """
    C = groupoid_from_group(G)
    i = functor_from_hom(H.inclusion_hom(), target_gpd=C)
    j = functor_from_hom(K.inclusion_hom(), target_gpd=C)
    ic = isocomma(i, j)
    sk, jq = skeletonize(ic.groupoid), ic.gamma.G  # jq = j o q
    dc = G.double_cosets(K, H)
    sizes = dc.coset_sizes()

    checks: List[IsocommaComponentCheck] = []
    counts_match = len(sk.components) == len(dc.representatives)
    for comp in sk.components:
        g0 = ic.objects[comp.representative][2]
        cid = int(dc.assignment[g0])
        rep = dc.representatives[cid]
        counts_match = counts_match and (rep == g0) and (len(comp.objects) == sizes[cid])
        image = np.sort(jq.mor(comp.aut_morphisms))  # C has one object: ids are elements
        checks.append(IsocommaComponentCheck(
            coset_representative=rep,
            coset_size=sizes[cid],
            expected_group_order=dc.intersections[cid].order,
            vertex_group_order=len(comp.aut_morphisms),
            isomorphic=np.array_equal(image, dc.intersections[cid].elements),
        ))
    return IsocommaReport(G.order, K.order, H.order, checks, counts_match)
