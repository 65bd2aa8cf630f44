"""Finite groupoids, isocomma squares, and skeleton decompositions.

The isocomma groupoid (i/j) of two functors i: A -> C <- B : j has objects
(x, y, g) with g: i(x) -> j(y) in C, and morphisms (h, k): (x,y,g) -> (x',y',g')
those pairs with j(k) o g = g' o i(h).  For subgroup inclusions H, K <= G its
connected components biject with the double cosets K\\G/H and the vertex
group at the component of g is isomorphic to K n gHg^-1.

Structural checks (unit laws, inverses, associativity, functoriality) run
exhaustively while the number of composable tuples stays under a fixed
budget, and on a deterministic seeded sample beyond it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .groups import FiniteGroup, InjectiveHom, Subgroup

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

ASSOC_BUDGET = 20_000
PAIR_BUDGET = 20_000
SAMPLE_SIZE = 2_000


class FiniteGroupoid:
    """A finite groupoid with explicit morphism lists and a composition rule.

    compose(f, g) is "f after g" (g: a->b, f: b->c).  Morphisms are integer
    ids; `identities[x]` is the identity at object x.
    """

    def __init__(
        self,
        n_objects: int,
        mor_source: Sequence[int],
        mor_target: Sequence[int],
        identities: Sequence[int],
        compose_fn: Callable[[int, int], int],
        inverse_fn: Callable[[int], int],
    ):
        self.n_objects = n_objects
        self.mor_source = np.asarray(mor_source, dtype=np.int64)
        self.mor_target = np.asarray(mor_target, dtype=np.int64)
        self.identities = list(identities)
        self._compose = compose_fn
        self._inverse = inverse_fn
        self.n_morphisms = len(self.mor_source)
        self._hom_index: Optional[Dict[Tuple[int, int], List[int]]] = None
        self._by_source: Optional[List[List[int]]] = None
        self._by_target: Optional[List[List[int]]] = None

    def source(self, f: int) -> int:
        return int(self.mor_source[f])

    def target(self, f: int) -> int:
        return int(self.mor_target[f])

    def compose(self, f: int, g: int) -> int:
        if self.source(f) != self.target(g):
            raise ValueError("morphisms are not composable")
        return self._compose(f, g)

    def inverse(self, f: int) -> int:
        return self._inverse(f)

    def identity_mor(self, obj: int) -> int:
        return self.identities[obj]

    def _index(self) -> None:
        if self._hom_index is None:
            hom: Dict[Tuple[int, int], List[int]] = {}
            by_s: List[List[int]] = [[] for _ in range(self.n_objects)]
            by_t: List[List[int]] = [[] for _ in range(self.n_objects)]
            for f in range(self.n_morphisms):
                s, t = self.source(f), self.target(f)
                hom.setdefault((s, t), []).append(f)
                by_s[s].append(f)
                by_t[t].append(f)
            self._hom_index = hom
            self._by_source = by_s
            self._by_target = by_t

    def hom(self, a: int, b: int) -> List[int]:
        self._index()
        assert self._hom_index is not None
        return list(self._hom_index.get((a, b), []))

    def morphisms_from(self, a: int) -> List[int]:
        self._index()
        assert self._by_source is not None
        return self._by_source[a]

    def morphisms_into(self, b: int) -> List[int]:
        self._index()
        assert self._by_target is not None
        return self._by_target[b]

    def components(self) -> List[List[int]]:
        """Connected components as sorted object lists, ordered by least object."""
        parent = list(range(self.n_objects))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for f in range(self.n_morphisms):
            a, b = find(self.source(f)), find(self.target(f))
            if a != b:
                parent[max(a, b)] = min(a, b)
        buckets: Dict[int, List[int]] = {}
        for x in range(self.n_objects):
            buckets.setdefault(find(x), []).append(x)
        return [sorted(v) for _, v in sorted(buckets.items())]

    def verify(self) -> None:
        """Check unit laws, inverses and associativity (budgeted as documented)."""
        for x in range(self.n_objects):
            e = self.identities[x]
            if self.source(e) != x or self.target(e) != x:
                raise ValueError(f"identity of object {x} has wrong endpoints")
        for f in range(self.n_morphisms):
            s, t = self.source(f), self.target(f)
            if self.compose(f, self.identities[s]) != f or self.compose(self.identities[t], f) != f:
                raise ValueError(f"unit law fails at morphism {f}")
            g = self.inverse(f)
            if self.source(g) != t or self.target(g) != s:
                raise ValueError(f"inverse of morphism {f} has wrong endpoints")
            if self.compose(f, g) != self.identities[t] or self.compose(g, f) != self.identities[s]:
                raise ValueError(f"inverse law fails at morphism {f}")
        self._index()
        assert self._by_source is not None and self._by_target is not None
        total = sum(len(self._by_target[self.source(g)]) * len(self._by_source[self.target(g)])
                    for g in range(self.n_morphisms))
        if total <= ASSOC_BUDGET:
            for g in range(self.n_morphisms):
                lhs_pool = self._by_target[self.source(g)]
                rhs_pool = self._by_source[self.target(g)]
                for h in lhs_pool:
                    gh = self.compose(g, h)
                    for f in rhs_pool:
                        if self.compose(f, gh) != self.compose(self.compose(f, g), h):
                            raise ValueError("associativity fails")
        else:
            rng = np.random.default_rng(0)
            for _ in range(SAMPLE_SIZE):
                g = int(rng.integers(self.n_morphisms))
                hs = self._by_target[self.source(g)]
                fs = self._by_source[self.target(g)]
                h = hs[int(rng.integers(len(hs)))]
                f = fs[int(rng.integers(len(fs)))]
                if self.compose(f, self.compose(g, h)) != self.compose(self.compose(f, g), h):
                    raise ValueError("associativity fails")


class GroupoidFunctor:
    """A functor between finite groupoids, validated on construction.

    `_checked=True` skips validation; it is used internally only for
    composites of two already-validated functors (closed under composition,
    so nothing is lost).
    """

    def __init__(self, source: FiniteGroupoid, target: FiniteGroupoid,
                 obj_map: Sequence[int], mor_map: Sequence[int],
                 _checked: bool = False):
        self.source_gpd = source
        self.target_gpd = target
        self.obj_map = list(obj_map)
        self.mor_map = list(mor_map)
        if not _checked:
            self._validate()

    def obj(self, x: int) -> int:
        return self.obj_map[x]

    def mor(self, f: int) -> int:
        return self.mor_map[f]

    def _validate(self) -> None:
        S, T = self.source_gpd, self.target_gpd
        if len(self.obj_map) != S.n_objects or len(self.mor_map) != S.n_morphisms:
            raise ValueError("functor maps have wrong lengths")
        for f in range(S.n_morphisms):
            Ff = self.mor_map[f]
            if (T.source(Ff) != self.obj_map[S.source(f)]
                    or T.target(Ff) != self.obj_map[S.target(f)]):
                raise ValueError(f"functor breaks endpoints at morphism {f}")
        for x in range(S.n_objects):
            if self.mor_map[S.identity_mor(x)] != T.identity_mor(self.obj_map[x]):
                raise ValueError(f"functor breaks the identity at object {x}")
        total = sum(len(S.morphisms_from(S.target(g))) for g in range(S.n_morphisms))
        if total <= PAIR_BUDGET:
            for g in range(S.n_morphisms):
                for f in S.morphisms_from(S.target(g)):
                    if self.mor_map[S.compose(f, g)] != T.compose(self.mor_map[f], self.mor_map[g]):
                        raise ValueError("functor breaks composition")
        else:
            rng = np.random.default_rng(0)
            for _ in range(SAMPLE_SIZE):
                g = int(rng.integers(S.n_morphisms))
                pool = S.morphisms_from(S.target(g))
                f = pool[int(rng.integers(len(pool)))]
                if self.mor_map[S.compose(f, g)] != T.compose(self.mor_map[f], self.mor_map[g]):
                    raise ValueError("functor breaks composition")

    def is_faithful(self) -> bool:
        seen: Dict[Tuple[int, int, int], None] = {}
        S = self.source_gpd
        for f in range(S.n_morphisms):
            key = (S.source(f), S.target(f), self.mor_map[f])
            if key in seen:
                return False
            seen[key] = None
        return True


class NaturalIso:
    """An invertible natural transformation between parallel functors."""

    def __init__(self, F: GroupoidFunctor, G: GroupoidFunctor, components: Sequence[int]):
        if F.source_gpd is not G.source_gpd or F.target_gpd is not G.target_gpd:
            raise ValueError("functors are not parallel")
        self.F = F
        self.G = G
        self.components = list(components)
        S, T = F.source_gpd, F.target_gpd
        for x in range(S.n_objects):
            c = self.components[x]
            if T.source(c) != F.obj(x) or T.target(c) != G.obj(x):
                raise ValueError(f"component at object {x} has wrong endpoints")
        for f in range(S.n_morphisms):
            a, b = S.source(f), S.target(f)
            lhs = T.compose(self.components[b], F.mor(f))
            rhs = T.compose(G.mor(f), self.components[a])
            if lhs != rhs:
                raise ValueError(f"naturality square fails at morphism {f}")

    def component(self, x: int) -> int:
        return self.components[x]


def groupoid_from_group(G: FiniteGroup) -> FiniteGroupoid:
    """The one-object groupoid whose morphisms are the group elements."""
    n = G.order
    gpd = FiniteGroupoid(
        1,
        [0] * n,
        [0] * n,
        [G.identity],
        lambda f, g: int(G.table[f, g]),
        lambda f: int(G.inverse[f]),
    )
    gpd.verify()
    return gpd


def functor_from_hom(hom: InjectiveHom, target_gpd: Optional[FiniteGroupoid] = None,
                     source_gpd: Optional[FiniteGroupoid] = None) -> GroupoidFunctor:
    """The one-object-groupoid functor induced by a group homomorphism."""
    src = source_gpd if source_gpd is not None else groupoid_from_group(hom.source)
    tgt = target_gpd if target_gpd is not None else groupoid_from_group(hom.target)
    return GroupoidFunctor(src, tgt, [0], list(hom.map))


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

    Objects are triples (x, y, g) with g in C.hom(i(x), j(y)), ordered
    lexicographically; a morphism (h, k) out of (x, y, g) exists for every
    h from x and k from y, landing at (x', y', j(k) o g o i(h)^-1).
    """
    if i.target_gpd is not j.target_gpd:
        raise ValueError("the two functors must share their target groupoid")
    A, B, C = i.source_gpd, j.source_gpd, i.target_gpd
    objects: List[Tuple[int, int, int]] = []
    obj_index: Dict[Tuple[int, int, int], int] = {}
    for x in range(A.n_objects):
        for y in range(B.n_objects):
            for g in sorted(C.hom(i.obj(x), j.obj(y))):
                obj_index[(x, y, g)] = len(objects)
                objects.append((x, y, g))

    # position of a morphism inside morphisms_from(its source), per groupoid,
    # so that morphism ids of (i/j) can be pure arithmetic:
    #   id = offset[o] + pos_A[h] * deg_B[o] + pos_B[k]
    def _from_pos(gpd: FiniteGroupoid) -> List[int]:
        pos = [0] * gpd.n_morphisms
        for x in range(gpd.n_objects):
            for idx, f in enumerate(gpd.morphisms_from(x)):
                pos[f] = idx
        return pos

    posA, posB = _from_pos(A), _from_pos(B)
    mor_src: List[int] = []
    mor_tgt: List[int] = []
    mor_h: List[int] = []
    mor_k: List[int] = []
    offset: List[int] = []
    deg_b: List[int] = []
    for o, (x, y, g) in enumerate(objects):
        offset.append(len(mor_src))
        from_y = B.morphisms_from(y)
        deg_b.append(len(from_y))
        for h in A.morphisms_from(x):
            gih = C.compose(g, C.inverse(i.mor(h)))
            xt = A.target(h)
            for k in from_y:
                g2 = C.compose(j.mor(k), gih)
                mor_src.append(o)
                mor_tgt.append(obj_index[(xt, B.target(k), g2)])
                mor_h.append(h)
                mor_k.append(k)

    def mor_id(o: int, h: int, k: int) -> int:
        return offset[o] + posA[h] * deg_b[o] + posB[k]

    identities = [mor_id(o, A.identity_mor(x), B.identity_mor(y))
                  for o, (x, y, _) in enumerate(objects)]

    def compose_fn(f2: int, f1: int) -> int:
        o1 = mor_src[f1]
        return mor_id(o1, A.compose(mor_h[f2], mor_h[f1]), B.compose(mor_k[f2], mor_k[f1]))

    def inverse_fn(f: int) -> int:
        return mor_id(mor_tgt[f], A.inverse(mor_h[f]), B.inverse(mor_k[f]))

    gpd = FiniteGroupoid(len(objects), mor_src, mor_tgt, identities, compose_fn, inverse_fn)
    gpd.verify()
    p = GroupoidFunctor(gpd, A, [x for x, _, _ in objects], mor_h)
    q = GroupoidFunctor(gpd, B, [y for _, y, _ in objects], mor_k)
    gamma = NaturalIso(
        _compose_functors(i, p),
        _compose_functors(j, q),
        [g for _, _, g in objects],
    )
    return IsocommaResult(gpd, p, q, gamma, objects)


def _compose_functors(outer: GroupoidFunctor, inner: GroupoidFunctor) -> GroupoidFunctor:
    return GroupoidFunctor(
        inner.source_gpd,
        outer.target_gpd,
        [outer.obj(x) for x in inner.obj_map],
        [outer.mor(f) for f in inner.mor_map],
        _checked=True,
    )


@dataclass
class SkeletonComponent:
    objects: List[int]
    representative: int
    vertex_group: FiniteGroup
    aut_morphisms: List[int]          # hom(rep, rep), identity first
    to_representative: Dict[int, int]  # object -> a morphism object -> rep


@dataclass
class SkeletonDecomposition:
    groupoid: FiniteGroupoid
    components: List[SkeletonComponent]


def skeletonize(gpd: FiniteGroupoid) -> SkeletonDecomposition:
    """One representative object per connected component (the least object id),
    its vertex group as a standalone FiniteGroup, and a connecting morphism
    from every object of the component to the representative."""
    comps = gpd.components()
    out: List[SkeletonComponent] = []
    for objs in comps:
        rep = objs[0]
        # BFS from rep: from_rep[o] is a morphism rep -> o
        from_rep: Dict[int, int] = {rep: gpd.identity_mor(rep)}
        queue = [rep]
        while queue:
            cur = queue.pop(0)
            for f in gpd.morphisms_from(cur):
                t = gpd.target(f)
                if t not in from_rep:
                    from_rep[t] = gpd.compose(f, from_rep[cur])
                    queue.append(t)
        if set(from_rep) != set(objs):
            raise RuntimeError("component traversal did not reach every object")
        to_rep = {o: gpd.inverse(m) for o, m in from_rep.items()}
        auts = gpd.hom(rep, rep)
        ident = gpd.identity_mor(rep)
        auts = [ident] + [a for a in sorted(auts) if a != ident]
        pos = {a: idx for idx, a in enumerate(auts)}
        n = len(auts)
        table = np.empty((n, n), dtype=np.int32)
        for a in range(n):
            for b in range(n):
                table[a, b] = pos[gpd.compose(auts[a], auts[b])]
        grp = FiniteGroup(table, 0, _skip_checks=n > 256)
        out.append(SkeletonComponent(objs, rep, grp, auts, to_rep))
    return SkeletonDecomposition(gpd, out)


# ---------------------------------------------------------------------------
# group isomorphism search


def find_isomorphism(A: FiniteGroup, B: FiniteGroup) -> Optional[List[int]]:
    """An isomorphism A -> B as an element map, or None.

    Backtracks over images of a small generating set of A, pruning by
    element order, and verifies the full multiplication table vectorized.
    """
    if A.order != B.order:
        return None
    ordA, ordB = A.element_orders(), B.element_orders()
    if sorted(ordA.tolist()) != sorted(ordB.tolist()):
        return None
    gens = A.generators()
    if not gens:  # trivial group
        return [B.identity]
    # BFS words over the generators: phi is determined by the gen images
    parent = np.full(A.order, -1, dtype=np.int64)
    via = np.full(A.order, -1, dtype=np.int64)
    order_found = [A.identity]
    seen = {A.identity}
    head = 0
    while head < len(order_found):
        w = order_found[head]
        head += 1
        for gi, s in enumerate(gens):
            ws = A.mul(w, s)
            if ws not in seen:
                seen.add(ws)
                parent[ws] = w
                via[ws] = gi
                order_found.append(ws)
    if len(order_found) != A.order:
        raise RuntimeError("stored generators do not generate the group")

    tableB = B.table
    candidates = [[b for b in range(B.order) if ordB[b] == ordA[g]] for g in gens]

    def build(images: List[int]) -> Optional[np.ndarray]:
        phi = np.full(A.order, -1, dtype=np.int64)
        phi[A.identity] = B.identity
        for w in order_found[1:]:
            phi[w] = tableB[phi[parent[w]], images[via[w]]]
        if len(set(phi.tolist())) != A.order:
            return None
        if np.array_equal(phi[A.table], tableB[np.ix_(phi, phi)]):
            return phi
        return None

    stack: List[List[int]] = [[]]
    while stack:
        partial = stack.pop()
        if len(partial) == len(gens):
            phi = build(partial)
            if phi is not None:
                return [int(x) for x in phi]
            continue
        for c in reversed(candidates[len(partial)]):
            stack.append(partial + [c])
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


_AMBIENT_CACHE: "weakref.WeakKeyDictionary[FiniteGroup, FiniteGroupoid]" = None  # type: ignore[assignment]


def _ambient_groupoid(G: FiniteGroup) -> FiniteGroupoid:
    global _AMBIENT_CACHE
    if _AMBIENT_CACHE is None:
        _AMBIENT_CACHE = weakref.WeakKeyDictionary()
    gpd = _AMBIENT_CACHE.get(G)
    if gpd is None:
        gpd = groupoid_from_group(G)
        _AMBIENT_CACHE[G] = gpd
    return gpd


def verify_isocomma_decomposition(G: FiniteGroup, K: Subgroup, H: Subgroup) -> IsocommaReport:
    """Match the isocomma groupoid of the two inclusions against K\\G/H.

    Components must biject with double cosets KgH (same minimal
    representatives), and the vertex group at the component of g must be
    isomorphic to K n gHg^-1.
    """
    C = _ambient_groupoid(G)
    i = functor_from_hom(H.inclusion_hom(), target_gpd=C)
    j = functor_from_hom(K.inclusion_hom(), target_gpd=C)
    ic = isocomma(i, j)
    sk = skeletonize(ic.groupoid)
    dc = G.double_cosets(K, H)
    sizes = dc.coset_sizes()

    checks: List[IsocommaComponentCheck] = []
    counts_match = len(sk.components) == len(dc.representatives)
    for comp in sk.components:
        g0 = ic.objects[comp.representative][2]
        cid = int(dc.assignment[g0])
        rep = dc.representatives[cid]
        counts_match = counts_match and (rep == g0) and (len(comp.objects) == sizes[cid])
        exp_grp, _ = K.intersection(H.conjugate_by(rep)).as_group()
        iso = find_isomorphism(comp.vertex_group, exp_grp)
        checks.append(IsocommaComponentCheck(
            coset_representative=rep,
            coset_size=sizes[cid],
            expected_group_order=exp_grp.order,
            vertex_group_order=comp.vertex_group.order,
            isomorphic=iso is not None,
        ))
    return IsocommaReport(G.order, K.order, H.order, checks, counts_match)
