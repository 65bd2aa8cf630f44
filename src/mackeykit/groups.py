"""Finite groups as Cayley tables with a canonical element order.

Groups built from permutation generators get the BFS element order: breadth
first from the identity, expanding by right multiplication with the
generators in their input order, so the identity always has index 0.  Groups
can also be loaded from a raw multiplication table, in which case the
identity may sit anywhere; everything downstream works from stored indices
rather than assuming index 0.

All enumerative routines (subgroups, conjugacy classes, double cosets) are
exact and exhaustive, meant for desk-scale orders; closure is capped at
MACKEYKIT_MAX_ORDER (default 10080).

Subgroups are interned (one object per element set, compared by identity).
Questions about one subgroup conjugate it by every element at once;
questions about whole classes read the group's `SubgroupLattice` tables.
"""

from __future__ import annotations

import itertools
import operator
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "InjectiveHom",
    "DoubleCosetDecomposition",
    "SubgroupLattice",
    "GSet",
    "gset_from_subgroup",
    "gset_induce",
    "gset_restrict",
    "group_from_generators",
    "group_from_table",
    "perm_cycle_name",
    "max_order_cap",
]

DEFAULT_MAX_ORDER = 10080
_CHECK_ENTRIES = 1 << 12  # values of the naturality squares formed at once


def max_order_cap() -> int:
    return int(os.environ.get("MACKEYKIT_MAX_ORDER", DEFAULT_MAX_ORDER))


def _in_range(a: np.ndarray, n: int) -> bool:
    return a.size == 0 or (int(a.min()) >= 0 and int(a.max()) < n)


def _after(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """f o g for [object, generator] grids of maps over their last axis, f the
    same at every object: f[0, j, g[x, j, i]], one gather."""
    return np.take(f, g if f.shape[1] == 1 else g + f.shape[2] * np.arange(f.shape[1])[:, None])


def _unnatural(phi, act: np.ndarray, F=None, G=None, mul=None) -> np.ndarray:
    """Naturality at the generators, the one law of every action, hom, functor
    and natural transformation checked here (squares paste, so it then holds
    at every morphism): bad[x, j] is whether phi(s_j·x) o F(x, s_j) !=
    G(x, s_j) o phi(x), where act[x, j] = s_j·x.  F and G give a value per
    (x, j), with an object axis of length 1 if constant; None is the identity.
    `Mat` values compose by their product, ints by `mul` (default `_after`)."""
    maps = isinstance(phi, np.ndarray)
    mul = mul or (_after if maps else operator.matmul)
    step = max(1, _CHECK_ENTRIES // max(1, phi.size if maps else phi.num.size))
    bad = np.empty(act.shape, dtype=bool)
    for j in range(0, act.shape[1], step):
        at, J = act[:, j:j + step], slice(j, j + step)
        if F is None:
            lhs = phi[at]
        else:  # maps compose within the gather: phi(s·x)[F(x, s)]
            lhs = phi[at[..., None], F[:, J]] if mul is _after else mul(phi[at], F[:, J])
        rhs = phi[:, None] if G is None else mul(G[:, J], phi[:, None])
        differ = lhs != rhs if maps else ~lhs.eq(rhs)
        bad[:, J] = differ if differ.ndim == 2 else differ.any(axis=tuple(range(2, differ.ndim)))
    return bad


def _mask_key(mask: np.ndarray) -> int:
    """A membership mask as a Python int bitmask (bit x set iff x is in)."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _is_prime_power(k: int) -> bool:
    p = next((q for q in range(2, k + 1) if k % q == 0), None)
    while p is not None and k % p == 0:
        k //= p
    return p is not None and k == 1


def perm_cycle_name(perm: Sequence[int]) -> str:
    """Cycle notation, e.g. (0 1 2)(3 4); identity prints as 'e'."""
    seen = [False] * len(perm)
    parts = []
    for i in range(len(perm)):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "e"


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[a, b] is the index of the product a*b.  `perms` optionally holds
    the underlying permutations (one per element) when the group came from
    permutation generators.
    """

    def __init__(
        self,
        table: np.ndarray,
        identity: int,
        generators: Optional[List[int]] = None,
        perms: Optional[np.ndarray] = None,
        names: Optional[List[str]] = None,
        _skip_checks: bool = False,
    ):
        table = np.asarray(table, dtype=np.int32)
        n = table.shape[0]
        if table.shape != (n, n) or (names is not None and len(names) != n):
            raise ValueError("multiplication table must be square, with one name per element")
        self.table = table
        self.order = n
        self.identity = int(identity)
        self.perms = perms
        self.names = names
        self._gens = list(generators) if generators is not None else None
        if not _skip_checks:
            self._check_table()
        inv = np.empty(n, dtype=np.int32)
        rows, cols = np.nonzero(table == self.identity)
        inv[rows] = cols
        self.inverse = inv
        self._element_orders: Optional[np.ndarray] = None
        self._conj_classes: Optional[List[Tuple[int, ...]]] = None
        self._class_of: Optional[np.ndarray] = None
        self._interned: Dict[int, "Subgroup"] = {}
        self._lattice: Optional["SubgroupLattice"] = None

    # ---- validation ------------------------------------------------------

    def _check_table(self) -> None:
        n = self.order
        t = self.table
        if not _in_range(t, n):
            raise ValueError("table entries out of range")
        ar = np.arange(n, dtype=np.int32)
        sorted_rows = np.sort(t, axis=1)
        sorted_cols = np.sort(t, axis=0)
        if not (np.array_equal(sorted_rows, np.tile(ar, (n, 1))) and
                np.array_equal(sorted_cols.T, np.tile(ar, (n, 1)))):
            raise ValueError("table is not a Latin square")
        e = self.identity
        if not (np.array_equal(t[e], ar) and np.array_equal(t[:, e], ar)):
            raise ValueError(f"element {e} is not a two-sided identity")
        # Light's test: when every element is e·s_1·...·s_k for generators
        # s_i, R_ys = R_s o R_y for the right translations R_y: x -> xy and each
        # generator s gives (xy)z = x(yz) for every z, by induction on its length
        gens = self.generators()
        if self._closure(gens)[0] != (1 << n) - 1:
            raise ValueError("the generators do not reach every element")
        if _unnatural(t.T, t[:, gens], G=t[:, gens].T[None]).any():
            raise ValueError("multiplication table is not associative")

    # ---- element arithmetic ----------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return int(self.table[g, self.table[x, self.inverse[g]]])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        out = self.identity
        while k:
            out = self.mul(out, a)
            k -= 1
        return out

    def element_orders(self) -> np.ndarray:
        """out[a] is the order of a, from repeated gathers x -> x*a over the
        elements whose order is still unknown; read-only, as it is cached."""
        if self._element_orders is None:
            out = np.empty(self.order, dtype=np.int32)
            todo = np.arange(self.order)
            x, k = todo, 1
            while todo.size:
                done = x == self.identity
                out[todo[done]] = k
                todo, x = todo[~done], x[~done]
                x = self.table[x, todo]
                k += 1
            out.setflags(write=False)
            self._element_orders = out
        return self._element_orders

    def name(self, a: int) -> str:
        if self.names is not None:
            return self.names[a]
        if self.perms is not None:
            return perm_cycle_name(self.perms[a])
        return f"g{a}"

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    # ---- generators --------------------------------------------------------

    def generators(self) -> List[int]:
        """Stored generators, or a greedy small generating set: the least
        element not yet generated, until everything is.

        The set is built before the table is known to be a group, so each
        proper closure must be closed under products, as a subgroup is: in a
        table that is not associative the right words in the generators can
        miss a product of two of them.
        """
        if self._gens is None:
            gens: List[int] = []
            key, full = 1 << self.identity, (1 << self.order) - 1
            while key != full:
                gens.append((~key & (key + 1)).bit_length() - 1)
                key, elements = self._closure(gens)
                mask = np.zeros(self.order, dtype=bool)
                mask[elements] = True
                if key != full and not mask[self.table[np.ix_(elements, elements)]].all():
                    raise ValueError("the generators do not reach every product of the "
                                     "elements they reach")
            self._gens = gens
        return list(self._gens)

    def _closure(self, gens: Iterable[int]) -> Tuple[int, List[int]]:
        """The subgroup generated by gens, as an int bitmask (bit x set iff
        x is in it) and its elements in the order found: {e} closed under
        right multiplication by the generators, which in a finite group is
        the subgroup they generate."""
        cols = self.table[:, list(gens)].T.tolist()
        key, elements = 1 << self.identity, [self.identity]
        for x in elements:
            for col in cols:
                bit = 1 << col[x]
                if not key & bit:
                    key |= bit
                    elements.append(col[x])
        return key, elements

    # ---- conjugacy classes ---------------------------------------------

    def conjugacy_classes(self) -> List[Tuple[int, ...]]:
        """Classes as sorted tuples; identity's class first, then by min element."""
        if self._conj_classes is None:
            n = self.order
            t, inv = self.table, self.inverse
            assigned = np.full(n, -1, dtype=np.int64)
            classes: List[Tuple[int, ...]] = []
            ar = np.arange(n)
            for x in range(n):
                if assigned[x] >= 0:
                    continue
                orbit = np.unique(t[ar, t[x, inv]])
                assigned[orbit] = len(classes)
                classes.append(tuple(int(v) for v in orbit))
            classes.sort(key=lambda c: (self.identity not in c, c[0]))
            self._conj_classes = classes
            class_of = np.empty(n, dtype=np.int64)
            for i, c in enumerate(classes):
                class_of[list(c)] = i
            self._class_of = class_of
        return self._conj_classes

    def class_of(self, x: int) -> int:
        self.conjugacy_classes()
        assert self._class_of is not None
        return int(self._class_of[x])

    # ---- subgroups -------------------------------------------------------

    def subgroup(self, elements: Iterable[int]) -> "Subgroup":
        """The subgroup on these elements: one object per distinct element
        set, validated the first time the set is seen."""
        el = np.fromiter(elements, dtype=np.int64)
        if not _in_range(el, self.order):
            raise ValueError("subgroup elements out of range")
        mask = np.zeros(self.order, dtype=bool)
        mask[el] = True
        return self._intern(mask)

    def _intern(self, mask: np.ndarray) -> "Subgroup":
        key = _mask_key(mask)
        sub = self._interned.get(key)
        if sub is None:
            sub = Subgroup(self, tuple(int(x) for x in np.flatnonzero(mask)), key)
            self._interned[key] = sub
        return sub

    def subgroup_from_generators(self, gens: Iterable[int]) -> "Subgroup":
        return self.subgroup(self._closure(gens)[1])

    def trivial_subgroup(self) -> "Subgroup":
        return self.subgroup([self.identity])

    def full_subgroup(self) -> "Subgroup":
        return self.subgroup(range(self.order))

    def all_subgroups(self) -> List[frozenset]:
        """Every subgroup, as frozensets of element indices, in the
        lattice's order: by (order, element tuple)."""
        return [frozenset(S.elements) for S in self.subgroup_lattice().subgroups]

    def subgroup_lattice(self) -> "SubgroupLattice":
        """The integer tables over every subgroup, built on first use."""
        if self._lattice is None:
            self._lattice = SubgroupLattice(self)
        return self._lattice

    def _conjugated(self, gs: np.ndarray, elements: np.ndarray) -> np.ndarray:
        """out[i, j] = gs[i] * elements[j] * gs[i]^-1, in one gather: the
        routine behind the conjugacy questions that range over many g."""
        return self.table[gs[:, None], self.table[elements[None, :], self.inverse[gs][:, None]]]

    def _conjugates_inside(self, sub: "Subgroup", mask: np.ndarray) -> np.ndarray:
        """inside[g] is whether g sub g^-1 lies in the mask, for every g."""
        el = np.asarray(sub.elements, dtype=np.int64)
        return mask[self._conjugated(np.arange(self.order), el)].all(axis=1)

    def conjugate_subgroup(self, g: int, elements: Iterable[int]) -> frozenset:
        el = np.fromiter(elements, dtype=np.int64)
        conj = self._conjugated(np.array([g]), el)[0]
        return frozenset(int(x) for x in conj)

    def subgroups_up_to_conjugacy(self) -> List["Subgroup"]:
        """One representative per conjugacy class of subgroups.

        Representatives are the lexicographically least element tuple in
        their class; the list is sorted by order then by that tuple, so the
        trivial subgroup comes first and the whole group last.
        """
        return self.subgroup_lattice().classes

    def centralizer(self, elements: Iterable[int]) -> "Subgroup":
        mask = np.ones(self.order, dtype=bool)
        for x in set(elements):
            mask &= self.table[:, x] == self.table[x, :]
        return self._intern(mask)

    def normalizer(self, sub: "Subgroup") -> "Subgroup":
        return self._intern(self._conjugates_inside(sub, sub.mask))

    # ---- cosets ----------------------------------------------------------

    def left_transversal(self, sub: "Subgroup") -> Tuple[List[int], np.ndarray]:
        """Minimal-element representatives of the left cosets gH.

        Returns (reps, coset_of) where coset_of[g] indexes into reps.
        """
        least = self.table[:, np.asarray(sub.elements, dtype=np.int64)].min(axis=1)
        reps, coset_of = np.unique(least, return_inverse=True)
        return [int(r) for r in reps], coset_of.astype(np.int64)

    def _double_coset_least(self, left: np.ndarray, rights: np.ndarray,
                            starts: Sequence[int]) -> np.ndarray:
        """least[g, j], the least element of K g H_j for every g and j: the
        least k x over k in `left` for every x, then its least at g h over
        the h of H_j, whose elements are `rights[starts[j]:starts[j + 1]]`,
        by one reduceat over those segments."""
        least_left = self.table[left].min(axis=0)
        return np.minimum.reduceat(least_left[self.table[:, rights]], starts, axis=1)

    def double_cosets(self, left: "Subgroup", right: "Subgroup") -> "DoubleCosetDecomposition":
        """Decomposition of G into double cosets K g H (K=left, H=right),
        with the interned K n xHx^-1 for each representative x.

        The least element of K g H is min over h of (min over k of k g h),
        computed for every g at once; the intersections are one gather of
        xHx^-1 for every x, ANDed with K's mask.  For K, H <= L, the double
        cosets inside L (K\\L/H) are those whose representative lies in L.
        """
        hs = np.asarray(right.elements, dtype=np.int64)
        least = self._double_coset_least(np.asarray(left.elements), hs, [0])[:, 0]
        reps, assignment = np.unique(least, return_inverse=True)
        conjugates = np.zeros((len(reps), self.order), dtype=bool)
        conjugates[np.arange(len(reps))[:, None], self._conjugated(reps, hs)] = True
        return DoubleCosetDecomposition(self, left, right, reps.tolist(),
                                        assignment.astype(np.int64),
                                        [self._intern(m) for m in conjugates & left.mask])

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup: the sorted tuple of its element indices, its membership
    mask and that mask as an int bitmask (`key`, handed over by the
    interning group, which has packed it already).  Obtain subgroups from
    their group, which interns them: equality and hashing go by identity,
    and `<=` is containment."""

    parent: FiniteGroup
    elements: Tuple[int, ...]
    key: int = field(repr=False)
    mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        G = self.parent
        el = np.asarray(self.elements, dtype=np.int64)
        mask = np.zeros(G.order, dtype=bool)
        mask[el] = True
        if not mask[G.identity]:
            raise ValueError("subgroup must contain the identity")
        if not mask[G.inverse[el]].all():
            raise ValueError("subgroup is not closed under inverses")
        if not mask[G.table[np.ix_(el, el)]].all():
            raise ValueError("subgroup is not closed under multiplication")
        object.__setattr__(self, "mask", mask)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, a: int) -> bool:
        return 0 <= a < self.mask.size and bool(self.mask[a])

    def __le__(self, other: "Subgroup") -> bool:
        """Containment in another subgroup of the same group."""
        return (self.key & ~other.key) == 0

    def conjugate_by(self, g: int) -> "Subgroup":
        """g S g^-1, read off the mask: x is in it iff g^-1 x g is in S."""
        G = self.parent
        return G._intern(self.mask[G.table[G.table[G.inverse[g]], g]])

    def intersection(self, other: "Subgroup") -> "Subgroup":
        return self.parent._intern(self.mask & other.mask)

    def is_conjugate_to(self, other: "Subgroup") -> bool:
        return self.order == other.order and self.is_subconjugate_to(other)

    def is_subconjugate_to(self, other: "Subgroup") -> bool:
        """Some conjugate of this subgroup lies in `other`."""
        return (self.order <= other.order
                and bool(self.parent._conjugates_inside(self, other.mask).any()))

    def as_group(self) -> Tuple[FiniteGroup, Tuple[int, ...]]:
        """The subgroup as a standalone group plus its element list in the parent.

        Element i of the standalone group is parent element elements[i]
        (ascending), so the map i -> elements[i] is an injective hom.
        """
        if not hasattr(self, "_as_group"):
            el = list(self.elements)
            pos = np.full(self.parent.order, -1, dtype=np.int32)
            pos[el] = np.arange(len(el))
            table = pos[self.parent.table[np.ix_(el, el)]]
            perms = self.parent.perms[el] if self.parent.perms is not None else None
            names = [self.parent.name(a) for a in el] if (
                self.parent.names is not None or self.parent.perms is not None) else None
            grp = FiniteGroup(table, int(pos[self.parent.identity]), perms=perms,
                              names=names, _skip_checks=self.parent.order > 256)
            object.__setattr__(self, "_as_group", (grp, tuple(el)))
        return self._as_group  # type: ignore[attr-defined]

    def inclusion_hom(self) -> "InjectiveHom":
        grp, el = self.as_group()
        return InjectiveHom(grp, self.parent, el)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, elements={self.elements})"


class SubgroupLattice:
    """Every subgroup of a group as an integer id, with the conjugation
    action and containment as tables (Pfeiffer's table-of-marks
    bookkeeping).

    `subgroups` lists the interned subgroups sorted by (order, element
    tuple) and `position[S]` is the id of S.  `conj[g, i]` is the id of
    g S_i g^-1.  `classes` holds one representative per conjugacy class (the
    least id, hence the lexicographically least tuple, in each orbit, in
    increasing id order) and `class_of[i]` the class of S_i in that list.
    `contain[k, h]` is whether S_k <= S_h, built on first use.  Every table
    it caches is read-only.

    The subgroups are found by cyclic extension over conjugacy classes of
    subgroups (Pfeiffer): every subgroup is a chain of joins with cyclic
    subgroups of prime-power order, starting from the trivial one, and for
    n in N(S) <S, nZn^-1> = n<S, Z>n^-1.  So each class representative S is
    joined with one prime-power cyclic subgroup Z per N(S)-orbit, each join
    is closed as a bitmask, and a join not seen before brings in its whole
    class at once, in one gather, and is the only one of the class extended
    further.  Each member is interned (and so validated once) from its mask,
    and the class's columns of `conj` are read off the same gather.
    """

    def __init__(self, G: FiniteGroup):
        n = G.order
        everything = np.arange(n)
        orders = G.element_orders()
        # cyc_of[a]: the number of <a> among the cyclic subgroups of
        # prime-power order, listed by their least generators cyc_gen (the
        # generators of a cyclic p-group are its elements of largest order)
        cyc_of = np.full(n, -1, dtype=np.int64)
        cyc_gen: List[int] = []
        for a in range(n):
            if cyc_of[a] < 0 and _is_prime_power(int(orders[a])):
                _, powers = G._closure([a])
                powers = np.asarray(powers)
                cyc_of[powers[orders[powers] == orders[a]]] = len(cyc_gen)
                cyc_gen.append(a)
        seen = set()
        orbits: List[Tuple[List[Subgroup], np.ndarray, np.ndarray]] = []

        def add_class(elements: List[int]) -> np.ndarray:
            """Intern the class of a new subgroup J; return N(J).  g J g^-1
            is member local[g], the one of g's left coset of N(J)."""
            conjugated = G._conjugated(everything, np.asarray(elements))
            mask = np.zeros(n, dtype=bool)
            mask[elements] = True
            normalizer = np.flatnonzero(mask[conjugated].all(axis=1))
            hs, local = np.unique(G.table[:, normalizer].min(axis=1), return_inverse=True)
            # x is in h J h^-1 iff h^-1 x h is in J, for every h and x at once
            masks = mask[G.table[G.table[G.inverse[hs]], hs[:, None]]]
            members = [G._intern(m) for m in masks]
            seen.update(S.key for S in members)
            orbits.append((members, local, hs))
            return normalizer

        queue = [([], 1 << G.identity, add_class([G.identity]))]
        while queue:
            gens, key, normalizer = queue.pop()
            # one prime-power cyclic subgroup per N(S)-orbit, outside S
            conjugates = G._conjugated(normalizer, np.asarray(cyc_gen, dtype=np.int64))
            orbit_least = cyc_of[conjugates].min(axis=0)
            for c in np.flatnonzero(orbit_least == np.arange(len(cyc_gen))).tolist():
                if (key >> cyc_gen[c]) & 1:
                    continue
                join_gens = gens + [cyc_gen[c]]
                join_key, elements = G._closure(join_gens)
                if join_key not in seen:
                    queue.append((join_gens, join_key, add_class(elements)))

        self.subgroups = sorted((S for members, _, _ in orbits for S in members),
                                key=lambda S: (S.order, S.elements))
        self.position = {S: i for i, S in enumerate(self.subgroups)}
        self.group = G
        self.conj = np.empty((n, len(self.subgroups)), dtype=np.int64)
        # member k of a class is h J h^-1 for h = hs[k], and g h J (g h)^-1
        # is member local[g h]
        for members, local, hs in orbits:
            ids = np.array([self.position[S] for S in members], dtype=np.int64)
            self.conj[:, ids] = ids[local[G.table[:, hs]]]
        least, self.class_of = np.unique(self.conj.min(axis=0), return_inverse=True)
        self.classes = [self.subgroups[i] for i in least]
        self.conj.setflags(write=False)
        self.class_of.setflags(write=False)

    @cached_property
    def contain(self) -> np.ndarray:
        """contain[k, h] is whether S_k <= S_h, from the masks in one
        product; its nonzero entries in row-major order are the
        containments in (K, H) order."""
        masks = np.array([S.mask for S in self.subgroups], dtype=np.float64)
        out = masks @ (1.0 - masks).T == 0
        out.setflags(write=False)
        return out

    def classes_in(self, H: Subgroup) -> Tuple[np.ndarray, np.ndarray]:
        """H-conjugacy classes of the subgroups of H: the least id of each
        class in increasing order, and per id its class index (-1 for the
        subgroups not inside H)."""
        inside = self.contain[:, self.position[H]]
        least = self.conj[np.asarray(H.elements)][:, inside].min(axis=0)
        reps, cls = np.unique(least, return_inverse=True)
        class_of = np.full(len(self.subgroups), -1, dtype=np.int64)
        class_of[inside] = cls
        return reps, class_of

    def class_index(self, S: Subgroup) -> int:
        """Index of S's class in `classes` (and subgroups_up_to_conjugacy)."""
        return int(self.class_of[self.position[S]])

    def double_cosets(self, k: int, hs: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The double cosets S_k x S_h for every id h in `hs`, as three flat
        arrays in (position in hs, x) order: j, the position in hs; x, the
        least element of the double coset; a, the id of S_k n x S_h x^-1.

        x is a least element exactly when least[x, j] == x.  The
        intersection contains every common subgroup of S_k and x S_h x^-1,
        and ids go by order, so its id is the largest among S_k's subgroups
        that lie inside conj[x, h], read off `contain`."""
        hs = np.asarray(hs, dtype=np.int64)
        rights = [self.subgroups[h].elements for h in hs.tolist()]
        starts = np.cumsum([0] + [len(e) for e in rights[:-1]])
        least = self.group._double_coset_least(
            np.asarray(self.subgroups[k].elements), np.concatenate(rights), starts)
        j, x = np.nonzero(least.T == np.arange(self.group.order))
        below = np.flatnonzero(self.contain[:, k])
        inside = self.contain[below][:, self.conj[x, hs[j]]]
        return j, x, (below[:, None] * inside).max(axis=0)


@dataclass(frozen=True)
class InjectiveHom:
    """An injective group homomorphism given elementwise, checked at the generators."""

    source: FiniteGroup
    target: FiniteGroup
    map: Tuple[int, ...]

    def __post_init__(self):
        H, G = self.source, self.target
        m = np.asarray(self.map, dtype=np.int64)
        if m.shape != (H.order,):
            raise ValueError("hom map has wrong length")
        if not _in_range(m, G.order):
            raise ValueError("hom map out of range")
        if len(set(self.map)) != H.order:
            raise ValueError("hom is not injective")
        if self.map[H.identity] != G.identity:
            raise ValueError("hom does not preserve the identity")
        gens = H.generators()
        if _unnatural(m, H.table[gens].T, G=m[gens][None],
                      mul=lambda a, b: G.table[a, b]).any():
            raise ValueError("map is not a homomorphism")

    def __call__(self, a: int) -> int:
        return int(self.map[a])

    def image_subgroup(self) -> Subgroup:
        return self.target.subgroup(self.map)

    def compose(self, inner: "InjectiveHom") -> "InjectiveHom":
        """self o inner."""
        if inner.target is not self.source:
            raise ValueError("homs are not composable")
        return InjectiveHom(inner.source, self.target,
                            tuple(int(self.map[x]) for x in inner.map))

    def induction_table(self) -> Tuple[List[int], np.ndarray, np.ndarray]:
        """Coset bookkeeping for inducing along this hom, computed once.

        Returns (reps, coset, source): reps are the minimal-element left coset
        representatives of the image in the target G, and for every g in G
        and coset index c, g * reps[c] = reps[coset[g, c]] * self(source[g, c]).
        The arrays are read-only.
        """
        if not hasattr(self, "_induction_table"):
            G = self.target
            reps, coset_of = G.left_transversal(self.image_subgroup())
            back = np.full(G.order, -1, dtype=np.int64)
            back[list(self.map)] = np.arange(self.source.order)
            r = np.asarray(reps, dtype=np.int64)
            moved = G.table[:, r]  # moved[g, c] = g * reps[c]
            coset = coset_of[moved]
            source = back[G.table[G.inverse[r[coset]], moved]]
            coset.setflags(write=False)
            source.setflags(write=False)
            object.__setattr__(self, "_induction_table", (reps, coset, source))
        return self._induction_table  # type: ignore[attr-defined]


@dataclass(frozen=True)
class DoubleCosetDecomposition:
    """G = union of double cosets K g H over the stored representatives.

    Representatives are the minimal element of each coset, listed in
    increasing order; assignment[g] is the index of g's coset and
    intersections[i] the interned K n xHx^-1 for x = representatives[i].
    """

    group: FiniteGroup
    left: Subgroup
    right: Subgroup
    representatives: List[int]
    assignment: np.ndarray
    intersections: List[Subgroup]

    def __len__(self) -> int:
        return len(self.representatives)

    def coset_sizes(self) -> List[int]:
        return np.bincount(self.assignment, minlength=len(self.representatives)).tolist()


class GSet:
    """A finite left G-set given by its action table: action[g, x] = g.x.

    This is also the action of a permutation module, so restriction,
    induction, products and disjoint unions of permutation actions are
    defined here once.
    """

    def __init__(self, group: FiniteGroup, action: np.ndarray, check: bool = True):
        self.group = group
        self.action = np.asarray(action, dtype=np.int64)
        if self.action.ndim != 2 or self.action.shape[0] != group.order:
            raise ValueError("action table must be |G| x points")
        if check:
            self.verify()

    def verify(self) -> None:
        """Exact check that the table is an action: entries name points, the
        identity acts trivially and row sg is row s after row g (`_unnatural`)
        for every generator s and every g, so for every word in them."""
        A, G = self.action, self.group
        if not _in_range(A, self.size):
            raise ValueError("action table entries out of range")
        if not np.array_equal(A[G.identity], np.arange(self.size)):
            raise ValueError("identity must act trivially")
        gens = G.generators()
        if _unnatural(A, G.table[gens].T, G=A[gens][None]).any():
            raise ValueError("action is not a homomorphism")

    @property
    def size(self) -> int:
        return self.action.shape[1]

    def orbits(self) -> List[Tuple[int, ...]]:
        seen = np.zeros(self.size, dtype=bool)
        out = []
        for x in range(self.size):
            if not seen[x]:
                orb = np.unique(self.action[:, x])
                seen[orb] = True
                out.append(tuple(int(y) for y in orb))
        return out

    def stabilizer(self, x: int) -> Subgroup:
        return self.group._intern(self.action[:, x] == x)

    def fixed_points(self, S: Subgroup) -> int:
        rows = self.action[list(S.elements)]
        return int(np.sum(np.all(rows == np.arange(self.size), axis=0)))

    def disjoint_union(self, *others: "GSet") -> "GSet":
        """Points of each set in turn, shifted past the points before it."""
        parts = (self,) + others
        if any(X.group is not self.group for X in parts):
            raise ValueError("union needs a common group")
        offsets = np.cumsum([0] + [X.size for X in parts[:-1]])
        return GSet(self.group, np.hstack([X.action + off for X, off in zip(parts, offsets)]),
                    check=False)

    def product(self, other: "GSet") -> "GSet":
        """Cartesian product with the diagonal action; point (x, y) has
        index x * other.size + y."""
        if other.group is not self.group:
            raise ValueError("product needs a common group")
        act = self.action[:, :, None] * other.size + other.action[:, None, :]
        return GSet(self.group, act.reshape(self.group.order, -1), check=False)

    def restrict(self, hom: InjectiveHom) -> "GSet":
        """Pull back along hom: a in hom.source acts as hom(a)."""
        if self.group is not hom.target:
            raise ValueError("G-set does not live over the hom's target")
        return GSet(hom.source, self.action[list(hom.map)], check=False)

    def induce(self, hom: InjectiveHom) -> "GSet":
        """G x_H X along hom: H -> G.  Points (coset c, x) are indexed
        c * |X| + x, and g.(t, x) = (t', h.x) where g t = t' hom(h)."""
        if self.group is not hom.source:
            raise ValueError("G-set does not live over the hom's source")
        _, coset, source = hom.induction_table()
        act = coset[:, :, None] * self.size + self.action[source]
        return GSet(hom.target, act.reshape(hom.target.order, -1), check=False)


def gset_from_subgroup(G: FiniteGroup, H: Subgroup) -> GSet:
    """G/H with left translation, cosets numbered by their minimal element."""
    reps, coset_of = G.left_transversal(H)
    return GSet(G, coset_of[G.table[:, reps]], check=False)


def gset_restrict(S: Subgroup, X: GSet) -> GSet:
    """Restriction of a G-set to a subgroup, as a set over S-as-a-group."""
    return X.restrict(S.inclusion_hom())


def gset_induce(G: FiniteGroup, H: Subgroup, X: GSet) -> GSet:
    """G x_H X for a set X over H-as-a-group."""
    if H.parent is not G:
        raise ValueError("H is not a subgroup of G")
    return X.induce(H.inclusion_hom())


def _require_integers(rows, what: str) -> None:
    """Refuse floats, bools and strings, which numpy would truncate or parse into ids."""
    if not all(issubclass(k, (int, np.integer)) and k is not bool
               for k in set(map(type, itertools.chain.from_iterable(rows)))):
        raise ValueError(f"{what} entries must be integers")


def group_from_generators(
    degree: int,
    generators: Sequence[Sequence[int]],
    names: Optional[List[str]] = None,
) -> FiniteGroup:
    """Close a set of permutations (on points 0..degree-1) into a group.

    Elements are ordered BFS from the identity, expanding by right
    multiplication with the generators in their input order; the identity is
    element 0.  Raises if the closure, or the degree, exceeds
    MACKEYKIT_MAX_ORDER; a group of order n acts faithfully on n points, so
    the degree bound loses no group that the order cap admits.
    """
    _require_integers([[degree], *generators], "degree and generator")
    if degree < 0:
        raise ValueError(f"degree {degree} is negative")
    cap = max_order_cap()
    if degree > cap:
        raise ValueError(f"degree {degree} exceeds the order cap {cap} "
                         "(set MACKEYKIT_MAX_ORDER to raise it)")
    gens = [np.asarray(g, dtype=np.int64) for g in generators]
    for g in gens:
        if sorted(g.tolist()) != list(range(degree)):
            raise ValueError(f"{g.tolist()} is not a permutation of 0..{degree - 1}")
    ident = np.arange(degree, dtype=np.int64)
    elems = [ident]
    index: Dict[bytes, int] = {ident.tobytes(): 0}
    head = 0
    while head < len(elems):
        w = elems[head]
        head += 1
        for s in gens:
            ws = w[s]  # right multiplication: (w*s)(x) = w(s(x))
            key = ws.tobytes()
            if key not in index:
                if len(elems) >= cap:
                    raise ValueError(
                        f"group closure exceeded the order cap {cap} "
                        "(set MACKEYKIT_MAX_ORDER to raise it)")
                index[key] = len(elems)
                elems.append(ws)
    n = len(elems)
    perms = np.vstack(elems) if n else ident.reshape(1, -1)
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        comp = perms[i][perms]  # row j = perm_i o perm_j
        table[i] = [index[comp[j].tobytes()] for j in range(n)]
    gen_idx = [index[g.tobytes()] for g in gens]
    return FiniteGroup(table, 0, generators=gen_idx, perms=perms, names=names,
                       _skip_checks=n > 256)


def group_from_table(table: Sequence[Sequence[int]], names: Optional[List[str]] = None) -> FiniteGroup:
    """Build a group from a raw multiplication table (identity located automatically)."""
    _require_integers(table, "table")
    t = np.asarray(table, dtype=np.int32)
    n = t.shape[0]
    if n > max_order_cap():
        raise ValueError(f"table order {n} exceeds the cap {max_order_cap()}")
    ar = np.arange(n, dtype=np.int32)
    identity = None
    for e in range(n):
        if np.array_equal(t[e], ar) and np.array_equal(t[:, e], ar):
            identity = e
            break
    if identity is None:
        raise ValueError("table has no two-sided identity")
    return FiniteGroup(t, identity, names=names)
