"""Independent finite-group arithmetic for the benchmark's oracles.

Nothing here imports mackeykit: groups are plain multiplication tables
(lists of lists), subgroups are Python-int bitmasks over element indices,
and every count is made by brute force or by Burnside's lemma.  The
benchmark also uses these routines to build its inputs (relabelled tables
and subgroup generator lists), so the program under test never chooses
them.
"""

from __future__ import annotations

import json
import math
import random
from typing import List, Sequence, Tuple


def perm_group(degree: int, gens: Sequence[Sequence[int]]) -> List[List[int]]:
    """Multiplication table of the permutation group generated by `gens`,
    elements in BFS order from the identity; (a*b)(x) = a(b(x))."""
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    head = 0
    gens = [tuple(g) for g in gens]
    while head < len(elems):
        w = elems[head]
        head += 1
        for s in gens:
            ws = tuple(w[s[x]] for x in range(degree))
            if ws not in index:
                index[ws] = len(elems)
                elems.append(ws)
    return [[index[tuple(a[b[x]] for x in range(degree))] for b in elems] for a in elems]


def cycles(degree: int, *cyc: Sequence[int]) -> List[int]:
    """The permutation of 0..degree-1 with the given disjoint cycles."""
    p = list(range(degree))
    for c in cyc:
        for i, x in enumerate(c):
            p[x] = c[(i + 1) % len(c)]
    return p


def relabel(table: List[List[int]], rng: random.Random) -> Tuple[List[List[int]], List[int]]:
    """The same group with element a renamed to sigma[a], for a random
    bijection sigma drawn from `rng`."""
    n = len(table)
    sigma = list(range(n))
    rng.shuffle(sigma)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        row = table[a]
        orow = out[sigma[a]]
        for b in range(n):
            orow[sigma[b]] = sigma[row[b]]
    return out, sigma


def table_spec(table: List[List[int]], name: str) -> str:
    return json.dumps({"name": name, "table": table}, separators=(",", ":"))


def bits(mask: int) -> List[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Group:
    """A finite group from its table, with brute-force enumerations."""

    def __init__(self, table: List[List[int]]):
        self.t = table
        self.n = n = len(table)
        self.e = next(a for a in range(n) if all(table[a][b] == b for b in range(n)))
        self.inv = [0] * n
        for a in range(n):
            self.inv[a] = table[a].index(self.e)
        self._subgroups: List[int] = []
        self._classes: List[int] = []
        self._pair_classes = 0

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.t[self.t[g][x]][self.inv[g]]

    def closure(self, gens: Sequence[int]) -> int:
        t = self.t
        mask = 1 << self.e
        frontier = [self.e]
        while frontier:
            nxt = []
            for a in frontier:
                for s in gens:
                    b = t[a][s]
                    if not mask >> b & 1:
                        mask |= 1 << b
                        nxt.append(b)
            frontier = nxt
        return mask

    def conj_mask(self, g: int, mask: int) -> int:
        out = 0
        for x in bits(mask):
            out |= 1 << self.conj(g, x)
        return out

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.e:
            x = self.t[x][a]
            k += 1
        return k

    def class_count(self) -> int:
        seen = 0
        count = 0
        for x in range(self.n):
            if seen >> x & 1:
                continue
            count += 1
            for g in range(self.n):
                seen |= 1 << self.conj(g, x)
        return count

    def subgroups(self) -> List[int]:
        """Every subgroup as a bitmask: grow from the trivial subgroup by
        adjoining one element at a time, keeping a generating list."""
        if not self._subgroups:
            found = {1 << self.e: [self.e]}
            work = [1 << self.e]
            while work:
                mask = work.pop()
                gens = found[mask]
                for a in range(self.n):
                    if mask >> a & 1:
                        continue
                    new = self.closure(gens + [a])
                    if new not in found:
                        found[new] = gens + [a]
                        work.append(new)
            self._gens = found
            self._subgroups = sorted(found, key=lambda m: (bin(m).count("1"), m))
        return self._subgroups

    def generators_of(self, mask: int) -> List[int]:
        self.subgroups()
        return list(self._gens[mask])

    def subgroup_classes(self) -> List[int]:
        """One bitmask per conjugacy class of subgroups (the least mask),
        sorted by order then mask."""
        if not self._classes:
            remaining = set(self.subgroups())
            reps = []
            while remaining:
                s = min(remaining)
                orbit = {self.conj_mask(g, s) for g in range(self.n)}
                remaining -= orbit
                reps.append(min(orbit))
            self._classes = sorted(reps, key=lambda m: (bin(m).count("1"), m))
        return self._classes

    def normalizer(self, mask: int) -> List[int]:
        return [g for g in range(self.n) if self.conj_mask(g, mask) == mask]

    def centralizer(self, mask: int) -> List[int]:
        el = bits(mask)
        return [a for a in range(self.n)
                if all(self.t[a][s] == self.t[s][a] for s in el)]

    def pair_class_count(self) -> int:
        """G-orbits of pairs (S, a) with a centralizing S: the pairs with
        first entry S form one N_G(S)-set, so sum its orbit counts over
        subgroup classes."""
        if not self._pair_classes:
            for S in self.subgroup_classes():
                N = self.normalizer(S)
                seen = set()
                for a in self.centralizer(S):
                    if a not in seen:
                        self._pair_classes += 1
                        seen.update(self.conj(g, a) for g in N)
        return self._pair_classes

    def coset_fixed(self, mask: int) -> List[int]:
        """fix[g] = number of left cosets xK fixed by g (K = mask)."""
        order = bin(mask).count("1")
        fix = [0] * self.n
        for g in range(self.n):
            hits = sum(1 for x in range(self.n)
                       if mask >> self.t[self.inv[x]][self.t[g][x]] & 1)
            fix[g] = hits // order
        return fix

    def orbital_count(self, over: Sequence[int], fix_x: Sequence[int],
                      fix_y: Sequence[int]) -> int:
        """Burnside's lemma: orbits of the elements `over` (a subgroup) on
        X x Y, given the fixed-point counts on X and on Y."""
        total = sum(fix_x[g] * fix_y[g] for g in over)
        if total % len(over):
            raise ArithmeticError("orbit count is not an integer")
        return total // len(over)

    def double_coset_reps(self, left: int, right: int) -> List[int]:
        """Least element of each double coset K g H."""
        L, R = bits(left), bits(right)
        seen = 0
        reps = []
        for g in range(self.n):
            if seen >> g & 1:
                continue
            reps.append(g)
            for k in L:
                kg = self.t[k][g]
                for h in R:
                    seen |= 1 << self.t[kg][h]
        return reps

    def marks(self, classes: Sequence[int]) -> List[List[int]]:
        """marks[i][j] = fixed points of classes[j] on G/classes[i]."""
        out = []
        for Si in classes:
            order = bin(Si).count("1")
            row = []
            for Sj in classes:
                el = bits(Sj)
                hits = sum(1 for x in range(self.n)
                           if all(Si >> self.t[self.inv[x]][self.t[s][x]] & 1 for s in el))
                row.append(hits // order)
            out.append(row)
        return out


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def primes_dividing(n: int) -> List[int]:
    return [p for p in range(2, n + 1)
            if n % p == 0 and all(p % q for q in range(2, math.isqrt(p) + 1))]
