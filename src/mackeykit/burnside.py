"""Burnside rings, crossed Burnside rings, and block decompositions.

Everything here is exact.  A finite algebra is kept as its
left-multiplication stack L[i, k, j] (the coefficient of e_k in e_i e_j)
and a unit column, and `linalg._algebra_laws` checks its laws; Z(kG) and
the crossed Burnside ring are `CommutativeAlgebra`s on such a stack.
Idempotent computations over F_p use the
Frobenius map x -> x^p, which is F_p-linear on a commutative algebra: its
fixed space ker(F - 1) is the span of the primitive idempotents, so its
dimension counts them and certifies the split without any enumeration
(Berlekamp's fixed-space idea).  Over Q the nilradical is the radical of
the trace form and splitting uses rational roots of minimal polynomials;
pieces that would need genuine factoring over Q raise
NotSplitOverRationals instead of guessing.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .groups import FiniteGroup, GSet, gset_from_subgroup, gset_induce, gset_restrict
from .linalg import _BATCH_ENTRIES, Field, Mat, QQ, _algebra_laws

__all__ = [
    "GSet",
    "gset_from_subgroup",
    "gset_induce",
    "gset_restrict",
    "table_of_marks",
    "burnside_vector",
    "burnside_multiply",
    "CrossedBurnsideAlgebra",
    "CenterOfGroupAlgebra",
    "CommutativeAlgebra",
    "primitive_idempotents",
    "NotSplitOverRationals",
    "Block",
    "block_decomposition",
]

ASSOCIATIVITY_DIM_CAP = 60


class NotSplitOverRationals(ArithmeticError):
    """The idempotent search over Q hit a piece it cannot certify or split
    with rational-root methods alone."""


# ---------------------------------------------------------------------------
# the Burnside ring


_marks_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def table_of_marks(G: FiniteGroup) -> np.ndarray:
    """m[i, j] = #fixed points of H_j on G/H_i, over the conjugacy classes of
    subgroups in canonical order; lower triangular with positive diagonal,
    and read-only, as it is cached.  gH_i is fixed by H_j exactly when
    H_j <= gH_ig^-1, so the mark is #{g : H_j <= gH_ig^-1} / |H_i|, one
    gather of the lattice's `contain` at the conjugates conj[g, i]."""
    cached = _marks_cache.get(G)
    if cached is not None:
        return cached
    lat = G.subgroup_lattice()
    ids = np.array([lat.position[S] for S in lat.classes], dtype=np.int64)
    orders = np.array([S.order for S in lat.classes], dtype=np.int64)
    m = lat.contain[ids][:, lat.conj[:, ids]].sum(axis=1).T // orders[:, None]
    if np.triu(m, 1).any() or not (np.diag(m) > 0).all():
        raise ArithmeticError("table of marks is not lower triangular")
    m.setflags(write=False)
    _marks_cache[G] = m
    return m


def burnside_vector(X: GSet) -> np.ndarray:
    """The class of X in the Burnside ring: multiplicity of [G/H_i] per
    conjugacy class of subgroups (orbit stabilizers, identified up to
    conjugacy)."""
    lat = X.group.subgroup_lattice()
    out = np.zeros(len(lat.classes), dtype=np.int64)
    for orb in X.orbits():
        out[lat.class_index(X.stabilizer(orb[0]))] += 1
    return out


_burnside_cache: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _burnside_structure(G: FiniteGroup) -> np.ndarray:
    """B[i, j, k], the multiplicity of [G/H_k] in [G/H_i][G/H_j], counted
    from the lattice's double-coset table and cross-checked through the
    mark homomorphism (which is injective); read-only, as it is cached."""
    cached = _burnside_cache.get(G)
    if cached is not None:
        return cached
    lat = G.subgroup_lattice()
    ids = [lat.position[S] for S in lat.classes]
    r = len(ids)
    B = np.zeros((r, r, r), dtype=np.int64)
    for i, k in enumerate(ids):
        j, _, meets = lat.double_cosets(k, ids)
        B[i] = np.bincount(j * r + lat.class_of[meets], minlength=r * r).reshape(r, r)
    marks = table_of_marks(G)
    if not np.array_equal(B @ marks, marks[:, None, :] * marks[None, :, :]):
        raise ArithmeticError("double-coset product disagrees with marks")
    B.setflags(write=False)
    _burnside_cache[G] = B
    return B


def burnside_multiply(G: FiniteGroup, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
    """Product in the Burnside ring, on multiplicity vectors over the
    subgroup classes.  Computed from the double-coset formula
    [G/K][G/H] = sum over KgH of [G/(K n gHg^-1)] and verified against the
    pointwise product of marks."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return np.einsum("i,ijk,j->k", a, _burnside_structure(G), b)


# ---------------------------------------------------------------------------
# commutative algebras and primitive idempotents


class CommutativeAlgebra:
    """A commutative associative unital algebra on a basis e_0, ..., e_{r-1},
    kept as one exact structure tensor, the stack `Mat` L[i, k, j] of the
    coefficients of e_k in e_i e_j (L[i] is the left multiplication by e_i),
    which `left_mult` reads back as a copy, and the unit column.  The unit
    law, commutativity and associativity are verified at construction by
    `linalg._algebra_laws`, for dimensions up to ASSOCIATIVITY_DIM_CAP, and
    a failure is named by its first basis pair (i, j) in row-major order;
    every product is a contraction with L."""

    def __init__(self, field: Field, left_mult: Mat, unit: Mat):
        r = left_mult.shape[0]
        if left_mult.shape != (r, r, r) or left_mult.field != field:
            raise ValueError(f"left multiplication must be an r x r x r stack over {field!r}")
        if unit.shape != (r, 1):
            raise ValueError("unit must be a column vector")
        if r > ASSOCIATIVITY_DIM_CAP:
            raise ValueError(f"dimension {r} exceeds the verification cap")
        self.field, self.dim, self.unit = field, r, unit
        self._L = left_mult.copy()
        self._flat = self._L.reshape(r, r * r)  # row i: the entries of L[i]
        left_unit, _, comm, assoc = _algebra_laws(self._L, unit)
        if not left_unit.all():
            raise ArithmeticError("unit law fails")
        for law, bad in (("commutative", np.tril(~comm, -1)), ("associative", ~assoc.all(axis=2))):
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ArithmeticError(f"not {law} at basis pair {(int(i), int(j))}")

    @property
    def left_mult(self) -> Mat:
        return self._L.copy()

    def mult_matrix(self, x: Mat) -> Mat:
        r = self.dim
        return (x.T @ self._flat).reshape(r, r)

    def multiply(self, X: Mat, Y: Mat) -> Mat:
        """The products X[:, c] Y[:, c] of the columns of two matrices: the
        multiplication matrices of the X columns, then one stacked product
        with the Y columns, in batches of _BATCH_ENTRIES entries."""
        r, m = X.shape
        step = max(1, _BATCH_ENTRIES // max(1, r * r))
        if m > step:
            return Mat.concat(self.field, [self.multiply(X[:, a : a + step], Y[:, a : a + step])
                                           for a in range(0, m, step)], axis=1)
        L = (X.transpose() @ self._flat).reshape(m, r, r)
        return (L @ Y.transpose().reshape(m, r, 1)).reshape(m, r).transpose()

    def power(self, X: Mat, k: int) -> Mat:
        """The k-th powers of the columns of X, by square and multiply."""
        out = self.unit[:, [0] * X.ncols]
        while k:
            if k & 1:
                out = self.multiply(out, X)
            k >>= 1
            if k:
                X = self.multiply(X, X)
        return out

    def is_idempotent(self, x: Mat) -> bool:
        return self.multiply(x, x) == x


# -- polynomial helpers over Q (coefficients low-to-high, Fractions) --


def _poly_trim(f: List) -> List:
    while f and not f[-1]:
        f.pop()
    return f


def _poly_divmod(f: List, g: List) -> Tuple[List, List]:
    f = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = Fraction(1) / g[-1]
    while len(f) >= len(g) and _poly_trim(list(f)):
        if not f[-1]:
            f.pop()
            continue
        d = len(f) - len(g)
        c = f[-1] * inv_lead
        q[d] = c
        for i in range(len(g)):
            f[d + i] -= c * g[i]
        f.pop()
    return _poly_trim(q), _poly_trim(f)


def _eval_poly(alg: CommutativeAlgebra, coeffs: List, Mz: Mat, unit: Mat) -> Mat:
    """f(z) via Horner inside the unital subalgebra whose unit is `unit`
    (the constant term multiplies that unit, not the global one)."""
    out = Mat.zeros(alg.field, alg.dim, 1)
    for c in reversed(coeffs):
        out = Mz @ out
        if c:
            out = out + unit.scale(c)
    return out


def _krylov_minpoly(alg: CommutativeAlgebra, z: Mat, e: Mat, modulo: Mat) -> List[Fraction]:
    """Monic minimal polynomial of z in the unital subalgebra with unit e,
    modulo the span of the columns of `modulo` (for the minimal polynomial
    in a quotient).  Coefficients low-to-high."""
    f = alg.field
    Mz = alg.mult_matrix(z)
    powers = [e]
    cur = e
    while True:
        k = len(powers)
        stack = Mat.concat(f, powers, axis=1)
        cur = Mz @ cur
        sysm = stack if modulo.ncols == 0 else stack.hstack(modulo)
        sol = sysm.solve(cur)
        if sol is not None:
            return [-c for c, in sol.to_fractions()[:k]] + [Fraction(1)]
        powers.append(cur)
        if len(powers) > alg.dim + 1:
            raise ArithmeticError("minimal polynomial search exceeded the dimension")


def _rational_roots(coeffs: List[Fraction]) -> List[Fraction]:
    """All rational roots of a monic polynomial with Fraction coefficients."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    roots = []
    # strip roots at zero
    f = list(ints)
    if not f:
        return []
    while f and f[0] == 0 and len(f) > 1:
        if Fraction(0) not in roots:
            roots.append(Fraction(0))
        f = f[1:]
    a0, an = abs(f[0]), abs(f[-1])
    if a0 == 0:
        return sorted(roots)
    if a0 > 10**12:
        raise NotSplitOverRationals(f"constant term {a0} too large for root search")
    for num in _divisors(a0):
        for d in _divisors(an):
            for s in (1, -1):
                r = Fraction(s * num, d)
                if r in roots:
                    continue
                acc = Fraction(0)
                for c in reversed(coeffs):
                    acc = acc * r + c
                if acc == 0:
                    roots.append(r)
    return sorted(roots)


def _divisors(n: int) -> List[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def primitive_idempotents(alg: CommutativeAlgebra) -> List[Mat]:
    """The complete list of primitive idempotents, sorted lexicographically
    by coefficient vector.

    Over F_p this is deterministic and certified: the Frobenius map
    F(x) = x^p is F_p-linear, and ker(F - 1) is exactly the span of the
    primitive idempotents, so its dimension s counts them; the unit is split
    into s nonzero orthogonal idempotents, which therefore are primitive.
    Over Q, splitting uses rational roots of minimal polynomials modulo the
    nilradical with Hensel lifting; a leaf is certified when its semisimple
    quotient is Q itself or is generated by an element whose minimal
    polynomial is irreducible of degree <= 3 (no rational root); anything
    else raises NotSplitOverRationals.  Either way the output is checked to
    sum to the unit and to be idempotent and pairwise orthogonal.
    """
    if alg.field.p is not None:
        leaves = _split_frobenius(alg)
    else:
        leaves = _split_rational(alg)
    f = alg.field
    E = Mat.concat(f, leaves, axis=1)
    if E @ Mat(f, np.ones((len(leaves), 1), dtype=np.int64)) != alg.unit:
        raise ArithmeticError("idempotents do not sum to the unit")
    # e_i e_j for j <= i in one batch: e_i on the diagonal, 0 off it
    rows, cols = np.tril_indices(len(leaves))
    prod = alg.multiply(E[:, rows], E[:, cols])
    ok = np.where(rows == cols, prod.eq(E[:, rows]).all(axis=0), (prod.num == 0).all(axis=0))
    for i, j, good in zip(rows, cols, ok):
        if not good:
            raise ArithmeticError("output is not idempotent" if i == j
                                  else "idempotents are not orthogonal")
    return sorted(leaves, key=Mat.to_fractions)


def _frobenius_fixed_space(alg: CommutativeAlgebra) -> Mat:
    """A basis of ker(F - 1) for the Frobenius map F(x) = x^p of an algebra
    over F_p: the columns e_i^p of F come from one square and multiply over
    all basis vectors at once, and one nullspace gives the kernel."""
    eye = Mat.identity(alg.field, alg.dim)
    return (alg.power(eye, alg.field.p) - eye).nullspace()


def _split_frobenius(alg: CommutativeAlgebra) -> List[Mat]:
    """The primitive idempotents over F_p, split off the unit.

    A fixed point x = x^p in a local summand eA is c e + n with c in F_p
    and n nilpotent, and then n = n^p, so n = 0: ker(F - 1) is the span of
    the primitive idempotents e_b.  A basis vector z of it is a sum of
    c_b e_b, so for a piece e (a sum of some e_b) the Lagrange idempotents
    e - (z e - c e)^(p-1), c in F_p, split e by the values c_b.  The basis
    separates every two e_b, so the split ends with s = dim ker(F - 1)
    pieces, each a primitive idempotent; any other count is a broken
    invariant.
    """
    f, p = alg.field, alg.field.p
    fixed = _frobenius_fixed_space(alg)
    s = fixed.ncols
    pieces = alg.unit
    for t in range(s):
        if pieces.ncols == s:
            break
        n = pieces.ncols
        ze = alg.multiply(fixed[:, [t] * n], pieces)
        step = max(1, _BATCH_ENTRIES // (n * alg.dim + 1))
        found = []
        for c0 in range(0, p, step):
            cs = np.arange(c0, min(p, c0 + step), dtype=np.int64)
            at = np.repeat(np.arange(n), len(cs))  # piece-major, c fastest
            e = pieces[:, at]
            shifted = Mat(f, ze.num[:, at] - e.num * np.tile(cs, n))
            E = e - alg.power(shifted, p - 1)
            found.append(E[:, E.num.any(axis=0)])
        pieces = Mat.concat(f, found, axis=1)
    if pieces.ncols != s:
        raise ArithmeticError(
            f"{pieces.ncols} Lagrange idempotents for a Frobenius-fixed space "
            f"of dimension {s} (broken invariant)")
    return [pieces[:, c : c + 1] for c in range(s)]


def _span_basis(vectors: Mat) -> Mat:
    """A deterministic (RREF) basis of the column span."""
    if vectors.ncols == 0:
        return vectors
    R, piv = vectors.T.rref()
    return Mat(vectors.field, R.num[: len(piv), :].T.copy(), R.den)


def _trace_form_radical(alg: CommutativeAlgebra) -> Mat:
    """The radical of the trace form (x, y) -> tr(L_x L_y) over Q; the Gram
    matrix tr(L_i L_j) is one contraction of the tensor."""
    L, r = alg._L, alg.dim
    gram = alg._flat @ L.transpose(0, 2, 1).reshape(r, r * r).T
    return _span_basis(gram.nullspace())


def _split_rational(alg: CommutativeAlgebra) -> List[Mat]:
    n = alg.dim
    nil_global = _trace_form_radical(alg)
    out: List[Mat] = []

    def split(e: Mat, depth: int) -> None:
        if depth > n:
            raise NotSplitOverRationals("splitting recursion exceeded the dimension")
        B = _span_basis(alg.mult_matrix(e))
        if nil_global.ncols:
            sysm = B.hstack(nil_global.scale(-1))
            pairs = sysm.nullspace()
            nilE = _span_basis(B @ Mat(QQ, pairs.num[: B.ncols, :].copy(), pairs.den)) \
                if pairs.ncols else Mat.zeros(QQ, n, 0)
        else:
            nilE = Mat.zeros(QQ, n, 0)
        m = B.ncols - nilE.ncols  # dim of the semisimple quotient
        if m == 1:
            out.append(e)
            return
        candidates = [B.col(c) for c in range(B.ncols)]
        for a in range(min(B.ncols, 6)):
            for b in range(a):
                candidates.append(B.col(a) + B.col(b))
        best_deg = 0
        for z in candidates:
            fbar = _krylov_minpoly(alg, z, e, modulo=nilE)
            deg = len(fbar) - 1
            best_deg = max(best_deg, deg)
            if deg < 2:
                continue
            roots = _rational_roots(fbar)
            if not roots:
                continue
            c = roots[0]
            g, r = _poly_divmod(fbar, [-c, Fraction(1)])
            if r:
                raise ArithmeticError("claimed root does not divide")
            gc = Fraction(0)
            for coef in reversed(g):
                gc = gc * c + coef
            if gc == 0:
                raise NotSplitOverRationals("repeated root modulo the nilradical")
            E = _eval_poly(alg, [coef / gc for coef in g], alg.mult_matrix(z), e)
            E = _hensel_idempotent(alg, E)
            comp = e - E
            if E.is_zero() or comp.is_zero():
                raise ArithmeticError("degenerate rational split")
            split(E, depth + 1)
            split(comp, depth + 1)
            return
        # no rational split available: certify the leaf or refuse
        if best_deg == m and m <= 3:
            out.append(e)  # minpoly of degree m with no rational root: a field
            return
        raise NotSplitOverRationals(
            f"piece of semisimple dimension {m} not certifiable by rational roots")

    split(alg.unit, 0)
    return out


def _hensel_idempotent(alg: CommutativeAlgebra, E: Mat) -> Mat:
    for _ in range(12):
        if alg.is_idempotent(E):
            return E
        E2 = alg.multiply(E, E)
        E = E2.scale(3) - alg.multiply(E2, E).scale(2)
    raise ArithmeticError("idempotent refinement did not converge")


# ---------------------------------------------------------------------------
# the center of the group algebra and blocks


class CenterOfGroupAlgebra:
    """Z(kG) on the class-sum basis, with exact structure constants."""

    def __init__(self, G: FiniteGroup, field: Field):
        self.group = G
        self.field = field
        self.classes = G.conjugacy_classes()
        if self.classes[0] != (G.identity,):
            raise ArithmeticError("identity class must come first")
        r = len(self.classes)
        # L[i, k, j] = #{(a, b) in C_i x C_j : ab is the representative of C_k},
        # one bincount over the pairs whose product is a representative
        reps = np.array([C[0] for C in self.classes], dtype=np.int64)
        cls, table = G._class_of, G.table
        a, b = np.nonzero(table == reps[cls[table]])
        L = np.bincount((cls[a] * r + cls[table[a, b]]) * r + cls[b],
                        minlength=r ** 3).reshape(r, r, r)
        unit = np.zeros((r, 1), dtype=np.int64)
        unit[0, 0] = 1
        self.algebra = CommutativeAlgebra(field, Mat(field, L), Mat(field, unit))

    @property
    def dim(self) -> int:
        return len(self.classes)

    def class_vector_to_elements(self, v: Mat) -> np.ndarray:
        """Expand class-sum coordinates to a coefficient per group element
        (integers; interpret mod p or over den as appropriate)."""
        return np.array([int(x) for x in v.num[:, 0]], dtype=object)[self.group._class_of]

    def multiply(self, x: Mat, y: Mat) -> Mat:
        return self.algebra.multiply(x, y)


@dataclass
class Block:
    index: int
    idempotent_classes: Mat       # column over class sums
    idempotent_elements: np.ndarray  # integer coefficients per group element
    idempotent_den: int
    dimension: int


def block_decomposition(G: FiniteGroup, field: Field) -> List[Block]:
    """Blocks of kG: primitive idempotents of Z(kG) plus the dimension of
    each two-sided ideal e kG; dimensions are verified to sum to |G|."""
    Z = CenterOfGroupAlgebra(G, field)
    idems = primitive_idempotents(Z.algebra)
    blocks = []
    for bi, e in enumerate(idems):
        vec = Z.class_vector_to_elements(e)
        # multiplication by e on kG: M[k, j] is the coefficient of k j^-1 in e
        M = vec[G.table[:, G.inverse]]
        dim = Mat(field, M, e.den).rank()
        blocks.append(Block(bi, e, vec, e.den, dim))
    if sum(b.dimension for b in blocks) != G.order:
        raise ArithmeticError("block dimensions do not sum to |G|")
    return blocks


# ---------------------------------------------------------------------------
# the crossed Burnside ring


@dataclass(frozen=True)
class PairClass:
    """Canonical representative of a G-class of pairs (H, a) with a
    centralizing H: the subgroup as a sorted element tuple plus the element."""

    subgroup: Tuple[int, ...]
    element: int


class CrossedBurnsideAlgebra:
    """The crossed Burnside ring of G on the basis of G-classes of pairs
    (H <= G, a in C_G(H)), with integer structure constants

        (K, b) (H, a) = sum over KgH of (K n gHg^-1, b * gag^-1).

    The unit is (G, 1).  The basis of a subgroup class with representative
    R is the least element of each N_G(R)-orbit on C_G(R), in increasing
    order, and the classes come in the lattice's class order.  The rank is
    refused above ASSOCIATIVITY_DIM_CAP before any product is made.  The
    structure constants are built once per pair of subgroup classes (the
    double cosets depend only on K and H, not on a and b) into the
    `CommutativeAlgebra` `algebra` over Q, which verifies the unit law,
    commutativity and associativity; the span of the pairs (H, 1) is
    checked to reproduce the Burnside ring's double-coset products.
    """

    def __init__(self, G: FiniteGroup):
        self.group = G
        lat = G.subgroup_lattice()
        self.basis: List[PairClass] = []
        # _pair_index[c][a]: the basis index of (R, a) for R the representative
        # of class c and a in C_G(R), -1 for the other a
        self._pair_index: List[np.ndarray] = []
        for S in lat.classes:
            C = np.asarray(G.centralizer(S.elements).elements, dtype=np.int64)
            N = np.asarray(G.normalizer(S).elements, dtype=np.int64)
            least, local = np.unique(G._conjugated(N, C).min(axis=0), return_inverse=True)
            index = np.full(G.order, -1, dtype=np.int64)
            index[C] = len(self.basis) + local
            self._pair_index.append(index)
            self.basis.extend(PairClass(S.elements, int(a)) for a in least)
        self.rank = len(self.basis)
        if self.rank > ASSOCIATIVITY_DIM_CAP:
            raise ValueError(f"rank {self.rank} exceeds the verification cap")
        self._index: Dict[PairClass, int] = {pc: i for i, pc in enumerate(self.basis)}
        self.unit_index = int(self._pair_index[-1][G.identity])
        unit = np.zeros((self.rank, 1), dtype=np.int64)
        unit[self.unit_index] = 1
        self.algebra = CommutativeAlgebra(QQ, Mat(QQ, self._structure_tensor()), Mat(QQ, unit))

    def canonical_pair(self, subgroup_elements: Sequence[int], a: int) -> PairClass:
        """Minimum of (sorted subgroup tuple, element) over simultaneous
        conjugation by all of G: the class representative R of the subgroup,
        and the least g a g^-1 over the g with g S g^-1 = R."""
        G = self.group
        lat = G.subgroup_lattice()
        orbit = lat.conj[:, lat.position[G.subgroup(subgroup_elements)]]
        least = orbit.min()
        gs = np.flatnonzero(orbit == least)
        return PairClass(lat.subgroups[least].elements,
                         int(G.table[gs, G.table[a, G.inverse[gs]]].min()))

    def _structure_tensor(self) -> np.ndarray:
        """L[i, k, j] per pair of subgroup classes with representatives K and
        H: every product c = b * x a x^-1, over the basis elements (K, b) and
        (H, a) and the double-coset representatives x, in one gather, and the
        basis index of (K n xHx^-1, c) read off the pair index of that
        intersection; the counts go into L by one bincount."""
        G, r = self.group, self.rank
        lat = G.subgroup_lattice()
        ids = [lat.position[S] for S in lat.classes]
        everything = np.arange(G.order)
        # pair_index[t, c]: the basis index of (S_t, c), -1 where c does not
        # centralize S_t.  g S_t g^-1 is the representative R exactly for the
        # g in N(R) g0, and the pair index of R is constant on N(R)-orbits.
        pair_index = np.empty((len(lat.subgroups), G.order), dtype=np.int64)
        for t, S in enumerate(lat.subgroups):
            el = np.asarray(S.elements, dtype=np.int64)
            centralizes = (G.table[:, el] == G.table[el, :].T).all(axis=1)
            c = lat.class_of[t]
            g0 = np.argmax(lat.conj[:, t] == ids[c])
            moved = G._conjugated(np.array([g0]), everything)[0]
            pair_index[t] = np.where(centralizes, self._pair_index[c][moved], -1)
        # the basis indices on each class representative
        blocks = [np.unique(index[index >= 0]) for index in self._pair_index]
        elements = np.array([pc.element for pc in self.basis], dtype=np.int64)
        counted = []
        for k, left in zip(ids, blocks):
            bs = elements[left]
            j, x, a = lat.double_cosets(k, ids)
            cuts = np.searchsorted(j, np.arange(1, len(ids)))
            for right, xs, meets in zip(blocks, np.split(x, cuts), np.split(a, cuts)):
                # products[b, a, x] = b * x a x^-1
                products = G.table[bs[:, None, None], G._conjugated(xs, elements[right]).T]
                out = pair_index[meets, products]
                if np.any(out < 0):
                    raise ArithmeticError("product element does not centralize")
                counted.append(((left[:, None, None] * r + out) * r
                                + right[None, :, None]).ravel())
        return np.bincount(np.concatenate(counted), minlength=r ** 3).reshape(r, r, r)

    def multiply(self, x: Sequence[int], y: Sequence[int]) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        return np.einsum("i,ikj,j->k", x, self.algebra._L.num, y)

    def basis_index(self, subgroup_elements: Sequence[int], a: int) -> int:
        return self._index[self.canonical_pair(subgroup_elements, a)]

    def untwisted_indices(self) -> List[Tuple[int, int]]:
        """(subgroup class index, basis index) for the pairs (H, 1), in the
        canonical subgroup-class order."""
        e = self.group.identity
        return [(k, int(index[e])) for k, index in enumerate(self._pair_index)]

    def verify_burnside_subring(self) -> bool:
        """The span of the pairs (H, 1) multiplies exactly like the Burnside
        ring on the matching basis: the slice of the structure tensor on
        those pairs is zero off them and the Burnside structure constants on
        them."""
        u = np.array([bi for _, bi in self.untwisted_indices()], dtype=np.int64)
        expected = np.zeros((len(u), self.rank, len(u)), dtype=np.int64)
        expected[:, u, :] = _burnside_structure(self.group).transpose(0, 2, 1)
        return bool(np.array_equal(self.algebra._L.num[np.ix_(u, np.arange(self.rank), u)],
                                   expected))

    # -- the coholological map to the center -------------------------------

    def rho_coh_matrix(self) -> np.ndarray:
        """Integer matrix of (H, a) |-> sum_{xH in G/H} x a x^-1 expressed in
        class sums: rows = basis pairs, columns = conjugacy classes.  One
        bincount of the x a x^-1 over every pair's transversal gives the
        images, compared once with their values at the class representatives."""
        G = self.group
        points = []
        for bi, pc in enumerate(self.basis):
            t = np.asarray(G.left_transversal(G.subgroup(pc.subgroup))[0])
            points.append(bi * G.order + G.table[t, G.table[pc.element, G.inverse[t]]])
        w = np.bincount(np.concatenate(points), minlength=self.rank * G.order)
        w = w.reshape(self.rank, G.order)
        out = w[:, [C[0] for C in G.conjugacy_classes()]]
        if not np.array_equal(w, out[:, G._class_of]):
            raise ArithmeticError("image is not a class-sum combination")
        return out

    def verify_rho_coh(self, field: Field) -> Dict[str, bool]:
        """The map is a unital ring homomorphism onto Z(kG)."""
        G = self.group
        R = self.rho_coh_matrix()
        Z = CenterOfGroupAlgebra(G, QQ)
        unit_ok = bool(R[self.unit_index, 0] == 1 and not np.any(R[self.unit_index, 1:]))
        # rho(e_i e_j) against rho(e_i) rho(e_j) in Z(QG), column i r + j for
        # every i, j, as exact Mat products
        r, images = self.rank, Mat(QQ, R.T.copy())  # column i: rho(e_i)
        i, j = np.divmod(np.arange(r * r), r)
        hom_ok = (images @ self.algebra._L.transpose(1, 0, 2).reshape(r, r * r)
                  == Z.algebra.multiply(images[:, i], images[:, j]))
        surj_ok = Mat(field, R.T.copy()).rank() == len(Z.classes)
        if not (unit_ok and hom_ok):
            raise ArithmeticError("rho_coh is not a unital ring homomorphism")
        return {"unital": unit_ok, "homomorphism": hom_ok, "surjective": surj_ok}
