"""Exact modules over finite group algebras.

Induction here always means kG (x)_{kH} N with basis t (x) n over the
minimal-element left transversal {t} of H in G, and restriction/induction
form a two-sided adjunction whose units and counits are pinned to concrete
formulas.  Writing t0 for the minimal element of H (t0 = identity whenever
the group carries the BFS element order):

    eta_left  : N -> Res Ind N,   n |-> t0 (x) t0^-1 n     ("1 (x) n")
    eps_left  : Ind Res M -> M,   t (x) m |-> t m
    eta_right : M -> Ind Res M,   m |-> sum_t t (x) t^-1 m
    eps_right : Res Ind N -> N,   t (x) n |-> t0 n if t = t0 else 0

These satisfy all four triangle identities, eps_right o eta_left = id
(separability of the restriction monad) and eps_left o eta_right = [G:H] id.

The double-coset comparison map is the exchange ("mate") composite built
from these: on the summand of a double coset KxH it sends t (x) n to
tx (x) n, and its inverse sends v to sum_x sum_t t (x) e(x^-1 t^-1 v) where
e projects Ind N onto its trivial-coset component as in eps_right.  Both
directions are constructed and their composites checked to be identities.

All of these maps and the projection maps are block-monomial, a grid of
dim-N blocks whose nonzero blocks are action matrices A(g), and `_monomial`
builds every one; a dense module's action is one stack `Mat` A[g], so its
restriction, induction, tensor products, direct sums, Fitting splits,
relative traces and block membership are gathers and stacked products.
The Frobenius laws are equalities of index tensors, checked by exact
contractions; the monoid and comonoid laws are `linalg._algebra_laws` on
the left-multiplication stacks L[i, k, j] (the coefficient of e_k in
e_i e_j) of the multiplication and of the dual of the comultiplication.
Maps and law tensors above MAX_DENSE_ENTRIES entries are refused
(ValueError) before they are allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .groups import FiniteGroup, GSet, InjectiveHom, Subgroup, _unnatural, gset_from_subgroup
from .linalg import Field, Mat, _algebra_laws, _pow_mod_stack, _rank_mod_stack, perm_to_mat

__all__ = [
    "Module",
    "ModuleHom",
    "InductionBasisLabel",
    "permutation_module",
    "regular_module",
    "trivial_module",
    "module_from_matrices",
    "restrict",
    "induce",
    "conj_module",
    "tensor",
    "direct_sum",
    "AdjunctionData",
    "unit_counit",
    "MackeyIsoData",
    "mackey_iso",
    "ProjectionData",
    "projection_map",
    "FrobeniusObject",
    "frobenius_object",
    "hom_space",
    "module_isomorphism",
    "DecompositionResult",
    "decompose",
    "SummandWitness",
    "is_summand",
    "VertexResult",
    "vertex",
    "GreenCorrespondence",
    "green_correspondent",
    "block_of",
    "DecompositionError",
]

MAX_DECOMPOSE_DIM = 200
MAX_DENSE_ENTRIES = 1 << 22  # largest exchange map or Frobenius law tensor (2048 x 2048)
EXHAUSTIVE_END_CAP = 16384
SEARCH_WINDOW_ENTRIES = 1 << 16  # largest batch of stacked matrices, in entries


class DecompositionError(RuntimeError):
    """Raised when a decomposition or certification budget is exhausted."""


@dataclass(frozen=True)
class InductionBasisLabel:
    """Basis label t (x) e_j of an induced module: transversal element and
    inner basis index."""

    coset_rep: int
    inner: int


class Module:
    """A finite-dimensional kG-module given by its action on a chosen basis.

    The action is either a `GSet` on the basis (a permutation module, whose
    action table is the G-set's; permutation modules and everything built
    from them stay in this form) or one stack `Mat` A of shape
    [|G|, dim, dim], A[g] the matrix of g.  The matrices passed in are
    stacked once and `action(g)` copies a slice, so editing either leaves
    the module as it was.  Construction checks the action exactly, as every
    functor is checked (`groups._unnatural`): A(e) = I and A(sg) = A(s)A(g)
    for every generator s and every g.  Modules derived by the functors in
    this file are built by `_of`, skipping the re-check.
    """

    def __init__(self, group: FiniteGroup, field: Field, dim: int, gset: Optional[GSet] = None,
                 mats: Optional[List[Mat]] = None, basis_labels: Optional[List] = None,
                 check: bool = True):
        if (gset is None) == (mats is None):
            raise ValueError("exactly one of gset/mats must be given")
        if gset is not None and (gset.group is not group or gset.size != dim):
            raise ValueError("permutation action has wrong group or size")
        A = None
        if mats is not None:
            if len(mats) != group.order:
                raise ValueError("need one matrix per group element")
            A = Mat.stack(field, mats, (dim, dim))  # refuses another shape or field
        self.group, self.field, self.dim, self.gset = group, field, dim, gset
        self._A, self.basis_labels = A, basis_labels
        if check:
            self.verify_action()

    @classmethod
    def _of(cls, group: FiniteGroup, A: Mat, basis_labels: Optional[List] = None) -> "Module":
        """The dense module of the action stack A, unchecked."""
        M = cls.__new__(cls)
        M.group, M.field, M.dim, M.gset = group, A.field, A.ncols, None
        M._A, M.basis_labels = A, basis_labels
        return M

    # -- action access ---------------------------------------------------

    @property
    def is_permutation(self) -> bool:
        return self.gset is not None

    def action(self, g: int) -> Mat:
        if self.gset is not None:
            return perm_to_mat(self.field, self.gset.action[g])
        return self._A[g].copy()

    def action_inv(self, g: int) -> Mat:
        return self.action(self.group.inv(g))

    def _stack(self, elements=slice(None)) -> Mat:
        """The action stack A[g] of either kind of module, of every g or of the listed ones."""
        if self.gset is None:
            return self._A[elements]
        rows = self.gset.action[elements]
        A = np.zeros(rows.shape + (self.dim,), dtype=np.int64)
        A[np.arange(len(rows))[:, None], rows, np.arange(self.dim)] = 1
        return Mat._of(self.field, A)

    def verify_action(self) -> None:
        """Exact check: A(e) = I and A(sg) = A(s)A(g) for every generator s
        and every g, one stacked product A(s)A per generator; a failure
        names the first pair (s, g) in that order."""
        if self.gset is not None:
            self.gset.verify()
            return
        G, A = self.group, self._A
        if A[G.identity] != Mat.identity(self.field, self.dim):
            raise ValueError("identity does not act as the identity")
        gens = G.generators()
        bad = _unnatural(A, G.table[gens].T, G=A[gens][None])
        if bad.any():
            j, g = np.argwhere(bad.T)[0]
            raise ValueError(f"action is not a homomorphism at pair {(gens[j], int(g))}")

    def label(self, idx: int):
        return self.basis_labels[idx] if self.basis_labels is not None else idx

    def __repr__(self) -> str:
        kind = "perm" if self.is_permutation else "dense"
        return f"Module(dim={self.dim}, {self.field!r}, {kind}, |G|={self.group.order})"


class ModuleHom:
    """A kG-linear map, verified to intertwine the two actions: a natural
    transformation between the two functors, checked as every one is
    (`groups._unnatural`), f A_M(s) = A_N(s) f at each generator s, which
    proves it for every element since both actions are homomorphisms.
    """

    def __init__(self, source: Module, target: Module, mat: Mat, check: bool = True):
        if source.group is not target.group:
            raise ValueError("source and target live over different groups")
        if source.field != target.field or mat.field != source.field:
            raise ValueError("field mismatch")
        if mat.shape != (target.dim, source.dim):
            raise ValueError(f"expected shape {(target.dim, source.dim)}, got {mat.shape}")
        self.source = source
        self.target = target
        self.mat = mat
        if check:
            _check_intertwines(source, target, mat)

    def __matmul__(self, other: "ModuleHom") -> "ModuleHom":
        if other.target is not self.source:
            raise ValueError("homs are not composable")
        return ModuleHom(other.source, self.target, self.mat @ other.mat, check=False)

    def __add__(self, other: "ModuleHom") -> "ModuleHom":
        if other.source is not self.source or other.target is not self.target:
            raise ValueError("homs with different sources or targets cannot be added")
        return ModuleHom(self.source, self.target, self.mat + other.mat, check=False)

    def scale(self, s) -> "ModuleHom":
        return ModuleHom(self.source, self.target, self.mat.scale(s), check=False)

    def is_identity(self) -> bool:
        return self.mat.is_identity()

    def is_isomorphism(self) -> bool:
        return self.mat.is_invertible()

    def __repr__(self) -> str:
        return f"ModuleHom({self.source.dim} -> {self.target.dim} over {self.mat.field!r})"


def _check_intertwines(M: Module, N: Module, f: Mat) -> None:
    """Refuse f: M -> N, or a stack of such maps, unless f A_M(s) = A_N(s) f at
    each generator s: between permutation modules f[s·y, s·x] = f[y, x]."""
    gens = M.group.generators()
    if M.is_permutation and N.is_permutation and f.num.ndim == 2:
        bad = _unnatural(f.num, N.gset.action[gens].T, F=M.gset.action[gens][None])
    else:  # each map of a stack is a natural transformation on its own
        f = f[None] if f.num.ndim == 2 else f
        bad = _unnatural(f, np.arange(f.shape[0])[:, None].repeat(len(gens), axis=1),
                         M._stack(gens)[None], N._stack(gens)[None])
    if bad.any():
        raise ValueError(f"map does not intertwine generator {gens[bad.any(axis=0).argmax()]}")


# ---------------------------------------------------------------------------
# constructors


def permutation_module(G: FiniteGroup, H: Subgroup, field: Field) -> Module:
    """k[G/H] with the left translation action on cosets."""
    reps, _ = G.left_transversal(H)
    labels = [InductionBasisLabel(r, 0) for r in reps]
    return Module(G, field, len(reps), gset=gset_from_subgroup(G, H), basis_labels=labels)


def regular_module(G: FiniteGroup, field: Field) -> Module:
    return permutation_module(G, G.trivial_subgroup(), field)


def trivial_module(G: FiniteGroup, field: Field) -> Module:
    return Module(G, field, 1, gset=GSet(G, np.zeros((G.order, 1)), check=False))


def module_from_matrices(G: FiniteGroup, field: Field, mats: Sequence[Mat]) -> Module:
    return Module(G, field, mats[0].nrows, mats=list(mats))


def restrict(hom: InjectiveHom, M: Module) -> Module:
    """Pull a module over hom.target back along hom (restriction)."""
    if M.group is not hom.target:
        raise ValueError("module does not live over the hom's target")
    if M.is_permutation:
        return Module(hom.source, M.field, M.dim, gset=M.gset.restrict(hom), check=False)
    return Module._of(hom.source, M._A[list(hom.map)])


def restrict_to(M: Module, S: Subgroup) -> Module:
    return restrict(S.inclusion_hom(), M)


def induce(hom: InjectiveHom, N: Module) -> Module:
    """kG (x)_{kH} N along an injective hom with image H <= G."""
    if N.group is not hom.source:
        raise ValueError("module does not live over the hom's source")
    G = hom.target
    reps, coset, source = hom.induction_table()
    nc, d = len(reps), N.dim
    labels = [InductionBasisLabel(reps[c], j) for c in range(nc) for j in range(d)]
    if N.is_permutation:
        return Module(G, N.field, nc * d, gset=N.gset.induce(hom), basis_labels=labels,
                      check=False)
    # A(g) is the nc x nc grid with A_N(source[g, c]) at block (coset[g, c], c)
    _refuse_oversize((nc * d) ** 2, "block-monomial map")
    A = np.zeros((G.order, nc, d, nc, d), dtype=N._A.num.dtype)
    A[np.arange(G.order)[:, None], coset, :, np.arange(nc), :] = N._A.num[source]
    return Module._of(G, Mat._of(N.field, A.reshape(G.order, nc * d, nc * d), N._A.den), labels)


def induce_from(N: Module, S: Subgroup) -> Module:
    return induce(S.inclusion_hom(), N)


def conj_module(G: FiniteGroup, a: int, H: Subgroup, N: Module) -> Tuple[Module, InjectiveHom]:
    """Transport a module over H <= G to one over aHa^-1.

    The conjugate of h acts exactly as h did; the returned hom is the
    identification x |-> a^-1 x a from (aHa^-1)-as-a-group to H-as-a-group
    along which the transported module is the restriction.
    """
    Hgrp, Hel = H.as_group()
    if N.group is not Hgrp:
        raise ValueError("module does not live over the subgroup's group")
    K = H.conjugate_by(a)
    Kgrp, Kel = K.as_group()
    Hpos = {g: i for i, g in enumerate(Hel)}
    back = tuple(Hpos[G.mul(G.inv(a), G.mul(k, a))] for k in Kel)
    ident = InjectiveHom(Kgrp, Hgrp, back)
    return restrict(ident, N), ident


def tensor(M: Module, N: Module) -> Module:
    """M (x) N with the diagonal action; basis ordered (i, j) -> i*dim(N)+j."""
    if M.group is not N.group or M.field != N.field:
        raise ValueError("tensor factors must share group and field")
    G, dim = M.group, M.dim * N.dim
    if M.is_permutation and N.is_permutation:
        return Module(G, M.field, dim, gset=M.gset.product(N.gset), check=False)
    return Module._of(G, M._stack().kron(N._stack()))


def direct_sum(parts: Sequence[Module]) -> Tuple[Module, List[int]]:
    """Block direct sum; returns the sum and the block offsets."""
    G, field = parts[0].group, parts[0].field
    offsets, total = [], 0
    for m in parts:
        if m.group is not G or m.field != field:
            raise ValueError("direct summands must share group and field")
        offsets.append(total)
        total += m.dim
    if all(m.is_permutation for m in parts):
        gset = parts[0].gset.disjoint_union(*(m.gset for m in parts[1:]))
        return Module(G, field, total, gset=gset, check=False), offsets
    return Module._of(G, Mat.block_diag(field, [m._stack() for m in parts])), offsets


# ---------------------------------------------------------------------------
# block-monomial maps


def _refuse_oversize(entries: int, what: str) -> None:
    if entries > MAX_DENSE_ENTRIES:
        raise ValueError(f"{what} would have {entries} entries, above the cap of "
                         f"{MAX_DENSE_ENTRIES}")


def _monomial(M: Module, nr: int, nc: int, rows, cols, elems) -> Mat:
    """The nr x nc grid of dim(M)-square blocks with A(elems[k]) at the
    distinct positions (rows[k], cols[k]) and zeros elsewhere: the shape of
    every exchange map here.  One scatter from the action table of a
    permutation module, one gather from the action stack of a dense one;
    refused (ValueError) above MAX_DENSE_ENTRIES entries before anything is
    allocated."""
    d = M.dim
    _refuse_oversize(nr * nc * d * d, "block-monomial map")
    rows, cols, elems = (np.asarray(a, dtype=np.int64) for a in (rows, cols, elems))
    if M.is_permutation:
        out = np.zeros((nr * d, nc * d), dtype=np.int64)
        out[rows[:, None] * d + M.gset.action[elems], cols[:, None] * d + np.arange(d)] = 1
        return Mat._of(M.field, out)
    out = np.zeros((nr, d, nc, d), dtype=M._A.num.dtype)
    out[rows, :, cols, :] = M._A.num[elems]
    return Mat(M.field, out.reshape(nr * d, nc * d), M._A.den)


# ---------------------------------------------------------------------------
# the two-sided adjunction


@dataclass
class AdjunctionData:
    """The four structure maps of Ind -| Res -| Ind at a pair (M over G, N over H)."""

    group: FiniteGroup
    subgroup: Subgroup
    M: Module
    N: Module
    ind_N: Module
    res_M: Module
    res_ind_N: Module
    ind_res_M: Module
    eta_left: ModuleHom    # N -> Res Ind N
    eps_left: ModuleHom    # Ind Res M -> M
    eta_right: ModuleHom   # M -> Ind Res M
    eps_right: ModuleHom   # Res Ind N -> N

    def separable_composite(self) -> ModuleHom:
        """eps_right o eta_left : N -> N (should be the identity)."""
        return self.eps_right @ self.eta_left

    def cohomological_composite(self) -> ModuleHom:
        """eps_left o eta_right : M -> M (should be [G:H] times the identity)."""
        return self.eps_left @ self.eta_right


def unit_counit(G: FiniteGroup, H: Subgroup, M: Module, N: Module) -> AdjunctionData:
    """Units and counits of the two adjunctions at (M over G, N over H).

    All four triangle identities are verified exactly; failure is a hard
    error.  The composite identities (separability, multiplication by the
    index) are exposed on the returned object but not asserted here.
    """
    Hgrp, Hel = H.as_group()
    if M.group is not G or N.group is not Hgrp:
        raise ValueError("modules live over the wrong groups")
    incl = H.inclusion_hom()
    ind_N = induce(incl, N)
    res_M = restrict(incl, M)
    res_ind_N = restrict(incl, ind_N)
    ind_res_M = induce(incl, res_M)
    reps, coset_of = G.left_transversal(H)
    c0 = int(coset_of[G.identity])  # the coset H, whose representative t0 lies in H
    nc, cs, r = len(reps), np.arange(len(reps)), np.asarray(reps)
    h0, h0inv = Hel.index(reps[c0]), Hel.index(G.inv(reps[c0]))  # t0, t0^-1 in H
    # block (c, 0) of eta_right is A(t_c^-1), block (0, c) of eps_left is A(t_c);
    # eta_left and eps_right have one block, at the coset c0
    eta_l = lambda X: _monomial(X, nc, 1, [c0], [0], [h0inv])
    eps_l = lambda X: _monomial(X, 1, nc, [0] * nc, cs, r)
    eta_r = lambda X: _monomial(X, nc, 1, cs, [0] * nc, G.inverse[r])
    eps_r = lambda X: _monomial(X, 1, nc, [0], [c0], [h0])
    eta_left = ModuleHom(N, res_ind_N, eta_l(N))
    eps_left = ModuleHom(ind_res_M, M, eps_l(M))
    eta_right = ModuleHom(M, ind_res_M, eta_r(M))
    eps_right = ModuleHom(res_ind_N, N, eps_r(N))

    # Ind of a map of H-modules with one block at c0 puts that block at
    # (c, c * nc + c0) for every coset c
    # triangle 1: eps_left(Ind N) o Ind(eta_left) = id on Ind N
    t1 = eps_l(ind_N) @ _monomial(N, nc * nc, nc, cs * nc + c0, cs, [h0inv] * nc)
    # triangle 2: Res(eps_left M) o eta_left(Res M) = id on Res M
    t2 = eps_left.mat @ eta_l(res_M)
    # triangle 3: eps_right(Res M) o Res(eta_right) = id on Res M
    t3 = eps_r(res_M) @ eta_right.mat
    # triangle 4: Ind(eps_right) o eta_right(Ind N) = id on Ind N
    t4 = _monomial(N, nc, nc * nc, cs, cs * nc + c0, [h0] * nc) @ eta_r(ind_N)
    for name, t in [("left-1", t1), ("left-2", t2), ("right-1", t3), ("right-2", t4)]:
        if not t.is_identity():
            raise ArithmeticError(f"triangle identity {name} fails for H of order {H.order}")
    return AdjunctionData(G, H, M, N, ind_N, res_M, res_ind_N, ind_res_M,
                          eta_left, eps_left, eta_right, eps_right)


# ---------------------------------------------------------------------------
# double-coset comparison


@dataclass
class MackeyComponent:
    coset_rep: int
    left_subgroup_order: int  # |K n xHx^-1|
    module: Module


@dataclass
class MackeyIsoData:
    left: Module
    right: Module
    forward: ModuleHom
    backward: ModuleHom
    components: List[MackeyComponent]


def mackey_iso(G: FiniteGroup, K: Subgroup, H: Subgroup, N: Module) -> MackeyIsoData:
    """The double-coset decomposition of Res_K Ind_H N.

    Builds sum_x Ind^K_{K n xHx^-1} conj_x Res^H_{H n x^-1Kx} N together
    with the exchange map (t (x) n |-> tx (x) n on the x-summand) and its
    inverse, checks both composites are identities and that the dimensions
    match sum_x [K : K n xHx^-1] * dim N = [G:H] * dim N.
    """
    Hgrp, Hel = H.as_group()
    Kgrp, Kel = K.as_group()
    if N.group is not Hgrp:
        raise ValueError("N must live over H")
    dc = G.double_cosets(K, H)
    d = N.dim

    comps: List[MackeyComponent] = []
    ts: List[np.ndarray] = []  # per part: the transversal of K n xHx^-1 in K, times x
    for x, A in zip(dc.representatives, dc.intersections):
        # A = K n xHx^-1 as a group: into K by inclusion, into H by a |-> x^-1 a x
        Agrp, Ael = A.as_group()
        into_K = InjectiveHom(Agrp, Kgrp, tuple(np.searchsorted(Kel, Ael).tolist()))
        into_H = InjectiveHom(Agrp, Hgrp, tuple(np.searchsorted(
            Hel, G.table[G.table[G.inv(x), list(Ael)], x]).tolist()))
        part = induce(into_K, restrict(into_H, N))
        comps.append(MackeyComponent(x, A.order, part))
        ts.append(G.table[np.asarray(Kel)[into_K.induction_table()[0]], x])

    left, _ = direct_sum([c.module for c in comps])
    right = restrict(K.inclusion_hom(), induce(H.inclusion_hom(), N))
    w_reps, w_coset_of = G.left_transversal(H)

    # block c of the left side (the c-th t of its summand) sends t (x) e_j to
    # tx (x) e_j = w (x) A(h) e_j where tx = w h, and back w (x) e_j to t (x) A(h^-1) e_j
    tx = np.concatenate(ts)
    w = w_coset_of[tx]
    h = np.searchsorted(Hel, G.table[G.inverse[np.asarray(w_reps)[w]], tx])
    cs = np.arange(len(tx))
    fwd = _monomial(N, len(w_reps), len(tx), w, cs, h)
    bwd = _monomial(N, len(tx), len(w_reps), cs, w, Hgrp.inverse[h])
    forward = ModuleHom(left, right, fwd)
    backward = ModuleHom(right, left, bwd)
    if not (fwd @ bwd).is_identity() or not (bwd @ fwd).is_identity():
        raise ArithmeticError("double-coset comparison maps are not mutually inverse")
    expected = sum(Kgrp.order // c.left_subgroup_order for c in comps) * d
    if left.dim != expected or right.dim != (G.order // H.order) * d:
        raise ArithmeticError("double-coset dimension bookkeeping is off")
    return MackeyIsoData(left, right, forward, backward, comps)


# ---------------------------------------------------------------------------
# projection maps


@dataclass
class ProjectionData:
    pi: ModuleHom          # Ind(Res X (x) Y) -> X (x) Ind Y
    pi_inverse: ModuleHom
    mirror: ModuleHom      # Ind(Y (x) Res X) -> Ind Y (x) X
    mirror_inverse: ModuleHom


def projection_map(G: FiniteGroup, H: Subgroup, X: Module, Y: Module) -> ProjectionData:
    """The exchange isomorphisms t (x) (m (x) n) |-> t m (x) (t (x) n) and its
    mirror, with explicit inverses; all four maps are verified equivariant and
    the composites checked to be identities."""
    Hgrp, _ = H.as_group()
    if X.group is not G or Y.group is not Hgrp:
        raise ValueError("X must live over G and Y over H")
    _refuse_oversize((H.index * X.dim * Y.dim) ** 2, "projection map")  # before any module
    incl = H.inclusion_hom()
    res_X = restrict(incl, X)
    ind_Y = induce(incl, Y)
    src = induce(incl, tensor(res_X, Y))
    tgt = tensor(X, ind_Y)
    src_m = induce(incl, tensor(Y, res_X))
    tgt_m = tensor(ind_Y, X)
    reps, _ = G.left_transversal(H)
    nc, dx, dy = len(reps), X.dim, Y.dim

    # the mirror sends (c, j, i) to sum_i2 A(t_c)[i2, i] (c, j, i2): block (c, j)
    # of its grid is A(t_c), and A(t_c^-1) in its inverse
    k = np.arange(nc * dy)
    t = np.repeat(reps, dy)
    mir = _monomial(X, nc * dy, nc * dy, k, k, t)
    mir_inv = _monomial(X, nc * dy, nc * dy, k, k, G.inverse[t])
    # pi is the mirror read at other indices: its target (i2, c, j) and source
    # (c, i, j) are the mirror's (c, j, i2) and (c, j, i)
    at = np.arange(nc * dy * dx).reshape(nc, dy, dx)  # the mirror's index of (c, j, i)
    at_tgt, at_src = at.transpose(2, 0, 1).ravel(), at.transpose(0, 2, 1).ravel()
    pi = ModuleHom(src, tgt, mir[np.ix_(at_tgt, at_src)])
    pi_inv = ModuleHom(tgt, src, mir_inv[np.ix_(at_src, at_tgt)])
    if not (pi.mat @ pi_inv.mat).is_identity() or not (pi_inv.mat @ pi.mat).is_identity():
        raise ArithmeticError("projection map is not invertible")
    mirror = ModuleHom(src_m, tgt_m, mir)
    mirror_inv = ModuleHom(tgt_m, src_m, mir_inv)
    if not (mir @ mir_inv).is_identity() or not (mir_inv @ mir).is_identity():
        raise ArithmeticError("mirror projection map is not invertible")
    return ProjectionData(pi, pi_inv, mirror, mirror_inv)


# ---------------------------------------------------------------------------
# Frobenius structure on k[G/H]


@dataclass
class FrobeniusLaw:
    name: str
    holds: bool


@dataclass
class FrobeniusObject:
    """k[G/H] with pointwise multiplication, diagonal comultiplication, the
    all-ones unit and the sum-of-coefficients counit."""

    module: Module
    mul: ModuleHom       # A (x) A -> A
    comul: ModuleHom     # A -> A (x) A
    unit: ModuleHom      # k -> A
    counit: ModuleHom    # A -> k

    def verify(self) -> List[FrobeniusLaw]:
        """The seven laws as equalities of the index tensors m[k, i, j] (the
        coefficient of e_k in mu(e_i (x) e_j)) and c[i, j, k] (that of
        e_i (x) e_j in delta(e_k)), by exact contractions.  The monoid laws
        are `linalg._algebra_laws` on the left-multiplication stack
        L[i, k, j] = m[k, i, j], and the comonoid laws on that of the dual,
        L[i, k, j] = c[i, j, k].  A d^4 law tensor is refused ("associativity
        tensor", ValueError) above MAX_DENSE_ENTRIES entries."""
        d = self.module.dim
        _refuse_oversize(d ** 4, "associativity tensor")
        mu, de, io, ep = self.mul.mat, self.comul.mat, self.unit.mat, self.counit.mat
        m, c = mu.reshape(d, d, d), de.reshape(d, d, d)
        # delta is coassociative and counital exactly when the dual algebra,
        # e^i e^j = sum_k c[i, j, k] e^k with the counit as its unit, is
        # associative and unital
        (assoc, unit), (coassoc, counit) = (
            (bool(a.all()), bool(left.all() and right.all()))
            for left, right, _, a in (_algebra_laws(m.transpose(1, 0, 2), io),
                                      _algebra_laws(c.transpose(0, 2, 1), ep.T)))
        # sum_a c[k,l,a] m[a,i,j] = sum_a m[k,i,a] c[a,l,j] = sum_a c[k,a,i] m[l,a,j]
        dm = (c @ m.reshape(d, d * d)).reshape(d, d, d, d)                      # [k, l, i, j]
        frob = [m @ c.reshape(d, d * d),                                        # [k, i, (l, j)]
                c.transpose(0, 2, 1) @ m.transpose(1, 0, 2).reshape(d, d * d)]
        return [
            FrobeniusLaw("associativity", assoc),
            FrobeniusLaw("coassociativity", coassoc),
            FrobeniusLaw("unit", unit),
            FrobeniusLaw("counit", counit),
            FrobeniusLaw("frobenius", all(f.reshape(d, d, d, d).transpose(0, 2, 1, 3) == dm
                                          for f in frob)),
            FrobeniusLaw("specialness", (mu @ de).is_identity()),
            FrobeniusLaw("commutativity", m == m.transpose(0, 2, 1) and c == c.transpose(1, 0, 2)),
        ]

    @property
    def ok(self) -> bool:
        return all(l.holds for l in self.verify())


def frobenius_object(G: FiniteGroup, H: Subgroup, field: Field) -> FrobeniusObject:
    A = permutation_module(G, H, field)
    d = A.dim
    mu = np.zeros((d, d * d), dtype=np.int64)
    mu[np.arange(d), np.arange(d) * (d + 1)] = 1  # e_i e_j = [i = j] e_i
    unit = np.ones((d, 1), dtype=np.int64)
    AA, k = tensor(A, A), trivial_module(G, field)
    return FrobeniusObject(A, ModuleHom(AA, A, Mat(field, mu)),
                           ModuleHom(A, AA, Mat(field, mu.T.copy())),
                           ModuleHom(k, A, Mat(field, unit)), ModuleHom(A, k, Mat(field, unit.T)))


# ---------------------------------------------------------------------------
# hom spaces, isomorphism, decomposition


def hom_space(M: Module, N: Module) -> List[ModuleHom]:
    """A basis of Hom_kG(M, N), in reduced echelon form (deterministic).

    Between permutation modules k[X] and k[Y] a map is equivariant exactly
    when it is constant on the G-orbits of X x Y, so the orbit indicators
    are a basis in every characteristic (the orbital, or Hecke, basis).
    Point (x, y) has index x*|Y| + y, the column-major position of entry
    (y, x); the indicators have disjoint supports and are listed by their
    least point, so they already are the reduced echelon basis.  Otherwise
    the Kronecker system A_N(s) f = f A_M(s) is solved for every generator.
    """
    if M.group is not N.group or M.field != N.field:
        raise ValueError("hom space needs a common group and field")
    f = M.field
    if M.is_permutation and N.is_permutation:
        act = M.gset.product(N.gset).action
        lab = act.min(axis=0)  # orbit minimum per point
        # a G-invariant labelling makes every indicator equivariant: one gather
        # per generator checks them all
        if _unnatural(lab, act[M.group.generators()].T).any():
            raise ArithmeticError("orbit labelling of X x Y is not G-invariant")
        return [ModuleHom(M, N, Mat(f, (lab == m).reshape(M.dim, N.dim).T.astype(np.int64)),
                          check=False)
                for m in np.unique(lab)]
    system = [Mat.identity(f, M.dim).kron(N.action(s)) - M.action(s).T.kron(Mat.identity(f, N.dim))
              for s in M.group.generators()]
    basis = Mat.concat(f, [Mat.zeros(f, 0, M.dim * N.dim)] + system).nullspace()
    if basis.ncols == 0:
        return []
    E = _echelon_basis(basis.T.reshape(basis.ncols, M.dim, N.dim).transpose(0, 2, 1))
    _check_intertwines(M, N, E)
    return [ModuleHom(M, N, E[k].copy(), check=False) for k in range(E.shape[0])]


def _may_be_isomorphic(M: Module, N: Module) -> bool:
    """The early exits of `module_isomorphism`: same group, field and
    dimension, and the same trace on every conjugacy class."""
    return (M.dim == N.dim and M.field == N.field and M.group is N.group and all(
        M.action(c[0]).trace() == N.action(c[0]).trace() for c in M.group.conjugacy_classes()))


def module_isomorphism(M: Module, N: Module, seed: int = 0,
                       tries: int = 60) -> Optional[ModuleHom]:
    """Search for an isomorphism M -> N.

    The basis of Hom(M, N) is tried first.  Over F_p the span is then
    searched exhaustively when it has at most EXHAUSTIVE_END_CAP elements
    (a definitive verdict); otherwise, and always over Q, seeded random
    combinations are tried.  Over F_p the candidates are tested for
    invertibility in batches, in this fixed order, and the first invertible
    one is returned, so the result is the one that testing them one by one
    would give.
    """
    if not _may_be_isomorphic(M, N):
        return None
    basis = hom_space(M, N)
    if not basis:
        return None
    e, B = len(basis), Mat.stack(M.field, [h.mat for h in basis], (N.dim, M.dim))
    if M.field.p is not None:
        return _isomorphism_in(M, N, B, seed, tries)
    for h in basis:
        if h.mat.is_invertible():
            return h
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        mat = (Mat(M.field, rng.integers(-5, 6, size=(1, e))) @ B.reshape(e, -1)).reshape(N.dim, M.dim)
        if mat.is_invertible():
            return ModuleHom(M, N, mat, check=False)
    return None


def _isomorphism_in(M: Module, N: Module, B: Mat, seed: int,
                    tries: int = 60) -> Optional[ModuleHom]:
    """`module_isomorphism`'s F_p search in the span of the stack B, the
    basis of Hom_kG(M, N) that `hom_space` returns."""
    p, e = M.field.p, B.shape[0]
    if e == 0:
        return None
    combinations = ((p**e, _every_combination(B)) if p**e <= EXHAUSTIVE_END_CAP
                    else (tries, _sampled(B, seed)))
    hit = _first_passing([(e, lambda lo, hi: B.num[lo:hi]), combinations],
                         lambda z: _rank_mod_stack(z, p) == M.dim, M.dim * M.dim)
    return None if hit is None else ModuleHom(M, N, Mat(M.field, hit[2]), check=False)


def _combinations(B: Mat, coeffs: np.ndarray) -> np.ndarray:
    """sum_i coeffs[k, i] B[i] for every row k of a stack B over F_p, as
    one contraction: the stack of their residues."""
    e, r, c = B.shape
    return (Mat(B.field, coeffs) @ B.reshape(e, r * c)).num.reshape(-1, r, c)


def _sampled(B: Mat, seed: int):
    """`make` for the seeded random combinations of B.  Each combination's
    coefficients come from one `rng.integers(0, p, size=e)` call, drawn
    only when a window asks for them; windows ask for consecutive rows, so
    the stream is the one that a one-by-one search draws."""
    rng = np.random.default_rng(seed)
    e, p = B.shape[0], B.field.p

    def make(lo: int, hi: int) -> np.ndarray:
        return _combinations(B, np.array([rng.integers(0, p, size=e) for _ in range(lo, hi)]))
    return make


def _every_combination(B: Mat):
    """`make` for all p^e combinations of B in `itertools.product` order:
    the coefficients of combination k are the base-p digits of k, most
    significant first."""
    p = B.field.p
    place = p ** np.arange(B.shape[0] - 1, -1, -1, dtype=np.int64)

    def make(lo: int, hi: int) -> np.ndarray:
        k = np.arange(lo, hi, dtype=np.int64)[:, None]
        return _combinations(B, k // place % p)
    return make


def _first_passing(sections, test, entries: int):
    """The first candidate, in order, that passes a vectorised `test`.

    `sections` lists (count, make) pairs, where `make(lo, hi)` stacks
    candidates lo..hi-1 of its section.  Each section is made and tested in
    windows of 4, 16, 64, ... matrices, up to SEARCH_WINDOW_ENTRIES entries
    (a matrix has `entries`), so an early hit costs one small batch and
    temporaries stay small.  The least passing index of a window wins, so
    the hit is the one that testing one candidate at a time would return.
    Returns (section, index in section, matrix) or None.
    """
    cap = max(1, SEARCH_WINDOW_ENTRIES // max(1, entries))
    for s, (count, make) in enumerate(sections):
        lo, w = 0, 4
        while lo < count:
            hi = min(count, lo + w)
            stack = make(lo, hi)
            ok = np.flatnonzero(test(stack))
            if ok.size:
                return s, lo + int(ok[0]), stack[ok[0]]
            lo, w = hi, min(4 * w, cap)
    return None


@dataclass
class DecompositionResult:
    module: Module
    summands: List[Module]
    transform: Mat  # P with P^-1 A(g) P block-diagonal in summand order
    iso_classes: List[Tuple[int, List[int]]]  # (representative index, member indices)
    certified: bool  # every leaf's endomorphism ring certified local exhaustively

    def multiplicities(self) -> List[Tuple[Module, int]]:
        return [(self.summands[rep], len(members)) for rep, members in self.iso_classes]


def decompose(M: Module, seed: int = 0) -> DecompositionResult:
    """Split M into indecomposable summands with a change-of-basis certificate.

    Splitting elements are drawn from End(M) in a fixed order: basis
    elements, pairwise products, then seeded random combinations; a z with
    0 < rank(z^dim) < dim yields a Fitting splitting ker(z^dim) + im(z^dim).
    The candidates are tested in batches, and the first one that splits is
    used, the same one that testing them one by one would find, so the
    result does not depend on the batching.  A leaf is accepted when End is
    one-dimensional or, when |End| is at most EXHAUSTIVE_END_CAP, after an
    exhaustive search finds no splitting element (a complete locality
    test); otherwise every sampled candidate was nilpotent or invertible
    and the leaf is marked uncertified.

    End(M) is one `hom_space` call.  After X = X1 + X2 is split by P, End(Xi)
    is spanned by the blocks (P^-1 f P)_ii over End(X), and Hom(Xi, Xj) by
    the (j, i) blocks of P^-1 End(M) P; reduced (`_echelon_basis`), they are
    `hom_space`'s bases of the summands, with no linear system solved.
    """
    if M.field.p is None:
        raise ValueError("decompose requires a prime field")
    if M.dim > MAX_DECOMPOSE_DIM:
        raise ValueError(f"dimension {M.dim} exceeds the decomposition cap {MAX_DECOMPOSE_DIM}")
    if M.dim == 0:
        raise ValueError("cannot decompose the zero module")
    certified = True

    def split(X: Module, B: Optional[Mat], depth: int) -> Tuple[List[Module], Mat]:
        # B: the basis stack of End(X), None when X is one-dimensional
        nonlocal certified
        if depth > M.dim:
            raise DecompositionError("decomposition failed: recursion budget exceeded")
        z = B is None or _find_splitter(X, B, seed)
        if isinstance(z, bool):  # leaf; value = certified exhaustively?
            certified = certified and z
            return [X], Mat.identity(X.field, X.dim)
        zn = z.pow(X.dim)
        ker = zn.nullspace()
        im_basis, piv = zn.T.rref()
        img = Mat(X.field, im_basis.num[: len(piv), :].T.copy(), im_basis.den)
        P = ker.hstack(img)
        if ker.ncols == 0 or img.ncols == 0 or not P.is_invertible():
            raise DecompositionError("Fitting splitting degenerated")
        Pinv = P.inv()
        C = Pinv @ (X._stack() @ P)
        a = ker.ncols
        if C.num[:, :a, a:].any() or C.num[:, a:, :a].any():
            raise DecompositionError("Fitting subspaces are not invariant")
        leaves, Qs = [], []
        for part in (slice(None, a), slice(a, None)):
            Xi = Module._of(X.group, C[:, part, part])
            Bi = _echelon_basis(Pinv[part] @ (B @ P[:, part])) if Xi.dim > 1 else None
            li, Qi = split(Xi, Bi, depth + 1)
            leaves += li
            Qs.append(Qi)
        return leaves, P @ Mat.block_diag(X.field, Qs)

    B = _end_basis(M) if M.dim > 1 else None
    leaves, P = split(M, B, 0)
    # certificate: the invertible P intertwines the sum of the leaves with M
    gens, Pinv = M.group.generators(), P.inv()
    leaves_at = Mat.block_diag(M.field, [leaf._stack(gens) for leaf in leaves])
    if _unnatural(P[None], np.zeros((1, len(gens)), dtype=np.int64), leaves_at[None],
                  M._stack(gens)[None]).any():
        raise DecompositionError("certificate verification failed")
    iso_classes: List[Tuple[int, List[int]]] = []
    E = None  # P^-1 End(M) P, formed when two leaves are first compared
    for idx, leaf in enumerate(leaves):
        for rep, members in iso_classes:
            if not _may_be_isomorphic(leaves[rep], leaf):
                continue
            if E is None:
                E, cut = Pinv @ (B @ P), np.cumsum([0] + [x.dim for x in leaves])
            H = _echelon_basis(E[:, cut[idx]:cut[idx + 1], cut[rep]:cut[rep + 1]])
            if _isomorphism_in(leaves[rep], leaf, H, seed) is not None:
                members.append(idx)
                break
        else:
            iso_classes.append((idx, [idx]))
    return DecompositionResult(M, leaves, P, iso_classes, certified)


def _end_basis(X: Module) -> Mat:
    """`hom_space(X, X)` as one stack [e, d, d]."""
    return Mat.stack(X.field, [h.mat for h in hom_space(X, X)], (X.dim, X.dim))


def _echelon_basis(S: Mat) -> Mat:
    """The reduced echelon basis of the span of the stack S [b, r, c] in
    `hom_space`'s form: the RREF of the column-major flattenings.  A space
    has one such basis, so on a spanning set of Hom(M, N) it is, bit for
    bit, the basis that `hom_space(M, N)` returns."""
    b, r, c = S.shape
    R, piv = S.transpose(0, 2, 1).reshape(b, r * c).rref()
    return R[:len(piv)].reshape(len(piv), c, r).transpose(0, 2, 1)


def _find_splitter(X: Module, B: Mat, seed: int):
    """A splitting endomorphism of X, or True/False for a leaf, searched in
    the span of B, the basis stack of End(X) that `hom_space` returns.

    True means the leaf is certified indecomposable: End(X) is one-
    dimensional, or all of its p^e elements were searched.  False means
    only the sampled candidates were searched.  The candidates, in order:
    the basis of End(X), the pairwise products of its first eight elements,
    40 + 10e seeded random combinations, and, when p^e is at most
    EXHAUSTIVE_END_CAP, every combination in `itertools.product` order.
    They are tested in batches (`_first_passing`) and the first z with
    0 < rank(z^dim) < dim is returned, the one that testing them one by
    one would find; a scalar z has rank(z^dim) 0 or dim, so it never passes.
    """
    d, e = X.dim, B.shape[0]
    if e == 1:
        return True
    p = X.field.p
    q = min(e, 8)

    def products(lo, hi):
        k = np.arange(lo, hi)
        return (B[k // q] @ B[k % q]).num

    sections = [(e, lambda lo, hi: B.num[lo:hi]),
                (q * q, products),
                (40 + 10 * e, _sampled(B, seed))]
    exhaustive = p**e <= EXHAUSTIVE_END_CAP
    if exhaustive:
        sections.append((p**e, _every_combination(B)))

    def splits(z):
        r = _rank_mod_stack(_pow_mod_stack(z, d, p), p)
        return (0 < r) & (r < d)

    hit = _first_passing(sections, splits, d * d)
    if hit is None:
        return exhaustive  # certified only if no idempotent other than 0 and 1 exists
    return Mat(X.field, hit[2])


@dataclass
class SummandWitness:
    injection: ModuleHom
    retraction: ModuleHom


def is_summand(M: Module, X: Module, seed: int = 0) -> Optional[SummandWitness]:
    """A split injection/retraction pair exhibiting M as a direct summand of X,
    or None.  Both modules are decomposed and the factors matched up to
    isomorphism (multiplicities respected)."""
    if M.field.p is None:
        raise ValueError("is_summand requires a prime field (decompose does)")
    DM = decompose(M, seed=seed)
    DX = decompose(X, seed=seed)
    used: List[int] = []
    pairing: List[Tuple[int, int, ModuleHom]] = []
    for mi, mleaf in enumerate(DM.summands):
        found = None
        for xi, xleaf in enumerate(DX.summands):
            if xi in used or xleaf.dim != mleaf.dim:
                continue
            iso = module_isomorphism(mleaf, xleaf, seed=seed)
            if iso is not None:
                found = (xi, iso)
                break
        if found is None:
            return None
        used.append(found[0])
        pairing.append((mi, found[0], found[1]))
    f = M.field
    offM = np.cumsum([0] + [s.dim for s in DM.summands])
    offX = np.cumsum([0] + [s.dim for s in DX.summands])
    J = Mat.from_blocks(f, X.dim, M.dim, [(int(offX[xi]), int(offM[mi]), iso.mat)
                                          for mi, xi, iso in pairing])
    R = Mat.from_blocks(f, M.dim, X.dim, [(int(offM[mi]), int(offX[xi]), iso.mat.inv())
                                          for mi, xi, iso in pairing])
    inj = ModuleHom(M, X, DX.transform @ J @ DM.transform.inv())
    ret = ModuleHom(X, M, DM.transform @ R @ DX.transform.inv())
    if not (ret.mat @ inj.mat).is_identity():
        raise DecompositionError("summand witness failed its retraction check")
    return SummandWitness(inj, ret)


# ---------------------------------------------------------------------------
# vertices and the Green correspondence


def _relative_trace_stack(M: Module, S: Subgroup) -> Mat:
    """Tr^G_S(phi) = sum_t A(t) phi A(t)^-1 over the basis of End_kS(Res M)
    that `hom_space` returns, a chunk of basis elements at a time, as one
    stack [b, d, d] (empty when End_kS(Res M) is zero).  The terms A(t) phi
    are one stacked product, and their sum against the A(t^-1) stacked
    below each other is another.
    """
    G, f, d = M.group, M.field, M.dim
    resM = restrict_to(M, S)
    B = Mat.stack(f, [h.mat for h in hom_space(resM, resM)], (d, d))
    reps = np.asarray(G.left_transversal(S)[0])
    nt, b, A = len(reps), B.shape[0], M._stack()
    left, right = A[reps], A[G.inverse[reps]].reshape(nt * d, d)
    step = max(1, SEARCH_WINDOW_ENTRIES // max(1, nt * d * d))
    # an empty basis still makes one (empty) chunk, so the stack has its shape
    return Mat.concat(f, [(left @ x[:, None]).transpose(0, 2, 1, 3).reshape(x.shape[0], d, nt * d)
                          @ right for x in (B[k:k + step] for k in range(0, max(b, 1), step))])


def relatively_projective(M: Module, S: Subgroup) -> bool:
    """Higman's criterion: M is relatively S-projective iff the identity lies
    in the image of the relative trace from End_kS(Res_S M).

    On k[X] the S-orbit indicators 1_O on X x X span End_kS, and
    Tr^G_S(1_O) = (|G| |O|) / (|S| |W|) 1_W for O inside the G-orbit W, so
    k[X] passes exactly when every G-orbit of X has a point x with p not
    dividing |G_x : S n G_x| (over Q always).  Otherwise column k of the
    system is vec(Tr(phi_k)), read off the trace stack; the zero module is
    projective relative to every subgroup.
    """
    p, d = M.field.p, M.dim
    if S.parent is not M.group:
        raise ValueError("S is not a subgroup of the module's group")
    if M.is_permutation:
        if p is None:
            return True
        act, G = M.gset.action, M.group
        g_lab, s_lab = act.min(axis=0), act[S.mask].min(axis=0)  # orbit minima
        # |G_x : S n G_x| = (|G| / |Gx|) / (|S| / |Sx|)
        index = G.order * np.bincount(s_lab, minlength=d)[s_lab] // (
            S.order * np.bincount(g_lab, minlength=d)[g_lab])
        return bool(np.isin(g_lab, g_lab[index % p != 0]).all())  # a point per G-orbit
    T = _relative_trace_stack(M, S)
    stacked = T.transpose(0, 2, 1).reshape(T.shape[0], d * d).T
    return stacked.solve(Mat.identity(M.field, d).vec()) is not None


@dataclass
class VertexResult:
    vertex: Subgroup
    relatively_projective_classes: List[Subgroup]
    checked_classes: List[Subgroup]


def vertex(M: Module, require_indecomposable: bool = True) -> VertexResult:
    """The vertex of an indecomposable module over F_p.

    Scans all conjugacy classes of p-subgroups for relative projectivity
    (stabiliser indices on a permutation module, Higman's criterion
    otherwise) and returns the unique minimal class; a hard error is raised
    if the minimal relatively projective classes are not a single conjugacy
    class.  With `require_indecomposable`, M must first be certified
    indecomposable by `_find_splitter` (End(M) one-dimensional or searched
    exhaustively): a ValueError is raised if a splitting element is found,
    and also if End(M) is too large to search, since a sampled search
    proves nothing.
    """
    p = M.field.p
    if p is None:
        raise ValueError("vertices are defined over prime fields here")
    if require_indecomposable:
        s = M.dim == 1 or _find_splitter(M, _end_basis(M), seed=0)
        if s is False:
            raise ValueError(
                "indecomposability could not be certified: End(M) has more than "
                f"{EXHAUSTIVE_END_CAP} elements and a sampled search found no splitting")
        if s is not True:
            raise ValueError("vertex requires an indecomposable module")
    G = M.group
    # n is a power of p exactly when n divides p^n
    pclasses = [S for S in G.subgroups_up_to_conjugacy() if pow(p, S.order, S.order) == 0]
    proj = [S for S in pclasses if relatively_projective(M, S)]
    if not proj:
        raise ArithmeticError("no relatively projective p-class found (broken invariant)")
    minimal = [S for S in proj
               if not any(T is not S and T.is_subconjugate_to(S) for T in proj)]
    if len(minimal) != 1:
        raise ArithmeticError(
            f"vertex is not unique up to conjugacy: {len(minimal)} minimal classes")
    return VertexResult(minimal[0], proj, pclasses)


def _vertex_family(G: FiniteGroup, H: Subgroup, D: Subgroup) -> List[Subgroup]:
    """D n xDx^-1 over the D\\G/D representatives x outside H (D <= H), which
    meets every G-class of D n gDg^-1 with g outside H."""
    dc = G.double_cosets(D, D)
    return [A for x, A in zip(dc.representatives, dc.intersections) if x not in H]


@dataclass
class GreenCorrespondence:
    correspondent: Module
    induced: Module
    decomposition: DecompositionResult
    correspondent_indices: List[int]
    other_vertices: List[Tuple[int, Subgroup]]
    round_trip: SummandWitness


def green_correspondent(G: FiniteGroup, H: Subgroup, D: Subgroup, n: Module,
                        seed: int = 0) -> GreenCorrespondence:
    """The Green correspondent of an indecomposable H-module n with vertex D.

    Requires N_G(D) <= H <= G.  Ind_H^G n is decomposed; exactly one
    isomorphism class of summands with vertex conjugate to D (and it has
    multiplicity one) is the correspondent.  Every other summand's vertex is
    checked to be subconjugate to some D n gDg^-1 with g outside H, and the
    round trip (n is a summand of Res_H of the correspondent) is certified
    with an explicit witness.
    """
    Hgrp, Hel = H.as_group()
    if n.group is not Hgrp:
        raise ValueError("n must live over H")
    if not D <= H:
        raise ValueError("D must be contained in H")
    if not G.normalizer(D) <= H:
        raise ValueError("the normalizer of D must be contained in H")
    D_in_H = Hgrp.subgroup(np.searchsorted(Hel, D.elements).tolist())
    vx = vertex(n)
    if not vx.vertex.is_conjugate_to(D_in_H):
        raise ValueError("the vertex of n is not conjugate to D in H")

    X = induce(H.inclusion_hom(), n)
    DX = decompose(X, seed=seed)
    relevant = _vertex_family(G, H, D)

    matches: List[int] = []
    others: List[Tuple[int, Subgroup]] = []
    for rep, members in DX.iso_classes:
        v = vertex(DX.summands[rep]).vertex
        if v.is_conjugate_to(D):
            matches.extend(members)
        else:
            for m in members:
                others.append((m, v))
            if not any(v.is_subconjugate_to(s) for s in relevant):
                raise ArithmeticError(
                    "a non-correspondent summand has vertex outside the expected family")
    if len(matches) != 1:
        raise ArithmeticError(
            f"expected exactly one vertex-D summand, found {len(matches)}")
    corr = DX.summands[matches[0]]
    res_corr = restrict(H.inclusion_hom(), corr)
    witness = is_summand(n, res_corr, seed=seed)
    if witness is None:
        raise ArithmeticError("round trip failed: n is not a summand of Res of its correspondent")
    return GreenCorrespondence(corr, X, DX, matches, others, witness)


# ---------------------------------------------------------------------------
# block membership


def block_of(M: Module, blocks: Sequence) -> int:
    """Index of the block acting as the identity on M.

    `blocks` are the `Block` records of `burnside.block_decomposition`.
    Block idempotent i is sum_g (idempotent_elements[g] / idempotent_den) g,
    so all of them act on M through one contraction of their coefficient
    vectors with the action stack.  Exactly one must act as the identity
    and all others as zero; anything else is a hard error.
    """
    f, n, d = M.field, M.group.order, M.dim
    V = Mat.stack(f, [Mat(f, np.asarray(b.idempotent_elements)[None], b.idempotent_den)
                      for b in blocks], (1, n))
    E = (V @ M._stack().reshape(n, d * d)).reshape(len(blocks), d, d)
    ones = E.eq(Mat.identity(f, d)).all(axis=(1, 2))
    zeros = (E.num == 0).all(axis=(1, 2))
    hit = []
    for bi, (one, zero) in enumerate(zip(ones, zeros)):
        if one:
            hit.append(bi)
        elif not zero:
            raise ArithmeticError(f"block idempotent {bi} acts neither as 0 nor as 1")
    if len(hit) != 1:
        raise ArithmeticError(f"module does not lie in a single block: hits {hit}")
    return hit[0]
