"""Ordinary (1-categorical) Mackey and Green functors as finite data.

A functor here is a table: one free module per subgroup of G (all
subgroups, not just class representatives, so conjugation maps are total),
a restriction and a transfer matrix per containment K <= H, and a
conjugation matrix per pair (g, H).  Each kind of map is kept as one stack:
the entries of all its matrices in one exact flat `Mat`, read back by
gathers.  A Green functor adds one structure tensor per level, the
left-multiplication stack `Mat` L_H[i, k, j] = the coefficient of e_k in
e_i e_j, and a unit column; `linalg._algebra_laws` checks each level's ring
laws.

`verify_mackey_axioms` checks, over every chain and every triple, the four
axioms: functoriality of restriction and transfer, functoriality of
conjugation (with inner conjugations acting trivially), compatibility of
conjugation with both maps, and the double-coset (Mackey) formula

    res^L_K tr^L_H = sum over KxH in L of tr^K_{K n xHx^-1} c_x res^H_{x^-1Kx n H}.

Each clause is a batched exact contraction over the stacks, one batch per
subgroup (per containment for the Mackey formula and the Green clauses):
products are broadcast `Mat` products and the double-coset sums go through
`linalg._isum_segments`, which stay in float64 or int64 under their
overflow bounds and use Python integers beyond them; results are reduced
mod p over F_p, and compared entrywise by `Mat.eq`, which cross-multiplies
the denominators.
A clause yields one boolean per instance, in a fixed order, and only the
first FAILURE_LIST_CAP failures are described.

Transfers in the Hom-functor are the relative trace f |-> sum_t Y(t) f X(t)^-1
over a transversal, which is the composite of the pinned unit/counit pair;
every image is solved for in the echelon hom basis that `hom_space` returns.

Subgroups are the group's interned `Subgroup`s; inside the stacks a
subgroup is its id in the `SubgroupLattice`, whose `conj` table gives every
gHg^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .groups import FiniteGroup, Subgroup
from .linalg import _BATCH_ENTRIES, Field, Mat, QQ, _algebra_laws, _isum_segments
from .reps import Module, ModuleHom, hom_space, restrict_to

__all__ = [
    "OrdinaryMackeyFunctor",
    "GreenFunctorData",
    "CheckResult",
    "MackeyAxiomReport",
    "verify_mackey_axioms",
    "verify_green_axioms",
    "cohomological_check",
    "hom_decategorify",
    "green_from_monoid",
    "burnside_green_functor",
]

FAILURE_LIST_CAP = 12


# ---------------------------------------------------------------------------
# exact stacked arithmetic


def _starts(sizes: Sequence[int]) -> np.ndarray:
    sizes = np.asarray(sizes, dtype=np.int64)
    return np.cumsum(sizes) - sizes


class _Stack:
    """One kind of structure map: the entries of all its matrices, row-major
    one after another, in one exact column `flat` that ends in a zero.
    Block (i, j) begins at start[i, j] and is nr[i, j] x nc[i, j] (0 x 0
    where there is none); `shape` holds the three tables side by side."""

    def __init__(self, parts: Sequence[Mat], field: Field, start: np.ndarray,
                 nr: np.ndarray, nc: np.ndarray):
        self.flat = Mat.concat(field, [a.reshape(-1, 1) for a in parts] + [Mat.zeros(field, 1, 1)])
        self.shape = np.stack(np.broadcast_arrays(start, nr, nc), axis=-1)

    def blocks(self, i, j, dr: int, dc: int) -> Mat:
        """The blocks (i, j), with i and j broadcast as index arrays, each
        zero-padded to dr x dc."""
        m = self.shape[i, j][..., None, None, :]
        s, r, c = m[..., 0], m[..., 1], m[..., 2]
        a, b = np.arange(dr)[:, None], np.arange(dc)
        return self.flat.take(np.where((a < r) & (b < c), s + a * c + b, -1))

    def block(self, i: int, j: int) -> Mat:
        """Block (i, j) itself, a view of the stack."""
        s, r, c = (int(v) for v in self.shape[i, j])
        return self.flat[s:s + r * c].reshape(r, c)


@dataclass
class LevelData:
    subgroup: Subgroup
    dim: int
    labels: Tuple


class OrdinaryMackeyFunctor:
    """A Mackey functor as data; the equations live in verify_mackey_axioms.

    It is built from a level at every subgroup and matrices keyed by
    subgroups: `res[(K, H)]` (dim K x dim H) and `tr[(K, H)]` (dim H x
    dim K) for every K <= H, and `conj[(g, H)]` for every g and H, between
    levels of equal dimension.  The maps are kept as three stacks, which
    `res`, `tr` and `conj` read back as read-only mappings of `Mat` copies:
    snapshots taken at construction, so editing a dict passed in, or one of
    the `Mat`s read back, changes neither the functor nor its verdicts.
    """

    def __init__(
        self,
        group: FiniteGroup,
        field: Field,
        levels: Dict[Subgroup, LevelData],
        res: Dict[Tuple[Subgroup, Subgroup], Mat],
        tr: Dict[Tuple[Subgroup, Subgroup], Mat],
        conj: Dict[Tuple[int, Subgroup], Mat],
    ):
        lat = group.subgroup_lattice()
        self.group, self.field, self.levels = group, field, levels
        self.subgroups = subs = list(lat.subgroups)
        if set(levels) != set(subs):
            raise ValueError("a functor needs one level at every subgroup")
        self.position, self._cj = lat.position, lat.conj
        self._dims = dims = np.array([levels[S].dim for S in subs], dtype=np.int64)
        self._contain = lat.contain
        self._pairs = np.nonzero(self._contain)
        self.containments = [(subs[k], subs[h]) for k, h in zip(*self._pairs)]
        rs, ts = [], []
        for (K, H), k, h in zip(self.containments, *self._pairs):
            r, t = res.get((K, H)), tr.get((K, H))
            if r is None or t is None:
                raise ValueError(f"missing maps for {K.elements} <= {H.elements}")
            if r.shape != (dims[k], dims[h]):
                raise ValueError("restriction matrix has wrong shape")
            if t.shape != (dims[h], dims[k]):
                raise ValueError("transfer matrix has wrong shape")
            rs.append(r)
            ts.append(t)
        cs = []
        for h, H in enumerate(subs):
            for g in range(group.order):
                c = conj.get((g, H))
                if c is None:
                    raise ValueError(f"missing conjugation ({g}, {H.elements})")
                if c.shape != (dims[lat.conj[g, h]], dims[h]) or dims[lat.conj[g, h]] != dims[h]:
                    raise ValueError("conjugation matrix has wrong shape")
                cs.append(c)
        n = len(subs)
        rows, cols = dims[:, None] * self._contain, dims * self._contain
        start = np.zeros((n, n), dtype=np.int64)
        start[self._pairs] = _starts((rows * cols)[self._pairs])
        self._res = _Stack(rs, field, start, rows, cols)
        self._tr = _Stack(ts, field, start, cols, rows)
        sq = np.broadcast_to(dims, (group.order, n))
        start = _starts(dims ** 2 * group.order) + np.arange(group.order)[:, None] * dims ** 2
        self._conj = _Stack(cs, field, start, sq, sq)

    def level(self, S: Subgroup) -> LevelData:
        return self.levels[S]

    @cached_property
    def res(self) -> Mapping[Tuple[Subgroup, Subgroup], Mat]:
        return MappingProxyType({KH: self._res.block(k, h).copy()
                                 for KH, k, h in zip(self.containments, *self._pairs)})

    @cached_property
    def tr(self) -> Mapping[Tuple[Subgroup, Subgroup], Mat]:
        return MappingProxyType({KH: self._tr.block(k, h).copy()
                                 for KH, k, h in zip(self.containments, *self._pairs)})

    @cached_property
    def conj(self) -> Mapping[Tuple[int, Subgroup], Mat]:
        return MappingProxyType({(g, H): self._conj.block(g, h).copy()
                                 for g in range(self.group.order)
                                 for h, H in enumerate(self.subgroups)})


@dataclass
class CheckResult:
    name: str
    instances: int
    failures: List[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_clause(name: str, segments) -> CheckResult:
    """Run one clause: `segments` yields (ok, describe) pairs in instance
    order, `ok` one boolean per instance and `describe(i)` the text of its
    i-th instance; the first FAILURE_LIST_CAP failures are described."""
    count, fails = 0, []
    for ok, describe in segments:
        ok = np.asarray(ok, dtype=bool).ravel()
        count += ok.size
        fails += [describe(int(i)) for i in np.flatnonzero(~ok)[:FAILURE_LIST_CAP - len(fails)]]
    return CheckResult(name, count, fails)


@dataclass
class MackeyAxiomReport:
    checks: List[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def clause(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "ok" if c.ok else f"{len(c.failures)} FAILED"
            lines.append(f"{c.name}: {c.instances} instances, {status}")
            for f in c.failures[:3]:
                lines.append(f"    {f}")
        return "\n".join(lines)


def _dmax(dims: np.ndarray) -> int:
    return int(dims.max(initial=0))


def _parts(count: int, entries: int) -> List[np.ndarray]:
    """Consecutive index batches covering range(count), with at most
    _BATCH_ENTRIES / entries items in each (and at least one)."""
    step = max(1, _BATCH_ENTRIES // max(entries, 1))
    return [np.arange(i, min(i + step, count)) for i in range(0, count, step)]


def verify_mackey_axioms(M: OrdinaryMackeyFunctor) -> MackeyAxiomReport:
    """Exhaustive check of the four Mackey-functor axioms over all chains,
    conjugation pairs, and double-coset triples."""
    G, f = M.group, M.field
    lat = G.subgroup_lattice()
    subs, dims, contain, cj = M.subgroups, M._dims, M._contain, M._cj
    R, T, C = M._res, M._tr, M._conj
    n, order = len(subs), G.order
    els = [S.elements for S in subs]
    gs = np.arange(order)
    pairs = list(zip(*M._pairs))

    def identity_maps():
        D = _dmax(dims)
        ids = np.arange(n)
        # the identity of each level, padded
        eye = Mat(f, (np.arange(D)[:, None] == np.arange(D)) & (np.arange(D) < dims[:, None, None]))
        res_ok = R.blocks(ids, ids, D, D).eq(eye).all(axis=(1, 2))
        tr_ok = T.blocks(ids, ids, D, D).eq(eye).all(axis=(1, 2))
        for h, H in enumerate(subs):
            c_ok = C.blocks(np.array(H.elements), h, D, D).eq(eye[h]).all(axis=(1, 2))
            yield (np.concatenate([[res_ok[h], tr_ok[h]], c_ok]),
                   lambda i, H=H: (f"res at {H.elements}", f"tr at {H.elements}")[i] if i < 2
                   else f"c_{H.elements[i - 2]} on {H.elements}")

    # chains K <= L <= H, in (K, L, H) order
    chain = contain[:, :, None] & contain[None, :, :]
    res_ok3 = np.ones((n, n, n), dtype=bool)
    tr_ok3 = np.ones((n, n, n), dtype=bool)
    for l in range(n):
        ks, hs = np.flatnonzero(contain[:, l]), np.flatnonzero(contain[l])
        dk, dh, dl = _dmax(dims[ks]), _dmax(dims[hs]), dims[l]
        kh = (ks[:, None], hs)
        prod = R.blocks(ks, l, dk, dl)[:, None] @ R.blocks(l, hs, dl, dh)[None]
        res_ok3[ks[:, None], l, hs] = prod.eq(R.blocks(*kh, dk, dh)).all(axis=(2, 3))
        prod = T.blocks(l, hs, dh, dl)[None] @ T.blocks(ks, l, dl, dk)[:, None]
        tr_ok3[ks[:, None], l, hs] = prod.eq(T.blocks(*kh, dh, dk)).all(axis=(2, 3))
    chains = np.transpose(np.nonzero(chain))

    def chain_text(kind):
        return lambda i: "{} {}<={}<={}".format(kind, *(els[s] for s in chains[i]))

    # conjugation: per subgroup H, for all pairs (h, g), and per containment
    # K <= H for all g
    conj_ok = np.ones((n, order, order), dtype=bool)    # [H, h, g]
    cr_ok = np.ones((n, n, order), dtype=bool)
    ct_ok = np.ones((n, n, order), dtype=bool)
    for h in range(n):
        d = dims[h]
        CH = C.blocks(gs, h, d, d)                            # c_g on H
        for hs in _parts(order, order * d * d):
            lhs = C.blocks(gs, cj[hs, h][:, None], d, d) @ CH[hs, None]    # c_g c_h
            conj_ok[h, hs] = lhs.eq(CH[G.table.T[hs]]).all(axis=(2, 3))
        inner = np.flatnonzero(contain[:, h])
        dk = _dmax(dims[inner])
        for ks in _parts(len(inner), order * dk * max(dk, d)):
            ks = inner[ks]
            CK = C.blocks(gs, ks[:, None], dk, dk)            # [K, g]: c_g on K
            moved = (cj[:, ks].T, cj[:, h])                   # gKg^-1 <= gHg^-1
            lhs = CK @ R.blocks(ks, h, dk, d)[:, None]
            cr_ok[ks, h] = lhs.eq(R.blocks(*moved, dk, d) @ CH).all(axis=(2, 3))
            lhs = CH @ T.blocks(ks, h, d, dk)[:, None]
            ct_ok[ks, h] = lhs.eq(T.blocks(*moved, d, dk) @ CK).all(axis=(2, 3))

    def conj_text(kind):
        def text(i):
            c, g = divmod(i, order)
            K, H = pairs[c]
            return f"c_{g} {kind} {els[K]}<={els[H]}"
        return text

    # the Mackey formula: per K, the terms tr c_x res of every double coset
    # KxH, read off the lattice's table; then per L >= K the sums over
    # K\L/H for every H <= L
    D, every = _dmax(dims), np.arange(n)
    mk_ok = np.ones((n, n, n), dtype=bool)   # [L, K, H]
    for k in range(n):
        th, tx, ta = lat.double_cosets(k, every)              # ta: K n xHx^-1
        tb = cj[G.inverse[tx], ta]                            # x^-1Kx n H
        dk, da = dims[k], _dmax(dims[ta])
        terms = T.blocks(ta, k, dk, da) @ C.blocks(tx, tb, da, da) @ R.blocks(tb, th, da, D)
        above = np.flatnonzero(contain[k])
        for ls in _parts(len(above), n * D * D):
            ls = above[ls]
            dl = _dmax(dims[ls])
            lhs = R.blocks(k, ls, dk, dl)[:, None] @ T.blocks(every, ls[:, None], dl, D)
            for i, l in enumerate(ls):
                sel = contain[th, l] & subs[l].mask[tx]       # K\L/H for every H <= L
                hs, first = np.unique(th[sel], return_index=True)
                rhs = Mat(f, _isum_segments(terms.num[sel], first), terms.den)
                mk_ok[l, k, hs] = lhs[i, hs].eq(rhs).all(axis=(1, 2))
    triples = np.transpose(np.nonzero(contain.T[:, :, None] & contain.T[:, None, :]))

    def mackey_text(i):
        L, K, H = (els[s] for s in triples[i])
        return f"mackey L={L} K={K} H={H}"

    return MackeyAxiomReport([
        _run_clause("identity-maps", identity_maps()),
        _run_clause("restriction-functoriality", [(res_ok3[chain], chain_text("res"))]),
        _run_clause("transfer-functoriality", [(tr_ok3[chain], chain_text("tr"))]),
        _run_clause("conjugation-functoriality", [(conj_ok, lambda i: "c_{2} c_{1} on {0}".format(
            els[i // order ** 2], *divmod(i % order ** 2, order)))]),
        _run_clause("conjugation-restriction-compatibility",
                    [(cr_ok[contain], conj_text("res"))]),
        _run_clause("conjugation-transfer-compatibility",
                    [(ct_ok[contain], conj_text("tr"))]),
        _run_clause("mackey-formula",
                    [(mk_ok[contain.T[:, :, None] & contain.T[:, None, :]], mackey_text)]),
    ])


def cohomological_check(M: OrdinaryMackeyFunctor) -> CheckResult:
    """tr o res = [H:K] . id at every containment; the report lists failures
    (a functor need not be cohomological — the Burnside one is not)."""
    R, T = M._res, M._tr
    orders = np.array([S.order for S in M.subgroups], dtype=np.int64)
    ok = np.ones(M._contain.shape, dtype=bool)
    for h, d in enumerate(M._dims):
        ks = np.flatnonzero(M._contain[:, h])
        dk = _dmax(M._dims[ks])
        prod = T.blocks(ks, h, d, dk) @ R.blocks(ks, h, dk, d)
        want = (orders[h] // orders[ks])[:, None, None] * np.eye(d, dtype=np.int64)
        ok[ks, h] = prod.eq(Mat(M.field, want)).all(axis=(1, 2))

    def text(i):
        K, H = M.containments[i]
        return f"tr res at {K.elements}<={H.elements} != {H.order // K.order} id"
    return _run_clause("cohomological", [(ok[M._contain], text)])


# ---------------------------------------------------------------------------
# Hom decategorification


def _coords_in_basis(basis: Mat, targets: Mat) -> Mat:
    """Coordinates of the matrices of the stack `targets` in the stack
    `basis` (by column-stacking), one column per target; hard error when a
    target is outside the span."""
    n = basis.nrows * basis.ncols
    vec = lambda S: S.transpose(0, 2, 1).reshape(S.shape[0], n).T
    sol = vec(basis).solve(vec(targets))
    if sol is None:
        raise ArithmeticError("image left the expected hom space")
    return sol


def hom_decategorify(X: Module, Y: Module) -> OrdinaryMackeyFunctor:
    """The Mackey functor H |-> Hom_kH(Res X, Res Y).

    Restriction is literal inclusion of intertwiners, conjugation is
    f |-> Y(g) f X(g)^-1, and the transfer is the relative trace
    f |-> sum_t Y(t) f X(t)^-1 over minimal coset representatives, each
    expressed in the echelon basis of the target hom space (with membership
    verified exactly).
    """
    return _hom_functor(X, Y)[0]


def _hom_functor(X: Module, Y: Module) -> Tuple[OrdinaryMackeyFunctor, Dict[Subgroup, Mat]]:
    """`hom_decategorify` and the hom basis of every level, as a stack.
    The images Y(t) b X(t)^-1 of a level are one stacked product over the
    elements t and basis maps b."""
    if X.group is not Y.group or X.field != Y.field:
        raise ValueError("modules must share group and field")
    G, f = X.group, X.field
    lat = G.subgroup_lattice()
    subs, cj = lat.subgroups, lat.conj
    bases: Dict[Subgroup, Mat] = {}
    levels: Dict[Subgroup, LevelData] = {}
    for S in subs:
        hs = hom_space(restrict_to(X, S), restrict_to(Y, S))
        bases[S] = Mat.stack(f, [h.mat for h in hs], (Y.dim, X.dim))
        levels[S] = LevelData(S, len(hs), tuple(range(len(hs))))
    XA, YA = X._stack(), Y._stack()

    def moved(B: Mat, ts) -> Mat:
        """Y(t) b X(t)^-1 for every t of `ts` and b of B, t-major."""
        out = YA[ts][:, None] @ B[None] @ XA[G.inverse[ts]][:, None]
        return out.reshape(len(ts) * B.shape[0], Y.dim, X.dim)

    res: Dict[Tuple[Subgroup, Subgroup], Mat] = {}
    tr: Dict[Tuple[Subgroup, Subgroup], Mat] = {}
    transversals = {K: G.left_transversal(K)[0] for K in subs}
    for k, h in zip(*np.nonzero(lat.contain)):
        K, H = subs[k], subs[h]
        res[(K, H)] = _coords_in_basis(bases[K], bases[H])
        # the relative traces over the cosets tK inside H: the sum over t
        # is one product with a row of ones
        ts = np.array([t for t in transversals[K] if t in H], dtype=np.int64)
        b, ones = bases[K].shape[0], Mat(f, np.ones((1, len(ts)), dtype=np.int64))
        traces = ones @ moved(bases[K], ts).reshape(len(ts), b * Y.dim * X.dim)
        tr[(K, H)] = _coords_in_basis(bases[H], traces.reshape(b, Y.dim, X.dim))
    conj: Dict[Tuple[int, Subgroup], Mat] = {}
    for h, H in enumerate(subs):
        b, images = bases[H].shape[0], moved(bases[H], np.arange(G.order))
        for g in range(G.order):
            conj[(g, H)] = _coords_in_basis(bases[subs[cj[g, h]]], images[g * b:(g + 1) * b])
    return OrdinaryMackeyFunctor(G, f, levels, res, tr, conj), bases


# ---------------------------------------------------------------------------
# Green functors


class GreenFunctorData:
    """A Mackey functor with a unital ring at every level.

    It is built from `products[H]`, the left-multiplication stack L_H of
    level H (L_H[i, k, j] is the coefficient of e_k in e_i e_j), and
    `units[H]`, the unit columns; a level of dimension d needs a d x d x d
    stack and a d x 1 unit over the functor's field.  Both are kept as
    snapshots, which `products` and `units` read back as read-only mappings
    of `Mat` copies.
    """

    def __init__(self, underlying: OrdinaryMackeyFunctor, products: Dict[Subgroup, Mat],
                 units: Dict[Subgroup, Mat], mackey_report: Optional["MackeyAxiomReport"] = None,
                 green_report: Optional["MackeyAxiomReport"] = None):
        f = underlying.field
        self.underlying = underlying
        self._L, self._u = [], []
        for S, d in zip(underlying.subgroups, underlying._dims):
            L, u = products[S], units[S]
            if L.shape != (d, d, d) or u.shape != (d, 1) or L.field != f or u.field != f:
                raise ValueError(f"level {S.elements} of dimension {d} needs a {d}x{d}x{d} product "
                                 f"stack and a {d}x1 unit over {f!r}")
            self._L.append(L.copy())
            self._u.append(u.copy())
        self.mackey_report = mackey_report
        self.green_report = green_report

    @cached_property
    def products(self) -> Mapping[Subgroup, Mat]:
        return MappingProxyType({S: L.copy() for S, L in zip(self.underlying.subgroups, self._L)})

    @cached_property
    def units(self) -> Mapping[Subgroup, Mat]:
        return MappingProxyType({S: u.copy() for S, u in zip(self.underlying.subgroups, self._u)})

    def product(self, H: Subgroup, u: Mat, v: Mat) -> Mat:
        """u v at level H: the left multiplication sum_i u_i L_H[i], applied to v."""
        L = self._L[self.underlying.position[H]]
        d = L.shape[0]
        return (u.T @ L.reshape(d, d * d)).reshape(d, d) @ v


def verify_green_axioms(Gf: GreenFunctorData) -> MackeyAxiomReport:
    """Per-level ring laws, restrictions as unital ring maps, and both
    Frobenius (projection) formulas on all containments and basis pairs."""
    M = Gf.underlying
    dims, R, Tr, Ls, us = M._dims, M._res, M._tr, Gf._L, Gf._u

    def level_rings():
        for H, L, u, d in zip(M.subgroups, Ls, us, dims):
            left, right, _, assoc = _algebra_laws(L, u)
            yield left & right, lambda j, H=H: f"unit at {H.elements} col {j}"
            yield assoc, lambda i, H=H, d=d: "assoc at {} ({},{},{})".format(
                H.elements, i // (d * d), i // d % d, i % d)

    res_segments, frobenius_segments = [], []
    for (K, H), k, h in zip(M.containments, *M._pairs):
        dk, dh = dims[k], dims[h]
        r, t = R.block(k, h), Tr.block(k, h)
        LK, LH = Ls[k], Ls[h]
        unit = r @ us[h] == us[k]
        rx = (r.T @ LK.reshape(dk, dk * dk)).reshape(dh, dk, dk)  # [i, :, j]: r(e_i) e_j
        hom = (r @ LH).eq(rx @ r).all(axis=1)             # r(e_i e_j) against r(e_i) r(e_j)
        res_segments.append((np.concatenate([[unit], hom.ravel()]),
                             lambda i, K=K, H=H, dh=dh: f"res unit {K.elements}<={H.elements}"
                             if i == 0 else "res hom {}<={} ({},{})".format(
                                 K.elements, H.elements, *divmod(i - 1, dh))))
        # t(r(x) y) = x t(y) and t(y r(x)) = t(y) x, at [i, :, j] and [j, :, i]
        left = (t @ rx).eq(LH @ t)
        right = (t @ (LK @ r)).eq((t.T @ LH.reshape(dh, dh * dh)).reshape(dk, dh, dh))
        frobenius_segments.append((np.stack([left.all(axis=1), right.all(axis=1).T], axis=2),
                                   lambda i, K=K, H=H, dk=dk: "frobenius-{} {}<={} ({},{})".format(
                                       ("left", "right")[i % 2], K.elements, H.elements,
                                       *divmod(i // 2, dk))))

    return MackeyAxiomReport([
        _run_clause("level-ring-laws", level_rings()),
        _run_clause("restriction-ring-homomorphism", res_segments),
        _run_clause("frobenius-formulas", frobenius_segments),
    ])


def green_from_monoid(X: Module, Y: Module, mul: ModuleHom, unit: ModuleHom) -> GreenFunctorData:
    """Green functor structure on H |-> Hom_kH(Res X, Res Y) by convolution
    with the multiplication of Y; X must be the trivial comonoid (dim 1,
    trivial action), so the comultiplication is the canonical isomorphism
    k = k (x) k.

    The multiplication is verified associative and unital before anything
    is built; non-associative input is a contract violation.
    """
    G, f = Y.group, Y.field
    if X.dim != 1 or any(not X.action(g).is_identity() for g in range(G.order)):
        raise ValueError("X must be the trivial comonoid")
    d = Y.dim
    if mul.mat.shape != (d, d * d) or unit.mat.shape != (d, 1):
        raise ValueError("multiplication/unit have wrong shapes")
    left, right, _, assoc = _algebra_laws(mul.mat.reshape(d, d, d).transpose(1, 0, 2), unit.mat)
    if not assoc.all():
        raise ValueError("input multiplication is not associative")
    if not (left.all() and right.all()):
        raise ValueError("input multiplication is not unital")
    M, bases = _hom_functor(X, Y)
    products: Dict[Subgroup, Mat] = {}
    units: Dict[Subgroup, Mat] = {}
    for S, B in bases.items():
        # k = k(x)k -> Y(x)Y -> Y, for every pair of basis maps at once:
        # column i b + j holds the coordinates of the product of maps i and j
        b = B.shape[0]
        ab = _coords_in_basis(B, (mul.mat @ B[:, None].kron(B[None])).reshape(b * b, d, 1))
        products[S] = ab.reshape(b, b, b).transpose(1, 0, 2)
        units[S] = _coords_in_basis(B, unit.mat[None])
    return GreenFunctorData(M, products, units)


# ---------------------------------------------------------------------------
# the Burnside Green functor


def burnside_green_functor(G: FiniteGroup) -> GreenFunctorData:
    """The Burnside-ring Green functor: level H is the free module on
    H-classes of subgroups S <= H (the classes of transitive H-sets H/S);
    res / tr / conj / product all come from counting double cosets:

        res^H_K [H/S]   = sum over KhS of [K/(K n hSh^-1)]
        tr^H_K  [K/S]   = [H/S]
        c_g     [H/S]   = [gHg^-1 / gSg^-1]
        [H/S] . [H/T]   = sum over ShT of [H/(S n hTh^-1)]

    The full Mackey axiom suite and the Green axioms are run before the
    functor is returned, which carries their reports; any failure is a
    hard error.
    """
    lat = G.subgroup_lattice()
    subs, cj = lat.subgroups, lat.conj
    # level H: the H-classes of subgroups of H, and each subgroup's class
    reps, class_of = zip(*(lat.classes_in(H) for H in subs))
    class_of = np.stack(class_of)        # [h, i]: class of S_i in level h, -1 outside H
    dims = [len(r) for r in reps]
    levels = {H: LevelData(H, d, tuple(subs[i].elements for i in r))
              for H, d, r in zip(subs, dims, reps)}

    def count_intersections(i: np.ndarray, cls: np.ndarray, rows: int, d: int) -> np.ndarray:
        """[row, class]: how many of the pairs (i, cls) fall on each entry."""
        return np.bincount(i * d + cls, minlength=rows * d).reshape(rows, d)

    n, every = len(subs), np.arange(len(subs))
    res, tr = {}, {}
    L = [np.zeros((d, d, d), dtype=np.int64) for d in dims]   # [s, class, t] per level
    for k in range(n):
        j, xs, meets = lat.double_cosets(k, every)           # every S_k x S at once
        for h in np.flatnonzero(lat.contain[k]):
            # over KxS inside H, S = S_reps[h][i]: each i and id of K n xSx^-1
            row = np.full(n, -1)
            row[reps[h]] = np.arange(dims[h])
            keep = (row[j] >= 0) & subs[h].mask[xs]
            i, a = row[j[keep]], meets[keep]
            KH = (subs[k], subs[h])
            res[KH] = Mat(QQ, count_intersections(i, class_of[k][a], dims[h], dims[k]).T)
            tmat = np.zeros((dims[h], dims[k]), dtype=np.int64)
            tmat[class_of[h][reps[k]], np.arange(dims[k])] = 1
            tr[KH] = Mat(QQ, tmat)
            if reps[h][class_of[h][k]] == k:                  # [H/K] . [H/T] over K\H/T
                L[h][class_of[h][k]] = count_intersections(i, class_of[h][a], dims[h], dims[h]).T
    conj = {}
    for h, H in enumerate(subs):
        cmat = np.zeros((G.order, dims[h], dims[h]), dtype=np.int64)
        cmat[np.arange(G.order)[:, None], class_of[cj[:, h][:, None], cj[:, reps[h]]],
             np.arange(dims[h])] = 1
        conj.update(((g, H), Mat(QQ, c)) for g, c in enumerate(cmat))
    M = OrdinaryMackeyFunctor(G, QQ, levels, res, tr, conj)

    products = {H: Mat(QQ, L[h]) for h, H in enumerate(subs)}
    units = {H: Mat(QQ, (r == h).astype(np.int64)[:, None]) for h, (H, r) in enumerate(zip(subs, reps))}
    mrep = verify_mackey_axioms(M)
    if not mrep.ok:
        raise ArithmeticError("Burnside functor failed the Mackey axioms:\n" + mrep.summary())
    Gf = GreenFunctorData(M, products, units, mrep)
    Gf.green_report = verify_green_axioms(Gf)
    if not Gf.green_report.ok:
        raise ArithmeticError("Burnside functor failed the Green axioms:\n"
                              + Gf.green_report.summary())
    return Gf
