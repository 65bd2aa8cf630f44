"""Exact linear algebra over prime fields and the rationals.

`Mat` is the one exact array type of the package: an integer numpy array
`num` of shape (..., r, c), a matrix or a stack of them, together with one
positive common denominator `den` (always 1 over F_p, where the numerators
are reduced mod p).  Every operation is exact: mod-p products go through
float64 BLAS only while the inner dimension times (p-1)^2 stays below
2**53, and integer products escalate from int64 to Python bignums (object
dtype) before they could overflow, and drop back once they fit again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Field", "GF", "QQ", "Mat", "rref_mod", "perm_to_mat"]

_F53 = 2**53
_I62 = 2**62
_BATCH_ENTRIES = 1 << 18  # entries of a stacked product made at once


def _check_int64_prime(p: int) -> None:
    """rref_mod multiplies two residues in int64, so (p-1)^2 must stay
    below 2^63."""
    if (p - 1) ** 2 >= 2**63:
        raise ValueError(f"prime {p} is too large: (p-1)^2 must stay below 2^63")


@dataclass(frozen=True)
class Field:
    """Prime field F_p (`p` a prime with (p-1)^2 < 2^63) or the rationals
    (`p` is None)."""

    p: Optional[int]

    def __post_init__(self):
        if self.p is not None:
            _check_int64_prime(self.p)

    def __repr__(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, int(n**0.5) + 1):
        if n % q == 0:
            return False
    return True


@lru_cache(maxsize=None)
def GF(p: int) -> Field:
    """F_p, for primes p with (p-1)^2 < 2^63 (the bound `Field` enforces)."""
    field = Field(p)
    if not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return field


QQ = Field(None)


def _absmax(a: np.ndarray) -> int:
    return int(np.abs(a).max(initial=0))


def _exact_dtype(bound: int):
    """The dtype in which integer products whose partial sums stay below
    `bound` in magnitude are exact: float64 below 2^53 (float64 holds every
    such integer), int64 below 2^62, Python integers (object) beyond."""
    return np.float64 if bound < _F53 else np.int64 if bound < _I62 else object


def _imatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product a @ b of two integer matrices, or of two stacks of them
    broadcast over their leading axes as np.matmul does, in the
    `_exact_dtype` of the inner dimension times the largest entries; a
    float64 result casts to int64 with no rounding."""
    if a.size == 0 or b.size == 0:
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        return np.zeros(lead + (a.shape[-2], b.shape[-1]), dtype=np.int64)
    dt = object
    if a.dtype != object and b.dtype != object:
        dt = _exact_dtype(a.shape[-1] * _absmax(a) * _absmax(b))
    out = a.astype(dt) @ b.astype(dt)
    return out.astype(np.int64) if dt is np.float64 else out


def _isum_segments(a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Exact sums along axis 0 of the segments of `a` that begin at
    `starts` (as np.add.reduceat): int64 while the length of `a` times its
    largest entry stays below 2^62, Python integers beyond."""
    if a.dtype != object and len(a) * _absmax(a) >= _I62:
        a = a.astype(object)
    return np.add.reduceat(a, starts, axis=0)


def _scale_arr(a: np.ndarray, s: int) -> np.ndarray:
    if s == 0:
        return np.zeros_like(a, dtype=np.int64)
    if a.dtype != object:
        if abs(s) < _I62 and _absmax(a) * abs(s) < _I62:
            return a * np.int64(s)
    return a.astype(object) * s


def _add_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.dtype != object and b.dtype != object:
        if _absmax(a) + _absmax(b) < _I62:
            return a + b
    return a.astype(object) + b.astype(object)


def _content(a: np.ndarray) -> int:
    flat = a.ravel()
    if a.dtype != object:
        g = int(np.gcd.reduce(np.abs(flat))) if flat.size else 0
    else:
        g = reduce(math.gcd, (abs(int(x)) for x in flat), 0)
    return g


def _compact(a: np.ndarray) -> np.ndarray:
    """Drop back to int64 when an object array fits again."""
    if a.dtype == object and a.size:
        try:
            hi = max(abs(int(x)) for x in a.ravel())
        except TypeError:  # pragma: no cover
            return a
        if hi < _I62:
            return a.astype(np.int64)
    return a


def rref_mod(a: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form of an integer matrix mod p (vectorized),
    for primes p with (p-1)^2 < 2^63."""
    _check_int64_prime(p)
    a = np.asarray(a, dtype=np.int64) % p
    rows, cols = a.shape
    piv: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        other = np.flatnonzero(a[:, c])
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - np.outer(a[other, c], a[r])) % p
        piv.append(c)
        r += 1
    return a, piv


def _rank_mod_stack(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks mod p of a stack a[m, r, c] of integer matrices, all eliminated
    at once.  In each column the pivot of every matrix is its first nonzero
    row; every row, the pivot row included, is replaced by
    pivot * row - entry * pivot_row, so pivot rows vanish and are never
    chosen again.  Exact for primes with (p-1)^2 < 2^63: both products are
    below 2^63 and so is their difference."""
    _check_int64_prime(p)
    a = np.asarray(a, dtype=np.int64) % p
    m, r, c = a.shape
    rank = np.zeros(m, dtype=np.int64)
    if r == 0:
        return rank
    rows = np.arange(m)
    for j in range(c):
        col = a[:, :, j]
        nz = col != 0
        has = nz.any(axis=1)
        if not has.any():
            continue
        prow = a[rows, nz.argmax(axis=1), j:]  # a zero column leaves its matrix as it is
        pv = np.where(has, prow[:, 0], 1)
        a[:, :, j:] = (a[:, :, j:] * pv[:, None, None] - col[:, :, None] * prow[:, None, :]) % p
        rank += has
    return rank


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The residues mod p of the exact product `_imatmul(a, b)`, in int64."""
    return (_imatmul(a, b) % p).astype(np.int64)


def _pow_mod_stack(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a[k]^e mod p for every square matrix of a stack, by square and
    multiply through the stacked exact product `_imatmul`."""
    out = None
    base = np.asarray(a, dtype=np.int64) % p
    while e:
        if e & 1:
            out = base if out is None else _mulmod(out, base, p)
        e >>= 1
        if e:
            base = _mulmod(base, base, p)
    if out is None:
        return np.broadcast_to(np.eye(a.shape[-1], dtype=np.int64), a.shape).copy()
    return out


def _rref_fraction(rows: List[List[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    piv: List[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            f = rows[i][c]
            if i != r and f:
                ri, rr = rows[i], rows[r]
                rows[i] = ri[:c] + [x - f * y for x, y in zip(ri[c:], rr[c:])]
        piv.append(c)
        r += 1
    return rows, piv


class Mat:
    """Exact matrix, or stack of matrices, over F_p or Q.

    `num` has shape (..., r, c): a 2-D Mat is one matrix, and leading axes
    index a stack of r x c matrices that share the one denominator `den`.
    Products, sums and comparisons broadcast over the stack axes as numpy
    does; indexing gathers along any axes and keeps the denominator.  The
    readers (`entry`, `to_jsonable`, `trace`, ...) and the eliminations
    (`rref`, `nullspace`, `solve`, `inv`, ...) take a 2-D Mat.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: Field, num: np.ndarray, den: int = 1):
        num = np.asarray(num)
        if num.ndim < 2:
            raise ValueError("matrix data must have at least 2 dimensions")
        if num.dtype not in (np.dtype(np.int64), np.dtype(object)):
            num = num.astype(np.int64)
        p = field.p
        if p is not None:
            num = num % p
            if num.dtype != np.int64:
                num = num.astype(np.int64)
            if den % p == 0:
                raise ZeroDivisionError("denominator vanishes mod p")
            if den % p != 1:
                num = (num * pow(den % p, p - 2, p)) % p
            den = 1
        else:
            if den < 0:
                num, den = _scale_arr(num, -1), -den
            if den == 0:
                raise ZeroDivisionError("zero denominator")
            if den != 1:
                g = math.gcd(_content(num), den)
                if g > 1:
                    num = num // g
                    den //= g
            num = _compact(num)
        self.field = field
        self.num = num
        self.den = den

    @classmethod
    def _of(cls, field: Field, num: np.ndarray, den: int = 1) -> "Mat":
        """The Mat of numerators that are already exact and reduced: int64
        or object, below p over F_p, over a positive `den` (1 over F_p).
        Nothing is checked, copied or normalised."""
        out = cls.__new__(cls)
        out.field, out.num, out.den = field, num, den
        return out

    # ---- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, r: int, c: int) -> "Mat":
        return cls(field, np.zeros((r, c), dtype=np.int64))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        return cls(field, np.eye(n, dtype=np.int64))

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Mat":
        rows = [list(r) for r in rows]
        nc = len(rows[0]) if rows else 0
        den = 1
        for row in rows:
            for x in row:
                if isinstance(x, Fraction):
                    den = den * x.denominator // math.gcd(den, x.denominator)
        num = np.empty((len(rows), nc), dtype=object)
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                num[i, j] = int(Fraction(x) * den)
        return cls(field, _compact(num) if num.size else num.astype(np.int64), den)

    @classmethod
    def concat(cls, field: Field, mats: Sequence["Mat"], axis: int = 0) -> "Mat":
        """`mats` joined along `axis`, as np.concatenate, over the least
        common denominator of their own."""
        nums, den = _common(field, mats)
        return cls._of(field, _compact(np.concatenate(nums, axis=axis)), den)

    @classmethod
    def stack(cls, field: Field, mats: Sequence["Mat"], shape: Tuple[int, ...]) -> "Mat":
        """`mats`, each of `shape`, along a new first axis over their least
        common denominator; no mats give the empty stack (0, *shape)."""
        mats = list(mats)
        if any(m.shape != tuple(shape) for m in mats):
            raise ValueError("shape mismatch in stack")
        empty = cls._of(field, np.zeros((0, *shape), dtype=np.int64))
        return cls.concat(field, [m[None] for m in mats] + [empty])

    @classmethod
    def from_blocks(cls, field: Field, nrows: int, ncols: int,
                    blocks: Iterable[Tuple[int, int, "Mat"]]) -> "Mat":
        """The nrows x ncols matrix with each `(row, col, block)` added in at
        offset (row, col); overlapping blocks are summed.  Blocks that are
        stacks place every matrix of the stack at once (their stack axes
        broadcast).

        Blocks are brought to the lcm of their denominators exactly: entries
        stay int64 while they fit and become Python integers otherwise.
        """
        blocks = list(blocks)
        nums, den = _common(field, [b for _, _, b in blocks])
        leads = {a.shape[:-2] for a in nums}
        lead = leads.pop() if len(leads) == 1 else np.broadcast_shapes(*leads)
        out = np.zeros(lead + (nrows, ncols), dtype=object if any(a.dtype == object for a in nums)
                       else np.int64)
        for (r, c, _), a in zip(blocks, nums):
            region = (Ellipsis, slice(r, r + a.shape[-2]), slice(c, c + a.shape[-1]))
            if out[region].any():
                a = _add_arr(out[region], a)
            if a.dtype == object and out.dtype != object:
                out = out.astype(object)
            out[region] = a
        return cls(field, out, den)

    @classmethod
    def block_diag(cls, field: Field, blocks: Sequence["Mat"]) -> "Mat":
        placed, r, c = [], 0, 0
        for b in blocks:
            placed.append((r, c, b))
            r += b.nrows
            c += b.ncols
        return cls.from_blocks(field, r, c, placed)

    # ---- basic queries -------------------------------------------------

    @property
    def nrows(self) -> int:
        return self.num.shape[-2]

    @property
    def ncols(self) -> int:
        return self.num.shape[-1]

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.num.shape

    def entry(self, i: int, j: int):
        v = int(self.num[i, j])
        return v if self.field.p is not None else Fraction(v, self.den)

    def to_fractions(self) -> List[List[Fraction]]:
        d = self.den
        return [[Fraction(int(x), d) for x in row] for row in self.num]

    def to_jsonable(self):
        if self.den == 1:
            return [[int(x) for x in row] for row in self.num]
        out = []
        for row in self.num:
            out.append([str(Fraction(int(x), self.den)) for x in row])
        return out

    def is_zero(self) -> bool:
        return not np.any(self.num != 0)

    def is_identity(self) -> bool:
        if self.nrows != self.ncols or self.den != 1:
            return False
        return bool(np.array_equal(self.num, np.eye(self.nrows, dtype=np.int64)))

    def __repr__(self) -> str:
        return f"Mat({self.field!r}, {'x'.join(map(str, self.shape))})"

    def eq(self, other: "Mat") -> np.ndarray:
        """Entrywise self == other as a boolean array, broadcast as numpy
        does, by cross-multiplying the denominators."""
        self._check(other)
        a, b, da, db = self.num, other.num, self.den, other.den
        if da != db:
            g = math.gcd(da, db)
            a, b = _scale_arr(a, db // g), _scale_arr(b, da // g)
        return a == b

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        return bool(self.eq(other).all())

    __hash__ = None  # type: ignore[assignment]

    # ---- gathers and shapes ---------------------------------------------

    def __getitem__(self, key) -> "Mat":
        """num[key] over the same denominator, for any numpy index that
        leaves at least two axes: a gather, not a copy, of the numerators."""
        return self._like(self.num[key])

    def _like(self, num: np.ndarray) -> "Mat":
        if num.ndim < 2:
            raise ValueError("a gather from a Mat must leave at least 2 dimensions")
        return Mat._of(self.field, num, self.den)

    def take(self, index: np.ndarray) -> "Mat":
        """The entries at the row-major positions `index` of the numerator,
        an integer array of at least two dimensions, over the same
        denominator."""
        return self._like(self.num.take(index))

    def reshape(self, *shape) -> "Mat":
        return self._like(self.num.reshape(*shape))

    def transpose(self, *axes) -> "Mat":
        return Mat._of(self.field, self.num.transpose(*axes), self.den)

    def copy(self) -> "Mat":
        """A Mat of its own: a copy of the numerators, normalised as the
        constructor normalises them."""
        return Mat(self.field, self.num.copy(), self.den)

    @property
    def T(self) -> "Mat":
        """The transpose of every matrix of the stack, as a copy."""
        return Mat._of(self.field, np.swapaxes(self.num, -1, -2).copy(), self.den)

    # ---- arithmetic ----------------------------------------------------

    def _check(self, other: "Mat") -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError(f"field mismatch: {self.field!r} vs {other.field!r}")

    def __add__(self, other: "Mat") -> "Mat":
        return self._sum(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._sum(other, -1)

    def _sum(self, other: "Mat", sign: int) -> "Mat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch in addition")
        (a, b), d = _common(self.field, [self, other])
        p = self.field.p
        if p is not None:  # residues: a sum or difference of two stays in int64
            return Mat._of(self.field, (a + b if sign > 0 else a - b) % p)
        return Mat(self.field, _add_arr(a, b if sign > 0 else _scale_arr(b, -1)), d)

    def __neg__(self) -> "Mat":
        return Mat(self.field, _scale_arr(self.num, -1), self.den)

    def __matmul__(self, other: "Mat") -> "Mat":
        """The product, broadcast over the stack axes of both factors."""
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        num, p = _imatmul(self.num, other.num), self.field.p
        if p is None:
            return Mat(self.field, num, self.den * other.den)
        if num.dtype == object:
            return Mat._of(self.field, (num % p).astype(np.int64))
        num %= p  # a new array, already reduced: no second pass through the constructor
        return Mat._of(self.field, num)

    def scale(self, s) -> "Mat":
        s = Fraction(s)
        return Mat(self.field, _scale_arr(self.num, s.numerator), self.den * s.denominator)

    def hstack(self, other: "Mat") -> "Mat":
        return Mat.concat(self.field, [self, other], axis=-1)

    def vstack(self, other: "Mat") -> "Mat":
        return Mat.concat(self.field, [self, other], axis=-2)

    def kron(self, other: "Mat") -> "Mat":
        """The Kronecker product, of every pair of matrices of the two
        stacks broadcast against each other."""
        self._check(other)
        a, b = self.num, other.num
        if a.dtype == object or b.dtype == object or _absmax(a) * _absmax(b) >= _I62:
            a, b = a.astype(object), b.astype(object)
        num = a[..., :, None, :, None] * b[..., None, :, None, :]
        num = num.reshape(num.shape[:-4] + (self.nrows * other.nrows, self.ncols * other.ncols))
        if self.field.p is not None:
            num %= self.field.p
        return Mat(self.field, num, self.den * other.den)

    def trace(self):
        t = int(np.sum(self.num.diagonal().astype(object)))
        if self.field.p is not None:
            return t % self.field.p
        return Fraction(t, self.den)

    def col(self, j: int) -> "Mat":
        return Mat(self.field, self.num[:, j : j + 1].copy(), self.den)

    def vec(self) -> "Mat":
        """Column-major flattening as a single column."""
        return Mat(self.field, self.num.T.reshape(-1, 1).copy(), self.den)

    # ---- elimination ----------------------------------------------------

    def rref(self) -> Tuple["Mat", List[int]]:
        if self.field.p is not None:
            r, piv = rref_mod(self.num, self.field.p)
            return Mat(self.field, r), piv
        if self.nrows == 0:
            return self, []
        rows, piv = _rref_fraction(self.to_fractions())
        return Mat.from_rows(self.field, rows), piv

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "Mat":
        """Matrix whose columns are a basis of the right kernel: column k is
        the identity on the k-th free column and minus its entries of the
        RREF on the pivots."""
        R, piv = self.rref()
        free = np.ones(self.ncols, dtype=bool)
        free[piv] = False
        free = np.flatnonzero(free)
        big = R.num.dtype == object or R.den >= _I62
        out = np.zeros((self.ncols, len(free)), dtype=object if big else np.int64)
        out[free, np.arange(len(free))] = R.den
        out[piv] = -R.num[:len(piv), free]
        if self.field.p is not None:
            return Mat._of(self.field, out % self.field.p)
        return Mat(self.field, out, R.den)

    def solve(self, b: "Mat") -> Optional["Mat"]:
        """One exact solution of self @ x = b, or None if inconsistent."""
        aug = self.hstack(b)
        R, piv = aug.rref()
        n = self.ncols
        if any(c >= n for c in piv):
            return None
        out = np.zeros((n, b.ncols), dtype=R.num.dtype if R.num.dtype == object else np.int64)
        out[piv] = R.num[:len(piv), n:]
        return Mat(self.field, out, R.den)

    def inv(self) -> "Mat":
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be inverted")
        n = self.nrows
        R, piv = self.hstack(Mat.identity(self.field, n)).rref()
        if piv != list(range(n)):
            raise ValueError("matrix is not invertible")
        return Mat(self.field, R.num[:, n:].copy(), R.den)

    def is_invertible(self) -> bool:
        """Exact invertibility; over Q a full-rank mod-p certificate suffices."""
        if self.nrows != self.ncols:
            return False
        if self.field.p is not None:
            return len(rref_mod(self.num, self.field.p)[1]) == self.nrows
        if self.num.dtype != object:
            q = 2147483647  # rank mod q == n certifies rank over Q
            if len(rref_mod(self.num % q, q)[1]) == self.nrows:
                return True
        return self.rank() == self.nrows

    def pow(self, e: int) -> "Mat":
        if self.nrows != self.ncols:
            raise ValueError("matrix power needs a square matrix")
        out = Mat.identity(self.field, self.nrows)
        base = self
        while e:
            if e & 1:
                out = out @ base
            base_needed = e >> 1
            if base_needed:
                base = base @ base
            e >>= 1
        return out


def _common(field: Field, mats: Sequence[Mat]) -> Tuple[List[np.ndarray], int]:
    """The numerators of `mats`, all over `field`, over their least common
    denominator (those already over it are returned as they are, not
    copied)."""
    for m in mats:
        if m.field != field:
            raise ValueError(f"field mismatch: {m.field!r} vs {field!r}")
    den = math.lcm(1, *(m.den for m in mats))
    return [m.num if m.den == den else _scale_arr(m.num, den // m.den) for m in mats], den


def _algebra_laws(L: Mat, u: Mat) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The laws of the algebra on e_0, ..., e_{r-1} with left-multiplication
    stack L[i, k, j] (the coefficient of e_k in e_i e_j) and unit column u,
    one boolean per instance:

        left_unit[j]     u e_j = e_j,
        right_unit[j]    e_j u = e_j,
        comm[i, j]       e_i e_j = e_j e_i,
        assoc[i, j, k]   (e_i e_j) e_k = e_i (e_j e_k).

    Both sides of associativity are sums of products of two entries of L
    over one denominator, so their numerators are compared (over F_p, their
    difference by np.fmod, many times faster than float64 `%`).  They come
    from one copy of the numerators in the `_exact_dtype` of the largest
    partial sum, in batches of rows i of at most _BATCH_ENTRIES / 16
    entries (or one row): memory stays O(r^3), and a float64 batch fits a
    128 KB cache, faster at ranks 10 to 60 than larger batches."""
    r, p = L.shape[0], L.field.p
    one = Mat.identity(L.field, r)
    left_unit = (u.T @ L.reshape(r, r * r)).reshape(r, r).eq(one).all(axis=0)  # column j: u e_j
    right_unit = (L @ u).reshape(r, r).eq(one).all(axis=1)                     # row j: e_j u
    comm = L.eq(L.transpose(2, 1, 0)).all(axis=1)
    A = L.num.astype(_exact_dtype(r * _absmax(L.num) ** 2))
    flat = A.reshape(r, r * r)
    assoc = np.empty((r, r, r), dtype=bool)
    step = max(1, (_BATCH_ENTRIES >> 4) // max(1, r ** 3))
    for i in range(0, r, step):
        # [i, j, :, k]: (e_i e_j) e_k and e_i (e_j e_k)
        lhs = (A[i:i + step].transpose(0, 2, 1) @ flat).reshape(-1, r, r, r)
        rhs = A[i:i + step, None] @ A
        if p is None:
            eq = lhs == rhs
        else:  # residue products are nonnegative, so the difference is exact
            d = lhs - rhs
            eq = (d % p if d.dtype == object else np.fmod(d, p)) == 0
        assoc[i:i + step] = True if eq.all() else eq.all(axis=2)
    return left_unit, right_unit, comm, assoc


def _span_mod(chunks: Iterable[np.ndarray], p: int, e: int) -> Tuple[np.ndarray, List[int]]:
    """A basis of the span over F_p of the rows of every chunk [n, e], as
    rows R [m, e] with pivot columns `piv` (R[:, piv] is the identity).

    Each chunk is reduced against R by one exact product and only what is
    left is eliminated, so no more than one chunk and R are held at once;
    the chunks stop being read once R spans F_p^e."""
    R, piv = np.zeros((0, e), dtype=np.int64), []
    for V in chunks:
        if len(piv) == e:
            break
        if piv:
            V = (V - _mulmod(V[:, piv], R, p)) % p
        V = V[V.any(axis=1)]
        if len(V):
            W, new = rref_mod(V, p)
            W = W[:len(new)]
            R = np.concatenate([(R - _mulmod(R[:, new], W, p)) % p, W])
            piv = piv + new
    return R, piv


def _is_local_algebra(L: Mat) -> bool:
    """Whether the unital associative algebra E over F_p with left-
    multiplication stack L[i, k, j] (the coefficient of b_k in b_i b_j, as
    in `_algebra_laws`) is local, decided exactly.

    Let N be the two-sided ideal generated by the commutators; it is
    E [E, E], since [a, b] c = [a, bc] - b [a, c].  E is local iff E/N is
    local and N is nilpotent.  If so, N lies in J(E) and units lift from
    E/N.  Conversely E/J(E) is a finite division ring, hence a field
    (Wedderburn), so N lies in J(E), and E/N is a quotient of a local ring.
    E/N is commutative, so x -> x^p is F_p-linear on it, and its fixed
    space has one dimension per local factor (in a local factor x = c + n
    with c in F_p and n nilpotent, and x^p = x forces n^p = n, so n = 0):
    E/N is local iff b_i^p - b_i and N span a space of dimension e - 1.
    N is nilpotent iff its powers N, N^2, N^4, ... reach 0 before one
    repeats.  Every span is built by `_span_mod` from chunks of at most
    _BATCH_ENTRIES entries of products, all exact (`_mulmod`)."""
    p, e, A = L.field.p, L.shape[0], L.num
    step = max(1, _BATCH_ENTRIES // (e * e))
    chunks = range(0, e, step)

    def times(Lu: np.ndarray, V: np.ndarray) -> np.ndarray:
        # the coordinates of u v for the u with left-multiplication stack Lu
        # and every row v of V, u-major
        return _mulmod(Lu, V.T, p).transpose(0, 2, 1).reshape(-1, e)

    def left(U: np.ndarray) -> np.ndarray:
        # the left-multiplication stacks of the rows of U, read off a few
        # rows k of L at a time, so that no copy of L is made
        return np.concatenate([_mulmod(U, A[:, k:k + step].reshape(e, -1), p)
                               .reshape(len(U), -1, e) for k in chunks], axis=1)

    swapped = A.transpose(2, 1, 0)  # [j, k, i]: the coefficient of b_k in b_i b_j
    comm, _ = _span_mod((((A[i:i + step] - swapped[i:i + step]) % p).transpose(0, 2, 1)
                         .reshape(-1, e) for i in chunks), p, e)
    N, _ = _span_mod((times(A[i:i + step], comm) for i in chunks), p, e)
    # N, then the coordinates of b_i^p - b_i; b_i^p is column i of L[i]^(p-1)
    frobenius = itertools.chain([N], ((_pow_mod_stack(A[b], p - 1, p)[np.arange(len(b)), :, b]
                                       - np.eye(e, dtype=np.int64)[b]) % p
                                      for b in (np.arange(i, min(e, i + step)) for i in chunks)))
    if len(_span_mod(frobenius, p, e)[1]) != e - 1:
        return False
    S = N
    while len(S):
        S2, _ = _span_mod((times(left(S[k:k + step]), S) for k in range(0, len(S), step)), p, e)
        if len(S2) == len(S):  # S^2 = S is not 0
            return False
        S = S2
    return True


def perm_to_mat(field: Field, perm: Sequence[int]) -> Mat:
    """Permutation matrix sending basis vector e_j to e_{perm[j]}."""
    n = len(perm)
    num = np.zeros((n, n), dtype=np.int64)
    num[np.asarray(perm, dtype=np.int64), np.arange(n)] = 1
    return Mat(field, num)
