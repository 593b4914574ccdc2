"""Dense bit-packed linear algebra over GF(2).

Matrices and vectors store their bits packed into Python integers (one
integer per row, bit j = column j), so row operations are word-parallel
XORs.  All arithmetic is mod 2.  Conversion helpers to numpy uint64 word
arrays support the bulk enumeration used by the partition-function code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1


def _parity(x: int) -> int:
    return x.bit_count() & 1


@dataclass(frozen=True)
class BinaryVector:
    """Length-n bit vector; bit j of ``bits`` is component j."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 0 or self.bits < 0 or self.bits >> self.n:
            raise ValueError("bits do not fit in declared length")

    @classmethod
    def from_bits(cls, bit_list: Iterable[int]) -> "BinaryVector":
        bit_list = list(bit_list)
        bits = 0
        for j, b in enumerate(bit_list):
            if b & 1:
                bits |= 1 << j
        return cls(bits, len(bit_list))

    @classmethod
    def zero(cls, n: int) -> "BinaryVector":
        return cls(0, n)

    def weight(self) -> int:
        return self.bits.bit_count()

    def __len__(self) -> int:
        return self.n

    def __xor__(self, other: "BinaryVector") -> "BinaryVector":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        return BinaryVector(self.bits ^ other.bits, self.n)

    def bit(self, j: int) -> int:
        return (self.bits >> j) & 1

    def dot(self, other: "BinaryVector") -> int:
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        return _parity(self.bits & other.bits)

    def support(self) -> list[int]:
        return [j for j in range(self.n) if (self.bits >> j) & 1]

    def to_array(self) -> np.ndarray:
        return np.array([(self.bits >> j) & 1 for j in range(self.n)], dtype=np.uint8)

    def lex_less(self, other: "BinaryVector") -> bool:
        """Lexicographic order reading component 0 first; 0 < 1."""
        diff = self.bits ^ other.bits
        if diff == 0:
            return False
        low = diff & (-diff)
        return (self.bits & low) == 0

    def __str__(self) -> str:
        return "".join(str(self.bit(j)) for j in range(self.n))

    def __repr__(self) -> str:
        return f"BinaryVector({self})"


class BinaryMatrix:
    """Immutable GF(2) matrix; row i packed into ``self.row_bits[i]``."""

    __slots__ = ("row_bits", "rows", "cols")

    def __init__(self, row_ints: Sequence[int], cols: int):
        self.row_bits = tuple(int(r) for r in row_ints)
        self.cols = int(cols)
        self.rows = len(self.row_bits)
        for r in self.row_bits:
            if r < 0 or r >> self.cols:
                raise ValueError("row does not fit in declared column count")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_array(cls, arr) -> "BinaryMatrix":
        arr = np.atleast_2d(np.asarray(arr, dtype=np.uint8) & 1)
        rows = []
        for row in arr:
            bits = 0
            for j, b in enumerate(row):
                if b:
                    bits |= 1 << j
            rows.append(bits)
        return cls(rows, arr.shape[1])

    @classmethod
    def from_rows(cls, vectors: Sequence[BinaryVector]) -> "BinaryMatrix":
        if not vectors:
            raise ValueError("need at least one row (or use zeros/empty)")
        n = vectors[0].n
        return cls([v.bits for v in vectors], n)

    @classmethod
    def empty(cls, cols: int) -> "BinaryMatrix":
        return cls([], cols)

    # -- accessors ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def row(self, i: int) -> BinaryVector:
        return BinaryVector(self.row_bits[i], self.cols)

    def row_vectors(self) -> list[BinaryVector]:
        return [BinaryVector(r, self.cols) for r in self.row_bits]

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.row_bits)

    def to_array(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.uint8)
        for i, r in enumerate(self.row_bits):
            for j in range(self.cols):
                out[i, j] = (r >> j) & 1
        return out

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix(self.column_ints(), self.rows)

    def column_ints(self) -> list[int]:
        """Column j as an integer over row indices (bit i = entry (i, j))."""
        out = [0] * self.cols
        for i, r in enumerate(self.row_bits):
            bit = 1 << i
            while r:
                j = (r & -r).bit_length() - 1
                out[j] |= bit
                r &= r - 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self.cols == other.cols
            and self.row_bits == other.row_bits
        )

    def __hash__(self):
        return hash((self.row_bits, self.cols))

    def __str__(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(self.rows))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.rows}x{self.cols})"


# -- elementary constructions ----------------------------------------------


def identity(n: int) -> BinaryMatrix:
    return BinaryMatrix([1 << i for i in range(n)], n)


def zeros(rows: int, cols: int) -> BinaryMatrix:
    return BinaryMatrix([0] * rows, cols)


def hstack(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    if a.rows != b.rows:
        raise ValueError("row count mismatch in hstack")
    return BinaryMatrix(
        [ra | (rb << a.cols) for ra, rb in zip(a.row_bits, b.row_bits)],
        a.cols + b.cols,
    )


def vstack(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    if a.cols != b.cols:
        raise ValueError("column count mismatch in vstack")
    return BinaryMatrix(list(a.row_bits) + list(b.row_bits), a.cols)


def circulant(poly: Sequence[int], n: int) -> BinaryMatrix:
    """n x n circulant whose row i is ``poly`` cyclically shifted by i.

    ``poly`` lists coefficients lowest degree first; its degree must be < n.
    """
    poly = list(poly)
    deg = max((i for i, c in enumerate(poly) if c & 1), default=0)
    if deg >= n:
        raise ValueError(f"polynomial degree {deg} must be < n = {n}")
    base = 0
    for i, c in enumerate(poly):
        if c & 1:
            base |= 1 << i
    mask = (1 << n) - 1
    rows = [((base << i) | (base >> (n - i))) & mask if i else base for i in range(n)]
    return BinaryMatrix(rows, n)


def kron(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """Kronecker product over GF(2); block (i, j) of the result is a_ij * B."""
    rows = []
    for ra in a.row_bits:
        for rb in b.row_bits:
            bits = 0
            r = ra
            while r:
                j = (r & -r).bit_length() - 1
                bits |= rb << (j * b.cols)
                r &= r - 1
            rows.append(bits)
    return BinaryMatrix(rows, a.cols * b.cols)


# -- products and inner products ---------------------------------------------


def mat_vec(m: BinaryMatrix, v: BinaryVector) -> BinaryVector:
    """m @ v^T over GF(2); result length = rows(m)."""
    if v.n != m.cols:
        raise ValueError(f"length mismatch: vector {v.n}, matrix cols {m.cols}")
    return BinaryVector(parities(m.row_bits, v.bits), m.rows)


def mat_mul_t(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """a @ b^T over GF(2); entry (i, j) = <row_i(a), row_j(b)>."""
    if a.cols != b.cols:
        raise ValueError("column count mismatch")
    rows = []
    for ra in a.row_bits:
        bits = 0
        for j, rb in enumerate(b.row_bits):
            if _parity(ra & rb):
                bits |= 1 << j
        rows.append(bits)
    return BinaryMatrix(rows, b.rows)


def conjugate_vector(e: BinaryVector) -> BinaryVector:
    """Swap the left and right halves of a length-2n vector."""
    if e.n % 2:
        raise ValueError("conjugate needs even length")
    n = e.n // 2
    mask = (1 << n) - 1
    return BinaryVector(((e.bits & mask) << n) | (e.bits >> n), e.n)


def conjugate(m: BinaryMatrix) -> BinaryMatrix:
    """Swap the left and right n-column halves of a 2n-column matrix."""
    if m.cols % 2:
        raise ValueError("conjugate needs an even column count")
    n = m.cols // 2
    mask = (1 << n) - 1
    return BinaryMatrix(
        [((r & mask) << n) | (r >> n) for r in m.row_bits], m.cols
    )


def trace_inner(e1: BinaryVector, e2: BinaryVector) -> int:
    """Symplectic (trace) inner product u1.v2 + v1.u2 mod 2 for e = (v|u)."""
    if e1.n != e2.n:
        raise ValueError(f"length mismatch: {e1.n} != {e2.n}")
    if e1.n % 2:
        raise ValueError("trace inner product needs even length")
    return e1.dot(conjugate_vector(e2))


# -- elimination -------------------------------------------------------------


def parities(rows: Sequence[int], bits: int) -> int:
    """Packed parities: bit i is <rows[i], bits> mod 2."""
    out = 0
    for i, r in enumerate(rows):
        if (r & bits).bit_count() & 1:
            out |= 1 << i
    return out


class LinearMap:
    """A fixed GF(2)-linear map of packed bit vectors, applied by table lookup.

    ``images[j]`` is the image of bit j of an n = len(images) bit input.
    Each 8-bit slice of the input has a table of the XORs of its images
    (256 entries, fewer for a last slice under 8 bits), so applying the map
    costs ceil(n / 8) lookups, whatever the number of output bits.  An input
    wider than n bits raises.
    """

    __slots__ = ("_tables", "_n_bytes")

    def __init__(self, images: Sequence[int]):
        self._n_bytes = (len(images) + 7) // 8
        self._tables = []
        for start in range(0, len(images), 8):
            table = [0]
            for img in images[start : start + 8]:
                table += [t ^ img for t in table]
            self._tables.append(table)

    @classmethod
    def from_rows(
        cls, rows: Sequence[int], nbits: int, out_bits: Optional[Sequence[int]] = None
    ) -> "LinearMap":
        """The map x -> ``parities(rows, x)`` on nbits-bit vectors.

        With ``out_bits``, the parity of row i goes to output bit out_bits[i]
        instead of bit i.
        """
        images = [0] * nbits
        for i, r in enumerate(rows):
            bit = 1 << (i if out_bits is None else out_bits[i])
            while r:
                low = r & -r
                images[low.bit_length() - 1] |= bit
                r ^= low
        return cls(images)

    def apply(self, bits: int) -> int:
        out = 0
        for table, byte in zip(self._tables, bits.to_bytes(self._n_bytes, "little")):
            out ^= table[byte]
        return out


def eliminate(rows: list[int], cols: Iterable[int]) -> list[int]:
    """Gauss-Jordan elimination of ``rows`` in place; returns the pivot columns.

    Columns are tried in the order given, each pivot being the first
    remaining row with that bit set, and the pivot column is cleared from
    every other row.  Afterwards row i holds pivot i and the rows past the
    rank are zero on the columns tried.  Bits in columns not tried (an
    augmented block) are carried along by the row operations.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for col in cols:
        if r >= nrows:
            break
        sel = 1 << col
        pivot = next((i for i in range(r, nrows) if rows[i] & sel), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(nrows):
            if i != r and rows[i] & sel:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
    return pivots


def rref(m: BinaryMatrix) -> tuple[BinaryMatrix, int, list[int]]:
    """Reduced row-echelon form.

    Returns:
        (R, rank, pivot_cols) with R the fully reduced form (zero rows kept
        at the bottom) and pivot_cols the pivot column indices in order.
    """
    rows = list(m.row_bits)
    pivots = eliminate(rows, range(m.cols))
    return BinaryMatrix(rows, m.cols), len(pivots), pivots


def rank(m: BinaryMatrix) -> int:
    return rref(m)[1]


def row_basis(m: BinaryMatrix) -> BinaryMatrix:
    """Independent rows spanning the row space, in echelon order."""
    r, rk, _ = rref(m)
    return BinaryMatrix(r.row_bits[:rk], m.cols)


def nullspace(m: BinaryMatrix) -> BinaryMatrix:
    """Basis (rows) of {x : m x^T = 0}; may have zero rows."""
    r, rk, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        bits = 1 << f
        for i, c in enumerate(pivots):
            if (r.row_bits[i] >> f) & 1:
                bits |= 1 << c
        basis.append(bits)
    return BinaryMatrix(basis, m.cols)


def exact_dual(m: BinaryMatrix) -> BinaryMatrix:
    """Full-row-rank M* with M (M*)^T = 0 and rank M* = cols - rank M."""
    if m.cols == 0:
        raise ValueError("exact_dual needs a nonempty matrix")
    return nullspace(m)


class SolveMap:
    """Particular solutions of m x^T = s for every s, from one elimination.

    m is eliminated with the identity appended, so reduced row i carries the
    row transform t_i.  For a pivot row, bit pivot_i of the solution is
    <t_i, s>; the transforms of the zero rows are the consistency checks
    <t_i, s> = 0.  The solution is the one that eliminating m augmented by
    s alone gives.  Two ``LinearMap``s of s are built here once: the index,
    and the solution with the checks packed above its bits.
    """

    def __init__(self, m: BinaryMatrix):
        rows = [r | (1 << (m.cols + i)) for i, r in enumerate(m.row_bits)]
        pivots = eliminate(rows, range(m.cols))
        transforms = [r >> m.cols for r in rows]
        self.rows, self.cols = m.rows, m.cols
        self.rank = len(pivots)
        self._solve_rows = transforms[: self.rank]
        self._index = LinearMap.from_rows(self._solve_rows, m.rows)
        # solution bit pivots[i] is <t_i, s>; check i lands on bit cols + i
        checks = range(m.cols, m.cols + m.rows - self.rank)
        self._solve = LinearMap.from_rows(transforms, m.rows, pivots + list(checks))

    def index(self, bits: int) -> int:
        """Compact index of a reachable s: the solution's pivot bits, packed.

        Linear in s and injective on the image of m, so it numbers the
        reachable right-hand sides 0 .. 2^rank - 1.
        """
        return self._index.apply(bits)

    def solve(self, s: BinaryVector) -> Optional[BinaryVector]:
        """The particular solution for s, or None when s is not reachable."""
        if s.n != self.rows:
            raise ValueError(f"syndrome length {s.n} != rows {self.rows}")
        bits = self._solve.apply(s.bits)
        if bits >> self.cols:  # a consistency check fails
            return None
        return BinaryVector(bits, self.cols)


def solve(m: BinaryMatrix, s: BinaryVector) -> Optional[BinaryVector]:
    """One particular solution x of m x^T = s, or None when inconsistent."""
    return SolveMap(m).solve(s)


class RowReducer:
    """Reduces vectors modulo a fixed row space; reusable across many calls.

    ``cols`` is the pivot column order (default 0, 1, ...); the reduced
    vector is zero on every pivot column.
    """

    def __init__(self, m: BinaryMatrix, cols: Optional[Iterable[int]] = None):
        rows = list(m.row_bits)
        self._pivots = eliminate(rows, range(m.cols) if cols is None else cols)
        self.cols = m.cols
        self._rows = rows[: len(self._pivots)]

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce_bits(self, bits: int) -> int:
        for row, col in zip(self._rows, self._pivots):
            if (bits >> col) & 1:
                bits ^= row
        return bits

    def reduce(self, v: BinaryVector) -> BinaryVector:
        if v.n != self.cols:
            raise ValueError("length mismatch")
        return BinaryVector(self.reduce_bits(v.bits), self.cols)

    def contains(self, v: BinaryVector) -> bool:
        return self.reduce(v).bits == 0


def invert(m: BinaryMatrix) -> BinaryMatrix:
    """Inverse of a square full-rank GF(2) matrix."""
    if m.rows != m.cols:
        raise ValueError("invert needs a square matrix")
    # full rank: the pivots are 0..n-1 in order, so the row transforms are m^-1
    solver = SolveMap(m)
    if solver.rank != m.rows:
        raise ValueError("matrix is singular over GF(2)")
    return BinaryMatrix(solver._solve_rows, m.rows)


# -- packed word enumeration --------------------------------------------------


def n_words(nbits: int) -> int:
    return max(1, (nbits + WORD_BITS - 1) // WORD_BITS)


def int_to_words(x: int, nwords: int) -> np.ndarray:
    return np.array(
        [(x >> (WORD_BITS * i)) & _WORD_MASK for i in range(nwords)],
        dtype=np.uint64,
    )


def ints_to_words(xs: Sequence[int], nbits: int) -> np.ndarray:
    w = n_words(nbits)
    out = np.empty((len(xs), w), dtype=np.uint64)
    for i, x in enumerate(xs):
        out[i] = int_to_words(x, w)
    return out


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Bit count per row of a (..., W) uint64 array."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def span_table(gen_words: np.ndarray) -> np.ndarray:
    """All 2^r XOR combinations of the r generator rows, by index doubling.

    Element i is the XOR of generators at the set bits of i, so generator 0
    varies fastest.
    """
    r = gen_words.shape[0]
    w = gen_words.shape[1] if gen_words.ndim == 2 else 1
    table = np.zeros((1 << r, w), dtype=np.uint64)
    for i in range(r):
        half = 1 << i
        table[half : 2 * half] = table[:half] ^ gen_words[i]
    return table


class CosetTable:
    """Repeated weight scans over {shift ^ span(generators)}.

    Generators are ordered low-to-high index significance; the last
    ``class_gens`` generators define a class label = element_index >> r0
    where r0 = len(generators) - class_gens.  Intended use: r0 spans the
    degeneracy group, class generators span logical representatives, and
    one scan yields per-class weight histograms.

    Every scan XORs the shift into one scratch array owned by the table, so
    a table is not reentrant: scan it from one thread at a time.
    """

    def __init__(
        self,
        gen_ints: Sequence[int],
        nbits: int,
        class_gens: int = 0,
        max_log2: int = 24,
    ):
        self.n_gens = len(gen_ints)
        if self.n_gens > max_log2:
            raise BudgetExceededError(
                f"coset enumeration needs 2^{self.n_gens} elements "
                f"(budget 2^{max_log2})"
            )
        self.nbits = nbits
        self.class_gens = class_gens
        self.rank_gens = self.n_gens - class_gens
        self.size = 1 << self.n_gens
        self.n_classes = 1 << class_gens
        words = span_table(ints_to_words(list(gen_ints), nbits))
        self._words = words[:, 0] if words.shape[1] == 1 else words
        self._scratch = np.empty_like(self._words)
        if class_gens:
            # key = class * (nbits + 1) + weight, below n_classes * (nbits + 1)
            idx = np.arange(self.size, dtype=np.int64) >> self.rank_gens
            key_type = np.min_scalar_type(self.n_classes * (nbits + 1))
            self._class_key = (idx * (nbits + 1)).astype(key_type)
        else:
            self._class_key = None

    def weights(self, shift: int = 0) -> np.ndarray:
        """Weight of every element of the shifted span, in index order.

        The smallest unsigned type that holds nbits (uint8 up to 255 bits).
        """
        if self._words.ndim == 1:
            np.bitwise_xor(self._words, np.uint64(shift), out=self._scratch)
            return np.bitwise_count(self._scratch)
        sw = int_to_words(shift, self._words.shape[1])
        np.bitwise_xor(self._words, sw, out=self._scratch)
        return np.bitwise_count(self._scratch).sum(
            axis=-1, dtype=np.min_scalar_type(self.nbits)
        )

    def class_histograms(self, shift: int = 0) -> np.ndarray:
        """(n_classes, nbits + 1) counts of element weights per class."""
        w = self.weights(shift)
        stride = self.nbits + 1
        if self._class_key is None:
            return np.bincount(w, minlength=stride)[np.newaxis]
        hist = np.bincount(self._class_key + w, minlength=self.n_classes * stride)
        return hist.reshape(self.n_classes, stride)


def trellis_histograms(
    steps: Sequence[int], state_bits: int, max_bytes: Optional[int] = None
) -> np.ndarray:
    """Exact weight histograms of every state of a linear map, by a trellis.

    A vector x of n = len(steps) bits has the state XOR of steps[j] over its
    set bits j.  Returns hist of shape (2^state_bits, n + 1) with hist[t, w]
    the number of weight-w vectors in state t.  Bond j moves every count
    from (t, w) to (t ^ steps[j], w + 1), one pass over the table per bond
    (the syndrome trellis of Wolf 1978 and BCJR 1974, counted in integers).

    No count, of any prefix of the bonds, exceeds 2^d with d = n minus the
    rank of the steps, so the table has the smallest unsigned type holding
    2^d.  Peak memory is the table, one gathered copy of it and two index
    arrays; with ``max_bytes`` that sum is checked before any allocation.
    """
    n = len(steps)
    kernel_dim = n - rank(BinaryMatrix(steps, state_bits))
    dtype = np.min_scalar_type(1 << kernel_dim)
    if dtype.kind != "u":
        raise ValueError(f"trellis counts up to 2^{kernel_dim} do not fit in 64 bits")
    n_states = 1 << state_bits
    peak = 2 * n_states * ((n + 1) * dtype.itemsize + np.dtype(np.intp).itemsize)
    if max_bytes is not None and peak > max_bytes:
        raise BudgetExceededError(
            f"syndrome trellis needs {peak} bytes (budget {max_bytes} bytes)"
        )
    hist = np.zeros((n_states, n + 1), dtype=dtype)
    hist[0, 0] = 1
    states = np.arange(n_states, dtype=np.intp)
    source = np.empty_like(states)
    for j, step in enumerate(steps):
        # before bond j no vector is heavier than j
        np.bitwise_xor(states, step, out=source)
        hist[:, 1 : j + 2] += hist[source, : j + 1]
    return hist


class BudgetExceededError(RuntimeError):
    """An exact enumeration would exceed the configured budget."""


# -- coset minimum weight -----------------------------------------------------


def _lex_min_int(a: int, b: int) -> int:
    diff = a ^ b
    if diff == 0:
        return a
    low = diff & (-diff)
    return a if (a & low) == 0 else b


def coset_min_weight(
    v: BinaryVector,
    g: BinaryMatrix,
    cap: Optional[int] = None,
    budget_log2: int = 24,
    isd_iters: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> tuple[int, bool]:
    """Minimum weight over the coset v + rowspace(g).

    Exact (full enumeration via Gray-order span) when 2^rank(g) fits the
    budget; otherwise randomized information-set sampling with a fixed
    iteration count and ``exact=False``.  ``cap`` lets the randomized
    search stop early once an element of weight <= cap is found.

    Returns:
        (weight, exact)
    """
    w, _, exact = coset_min_rep(v, g, cap, budget_log2, isd_iters, rng)
    return w, exact


def coset_min_rep(
    v: BinaryVector,
    g: BinaryMatrix,
    cap: Optional[int] = None,
    budget_log2: int = 24,
    isd_iters: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> tuple[int, BinaryVector, bool]:
    """Like coset_min_weight but also returns the minimizing element.

    Ties are broken by the lexicographically smallest bit vector.
    """
    if v.n != g.cols:
        raise ValueError(f"length mismatch: vector {v.n}, matrix cols {g.cols}")
    basis = row_basis(g)
    if basis.rows <= budget_log2:
        return _coset_min_exact(v, basis)
    return _coset_min_isd(v, basis, cap, isd_iters, rng)


def _coset_min_exact(v: BinaryVector, basis: BinaryMatrix):
    gens = list(basis.row_bits)
    chunk = 18
    low, high = gens[:chunk], gens[chunk:]
    low_words = span_table(ints_to_words(low, v.n)) if low else None
    best_w = v.weight() + 1
    best_bits = 0
    for h in range(1 << len(high)):
        shift = v.bits
        hh = h
        for i, gbit in enumerate(high):
            if (hh >> i) & 1:
                shift ^= gbit
        if low_words is None:
            w = shift.bit_count()
            if w < best_w:
                best_w, best_bits = w, shift
            elif w == best_w:
                best_bits = _lex_min_int(best_bits, shift)
            continue
        sw = int_to_words(shift, low_words.shape[1])
        wts = popcount_words(low_words ^ sw)
        local = int(wts.min())
        if local > best_w:
            continue
        for idx in np.flatnonzero(wts == local):
            bits = shift
            ii = int(idx)
            for i, gbit in enumerate(low):
                if (ii >> i) & 1:
                    bits ^= gbit
            if local < best_w:
                best_w, best_bits = local, bits
            else:
                best_bits = _lex_min_int(best_bits, bits)
    return best_w, BinaryVector(best_bits, v.n), True


def _coset_min_isd(v, basis, cap, iters, rng):
    if rng is None:
        rng = np.random.default_rng(0)
    best_bits = v.bits
    best_w = v.weight()
    cols = list(range(v.n))
    for _ in range(iters):
        rng.shuffle(cols)
        # the unique coset element that is zero on the information set
        cand = RowReducer(basis, cols).reduce_bits(v.bits)
        w = cand.bit_count()
        if w < best_w:
            best_w, best_bits = w, cand
        elif w == best_w:
            best_bits = _lex_min_int(best_bits, cand)
        if cap is not None and best_w <= cap:
            break
    return best_w, BinaryVector(best_bits, v.n), False
