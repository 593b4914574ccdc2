"""Stabilizer and CSS codes: construction, validation, coset structure.

A code is held as a binary symplectic generator matrix G with 2n columns
(row = (v|u) for an X^v Z^u generator).  CSS codes additionally keep the
(G_X, G_Z) split.  A ``SectorView`` bundles everything the spin-model and
decoding layers need about one error sector: the degeneracy generators,
the syndrome map, a logical (codeword) basis and the paired dual basis
used for class labelling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import gf2
from .gf2 import (
    BinaryMatrix,
    BinaryVector,
    CosetTable,
    LinearMap,
    RowReducer,
    SolveMap,
    circulant,
    conjugate,
    hstack,
    identity,
    kron,
    mat_mul_t,
    nullspace,
    parities,
    rref,
    row_basis,
    vstack,
)


class CommutationError(ValueError):
    """Generator rows fail the required commutation/orthogonality relations."""


class StabilizerCode:
    """Validated stabilizer code with cached rank data.

    Attributes:
        n: number of physical qubits.
        generator: N_s x 2n binary symplectic generator matrix.
        gx, gz:  CSS split (or None for a generic code).
        k: number of encoded qubits, n - rank(generator).
        n_gauge: count of linearly dependent generator rows.
    """

    def __init__(self, generator: BinaryMatrix, gx=None, gz=None, metadata=None):
        if generator.cols % 2:
            raise ValueError("generator matrix needs an even column count")
        self.generator = generator
        self.n = generator.cols // 2
        self.gx = gx
        self.gz = gz
        self.metadata = dict(metadata or {})
        self.rank_g = gf2.rank(generator)
        self.k = self.n - self.rank_g
        self.n_gauge = generator.rows - self.rank_g
        if self.is_css:
            rx, rz = gf2.rank(gx), gf2.rank(gz)
            assert self.k == self.n - rx - rz, "rank arithmetic mismatch"
        self._views: dict = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_symplectic(cls, generator: BinaryMatrix, metadata=None) -> "StabilizerCode":
        """Build from symplectic generator rows; rejects anticommuting pairs."""
        comm = mat_mul_t(generator, conjugate(generator))
        for i in range(comm.rows):
            if comm.row_bits[i]:
                j = (comm.row_bits[i] & -comm.row_bits[i]).bit_length() - 1
                raise CommutationError(
                    f"generator rows {min(i, j)} and {max(i, j)} anticommute"
                )
        return cls(generator, metadata=metadata)

    @classmethod
    def from_css(cls, gx: BinaryMatrix, gz: BinaryMatrix, metadata=None) -> "StabilizerCode":
        """Build a CSS code from X/Z check matrices with G_X G_Z^T = 0."""
        if gx.cols != gz.cols:
            raise ValueError("G_X and G_Z must share the qubit count")
        prod = mat_mul_t(gx, gz)
        if not prod.is_zero():
            i = next(i for i in range(prod.rows) if prod.row_bits[i])
            j = (prod.row_bits[i] & -prod.row_bits[i]).bit_length() - 1
            raise CommutationError(
                f"G_X row {i} and G_Z row {j} are not orthogonal"
            )
        n = gx.cols
        x_rows = [r for r in gx.row_bits]
        z_rows = [r << n for r in gz.row_bits]
        generator = BinaryMatrix(x_rows + z_rows, 2 * n)
        return cls(generator, gx=gx, gz=gz, metadata=metadata)

    # -- basic properties ------------------------------------------------------

    @property
    def is_css(self) -> bool:
        return self.gx is not None and self.gz is not None

    def __repr__(self):
        kind = "CSS" if self.is_css else "stabilizer"
        return f"StabilizerCode({kind} n={self.n} k={self.k})"

    # -- sector views ----------------------------------------------------------

    def sector(self, name: Optional[str]) -> "SectorView":
        """Sector view: "X", "Z" (CSS only) or None for the full code."""
        key = name if name is None else name.upper()
        if key not in self._views:
            self._views[key] = _build_view(self, key)
        return self._views[key]

    def sectors(self) -> list[Optional[str]]:
        return ["X", "Z"] if self.is_css else [None]


class SectorView:
    """One decoding sector: degeneracy group, syndrome map, logical bases.

    For a CSS code, sector "Z" covers Z-type errors: bonds are the n qubit
    flags u, the degeneracy group is rowspace(G_Z) and the syndrome is
    G_X u^T.  Sector "X" mirrors this.  The full-code view (sector None)
    uses the 2n-column symplectic vectors with the conjugate syndrome map.

    The linear maps are byte-table ``LinearMap``s built once per view: the
    solve maps behind ``solve_syndrome`` (one elimination), and one map of a
    bond vector to its k label parities in the low bits and its syndrome
    above them, behind ``syndrome``, ``class_label`` and ``trellis_index``.
    The inverse of the logical/indicator pairing is folded into the label
    rows.
    """

    def __init__(self, code, name, theta, syn_matrix, logicals, indicators):
        self.code = code
        self.name = name
        self.theta = theta
        self.syn_matrix = syn_matrix
        self.logicals = logicals
        self.indicators = indicators
        self.n_bonds = theta.cols
        self.k = logicals.rows
        self.theta_basis = row_basis(theta)
        self.rank_theta = self.theta_basis.rows
        self.n_gauge = theta.rows - self.rank_theta
        self._syn_map = SolveMap(syn_matrix)
        self._table = None
        # the decoder's kept decisions, one dict per beta; see decoder
        self._decisions: dict = {}
        self._reps: dict = {}
        # the evaluation record of the last class_log_values call; see wegner
        self._evaluation = None
        self._tot_matrix = None
        # the sector and zero-syndrome-space spin models, built by wegner on first use
        self._sector_model = None
        self._tot_model = None
        # the label a of indicator parities y solves a P = y for the pairing
        # P = logicals . indicators^T: bit i of a is <y, column i of P^-1>
        self._pair_inv_cols = []
        label_rows = ()
        if self.k:
            pair = mat_mul_t(logicals, indicators)
            pair_inv_t = gf2.invert(pair).transpose()  # raises if pairing degenerate
            self._pair_inv_cols = list(pair_inv_t.row_bits)
            label_rows = mat_mul_t(pair_inv_t, indicators.transpose()).row_bits
        self._label_syn = LinearMap.from_rows(label_rows + syn_matrix.row_bits, self.n_bonds)

    # -- syndromes -------------------------------------------------------------

    def syndrome(self, e: BinaryVector) -> BinaryVector:
        if e.n != self.n_bonds:
            raise ValueError(f"length mismatch: vector {e.n}, matrix cols {self.n_bonds}")
        return BinaryVector(self._label_syn.apply(e.bits) >> self.k, self.syn_matrix.rows)

    def solve_syndrome(self, s: BinaryVector) -> BinaryVector:
        """Any error with the requested syndrome; raises if unreachable."""
        x = self._syn_map.solve(s)
        if x is None:
            raise ValueError("syndrome is not in the image of the check matrix")
        return x

    def all_syndromes(self):
        """Iterate every reachable syndrome exactly once."""
        basis = row_basis(self.syn_matrix.transpose())
        for mask in range(1 << basis.rows):
            bits = 0
            m = mask
            for i in range(basis.rows):
                if (m >> i) & 1:
                    bits ^= basis.row_bits[i]
            yield BinaryVector(bits, self.syn_matrix.rows)

    @property
    def n_syndromes(self) -> int:
        return 1 << self._syn_map.rank

    def trellis_index(self, bits: int) -> tuple[int, int]:
        """(syndrome index, label bits) of an error: its place in ``class_trellis``.

        The syndrome index numbers the reachable syndromes (``SolveMap.index``);
        the label bits are the parities of the label rows, which ``class_label``
        reads on zero-syndrome vectors.  Both are linear, so class c of an
        error e sits at label bits c ^ (label bits of e).
        """
        labelled = self._label_syn.apply(bits)
        return self._syn_map.index(labelled >> self.k), labelled & ((1 << self.k) - 1)

    def class_trellis(self, max_bytes: Optional[int] = None) -> np.ndarray:
        """hist[i, l, w]: the errors of weight w at (syndrome index i, label bits l).

        For any error e with ``trellis_index`` (i, l), hist[i][c ^ l] is the
        class-c row of ``coset_table().class_histograms(e.bits)``, as exact
        integers, for every class of every reachable syndrome at once.  Built
        on each call by ``gf2.trellis_histograms``, which checks ``max_bytes``
        before it allocates; nothing is kept on the view.
        """
        steps = []
        for j in range(self.n_bonds):
            i, l = self.trellis_index(1 << j)
            steps.append((i << self.k) | l)
        hist = gf2.trellis_histograms(steps, self._syn_map.rank + self.k, max_bytes)
        return hist.reshape(self.n_syndromes, 1 << self.k, self.n_bonds + 1)

    # -- class labels ------------------------------------------------------------

    def class_label(self, x: BinaryVector) -> int:
        """Label in [0, 2^k) of the class of a zero-syndrome vector x."""
        if x.n != self.n_bonds:
            raise ValueError(f"length mismatch: vector {x.n}, matrix cols {self.n_bonds}")
        labelled = self._label_syn.apply(x.bits)
        if labelled >> self.k:
            raise ValueError("vector has a nonzero syndrome")
        return labelled

    def label_from_indicators(self, y: int) -> int:
        """Class label whose indicator parities are y (bit j: indicator j)."""
        return parities(self._pair_inv_cols, y)

    def class_vector(self, label: int) -> BinaryVector:
        """Raw representative sum_j label_j * logical_j of a class."""
        bits = 0
        for j in range(self.k):
            if (label >> j) & 1:
                bits ^= self.logicals.row_bits[j]
        return BinaryVector(bits, self.n_bonds)

    def representative(self, label: int, budget_log2: int = 24) -> BinaryVector:
        """Minimum-weight class representative (lexicographic tie-break).

        Exact when the degeneracy group has at most 2^budget_log2 elements.
        Above the budget the representative comes from the randomized
        information-set search of ``coset_min_rep`` and need not be the
        exact minimum or the exact tie-break.
        """
        if label not in self._reps:
            v = self.class_vector(label)
            _, self._reps[label], _ = gf2.coset_min_rep(
                v, self.theta, budget_log2=budget_log2
            )
        return self._reps[label]

    def class_distance(self, label: int, budget_log2: int = 24) -> tuple[int, bool]:
        """d_c: minimum weight over the class coset, with exactness flag."""
        v = self.class_vector(label)
        return gf2.coset_min_weight(v, self.theta, budget_log2=budget_log2)

    # -- enumeration machinery -----------------------------------------------

    def coset_table(self, budget_log2: int = 24) -> CosetTable:
        """Span of [theta basis | logicals], built once; class label = index >> rank."""
        # an over-budget call raises in the constructor, before it allocates
        if self._table is None or self.rank_theta + self.k > budget_log2:
            gens = list(self.theta_basis.row_bits) + list(self.logicals.row_bits)
            self._table = CosetTable(
                gens, self.n_bonds, class_gens=self.k, max_log2=budget_log2
            )
        return self._table

    @property
    def tot_matrix(self) -> BinaryMatrix:
        """Exact dual of the syndrome matrix: generates all zero-syndrome vectors."""
        if self._tot_matrix is None:
            self._tot_matrix = gf2.exact_dual(self.syn_matrix)
        return self._tot_matrix


def _quotient_basis(ambient: BinaryMatrix, subgroup: BinaryMatrix) -> BinaryMatrix:
    """Rows of ``ambient`` that extend ``subgroup`` to a basis of its span.

    Row j is kept when it is independent of ``subgroup`` and of the rows
    before it, that is when its column is a pivot of the stacked rows taken
    as columns.
    """
    _, _, pivots = rref(vstack(subgroup, ambient).transpose())
    skip = subgroup.rows
    return BinaryMatrix(
        [ambient.row_bits[j - skip] for j in pivots if j >= skip], ambient.cols
    )


def _build_view(code: StabilizerCode, name: Optional[str]) -> SectorView:
    if name is None:
        theta = code.generator
        syn = conjugate(code.generator)
        ker = nullspace(syn)
        logicals = _quotient_basis(ker, theta)
        assert logicals.rows == 2 * code.k
        indicators = conjugate(logicals) if logicals.rows else BinaryMatrix.empty(2 * code.n)
        return SectorView(code, None, theta, syn, logicals, indicators)
    if not code.is_css:
        raise ValueError("sector views require a CSS code; use sector=None")
    if name == "Z":
        theta, syn = code.gz, code.gx
    elif name == "X":
        theta, syn = code.gx, code.gz
    else:
        raise ValueError(f"unknown sector {name!r}")
    logicals = _quotient_basis(nullspace(syn), theta)
    indicators = _quotient_basis(nullspace(theta), syn)
    assert logicals.rows == indicators.rows == code.k
    return SectorView(code, name, theta, syn, logicals, indicators)


# -- module-level operations ---------------------------------------------------


def syndrome(code: StabilizerCode, e: BinaryVector) -> BinaryVector:
    """Full-code syndrome conj(G) e^T of a symplectic error vector."""
    return code.sector(None).syndrome(e)


@dataclass
class CodewordClasses:
    """Logical class data: bases always, full representative lists on budget."""

    basis: BinaryMatrix
    sector_bases: dict
    representatives: Optional[list] = None
    sector_representatives: Optional[dict] = None


def codeword_classes(code: StabilizerCode, budget: int = 1 << 16) -> CodewordClasses:
    """Logical codeword bases (2k full-code rows; k per CSS sector).

    Representative lists (minimum-weight members, lexicographic tie-break)
    are enumerated only when the class count fits the budget.
    """
    full = code.sector(None)
    sector_bases = {}
    if code.is_css:
        sector_bases = {s: code.sector(s).logicals for s in ("X", "Z")}
    reps = None
    sector_reps = None
    if (1 << full.k) <= budget:
        reps = [full.representative(a) for a in range(1 << full.k)]
    if code.is_css:
        sector_reps = {}
        for s in ("X", "Z"):
            view = code.sector(s)
            if (1 << view.k) <= budget:
                sector_reps[s] = [view.representative(a) for a in range(1 << view.k)]
    return CodewordClasses(full.logicals, sector_bases, reps, sector_reps)


# -- code families ---------------------------------------------------------------


def hp_code(h1: BinaryMatrix, h2: BinaryMatrix, metadata=None) -> StabilizerCode:
    """Hypergraph-product CSS code of two binary check matrices.

    G_X = (E_{r2} x H1 | H2 x E_{r1}),
    G_Z = (H2^T x E_{n1} | E_{n2} x H1^T);
    n = r2*n1 + n2*r1 qubits.
    """
    r1, n1 = h1.shape
    r2, n2 = h2.shape
    gx = hstack(kron(identity(r2), h1), kron(h2, identity(r1)))
    gz = hstack(kron(h2.transpose(), identity(n1)), kron(identity(n2), h1.transpose()))
    md = {"family": "hypergraph-product"}
    md.update(metadata or {})
    return StabilizerCode.from_css(gx, gz, metadata=md)


def cyclic_hp(h1: Sequence[int], n1: int, h2: Sequence[int], n2: int) -> StabilizerCode:
    """Hypergraph product of two square circulant check matrices."""
    code = hp_code(
        circulant(h1, n1),
        circulant(h2, n2),
        metadata={"family": "cyclic-hp", "h1": list(h1), "n1": n1, "h2": list(h2), "n2": n2},
    )
    return code


def toric_code(L: int) -> StabilizerCode:
    """[[2L^2, 2, L]] toric code as the cyclic product of two 1+x circulants."""
    code = cyclic_hp([1, 1], L, [1, 1], L)
    code.metadata.update({"family": "toric", "L": L})
    return code


def debierre_turban_code(n1: int, n2: int, l: int = 3) -> StabilizerCode:
    """Striped-ground-state cyclic product: h1 = 1+x, h2 = 1+x+...+x^(l-1)."""
    if n2 % l:
        raise ValueError("n2 must be divisible by l for the striped family")
    code = cyclic_hp([1, 1], n1, [1] * l, n2)
    code.metadata.update({"family": "debierre-turban", "l": l})
    return code


def gauge_code(inner: StabilizerCode, L: int) -> StabilizerCode:
    """Layered CSS construction whose sectors generalize the 3D Ising and
    plaquette gauge models.

    With R the L x L circulant of 1+x, G the inner symplectic generator and
    Gt its conjugate:
        G_X = (E_L x G | R x E_rows)
        G_Z = ((R^T x E_cols | E_L x G^T), (E_L x Gt | 0))
    """
    R = circulant([1, 1], L)
    G = inner.generator
    rows, cols = G.shape
    gx = hstack(kron(identity(L), G), kron(R, identity(rows)))
    top = hstack(kron(R.transpose(), identity(cols)), kron(identity(L), G.transpose()))
    bottom = hstack(kron(identity(L), conjugate(G)), gf2.zeros(L * rows, L * rows))
    gz = vstack(top, bottom)
    return StabilizerCode.from_css(
        gx, gz, metadata={"family": "gauge", "L": L, "inner": inner.metadata}
    )


def gallager_ldpc(
    h: int, v: int, n_c: int, seed: Optional[int] = None, rng=None
) -> BinaryMatrix:
    """Random biregular matrix: h ones per row, v per column, h < v.

    Permutation-stack construction: v blocks, each a random partition of
    the n_c columns into rows of weight h.  Matrices with duplicate
    columns are rejected and redrawn (seeded, so reproducible).
    """
    if h >= v:
        raise ValueError("need h < v")
    if (v * n_c) % h or n_c % h:
        raise ValueError("infeasible degree sequence: h must divide n_c")
    if rng is None:
        rng = np.random.default_rng(seed)
    rows_per_block = n_c // h
    for _ in range(1000):
        rows = []
        for _block in range(v):
            perm = rng.permutation(n_c)
            for i in range(rows_per_block):
                bits = 0
                for c in perm[i * h : (i + 1) * h]:
                    bits |= 1 << int(c)
                rows.append(bits)
        cols = BinaryMatrix(rows, n_c).column_ints()
        if len(set(cols)) == n_c:
            return BinaryMatrix(rows, n_c)
    raise RuntimeError("could not draw a duplicate-column-free matrix")


# -- distance --------------------------------------------------------------------


@dataclass
class CodeParams:
    """[[n, k, d]] summary; d may be a bound (d_exact False) or math.inf."""

    n: int
    k: int
    d: float
    d_exact: bool

    @property
    def rate(self) -> float:
        return self.k / self.n

    def __str__(self):
        d = "inf" if math.isinf(self.d) else str(int(self.d))
        flag = "" if self.d_exact else "?"
        return f"[[{self.n},{self.k},{d}{flag}]]"


def distance(
    code: StabilizerCode,
    cap: int = 5,
    rng=None,
    isd_iters: int = 200,
) -> CodeParams:
    """Code distance by increasing-weight scan, exact when found within cap.

    CSS codes scan each sector's binary vectors; generic codes scan Pauli
    supports.  If no logical operator of weight <= cap exists, a randomized
    information-set upper bound is reported with d_exact = False.
    """
    if code.k == 0:
        return CodeParams(code.n, 0, math.inf, True)
    if code.is_css:
        best = None
        for s in ("X", "Z"):
            w = _sector_min_logical(code.sector(s), cap if best is None else min(cap, best))
            if w is not None:
                best = w if best is None else min(best, w)
        if best is not None:
            return CodeParams(code.n, code.k, best, True)
    else:
        w = _pauli_min_logical(code, cap)
        if w is not None:
            return CodeParams(code.n, code.k, w, True)
    return CodeParams(code.n, code.k, _isd_distance_bound(code, isd_iters, rng), False)


def _sector_min_logical(view: SectorView, cap: int) -> Optional[int]:
    """Smallest weight of a zero-syndrome non-degenerate vector, scanning
    weights 1..cap; None if none exists at or below cap."""
    cols = view.syn_matrix.column_ints()
    reducer = RowReducer(view.theta)
    n = view.n_bonds
    for w in range(1, cap + 1):
        hit = _scan_weight(cols, reducer, n, w)
        if hit is not None:
            return w
    return None


def _scan_weight(cols, reducer, n, w):
    # depth-first over supports with incremental syndrome XOR
    stack = [(0, 0, 0, w)]
    while stack:
        start, syn, bits, remaining = stack.pop()
        if remaining == 0:
            if syn == 0 and reducer.reduce_bits(bits):
                return bits
            continue
        for j in range(start, n - remaining + 1):
            stack.append((j + 1, syn ^ cols[j], bits | (1 << j), remaining - 1))
    return None


def _pauli_min_logical(code: StabilizerCode, cap: int) -> Optional[int]:
    view = code.sector(None)
    n = code.n
    cols = view.syn_matrix.column_ints()
    # per-qubit syndrome ints for X, Z, Y
    sx = cols[:n]
    sz = cols[n:]
    reducer = RowReducer(code.generator)
    letters = [(1, 0), (0, 1), (1, 1)]  # (x bit, z bit)

    def search(start, syn, bits, remaining):
        if remaining == 0:
            return bits if syn == 0 and reducer.reduce_bits(bits) else None
        for q in range(start, n - remaining + 1):
            for xb, zb in letters:
                s2 = syn ^ (sx[q] if xb else 0) ^ (sz[q] if zb else 0)
                b2 = bits | (xb << q) | (zb << (n + q))
                hit = search(q + 1, s2, b2, remaining - 1)
                if hit is not None:
                    return hit
        return None

    for w in range(1, cap + 1):
        if search(0, 0, 0, w) is not None:
            return w
    return None


def _isd_distance_bound(code: StabilizerCode, iters: int, rng) -> int:
    if rng is None:
        rng = np.random.default_rng(0)
    best = 2 * code.n
    views = [code.sector(s) for s in code.sectors()]
    for view in views:
        for label in range(1, min(1 << view.k, 32)):
            w, _ = gf2.coset_min_weight(
                view.class_vector(label), view.theta,
                budget_log2=20, isd_iters=iters, rng=rng,
            )
            best = min(best, w)
    return best


# -- serialization ----------------------------------------------------------------


def save_code(code: StabilizerCode, path) -> None:
    """Write a code as JSON with hex-packed generator rows."""
    doc = {"n": code.n, "css": code.is_css, "metadata": code.metadata}
    if code.is_css:
        doc["gx_rows"] = [format(r, "x") for r in code.gx.row_bits]
        doc["gz_rows"] = [format(r, "x") for r in code.gz.row_bits]
    else:
        doc["g_rows"] = [format(r, "x") for r in code.generator.row_bits]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def load_code(path) -> StabilizerCode:
    with open(path) as fh:
        doc = json.load(fh)
    n = doc["n"]
    if doc["css"]:
        gx = BinaryMatrix([int(r, 16) for r in doc["gx_rows"]], n)
        gz = BinaryMatrix([int(r, 16) for r in doc["gz_rows"]], n)
        return StabilizerCode.from_css(gx, gz, metadata=doc.get("metadata"))
    g = BinaryMatrix([int(r, 16) for r in doc["g_rows"]], 2 * n)
    return StabilizerCode.from_symplectic(g, metadata=doc.get("metadata"))
