"""GF(2) core: elimination, duals, packed enumeration, coset minima."""

import numpy as np
import pytest

from spinqec import gf2
from spinqec.gf2 import (
    BinaryMatrix,
    BinaryVector,
    CosetTable,
    circulant,
    conjugate,
    conjugate_vector,
    coset_min_rep,
    coset_min_weight,
    exact_dual,
    identity,
    kron,
    mat_mul_t,
    mat_vec,
    nullspace,
    rref,
    solve,
    trace_inner,
)


# -- independent dense oracles (numpy, no bit packing) -----------------------


def dense_rank(arr) -> int:
    """Plain uint8 Gaussian elimination, written independently of gf2.rref."""
    a = (np.atleast_2d(np.array(arr, dtype=np.uint8)) & 1).copy()
    m, n = a.shape
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        for i in range(m):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        r += 1
    return r


def dense_nullspace_by_enumeration(arr) -> list[tuple]:
    """All vectors x with A x = 0, found by brute force (cols <= 14)."""
    a = np.atleast_2d(np.array(arr, dtype=np.uint8)) & 1
    n = a.shape[1]
    out = []
    for x in range(1 << n):
        xv = np.array([(x >> j) & 1 for j in range(n)], dtype=np.uint8)
        if not ((a @ xv) % 2).any():
            out.append(tuple(xv))
    return out


def rand_matrix(rng, rows, cols) -> BinaryMatrix:
    return BinaryMatrix.from_array(rng.integers(0, 2, size=(rows, cols)))


# -- rref ---------------------------------------------------------------------


def test_rref_identity():
    m = identity(3)
    r, rk, piv = rref(m)
    assert r == m and rk == 3 and piv == [0, 1, 2]


def test_rref_zero():
    m = gf2.zeros(2, 4)
    r, rk, piv = rref(m)
    assert r.is_zero() and rk == 0 and piv == []


def test_rref_circulant_rank():
    m = circulant([1, 1], 4)
    _, rk, _ = rref(m)
    assert rk == 3
    assert rk == dense_rank(m.to_array())


def test_rref_matches_dense_oracle_on_randoms():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m = rand_matrix(rng, rng.integers(1, 8), rng.integers(1, 10))
        _, rk, _ = rref(m)
        assert rk == dense_rank(m.to_array())


# -- exact_dual / nullspace ---------------------------------------------------


def test_exact_dual_repetition_self_dual():
    m = BinaryMatrix.from_array([[1, 1]])
    d = exact_dual(m)
    assert d.rows == 1 and d.row(0).bits == 0b11


def test_exact_dual_identity_is_empty():
    d = exact_dual(identity(4))
    assert d.rows == 0 and d.cols == 4


def test_exact_dual_circulant_all_ones():
    m = circulant([1, 1], 5)
    assert gf2.rank(m) == 4
    d = exact_dual(m)
    assert d.rows == 1
    assert d.row(0).bits == (1 << 5) - 1
    # nullspace oracle: brute-force enumeration finds exactly {0, 11111}
    vecs = dense_nullspace_by_enumeration(m.to_array())
    assert sorted(vecs) == [(0, 0, 0, 0, 0), (1, 1, 1, 1, 1)]


def test_nullspace_zero_matrix_full_basis():
    ns = nullspace(gf2.zeros(2, 3))
    assert ns.rows == 3
    assert gf2.rank(ns) == 3


def test_dual_rank_identity_on_randoms():
    rng = np.random.default_rng(3)
    for _ in range(40):
        m = rand_matrix(rng, rng.integers(1, 7), rng.integers(1, 11))
        d = exact_dual(m)
        assert gf2.rank(m) + d.rows == m.cols
        assert d.rows == 0 or mat_mul_t(m, d).is_zero()
        # every basis row really is in the kernel
        for v in d.row_vectors():
            assert mat_vec(m, v).bits == 0


# -- trace inner product / conjugate -----------------------------------------


def test_trace_inner_anticommuting_pair():
    e1 = BinaryVector.from_bits([1, 0, 0, 0])  # X on qubit 0 (n=2)
    e2 = BinaryVector.from_bits([0, 0, 1, 0])  # Z on qubit 0
    assert trace_inner(e1, e2) == 1


def test_trace_inner_self_is_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        e = BinaryVector.from_bits(rng.integers(0, 2, size=8))
        assert trace_inner(e, e) == 0


def test_trace_inner_by_direct_formula():
    # e1 = (v=11, u=01), e2 = (v=01, u=11): u1.v2 + v1.u2 mod 2
    e1 = BinaryVector.from_bits([1, 1, 0, 1])
    e2 = BinaryVector.from_bits([0, 1, 1, 1])
    v1, u1 = [1, 1], [0, 1]
    v2, u2 = [0, 1], [1, 1]
    expect = (sum(a * b for a, b in zip(u1, v2)) + sum(a * b for a, b in zip(v1, u2))) % 2
    assert trace_inner(e1, e2) == expect == 1


def test_trace_inner_rejects_bad_lengths():
    with pytest.raises(ValueError):
        trace_inner(BinaryVector(0, 3), BinaryVector(0, 3))
    with pytest.raises(ValueError):
        trace_inner(BinaryVector(0, 4), BinaryVector(0, 6))


def test_conjugate_is_involution():
    rng = np.random.default_rng(5)
    for _ in range(3):
        m = rand_matrix(rng, 4, 8)
        assert conjugate(conjugate(m)) == m
    with pytest.raises(ValueError):
        conjugate(gf2.zeros(1, 3))


def test_trace_inner_equals_dot_with_conjugate():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = BinaryVector.from_bits(rng.integers(0, 2, size=10))
        b = BinaryVector.from_bits(rng.integers(0, 2, size=10))
        assert trace_inner(a, b) == a.dot(conjugate_vector(b))


# -- solve --------------------------------------------------------------------


def test_solve_zero_syndrome():
    rng = np.random.default_rng(2)
    m = rand_matrix(rng, 4, 6)
    x = solve(m, BinaryVector(0, 4))
    assert x is not None and x.bits == 0


def test_solve_identity():
    m = identity(5)
    s = BinaryVector.from_bits([1, 0, 1, 1, 0])
    x = solve(m, s)
    assert x == s


def test_solve_random_verified_by_substitution():
    rng = np.random.default_rng(9)
    for _ in range(30):
        m = rand_matrix(rng, rng.integers(1, 6), rng.integers(1, 9))
        x0 = BinaryVector.from_bits(rng.integers(0, 2, size=m.cols))
        s = mat_vec(m, x0)  # consistent by construction
        x = solve(m, s)
        assert x is not None
        assert mat_vec(m, x) == s


def test_solve_inconsistent_returns_none():
    m = BinaryMatrix.from_array([[1, 0], [1, 0]])
    s = BinaryVector.from_bits([1, 0])
    assert solve(m, s) is None


# -- circulant / kron ---------------------------------------------------------


def test_circulant_basic():
    m = circulant([1, 1], 3)
    assert [str(m.row(i)) for i in range(3)] == ["110", "011", "101"]


def test_circulant_unit_poly_is_identity():
    assert circulant([1], 2) == identity(2)


def test_circulant_degree_check():
    with pytest.raises(ValueError):
        circulant([1, 0, 0, 1], 3)


def test_circulant_1101_rank():
    m = circulant([1, 1, 0, 1], 7)
    assert gf2.rank(m) == 4
    assert dense_rank(m.to_array()) == 4


def test_kron_matches_numpy():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = rand_matrix(rng, rng.integers(1, 4), rng.integers(1, 4))
        b = rand_matrix(rng, rng.integers(1, 4), rng.integers(1, 4))
        got = kron(a, b).to_array()
        want = np.kron(a.to_array(), b.to_array()) % 2
        assert np.array_equal(got, want)


def test_kron_with_identity():
    rng = np.random.default_rng(1)
    a = rand_matrix(rng, 3, 3)
    assert np.array_equal(
        kron(a, identity(2)).to_array(), np.kron(a.to_array(), np.eye(2, dtype=np.uint8))
    )
    assert np.array_equal(
        kron(identity(2), a).to_array(), np.kron(np.eye(2, dtype=np.uint8), a.to_array())
    )


def test_kron_rank_multiplicative():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        assert gf2.rank(kron(a, b)) == gf2.rank(a) * gf2.rank(b)


# -- packed enumeration -------------------------------------------------------


def test_span_table_and_weights():
    gens = [0b0011, 0b0101]
    table = CosetTable(gens, 4)
    w = table.weights()
    # index order: 0, g0, g1, g0^g1
    assert list(w) == [0, 2, 2, 2]
    w_shift = table.weights(0b1111)
    assert list(w_shift) == [4, 2, 2, 2]


def test_class_histograms_partition():
    rng = np.random.default_rng(21)
    gens = [int(rng.integers(0, 1 << 10)) for _ in range(6)]
    t = CosetTable(gens, 10, class_gens=2)
    hist = t.class_histograms(0b1010101010)
    assert hist.shape == (4, 11)
    assert hist.sum() == t.size
    # against direct recomputation
    flat = t.weights(0b1010101010)
    for cls in range(4):
        block = flat[cls * 16 : (cls + 1) * 16]
        assert np.array_equal(hist[cls], np.bincount(block, minlength=11))


@pytest.mark.parametrize("nbits", [31, 32, 33])
def test_class_histograms_at_the_uint32_word_boundary(nbits):
    # spans of at most 32 bits are held as uint32 words, wider ones as uint64
    rng = np.random.default_rng(nbits)
    top = 1 << (nbits - 1)
    gens = [int(rng.integers(0, top)) | top for _ in range(9)]
    table = CosetTable(gens, nbits, class_gens=2)
    assert table._words.dtype == (np.uint32 if nbits <= 32 else np.uint64)
    elements = [0]
    for g in gens:
        elements += [x ^ g for x in elements]
    for shift in (0, top | 1, (1 << nbits) - 1, int(rng.integers(0, 1 << nbits))):
        ref = np.zeros((4, nbits + 1), dtype=np.int64)
        for i, x in enumerate(elements):
            ref[i >> 7, (x ^ shift).bit_count()] += 1
        hist = table.class_histograms(shift)
        assert np.array_equal(hist, ref)
        assert list(table.weights(shift)) == [(x ^ shift).bit_count() for x in elements]


@pytest.mark.parametrize(
    "nbits, n_gens, class_gens",
    [(40, 8, 2), (64, 7, 0), (300, 7, 3), (130, 6, 0)],
)
def test_coset_table_scan_matches_int64_reference(nbits, n_gens, class_gens):
    # one- and multi-word tables, with and without classes; 300 bits is
    # past the old 256-bit histogram stride
    rng = np.random.default_rng(nbits)
    gens = [int.from_bytes(rng.bytes(nbits // 8 + 1), "little") % (1 << nbits)
            for _ in range(n_gens)]
    t = CosetTable(gens, nbits, class_gens=class_gens)
    for shift in (0, gens[0] ^ (1 << (nbits - 1)), (1 << nbits) - 1):
        elems = [0]
        for g in gens:
            elems += [x ^ g for x in elems]
        ref_w = np.array([(shift ^ x).bit_count() for x in elems], dtype=np.int64)
        assert np.array_equal(t.weights(shift).astype(np.int64), ref_w)
        labels = np.arange(t.size, dtype=np.int64) >> (n_gens - class_gens)
        ref = np.bincount(labels * (nbits + 1) + ref_w, minlength=t.n_classes * (nbits + 1))
        assert np.array_equal(
            t.class_histograms(shift), ref.reshape(t.n_classes, nbits + 1)
        )


def test_coset_table_budget():
    with pytest.raises(gf2.BudgetExceededError):
        CosetTable([1] * 10, 4, max_log2=8)


@pytest.mark.parametrize("seed", range(8))
def test_trellis_histograms_match_brute_force(seed):
    # every vector's state and weight counted one by one; includes zero and
    # repeated steps and kernels past the uint8 range
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 13))
    state_bits = int(rng.integers(0, 6))
    steps = [int(x) for x in rng.integers(0, 1 << state_bits, n)]
    ref = np.zeros((1 << state_bits, n + 1), dtype=np.int64)
    for x in range(1 << n):
        t = 0
        for j in range(n):
            if (x >> j) & 1:
                t ^= steps[j]
        ref[t, x.bit_count()] += 1
    hist = gf2.trellis_histograms(steps, state_bits)
    assert np.array_equal(hist.astype(np.int64), ref)
    kernel_dim = n - gf2.rank(BinaryMatrix(steps, state_bits))
    assert hist.dtype == np.min_scalar_type(1 << kernel_dim)


def test_trellis_histograms_uint16_counts():
    # 10 zero steps: all 2^10 vectors sit in state 0, C(10, 5) = 252 and the
    # total 1024 needs uint16
    hist = gf2.trellis_histograms([0] * 10, 1)
    assert hist.dtype == np.uint16
    assert hist[0, 5] == 252 and hist.sum() == 1024 and hist[1].sum() == 0
    with pytest.raises(ValueError, match="64 bits"):  # 2^64 has no unsigned type
        gf2.trellis_histograms([0] * 64, 0)


def test_trellis_histograms_budget_checked_before_allocation():
    import tracemalloc

    steps = [1 << (j % 20) for j in range(40)]  # 2^20 states, 41 weights
    tracemalloc.start()
    try:
        with pytest.raises(gf2.BudgetExceededError, match="bytes"):
            gf2.trellis_histograms(steps, 20, max_bytes=1 << 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    # the bound counts the table, its gathered copy and two index arrays
    exact = 2 * 4 * 4 + 2 * 4 * np.dtype(np.intp).itemsize
    assert gf2.trellis_histograms([1, 2, 3], 2, max_bytes=exact).shape == (4, 4)
    with pytest.raises(gf2.BudgetExceededError):
        gf2.trellis_histograms([1, 2, 3], 2, max_bytes=exact - 1)


# -- coset minimum weight -----------------------------------------------------


def test_coset_min_weight_zero_vector():
    g = circulant([1, 1], 4)
    w, exact = coset_min_weight(BinaryVector(0, 4), g)
    assert (w, exact) == (0, True)


def test_coset_min_weight_row_of_g():
    g = circulant([1, 1], 5)
    w, exact = coset_min_weight(g.row(2), g)
    assert (w, exact) == (0, True)


def test_coset_min_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(25):
        g = rand_matrix(rng, rng.integers(1, 6), rng.integers(2, 11))
        v = BinaryVector.from_bits(rng.integers(0, 2, size=g.cols))
        w, exact = coset_min_weight(v, g)
        assert exact
        # brute force over all coefficient vectors
        best = min(
            (v.bits ^ combo).bit_count()
            for combo in _all_combinations(g)
        )
        assert w == best


def _all_combinations(g: BinaryMatrix):
    out = []
    for mask in range(1 << g.rows):
        bits = 0
        for i in range(g.rows):
            if (mask >> i) & 1:
                bits ^= g.row_bits[i]
        out.append(bits)
    return out


def test_coset_min_rep_lex_tie_break():
    # coset {11, 110... } choose g so two minimum-weight elements exist
    g = BinaryMatrix.from_array([[1, 1, 1, 1]])
    v = BinaryVector.from_bits([1, 1, 0, 0])
    w, rep, exact = coset_min_rep(v, g)
    assert w == 2 and exact
    # candidates 1100 and 0011; 0011 wins (component 0 is 0)
    assert str(rep) == "0011"


def test_coset_min_isd_path_upper_bound():
    rng = np.random.default_rng(23)
    g = rand_matrix(rng, 30, 40)
    v = BinaryVector.from_bits(rng.integers(0, 2, size=40))
    w, exact = coset_min_weight(v, g, budget_log2=10, isd_iters=50, rng=rng)
    assert not exact
    assert 0 <= w <= v.n
    # exact answer is a lower bound for the ISD result
    w_exact, exact2 = coset_min_weight(v, g, budget_log2=30)
    assert exact2 and w >= w_exact


def test_coset_min_exact_chunked_rank_20():
    # ranks above the internal chunk size exercise the two-level enumeration;
    # cross-checked against the one-shot span-table route
    rng = np.random.default_rng(41)
    m = rand_matrix(rng, 20, 24)
    assert gf2.rank(m) >= 19
    for _ in range(3):
        v = BinaryVector.from_bits(rng.integers(0, 2, size=24))
        w, rep, exact = coset_min_rep(v, m, budget_log2=22)
        assert exact and rep.weight() == w
        table = CosetTable(list(gf2.row_basis(m).row_bits), 24, max_log2=22)
        assert w == int(table.weights(v.bits).min())


def test_invert_round_trip():
    rng = np.random.default_rng(31)
    n = 6
    while True:
        m = rand_matrix(rng, n, n)
        if gf2.rank(m) == n:
            break
    inv = gf2.invert(m)
    prod = mat_mul_t(m, inv.transpose())
    assert prod == identity(n)
