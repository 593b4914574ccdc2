"""Code construction, validation, parameters, coset structure."""

import math

import numpy as np
import pytest

from spinqec import gf2
from spinqec.codes import (
    CommutationError,
    StabilizerCode,
    codeword_classes,
    cyclic_hp,
    debierre_turban_code,
    distance,
    gallager_ldpc,
    gauge_code,
    hp_code,
    load_code,
    save_code,
    syndrome,
    toric_code,
)
from spinqec.gf2 import BinaryMatrix, BinaryVector, RowReducer, mat_mul_t, mat_vec


# -- constructors -------------------------------------------------------------


def test_from_symplectic_valid_k0():
    g = BinaryMatrix.from_array([[1, 1, 0, 0], [0, 0, 1, 1]])
    code = StabilizerCode.from_symplectic(g)
    assert code.n == 2 and code.k == 0


def test_from_symplectic_rejects_anticommuting_pair():
    g = BinaryMatrix.from_array([[1, 0, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(CommutationError, match="rows 0 and 1"):
        StabilizerCode.from_symplectic(g)


def test_toric_code_basics():
    code = toric_code(2)
    assert code.n == 8 and code.k == 2 and code.is_css
    # every pair of generator rows commutes
    comm = mat_mul_t(code.generator, gf2.conjugate(code.generator))
    assert comm.is_zero()


def test_from_css_single_x_check():
    gx = BinaryMatrix.from_array([[1, 1]])
    gz = BinaryMatrix.empty(2)
    code = StabilizerCode.from_css(gx, gz)
    assert code.k == 1


def test_from_css_equal_repetition_checks_valid():
    # [1 1].[1 1]^T = 0 mod 2, so this is a valid k=0 code
    gx = BinaryMatrix.from_array([[1, 1]])
    code = StabilizerCode.from_css(gx, gx)
    assert code.k == 0


def test_from_css_rejects_nonorthogonal():
    gx = BinaryMatrix.from_array([[1, 1, 0]])
    gz = BinaryMatrix.from_array([[1, 0, 0]])
    with pytest.raises(CommutationError):
        StabilizerCode.from_css(gx, gz)


# -- hypergraph product --------------------------------------------------------


def test_hp_cyclic_parameter_formula():
    # [[2 n1 n2, 2 k1 k2, min(d1, d2)]] for square circulant inputs
    cases = [
        (([1, 1], 2, [1, 1], 2), (8, 2, 2)),
        (([1, 1], 3, [1, 1], 3), (18, 2, 3)),
        (([1, 1], 7, [1, 1, 0, 1], 7), (98, 6, 4)),
    ]
    for (h1, n1, h2, n2), (n, k, d) in cases:
        code = cyclic_hp(h1, n1, h2, n2)
        assert (code.n, code.k) == (n, k)
        params = distance(code, cap=d)
        assert params.d == d and params.d_exact


def test_hp_orthogonality_on_random_inputs():
    rng = np.random.default_rng(2)
    for _ in range(10):
        h1 = BinaryMatrix.from_array(rng.integers(0, 2, (rng.integers(1, 5), rng.integers(1, 5))))
        h2 = BinaryMatrix.from_array(rng.integers(0, 2, (rng.integers(1, 5), rng.integers(1, 5))))
        code = hp_code(h1, h2)  # from_css validates G_X G_Z^T = 0
        r1, n1 = h1.shape
        r2, n2 = h2.shape
        assert code.n == n2 * r1 + n1 * r2


def test_cyclic_hp_sectors_related_by_permutation():
    # explicit map: G_Z row (a, b) equals G_X row (-a, -b) after swapping the
    # two qubit blocks with per-index negation
    for h1, n1, h2, n2 in [([1, 1], 3, [1, 1], 3), ([1, 1], 3, [1, 1, 1], 6), ([1, 1, 0, 1], 7, [1, 1, 0, 1], 7)]:
        code = cyclic_hp(h1, n1, h2, n2)
        nn = n1 * n2

        def perm(col):
            if col < nn:
                a, b = divmod(col, n1)
                return nn + ((-a) % n2) * n1 + ((-b) % n1)
            a, b = divmod(col - nn, n1)
            return ((-a) % n2) * n1 + ((-b) % n1)

        permuted = []
        for row in code.gz.row_bits:
            bits = 0
            r = row
            while r:
                j = (r & -r).bit_length() - 1
                bits |= 1 << perm(j)
                r &= r - 1
            permuted.append(bits)
        assert sorted(permuted) == sorted(code.gx.row_bits)


def test_debierre_turban_parameters():
    code = debierre_turban_code(3, 6)
    assert (code.n, code.k) == (36, 4)
    assert distance(code, cap=3).d == 3
    assert code.sector("Z").n_gauge == 2  # four striped ground states


def test_debierre_turban_ground_state_count_exhaustive():
    # clean sector model: enumerate all 2^18 spin configurations, count minima
    view = debierre_turban_code(3, 6).sector("Z")
    theta = view.theta.to_array()
    ns = view.theta.rows
    best = None
    count = 0
    for start in range(0, 1 << ns, 1 << 14):
        idx = np.arange(start, min(start + (1 << 14), 1 << ns), dtype=np.uint32)
        x = ((idx[:, None] >> np.arange(ns, dtype=np.uint32)) & 1).astype(np.uint8)
        unhappy = ((x @ theta) & 1).sum(axis=1)
        m = int(unhappy.min())
        c = int((unhappy == m).sum())
        if best is None or m < best:
            best, count = m, c
        elif m == best:
            count += c
    assert best == 0
    assert count == 4 == 2**view.n_gauge


def test_equal_poly_product_has_nine_basis_ground_states():
    # h1 = h2 = 1+x+x^3 on 7: ground-state degeneracy 2^{N_g} with N_g = 9;
    # the count is reported from rank arithmetic, not hard-coded
    code = cyclic_hp([1, 1, 0, 1], 7, [1, 1, 0, 1], 7)
    assert code.k == 18
    assert code.sector("Z").n_gauge == 9
    assert code.sector("X").n_gauge == 9


# -- gauge construction ----------------------------------------------------------


def test_gauge_code_is_valid_css():
    inner = toric_code(2)
    code = gauge_code(inner, 2)
    assert code.is_css
    assert code.n == 2 * (2 * inner.n + inner.generator.rows)


def test_gauge_code_block_shapes():
    inner = toric_code(2)
    L = 3
    code = gauge_code(inner, L)
    rows, cols = inner.generator.shape
    assert code.gx.shape == (L * rows, L * cols + L * rows)
    assert code.gz.shape == (L * cols + L * rows, L * cols + L * rows)


def test_gauge_sector_bond_weights_toric_inner():
    # inner = toric: X sector couples 2 spins per bond (Ising), Z sector 4
    code = gauge_code(toric_code(2), 2)
    x_wts = {c.bit_count() for c in code.gx.column_ints()}
    z_wts = {c.bit_count() for c in code.gz.column_ints()}
    assert x_wts == {2}
    assert z_wts == {4}


# -- random biregular matrices -----------------------------------------------------


def test_gallager_degree_bookkeeping():
    h = gallager_ldpc(2, 3, 6, seed=1)
    assert h.shape == (9, 6)
    assert all(r.bit_count() == 2 for r in h.row_bits)
    assert all(c.bit_count() == 3 for c in h.column_ints())


def test_gallager_deterministic():
    assert gallager_ldpc(2, 3, 6, seed=7) == gallager_ldpc(2, 3, 6, seed=7)
    assert gallager_ldpc(2, 3, 6, seed=7) != gallager_ldpc(2, 3, 6, seed=8)


def test_gallager_infeasible_degrees():
    with pytest.raises(ValueError):
        gallager_ldpc(3, 2, 6, seed=0)  # h >= v
    with pytest.raises(ValueError):
        gallager_ldpc(2, 3, 5, seed=0)  # h does not divide n_c


def test_gallager_hp_rate_bound():
    for seed in (1, 2, 3):
        h = gallager_ldpc(2, 3, 6, seed=seed)
        code = hp_code(h, h.transpose())
        assert code.k / code.n >= (3 - 2) ** 2 / (2**2 + 3**2) - 1e-12


# -- syndromes -----------------------------------------------------------------------


def test_syndrome_zero_for_no_error_and_stabilizers():
    code = toric_code(2)
    assert syndrome(code, BinaryVector(0, 16)).bits == 0
    for i in range(code.generator.rows):
        assert syndrome(code, code.generator.row(i)).bits == 0


def test_syndrome_matches_anticommutation_oracle():
    rng = np.random.default_rng(5)
    code = toric_code(2)
    for _ in range(20):
        e = BinaryVector(int(rng.integers(0, 1 << 16)), 16)
        s = syndrome(code, e)
        for i in range(code.generator.rows):
            assert s.bit(i) == gf2.trace_inner(code.generator.row(i), e)


def test_sector_syndrome_images():
    code = toric_code(3)
    view = code.sector("Z")
    seen = {s.bits for s in view.all_syndromes()}
    assert len(seen) == view.n_syndromes == 2**8
    # solve round-trips
    for s in list(view.all_syndromes())[:16]:
        e = view.solve_syndrome(s)
        assert view.syndrome(e) == s


# -- codeword classes -----------------------------------------------------------------


def test_codeword_classes_toric():
    code = toric_code(2)
    cls = codeword_classes(code)
    assert cls.basis.rows == 4  # 2k independent codewords
    assert cls.sector_bases["Z"].rows == 2
    assert len(cls.representatives) == 16
    assert len(cls.sector_representatives["Z"]) == 4
    view = code.sector(None)
    reducer = RowReducer(code.generator)
    syn = gf2.conjugate(code.generator)
    for row in cls.basis.row_vectors():
        assert mat_vec(syn, row).bits == 0  # zero syndrome
        assert not reducer.contains(row)  # not degenerate with identity
    # pairwise inequivalent: differences not in the stabilizer row space
    rows = cls.basis.row_vectors()
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            assert not reducer.contains(rows[i] ^ rows[j])


def test_codeword_classes_k0():
    code = StabilizerCode.from_css(
        BinaryMatrix.from_array([[1, 1]]), BinaryMatrix.from_array([[1, 1]])
    )
    cls = codeword_classes(code)
    assert cls.basis.rows == 0
    assert cls.representatives == [BinaryVector(0, 4)]


def test_codeword_classes_98_6_4():
    code = cyclic_hp([1, 1], 7, [1, 1, 0, 1], 7)
    cls = codeword_classes(code, budget=64)
    assert cls.sector_bases["Z"].rows == 6
    assert cls.sector_representatives is not None
    assert len(cls.sector_representatives["Z"]) == 64
    assert cls.representatives is None  # 2^{2k} = 4096 over budget


def test_class_labels_linear_and_invertible():
    code = toric_code(2)
    view = code.sector("Z")
    for a in range(1 << view.k):
        assert view.class_label(view.class_vector(a)) == a
    # label is stable under degeneracy shifts
    v = view.class_vector(3) ^ view.theta.row(1)
    assert view.class_label(v) == 3


def test_representative_kept_apart_by_exactness():
    # toric L = 4, Z, class 3: the information-set search (budget 2^1) and
    # the exact enumeration give different weight-8 representatives
    exact_bits, isd_bits = 2290675712, 1216903168
    view = toric_code(4).sector("Z")
    assert view.representative(3, 1).bits == isd_bits
    assert view.representative(3, 24).bits == exact_bits
    assert view.representative(3, 1).bits == isd_bits
    fresh = toric_code(4).sector("Z")
    assert fresh.representative(3, 24).bits == exact_bits
    assert fresh.representative(3, fresh.rank_theta).bits == exact_bits
    assert fresh.representative(3, 1).bits == isd_bits


def test_sector_names():
    code = toric_code(2)
    assert code.sector("z") is code.sector("Z") and code.sector("x") is code.sector("X")
    assert code.sector(None) is code.sector(None)
    with pytest.raises(ValueError, match="unknown sector"):
        code.sector("Y")
    with pytest.raises(AttributeError):
        code.sector(["Z"])
    generic = StabilizerCode.from_symplectic(code.generator)
    with pytest.raises(ValueError, match="require a CSS code"):
        generic.sector("Z")


# -- distance ---------------------------------------------------------------------------


def test_distance_toric_family():
    for L in (2, 3, 4):
        params = distance(toric_code(L), cap=L)
        assert params.d == L and params.d_exact
        assert str(params) == f"[[{2 * L * L},2,{L}]]"


def test_distance_k0_infinite():
    code = StabilizerCode.from_css(
        BinaryMatrix.from_array([[1, 1]]), BinaryMatrix.from_array([[1, 1]])
    )
    params = distance(code)
    assert math.isinf(params.d) and params.d_exact


def test_distance_generic_stabilizer_five_qubit():
    # [[5,1,3]] five-qubit code: cyclic generators XZZXI
    rows = []
    base_x = [1, 0, 0, 1, 0]
    base_z = [0, 1, 1, 0, 0]
    for shift in range(4):
        x = [base_x[(j - shift) % 5] for j in range(5)]
        z = [base_z[(j - shift) % 5] for j in range(5)]
        rows.append(x + z)
    code = StabilizerCode.from_symplectic(BinaryMatrix.from_array(rows))
    assert code.k == 1 and not code.is_css
    params = distance(code, cap=3)
    assert params.d == 3 and params.d_exact


def test_distance_upper_bound_when_cap_too_small():
    params = distance(toric_code(4), cap=2)
    assert not params.d_exact
    assert params.d >= 4  # bound can only overshoot


# -- serialization ----------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    code = toric_code(3)
    path = tmp_path / "code.json"
    save_code(code, path)
    back = load_code(path)
    assert back.gx == code.gx and back.gz == code.gz
    assert back.metadata["family"] == "toric"


def test_save_load_generic(tmp_path):
    g = BinaryMatrix.from_array([[1, 1, 0, 0], [0, 0, 1, 1]])
    code = StabilizerCode.from_symplectic(g, metadata={"family": "pair"})
    path = tmp_path / "generic.json"
    save_code(code, path)
    back = load_code(path)
    assert back.generator == code.generator and not back.is_css


# -- syndrome trellis -------------------------------------------------------------


@pytest.mark.parametrize(
    "make", [lambda: toric_code(2), lambda: toric_code(3), lambda: debierre_turban_code(3, 3)],
    ids=["toric2", "toric3", "dt33"],
)
@pytest.mark.parametrize("sector", ["X", "Z"])
def test_class_trellis_equals_class_histograms(make, sector):
    view = make().sector(sector)
    hist = view.class_trellis()
    table = view.coset_table()
    labels = np.arange(1 << view.k)
    seen = set()
    for s in view.all_syndromes():
        e_s = view.solve_syndrome(s)
        i, offset = view.trellis_index(e_s.bits)
        seen.add(i)
        # any other error of the syndrome lands on the same row, shifted by its label
        e2 = e_s ^ view.class_vector(1) if view.k else e_s
        assert view.trellis_index(e2.bits)[0] == i
        assert np.array_equal(hist[i][labels ^ offset], table.class_histograms(e_s.bits))
    assert seen == set(range(view.n_syndromes))


def test_class_trellis_equals_brute_force_count_toric2():
    # every error counted under its syndrome and its class relative to the
    # solved representative, by solve_syndrome and class_label alone
    for sector in ("X", "Z"):
        view = toric_code(2).sector(sector)
        n = view.n_bonds
        ref = {}
        for bits in range(1 << n):
            e = BinaryVector(bits, n)
            e_s = view.solve_syndrome(view.syndrome(e))
            counts = ref.setdefault(e_s.bits, np.zeros((1 << view.k, n + 1), dtype=np.int64))
            counts[view.class_label(e ^ e_s), e.weight()] += 1
        hist = view.class_trellis()
        labels = np.arange(1 << view.k)
        assert len(ref) == view.n_syndromes
        for e_bits, counts in ref.items():
            i, offset = view.trellis_index(e_bits)
            assert np.array_equal(hist[i][labels ^ offset], counts)


def test_class_trellis_budget_raises_before_allocation():
    import tracemalloc

    view = toric_code(4).sector("Z")  # 2^17 states x 33 weights, uint16
    tracemalloc.start()
    try:
        with pytest.raises(gf2.BudgetExceededError):
            view.class_trellis(max_bytes=1 << 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 18
