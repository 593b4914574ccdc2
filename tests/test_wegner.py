"""Exact partition/correlation values: definitions, duality, class sums."""

import math

import numpy as np
import pytest

from spinqec import analysis, codes, gf2, wegner
from spinqec.decoder import ml_decode, nishimori_beta
from spinqec.gf2 import BinaryMatrix, BinaryVector, BudgetExceededError
from spinqec.wegner import (
    BETA_SELF_DUAL,
    WegnerModel,
    class_log_values,
    correlator_c,
    correlator_tot,
    dual_model,
    duality_sides,
    eval_coset_enum,
    eval_spin_enum,
    exact_thermal_stats,
    sector_model,
    tot_model,
    z0,
    zc,
    zmax,
    ztot,
    ztot_dual_route,
)


def rand_model(rng, max_spins=8, max_bonds=12, nonuniform=False):
    ns = int(rng.integers(1, max_spins + 1))
    nb = int(rng.integers(1, max_bonds + 1))
    theta = BinaryMatrix.from_array(rng.integers(0, 2, (ns, nb)))
    couplings = rng.uniform(0.3, 1.8, nb) if nonuniform else None
    return WegnerModel(theta, couplings=couplings)


def rand_vec(rng, n):
    return BinaryVector(int(rng.integers(0, 1 << n)), n)


# -- eval_spin_enum -----------------------------------------------------------


def test_single_spin_single_bond_is_one():
    model = WegnerModel(BinaryMatrix([1], 1))
    for beta in (0.2, 0.44, 1.1, 3.0):
        for e in (0, 1):
            assert eval_spin_enum(model, e, beta).value == pytest.approx(1.0, abs=1e-14)


def test_ising_ring_matches_transfer_matrix():
    # transfer-matrix oracle: Z_ring = (lam_+^n + lam_-^n), lam_± = 2cosh/2sinh
    for n in (3, 4, 5):
        model = WegnerModel(gf2.circulant([1, 1], n))
        for beta in (0.3, 0.7, 1.3):
            lam_p, lam_m = 2 * math.cosh(beta), 2 * math.sinh(beta)
            want = (lam_p**n + lam_m**n) / (
                2**model.n_gauge * (2 * math.cosh(beta)) ** n
            )
            got = eval_spin_enum(model, 0, beta).value
            assert got == pytest.approx(want, rel=1e-13)


def test_magnetic_insertion_in_bond_kernel_is_identity():
    # Theta m^T = 0 makes the inserted bond product identically 1
    rng = np.random.default_rng(8)
    for _ in range(10):
        model = rand_model(rng)
        ker = gf2.nullspace(model.theta)  # m with Theta m^T = 0
        if ker.rows == 0:
            continue
        m = ker.row(int(rng.integers(0, ker.rows)))
        e = rand_vec(rng, model.n_bonds)
        a = eval_spin_enum(model, e, 0.8, m=m)
        b = eval_spin_enum(model, e, 0.8)
        assert a.sign == 1
        assert a.log_value == pytest.approx(b.log_value, abs=1e-12)


def test_spin_budget_error_directs_to_coset():
    model = WegnerModel(gf2.identity(30))
    with pytest.raises(BudgetExceededError, match="coset"):
        eval_spin_enum(model, 0, 1.0, spin_budget=26)


def test_brute_force_definition_oracle():
    # fully independent O(2^Ns * Nb) evaluation of the defining sum
    rng = np.random.default_rng(3)
    for _ in range(10):
        model = rand_model(rng, max_spins=5, max_bonds=7, nonuniform=True)
        e = rand_vec(rng, model.n_bonds)
        m = rand_vec(rng, model.n_bonds)
        beta = float(rng.uniform(0.2, 1.5))
        k = beta * model.couplings
        theta = model.theta.to_array()
        total = 0.0
        for conf in range(1 << model.n_spins):
            spins = np.array(
                [1 - 2 * ((conf >> r) & 1) for r in range(model.n_spins)]
            )
            term = 1.0
            for b in range(model.n_bonds):
                r_b = np.prod(spins[theta[:, b] == 1]) if theta[:, b].any() else 1
                term *= r_b ** m.bit(b)
                term *= math.exp(k[b] * (-1) ** e.bit(b) * r_b) / (
                    2 * math.cosh(k[b])
                )
            total += term
        total /= 2**model.n_gauge
        got = eval_spin_enum(model, e, beta, m=m)
        assert got.value == pytest.approx(total, abs=1e-12)


# -- eval_coset_enum ----------------------------------------------------------


def test_oracle_equivalence_spin_vs_coset():
    rng = np.random.default_rng(17)
    for _ in range(50):
        model = rand_model(rng, max_spins=12, max_bonds=14)
        e = rand_vec(rng, model.n_bonds)
        beta = float(rng.choice([0.2, 0.44, 1.1]))
        a = eval_spin_enum(model, e, beta).log_value
        b = eval_coset_enum(model, e, beta).log_value
        assert b == pytest.approx(a, abs=1e-12)


def test_coset_budget_checked_on_every_call():
    model = WegnerModel(gf2.identity(5))
    eval_coset_enum(model, 0, 1.0, 24)
    with pytest.raises(BudgetExceededError):
        eval_coset_enum(model, 0, 1.0, 2)
    code = codes.toric_code(3)
    view = code.sector("Z")
    table = view.coset_table(24)
    with pytest.raises(BudgetExceededError):
        view.coset_table(view.rank_theta + view.k - 1)
    assert view.coset_table(view.rank_theta + view.k) is table
    z0(code, "Z", 0, 1.0)
    with pytest.raises(BudgetExceededError):
        z0(code, "Z", 0, 1.0, budget_log2=view.rank_theta - 1)


def test_one_coset_table_per_view():
    view = codes.debierre_turban_code(3, 6).sector("Z")
    assert view.coset_table(24) is view.coset_table(20)


def test_coset_monotone_in_beta_and_limit():
    model = WegnerModel(gf2.circulant([1, 1, 0, 1], 7))
    betas = [0.2, 0.5, 1.0, 2.0, 5.0, 10.0]
    vals = [eval_coset_enum(model, 0, b).log_value for b in betas]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] < 0
    # e = 0, large beta: log Z -> -N_b log(1 + e^{-2 beta})
    want = -model.n_bonds * math.log1p(math.exp(-20.0))
    assert vals[-1] == pytest.approx(want, abs=1e-6)


def test_coset_gauge_invariance():
    rng = np.random.default_rng(5)
    model = rand_model(rng, max_spins=6, max_bonds=10)
    e = rand_vec(rng, model.n_bonds)
    sigma = rand_vec(rng, model.n_spins)
    shift = gf2.mat_vec(model.theta.transpose(), sigma)
    a = eval_coset_enum(model, e, 0.9).log_value
    b = eval_coset_enum(model, e ^ shift, 0.9).log_value
    assert a == pytest.approx(b, abs=1e-13)


def test_coset_requires_uniform_couplings():
    model = WegnerModel(gf2.identity(3), couplings=[1.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="uniform"):
        eval_coset_enum(model, 0, 1.0)


# -- gauge invariance with magnetic sign ---------------------------------------


def test_gauge_invariance_sign_for_magnetic_insertion():
    rng = np.random.default_rng(11)
    model = WegnerModel(codes.toric_code(2).sector("Z").theta)
    for _ in range(15):
        e = rand_vec(rng, 8)
        m = rand_vec(rng, 8)
        sigma = rand_vec(rng, 4)
        shift = gf2.mat_vec(model.theta.transpose(), sigma)
        z1 = eval_spin_enum(model, e, 0.8, m=m)
        z2 = eval_spin_enum(model, e ^ shift, 0.8, m=m)
        par = sigma.dot(gf2.mat_vec(model.theta, m))
        if z1.sign == 0:
            assert z2.sign == 0
            continue
        assert z2.sign == z1.sign * (-1) ** par
        assert z2.log_value == pytest.approx(z1.log_value, abs=1e-12)


# -- duality --------------------------------------------------------------------


def test_self_dual_coupling_fixed_point():
    model = WegnerModel(gf2.circulant([1, 1], 4))
    dm = dual_model(model, BETA_SELF_DUAL)
    assert np.allclose(dm.couplings, BETA_SELF_DUAL, atol=1e-14)
    assert math.sinh(2 * BETA_SELF_DUAL) == pytest.approx(1.0, abs=1e-15)


def test_duality_identity_random_models():
    rng = np.random.default_rng(23)
    for i in range(20):
        model = rand_model(rng, max_spins=6, max_bonds=9, nonuniform=(i % 2 == 0))
        e = rand_vec(rng, model.n_bonds)
        beta = float(rng.uniform(0.3, 1.4))
        lhs, rhs, s1, s2 = duality_sides(model, e, beta)
        assert s1 == s2
        assert rhs == pytest.approx(lhs, abs=1e-10)


def test_double_dual_preserves_values():
    rng = np.random.default_rng(29)
    model = rand_model(rng, max_spins=5, max_bonds=8)
    beta = 0.8
    dd = dual_model(dual_model(model, beta))
    # same row space and same couplings back
    assert gf2.row_basis(dd.theta).row_bits == gf2.row_basis(model.theta).row_bits
    assert np.allclose(dd.couplings, beta * model.couplings, atol=1e-12)
    for e_bits in (0, 5):
        e = BinaryVector(e_bits % (1 << model.n_bonds), model.n_bonds)
        a = eval_spin_enum(model, e, beta).log_value
        b = eval_spin_enum(dd, e, 1.0).log_value
        assert b == pytest.approx(a, abs=1e-11)


def test_dual_rejects_zero_coupling():
    model = WegnerModel(gf2.identity(2))
    with pytest.raises(ValueError):
        dual_model(model, 0.0)


def test_conjugation_invariance():
    # evaluating the conjugated dual equals evaluating the plain dual with
    # conjugated bond-resolved data (bond relabelling only)
    rng = np.random.default_rng(31)
    code = codes.toric_code(2)
    g = code.generator
    m_tilde_star = gf2.exact_dual(gf2.conjugate(g))
    m_star = gf2.exact_dual(g)
    for _ in range(5):
        e = rand_vec(rng, 16)
        m = rand_vec(rng, 16)
        a = eval_spin_enum(WegnerModel(m_tilde_star), e, 0.7, m=m)
        b = eval_spin_enum(
            WegnerModel(m_star),
            gf2.conjugate_vector(e),
            0.7,
            m=gf2.conjugate_vector(m),
        )
        # signed values agree; near-cancelled sums compare at absolute scale
        assert a.value == pytest.approx(b.value, abs=1e-10)


# -- z family --------------------------------------------------------------------


def beta_p(p):
    return 0.5 * math.log((1 - p) / p)


def test_ztot_normalization_both_sectors():
    code = codes.toric_code(2)
    for p in (0.05, 0.1, 0.2):
        for sector in ("X", "Z"):
            view = code.sector(sector)
            total = sum(
                ztot(code, sector, view.solve_syndrome(s), beta_p(p)).value
                for s in view.all_syndromes()
            )
            assert total == pytest.approx(1.0, abs=1e-10)


def test_z0_equals_direct_probability_formula():
    # P_0(e) = 2^{-N_g} sum_sigma p^w (1-p)^{N_b - w}, w = wgt(e + sigma G)
    rng = np.random.default_rng(37)
    code = codes.toric_code(2)
    view = code.sector("Z")
    p = 0.13
    for _ in range(25):
        e = rand_vec(rng, 8)
        direct = 0.0
        for mask in range(1 << view.theta.rows):
            bits = e.bits
            for i in range(view.theta.rows):
                if (mask >> i) & 1:
                    bits ^= view.theta.row_bits[i]
            w = bits.bit_count()
            direct += p**w * (1 - p) ** (8 - w)
        direct /= 2 ** view.n_gauge
        got = z0(code, "Z", e, beta_p(p)).value
        assert got == pytest.approx(direct, rel=1e-12)


def test_ztot_equals_class_sum_and_dual_route():
    rng = np.random.default_rng(41)
    code = codes.toric_code(2)
    for sector in ("X", "Z"):
        for _ in range(5):
            e = rand_vec(rng, 8)
            a = ztot(code, sector, e, 1.1).log_value
            b = ztot_dual_route(code, sector, e, 1.1).log_value
            vals = class_log_values(code, sector, e, 1.1)
            mx = vals.max()
            c = mx + math.log(np.exp(vals - mx).sum())
            assert a == pytest.approx(b, abs=1e-12)
            assert a == pytest.approx(c, abs=1e-12)


def test_zc_shifts_and_zmax_dominates():
    rng = np.random.default_rng(43)
    code = codes.toric_code(2)
    view = code.sector("Z")
    for _ in range(10):
        e = rand_vec(rng, 8)
        pv_max, label = zmax(code, "Z", e, 0.9)
        for lab in range(1 << view.k):
            c = view.class_vector(lab)
            v = zc(code, "Z", e, c, 0.9)
            assert pv_max.log_value >= v.log_value - 1e-12
            assert v.log_value == pytest.approx(
                class_log_values(code, "Z", e, 0.9)[lab], abs=1e-12
            )


def test_css_partition_splits_into_sector_product():
    rng = np.random.default_rng(47)
    code = codes.toric_code(2)
    full = code.sector(None)
    for _ in range(5):
        e = rand_vec(rng, 16)
        v_part = BinaryVector(e.bits & 0xFF, 8)
        u_part = BinaryVector(e.bits >> 8, 8)
        whole = eval_coset_enum(WegnerModel(full.theta), e, 0.8).log_value
        x_part = z0(code, "X", v_part, 0.8).log_value
        z_part = z0(code, "Z", u_part, 0.8).log_value
        assert whole == pytest.approx(x_part + z_part, abs=1e-12)


# -- class-value memo ----------------------------------------------------------------

_MEMO_FAMILIES = [
    lambda: codes.toric_code(2),
    lambda: codes.toric_code(3),
    lambda: codes.debierre_turban_code(3, 3),
]


def test_class_values_memo_matches_fresh_codes():
    rng = np.random.default_rng(23)
    warm = [make() for make in _MEMO_FAMILIES]
    pools = [[int(rng.integers(0, 1 << code.n)) for _ in range(3)] for code in warm]
    for _ in range(60):
        i = int(rng.integers(len(warm)))
        sector = ("X", "Z")[int(rng.integers(2))]
        e = pools[i][int(rng.integers(3))]
        beta = (0.35, 1.1)[int(rng.integers(2))]
        got = class_log_values(warm[i], sector, e, beta)
        assert class_log_values(warm[i], sector, e, beta) is got
        ref = class_log_values(_MEMO_FAMILIES[i](), sector, e, beta)
        assert got.tobytes() == ref.tobytes()


def test_class_values_memo_keeps_budget_check_and_is_read_only():
    code = codes.debierre_turban_code(3, 3)
    vals = class_log_values(code, "Z", 0b101, 0.8)
    assert not vals.flags.writeable
    with pytest.raises(ValueError):
        vals[0] = 0.0
    with pytest.raises(BudgetExceededError):
        class_log_values(code, "Z", 0b101, 0.8, budget_log2=3)


@pytest.mark.parametrize("beta", [0.0, -0.2, -1.0])
def test_class_values_reject_nonpositive_beta(beta):
    """beta <= 0 raises ValueError on every route, warm view or cold:
    delta_f_max would divide by zero at beta = 0, and at beta = -1 it
    would be negative on toric L = 2."""
    code = codes.toric_code(2)
    view = code.sector("Z")
    e = BinaryVector(0b1011, 8)
    c = view.class_vector(1)
    for warm in (False, True):
        if warm:
            class_log_values(code, "Z", e, 0.7)
            ml_decode(code, "Z", view.syndrome(e), 0.7)
        with pytest.raises(ValueError, match="beta must be positive"):
            class_log_values(code, "Z", e, beta)
        with pytest.raises(ValueError, match="beta must be positive"):
            analysis.delta_f_max(code, "Z", e, c, beta)
        with pytest.raises(ValueError, match="beta must be positive"):
            analysis.delta_f_0(code, "Z", e, c, beta)
        with pytest.raises(ValueError, match="beta must be positive"):
            ztot(code, "Z", e, beta)
        with pytest.raises(ValueError, match="beta must be positive"):
            ml_decode(code, "Z", view.syndrome(e), beta)
        assert list(view._slots) == ([0.7] if warm else [])  # none dropped or added


def test_defect_free_energies_equal_on_warm_and_cold_views():
    p = 0.1
    beta = nishimori_beta(p)
    warm = codes.toric_code(2)
    view = warm.sector("Z")
    for s in view.all_syndromes():
        e_s = view.solve_syndrome(s)
        class_log_values(warm, "Z", e_s, beta)
        for lab in range(1, 1 << view.k):
            c = view.class_vector(lab)
            calls = [
                lambda code: analysis.delta_f_max(code, "Z", e_s, c, beta),
                lambda code: analysis.delta_f_0(code, "Z", e_s, c, beta),
                lambda code: analysis.syndrome_avg_delta_f(code, "Z", s, c, p),
                lambda code: ztot(code, "Z", e_s, beta).log_value,
            ]
            for call in calls:
                assert call(warm) == call(codes.toric_code(2))


# -- class-value tables ---------------------------------------------------------------

_TABLE_CODES = {
    "toric2": lambda: codes.toric_code(2),
    "toric3": lambda: codes.toric_code(3),
    "toric4": lambda: codes.toric_code(4),
    "dt33": lambda: codes.debierre_turban_code(3, 3),
}
_TABLE_BETAS = (0.35, nishimori_beta(0.11))


def _scan(view, bits, beta):
    """The class values of one coset-table scan, with no table involved."""
    hists = view.coset_table().class_histograms(bits)
    return wegner._log_z_from_hists(hists, view.n_bonds, beta)


def _kernel_element(view, rng):
    """A random zero-syndrome vector: degeneracy group plus a random class."""
    bits = 0
    for row in view.theta_basis.row_bits + view.logicals.row_bits:
        if rng.random() < 0.5:
            bits ^= row
    return bits


def _filled_rows(view, beta):
    values = view._slots[beta].values
    return int((~np.isnan(values[:, 0])).sum())


@pytest.mark.parametrize("name", sorted(_TABLE_CODES))
@pytest.mark.parametrize("sector", ["X", "Z", None])
def test_value_table_equals_coset_scan(name, sector):
    """Every class value read from a table has the bytes of a scan.

    Where every syndrome is cheap to scan (at most 2^20 elements scanned
    per view and beta), every syndrome is filled and then read back at each
    class offset; otherwise p-weighted and uniform errors fill rows, and
    errors of the same syndromes in other classes read them.
    """
    code = _TABLE_CODES[name]()
    view = code.sector(sector)
    reach = view.rank_theta + view.k
    if reach > 24:
        with pytest.raises(BudgetExceededError):
            class_log_values(code, sector, 0, 1.0)
        return
    rng = np.random.default_rng(61)
    fits = (view.n_syndromes << view.k) * 8 <= wegner.VALUE_TABLE_BYTES
    every = view.n_syndromes << reach <= 1 << 20
    for beta in _TABLE_BETAS:
        if every:
            fills = [view.solve_syndrome(s).bits for s in view.all_syndromes()]
        else:
            n = 120 >> max(0, reach - 18)  # 7 errors at 2^22 elements a scan
            fills = [sum(1 << int(j) for j in np.flatnonzero(rng.random(view.n_bonds) < 0.06))
                     for _ in range(n)]
            fills += [int(rng.integers(0, 1 << 62)) & ((1 << view.n_bonds) - 1)
                      for _ in range(n // 6)]
        for e in fills:
            shifts = [view.class_vector(c).bits for c in range(1 << view.k)] if every else []
            shifts += [_kernel_element(view, rng) for _ in range(2)]
            for bits in [e] + [e ^ z for z in shifts]:
                got = class_log_values(code, sector, bits, beta)
                assert got.tobytes() == _scan(view, bits, beta).tobytes()
        if fits and every:
            assert _filled_rows(view, beta) == view.n_syndromes
        elif fits:
            assert _filled_rows(view, beta) == len({view.trellis_index(e)[0] for e in fills})
        else:
            assert view._slots == {}


def test_value_table_scans_each_syndrome_once(monkeypatch):
    code = codes.toric_code(3)
    view = code.sector("Z")
    scans = []
    real = gf2.CosetTable.class_histograms
    monkeypatch.setattr(gf2.CosetTable, "class_histograms",
                        lambda table, shift=0: scans.append(shift) or real(table, shift))
    rng = np.random.default_rng(71)
    beta = _TABLE_BETAS[1]
    for s in view.all_syndromes():
        e = view.solve_syndrome(s).bits
        for bits in (e, e ^ _kernel_element(view, rng), e ^ view.class_vector(3).bits):
            class_log_values(code, "Z", bits, beta)
    assert len(scans) == view.n_syndromes


def test_value_table_budget_zero_keeps_no_table(monkeypatch):
    monkeypatch.setattr(wegner, "VALUE_TABLE_BYTES", 0)
    rng = np.random.default_rng(67)
    bare, ref = codes.toric_code(3), codes.toric_code(3)
    for _ in range(200):
        sector = ("X", "Z")[int(rng.integers(2))]
        e = sum(1 << int(j) for j in np.flatnonzero(rng.random(18) < 0.1))
        beta = _TABLE_BETAS[int(rng.integers(2))]
        got = class_log_values(bare, sector, e, beta)
        monkeypatch.setattr(wegner, "VALUE_TABLE_BYTES", 1 << 24)
        want = class_log_values(ref, sector, e, beta)
        monkeypatch.setattr(wegner, "VALUE_TABLE_BYTES", 0)
        assert got.tobytes() == want.tobytes()
    assert bare.sector("X")._slots == bare.sector("Z")._slots == {}
    assert ref.sector("Z")._slots[_TABLE_BETAS[0]].values is not None


def test_value_tables_bounded_by_slots_and_bytes(monkeypatch):
    code = codes.debierre_turban_code(3, 3)
    view = code.sector("Z")
    table_bytes = (view.n_syndromes << view.k) * 8
    assert table_bytes == 16 << 10
    e = view.solve_syndrome(next(iter(view.all_syndromes()))).bits ^ 0b111
    betas = [0.2 + 0.05 * i for i in range(40)]
    for beta in betas:  # the default budget holds a table in every slot
        assert class_log_values(code, "Z", e, beta).tobytes() == _scan(view, e, beta).tobytes()
        assert len(view._slots) <= codes.MEMO_BETAS
    assert list(view._slots) == betas[-codes.MEMO_BETAS:]
    assert all(slot.values is not None for slot in view._slots.values())
    # three tables' worth: the newest three temperatures keep theirs
    monkeypatch.setattr(wegner, "VALUE_TABLE_BYTES", 3 * table_bytes)
    fresh = codes.debierre_turban_code(3, 3)
    fview = fresh.sector("Z")
    for i, beta in enumerate(betas):
        got = class_log_values(fresh, "Z", e ^ (i % 4), beta)
        assert got.tobytes() == _scan(fview, e ^ (i % 4), beta).tobytes()
        held = [b for b, slot in fview._slots.items() if slot.values is not None]
        assert sum(fview._slots[b].values.nbytes for b in held) <= 3 * table_bytes
        assert held == betas[max(0, i - 2) : i + 1]
        assert len(fview._slots) <= codes.MEMO_BETAS
    # a temperature used again is the newest and keeps its table
    class_log_values(fresh, "Z", e, betas[-3])
    class_log_values(fresh, "Z", e, 9.0)
    held = [b for b, slot in fview._slots.items() if slot.values is not None]
    assert held == [betas[-1], betas[-3], 9.0]
    # beta <= 0 raises before any slot or table is touched
    before = [(b, id(slot), id(slot.values)) for b, slot in fview._slots.items()]
    for beta in (0.0, -0.5):
        with pytest.raises(ValueError, match="beta must be positive"):
            class_log_values(fresh, "Z", e, beta)
    assert [(b, id(slot), id(slot.values)) for b, slot in fview._slots.items()] == before


def test_value_table_not_allocated_over_enumeration_budget():
    code = codes.toric_code(4)
    view = code.sector("Z")
    need = view.rank_theta + view.k
    with pytest.raises(BudgetExceededError):
        class_log_values(code, "Z", 0b1011, 0.7, budget_log2=need - 1)
    assert view._slots == {} and view._table is None and view._evaluation is None
    class_log_values(code, "Z", 0b1011, 0.7)  # a table at 0.7 exists now
    for beta in (0.7, 0.9):
        with pytest.raises(BudgetExceededError):
            class_log_values(code, "Z", 0b1, beta, budget_log2=need - 1)
    assert list(view._slots) == [0.7]
    assert _filled_rows(view, 0.7) == 1


# -- correlators --------------------------------------------------------------------


def test_correlator_m_zero_is_one():
    code = codes.toric_code(2)
    e = BinaryVector(0b1011, 8)
    assert correlator_tot(code, "Z", e, 0, 0.9) == pytest.approx(1.0, abs=1e-14)
    assert correlator_c(code, "Z", e, 0, 0, 0.9) == pytest.approx(1.0, abs=1e-14)


def test_correlator_indicator_m_gives_one_for_every_class():
    code = codes.toric_code(2)
    view = code.sector("Z")
    e = BinaryVector(0b10010011, 8)
    for label in range(4):
        for j in range(view.k):
            m = view.indicators.row(j)
            q = correlator_c(code, "Z", e, view.class_vector(label), m, 0.7)
            assert q == pytest.approx(1.0, abs=1e-14)


def test_correlator_expansion_identity():
    rng = np.random.default_rng(53)
    code = codes.toric_code(2)
    view = code.sector("Z")
    for _ in range(10):
        e = rand_vec(rng, 8)
        m = rand_vec(rng, 8)
        q_tot = correlator_tot(code, "Z", e, m, 0.9)
        logz = class_log_values(code, "Z", e, 0.9)
        logzt = ztot(code, "Z", e, 0.9).log_value
        rhs = sum(
            (-1) ** view.class_vector(lab).dot(m)
            * math.exp(logz[lab] - logzt)
            * correlator_c(code, "Z", e, view.class_vector(lab), m, 0.9)
            for lab in range(4)
        )
        assert q_tot == pytest.approx(rhs, abs=1e-10)
        assert -1 - 1e-12 <= q_tot <= 1 + 1e-12


def test_correlators_bounded_on_random_draws():
    rng = np.random.default_rng(59)
    code = codes.toric_code(2)
    for _ in range(20):
        e, m = rand_vec(rng, 8), rand_vec(rng, 8)
        q = correlator_tot(code, "Z", e, m, float(rng.uniform(0.2, 2.0)))
        assert -1 - 1e-12 <= q <= 1 + 1e-12


def test_correlators_equal_spin_enum_ratio():
    # the one-pass correlators against two separate spin sums
    rng = np.random.default_rng(71)
    code = codes.toric_code(2)
    for sector in ("X", "Z"):
        view = code.sector(sector)
        tm, sm = WegnerModel(view.tot_matrix), WegnerModel(view.theta)
        for _ in range(10):
            e, m = rand_vec(rng, 8), rand_vec(rng, 8)
            c = view.class_vector(int(rng.integers(1 << view.k)))
            beta = float(rng.uniform(0.2, 2.0))
            want = eval_spin_enum(tm, e, beta, m=m).ratio(eval_spin_enum(tm, e, beta))
            assert correlator_tot(code, sector, e, m, beta) == want
            ec = e ^ c
            want = eval_spin_enum(sm, ec, beta, m=m).ratio(eval_spin_enum(sm, ec, beta))
            assert correlator_c(code, sector, e, c, m, beta) == want


def test_sector_models_built_once_per_view(monkeypatch):
    built = []
    init = WegnerModel.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WegnerModel, "__init__", counting_init)
    rng = np.random.default_rng(79)
    code = codes.toric_code(2)
    for _ in range(3):
        for sector in ("X", "Z"):
            view = code.sector(sector)
            e, m = rand_vec(rng, 8), rand_vec(rng, 8)
            c = view.class_vector(1)
            z0(code, sector, e, 0.7)
            zc(code, sector, e, c, 0.7)
            ztot_dual_route(code, sector, e, 0.7)
            correlator_tot(code, sector, e, m, 0.7)
            correlator_c(code, sector, e, c, m, 0.7)
    # one sector model and one tot model per view
    assert len(built) == 4
    shared = {id(get(code, s)) for get in (sector_model, tot_model) for s in ("X", "Z")}
    assert shared == {id(model) for model in built}
    for model in built:
        with pytest.raises(ValueError):
            model.couplings[0] = 2.0


def test_wilson_loop_qualitative_trend():
    # gauge sector of the layered construction on a tiny inner code: at high
    # beta |log Q| tracks the boundary size wgt(s_m); at low beta it tracks
    # the surface size d_m.  Checked as a monotone trend over three loops.
    inner = codes.StabilizerCode.from_css(
        BinaryMatrix.from_array([[1, 1]]), BinaryMatrix.from_array([[1, 1]])
    )
    gauge = codes.gauge_code(inner, 3)
    view = gauge.sector("Z")
    model = WegnerModel(view.theta)
    rng = np.random.default_rng(61)
    ker = gf2.nullspace(view.theta)

    def q_clean(m, beta):
        num = eval_spin_enum(model, 0, beta, m=m, spin_budget=20)
        den = eval_spin_enum(model, 0, beta, spin_budget=20)
        return num.ratio(den)

    def perim(m):
        return gf2.mat_vec(view.theta, m).weight()

    def area(m):
        w, _ = gf2.coset_min_weight(m, ker, budget_log2=20)
        return w

    # pick three loops strictly growing in both boundary and surface size
    chosen = []
    seen = set()
    for bits in rng.integers(1, 1 << view.n_bonds, size=4000):
        m = BinaryVector(int(bits) & ((1 << view.n_bonds) - 1), view.n_bonds)
        key = (perim(m), area(m))
        if key in seen or key[0] == 0 or key[1] == 0:
            continue
        seen.add(key)
        chosen.append((key[0], key[1], m))
    chosen.sort()
    picks = [chosen[0]]
    for cand in chosen:
        if cand[0] > picks[-1][0] and cand[1] > picks[-1][1]:
            picks.append(cand)
        if len(picks) == 3:
            break
    assert len(picks) == 3

    hi = [abs(math.log(abs(q_clean(m, 2.0)))) for _, _, m in picks]
    lo = [abs(math.log(abs(q_clean(m, 0.25)))) for _, _, m in picks]
    assert hi[0] < hi[1] < hi[2]
    assert lo[0] < lo[1] < lo[2]


# -- exact thermal statistics ----------------------------------------------------


def test_exact_stats_single_bond():
    model = WegnerModel(BinaryMatrix([1], 1))
    beta = 0.8
    st = exact_thermal_stats(model, 0, beta)
    assert st.mean_energy == pytest.approx(-math.tanh(beta), abs=1e-13)
    assert st.bond_sat[0] == pytest.approx(math.tanh(beta), abs=1e-13)


def _thermal_reference(model, e, beta):
    """<H>, <H^2> and <(-1)^e_b R_b> as plain per-configuration sums."""
    theta = model.theta.to_array().astype(np.int64)
    e_arr = e.to_array().astype(np.int64)
    z = h1 = h2 = 0.0
    sat = np.zeros(model.n_bonds)
    for conf in range(1 << model.n_spins):
        x = np.array([(conf >> r) & 1 for r in range(model.n_spins)], dtype=np.int64)
        s = 1.0 - 2.0 * ((x @ theta + e_arr) % 2)  # (-1)^e_b R_b
        energy = -float(model.couplings @ s)
        w = math.exp(-beta * energy)
        z += w
        h1 += w * energy
        h2 += w * energy**2
        sat += w * s
    return h1 / z, h2 / z, sat / z


def test_exact_stats_match_per_configuration_sum():
    rng = np.random.default_rng(83)
    cases = [(WegnerModel(codes.toric_code(2).sector("Z").theta), BinaryVector(0b10110, 8), 0.9)]
    for _ in range(6):
        model = rand_model(rng, max_spins=7, max_bonds=10, nonuniform=True)
        cases.append((model, rand_vec(rng, model.n_bonds), float(rng.uniform(0.2, 1.5))))
    for model, e, beta in cases:
        assert e.bits
        st = exact_thermal_stats(model, e, beta)
        h1, h2, sat = _thermal_reference(model, e, beta)
        assert st.mean_energy == pytest.approx(h1, rel=1e-12, abs=1e-12)
        assert st.mean_energy_sq == pytest.approx(h2, rel=1e-12, abs=1e-12)
        assert st.bond_sat == pytest.approx(sat, rel=1e-12, abs=1e-12)


def test_exact_stats_match_log_z_derivative():
    # <E> = -d log Z / d beta (numerical derivative of the coset evaluation)
    model = WegnerModel(codes.toric_code(2).sector("Z").theta)
    e = BinaryVector(0b1100, 8)
    beta, h = 0.9, 1e-6
    st = exact_thermal_stats(model, e, beta)
    # d/dbeta of log(raw sum) where raw = Z * prod(2 cosh K) * 2^{N_g}
    def log_raw(b):
        return eval_coset_enum(model, e, b).log_value + model.n_bonds * math.log(
            2 * math.cosh(b)
        )
    deriv = (log_raw(beta + h) - log_raw(beta - h)) / (2 * h)
    assert -deriv == pytest.approx(st.mean_energy, abs=1e-5)
    assert np.all(np.abs(st.bond_sat) <= 1 + 1e-12)


def test_sector_and_tot_model_builders():
    code = codes.toric_code(3)
    sm = sector_model(code, "Z")
    tm = tot_model(code, "Z")
    assert sm.n_bonds == tm.n_bonds == 18
    assert sm.n_spins == 9 and tm.n_spins == 10
