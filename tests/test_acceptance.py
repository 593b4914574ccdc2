"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criteria are implemented exactly as stated, at their
stated tolerances; where a criterion is analytically unattainable the test
fails with the measured evidence rather than a loosened check.
"""

import math
import time

import numpy as np
import pytest

from spinqec import analysis, codes, decoder, gf2, montecarlo, wegner
from spinqec.gf2 import BinaryMatrix, BinaryVector
from spinqec.wegner import WegnerModel, _log_z_from_hists


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")


def beta_p(p: float) -> float:
    return decoder.nishimori_beta(p)


def test_c01_oracle_equivalence_spin_vs_coset():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        ns = int(rng.integers(1, 13))
        nb = int(rng.integers(1, 15))
        theta = BinaryMatrix.from_array(rng.integers(0, 2, (ns, nb)))
        model = WegnerModel(theta)
        e = BinaryVector(int(rng.integers(0, 1 << nb)), nb)
        beta = [0.2, 0.44, 1.1][i % 3]
        a = wegner.eval_spin_enum(model, e, beta).log_value
        b = wegner.eval_coset_enum(model, e, beta).log_value
        worst = max(worst, abs(a - b))
    ok = worst <= 1e-12
    _report(1, "oracle equivalence", ok,
            f"worst |dlog Z| = {worst:.2e} over 100 models in {time.time()-t0:.1f}s")
    assert ok


def test_c02_syndrome_probability_normalization():
    worst = 0.0
    code = codes.toric_code(2)
    for p in (0.05, 0.1, 0.2):
        for sector in ("X", "Z"):
            view = code.sector(sector)
            total = sum(
                wegner.ztot(code, sector, view.solve_syndrome(s), beta_p(p)).value
                for s in view.all_syndromes()
            )
            worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-10
    _report(2, "sum_s Z_tot = 1", ok, f"worst |sum - 1| = {worst:.2e}")
    assert ok


def test_c03_nishimori_map_identity():
    code = codes.toric_code(2)
    rng = np.random.default_rng(103)
    worst = 0.0
    for i in range(100):
        sector = "Z" if i % 2 else "X"
        view = code.sector(sector)
        p = float(rng.uniform(0.02, 0.45))
        e = BinaryVector(int(rng.integers(0, 256)), 8)
        # direct probability: 2^-Ng sum over degeneracy shifts of p^w (1-p)^(Nb-w)
        direct = 0.0
        for mask in range(1 << view.theta.rows):
            bits = e.bits
            for r in range(view.theta.rows):
                if (mask >> r) & 1:
                    bits ^= view.theta.row_bits[r]
            w = bits.bit_count()
            direct += p**w * (1 - p) ** (8 - w)
        direct /= 1 << view.n_gauge
        z = wegner.z0(code, sector, e, beta_p(p)).value
        worst = max(worst, abs(z - direct) / direct)
    ok = worst <= 1e-12
    _report(3, "P0(e) = Z0(e; beta_p)", ok, f"worst relative error = {worst:.2e}")
    assert ok


def test_c04_wegner_duality_identity():
    t0 = time.time()
    rng = np.random.default_rng(104)
    worst = 0.0
    for i in range(20):
        ns = int(rng.integers(1, 7))
        nb = int(rng.integers(1, 10))
        theta = BinaryMatrix.from_array(rng.integers(0, 2, (ns, nb)))
        couplings = rng.uniform(0.3, 1.8, nb) if i % 2 == 0 else None
        model = WegnerModel(theta, couplings=couplings)
        e = BinaryVector(int(rng.integers(0, 1 << nb)), nb)
        beta = float(rng.uniform(0.3, 1.4))
        lhs, rhs, s1, s2 = wegner.duality_sides(model, e, beta)
        assert s1 == s2
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-10
    _report(4, "duality identity", ok,
            f"worst |log lhs - log rhs| = {worst:.2e} in {time.time()-t0:.1f}s")
    assert ok


def test_c05_clean_self_dual_identity():
    worst = 0.0
    details = []
    for L in (2, 3):
        code = codes.toric_code(L)
        full = analysis.clean_self_dual_check(code, None)
        sect = analysis.clean_self_dual_check(code, "X")
        worst = max(worst, full.residual, sect.residual)
        details.append(f"L={L}: full {full.lhs:.12g} vs {full.target:g}, "
                       f"sector {sect.lhs:.12g} vs {sect.target:g}")
    ok = worst <= 1e-9
    _report(5, "clean self-dual identity", ok,
            f"worst residual = {worst:.2e} ({'; '.join(details)})")
    assert ok


def _bound_scan(code, sector, ps, budget_log2=20, max_bytes=1 << 29, checked=8):
    """Exhaustive syndrome/class scan; returns the worst bound violation.

    The class histograms of each syndrome are read from one syndrome-trellis
    table of the sector (exact integers, equal to the coset-table scan); the
    first ``checked`` syndromes of the walk are compared with that scan.
    """
    view = code.sector(sector)
    trellis = view.class_trellis(max_bytes)
    table = view.coset_table(budget_log2)
    labels = np.arange(1 << view.k)
    d_arr = np.zeros(1 << view.k)
    for lab in range(1, 1 << view.k):
        d, exact = view.class_distance(lab, budget_log2)
        assert exact
        d_arr[lab] = d
    two_d = 2 * d_arr[1:]
    betas = [beta_p(p) for p in ps]
    # incremental error representative along a Gray walk of syndrome space
    syn_basis = gf2.row_basis(view.syn_matrix.transpose())
    e_basis = [
        view.solve_syndrome(BinaryVector(b, view.syn_matrix.rows)).bits
        for b in syn_basis.row_bits
    ]
    pair = labels[:, None] ^ labels[None, :]
    worst = -np.inf
    e_bits = 0
    for g in range(1 << syn_basis.rows):
        if g:
            flip = (g ^ (g >> 1)) ^ ((g - 1) ^ ((g - 1) >> 1))
            e_bits ^= e_basis[flip.bit_length() - 1]
        row, offset = view.trellis_index(e_bits)
        hists = trellis[row][labels ^ offset].astype(np.int64)
        if g < checked:
            assert np.array_equal(hists, table.class_histograms(e_bits))
        for beta in betas:
            vals = _log_z_from_hists(hists, view.n_bonds, beta)
            lmax = int(vals.argmax())
            dmax = (vals[lmax] - vals[lmax ^ labels[1:]]) / beta
            d0 = (vals[0] - vals[labels[1:]]) / beta
            w = np.exp(vals - vals.max())
            w /= w.sum()
            avg = (w @ (vals[:, None] - vals[pair])) / beta
            worst = max(
                worst,
                float(np.max(-dmax)),
                float(np.max(dmax - two_d)),
                float(np.max(d0 - two_d)),
                float(np.max(-avg[1:])),
                float(np.max(avg[1:] - two_d)),
            )
    return worst


def test_c06_bound_suites_exhaustive():
    t0 = time.time()
    worst = _bound_scan(codes.toric_code(2), "Z", (0.05, 0.15))
    worst = max(worst, _bound_scan(codes.debierre_turban_code(3, 6), "Z", (0.05, 0.15)))
    ok = worst <= 1e-9
    _report(6, "defect free-energy bounds", ok,
            f"worst violation = {worst:.2e} over exhaustive scans "
            f"in {time.time()-t0:.0f}s")
    assert ok


def test_c07_zero_temperature_saturation():
    # stated tolerance [0.999, 1.001] at beta = 20; the exact value carries
    # the residual-entropy correction ln(N_min)/(2 beta d_c), which for the
    # toric L=2 classes is ~9e-3 >> 1e-3, so this criterion cannot pass as
    # written.  Measured honestly below.
    code = codes.toric_code(2)
    view = code.sector("Z")
    ratios = []
    for lab in range(1, 1 << view.k):
        d_c, _ = view.class_distance(lab)
        val = analysis.delta_f_max(code, "Z", BinaryVector(0, 8), view.class_vector(lab), 20.0)
        ratios.append(val / (2 * d_c))
    ok = all(0.999 <= r <= 1.001 for r in ratios)
    _report(7, "zero-temperature saturation", ok,
            "ratios " + ", ".join(f"{r:.6f}" for r in ratios)
            + " (entropy correction ln N_min / (2 beta d_c) ~ 0.009 at beta=20)")
    assert ok, (
        f"measured dF/(2 d_c) = {ratios}; the bound saturates only as "
        f"beta -> inf, with exact finite-beta deficit ln(N_min)/(2 beta d_c) "
        f"(N_min = 2 degenerate minimum-weight representatives per class), "
        f"= 0.0087 at beta = 20 > the 0.001 tolerance"
    )


def test_c08_correlation_expansion():
    rng = np.random.default_rng(108)
    code = codes.toric_code(2)
    view = code.sector("Z")
    worst = 0.0
    for _ in range(10):
        e = BinaryVector(int(rng.integers(0, 256)), 8)
        m = BinaryVector(int(rng.integers(0, 256)), 8)
        q_tot = wegner.correlator_tot(code, "Z", e, m, 0.9)
        logz = wegner.class_log_values(code, "Z", e, 0.9)
        logzt = wegner.ztot(code, "Z", e, 0.9).log_value
        rhs = sum(
            (-1) ** view.class_vector(lab).dot(m)
            * math.exp(logz[lab] - logzt)
            * wegner.correlator_c(code, "Z", e, view.class_vector(lab), m, 0.9)
            for lab in range(1 << view.k)
        )
        worst = max(worst, abs(q_tot - rhs))
    ok = worst <= 1e-10
    _report(8, "correlation expansion", ok, f"worst residual = {worst:.2e}")
    assert ok


def test_c09_nishimori_identity_and_inequality():
    t0 = time.time()
    # exhaustive-disorder version, toric L=2 at p = 0.1
    code2 = codes.toric_code(2)
    view2 = code2.sector("Z")
    m2 = view2.indicators.row(0) ^ view2.logicals.row(1)
    bp = beta_p(0.1)
    exact = montecarlo.nishimori_identity_check(
        code2, "Z", m2, 0.1, betas=[0.7, bp, 1.5], mode="exact"
    )
    worst = max(abs(r["identity_residual"]) for r in exact["results"])
    ineq_ok = all(r["inequality_margin"] >= -1e-10 for r in exact["results"])
    # MC version on toric L=3
    code3 = codes.toric_code(3)
    m3 = code3.sector("Z").indicators.row(0)
    mc = montecarlo.nishimori_identity_check(
        code3, "Z", m3, 0.1, betas=[0.7, bp, 1.5],
        rng=np.random.default_rng(109), n_disorder=400,
    )
    mc_ok = all(
        abs(r["identity_residual"]) <= 3 * r["identity_stderr"] + 1e-12
        and r["inequality_margin"] >= -3 * r["inequality_stderr"] - 1e-12
        for r in mc["results"]
    )
    ok = worst <= 1e-10 and ineq_ok and mc_ok
    _report(9, "gauge identity + inequality", ok,
            f"exhaustive residual {worst:.2e}; MC within 3 sigma: {mc_ok} "
            f"({time.time()-t0:.0f}s)")
    assert ok


def test_c10_specific_heat_bound_mc():
    t0 = time.time()
    p = 0.08
    bp = beta_p(p)
    code = codes.toric_code(3)
    model = WegnerModel(code.sector("Z").theta)
    n_bonds = 18
    bound = n_bonds * bp**2 / math.cosh(bp) ** 2
    cvs = []
    for i in range(100):
        rng = np.random.default_rng(11000 + i)
        e = decoder.sample_bits(p, n_bonds, rng)
        _, cv = montecarlo.estimate_energy_and_cv(model, e, bp, 4000, rng, burn_in=400)
        cvs.append(cv.mean)
    mean = float(np.mean(cvs))
    sigma = float(np.std(cvs, ddof=1) / math.sqrt(len(cvs)))
    ok = mean <= bound + 3 * sigma
    _report(10, "specific-heat bound", ok,
            f"[C] = {mean:.3f} +- {sigma:.3f} <= bound {bound:.3f} "
            f"({time.time()-t0:.0f}s)")
    assert ok


def test_c11_threshold_crossing():
    # stated experiment: toric L in {2,3,4}, 2000 trials/point; the
    # adjacent-size crossing method is applied as designed.  At these sizes
    # the adjacent pairs mix distance parities (d = 2, 3, 4) and their exact
    # success curves do not cross inside the window, so the faithful scan
    # reports its diagnostic and this criterion fails honestly.
    t0 = time.time()
    family = [codes.toric_code(L) for L in (2, 3, 4)]
    grid = [0.08, 0.09, 0.10, 0.11, 0.12, 0.13, 0.14]
    scan = decoder.threshold_scan(family, grid, trials=2000, seed=111)
    curves = [
        " ".join(f"{est.mean_success:.3f}" for est in curve) for curve in scan.curves
    ]
    detail = (
        f"crossings {scan.crossings}, estimate {scan.estimate} "
        f"(diagnostic: {scan.diagnostic or 'none'}; "
        + "; ".join(f"L={L}: {c}" for L, c in zip((2, 3, 4), curves))
        + f"; {time.time()-t0:.0f}s)"
    )
    ok = scan.estimate is not None and abs(scan.estimate - 0.110) <= 0.03
    _report(11, "threshold crossing", ok, detail)
    assert ok, (
        "adjacent-size curves do not cross on the grid: the L=3 (odd "
        "distance) curve dominates both even-distance neighbours at every "
        "p in [0.08, 0.14]; the only real crossing in this family is the "
        "same-parity pair L=2/L=4 near p = 0.140. " + detail
    )


def test_c12_tension_margin_finite_rate():
    # stated experiment: hypergraph product of the (h,v) = (2,3), n_c = 6
    # biregular matrix.  Its sector degeneracy group has rank 50, so every
    # exact class evaluation needs 2^50 bond patterns (and there are 2^17
    # classes): far beyond any enumeration budget.  The faithful attempt
    # raises the budget error and this criterion fails honestly; the same
    # machinery passes on a feasible finite-rate product (see
    # tests/test_analysis.py::test_tension_report_deep_ordered_margin).
    h = codes.gallager_ldpc(2, 3, 6, seed=1)
    code = codes.hp_code(h, h.transpose())
    view = code.sector("Z")
    detail = (
        f"[[{code.n},{code.k}]] sector rank {view.rank_theta}, "
        f"2^{view.rank_theta} patterns per class value, 2^{view.k} classes"
    )
    try:
        rep = analysis.tension_report(code, "Z", p=0.01, n_disorder=100, seed=112)
    except gf2.BudgetExceededError as exc:
        _report(12, "tension rate-inequality margin", False, f"{detail}; {exc}")
        pytest.fail(
            f"exact tension evaluation is unattainable for this instance: {detail}"
        )
    ok = rep.margin >= -3 * rep.margin_sigma
    _report(12, "tension rate-inequality margin", ok,
            f"margin {rep.margin:.4f} +- {rep.margin_sigma:.4f}")
    assert ok


def test_c13_code_parameters():
    t0 = time.time()
    details = []
    ok = True
    for L in (2, 3, 4):
        params = codes.distance(codes.toric_code(L), cap=L)
        good = (params.n, params.k, params.d, params.d_exact) == (2 * L * L, 2, L, True)
        ok = ok and good
        details.append(str(params))
    code = codes.cyclic_hp([1, 1], 7, [1, 1, 0, 1], 7)
    params = codes.distance(code, cap=4)
    good = (params.n, params.k, params.d, params.d_exact) == (98, 6, 4, True)
    ok = ok and good
    details.append(str(params))
    _report(13, "code parameters", ok,
            ", ".join(details) + f" ({time.time()-t0:.0f}s)")
    assert ok


def test_c14_shannon_consistency():
    pc = analysis.conjectured_pc()
    diff = abs(analysis.shannon_p(0.5) - pc)
    grid = np.linspace(0.05, 0.95, 19)
    vals = [analysis.shannon_p(r) for r in grid]
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    ok = diff <= 1e-9 and decreasing
    _report(14, "Shannon consistency", ok,
            f"|shannon_p(0.5) - p_c| = {diff:.2e}, strictly decreasing: {decreasing}")
    assert ok
