"""Defect free energies, tension bounds, self-duality, transition points."""

import math

import numpy as np
import pytest

from spinqec import codes, wegner
from spinqec.analysis import (
    TransitionPrediction,
    binary_entropy,
    clean_self_dual_check,
    conjectured_pc,
    delta_f_0,
    delta_f_max,
    indicator_signature,
    infer_class_from_signs,
    shannon_p,
    syndrome_avg_delta_f,
    tension_report,
)
from spinqec.decoder import nishimori_beta
from spinqec.gf2 import BinaryMatrix, BinaryVector


# -- entropy / transition points -------------------------------------------------


def test_binary_entropy_half_is_one():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.11) == pytest.approx(binary_entropy(0.89), abs=1e-12)
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            binary_entropy(bad)


def test_conjectured_pc_value():
    pc = conjectured_pc()
    assert pc == pytest.approx(0.110, abs=5e-4)
    assert binary_entropy(pc) == pytest.approx(0.5, abs=1e-11)


def test_shannon_consistency():
    assert shannon_p(0.0) == 0.5
    assert abs(shannon_p(0.5) - conjectured_pc()) < 1e-9
    grid = np.linspace(0.05, 0.9, 18)
    vals = [shannon_p(r) for r in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # above rate 1/2 the conjectured point is unreachable
    assert all(shannon_p(r) < conjectured_pc() for r in (0.6, 0.75, 0.9))


def test_transition_prediction_builder():
    pred = TransitionPrediction.for_rate(0.25)
    assert 0 < pred.p_conjecture < 0.5
    assert pred.p_shannon > 0
    assert pred.p_estimate is None


# -- defect free energies ----------------------------------------------------------


def test_delta_f_max_trivial_class_zero():
    code = codes.toric_code(2)
    assert delta_f_max(code, "Z", BinaryVector(0, 8), 0, 1.2) == pytest.approx(0.0, abs=1e-12)


def test_delta_f_max_bounds_random():
    code = codes.toric_code(2)
    view = code.sector("Z")
    rng = np.random.default_rng(7)
    for _ in range(40):
        e = BinaryVector(int(rng.integers(0, 256)), 8)
        lab = int(rng.integers(1, 4))
        beta = float(rng.uniform(0.2, 2.5))
        d_c, exact = view.class_distance(lab)
        assert exact
        val = delta_f_max(code, "Z", e, view.class_vector(lab), beta)
        assert -1e-12 <= val <= 2 * d_c + 1e-9


def test_delta_f_max_zero_temperature_saturation_trend():
    # clean system: dF approaches 2 d_c with the residual entropy correction
    # ln(N_min) / beta, N_min = number of minimum-weight coset members
    code = codes.toric_code(2)
    view = code.sector("Z")
    lab = 1
    d_c, _ = view.class_distance(lab)
    c = view.class_vector(lab)
    # count minimum-weight members of the class coset by brute force
    n_min = 0
    for mask in range(1 << view.theta.rows):
        bits = c.bits
        for i in range(view.theta.rows):
            if (mask >> i) & 1:
                bits ^= view.theta.row_bits[i]
        if bits.bit_count() == d_c:
            n_min += 1
    n_min //= 1 << view.n_gauge  # distinct patterns, not coefficient vectors
    ratios = []
    for beta in (20.0, 100.0, 400.0):
        val = delta_f_max(code, "Z", BinaryVector(0, 8), c, beta)
        ratios.append(val / (2 * d_c))
        predicted = 2 * d_c - math.log(n_min) / beta
        assert val == pytest.approx(predicted, abs=1e-6)
    assert ratios[0] < ratios[1] < ratios[2] < 1.0


def test_delta_f_0_matches_max_on_clean_system():
    code = codes.toric_code(2)
    view = code.sector("Z")
    for lab in range(1, 4):
        c = view.class_vector(lab)
        a = delta_f_0(code, "Z", BinaryVector(0, 8), c, 0.9)
        b = delta_f_max(code, "Z", BinaryVector(0, 8), c, 0.9)
        assert a == pytest.approx(b, abs=1e-12)


def test_delta_f_0_upper_bound_and_negative_case():
    code = codes.toric_code(2)
    view = code.sector("Z")
    rng = np.random.default_rng(13)
    for _ in range(40):
        e = BinaryVector(int(rng.integers(0, 256)), 8)
        lab = int(rng.integers(1, 4))
        d_c, _ = view.class_distance(lab)
        val = delta_f_0(code, "Z", e, view.class_vector(lab), float(rng.uniform(0.2, 2.0)))
        assert val <= 2 * d_c + 1e-9
    # disorder equal to a logical representative makes the defect favourable
    rep = view.representative(1)
    assert delta_f_0(code, "Z", rep, rep, 3.0) < 0


def test_syndrome_avg_bounds_exhaustive():
    code = codes.toric_code(2)
    view = code.sector("Z")
    for p in (0.05, 0.15):
        for s in view.all_syndromes():
            for lab in range(1, 4):
                d_c, _ = view.class_distance(lab)
                val = syndrome_avg_delta_f(code, "Z", s, view.class_vector(lab), p)
                assert -1e-10 <= val <= 2 * d_c + 1e-10


def test_syndrome_avg_trivial_class_zero():
    code = codes.toric_code(2)
    view = code.sector("Z")
    s = next(iter(view.all_syndromes()))
    assert syndrome_avg_delta_f(code, "Z", s, 0, 0.1) == pytest.approx(0.0, abs=1e-12)


def _pre_record_values(view, e, beta):
    """The class values, the dominant label and log Z_tot as computed on
    every call before the evaluation record, without the view's memo."""
    vals = wegner._log_z_from_hists(
        view.coset_table().class_histograms(e.bits), view.n_bonds, beta
    )
    label_max, _ = wegner.dominant_class(view, vals)
    mx = float(vals.max())
    return vals, label_max, mx + math.log(float(np.exp(vals - mx).sum()))


def _interleave(code, e, beta, i):
    """Evaluate the view at another disorder, beta or budget, by turns."""
    turn = i % 4
    if turn == 1:
        wegner.class_log_values(code, "Z", e.bits ^ 1, beta)
    elif turn == 2:
        wegner.class_log_values(code, "Z", e, 1.1 * beta)
    elif turn == 3:
        wegner.class_log_values(code, "Z", e, beta, 23)


@pytest.mark.parametrize("make_code", [lambda: codes.toric_code(2),
                                       lambda: codes.debierre_turban_code(3, 3)],
                         ids=["toric2", "dt33"])
@pytest.mark.parametrize("interleaved", [False, True])
def test_evaluation_record_matches_pre_record_formulas(make_code, interleaved):
    code = make_code()
    view = code.sector("Z")
    i = 0
    for p in (0.05, 0.15):
        beta = nishimori_beta(p)
        for s in view.all_syndromes():
            e_s = view.solve_syndrome(s)
            vals, label_max, log_ztot = _pre_record_values(view, e_s, beta)
            weights = np.exp(vals - vals.max())
            weights /= weights.sum()
            for label in range(1, 1 << view.k):
                c = view.class_vector(label)
                want = [
                    float(vals[label_max] - vals[label_max ^ label]) / beta,
                    float(vals[0] - vals[label]) / beta,
                    float(weights @ ((vals - vals[np.arange(len(vals)) ^ label]) / beta)),
                    log_ztot,
                ]
                got = []
                for fn in (
                    lambda: delta_f_max(code, "Z", e_s, c, beta),
                    lambda: delta_f_0(code, "Z", e_s, c, beta),
                    lambda: syndrome_avg_delta_f(code, "Z", s, c, p),
                    lambda: wegner.ztot(code, "Z", e_s, beta).log_value,
                ):
                    if interleaved:
                        _interleave(code, e_s, beta, i)
                        i += 1
                    got.append(fn())
                assert [x.hex() for x in got] == [x.hex() for x in want]
                i += 1  # each call meets every kind of interleaving in turn


def test_evaluation_record_runs_dominant_class_once(monkeypatch):
    code = codes.debierre_turban_code(3, 3)
    view = code.sector("Z")
    calls = []
    real = wegner.dominant_class
    monkeypatch.setattr(wegner, "dominant_class", lambda *a: calls.append(a) or real(*a))
    beta = nishimori_beta(0.15)
    n_evaluations = 0
    for s in view.all_syndromes():
        e_s = view.solve_syndrome(s)
        for label in range(1, 1 << view.k):
            c = view.class_vector(label)
            delta_f_max(code, "Z", e_s, c, beta)
            syndrome_avg_delta_f(code, "Z", s, c, 0.15)
        wegner.zmax(code, "Z", e_s, beta)
        n_evaluations += 1
        assert len(calls) == n_evaluations
        # another beta replaces the record; coming back evaluates again
        delta_f_max(code, "Z", e_s, c, 2 * beta)
        delta_f_max(code, "Z", e_s, c, beta)
        n_evaluations += 2
        assert len(calls) == n_evaluations


@pytest.mark.parametrize("n_disorder", [1, 0, -3])
def test_tension_report_needs_two_disorder_samples(n_disorder):
    k0 = codes.StabilizerCode.from_css(
        BinaryMatrix.from_array([[1, 1]]), BinaryMatrix.from_array([[1, 1]])
    )
    for code in (codes.toric_code(2), k0):
        with pytest.raises(ValueError, match="n_disorder >= 2"):
            tension_report(code, "Z", p=0.05, n_disorder=n_disorder)
        assert code.sector("Z")._evaluation is None  # nothing was evaluated


# -- tensions -------------------------------------------------------------------------


def tiny_finite_rate_code():
    # [[13,5]] hypergraph product of the 3x2 all-pairs column-regular matrix
    h = BinaryMatrix.from_array([[1, 1], [1, 1], [1, 1]])
    return codes.hp_code(h, h.transpose())


def test_tension_report_deep_ordered_margin():
    code = tiny_finite_rate_code()
    rep = tension_report(code, "Z", p=0.01, n_disorder=100, seed=2)
    assert rep.margin is not None
    assert rep.margin >= -3 * rep.margin_sigma
    assert rep.margin > 0  # deep in the ordered phase the bound is slack
    for r in rep.reports:
        assert 0 <= r.tension <= 2 + 1e-9
        assert r.d_exact


def test_tension_report_k0_empty():
    code = codes.StabilizerCode.from_css(
        BinaryMatrix.from_array([[1, 1]]), BinaryMatrix.from_array([[1, 1]])
    )
    rep = tension_report(code, "Z", p=0.05, n_disorder=10, seed=0)
    assert rep.reports == [] and rep.lambda_bar is None


def test_tension_report_full_scope_toric():
    rep = tension_report(codes.toric_code(2), None, p=0.02, n_disorder=50, seed=3)
    assert rep.scope == "full"
    assert len(rep.reports) == 2 ** (2 * 2) - 1
    assert rep.margin >= -3 * rep.margin_sigma


# -- clean self-duality ------------------------------------------------------------------


def test_clean_self_dual_toric():
    for L in (2, 3):
        code = codes.toric_code(L)
        assert clean_self_dual_check(code, None).residual <= 1e-9
        assert clean_self_dual_check(code, "Z").residual <= 1e-9
        assert clean_self_dual_check(code, "X").residual <= 1e-9


def test_clean_self_dual_k0():
    code = codes.StabilizerCode.from_css(
        BinaryMatrix.from_array([[1, 1]]), BinaryMatrix.from_array([[1, 1]])
    )
    chk = clean_self_dual_check(code, None)
    assert chk.lhs == pytest.approx(0.0, abs=1e-12)
    assert chk.target == 0.0


def test_clean_self_dual_cyclic_product_sector():
    # self-dual-modulo-logical sector models from mixed check polynomials
    code = codes.cyclic_hp([1, 1], 3, [1, 1, 1], 6)
    chk = clean_self_dual_check(code, "Z")
    assert chk.target == 2 ** (code.k / 2) - 1
    assert chk.residual <= 1e-9


# -- indicator correlators ----------------------------------------------------------------


def test_indicator_signature_clean_low_temperature():
    code = codes.toric_code(2)
    sig = indicator_signature(code, "Z", BinaryVector(0, 8), 6.0)
    assert np.all(np.abs(sig - 1.0) < 1e-6)
    assert infer_class_from_signs(code, "Z", sig) == 0


def test_indicator_signature_identifies_inserted_defect():
    code = codes.toric_code(2)
    view = code.sector("Z")
    for lab in range(1, 4):
        e = view.representative(lab)
        sig = indicator_signature(code, "Z", e, 5.0)
        # sign pattern follows the pairing parities of the dominating class
        for j in range(view.k):
            expect = (-1) ** view.class_vector(lab).dot(view.indicators.row(j))
            assert math.copysign(1, sig[j]) == expect
        assert infer_class_from_signs(code, "Z", sig) == lab


def test_indicator_signature_disordered_at_high_temperature():
    code = codes.toric_code(2)
    sig = indicator_signature(code, "Z", BinaryVector(0, 8), 0.05)
    assert np.all(np.abs(sig) < 0.2)
