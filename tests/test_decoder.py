"""Error sampling, ML decoding, success estimation, threshold scans."""

import math

import numpy as np
import pytest

from spinqec import decoder, wegner
from spinqec.codes import StabilizerCode, debierre_turban_code, toric_code
from spinqec.decoder import (
    ErrorModel,
    decode_error,
    estimate_psucc,
    ml_decode,
    nishimori_beta,
    psucc_exact,
    sample_bits,
    sample_error,
    threshold_scan,
)
from spinqec.gf2 import BinaryMatrix, BinaryVector, BudgetExceededError, RowReducer


# -- error model / Nishimori temperature ---------------------------------------


def test_nishimori_beta_value():
    assert nishimori_beta(0.1) == pytest.approx(0.5 * math.log(9), abs=1e-14)


def test_nishimori_beta_limit():
    assert nishimori_beta(0.4999999) == pytest.approx(0.0, abs=1e-5)
    assert nishimori_beta(0.4999999) > 0


def test_nishimori_beta_domain():
    for bad in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ValueError):
            nishimori_beta(bad)


def test_nishimori_beta_at_entropy_root():
    # root of H2(p) = 1/2 by bisection (oracle local to the test)
    def h2(p):
        return -p * math.log2(p) - (1 - p) * math.log2(1 - p)

    lo, hi = 1e-9, 0.5
    for _ in range(80):
        mid = (lo + hi) / 2
        if h2(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    assert root == pytest.approx(0.110028, abs=1e-5)
    assert nishimori_beta(root) == pytest.approx(0.5 * math.log((1 - root) / root), abs=1e-12)
    assert nishimori_beta(root) == pytest.approx(1.04527, abs=1e-4)


def test_error_model_channel_probabilities():
    em = ErrorModel(0.2)
    assert em.p_x == em.p_z == pytest.approx(0.16)
    assert em.p_y == pytest.approx(0.04)
    assert em.p_identity + em.p_x + em.p_y + em.p_z == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ErrorModel(0.7)


# -- sampling -------------------------------------------------------------------


def test_sample_error_p_zero():
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert sample_error(ErrorModel(0.0), 6, rng).bits == 0


def test_sample_error_bit_frequency():
    rng = np.random.default_rng(1)
    p, n, draws = 0.3, 10, 5000
    total = sum(sample_error(ErrorModel(p), n, rng).weight() for _ in range(draws))
    nbits = draws * 2 * n
    sigma = math.sqrt(nbits * p * (1 - p))
    assert abs(total - nbits * p) < 3 * sigma


def test_sample_error_seeded_reproducible():
    a = sample_bits(0.25, 40, np.random.default_rng(7))
    b = sample_bits(0.25, 40, np.random.default_rng(7))
    assert a == b


def _sample_bits_loop(p, nbits, rng):
    """The bit-by-bit packing sample_bits replaced: one draw, set bits ORed in."""
    bits = 0
    for j in np.flatnonzero(rng.random(nbits) < p):
        bits |= 1 << int(j)
    return BinaryVector(bits, nbits)


def test_sample_bits_equals_bitwise_loop():
    for seed in range(40):
        for nbits in (0, 1, 7, 8, 9, 63, 64, 65, 100, 130):
            for p in (0.0, 0.11, 0.5, 1.0):
                a = sample_bits(p, nbits, np.random.default_rng(seed))
                b = _sample_bits_loop(p, nbits, np.random.default_rng(seed))
                assert a == b
    assert sample_bits(1.0, 130, np.random.default_rng(0)).bits == (1 << 130) - 1


# -- ml_decode ------------------------------------------------------------------


def brute_force_class_sums(view, s, p):
    """Independent oracle: group all errors with syndrome s by degeneracy
    class (canonical form under row reduction) and sum their probabilities."""
    reducer = RowReducer(view.theta)
    nb = view.n_bonds
    sums = {}
    canon_of_label = {}
    for bits in range(1 << nb):
        e = BinaryVector(bits, nb)
        if view.syndrome(e) != s:
            continue
        canon = reducer.reduce_bits(bits)
        w = e.weight()
        sums[canon] = sums.get(canon, 0.0) + p**w * (1 - p) ** (nb - w)
    return sums


def test_ml_decode_matches_brute_force_oracle():
    code = toric_code(2)
    view = code.sector("Z")
    p = 0.05
    beta = nishimori_beta(p)
    for s in view.all_syndromes():
        out = ml_decode(code, "Z", s, beta)
        sums = brute_force_class_sums(view, s, p)
        # the decoder's class values must match the brute-force class sums
        reducer = RowReducer(view.theta)
        for label in range(1 << view.k):
            e_c = view.solve_syndrome(s) ^ view.class_vector(label)
            canon = reducer.reduce_bits(e_c.bits)
            assert math.exp(out.log_z[label]) == pytest.approx(sums[canon], rel=1e-10)
        assert math.exp(out.log_z_max) == pytest.approx(max(sums.values()), rel=1e-10)


def test_ml_decode_zero_syndrome_trivial_class():
    code = toric_code(2)
    out = ml_decode(code, "Z", BinaryVector(0, 4), nishimori_beta(0.05))
    assert out.label == 0
    assert 0 < out.p_succ_conditional <= 1


def test_ml_decode_k0_always_succeeds():
    code = StabilizerCode.from_css(
        BinaryMatrix.from_array([[1, 1]]), BinaryMatrix.from_array([[1, 1]])
    )
    view = code.sector("Z")
    for s in view.all_syndromes():
        out = ml_decode(code, "Z", s, nishimori_beta(0.1))
        assert out.label == 0
        assert out.p_succ_conditional == pytest.approx(1.0, abs=1e-14)


def test_ml_decode_unreachable_syndrome():
    code = toric_code(2)
    # syndromes live in the image of G_X, which has rank 3 of 4 rows; the
    # all-ones vector with odd overlap is unreachable
    view = code.sector("Z")
    reachable = {s.bits for s in view.all_syndromes()}
    bad = next(b for b in range(16) if b not in reachable)
    with pytest.raises(ValueError):
        ml_decode(code, "Z", BinaryVector(bad, 4), 1.0)


def test_weight_one_errors_decode_correctly_L3():
    code = toric_code(3)
    beta = nishimori_beta(0.05)
    for j in range(18):
        out = decode_error(code, "Z", BinaryVector(1 << j, 18), beta)
        assert out.success


def five_qubit_code():
    rows = []
    base_x = [1, 0, 0, 1, 0]
    base_z = [0, 1, 1, 0, 0]
    for shift in range(4):
        x = [base_x[(j - shift) % 5] for j in range(5)]
        z = [base_z[(j - shift) % 5] for j in range(5)]
        rows.append(x + z)
    return StabilizerCode.from_symplectic(BinaryMatrix.from_array(rows))


def test_generic_code_full_view_decoding():
    # under independent bit/phase flips a Y error has binary weight 2; on the
    # [[5,1,3]] code its syndrome class is beaten by a competitor coset with
    # two weight-2 members, so ML decodes X/Z errors but (correctly) loses
    # the Y errors to degeneracy
    code = five_qubit_code()
    beta = nishimori_beta(0.05)
    view = code.sector(None)
    for q in range(5):
        for xb, zb in ((1, 0), (0, 1)):
            e = BinaryVector((xb << q) | (zb << (5 + q)), 10)
            assert decode_error(code, None, e, beta).success
        e_y = BinaryVector((1 << q) | (1 << (5 + q)), 10)
        out = decode_error(code, None, e_y, beta)
        assert not out.success
        # exhaustive class masses confirm the decision
        s = view.syndrome(e_y)
        sums = brute_force_class_sums(view, s, 0.05)
        reducer = RowReducer(view.theta)
        e_s = view.solve_syndrome(s)
        decoded_canon = reducer.reduce_bits((e_s ^ view.class_vector(out.label)).bits)
        assert sums[decoded_canon] == pytest.approx(max(sums.values()), rel=1e-12)
        assert out.p_succ_conditional == pytest.approx(
            max(sums.values()) / sum(sums.values()), rel=1e-10
        )


def test_decode_invariant_under_degeneracy():
    code = toric_code(2)
    view = code.sector("Z")
    beta = nishimori_beta(0.08)
    rng = np.random.default_rng(3)
    for _ in range(10):
        e = BinaryVector(int(rng.integers(0, 256)), 8)
        shifted = e ^ view.theta.row(int(rng.integers(0, view.theta.rows)))
        a = decode_error(code, "Z", e, beta)
        b = decode_error(code, "Z", shifted, beta)
        assert a.label == b.label and a.success == b.success
        assert np.allclose(a.log_z, b.log_z, atol=1e-12)


# -- estimate_psucc ----------------------------------------------------------------


def test_estimate_psucc_low_p():
    code = toric_code(2)
    est = estimate_psucc(code, "both", 0.001, trials=10_000, seed=2)
    assert est.mean_success >= 0.99


def test_estimate_psucc_deterministic():
    code = toric_code(2)
    a = estimate_psucc(code, "both", 0.08, trials=200, seed=5)
    b = estimate_psucc(code, "both", 0.08, trials=200, seed=5)
    assert a == b


def test_estimate_psucc_trial_records():
    rows = []
    code = toric_code(2)
    estimate_psucc(code, "both", 0.05, trials=10, seed=1, sink=rows.append)
    assert len(rows) == 20  # one per sector per trial
    assert {r["sector"] for r in rows} == {"X", "Z"}
    assert all(r["log_zmax"] <= r["log_ztot"] + 1e-12 for r in rows)


@pytest.mark.parametrize("p", [0.0, 0.5])
def test_estimate_psucc_needs_beta_where_beta_p_is_not_finite(p, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before rejecting p")

    monkeypatch.setattr(decoder, "sample_bits", no_sampling)
    with pytest.raises(ValueError, match="pass beta"):
        estimate_psucc(toric_code(2), "Z", p, 5)


def test_estimate_psucc_at_p_zero_with_explicit_beta():
    est = estimate_psucc(toric_code(2), "both", 0.0, 5, beta=nishimori_beta(0.05))
    assert est.mean_success == 1.0
    assert est.p == 0.0


def test_exhaustive_success_equals_zmax_sum():
    code = toric_code(2)
    for sector in ("X", "Z"):
        a, b = psucc_exact(code, sector, 0.1)
        assert a == pytest.approx(b, abs=1e-10)


def test_ratio_estimator_agrees_with_exact():
    code = toric_code(2)
    exact, _ = psucc_exact(code, "Z", 0.1)
    est = estimate_psucc(code, "Z", 0.1, trials=4000, seed=9)
    assert abs(est.mean_ratio - exact) < 4 * est.stderr_ratio + 1e-3


# -- threshold scan ------------------------------------------------------------------


def test_threshold_scan_rejects_bad_inputs():
    family = [toric_code(2)]
    with pytest.raises(ValueError):
        threshold_scan(family, [0.1], trials=10)
    with pytest.raises(ValueError):
        threshold_scan([toric_code(2), toric_code(3)], [0.1], trials=0)


def test_threshold_scan_checks_the_grid_before_decoding(monkeypatch):
    def no_decoding(*args):
        raise AssertionError("decoded before rejecting the grid")

    monkeypatch.setattr(decoder, "_decode_sectors", no_decoding)
    with pytest.raises(ValueError, match="infinite at p = 0"):
        threshold_scan([toric_code(2), toric_code(3)], [0.1, 0.0], trials=5)


@pytest.mark.parametrize(
    "family, sector, budget",
    [
        ([toric_code(2), toric_code(5)], "both", 24),  # L = 5 needs 2^26
        ([toric_code(2), toric_code(3)], "Z", 8),  # L = 3 needs 2^10
        ([toric_code(3), toric_code(2)], "both", 8),  # the first code is over
    ],
    ids=["last-code", "one-sector", "first-code"],
)
def test_threshold_scan_checks_budgets_before_decoding(monkeypatch, family, sector, budget):
    calls = []
    monkeypatch.setattr(decoder, "estimate_psucc", lambda *a, **kw: calls.append(a))
    with pytest.raises(BudgetExceededError, match="budget 2\\^%d" % budget):
        threshold_scan(family, [0.1], trials=5, sector=sector, budget_log2=budget)
    assert calls == []


def test_threshold_scan_smoke_and_deterministic():
    family = [toric_code(2), toric_code(3)]
    grid = [0.06, 0.10]
    a = threshold_scan(family, grid, trials=100, seed=4)
    b = threshold_scan(family, grid, trials=100, seed=4)
    assert [[e.mean_success for e in c] for c in a.curves] == [
        [e.mean_success for e in c] for c in b.curves
    ]
    assert len(a.crossings) == 1


def test_threshold_scan_finds_constructed_crossing():
    # same-parity pair L = 2, 4 crosses near p ~ 0.14 (known finite-size
    # location for the smallest even sizes)
    family = [toric_code(2), toric_code(4)]
    grid = [0.10, 0.12, 0.14, 0.16, 0.18]
    scan = threshold_scan(family, grid, trials=1500, seed=8)
    assert scan.estimate is not None
    assert 0.11 <= scan.estimate <= 0.17


def test_bad_fraction_decays_with_size():
    # ratio -> 1 for likely errors: the fraction of trials with
    # 1 - Z_max/Z_tot >= eps decays with n.  eps is set above 1/2 because
    # even-distance sizes have exact half-weight ties at ratio 1/2.
    eps = 0.55
    p = 0.05
    beta = nishimori_beta(p)
    fracs = []
    for L in (2, 3, 4):
        code = toric_code(L)
        bad = 0
        trials = 1200
        for t in range(trials):
            rng = decoder._trial_rng(99, L, 0, t)
            e = sample_bits(p, code.n, rng)
            out = decode_error(code, "Z", e, beta)
            if 1 - out.p_succ_conditional >= eps:
                bad += 1
        fracs.append(bad / trials)
    assert fracs[0] > fracs[1] > fracs[2]


# -- kept decisions ---------------------------------------------------------------

_MEMO_CODES = {
    "toric2": lambda: toric_code(2),
    "toric3": lambda: toric_code(3),
    "dt33": lambda: debierre_turban_code(3, 3),
}


def _outcome_fields(out):
    return (out.syndrome, out.label, out.ties, out.log_z.tobytes(), out.log_z_max,
            out.log_z_tot, out.e_s)


@pytest.mark.parametrize("name", sorted(_MEMO_CODES))
def test_kept_decisions_equal_enumeration(name, monkeypatch):
    # every syndrome of both sectors at three temperatures, field by field:
    # the first decode, the kept one and a view that keeps nothing
    kept, enumerated = _MEMO_CODES[name](), _MEMO_CODES[name]()
    for sector in ("X", "Z"):
        for beta in (0.3, nishimori_beta(0.11), 1.7):
            for s in kept.sector(sector).all_syndromes():
                monkeypatch.setattr(decoder, "MEMO_SYNDROMES", 1 << 10)
                first = ml_decode(kept, sector, s, beta)
                again = ml_decode(kept, sector, s, beta)
                monkeypatch.setattr(decoder, "MEMO_SYNDROMES", 0)
                b = ml_decode(enumerated, sector, s, beta)
                assert _outcome_fields(first) == _outcome_fields(again) == _outcome_fields(b)
                assert again.log_z is first.log_z and not again.log_z.flags.writeable
            view = kept.sector(sector)
            assert len(view._decisions[float(beta)]) == view.n_syndromes
        assert enumerated.sector(sector)._decisions == {}


def test_kept_decisions_decode_without_enumeration(monkeypatch):
    code = toric_code(3)
    beta = nishimori_beta(0.08)
    for s in code.sector("Z").all_syndromes():  # every syndrome seen once
        ml_decode(code, "Z", s, beta)
    calls = []
    real = wegner.class_log_values
    monkeypatch.setattr(wegner, "class_log_values", lambda *a: calls.append(a) or real(*a))
    rng = np.random.default_rng(3)
    for _ in range(50):
        out = decode_error(code, "Z", sample_bits(0.08, 18, rng), beta)
        assert out.success in (True, False)
    assert calls == []
    # a new syndrome is enumerated once, then kept
    fresh = toric_code(3)
    e = sample_bits(0.2, 18, rng)
    decode_error(fresh, "Z", e, beta)
    decode_error(fresh, "Z", e, beta)
    assert len(calls) == 1
    # toric L = 4 has 2^15 syndromes per sector: enumerated every time, none kept
    big = toric_code(4)
    e = sample_bits(0.08, 32, rng)
    decode_error(big, "Z", e, beta)
    decode_error(big, "Z", e, beta)
    assert len(calls) == 3 and big.sector("Z")._decisions == {}


def test_kept_decisions_are_bounded():
    code = toric_code(2)
    view = code.sector("Z")
    s = BinaryVector(0b11, 4)
    betas = [0.1 + 0.01 * i for i in range(100)]
    for beta in betas:
        ml_decode(code, "Z", s, beta)
        assert len(view._decisions) <= decoder.MEMO_BETAS
    assert list(view._decisions) == betas[-decoder.MEMO_BETAS:]
    # a temperature decoded again is the newest; the oldest goes first
    oldest, second = betas[-decoder.MEMO_BETAS], betas[-decoder.MEMO_BETAS + 1]
    ml_decode(code, "Z", s, oldest)
    ml_decode(code, "Z", s, 9.0)
    assert second not in view._decisions and list(view._decisions)[-2:] == [oldest, 9.0]
    # every admitted budget shares one dict per temperature
    need = view.rank_theta + view.k
    for budget in (need, need + 1, 24, 40):
        ml_decode(code, "Z", s, 9.0, budget_log2=budget)
    assert len(view._decisions) == decoder.MEMO_BETAS
    assert len(view._decisions[9.0]) == 1


def test_kept_decisions_reject_bad_syndromes():
    code = toric_code(2)
    view = code.sector("Z")
    reachable = [s.bits for s in view.all_syndromes()]
    for bits in reachable:
        ml_decode(code, "Z", BinaryVector(bits, 4), 1.0)
    assert len(view._decisions[1.0]) == len(reachable)
    bad = next(b for b in range(16) if b not in reachable)
    with pytest.raises(ValueError, match="image"):
        ml_decode(code, "Z", BinaryVector(bad, 4), 1.0)
    for n in (3, 5, 8):  # reachable bit patterns at a wrong length
        with pytest.raises(ValueError, match="length"):
            ml_decode(code, "Z", BinaryVector(0b11, n), 1.0)
    # the enumeration budget still applies, before and after a decision is kept
    need = view.rank_theta + view.k
    for beta in (1.0, 0.7):
        with pytest.raises(BudgetExceededError):
            ml_decode(code, "Z", BinaryVector(0, 4), beta, budget_log2=need - 1)
    assert ml_decode(code, "Z", BinaryVector(0, 4), 0.7, budget_log2=need).label == 0
