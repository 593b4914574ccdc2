"""Metropolis sampler vs exact enumeration; disorder-averaged identities."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinqec import codes, decoder, montecarlo as mc
from spinqec.gf2 import BinaryMatrix, BinaryVector
from spinqec.wegner import WegnerModel, exact_thermal_stats


def test_single_spin_magnetization():
    model = WegnerModel(BinaryMatrix([1], 1))
    sampler = mc.MetropolisSampler(model, 0, 0.8, np.random.default_rng(0))
    n = 20000
    tot = 0
    for _ in range(n):
        sampler.sweep()
        tot += int(sampler.spins[0])
    mean = tot / n
    sigma = math.sqrt((1 - math.tanh(0.8) ** 2) / n) * 3  # generous iid bound x3
    assert abs(mean - math.tanh(0.8)) < 5 * sigma
    sampler.validate()


def test_infinite_temperature_energy_is_zero():
    model = WegnerModel(codes.toric_code(2).sector("Z").theta)
    _, energies = mc.metropolis_run(
        model, 0, 1e-9, sweeps=4000, burn_in=200, rng=np.random.default_rng(1)
    )
    mean, err = mc.blocked_estimate(energies)
    assert abs(mean) < 3 * err + 0.2


def test_detailed_balance_two_spin_bond():
    # single bond R = S1 S2: P(R=+1)/P(R=-1) = e^{2 beta}
    model = WegnerModel(BinaryMatrix([1, 1], 1))
    assert model.theta.shape == (2, 1)
    beta = 0.6
    sampler = mc.MetropolisSampler(model, 0, beta, np.random.default_rng(2))
    n, plus = 30000, 0
    for _ in range(n):
        sampler.sweep()
        plus += int(sampler.sat[0] == 1)
    p_plus = plus / n
    want = math.exp(2 * beta) / (math.exp(2 * beta) + 1)  # weights e^{+-beta}
    assert abs(p_plus - want) < 5 * math.sqrt(want * (1 - want) / n) * 3


def test_energy_and_cv_match_exact_toric3():
    code = codes.toric_code(3)
    model = WegnerModel(code.sector("Z").theta)
    e = BinaryVector(0b101000100000000011, 18)
    beta = 1.0
    st = exact_thermal_stats(model, e, beta)
    u, cv = mc.estimate_energy_and_cv(model, e, beta, 20000, np.random.default_rng(3))
    assert abs(u.mean - st.mean_energy) < 3 * u.stderr
    assert abs(cv.mean - st.specific_heat(beta)) < 3 * cv.stderr
    assert u.stderr > 0 and cv.stderr > 0


def test_blocked_estimate_few_samples_uses_s_over_sqrt_n():
    mean, err = mc.blocked_estimate([0.0, 1.0, 2.0, 3.0])
    assert mean == 1.5
    assert err == pytest.approx(np.std([0, 1, 2, 3], ddof=1) / 2, abs=1e-15)
    assert round(err, 4) == 0.6455
    for few in ([], [1.0]):
        with pytest.raises(ValueError, match="at least 2 samples"):
            mc.blocked_estimate(few)


@pytest.mark.parametrize("sweeps", [10, 31])
def test_energy_and_cv_rejects_too_few_sweeps_before_the_chain(sweeps):
    model = WegnerModel(codes.toric_code(2).sector("Z").theta)
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="at least 32 retained sweeps"):
        mc.estimate_energy_and_cv(model, 0, 0.8, sweeps, rng, burn_in=0)
    assert rng.random() == np.random.default_rng(4).random()  # nothing drawn


def test_energy_and_cv_at_the_minimum_sweeps_is_finite():
    import warnings

    model = WegnerModel(codes.toric_code(2).sector("Z").theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, cv = mc.estimate_energy_and_cv(
            model, 0, 0.8, 32, np.random.default_rng(4), burn_in=0
        )
    assert u.sweeps == cv.sweeps == 32
    assert all(math.isfinite(x) for x in (u.mean, u.stderr, cv.mean, cv.stderr))


def test_mc_matches_exact_on_random_draws():
    rng = np.random.default_rng(11)
    for draw in range(20):
        ns, nb = int(rng.integers(2, 7)), int(rng.integers(2, 9))
        theta = BinaryMatrix.from_array(rng.integers(0, 2, (ns, nb)))
        model = WegnerModel(theta)
        e = BinaryVector(int(rng.integers(0, 1 << nb)), nb)
        beta = float(rng.uniform(0.3, 1.2))
        st = exact_thermal_stats(model, e, beta)
        u, _ = mc.estimate_energy_and_cv(
            model, e, beta, 6000, np.random.default_rng(100 + draw), burn_in=300
        )
        assert abs(u.mean - st.mean_energy) < 3 * u.stderr + 1e-9, (draw, u, st)


def test_seeded_determinism():
    model = WegnerModel(codes.toric_code(2).sector("Z").theta)
    runs = []
    for _ in range(2):
        _, energies = mc.metropolis_run(
            model, 5, 0.7, sweeps=500, burn_in=50, rng=np.random.default_rng(42)
        )
        runs.append(energies)
    assert np.array_equal(runs[0], runs[1])


def test_run_rejects_bad_schedule():
    model = WegnerModel(BinaryMatrix([1], 1))
    with pytest.raises(ValueError):
        mc.metropolis_run(model, 0, 1.0, sweeps=10, burn_in=10, rng=np.random.default_rng(0))


def test_cv_vanishes_at_high_temperature():
    model = WegnerModel(codes.toric_code(2).sector("Z").theta)
    _, cv = mc.estimate_energy_and_cv(
        model, 0, 0.01, 8000, np.random.default_rng(5), burn_in=200
    )
    assert cv.mean < 3 * cv.stderr + 0.01


def test_nishimori_bond_energy_identity_exact_small():
    # [<(-1)^e R>] = tanh(beta_p) per bond: exhaustive disorder at L=2
    p = 0.1
    beta_p = decoder.nishimori_beta(p)
    model = WegnerModel(codes.toric_code(2).sector("Z").theta)
    acc = np.zeros(8)
    for bits in range(256):
        e = BinaryVector(bits, 8)
        w = e.weight()
        acc += p**w * (1 - p) ** (8 - w) * exact_thermal_stats(model, e, beta_p).bond_sat
    assert np.allclose(acc, math.tanh(beta_p), atol=1e-10)


def test_nishimori_bond_energy_identity_mc():
    # same identity, sampled disorder + MC thermal averages, toric L=3
    p = 0.08
    beta_p = decoder.nishimori_beta(p)
    model = WegnerModel(codes.toric_code(3).sector("Z").theta)
    vals = []
    for i in range(200):
        rng = np.random.default_rng(900 + i)
        e = decoder.sample_bits(p, 18, rng)
        _, energies = mc.metropolis_run(model, e, beta_p, 600, 100, rng)
        vals.append(energies.mean() / -18.0)  # mean bond satisfaction
    mean = float(np.mean(vals))
    err = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(mean - math.tanh(beta_p)) < 3 * err


def test_specific_heat_bound_small():
    p = 0.08
    beta_p = decoder.nishimori_beta(p)
    model = WegnerModel(codes.toric_code(3).sector("Z").theta)
    bound = 18 * beta_p**2 / math.cosh(beta_p) ** 2
    cvs = []
    for i in range(40):
        rng = np.random.default_rng(50 + i)
        e = decoder.sample_bits(p, 18, rng)
        cvs.append(exact_thermal_stats(model, e, beta_p).specific_heat(beta_p))
    mean = float(np.mean(cvs))
    err = float(np.std(cvs, ddof=1) / math.sqrt(len(cvs)))
    assert mean <= bound + 3 * err


def test_correlator_m_zero_and_indicator():
    code = codes.toric_code(2)
    view = code.sector("Z")
    model = WegnerModel(view.theta)
    rng = np.random.default_rng(6)
    est = mc.estimate_correlator(model, 3, 0, 0.8, 400, rng, burn_in=50)
    assert est.mean == 1.0 and est.stderr == 0.0
    # indicator m is in the bond kernel: every sample is exactly +1
    m = view.indicators.row(0)
    est = mc.estimate_correlator(model, 3, m, 0.8, 400, rng, burn_in=50)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_correlator_matches_exact():
    code = codes.toric_code(2)
    view = code.sector("Z")
    model = WegnerModel(view.theta)
    e = BinaryVector(0b1001, 8)
    m = BinaryVector(0b0110, 8)
    beta = 0.9
    from spinqec.wegner import correlator_c

    exact = correlator_c(code, "Z", e, 0, m, beta)
    est = mc.estimate_correlator(model, e, m, beta, 20000, np.random.default_rng(7))
    assert abs(est.mean - exact) < 3 * est.stderr


def test_nishimori_identity_exact_mode():
    code = codes.toric_code(2)
    view = code.sector("Z")
    p = 0.1
    beta_p = decoder.nishimori_beta(p)
    m = view.indicators.row(0) ^ view.logicals.row(1)
    report = mc.nishimori_identity_check(
        code, "Z", m, p, betas=[0.6, beta_p, 1.6], mode="exact"
    )
    for entry in report["results"]:
        assert abs(entry["identity_residual"]) < 1e-10
        assert entry["inequality_margin"] > -1e-10


def test_nishimori_identity_mc_mode():
    code = codes.toric_code(3)
    view = code.sector("Z")
    p = 0.1
    beta_p = decoder.nishimori_beta(p)
    m = view.indicators.row(0)
    report = mc.nishimori_identity_check(
        code, "Z", m, p, betas=[0.7, beta_p, 1.5],
        rng=np.random.default_rng(8), n_disorder=300,
    )
    for entry in report["results"]:
        assert abs(entry["identity_residual"]) < 3 * entry["identity_stderr"] + 1e-12
        assert entry["inequality_margin"] > -3 * entry["inequality_stderr"] - 1e-12


def test_tempered_chains_smoke():
    model = WegnerModel(codes.toric_code(2).sector("Z").theta)
    energies = mc.tempered_chains(
        model, 1, [0.4, 0.8, 1.2], sweeps=200, rng=np.random.default_rng(9)
    )
    assert energies.shape == (200, 3)
    # colder replicas sit at lower energy on average
    means = energies[50:].mean(axis=0)
    assert means[2] < means[0]


# -- the scalar sweep against the per-attempt numpy sweep it replaced ------------


def _reference_sweep(s):
    """One sweep as the sampler made it before its per-spin bond table."""
    n = s.model.n_spins
    sites = s.rng.integers(0, n, size=n)
    uniforms = s.rng.random(n)
    k = s.beta * s.model.couplings
    theta = s.model.theta_array()
    for site, u in zip(sites, uniforms):
        bonds = np.flatnonzero(theta[site])
        delta_logw = -2.0 * float(k[bonds] @ s.sat[bonds])
        if delta_logw >= 0 or u < math.exp(delta_logw):
            s.spins[site] = -s.spins[site]
            s.sat[bonds] = -s.sat[bonds]


def _random_couplings_model(code, sector, seed):
    theta = code.sector(sector).theta
    return WegnerModel(theta, np.random.default_rng(seed).uniform(0.3, 1.7, theta.cols))


_SWEEP_CASES = {
    "toric3-Z-uniform": (
        lambda: WegnerModel(codes.toric_code(3).sector("Z").theta),
        decoder.nishimori_beta(0.08),
    ),
    "dt36-Z-random": (lambda: _random_couplings_model(codes.debierre_turban_code(3, 6), "Z", 1), 0.9),
    "toric4-X-random": (lambda: _random_couplings_model(codes.toric_code(4), "X", 2), 0.7),
    "one-spin": (lambda: WegnerModel(BinaryMatrix([1], 1)), 0.8),
    "two-spin": (lambda: WegnerModel(BinaryMatrix([1, 1], 1)), 0.6),
}


@pytest.mark.parametrize("case", list(_SWEEP_CASES), ids=list(_SWEEP_CASES))
def test_sweep_equals_reference_sweep(case):
    make, beta = _SWEEP_CASES[case]
    model = make()
    draws = np.random.default_rng(20)
    for chain in range(3):
        e = decoder.sample_bits(0.15, model.n_bonds, draws)
        new = mc.MetropolisSampler(model, e, beta, np.random.default_rng([chain, 5]))
        ref = mc.MetropolisSampler(model, e, beta, np.random.default_rng([chain, 5]))
        for _ in range(150):
            new.sweep()
            _reference_sweep(ref)
            assert np.array_equal(new.spins, ref.spins)
            assert np.array_equal(new.sat, ref.sat)
            assert new.energy() == ref.energy()
        new.validate()


def _reference_ladder(model, e, betas, sweeps, rng):
    replicas = [mc.MetropolisSampler(model, e, b, rng) for b in betas]
    energies = np.empty((sweeps, len(replicas)))
    for i in range(sweeps):
        for rep in replicas:
            _reference_sweep(rep)
        for j in range(len(replicas) - 1):
            a, b = replicas[j], replicas[j + 1]
            delta = (a.beta - b.beta) * (a.energy() - b.energy())
            if delta >= 0 or rng.random() < math.exp(delta):
                a.spins, b.spins = b.spins, a.spins
                a.sat, b.sat = b.sat, a.sat
        energies[i] = [rep.energy() for rep in replicas]
    return energies


def test_tempered_chains_equal_reference_ladder(monkeypatch):
    model = _random_couplings_model(codes.toric_code(3), "Z", 3)
    betas = [0.3, 0.5, 0.7, 0.9]
    want = _reference_ladder(model, 21, betas, 200, np.random.default_rng(4))

    made = []

    class Recording(mc.MetropolisSampler):
        def __init__(self, *args):
            super().__init__(*args)
            self.first_sat = self.sat
            made.append(self)

    monkeypatch.setattr(mc, "MetropolisSampler", Recording)
    got = mc.tempered_chains(model, 21, betas, 200, np.random.default_rng(4))
    assert np.array_equal(got, want)
    assert any(rep.sat is not rep.first_sat for rep in made)  # replicas swapped
    for rep in made:
        rep.validate()
        rep.sweep()
        rep.validate()


def test_validate_raises_on_corrupted_satisfactions():
    model = WegnerModel(codes.toric_code(2).sector("Z").theta)
    sampler = mc.MetropolisSampler(model, 3, 0.8, np.random.default_rng(0))
    sampler.sweep()
    sampler.validate()
    sampler.sat[2] = -sampler.sat[2]
    with pytest.raises(AssertionError, match="satisfactions"):
        sampler.validate()


def test_validate_checks_under_optimize_flag():
    script = (
        "import numpy as np\n"
        "from spinqec import codes, montecarlo as mc\n"
        "from spinqec.wegner import WegnerModel\n"
        "m = WegnerModel(codes.toric_code(2).sector('Z').theta)\n"
        "s = mc.MetropolisSampler(m, 0, 0.8, np.random.default_rng(0))\n"
        "s.sat[0] = -s.sat[0]\n"
        "try:\n"
        "    s.validate()\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n"
    )
    src = str(Path(mc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    res = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert res.returncode == 0
