"""Metropolis sampling of the disordered multi-spin models.

Single-spin-flip Metropolis with the Hamiltonian H = -sum_b J_b (-1)^e_b R_b,
so the stationary distribution matches the exact partition weights.  Exact
enumeration (wegner.exact_thermal_stats) is the oracle for every estimator
here.  Free-energy differences are deliberately not estimated by MC; only
energy, specific heat and bond-product correlators are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .gf2 import BinaryVector
from .wegner import WegnerModel, correlator_tot


@dataclass
class McEstimate:
    """Blocked Monte Carlo estimate."""

    mean: float
    stderr: float
    tau: float
    sweeps: int
    burn_in: int


class MetropolisSampler:
    """Single-spin-flip chain over one disorder realization.

    State is the spin vector plus the cached per-bond satisfactions
    (-1)^e_b R_b; a flip touches only the bonds incident to the flipped
    spin.  Strictly sequential; seeded by the supplied generator.

    The constructor builds once a per-spin table of plain tuples: for each
    spin, its incident bonds in bond order, each as (bond index,
    K_b = beta J_b).  A sweep reads ``sat`` and ``spins`` into Python lists,
    runs its attempts on them through the table and writes both lists back
    into the arrays in place at its end, so between sweeps the arrays are
    the whole state.
    """

    def __init__(self, model: WegnerModel, e, beta: float, rng: np.random.Generator):
        self.model = model
        self.beta = float(beta)
        self.rng = rng
        if isinstance(e, BinaryVector):
            if e.n != model.n_bonds:
                raise ValueError("disorder length mismatch")
            self.e = e
        else:
            self.e = BinaryVector(int(e), model.n_bonds)
        theta = model.theta_array()
        k = self.beta * model.couplings
        self._bond_table = [
            tuple(zip(bonds.tolist(), k[bonds].tolist()))
            for bonds in map(np.flatnonzero, theta)
        ]
        self.sign_e = 1 - 2 * self.e.to_array().astype(np.int8)
        self.spins = rng.choice(np.array([-1, 1], dtype=np.int8), size=model.n_spins)
        self._theta = theta
        self.sat = self._satisfactions()

    def _satisfactions(self) -> np.ndarray:
        r = np.ones(self.model.n_bonds, dtype=np.int8)
        for spin, row in zip(self.spins, self._theta):
            r[row == 1] *= spin
        return (r * self.sign_e).astype(np.int8)

    def validate(self) -> None:
        """Cached satisfactions must be recomputable from the spins."""
        if not np.array_equal(self.sat, self._satisfactions()):
            raise AssertionError("cached bond satisfactions do not match the spins")

    def energy(self) -> float:
        return -float(self.model.couplings @ self.sat)

    def bond_product(self, m_support: np.ndarray) -> int:
        """prod_b R_b over the support of m (value is +-1)."""
        if len(m_support) == 0:
            return 1
        r_vals = self.sat[m_support] * self.sign_e[m_support]
        return 1 if (r_vals == -1).sum() % 2 == 0 else -1

    def sweep(self) -> None:
        """n_spins random single-flip Metropolis attempts.

        The log-weight change of a flip is -2 sum_b K_b sat_b over the spin's
        bonds, summed in bond order from 0.0; each term is exactly +-K_b.
        """
        n = self.model.n_spins
        sites = self.rng.integers(0, n, size=n).tolist()
        uniforms = self.rng.random(n).tolist()
        sat = self.sat.tolist()
        spins = self.spins.tolist()
        table = self._bond_table
        exp = math.exp
        for site, u in zip(sites, uniforms):
            bonds = table[site]
            delta_logw = 0.0
            for b, k in bonds:
                delta_logw += k * sat[b]
            delta_logw *= -2.0
            if delta_logw >= 0 or u < exp(delta_logw):
                spins[site] = -spins[site]
                for b, _ in bonds:
                    sat[b] = -sat[b]
        self.sat[:] = sat
        self.spins[:] = spins

    def run(self, sweeps: int, observable=None, trace=None) -> np.ndarray:
        """One sample of energy (and optional observable) per sweep."""
        out = np.empty((sweeps, 2 if observable else 1))
        for i in range(sweeps):
            self.sweep()
            out[i, 0] = self.energy()
            if observable:
                out[i, 1] = observable(self)
            if trace is not None:
                trace.append((i, *out[i]))
        return out


def autocorr_time(samples: np.ndarray) -> float:
    """Integrated autocorrelation time with the usual self-consistent window."""
    x = np.asarray(samples, dtype=np.float64)
    x = x - x.mean()
    n = len(x)
    if n < 8 or np.allclose(x, 0):
        return 0.5
    acf = np.correlate(x, x, mode="full")[n - 1 :]
    if acf[0] <= 0:
        return 0.5
    acf = acf / acf[0]
    tau = 0.5
    for t in range(1, n // 2):
        tau += acf[t]
        if t >= 6 * tau:
            break
    return max(tau, 0.5)


def blocked_estimate(samples: np.ndarray, n_blocks: int = 16) -> tuple[float, float]:
    """Mean and standard error from block averages (>= 16 blocks)."""
    x = np.asarray(samples, dtype=np.float64)
    if len(x) < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {len(x)}")
    n_blocks = max(n_blocks, 16)
    usable = (len(x) // n_blocks) * n_blocks
    if usable < n_blocks:  # too few for blocks: the plain s / sqrt(n)
        return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))
    blocks = x[:usable].reshape(n_blocks, -1).mean(axis=1)
    return float(x[:usable].mean()), float(blocks.std(ddof=1) / math.sqrt(n_blocks))


def _default_burn_in(model, e, beta, rng, pilot: int = 200) -> int:
    sampler = MetropolisSampler(model, e, beta, rng)
    energies = sampler.run(pilot)[:, 0]
    return int(10 * autocorr_time(energies)) + 10


def metropolis_run(
    model: WegnerModel,
    e,
    beta: float,
    sweeps: int,
    burn_in: int,
    rng: np.random.Generator,
    trace=None,
) -> tuple[MetropolisSampler, np.ndarray]:
    """Burned-in chain plus one energy sample per retained sweep."""
    if not sweeps > burn_in >= 0:
        raise ValueError("need sweeps > burn_in >= 0")
    sampler = MetropolisSampler(model, e, beta, rng)
    for _ in range(burn_in):
        sampler.sweep()
    energies = sampler.run(sweeps - burn_in, trace=trace)[:, 0]
    return sampler, energies


def estimate_energy_and_cv(
    model: WegnerModel,
    e,
    beta: float,
    sweeps: int,
    rng: np.random.Generator,
    burn_in: Optional[int] = None,
) -> tuple[McEstimate, McEstimate]:
    """Internal energy <E> and specific heat beta^2 var(E), blocked errors.

    The specific-heat error takes the variance within each of 16 blocks, so
    ``sweeps`` (the retained sweeps) must be at least 32.
    """
    if sweeps < 32:
        raise ValueError(
            f"estimate_energy_and_cv needs at least 32 retained sweeps "
            f"(16 blocks of 2), got {sweeps}"
        )
    if burn_in is None:
        burn_in = _default_burn_in(model, e, beta, rng)
        burn_in = min(burn_in, sweeps // 4)
    _, energies = metropolis_run(model, e, beta, sweeps + burn_in, burn_in, rng)
    tau = autocorr_time(energies)
    u_mean, u_err = blocked_estimate(energies)
    n_blocks = 16
    usable = (len(energies) // n_blocks) * n_blocks
    block_cv = beta**2 * energies[:usable].reshape(n_blocks, -1).var(axis=1, ddof=1)
    cv_mean = beta**2 * float(energies.var(ddof=1))
    cv_err = float(block_cv.std(ddof=1) / math.sqrt(n_blocks))
    u = McEstimate(u_mean, u_err, tau, len(energies), burn_in)
    cv = McEstimate(cv_mean, cv_err, tau, len(energies), burn_in)
    return u, cv


def estimate_correlator(
    model: WegnerModel,
    e,
    m,
    beta: float,
    sweeps: int,
    rng: np.random.Generator,
    burn_in: Optional[int] = None,
) -> McEstimate:
    """Thermal average of the bond product prod_b R_b^m_b."""
    if isinstance(m, BinaryVector):
        if m.n != model.n_bonds:
            raise ValueError("m length mismatch")
    else:
        m = BinaryVector(int(m), model.n_bonds)
    support = np.array(m.support(), dtype=np.intp)
    if burn_in is None:
        burn_in = _default_burn_in(model, e, beta, rng)
    sampler = MetropolisSampler(model, e, beta, rng)
    for _ in range(burn_in):
        sampler.sweep()
    samples = sampler.run(sweeps, observable=lambda s: s.bond_product(support))[:, 1]
    mean, err = blocked_estimate(samples)
    return McEstimate(mean, err, autocorr_time(samples), sweeps, burn_in)


def tempered_chains(
    model: WegnerModel,
    e,
    betas: Sequence[float],
    sweeps: int,
    rng: np.random.Generator,
    swap_every: int = 1,
) -> np.ndarray:
    """Replica-exchange ladder; returns energies (sweeps, n_replicas).

    Optional machinery for strongly disordered runs; the default estimators
    do not use it.
    """
    replicas = [MetropolisSampler(model, e, b, rng) for b in betas]
    energies = np.empty((sweeps, len(replicas)))
    for i in range(sweeps):
        for rep in replicas:
            rep.sweep()
        if swap_every and i % swap_every == 0:
            for j in range(len(replicas) - 1):
                a, b = replicas[j], replicas[j + 1]
                delta = (a.beta - b.beta) * (a.energy() - b.energy())
                if delta >= 0 or rng.random() < math.exp(delta):
                    a.spins, b.spins = b.spins, a.spins
                    a.sat, b.sat = b.sat, a.sat
        energies[i] = [rep.energy() for rep in replicas]
    return energies


def nishimori_identity_check(
    code,
    sector,
    m,
    p: float,
    betas: Sequence[float],
    rng: Optional[np.random.Generator] = None,
    n_disorder: int = 400,
    mode: str = "mc",
) -> dict:
    """Disorder-averaged correlator identities around the matched temperature.

    For each beta, estimates A = [Q_tot^m(e; beta)] and the product average
    [Q_tot^m(e; beta) Q_tot^m(e; beta_p)], whose equality is the gauge
    identity; also reports the margin of [Q(beta)]^2 <= [Q(beta_p)].

    mode "exact": exhaustive disorder sum (small sectors only).
    mode "mc": disorder sampled from the error model; correlators are still
    evaluated exactly per sample.
    """
    from .decoder import nishimori_beta, sample_bits

    beta_p = nishimori_beta(p)
    view = code.sector(sector)
    nb = view.n_bonds
    m = m if isinstance(m, BinaryVector) else BinaryVector(int(m), nb)

    def q_at(e, beta):
        return correlator_tot(code, sector, e, m, beta)

    report = {"p": p, "beta_p": beta_p, "mode": mode, "results": []}
    if mode == "exact":
        errors = [BinaryVector(bits, nb) for bits in range(1 << nb)]
        weights = np.array(
            [p**e.weight() * (1 - p) ** (nb - e.weight()) for e in errors]
        )
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        errors = [sample_bits(p, nb, rng) for _ in range(n_disorder)]
        weights = np.full(len(errors), 1.0 / len(errors))

    q_ref = np.array([q_at(e, beta_p) for e in errors])
    for beta in betas:
        q_b = q_ref if beta == beta_p else np.array([q_at(e, beta) for e in errors])
        a_mean = float(weights @ q_b)
        ab_mean = float(weights @ (q_b * q_ref))
        ref_mean = float(weights @ q_ref)
        entry = {
            "beta": beta,
            "avg_q": a_mean,
            "avg_q_qp": ab_mean,
            "identity_residual": a_mean - ab_mean,
            "inequality_margin": ref_mean - a_mean**2,
        }
        if mode == "mc":
            diff = q_b - q_b * q_ref
            entry["identity_stderr"] = float(diff.std(ddof=1) / math.sqrt(len(errors)))
            ineq = q_ref - a_mean * q_b * 2 + a_mean**2  # linearized variance proxy
            entry["inequality_stderr"] = float(ineq.std(ddof=1) / math.sqrt(len(errors)))
        report["results"].append(entry)
    return report
