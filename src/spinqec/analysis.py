"""Defect free energies, tensions, exact bounds, and transition predictions.

All free-energy quantities are computed from exact class partition values
(no Monte Carlo): the bound checks exercised here are sharp statements and
sampling noise would contaminate them.  Class labels are GF(2) coordinates,
so the label of c_max + c is label(c_max) XOR label(c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import wegner
from .decoder import nishimori_beta, sample_bits
from .wegner import BETA_SELF_DUAL, class_log_values, correlator_tot


# -- entropy and transition points ---------------------------------------------


def binary_entropy(p: float) -> float:
    """H2(p) = -p log2 p - (1-p) log2(1-p) for 0 < p < 1."""
    if not 0 < p < 1:
        raise ValueError("binary entropy needs 0 < p < 1")
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _bisect(fn, lo: float, hi: float, tol: float = 1e-13) -> float:
    flo = fn(lo)
    if flo * fn(hi) > 0:
        raise ValueError("root not bracketed")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if fn(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = fn(lo)
    return (lo + hi) / 2


def conjectured_pc() -> float:
    """Root of H2(p) = 1/2 on (0, 1/2): the strong-disorder self-dual point."""
    return _bisect(lambda p: binary_entropy(p) - 0.5, 1e-12, 0.5 - 1e-12)


def shannon_p(rate: float) -> float:
    """Largest p compatible with rate R <= 1 - H2(p), i.e. H2(p) = 1 - R."""
    if not 0 <= rate < 1:
        raise ValueError("rate must lie in [0, 1)")
    if rate == 0:
        return 0.5
    return _bisect(lambda p: binary_entropy(p) - (1 - rate), 1e-12, 0.5)


@dataclass
class TransitionPrediction:
    """Reference points for a family's decoding transition."""

    p_conjecture: float
    p_shannon: float
    p_estimate: Optional[float] = None
    p_estimate_spread: Optional[float] = None

    @classmethod
    def for_rate(cls, rate: float, scan=None) -> "TransitionPrediction":
        return cls(
            p_conjecture=conjectured_pc(),
            p_shannon=shannon_p(rate),
            p_estimate=None if scan is None else scan.estimate,
            p_estimate_spread=None if scan is None else scan.spread,
        )


# -- defect free energies ---------------------------------------------------------


def delta_f_max(code, sector, e, c, beta: float, budget_log2: int = 24) -> float:
    """beta^-1 log(Z_max / Z_{c_max + c}); nonnegative by maximality."""
    view = code.sector(sector)
    ev = wegner.evaluation(code, sector, e, beta, budget_log2)
    label_max, _ = ev.dominant
    label_c = view.class_label(wegner._as_vector(c, view.n_bonds, "c"))
    return float(ev.values[label_max] - ev.values[label_max ^ label_c]) / beta


def delta_f_0(code, sector, e, c, beta: float, budget_log2: int = 24) -> float:
    """beta^-1 log(Z_0 / Z_c); may be negative when the trivial class is
    not dominant."""
    view = code.sector(sector)
    vals = class_log_values(code, sector, e, beta, budget_log2)
    label_c = view.class_label(wegner._as_vector(c, view.n_bonds, "c"))
    return float(vals[0] - vals[label_c]) / beta


def syndrome_avg_delta_f(code, sector, s, c, p: float, budget_log2: int = 24) -> float:
    """Average of delta_f_0 over all errors with syndrome s, at beta_p.

    The average weights each class representative b by its conditional
    probability Z_b / Z_tot; the matched temperature makes those weights
    the true error probabilities.
    """
    beta = nishimori_beta(p)
    view = code.sector(sector)
    e_s = view.solve_syndrome(s)
    ev = wegner.evaluation(code, sector, e_s, beta, budget_log2)
    label_c = view.class_label(wegner._as_vector(c, view.n_bonds, "c"))
    vals = ev.values
    deltas = (vals - vals[wegner.class_labels(view.k) ^ label_c]) / beta
    return float(ev.weights @ deltas)


# -- tensions ----------------------------------------------------------------------


@dataclass
class DefectReport:
    """Disorder-averaged defect cost of one logical class."""

    label: int
    d_c: int
    d_exact: bool
    delta_f_mean: float
    delta_f_stderr: float

    @property
    def tension(self) -> float:
        return self.delta_f_mean / self.d_c


@dataclass
class TensionReport:
    """Per-class tensions and the class-averaged rate-inequality margin."""

    scope: str  # "sector" or "full"
    beta: float
    p: float
    rate: float
    n_disorder: int
    reports: list = field(default_factory=list)
    lambda_bar: Optional[float] = None
    lambda_bar_stderr: Optional[float] = None

    @property
    def margin(self) -> Optional[float]:
        if self.lambda_bar is None:
            return None
        return self.beta * self.lambda_bar - self.rate * math.log(2)

    @property
    def margin_sigma(self) -> Optional[float]:
        if self.lambda_bar_stderr is None:
            return None
        return self.beta * self.lambda_bar_stderr


def tension_report(
    code,
    sector,
    p: float,
    beta: Optional[float] = None,
    n_disorder: int = 100,
    seed: int = 0,
    budget_log2: int = 24,
) -> TensionReport:
    """Disorder-averaged tension lambda_c per class plus the class average.

    Empty report for k = 0 families (no defects to price).  Needs
    n_disorder >= 2: the standard errors take a ddof=1 standard deviation
    over the disorder samples.
    """
    if n_disorder < 2:
        raise ValueError(f"tension_report needs n_disorder >= 2, got {n_disorder}")
    if beta is None:
        beta = nishimori_beta(p)
    view = code.sector(sector)
    scope = "full" if sector is None else "sector"
    report = TensionReport(
        scope=scope, beta=beta, p=p, rate=code.k / code.n, n_disorder=n_disorder
    )
    if view.k == 0:
        return report
    view.coset_table(budget_log2)  # raises BudgetExceededError before any work
    n_classes = 1 << view.k
    d_c = {}
    d_exact = {}
    for label in range(1, n_classes):
        d_c[label], d_exact[label] = view.class_distance(label, budget_log2)
    rng = np.random.default_rng(seed)
    per_sample = np.empty((n_disorder, n_classes - 1))
    labels = wegner.class_labels(view.k)
    for i in range(n_disorder):
        e = sample_bits(p, view.n_bonds, rng)
        ev = wegner.evaluation(code, sector, e, beta, budget_log2)
        label_max, _ = ev.dominant
        deltas = (ev.values[label_max] - ev.values[label_max ^ labels]) / beta
        per_sample[i] = deltas[1:]
    d_arr = np.array([d_c[l] for l in range(1, n_classes)], dtype=float)
    for idx, label in enumerate(range(1, n_classes)):
        mean = float(per_sample[:, idx].mean())
        err = float(per_sample[:, idx].std(ddof=1) / math.sqrt(n_disorder))
        report.reports.append(
            DefectReport(label, d_c[label], d_exact[label], mean, err)
        )
    lam_samples = (per_sample / d_arr).mean(axis=1)
    report.lambda_bar = float(lam_samples.mean())
    report.lambda_bar_stderr = float(lam_samples.std(ddof=1) / math.sqrt(n_disorder))
    return report


# -- clean self-duality --------------------------------------------------------------


@dataclass
class SelfDualCheck:
    lhs: float
    target: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.target)


def clean_self_dual_check(code, sector=None, budget_log2: int = 24) -> SelfDualCheck:
    """Sum over nonzero classes of exp(-beta_sd DeltaF0_c) at the self-dual
    coupling, against its duality-fixed value.

    Full-code scope (sector None): the target 2^k - 1 is exact for every
    stabilizer code.  Sector scope: the target 2^(k/2) - 1 assumes the two
    sector models map into each other (true for the self-dual-modulo-logical
    families such as the cyclic products).
    """
    view = code.sector(sector)
    vals = class_log_values(code, sector, 0, BETA_SELF_DUAL, budget_log2)
    lhs = math.exp(wegner.log_sum_exp(vals) - vals[0]) - 1.0
    if sector is None:
        target = float(2**code.k - 1)
    else:
        target = float(2 ** (code.k / 2) - 1)
    return SelfDualCheck(lhs, target)


# -- indicator correlation functions ----------------------------------------------


def indicator_signature(
    code, sector, e, beta: float, spin_budget: int = 26
) -> np.ndarray:
    """Q_tot over the indicator (paired dual-basis) insertions.

    In the ordered regime all entries approach (-1)^(c_max . m_j); the sign
    pattern identifies the dominant class.
    """
    view = code.sector(sector)
    return np.array(
        [
            correlator_tot(code, sector, e, view.indicators.row(j), beta, spin_budget)
            for j in range(view.k)
        ]
    )


def infer_class_from_signs(code, sector, q_values: Sequence[float]) -> int:
    """Dominant-class label from the sign pattern of indicator correlators."""
    y = sum(1 << j for j, q in enumerate(q_values) if q < 0)
    return code.sector(sector).label_from_indicators(y)
