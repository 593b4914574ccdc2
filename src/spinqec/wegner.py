"""Disordered multi-spin Ising models: exact partition and correlation values.

A model is an incidence matrix Theta (rows = spins, columns = bonds) with
positive per-bond couplings.  Bond b takes the value R_b = prod_r S_r^Theta_rb
and the normalized partition/correlation function is

    Z[e, m](Theta; K) = 2^{-N_g} sum_S prod_b R_b^m_b exp(K_b (-1)^e_b R_b)
                                             / (2 cosh K_b)

with electric disorder e, magnetic insertion m, and N_g = rows - rank(Theta).
Every bond factor is < 1, so sums are accumulated in log domain throughout.

Two exact evaluators are provided: a direct sum over all 2^N_s spin
configurations (any couplings, any m), one blocked loop that also serves
both correlators (numerator and denominator in one pass) and the thermal
statistics, and a weight-enumerator sum over the 2^rank distinct bond
patterns (uniform couplings, m = 0), the fast path used by decoding.  Their
agreement is a tested invariant.  Each sector view builds its two spin
models once, on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gf2
from .gf2 import (
    BinaryMatrix,
    BinaryVector,
    BudgetExceededError,
    CosetTable,
    row_basis,
)

LOG2 = math.log(2.0)
#: coupling with sinh(2*beta) = 1, fixed by the duality transformation
BETA_SELF_DUAL = 0.5 * math.log(1.0 + math.sqrt(2.0))

_BLOCK_LOG2 = 16


class WegnerModel:
    """Incidence matrix plus read-only per-bond couplings J_b > 0 (K_b = beta * J_b)."""

    def __init__(self, theta: BinaryMatrix, couplings=None):
        self.theta = theta
        self.n_spins = theta.rows
        self.n_bonds = theta.cols
        if couplings is None:
            couplings = np.ones(self.n_bonds)
        self.couplings = np.array(couplings, dtype=np.float64)
        if self.couplings.shape != (self.n_bonds,):
            raise ValueError("couplings must have one entry per bond")
        if np.any(self.couplings <= 0):
            raise ValueError("couplings must be positive")
        self.couplings.flags.writeable = False
        self._theta_arr = None
        self._table = None

    @functools.cached_property
    def theta_basis(self) -> BinaryMatrix:
        return row_basis(self.theta)

    @property
    def rank(self) -> int:
        return self.theta_basis.rows

    @property
    def n_gauge(self) -> int:
        return self.n_spins - self.rank

    @property
    def uniform(self) -> bool:
        return bool(np.all(self.couplings == self.couplings[0]))

    def theta_array(self) -> np.ndarray:
        if self._theta_arr is None:
            self._theta_arr = self.theta.to_array()
        return self._theta_arr

    def coset_table(self, budget_log2: int = 24) -> CosetTable:
        """Weight table of span(Theta), built once; the budget is checked on every call."""
        # an over-budget call raises in the constructor, before it allocates
        if self._table is None or self.rank > budget_log2:
            self._table = CosetTable(
                list(self.theta_basis.row_bits), self.n_bonds, max_log2=budget_log2
            )
        return self._table

    def __repr__(self):
        return f"WegnerModel(spins={self.n_spins}, bonds={self.n_bonds}, N_g={self.n_gauge})"


@dataclass
class PartitionValue:
    """log |Z| and sign; sign can differ from +1 only when m != 0."""

    log_value: float
    sign: int = 1

    @property
    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_value)

    def ratio(self, other: "PartitionValue") -> float:
        """self / other as a plain float."""
        if self.sign == 0:
            return 0.0
        return self.sign * other.sign * math.exp(self.log_value - other.log_value)


def _as_vector(e, n_bonds: int, name: str) -> BinaryVector:
    if isinstance(e, BinaryVector):
        if e.n != n_bonds:
            raise ValueError(f"{name} has length {e.n}, expected {n_bonds}")
        return e
    return BinaryVector(int(e), n_bonds)


def _spin_sums(model: WegnerModel, e: BinaryVector, beta: float, m=None, thermal=False):
    """The blocked log-domain sum over all 2^N_s spin configurations.

    A configuration with bond values R has frustration g = R + e and
    exponent sum_b K_b (1 - 2 g_b).  Weights are taken relative to the
    running maximum exponent ``top``, and every sum is rescaled when it
    grows.  Returns (top, sums): sums[0] is the sum of all weights; for a
    nonzero m, sums[1] and sums[2] are the sums over the configurations
    with bond product +1 and -1 over m; with ``thermal``, the last three
    are the weighted sums of the energy H = sum_b J_b (2 g_b - 1), of H^2
    and of g per bond.
    """
    j_arr = model.couplings
    jsum = float(j_arr.sum())
    k_arr = beta * j_arr
    ksum = float(k_arr.sum())
    theta_arr = model.theta_array()
    e_arr = e.to_array()
    m_idx = np.array(m.support(), dtype=np.intp) if m is not None and m.bits else None
    sums = [0.0] if m_idx is None else [0.0, 0.0, 0.0]
    if thermal:
        sums += [0.0, 0.0, np.zeros(model.n_bonds)]

    ns = model.n_spins
    total = 1 << ns
    block = 1 << min(_BLOCK_LOG2, ns)
    shifts = np.arange(ns, dtype=np.uint32)
    top = -np.inf
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.uint32)
        x = ((idx[:, None] >> shifts) & 1).astype(np.uint8)
        t = (x @ theta_arr) & 1
        g = t ^ e_arr
        expo = ksum - 2.0 * (g @ k_arr)
        bmax = float(expo.max())
        if bmax > top:
            scale = math.exp(top - bmax) if top > -np.inf else 0.0
            sums = [s * scale for s in sums]
            top = bmax
        w = np.exp(expo - top)
        terms = [float(w.sum())]
        if m_idx is not None:
            odd = (t[:, m_idx].sum(axis=1, dtype=np.int64) & 1).astype(bool)
            terms += [float(w[~odd].sum()), float(w[odd].sum())]
        if thermal:
            energy = 2.0 * (g @ j_arr) - jsum
            terms += [float(w @ energy), float(w @ energy**2), w @ g]
        sums = [s + d for s, d in zip(sums, terms)]
    return top, sums


def _spin_values(model: WegnerModel, e, beta: float, m, spin_budget: int):
    """(Z[e, m], Z[e, 0]) from one spin pass; equal when m is None or zero."""
    if model.n_spins > spin_budget:
        raise BudgetExceededError(
            f"{model.n_spins} spins exceed the enumeration budget {spin_budget}; "
            "eval_coset_enum covers m = 0 with uniform couplings"
        )
    if beta <= 0:
        raise ValueError("beta must be positive")
    e = _as_vector(e, model.n_bonds, "e")
    if m is not None:
        m = _as_vector(m, model.n_bonds, "m")
    log_norm = float(np.sum(np.log(2.0 * np.cosh(beta * model.couplings))))
    log_norm += model.n_gauge * LOG2
    top, sums = _spin_sums(model, e, beta, m)

    def value(net: float) -> PartitionValue:
        if net == 0.0:
            return PartitionValue(-np.inf, 0)
        return PartitionValue(top + math.log(abs(net)) - log_norm, 1 if net > 0 else -1)

    den = value(sums[0])
    return (den if len(sums) == 1 else value(sums[1] - sums[2])), den


def eval_spin_enum(
    model: WegnerModel,
    e,
    beta: float,
    m=None,
    spin_budget: int = 26,
) -> PartitionValue:
    """Partition/correlation value by direct sum over all spin configurations.

    Supports non-uniform couplings and magnetic insertions m (sign-carrying
    sums).  Exact; cost 2^N_s.
    """
    return _spin_values(model, e, beta, m, spin_budget)[0]


@functools.lru_cache(maxsize=8)
def _weight_log_probs(n_bonds: int, width: int, beta: float) -> np.ndarray:
    """log(p'^w (1-p')^(n_bonds - w)) for w in [0, width); shared, read-only.

    p' = 1 / (1 + e^{2 beta}) is the bond-flip weight.
    """
    a = np.logaddexp(0.0, 2.0 * beta)  # log(1 + e^{2 beta}) = -log p'
    w = np.arange(width, dtype=np.float64)
    base = w * -a + (n_bonds - w) * (2.0 * beta - a)
    base.flags.writeable = False
    return base


def _log_z_from_hists(hists: np.ndarray, n_bonds: int, beta: float) -> np.ndarray:
    """Log of sum_w N(w) p'^w (1-p')^(n_bonds - w) per histogram row."""
    hists = np.atleast_2d(hists)
    base = _weight_log_probs(n_bonds, hists.shape[1], beta)
    terms = np.log(np.maximum(hists, 1)) + base
    terms[hists == 0] = -np.inf
    mx = terms.max(axis=1)
    return mx + np.log(np.exp(terms - mx[:, None]).sum(axis=1))


def eval_coset_enum(
    model: WegnerModel,
    e,
    beta: float,
    budget_log2: int = 24,
) -> PartitionValue:
    """Partition value (m = 0) as a sum over distinct bond patterns.

    Each of the 2^rank patterns t in the row space of Theta contributes
    p'^w (1-p')^(N_b - w) with w = wgt(e + t); the 2^N_g-fold spin degeneracy
    cancels the 1/2^N_g prefactor exactly.  Requires uniform couplings.
    """
    if not model.uniform:
        raise ValueError("coset enumeration requires uniform couplings")
    if beta <= 0:
        raise ValueError("beta must be positive")
    e = _as_vector(e, model.n_bonds, "e")
    k = beta * float(model.couplings[0])
    table = model.coset_table(budget_log2)
    hist = table.class_histograms(e.bits)
    return PartitionValue(float(_log_z_from_hists(hist, model.n_bonds, k)[0]))


# -- sector-resolved class partition functions --------------------------------


def sector_model(code, sector) -> WegnerModel:
    """Degeneracy-group spin model of one sector (Theta = sector generators), built once."""
    view = code.sector(sector)
    if view._sector_model is None:
        model = WegnerModel(view.theta)
        model.theta_basis = view.theta_basis  # the view has eliminated theta already
        view._sector_model = model
    return view._sector_model


def tot_model(code, sector) -> WegnerModel:
    """Zero-syndrome-space model (Theta = exact dual of the syndrome matrix), built once."""
    view = code.sector(sector)
    if view._tot_model is None:
        view._tot_model = WegnerModel(view.tot_matrix)
    return view._tot_model


class Evaluation:
    """One evaluation of a sector: the class values at (disorder, beta,
    budget) and what callers derive from them.

    ``values`` is the read-only array of ``class_log_values``.  The derived
    fields are computed on first use, each by the same calls as on its own:
    ``dominant`` is ``dominant_class`` of the values, ``log_ztot`` is
    ``log_sum_exp`` of them and ``weights`` the read-only class
    probabilities exp(values - max) / sum.
    """

    def __init__(self, view, key: tuple, values: np.ndarray):
        self.key = key
        self.values = values
        self._view = view

    @functools.cached_property
    def dominant(self) -> tuple[int, tuple]:
        return dominant_class(self._view, self.values, self.key[2])

    @functools.cached_property
    def log_ztot(self) -> float:
        return log_sum_exp(self.values)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        weights = np.exp(self.values - self.values.max())
        weights /= weights.sum()
        weights.flags.writeable = False
        return weights


def class_log_values(code, sector, e, beta: float, budget_log2: int = 24) -> np.ndarray:
    """log Z_c(e; beta) for every logical class label c in [0, 2^k).

    One enumeration of ker(syndrome matrix) = span(degeneracy group,
    logical basis) yields all class values; label bits are the logical
    basis coefficients.

    The returned array is shared and read-only: the sector view keeps the
    ``Evaluation`` of the last (e, beta, budget_log2) it evaluated, and a
    repeated call returns the same array without a new enumeration.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    view = code.sector(sector)
    e = _as_vector(e, view.n_bonds, "e")
    key = (e.bits, float(beta), budget_log2)
    if view._evaluation is not None and view._evaluation.key == key:
        return view._evaluation.values
    table = view.coset_table(budget_log2)
    vals = _log_z_from_hists(table.class_histograms(e.bits), view.n_bonds, beta)
    vals.flags.writeable = False
    view._evaluation = Evaluation(view, key, vals)
    return vals


def evaluation(code, sector, e, beta: float, budget_log2: int = 24) -> Evaluation:
    """The ``Evaluation`` of (e, beta, budget_log2), through ``class_log_values``."""
    class_log_values(code, sector, e, beta, budget_log2)
    return code.sector(sector)._evaluation


def z0(code, sector, e, beta: float, budget_log2: int = 24) -> PartitionValue:
    """Z_0(e; beta): partition function of the sector model at disorder e."""
    return eval_coset_enum(sector_model(code, sector), e, beta, budget_log2)


def zc(code, sector, e, c, beta: float, budget_log2: int = 24) -> PartitionValue:
    """Z_c(e; beta) = Z_0(e + c; beta) for a codeword (zero-syndrome) c."""
    view = code.sector(sector)
    e = _as_vector(e, view.n_bonds, "e")
    c = _as_vector(c, view.n_bonds, "c")
    return z0(code, sector, e ^ c, beta, budget_log2)


def log_sum_exp(vals: np.ndarray) -> float:
    """log sum_c exp(vals_c), shifted by the largest value."""
    mx = float(vals.max())
    return mx + math.log(float(np.exp(vals - mx).sum()))


def ztot(code, sector, e, beta: float, budget_log2: int = 24) -> PartitionValue:
    """Z_tot(s; beta) = sum over classes of Z_c; e is any error with syndrome s."""
    return PartitionValue(evaluation(code, sector, e, beta, budget_log2).log_ztot)


def ztot_dual_route(code, sector, e, beta: float, budget_log2: int = 24) -> PartitionValue:
    """Z_tot evaluated directly on the dual (zero-syndrome-space) model."""
    return eval_coset_enum(tot_model(code, sector), e, beta, budget_log2)


def dominant_class(view, vals: np.ndarray, budget_log2: int = 24) -> tuple[int, tuple]:
    """(label, ties): the class with the largest value in ``vals``.

    Exact ties are broken by the lexicographically smallest minimum-weight
    class representative; ``ties`` lists the tied labels, and is empty when
    the maximum is unique.
    """
    ties = (vals == vals.max()).nonzero()[0].tolist()
    if len(ties) == 1:
        return ties[0], ()
    label, rep = ties[0], view.representative(ties[0], budget_log2)
    for other in ties[1:]:
        cand = view.representative(other, budget_log2)
        if cand.lex_less(rep):
            label, rep = other, cand
    return label, tuple(ties)


def zmax(code, sector, e, beta: float, budget_log2: int = 24):
    """(Z_max, label of c_max): the dominant class at disorder e.

    Exact log-value ties are broken as in ``dominant_class``.
    """
    ev = evaluation(code, sector, e, beta, budget_log2)
    label, _ = ev.dominant
    return PartitionValue(float(ev.values[label])), label


# -- duality -------------------------------------------------------------------


def dual_model(model: WegnerModel, beta: float = 1.0) -> WegnerModel:
    """Dual model under the coupling map tanh K = exp(-2 K*).

    The returned model's couplings are the absolute dual couplings K*, so
    it should be evaluated at beta = 1.
    """
    k = beta * model.couplings
    if np.any(k <= 0):
        raise ValueError("dual coupling undefined for K_b = 0")
    k_star = -0.5 * np.log(np.tanh(k))
    return WegnerModel(gf2.exact_dual(model.theta), couplings=k_star)


def duality_sides(model: WegnerModel, e, beta: float, spin_budget: int = 26):
    """Both sides of the duality identity as (log_lhs, log_rhs, signs).

    lhs: 2^((N_g - N_s)/2) Z[e, 0](Theta, K) / prod_b sqrt(tanh^2 K_b + 1)
    rhs: the dual model with e moved to the magnetic sector.
    """
    e = _as_vector(e, model.n_bonds, "e")
    k = beta * model.couplings
    lhs_pv = eval_spin_enum(model, e, beta, spin_budget=spin_budget)
    lhs = (
        0.5 * (model.n_gauge - model.n_spins) * LOG2
        + lhs_pv.log_value
        - 0.5 * float(np.sum(np.log(np.tanh(k) ** 2 + 1.0)))
    )
    dm = dual_model(model, beta)
    rhs_pv = eval_spin_enum(dm, BinaryVector(0, dm.n_bonds), 1.0, m=e, spin_budget=spin_budget)
    rhs = (
        0.5 * (dm.n_gauge - dm.n_spins) * LOG2
        + rhs_pv.log_value
        - 0.5 * float(np.sum(np.log(np.tanh(dm.couplings) ** 2 + 1.0)))
    )
    return lhs, rhs, lhs_pv.sign, rhs_pv.sign


# -- correlation functions -------------------------------------------------------


def correlator_tot(code, sector, e, m, beta: float, spin_budget: int = 26) -> float:
    """Q_tot^m(e; beta) = Z[e, m](dual model) / Z[e, 0](dual model)."""
    num, den = _spin_values(tot_model(code, sector), e, beta, m, spin_budget)
    return num.ratio(den)


def correlator_c(code, sector, e, c, m, beta: float, spin_budget: int = 26) -> float:
    """Q_c^m(e; beta) = Z[e+c, m](sector model) / Z[e+c, 0](sector model)."""
    view = code.sector(sector)
    shifted = _as_vector(e, view.n_bonds, "e") ^ _as_vector(c, view.n_bonds, "c")
    num, den = _spin_values(sector_model(code, sector), shifted, beta, m, spin_budget)
    return num.ratio(den)


# -- exact thermal statistics (oracle for Monte Carlo) ---------------------------


@dataclass
class ThermalStats:
    """Exact thermal averages for H = -sum_b J_b (-1)^e_b R_b."""

    mean_energy: float
    mean_energy_sq: float
    bond_sat: np.ndarray  # <(-1)^e_b R_b> per bond

    @property
    def var_energy(self) -> float:
        return self.mean_energy_sq - self.mean_energy**2

    def specific_heat(self, beta: float) -> float:
        return beta**2 * self.var_energy


def exact_thermal_stats(model: WegnerModel, e, beta: float, spin_budget: int = 22) -> ThermalStats:
    """Boltzmann averages by full spin enumeration (small models only)."""
    if model.n_spins > spin_budget:
        raise BudgetExceededError("model too large for exact thermal statistics")
    e = _as_vector(e, model.n_bonds, "e")
    _, (z, e_sum, e2_sum, g_sum) = _spin_sums(model, e, beta, thermal=True)
    return ThermalStats(e_sum / z, e2_sum / z, 1.0 - 2.0 * (g_sum / z))
