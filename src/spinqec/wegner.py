"""Disordered multi-spin Ising models: exact partition and correlation values.

A model is an incidence matrix Theta (rows = spins, columns = bonds) with
positive per-bond couplings.  Bond b takes the value R_b = prod_r S_r^Theta_rb
and the normalized partition/correlation function is

    Z[e, m](Theta; K) = 2^{-N_g} sum_S prod_b R_b^m_b exp(K_b (-1)^e_b R_b)
                                             / (2 cosh K_b)

with electric disorder e, magnetic insertion m, and N_g = rows - rank(Theta).
Every bond factor is < 1, so sums are accumulated in log domain throughout.

Two exact evaluators are provided: a direct sum over all 2^N_s spin
configurations (any couplings, any m) and a weight-enumerator sum over the
2^rank distinct bond patterns (uniform couplings, m = 0), which is the fast
path used by decoding.  Their agreement is a tested invariant.
"""

from __future__ import annotations

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
    """Incidence matrix plus per-bond couplings J_b > 0 (K_b = beta * J_b)."""

    def __init__(self, theta: BinaryMatrix, couplings=None):
        self.theta = theta
        self.n_spins = theta.rows
        self.n_bonds = theta.cols
        if couplings is None:
            couplings = np.ones(self.n_bonds)
        self.couplings = np.asarray(couplings, dtype=np.float64)
        if self.couplings.shape != (self.n_bonds,):
            raise ValueError("couplings must have one entry per bond")
        if np.any(self.couplings <= 0):
            raise ValueError("couplings must be positive")
        self.theta_basis = row_basis(theta)
        self.rank = self.theta_basis.rows
        self.n_gauge = self.n_spins - self.rank
        self._theta_arr = None
        self._table = None

    @property
    def uniform(self) -> bool:
        return bool(np.all(self.couplings == self.couplings[0]))

    def theta_array(self) -> np.ndarray:
        if self._theta_arr is None:
            self._theta_arr = self.theta.to_array()
        return self._theta_arr

    def coset_table(self, budget_log2: int = 24) -> CosetTable:
        if self._table is None:
            self._table = CosetTable(
                list(self.theta_basis.row_bits),
                self.n_bonds,
                max_log2=budget_log2,
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
    if model.n_spins > spin_budget:
        raise BudgetExceededError(
            f"{model.n_spins} spins exceed the enumeration budget "
            f"{spin_budget}; use eval_coset_enum for m = 0"
        )
    if beta <= 0:
        raise ValueError("beta must be positive")
    e = _as_vector(e, model.n_bonds, "e")
    k_arr = beta * model.couplings
    ksum = float(k_arr.sum())
    log_norm = float(np.sum(np.log(2.0 * np.cosh(k_arr)))) + model.n_gauge * LOG2
    theta_arr = model.theta_array()
    e_arr = e.to_array()
    m_idx = None
    if m is not None:
        m = _as_vector(m, model.n_bonds, "m")
        m_idx = np.array(m.support(), dtype=np.intp) if m.bits else None

    ns = model.n_spins
    total = 1 << ns
    block = 1 << min(_BLOCK_LOG2, ns)
    shifts = np.arange(ns, dtype=np.uint32)
    running_max = -np.inf
    acc_pos = 0.0
    acc_neg = 0.0
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.uint32)
        x = ((idx[:, None] >> shifts) & 1).astype(np.uint8)
        t = (x @ theta_arr) & 1
        g = t ^ e_arr
        expo = ksum - 2.0 * (g @ k_arr)
        if m_idx is not None:
            neg_mask = (t[:, m_idx].sum(axis=1, dtype=np.int64) & 1).astype(bool)
        else:
            neg_mask = None
        bmax = float(expo.max())
        if bmax > running_max:
            scale = math.exp(running_max - bmax) if running_max > -np.inf else 0.0
            acc_pos *= scale
            acc_neg *= scale
            running_max = bmax
        w = np.exp(expo - running_max)
        if neg_mask is None:
            acc_pos += float(w.sum())
        else:
            acc_neg += float(w[neg_mask].sum())
            acc_pos += float(w[~neg_mask].sum())
    net = acc_pos - acc_neg
    if net == 0.0:
        return PartitionValue(-np.inf, 0)
    sign = 1 if net > 0 else -1
    return PartitionValue(running_max + math.log(abs(net)) - log_norm, sign)


def _log_probs(beta: float, n_bonds: int) -> tuple[float, float]:
    """(log p', log(1 - p')) for the bond-flip weight p' = 1 / (1 + e^{2 beta})."""
    a = np.logaddexp(0.0, 2.0 * beta)  # log(1 + e^{2 beta})
    return -a, 2.0 * beta - a


def _log_z_from_hists(hists: np.ndarray, n_bonds: int, beta: float) -> np.ndarray:
    """Log of sum_w N(w) p'^w (1-p')^(n_bonds - w) per histogram row."""
    hists = np.atleast_2d(hists)
    lp, l1p = _log_probs(beta, n_bonds)
    w = np.arange(hists.shape[1], dtype=np.float64)
    base = w * lp + (n_bonds - w) * l1p
    with np.errstate(divide="ignore"):
        terms = np.where(hists > 0, np.log(np.maximum(hists, 1)) + base, -np.inf)
    mx = terms.max(axis=1)
    out = mx + np.log(np.exp(terms - mx[:, None]).sum(axis=1))
    return out


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
    """Degeneracy-group spin model of one sector (Theta = sector generators)."""
    return WegnerModel(code.sector(sector).theta)


def tot_model(code, sector) -> WegnerModel:
    """Zero-syndrome-space model (Theta = exact dual of the syndrome matrix)."""
    return WegnerModel(code.sector(sector).tot_matrix)


def class_log_values(code, sector, e, beta: float, budget_log2: int = 24) -> np.ndarray:
    """log Z_c(e; beta) for every logical class label c in [0, 2^k).

    One enumeration of ker(syndrome matrix) = span(degeneracy group,
    logical basis) yields all class values; label bits are the logical
    basis coefficients.
    """
    view = code.sector(sector)
    e = _as_vector(e, view.n_bonds, "e")
    table = view.coset_table(budget_log2)
    hists = table.class_histograms(e.bits)
    return _log_z_from_hists(hists, view.n_bonds, beta)


def z0(code, sector, e, beta: float, budget_log2: int = 24) -> PartitionValue:
    """Z_0(e; beta): partition function of the sector model at disorder e."""
    view = code.sector(sector)
    e = _as_vector(e, view.n_bonds, "e")
    return eval_coset_enum(WegnerModel(view.theta), e, beta, budget_log2)


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
    return PartitionValue(log_sum_exp(class_log_values(code, sector, e, beta, budget_log2)))


def ztot_dual_route(code, sector, e, beta: float, budget_log2: int = 24) -> PartitionValue:
    """Z_tot evaluated directly on the dual (zero-syndrome-space) model."""
    view = code.sector(sector)
    e = _as_vector(e, view.n_bonds, "e")
    return eval_coset_enum(WegnerModel(view.tot_matrix), e, beta, budget_log2)


def dominant_class(view, vals: np.ndarray, budget_log2: int = 24) -> tuple[int, tuple]:
    """(label, ties): the class with the largest value in ``vals``.

    Exact ties are broken by the lexicographically smallest minimum-weight
    class representative; ``ties`` lists the tied labels, and is empty when
    the maximum is unique.
    """
    ties = tuple(int(t) for t in np.flatnonzero(vals == vals.max()))
    if len(ties) == 1:
        return ties[0], ()
    label, rep = ties[0], view.representative(ties[0], budget_log2)
    for other in ties[1:]:
        cand = view.representative(other, budget_log2)
        if cand.lex_less(rep):
            label, rep = other, cand
    return label, ties


def zmax(code, sector, e, beta: float, budget_log2: int = 24):
    """(Z_max, label of c_max): the dominant class at disorder e.

    Exact log-value ties are broken as in ``dominant_class``.
    """
    vals = class_log_values(code, sector, e, beta, budget_log2)
    label, _ = dominant_class(code.sector(sector), vals, budget_log2)
    return PartitionValue(float(vals[label])), label


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
    view = code.sector(sector)
    model = WegnerModel(view.tot_matrix)
    e = _as_vector(e, view.n_bonds, "e")
    m = _as_vector(m, view.n_bonds, "m")
    num = eval_spin_enum(model, e, beta, m=m, spin_budget=spin_budget)
    den = eval_spin_enum(model, e, beta, spin_budget=spin_budget)
    return num.ratio(den)


def correlator_c(code, sector, e, c, m, beta: float, spin_budget: int = 26) -> float:
    """Q_c^m(e; beta) = Z[e+c, m](sector model) / Z[e+c, 0](sector model)."""
    view = code.sector(sector)
    model = WegnerModel(view.theta)
    e = _as_vector(e, view.n_bonds, "e")
    c = _as_vector(c, view.n_bonds, "c")
    m = _as_vector(m, view.n_bonds, "m")
    shifted = e ^ c
    num = eval_spin_enum(model, shifted, beta, m=m, spin_budget=spin_budget)
    den = eval_spin_enum(model, shifted, beta, spin_budget=spin_budget)
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
    j_arr = model.couplings
    k_arr = beta * j_arr
    jsum = float(j_arr.sum())
    ksum = float(k_arr.sum())
    theta_arr = model.theta_array()
    e_arr = e.to_array()
    ns = model.n_spins
    total = 1 << ns
    block = 1 << min(_BLOCK_LOG2, ns)
    shifts = np.arange(ns, dtype=np.uint32)

    running_max = -np.inf
    z_acc = 0.0
    e_acc = 0.0
    e2_acc = 0.0
    g_acc = np.zeros(model.n_bonds)
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.uint32)
        x = ((idx[:, None] >> shifts) & 1).astype(np.uint8)
        t = (x @ theta_arr) & 1
        g = t ^ e_arr
        gj = g @ j_arr
        expo = ksum - 2.0 * beta * gj
        energy = 2.0 * gj - jsum
        bmax = float(expo.max())
        if bmax > running_max:
            scale = math.exp(running_max - bmax) if running_max > -np.inf else 0.0
            z_acc *= scale
            e_acc *= scale
            e2_acc *= scale
            g_acc *= scale
            running_max = bmax
        w = np.exp(expo - running_max)
        z_acc += float(w.sum())
        e_acc += float(w @ energy)
        e2_acc += float(w @ energy**2)
        g_acc += w @ g
    mean_e = e_acc / z_acc
    mean_e2 = e2_acc / z_acc
    sat = 1.0 - 2.0 * (g_acc / z_acc)
    return ThermalStats(mean_e, mean_e2, sat)
