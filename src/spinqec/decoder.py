"""Error-model sampling and exact maximum-likelihood decoding.

ML decoding evaluates every logical class partition function Z_c at the
requested temperature and picks the dominant class.  The conditional
success probability Z_max / Z_tot and per-class log values are returned
alongside the decision, so threshold scans and the probability-ratio
diagnostics share one code path.

A sector with at most ``MEMO_SYNDROMES`` reachable syndromes keeps each
decision it makes, per temperature, for its ``MEMO_BETAS`` most recently
used temperatures: a syndrome seen before at the same beta is looked up,
a new one is enumerated once.  Larger sectors enumerate one coset table
scan per syndrome.

Trials are reproducible: each (code, p, trial) triple derives its own
generator from the master seed by spawn keys, so results do not depend on
execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .gf2 import BinaryVector
from .wegner import evaluation

#: sectors with at most this many reachable syndromes keep their decisions
MEMO_SYNDROMES = 1 << 10
#: temperatures a sector keeps decisions for, the least recently used dropped
MEMO_BETAS = 16


@dataclass(frozen=True)
class ErrorModel:
    """Independent bit and phase flips, each with probability p."""

    p: float

    def __post_init__(self):
        if not 0 <= self.p <= 0.5:
            raise ValueError("p must lie in [0, 1/2]")

    @property
    def p_identity(self) -> float:
        return (1 - self.p) ** 2

    @property
    def p_x(self) -> float:
        return self.p * (1 - self.p)

    @property
    def p_z(self) -> float:
        return self.p * (1 - self.p)

    @property
    def p_y(self) -> float:
        return self.p**2


def nishimori_beta(p: float) -> float:
    """Temperature matching the error model: exp(-2 beta_p) = p / (1 - p)."""
    if not 0 < p < 0.5:
        raise ValueError("p must lie in (0, 1/2)")
    return 0.5 * math.log((1 - p) / p)


def _matched_beta(p: float) -> float:
    """beta_p for a run given no beta; rejects p where it is not finite and positive."""
    if not 0 < p < 0.5:
        raise ValueError(
            f"no Nishimori temperature at p = {p}: beta_p is infinite at p = 0 "
            "and zero at p = 1/2; pass beta explicitly"
        )
    return nishimori_beta(p)


def sample_bits(p: float, nbits: int, rng: np.random.Generator) -> BinaryVector:
    """nbits independent Bernoulli(p) bits as a packed vector."""
    mask = np.packbits(rng.random(nbits) < p, bitorder="little")
    return BinaryVector(int.from_bytes(mask.tobytes(), "little"), nbits)


def sample_error(model: ErrorModel, n: int, rng: np.random.Generator) -> BinaryVector:
    """Length-2n Pauli error (v|u) with each bit set with probability p."""
    return sample_bits(model.p, 2 * n, rng)


@dataclass
class DecodeOutcome:
    """ML decision for one syndrome at one temperature."""

    syndrome: BinaryVector
    label: int
    log_z: np.ndarray
    log_z_max: float
    log_z_tot: float
    ties: tuple = ()
    success: Optional[bool] = None
    e_s: Optional[BinaryVector] = None  # the error solved for the syndrome

    @property
    def p_succ_conditional(self) -> float:
        return math.exp(self.log_z_max - self.log_z_tot)


def ml_decode(code, sector, s: BinaryVector, beta: float, budget_log2: int = 24) -> DecodeOutcome:
    """Decode a syndrome: argmax-class of Z_c(e_s; beta) over all classes.

    Exact log-value ties are broken by the lexicographically smallest
    minimum-weight class representative and reported in ``ties``.  A
    decision the sector keeps (see ``_decisions``) is returned without a
    new enumeration.
    """
    view = code.sector(sector)
    memo = _decisions(view, beta, budget_log2)
    entry = None
    if memo is not None and s.n == view.syn_matrix.rows:
        entry = memo.get(s.bits)
    if entry is None:  # not kept: solving raises on a bad syndrome
        e_s = view.solve_syndrome(s)
        ev = evaluation(code, sector, e_s, beta, budget_log2)
        label, ties = ev.dominant
        entry = (e_s, ev.values, label, ties, float(ev.values[label]), ev.log_ztot)
        if memo is not None:
            memo[s.bits] = entry
    e_s, vals, label, ties, log_z_max, log_z_tot = entry
    return DecodeOutcome(s, label, vals, log_z_max, log_z_tot, ties, e_s=e_s)


def _decisions(view, beta: float, budget_log2: int) -> Optional[dict]:
    """The view's decisions at beta, syndrome bits -> (e_s, log_z, label,
    ties, log_z_max, log_z_tot), or None when the view keeps none.

    Only a view with at most ``MEMO_SYNDROMES`` reachable syndromes keeps
    decisions, and only while the enumeration budget admits its coset table
    and beta > 0 (otherwise the enumeration raises, as it must, and no kept
    temperature is dropped for it).  Every admitted budget
    gives the same decisions, so they are keyed on beta alone; the view
    holds ``MEMO_BETAS`` temperatures and drops the least recently used.
    The log values are the read-only arrays of ``class_log_values``.
    """
    if view.n_syndromes > MEMO_SYNDROMES or view.rank_theta + view.k > budget_log2:
        return None
    memos = view._decisions
    key = float(beta)
    memo = memos.pop(key, None)
    if memo is None:
        if key <= 0:
            return None
        memo = {}
        if len(memos) >= MEMO_BETAS:
            del memos[next(iter(memos))]
    memos[key] = memo  # dicts keep insertion order: the last is the newest
    return memo


def decode_error(code, sector, e: BinaryVector, beta: float, budget_log2: int = 24) -> DecodeOutcome:
    """Decode the syndrome of a known error and score the decision against it."""
    view = code.sector(sector)
    out = ml_decode(code, sector, view.syndrome(e), beta, budget_log2)
    out.success = out.label == view.class_label(e ^ out.e_s)
    return out


@dataclass
class PsuccEstimate:
    """Monte Carlo success estimates with binomial standard errors."""

    p: float
    beta: float
    trials: int
    mean_success: float
    stderr_success: float
    mean_ratio: float
    stderr_ratio: float


def _trial_rng(seed: int, code_idx: int, p_idx: int, trial: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(code_idx, p_idx, trial))
    return np.random.default_rng(ss)


def _decode_sectors(code, sector, e_full, beta, budget_log2):
    """Decode the requested sector(s); returns (success, ratio, details)."""
    if sector == "both":
        n = code.n
        mask = (1 << n) - 1
        parts = {
            "X": BinaryVector(e_full.bits & mask, n),
            "Z": BinaryVector(e_full.bits >> n, n),
        }
        outs = {}
        ok = True
        log_ratio = 0.0
        for name, e_part in parts.items():
            out = decode_error(code, name, e_part, beta, budget_log2)
            outs[name] = out
            ok = ok and out.success
            log_ratio += out.log_z_max - out.log_z_tot
        return ok, math.exp(log_ratio), outs
    out = decode_error(code, sector, e_full, beta, budget_log2)
    return out.success, out.p_succ_conditional, {sector: out}


def _sector_bits(code, sector) -> int:
    if sector == "both" or sector is None:
        return 2 * code.n
    return code.n


def estimate_psucc(
    code,
    sector,
    p: float,
    trials: int,
    seed: int = 0,
    beta: Optional[float] = None,
    budget_log2: int = 24,
    sink: Optional[Callable[[dict], None]] = None,
    code_idx: int = 0,
    p_idx: int = 0,
) -> PsuccEstimate:
    """Monte Carlo average of the ML success indicator and of Z_max / Z_tot.

    ``sector`` is "X"/"Z"/None for a single decoding problem or "both" to
    decode the two CSS sectors independently (success = both correct).
    Without ``beta`` the decoder runs at beta_p, which needs 0 < p < 1/2.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if beta is None:
        beta = _matched_beta(p)
    nbits = _sector_bits(code, sector)
    succ = np.empty(trials)
    ratios = np.empty(trials)
    for t in range(trials):
        rng = _trial_rng(seed, code_idx, p_idx, t)
        e = sample_bits(p, nbits, rng)
        ok, ratio, outs = _decode_sectors(code, sector, e, beta, budget_log2)
        succ[t] = 1.0 if ok else 0.0
        ratios[t] = ratio
        if sink is not None:
            for name, out in outs.items():
                sink(
                    {
                        "seed": seed,
                        "trial": t,
                        "p": p,
                        "beta": beta,
                        "code": code.metadata.get("family", "code"),
                        "n": code.n,
                        "sector": name or "full",
                        "success": int(out.success),
                        "log_zmax": out.log_z_max,
                        "log_ztot": out.log_z_tot,
                    }
                )
    mean = float(succ.mean())
    return PsuccEstimate(
        p=p,
        beta=beta,
        trials=trials,
        mean_success=mean,
        stderr_success=math.sqrt(max(mean * (1 - mean), 1e-12) / trials),
        mean_ratio=float(ratios.mean()),
        stderr_ratio=float(ratios.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
    )


def psucc_exact(code, sector, p: float, budget_log2: int = 24) -> tuple[float, float]:
    """Exact success probability by two independent routes.

    Returns (sum over syndromes of Z_max(s; beta_p),
             exhaustive error-weighted success average); the two are equal
    because class probabilities equal class partition values at beta_p.
    """
    beta = nishimori_beta(p)
    view = code.sector(sector)
    nbits = view.n_bonds
    sum_zmax = 0.0
    decisions = {}
    for s in view.all_syndromes():
        out = ml_decode(code, sector, s, beta, budget_log2)
        decisions[s.bits] = out
        sum_zmax += math.exp(out.log_z_max)
    exhaustive = 0.0
    for bits in range(1 << nbits):
        e = BinaryVector(bits, nbits)
        w = e.weight()
        prob = p**w * (1 - p) ** (nbits - w)
        out = decisions[view.syndrome(e).bits]
        if out.label == view.class_label(e ^ out.e_s):
            exhaustive += prob
    return sum_zmax, exhaustive


@dataclass
class ThresholdScan:
    """Success-probability curves over a p grid for an ordered code family."""

    p_grid: list
    curves: list  # one list of PsuccEstimate per code
    crossings: list  # per adjacent pair, crossing p or None
    estimate: Optional[float]
    spread: Optional[float]
    diagnostic: str = ""


def threshold_scan(
    code_family: Sequence,
    p_grid: Sequence[float],
    trials: int,
    seed: int = 0,
    sector: str = "both",
    beta: Optional[float] = None,
    budget_log2: int = 24,
    sink: Optional[Callable[[dict], None]] = None,
) -> ThresholdScan:
    """P_succ(p) per family member plus a finite-size crossing estimate.

    The crossing of each adjacent size pair is located by linear
    interpolation of the success-curve difference; the reported estimate
    is the median over pairs with the max-min spread as its uncertainty.
    """
    if len(code_family) < 2:
        raise ValueError("need at least two family members to locate a crossing")
    if trials <= 0:
        raise ValueError("trials must be positive")
    if beta is None:
        for p in p_grid:  # the whole grid, before any point is decoded
            _matched_beta(float(p))
    for code in code_family:  # every enumeration budget, before any trial
        for name in ("X", "Z") if sector == "both" else (sector,):
            code.sector(name).coset_table(budget_log2)
    curves = [
        [
            estimate_psucc(
                code, sector, float(p), trials, seed=seed, beta=beta,
                budget_log2=budget_log2, code_idx=ci, p_idx=pi,
            )
            for pi, p in enumerate(p_grid)
        ]
        for ci, code in enumerate(code_family)
    ]
    if sink is not None:
        for ci, curve in enumerate(curves):
            for est in curve:
                sink(
                    {
                        "code_index": ci,
                        "n": code_family[ci].n,
                        "p": est.p,
                        "beta": est.beta,
                        "p_succ": est.mean_success,
                        "stderr": est.stderr_success,
                        "mean_ratio": est.mean_ratio,
                    }
                )

    crossings = []
    for ci in range(len(code_family) - 1):
        diff = [
            curves[ci][pi].mean_success - curves[ci + 1][pi].mean_success
            for pi in range(len(p_grid))
        ]
        crossing = None
        for pi in range(len(p_grid) - 1):
            a, b = diff[pi], diff[pi + 1]
            if a == b == 0:
                continue
            if a <= 0 <= b or b <= 0 <= a:
                span = b - a
                frac = 0.5 if span == 0 else -a / span
                crossing = p_grid[pi] + frac * (p_grid[pi + 1] - p_grid[pi])
                break
        crossings.append(crossing)
    found = [c for c in crossings if c is not None]
    if not found:
        return ThresholdScan(
            list(p_grid), curves, crossings, None, None,
            diagnostic="no curve pair changes sign on the grid",
        )
    found.sort()
    est = found[len(found) // 2]
    return ThresholdScan(
        list(p_grid), curves, crossings, est, max(found) - min(found)
    )
