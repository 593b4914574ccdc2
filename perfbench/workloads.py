"""The four benchmark workloads.

Each workload is a class with

* ``setup()``: builds codes, sector views, coset tables and anything else a
  user of the package would build once; it runs inside the set-up span;
* ``op(i)``: one timed operation, returning its output; every op does the
  same amount and mix of work, so op times are comparable;
* ``units_per_op``: units of work in one op (for ``work_per_cpu_s``);
* ``digest(out)``: runs after each op, outside its timed region, and
  shrinks the op's output to a small fixed-size record (per-op checks run
  here), so that the memory a run keeps does not grow with the op count;
* ``check(records)``: runs after the timed phase on the digests.  It
  returns ``(failed_ops, problems)``: the indices of ops whose own checks
  failed and a list of pooled checks that failed, as text.

Inputs are drawn from the benchmark's ``--seed`` by the benchmark itself;
the package only receives the generated inputs and per-op seeds.  The
checks compare against computations made apart from the package's own
path (direct spin sums, brute-force minima, exhaustive syndrome tables) or
against properties the method must have.
"""

from __future__ import annotations

import math

import numpy as np

# set by ``load_package`` once the package has been imported, so that the
# import itself can be timed as part of the set-up span
codes = decoder = gf2 = wegner = analysis = montecarlo = None


def load_package():
    global codes, decoder, gf2, wegner, analysis, montecarlo
    from spinqec import analysis, codes, decoder, gf2, montecarlo, wegner  # noqa: F811


LOG2 = math.log(2.0)
P_GRID = (0.08, 0.11, 0.14)


def _op_seed(seed: int, i: int) -> int:
    return seed * 1_000_000 + i


def _stderr(diffs) -> float:
    d = np.asarray(diffs, dtype=float)
    return float(d.std(ddof=1) / math.sqrt(len(d))) if len(d) > 1 else math.inf


def _draw_bits(rng, p: float, n: int) -> int:
    """n independent Bernoulli(p) bits packed into an int, bit j = bond j."""
    return sum(1 << int(j) for j in np.flatnonzero(rng.random(n) < p))


def _bits_array(n: int) -> np.ndarray:
    """(2^n, n) array whose row x holds the bits of x, bit j in column j."""
    idx = np.arange(1 << n, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n)) & 1).astype(np.int64)


def _syndrome_representatives(syn_rows: np.ndarray) -> list[int]:
    """One error per reachable syndrome, from an exhaustive numpy scan."""
    n = syn_rows.shape[1]
    bits = _bits_array(n)
    syn = (bits @ syn_rows.T) & 1
    keys = syn @ (1 << np.arange(syn.shape[1], dtype=np.int64))
    _, first = np.unique(keys, return_index=True)
    return [int(x) for x in first]


def _span_ints(rows) -> list[int]:
    """Every XOR combination of the given rows (with repetition)."""
    out = [0]
    for r in rows:
        out += [x ^ r for x in out]
    return out


def exact_sector_psucc(view, p: float) -> tuple[float, float]:
    """(sum_s max_c Z_c, sum_s sum_c Z_c) at beta_p by direct spin sums.

    Syndrome representatives come from an exhaustive numpy scan of all
    errors and class shifts from XOR combinations of the logical rows, so
    neither coset tables nor the package's syndrome solver are involved.
    """
    beta = 0.5 * math.log((1 - p) / p)
    model = wegner.WegnerModel(view.theta)
    shifts = _span_ints(view.logicals.row_bits)
    reps = _syndrome_representatives(view.syn_matrix.to_array().astype(np.int64))
    best = total = 0.0
    for e in reps:
        zs = [wegner.eval_spin_enum(model, e ^ c, beta).value for c in shifts]
        best += max(zs)
        total += sum(zs)
    return best, total


class DecodeSmall:
    """threshold_scan over toric L = 2, 3, both sectors, p in P_GRID."""

    name = "decode-small"
    sizes = (2, 3)
    trials = 20  # per (L, p) point, so 120 decode trials per op
    records_checked_ops = 4  # ops re-decoded with a per-trial sink
    tail_percentile = 95

    def __init__(self, seed: int):
        self.seed = seed
        self.units_per_op = len(self.sizes) * len(P_GRID) * self.trials

    def setup(self):
        self.family = [codes.toric_code(L) for L in self.sizes]
        for code in self.family:
            for s in ("X", "Z"):
                view = code.sector(s)
                view.coset_table()
                for label in range(1 << view.k):
                    view.representative(label)

    def op(self, i: int):
        scan = decoder.threshold_scan(
            self.family, list(P_GRID), trials=self.trials,
            seed=_op_seed(self.seed, i), sector="both",
        )
        return scan

    def digest(self, scan):
        """(code, p, [p_succ, <Zmax/Ztot>, trials]) array of the scan."""
        return np.array([[(e.mean_success, e.mean_ratio, e.trials) for e in curve]
                         for curve in scan.curves])

    def check(self, records):
        failed = set()
        problems = []
        for i, rec in records.items():
            for ci, code in enumerate(self.family):
                lo = 2.0 ** -(2 * code.sector("Z").k) - 1e-12
                ratio = rec[ci, :, 1]
                if (rec[ci, :, 2] != self.trials).any() or not (
                        (lo <= ratio) & (ratio <= 1 + 1e-12)).all():
                    failed.add(i)
        for i in sorted(records)[: self.records_checked_ops]:
            if not self._records_ok(i, records[i]):
                failed.add(i)
        good = [records[i] for i in sorted(records) if i not in failed]
        if len(good) < 2:
            return failed, ["fewer than two ops left to pool"]
        n_trials = len(good) * self.trials
        for ci, code in enumerate(self.family):
            for pi, p in enumerate(P_GRID):
                succ = np.array([r[ci, pi, 0] for r in good])
                ratio = np.array([r[ci, pi, 1] for r in good])
                gap = float(succ.mean() - ratio.mean())
                sigma = _stderr(succ - ratio)
                if abs(gap) > 4 * sigma:
                    problems.append(
                        f"L={self.sizes[ci]} p={p}: p_succ - <Zmax/Ztot> = "
                        f"{gap:.4g} beyond 4 sigma ({sigma:.3g})")
                px, tx = exact_sector_psucc(code.sector("X"), p)
                pz, tz = exact_sector_psucc(code.sector("Z"), p)
                if abs(tx - 1) > 1e-10 or abs(tz - 1) > 1e-10:
                    problems.append(f"L={self.sizes[ci]} p={p}: sum_s Z_tot != 1")
                exact = px * pz
                sigma = math.sqrt(exact * (1 - exact) / n_trials)
                if abs(succ.mean() - exact) > 4 * sigma:
                    problems.append(
                        f"L={self.sizes[ci]} p={p}: pooled p_succ {succ.mean():.4f} "
                        f"vs exact P_X*P_Z {exact:.4f} beyond 4 sigma ({sigma:.3g})")
        return failed, problems

    def _records_ok(self, i, rec) -> bool:
        """Re-decode op i trial by trial; records must bound correctly and
        reproduce the scan's figures exactly."""
        for ci, code in enumerate(self.family):
            k = code.sector("Z").k
            for pi, p in enumerate(P_GRID):
                rows = []
                est = decoder.estimate_psucc(
                    code, "both", p, self.trials, seed=_op_seed(self.seed, i),
                    sink=rows.append, code_idx=ci, p_idx=pi,
                )
                if (est.mean_success, est.mean_ratio) != tuple(rec[ci, pi, :2]):
                    return False
                if len(rows) != 2 * self.trials or not all(_record_ok(r, k) for r in rows):
                    return False
        return True


def _record_ok(row, k: int) -> bool:
    zmax, ztot = row["log_zmax"], row["log_ztot"]
    return zmax - 1e-12 <= ztot <= zmax + k * LOG2 + 1e-12


class DecodeLarge:
    """estimate_psucc on toric L = 4, both sectors, p = 0.11."""

    name = "decode-large"
    L = 4
    p = 0.11
    trials = 30
    spin_sum_errors = 2  # full errors decoded in both sectors against spin sums
    tail_percentile = 90

    def __init__(self, seed: int):
        self.seed = seed
        self.units_per_op = self.trials

    def setup(self):
        self.code = codes.toric_code(self.L)
        for s in ("X", "Z"):
            view = self.code.sector(s)
            view.coset_table()
            for label in range(1 << view.k):
                view.representative(label)
        self.k = self.code.sector("Z").k

    def op(self, i: int):
        rows = []
        est = decoder.estimate_psucc(
            self.code, "both", self.p, self.trials,
            seed=_op_seed(self.seed, i), sink=rows.append,
        )
        return est, rows

    def digest(self, out):
        """(p_succ, <Zmax/Ztot>, every per-trial record bounds correctly)."""
        est, rows = out
        ok = len(rows) == 2 * self.trials and all(_record_ok(r, self.k) for r in rows)
        return est.mean_success, est.mean_ratio, ok

    def check(self, records):
        failed = {i for i, (_, _, ok) in records.items() if not ok}
        problems = []
        good = [records[i] for i in sorted(records) if i not in failed]
        if len(good) < 2:
            return failed, ["fewer than two ops left to pool"]
        diff = [s - r for s, r, _ in good]
        gap, sigma = float(np.mean(diff)), _stderr(diff)
        if abs(gap) > 4 * sigma:
            problems.append(f"p_succ - <Zmax/Ztot> = {gap:.4g} beyond 4 sigma ({sigma:.3g})")
        problems += self._spin_sum_problems()
        return failed, problems

    def _spin_sum_problems(self):
        rng = np.random.default_rng([self.seed, 7])
        n = self.code.n
        beta = decoder.nishimori_beta(self.p)
        problems = []
        for _ in range(self.spin_sum_errors):
            full = _draw_bits(rng, self.p, 2 * n)
            for s, part in (("X", full & ((1 << n) - 1)), ("Z", full >> n)):
                out = decoder.decode_error(self.code, s, gf2.BinaryVector(part, n), beta)
                problems += _spin_sum_mismatch(self.code, s, out, beta)
        return problems


def _spin_sum_mismatch(code, sector, out, beta):
    """Class values of a DecodeOutcome against direct spin sums."""
    view = code.sector(sector)
    model = wegner.WegnerModel(view.theta)
    e_s = view.solve_syndrome(out.syndrome).bits
    ref = np.array([
        wegner.eval_spin_enum(model, e_s ^ view.class_vector(c).bits, beta).log_value
        for c in range(1 << view.k)
    ])
    problems = []
    err = float(np.abs(ref - out.log_z).max())
    if err > 1e-12:
        problems.append(f"sector {sector}: class log values differ from spin sum by {err:.3g}")
    argmax = set(np.flatnonzero(ref >= ref.max() - 1e-12).tolist())
    if out.label not in argmax:
        problems.append(f"sector {sector}: label {out.label} not in spin-sum argmax {sorted(argmax)}")
    return problems


class ExactBounds:
    """Defect free-energy bounds at every syndrome of Debierre-Turban (3, 3), Z."""

    name = "exact-bounds"
    p_values = (0.05, 0.15)  # op i scans at p_values[i % 2]
    tail_percentile = 60

    def __init__(self, seed: int):
        self.seed = seed  # the inputs are exhaustive; the seed picks nothing

    def setup(self):
        self.code = codes.debierre_turban_code(3, 3)
        self.view = self.code.sector("Z")
        self.view.coset_table()
        self.labels = range(1, 1 << self.view.k)
        self.d_c = {lab: self.view.class_distance(lab)[0] for lab in self.labels}
        self.units_per_op = self.view.n_syndromes * len(self.labels)
        self.two_d = 2.0 * np.tile([self.d_c[lab] for lab in self.labels],
                                   self.view.n_syndromes)

    def op(self, i: int):
        p = self.p_values[i % len(self.p_values)]
        beta = decoder.nishimori_beta(p)
        code, view = self.code, self.view
        log_ztot = []
        bounds = []
        for s in view.all_syndromes():
            e_s = view.solve_syndrome(s)
            log_ztot.append(wegner.ztot(code, "Z", e_s, beta).log_value)
            for lab in self.labels:
                c = view.class_vector(lab)
                bounds.append((
                    analysis.delta_f_max(code, "Z", e_s, c, beta),
                    analysis.delta_f_0(code, "Z", e_s, c, beta),
                    analysis.syndrome_avg_delta_f(code, "Z", s, c, p),
                ))
        return np.array(log_ztot), np.array(bounds)

    def digest(self, out):
        """Whether the scan normalises and every bound holds."""
        log_ztot, b = out
        if len(b) != self.units_per_op:
            return False
        norm = float(np.exp(log_ztot).sum())
        fmax, f0, favg = b[:, 0], b[:, 1], b[:, 2]
        two_d = self.two_d
        slack = max(float(x.max()) for x in (
            -fmax, fmax - two_d, f0 - two_d, -favg, favg - two_d))
        return abs(norm - 1.0) <= 1e-10 and slack <= 1e-9

    def check(self, records):
        failed = {i for i, ok in records.items() if not ok}
        return failed, self._spin_sum_problems() + self._distance_problems()

    def _spin_sum_problems(self):
        code, view = self.code, self.view
        model = wegner.WegnerModel(view.theta)
        shifts = [view.class_vector(c).bits for c in range(1 << view.k)]
        worst = 0.0
        for p in self.p_values:
            beta = decoder.nishimori_beta(p)
            for s in view.all_syndromes():
                e_s = view.solve_syndrome(s)
                vals = wegner.class_log_values(code, "Z", e_s, beta)
                ref = [wegner.eval_spin_enum(model, e_s.bits ^ c, beta).log_value
                       for c in shifts]
                worst = max(worst, float(np.abs(vals - ref).max()))
        return [] if worst <= 1e-12 else [f"class values differ from spin sum by {worst:.3g}"]

    def _distance_problems(self):
        coset = _span_ints(self.view.theta.row_bits)
        problems = []
        for lab in self.labels:
            c = self.view.class_vector(lab).bits
            brute = min((c ^ t).bit_count() for t in coset)
            if brute != self.d_c[lab]:
                problems.append(f"d_{lab} = {self.d_c[lab]}, brute force gives {brute}")
        return problems


class McChains:
    """metropolis_run on the Z sector of toric L = 3 at beta_p, p = 0.08."""

    name = "mc-chains"
    L = 3
    p = 0.08
    chains = 8  # disorder samples per op, one chain each
    sweeps = 250
    burn_in = 50
    tail_percentile = 90

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        code = codes.toric_code(self.L)
        self.model = wegner.WegnerModel(code.sector("Z").theta)
        self.beta = decoder.nishimori_beta(self.p)
        self.units_per_op = self.chains * self.sweeps * self.model.n_spins

    def op(self, i: int):
        nb = self.model.n_bonds
        rng = np.random.default_rng([self.seed, i])
        out = []
        for j in range(self.chains):
            e = _draw_bits(rng, self.p, nb)
            chain_rng = np.random.default_rng([self.seed, i, j])
            sampler, energies = montecarlo.metropolis_run(
                self.model, e, self.beta, self.sweeps, self.burn_in, chain_rng)
            mean, _ = montecarlo.blocked_estimate(energies)
            montecarlo.autocorr_time(energies)
            cv = self.beta**2 * float(energies.var(ddof=1))
            out.append((e, mean, cv, sampler))
        return out

    def digest(self, chains):
        """(every sampler validates, rows of [disorder, mean energy, C]).

        The disorder has n_bonds < 53 bits, so it is exact as a float.
        """
        ok = True
        for *_, sampler in chains:
            try:
                sampler.validate()
            except AssertionError:
                ok = False
        return ok, np.array([(e, mean, cv) for e, mean, cv, _ in chains], dtype=float)

    def check(self, records):
        failed = {i for i, (ok, _) in records.items() if not ok}
        good = [c for i in sorted(records) if i not in failed for c in records[i][1]]
        if len(good) < 2:
            return failed, ["fewer than two chains left to pool"]
        exact = {}
        diffs, cvs = [], []
        for e, mean, cv in good:
            e = int(e)
            if e not in exact:
                exact[e] = wegner.exact_thermal_stats(self.model, e, self.beta).mean_energy
            diffs.append(mean - exact[e])
            cvs.append(cv)
        problems = []
        gap, sigma = float(np.mean(diffs)), _stderr(diffs)
        if abs(gap) > 4 * sigma:
            problems.append(f"pooled energy off the exact value by {gap:.4g} "
                            f"beyond 4 blocked errors ({sigma:.3g})")
        b = self.beta
        bound = self.model.n_bonds * b**2 / math.cosh(b) ** 2
        cv_mean, cv_sigma = float(np.mean(cvs)), _stderr(cvs)
        if cv_mean > bound + 3 * cv_sigma:
            problems.append(f"[C] = {cv_mean:.4g} above the bound {bound:.4g} + 3 sigma")
        return failed, problems


WORKLOADS = {w.name: w for w in (DecodeSmall, DecodeLarge, ExactBounds, McChains)}
