"""Batch experiment driver: build codes, run checks, sweeps, MC estimates.

Every output file embeds the config hash, master seed, code parameters and
tool version in '#' header lines; bodies are deterministic for a fixed
config, so re-runs are byte-identical.  Exit codes: 0 success, 1 check
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, analysis, codes, decoder, montecarlo, wegner
from .gf2 import BinaryVector, BudgetExceededError

OUTDIR_ENV = "SPINQEC_OUTDIR"


def _poly(s: str) -> list[int]:
    if not s or any(ch not in "01" for ch in s):
        raise argparse.ArgumentTypeError(
            f"polynomial must be a 0/1 string, lowest degree first: {s!r}"
        )
    return [int(ch) for ch in s]


def _int_list(s: str) -> list[int]:
    return [int(tok) for tok in s.split(",") if tok]


def _p_grid(s: str) -> list[float]:
    """'a:b:step' range (inclusive) or comma-separated values."""
    if ":" in s:
        a, b, step = (float(t) for t in s.split(":"))
        n = int(round((b - a) / step)) + 1
        return [round(a + i * step, 12) for i in range(n)]
    return [float(t) for t in s.split(",") if t]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _out_path(path: str) -> str:
    base = os.environ.get(OUTDIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _config_hash(ns: argparse.Namespace) -> str:
    skip = ("func", "out", "config", "threads")  # execution details, not the experiment
    blob = json.dumps(
        {k: v for k, v in sorted(vars(ns).items()) if k not in skip},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_table(path, header_meta: dict, columns: list[str], rows: list[dict]):
    lines = [f"# spinqec {__version__}"]
    for key, val in header_meta.items():
        lines.append(f"# {key}={val}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(_out_path(path), "w") as fh:
            fh.write(text)


# -- code construction ------------------------------------------------------------


def build_code(args) -> codes.StabilizerCode:
    fam = args.family
    if fam == "toric":
        return codes.toric_code(args.L)
    if fam == "hp-cyclic":
        return codes.cyclic_hp(args.h1, args.n1, args.h2, args.n2)
    if fam == "dt":
        return codes.debierre_turban_code(args.n1, args.n2, args.l)
    if fam == "gallager":
        h = codes.gallager_ldpc(args.h, args.v, args.nc, seed=args.seed)
        code = codes.hp_code(h, h.transpose())
        code.metadata.update({"family": "gallager-hp", "h": args.h, "v": args.v,
                              "nc": args.nc, "seed": args.seed})
        return code
    if fam == "gauge":
        return codes.gauge_code(codes.toric_code(args.inner_L), args.L)
    raise argparse.ArgumentTypeError(f"unknown family {fam!r}")


def cmd_code(args) -> int:
    if args.action == "info":
        code = codes.load_code(args.load)
    else:
        code = build_code(args)
    params = codes.distance(code, cap=args.distance_cap)
    doc = {
        "n": params.n,
        "k": params.k,
        "d": None if math.isinf(params.d) else int(params.d),
        "d_exact": params.d_exact,
        "rate": params.rate,
        "metadata": code.metadata,
    }
    print(str(params))
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    if args.save:
        codes.save_code(code, _out_path(args.save))
    return 0


# -- property check suites -----------------------------------------------------------


def _check_duality(args):
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for i in range(20):
        ns, nb = int(rng.integers(1, 7)), int(rng.integers(1, 10))
        theta = codes.BinaryMatrix.from_array(rng.integers(0, 2, (ns, nb)))
        couplings = rng.uniform(0.3, 1.8, nb) if i % 2 == 0 else None
        model = wegner.WegnerModel(theta, couplings=couplings)
        e = BinaryVector(int(rng.integers(0, 1 << nb)), nb)
        beta = float(rng.uniform(0.3, 1.4))
        lhs, rhs, _, _ = wegner.duality_sides(model, e, beta)
        worst = max(worst, abs(lhs - rhs))
    return {"name": "duality", "max_residual": worst, "tolerance": 1e-10,
            "passed": worst <= 1e-10}


def _check_selfdual(args):
    worst = 0.0
    for L in (2, 3):
        code = codes.toric_code(L)
        for sector in (None, "Z"):
            worst = max(worst, analysis.clean_self_dual_check(code, sector).residual)
    return {"name": "selfdual", "max_residual": worst, "tolerance": 1e-9,
            "passed": worst <= 1e-9}


def _check_nishimori(args):
    code = codes.toric_code(2)
    view = code.sector("Z")
    p = 0.1
    beta_p = decoder.nishimori_beta(p)
    norm = sum(
        wegner.ztot(code, "Z", view.solve_syndrome(s), beta_p).value
        for s in view.all_syndromes()
    )
    m = view.indicators.row(0) ^ view.logicals.row(1)
    report = montecarlo.nishimori_identity_check(
        code, "Z", m, p, betas=[0.7, beta_p, 1.5], mode="exact"
    )
    worst = max(abs(r["identity_residual"]) for r in report["results"])
    worst = max(worst, abs(norm - 1.0))
    return {"name": "nishimori", "max_residual": worst, "tolerance": 1e-10,
            "passed": worst <= 1e-10}


def _check_bounds(args):
    code = codes.toric_code(2)
    view = code.sector("Z")
    distances = {lab: view.class_distance(lab)[0] for lab in range(1, 1 << view.k)}
    slack = 0.0
    for p in (0.05, 0.15):
        beta = decoder.nishimori_beta(p)
        for s in view.all_syndromes():
            e_s = view.solve_syndrome(s)
            for lab, d_c in distances.items():
                c = view.class_vector(lab)
                fmax = analysis.delta_f_max(code, "Z", e_s, c, beta)
                f0 = analysis.delta_f_0(code, "Z", e_s, c, beta)
                favg = analysis.syndrome_avg_delta_f(code, "Z", s, c, p)
                slack = max(slack, -fmax, fmax - 2 * d_c, f0 - 2 * d_c,
                            -favg, favg - 2 * d_c)
    return {"name": "bounds", "max_violation": slack, "tolerance": 1e-9,
            "passed": slack <= 1e-9}


def _check_expansion(args):
    rng = np.random.default_rng(args.seed)
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
    return {"name": "expansion", "max_residual": worst, "tolerance": 1e-10,
            "passed": worst <= 1e-10}


_CHECKS = {
    "duality": _check_duality,
    "selfdual": _check_selfdual,
    "nishimori": _check_nishimori,
    "bounds": _check_bounds,
    "expansion": _check_expansion,
}


def cmd_check(args) -> int:
    names = list(_CHECKS) if args.suite == "all" else [args.suite]
    results = [_CHECKS[name](args) for name in names]
    doc = {"version": __version__, "seed": args.seed, "results": results}
    text = json.dumps(doc, indent=1, sort_keys=True, default=float)
    if args.out:
        with open(_out_path(args.out), "w") as fh:
            fh.write(text + "\n")
    print(text)
    ok = all(r["passed"] for r in results)
    for r in results:
        print(f"{'PASS' if r['passed'] else 'FAIL'} {r['name']}", file=sys.stderr)
    return 0 if ok else 1


# -- decoding sweeps --------------------------------------------------------------------


def cmd_decode(args) -> int:
    family = [codes.toric_code(L) for L in args.sizes]
    rows = []
    scan = decoder.threshold_scan(
        family, args.p_grid, trials=args.trials, seed=args.seed, sink=rows.append
    )
    rows.sort(key=lambda r: (r["code_index"], r["p"]))
    meta = {
        "config_hash": _config_hash(args),
        "seed": args.seed,
        "codes": ";".join(f"toric-L{L}" for L in args.sizes),
        "trials": args.trials,
    }
    columns = ["code_index", "n", "p", "beta", "p_succ", "stderr", "mean_ratio"]
    _write_table(args.out, meta, columns, rows)
    summary = {
        "crossings": scan.crossings,
        "estimate": scan.estimate,
        "spread": scan.spread,
        "diagnostic": scan.diagnostic,
    }
    print(json.dumps(summary, default=float))
    return 0


# -- Monte Carlo runs ----------------------------------------------------------------------


def cmd_mc(args) -> int:
    if args.sweeps - args.burn_in < 2:
        raise ValueError(
            "need at least 2 retained sweeps (sweeps - burn-in) for the specific heat"
        )
    code = codes.toric_code(args.size)
    view = code.sector(args.sector)
    model = wegner.sector_model(code, args.sector)
    beta = decoder.nishimori_beta(args.p) if args.beta == "nishimori" else float(args.beta)
    rng = np.random.default_rng(args.seed)
    e = decoder.sample_bits(args.p, view.n_bonds, rng)
    trace: list = []
    _, energies = montecarlo.metropolis_run(
        model, e, beta, args.sweeps, args.burn_in, rng, trace=trace
    )
    u_mean, u_err = montecarlo.blocked_estimate(energies)
    cv = beta**2 * float(np.var(energies, ddof=1))
    meta = {
        "config_hash": _config_hash(args),
        "seed": args.seed,
        "code": f"toric-L{args.size}",
        "sector": args.sector,
        "p": args.p,
        "beta": beta,
        "disorder": str(e),
    }
    rows = [{"sweep": int(i), "energy": float(en)} for i, en in trace]
    _write_table(args.out, meta, ["sweep", "energy"], rows)
    print(json.dumps({"energy": u_mean, "energy_stderr": u_err, "specific_heat": cv}))
    return 0


# -- argument plumbing ------------------------------------------------------------------------


def _parser() -> tuple[argparse.ArgumentParser, list]:
    ap = argparse.ArgumentParser(
        prog="spinqec",
        description="Spin-model analysis and ML decoding for stabilizer codes",
    )
    ap.add_argument("--config", help="JSON file of defaults; explicit flags win")
    sub = ap.add_subparsers(dest="command", required=True)

    code_p = sub.add_parser("code", help="build or inspect codes")
    code_p.add_argument("action", choices=["build", "info"])
    code_p.add_argument("--family", choices=["toric", "hp-cyclic", "dt", "gallager", "gauge"])
    code_p.add_argument("--L", type=int, default=3)
    code_p.add_argument("--inner-L", dest="inner_L", type=int, default=2)
    code_p.add_argument("--h1", type=_poly, default=[1, 1])
    code_p.add_argument("--h2", type=_poly, default=[1, 1])
    code_p.add_argument("--n1", type=int, default=3)
    code_p.add_argument("--n2", type=int, default=3)
    code_p.add_argument("--l", type=int, default=3)
    code_p.add_argument("--h", type=int, default=2)
    code_p.add_argument("--v", type=int, default=3)
    code_p.add_argument("--nc", type=int, default=6)
    code_p.add_argument("--seed", type=int, default=0)
    code_p.add_argument("--distance-cap", dest="distance_cap", type=int, default=5)
    code_p.add_argument("--save")
    code_p.add_argument("--load")
    code_p.add_argument("--json", action="store_true")
    code_p.set_defaults(func=cmd_code)

    check_p = sub.add_parser("check", help="run exact property suites")
    check_p.add_argument("suite", choices=[*_CHECKS, "all"])
    check_p.add_argument("--seed", type=int, default=0)
    check_p.add_argument("--out")
    check_p.set_defaults(func=cmd_check)

    dec_p = sub.add_parser("decode", help="threshold sweeps")
    dec_p.add_argument("action", choices=["sweep"])
    dec_p.add_argument("--sizes", type=_int_list, default=[2, 3])
    dec_p.add_argument("--p-grid", dest="p_grid", type=_p_grid, default=[0.08, 0.11, 0.14])
    dec_p.add_argument("--trials", type=int, default=500)
    dec_p.add_argument("--seed", type=int, default=0)
    # accepted for old command lines and configs; decoding is serial
    dec_p.add_argument("--threads", type=int, default=1)
    dec_p.add_argument("--out")
    dec_p.set_defaults(func=cmd_decode)

    mc_p = sub.add_parser("mc", help="Metropolis observable runs")
    mc_p.add_argument("action", choices=["run"])
    mc_p.add_argument("--size", type=int, default=3)
    mc_p.add_argument("--sector", default="Z")
    mc_p.add_argument("--p", type=float, default=0.08)
    mc_p.add_argument("--beta", default="nishimori")
    mc_p.add_argument("--sweeps", type=int, default=2000)
    mc_p.add_argument("--burn-in", dest="burn_in", type=int, default=200)
    mc_p.add_argument("--seed", type=int, default=0)
    mc_p.add_argument("--out")
    mc_p.set_defaults(func=cmd_mc)
    return ap, [code_p, check_p, dec_p, mc_p]


def main(argv=None) -> int:
    ap, subparsers = _parser()
    # config file supplies defaults (on every subparser, since subparsers
    # re-apply their own argument defaults); explicit flags still win
    pre, _ = ap.parse_known_args(argv)
    if pre.config:
        with open(pre.config) as fh:
            cfg = json.load(fh)
        for key, val in cfg.items():
            if key == "p_grid" and isinstance(val, str):
                cfg[key] = _p_grid(val)
            if key in ("h1", "h2") and isinstance(val, str):
                cfg[key] = _poly(val)
        for sp in subparsers:
            sp.set_defaults(**cfg)
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, BudgetExceededError, argparse.ArgumentTypeError) as exc:
        # an argument value rejected after parsing
        ap.exit(2, f"spinqec: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
