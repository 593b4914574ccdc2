"""Per-layer spans recorded from outside the package.

The tracer wraps the listed functions of each layer with spans.  A span
records its name, start, end, parent span and op id (-1 for set-up) in
memory; self time is the span's duration minus the time its child spans
cover.  Names imported by value are patched in every ``spinqec`` module that
holds them, and methods are patched on their class.  A target that no
longer exists, or whose counters no longer fit its arguments, is listed
as absent and its metrics read 0.

Span clocks are ``time.perf_counter`` (wall time): the workloads are
single-threaded and CPU-bound, and it costs a quarter of a process-CPU
clock read.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute path)
TARGETS = [
    ("gf2.class_histograms", "spinqec.gf2", "CosetTable.class_histograms"),
    ("gf2.span_table", "spinqec.gf2", "span_table"),
    ("gf2.solve", "spinqec.gf2", "solve"),
    ("gf2.coset_min_rep", "spinqec.gf2", "coset_min_rep"),
    ("codes.coset_table", "spinqec.codes", "SectorView.coset_table"),
    ("codes.syndrome", "spinqec.codes", "SectorView.syndrome"),
    ("codes.solve_syndrome", "spinqec.codes", "SectorView.solve_syndrome"),
    ("codes.class_label", "spinqec.codes", "SectorView.class_label"),
    ("codes.representative", "spinqec.codes", "SectorView.representative"),
    ("codes.class_distance", "spinqec.codes", "SectorView.class_distance"),
    ("decoder.trial_rng", "spinqec.decoder", "_trial_rng"),
    ("decoder.sample_bits", "spinqec.decoder", "sample_bits"),
    ("decoder.ml_decode", "spinqec.decoder", "ml_decode"),
    ("wegner.class_log_values", "spinqec.wegner", "class_log_values"),
    ("wegner.log_z_from_hists", "spinqec.wegner", "_log_z_from_hists"),
    ("wegner.ztot", "spinqec.wegner", "ztot"),
    ("analysis.delta_f_max", "spinqec.analysis", "delta_f_max"),
    ("analysis.delta_f_0", "spinqec.analysis", "delta_f_0"),
    ("analysis.syndrome_avg_delta_f", "spinqec.analysis", "syndrome_avg_delta_f"),
    ("montecarlo.sweep", "spinqec.montecarlo", "MetropolisSampler.sweep"),
    ("montecarlo.energy", "spinqec.montecarlo", "MetropolisSampler.energy"),
    ("montecarlo.estimators", "spinqec.montecarlo", "blocked_estimate"),
    ("montecarlo.estimators", "spinqec.montecarlo", "autocorr_time"),
]

clock = time.perf_counter


def _resolve(module: str, path: str):
    """(owner, attribute, original) or None when the target is gone."""
    owner = sys.modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if isinstance(owner, type):
        fn = owner.__dict__.get(parts[-1])
    else:
        fn = getattr(owner, parts[-1], None)
    return None if fn is None else (owner, parts[-1], fn)


class Tracer:
    """In-memory span recorder with per-name self-time totals.

    Totals are kept apart for set-up (op id -1) and for ops, so that a
    per-layer figure can be given as set-up plus one average op.
    """

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.op_id = -1
        # (setup?, name) -> [calls, self seconds]
        self.totals: dict = defaultdict(lambda: [0, 0.0])
        # (setup?, counter) -> value
        self.counts: dict = defaultdict(float)
        self._distinct: set = set()
        self._tables: set = set()
        self._patches: list = []
        self.absent: list[str] = []
        self.hooks = {
            "gf2.class_histograms": self._on_histograms,
            "codes.coset_table": self._on_coset_table,
            "decoder.ml_decode": self._on_ml_decode,
            "wegner.class_log_values": self._on_class_log_values,
            "montecarlo.sweep": self._on_sweep,
        }

    # -- recording -------------------------------------------------------------

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _enter(self, ni: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(ni)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_op.append(self.op_id)
        self._stack.append([idx, 0.0])
        return idx

    def _exit(self, idx: int, name: str, t0: float, t1: float) -> None:
        _, covered = self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        tot = self.totals[(self.op_id < 0, name)]
        tot[0] += 1
        tot[1] += dur - covered

    def _count(self, counter: str, value: float) -> None:
        self.counts[(self.op_id < 0, counter)] += value

    def wrap(self, name: str, fn):
        ni = self._name_index(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._enter(ni)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(idx, name, t0, clock())
            hook = tracer.hooks.get(name)
            if hook is not None:
                try:
                    hook(args, out)
                except Exception:  # a changed signature must not end the run
                    tracer.absent.append(f"counters of {name}")
                    tracer.hooks.pop(name, None)
            return out

        traced.__wrapped__ = fn
        return traced

    def run_op(self, i: int, fn):
        """Run one op inside an "op" span carrying op id i."""
        self.op_id = i
        try:
            return self.wrap("op", fn)(i)
        finally:
            self.op_id = -1

    # -- per-layer counters ----------------------------------------------------

    def _on_histograms(self, args, out):
        table = args[0]
        words = (table.nbits + 63) // 64
        self._count("gf2.class_histograms.elements", table.size)
        key_bytes = 8 if table.class_gens else 0
        self._count("gf2.class_histograms.bytes", table.size * (8 * words + key_bytes))

    def _on_coset_table(self, args, table):
        if id(table) not in self._tables:
            self._tables.add(id(table))
            words = (table.nbits + 63) // 64
            key_bytes = 8 if table.class_gens else 0
            self._count("codes.coset_table.bytes", table.size * (8 * words + key_bytes))

    def _on_ml_decode(self, args, out):
        self._count("decoder.ml_decode.ties", 1 if out.ties else 0)

    def _on_class_log_values(self, args, out):
        code, sector, e, beta = args[:4]
        bits = e.bits if hasattr(e, "bits") else int(e)
        key = (self.op_id, id(code), sector, bits, beta)
        if key not in self._distinct:
            self._distinct.add(key)
            self._count("wegner.class_log_values.distinct", 1)

    def _on_sweep(self, args, out):
        self._count("montecarlo.flip_attempts", args[0].model.n_spins)

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        originals: dict = {}
        for name, module, path in TARGETS:
            found = _resolve(module, path)
            if found is None:
                if f"{module}.{path}" not in self.absent:
                    self.absent.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            wrapped = self.wrap(name, fn)
            originals[fn] = wrapped
            self._patch(owner, attr, wrapped)
        # names imported by value into other modules of the package
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("spinqec") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in originals and getattr(mod, attr) is val:
                    self._patch(mod, attr, originals[val])

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results -------------------------------------------------------------------

    def metrics(self, per_layer: list, n_ops: int, overhead: float) -> dict:
        """Per-layer figures for set-up plus one average traced op.

        ``per_layer`` is the per_layer list of BENCHMARK.json (name, unit).
        """

        def per(setup_val, op_val):
            return setup_val + (op_val / n_ops if n_ops else 0.0)

        def total(name, i):
            return per(self.totals[(True, name)][i], self.totals[(False, name)][i])

        def count(counter):
            return per(self.counts[(True, counter)], self.counts[(False, counter)])

        def all_calls(name):
            return self.totals[(True, name)][0] + self.totals[(False, name)][0]

        def ratio(counter, name):
            calls = all_calls(name)
            hits = self.counts[(True, counter)] + self.counts[(False, counter)]
            return hits / calls if calls else 0.0

        out = {}
        for m in per_layer:
            metric = m["name"]
            head, _, qty = metric.rpartition(".")
            if metric == "trace.overhead":
                val = overhead
            elif metric == "op.glue_self_s":
                val = total("op", 1)
            elif metric == "decoder.ml_decode.tie_ratio":
                val = ratio("decoder.ml_decode.ties", "decoder.ml_decode")
            elif metric == "wegner.class_log_values.useful_ratio":
                val = ratio("wegner.class_log_values.distinct", "wegner.class_log_values")
            elif qty == "calls":
                val = total(head, 0)
            elif qty == "self_s":
                val = total(head, 1)
            else:
                val = count(metric)
            out[metric] = {"value": val, "unit": m["unit"]}
        return out

    def op_shares(self) -> dict:
        """Each span name's share of traced op time (self times sum to 1)."""
        ops = {name: tot[1] for (setup, name), tot in self.totals.items() if not setup}
        whole = sum(ops.values())
        return {name: t / whole for name, t in sorted(ops.items(), key=lambda kv: -kv[1])}

    def write(self, path, meta: dict) -> None:
        """Spans as columns (times in ns from the first span) plus metadata."""
        origin = min(self.span_start) if self.span_start else 0.0

        def ns(col):
            return ",".join(str(int((t - origin) * 1e9)) for t in col)

        with open(path, "w") as fh:
            fh.write("{")
            for key, val in meta.items():
                fh.write(f"{json.dumps(key)}: {json.dumps(val)}, ")
            fh.write(f'"absent": {json.dumps(self.absent)}, ')
            fh.write(f'"names": {json.dumps(self.names)}, "spans": {{')
            fh.write('"name": [' + ",".join(map(str, self.span_name)) + "], ")
            fh.write('"start_ns": [' + ns(self.span_start) + "], ")
            fh.write('"end_ns": [' + ns(self.span_end) + "], ")
            fh.write('"parent": [' + ",".join(map(str, self.span_parent)) + "], ")
            fh.write('"op": [' + ",".join(map(str, self.span_op)) + "]}}\n")
