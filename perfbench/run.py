"""Benchmark of arbsurf's batch calibrator, ``run_pipeline``.

    python3 perfbench/run.py --workload ref31 --seed 7 --seconds 50 --trace 0

One process, one client, one call at a time (a closed loop), pipeline
``threads=1`` and BLAS capped at the usable cores.  With ``--trace 0`` it
reports the end-to-end metrics named in BENCHMARK.json; with ``--trace 1``
it times the calls into each module's public functions and reports the
per-layer metrics.  Human-readable lines and a provenance record come first;
the last line of standard output is the JSON result.  Why each workload
exists and what each metric should move is in NOTES.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SHORT_CHAIN = [20, 30, 40, 60, 90, 130, 190, 280, 410, 600]

# name -> (config overrides of DEFAULT_CONFIG, write artifacts like
# `arbsurf all --out`, markets per run).  A run calibrates that many markets,
# the first at the run's seed, and cycles through them, so each run's
# medians cover the same inputs however fast the program is; the repeats
# check that a seed reproduces its summary.  The counts fill about 45 s
# on a 2-core Xeon, inside the 50 s a run measures.
WORKLOADS = {
    "ref31": ({}, True, 5),
    "descent3k": ({"descent": {"steps": 3000},
                   "projection": {"lip_trials": 10},
                   "chain": {"sizes": SHORT_CHAIN}}, False, 12),
    # Runnable, but not in BENCHMARK.json: see NOTES.md.
    "strikes61": ({"grid": {"n_strikes": 61},
                   "projection": {"lip_trials": 20},
                   "chain": {"sizes": SHORT_CHAIN}}, False, 2),
}

MARKET_STRIDE = 1_000_003
SETUP_SAMPLES = 3
STAGE_TOL_S = 2e-3


def market_seeds(workload: str, seed: int) -> list[int]:
    return [seed + i * MARKET_STRIDE for i in range(WORKLOADS[workload][2])]


def build_config(workload: str, seed: int):
    from arbsurf.pipeline import RunConfig
    cfg = RunConfig(WORKLOADS[workload][0])
    cfg["seed"] = seed
    cfg["threads"] = 1
    return cfg


def cap_blas_threads() -> None:
    """At most one BLAS thread per usable core; read when numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))


def setup_probe(workload: str) -> None:
    """Child side of setup_s: import arbsurf, build the config, print the clock."""
    sys.path.insert(0, str(SRC))
    import arbsurf  # noqa: F401
    build_config(workload, 0)
    print(repr(time.monotonic()))


def measure_setup(workload: str) -> list[float]:
    """Seconds from process start to arbsurf imported and config built.

    CLOCK_MONOTONIC is shared by all processes, so the child's reading minus
    the parent's reading before the spawn spans the whole start-up.
    """
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--setup-probe"],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


class Calibrator:
    """Runs run_pipeline and applies the failure rules to each result."""

    def __init__(self, workload: str, out_dir: Path | None, keep_summaries: bool):
        self.workload = workload
        self.out_dir = out_dir
        # kept only for the traced run, so peak RSS does not grow with calls
        self.keep_summaries = keep_summaries
        self.first_digest: dict[int, str] = {}
        self.calls: list[dict] = []

    def __call__(self, seed: int) -> dict:
        from arbsurf.pipeline import run_pipeline, strip_meta, summary_to_json
        from checks import FEAS_TOL, digest, non_finite_paths
        cfg = build_config(self.workload, seed)
        call = {"seed": seed, "problems": []}
        t0 = time.perf_counter()
        try:
            summary, _status = run_pipeline(cfg, out_dir=self.out_dir)
        except Exception as exc:  # a raising run is counted, not fatal
            call["seconds"] = time.perf_counter() - t0
            call["problems"].append(f"raised {type(exc).__name__}: {exc}")
            self.calls.append(call)
            return call
        call["seconds"] = time.perf_counter() - t0
        stripped = strip_meta(summary)
        if self.keep_summaries:
            call["summary"] = summary
        call["digest"] = digest(summary_to_json(stripped))
        call["failed_gates"] = [g for g, v in summary["gates"].items() if not v["pass"]]
        call["gates_passed"] = len(summary["gates"]) - len(call["failed_gates"])
        call["surface_err"] = summary["Risk"]["measured_dimensionless"] - 1.0
        bad = non_finite_paths(stripped)
        if bad:
            call["problems"].append(f"non-finite summary values at {bad[:5]}")
        viol = summary["C3"]["feasibility_violation"]
        if not viol <= FEAS_TOL:
            call["problems"].append(f"C3.feasibility_violation {viol:.3g} > {FEAS_TOL:g}")
        first = self.first_digest.setdefault(seed, call["digest"])
        if call["digest"] != first:
            call["problems"].append("summary differs from an earlier run of this seed")
        self.calls.append(call)
        return call

    @property
    def failed(self) -> int:
        return sum(1 for c in self.calls if c["problems"])


def closed_loop(calibrate: Calibrator, seeds: list[int], seconds: float,
                min_calls: int) -> None:
    """Start the next call only after the last returned, while time remains."""
    start = time.perf_counter()
    i = 0
    while True:
        calibrate(seeds[i % len(seeds)])
        i += 1
        elapsed = time.perf_counter() - start
        typical = statistics.median(c["seconds"] for c in calibrate.calls)
        if i >= min_calls and elapsed + typical > seconds:
            return


def per_market(calls: list[dict], key: str) -> list:
    seen = {}
    for c in calls:
        if key in c:
            seen.setdefault(c["seed"], c[key])
    return list(seen.values())


def artifact_bytes(out_dir: Path | None) -> int:
    if out_dir is None:
        return 0
    return sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())


def end_to_end(calib: Calibrator, setup_times: list[float]) -> tuple[dict, list[str]]:
    secs = [c["seconds"] for c in calib.calls]
    n = len(calib.calls)
    values = {
        "pipeline_s": statistics.median(secs),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "surface_err": statistics.median(per_market(calib.calls, "surface_err")),
        # a mean, since the median of a small integer count jumps a whole gate
        # when one market more or less fails a second gate
        "gates_passed": statistics.mean(per_market(calib.calls, "gates_passed")),
    }
    gates_failed = statistics.mean(len(g) for g in per_market(calib.calls, "failed_gates"))
    lines = [
        f"pipeline_s    {values['pipeline_s']:.4f} s   median of {n} calls "
        f"(min {min(secs):.4f}, max {max(secs):.4f})",
        f"setup_s       {values['setup_s']:.4f} s   median of {len(setup_times)} "
        f"process starts (min {min(setup_times):.4f}, max {max(setup_times):.4f})",
        f"peak_rss_mb   {values['peak_rss_mb']:.1f} MB",
        f"failed_frac   {calib.failed / n:.4f} ratio   ({calib.failed} of {n} calls failed)",
        f"gates_failed  {gates_failed:g} count   mean over markets",
        f"surface_err   {values['surface_err']:.6f} ratio   median over markets",
        f"gates_passed  {values['gates_passed']:g} count   mean over markets",
    ]
    return values, lines


def layer_values(traced: list[dict], recorders: list, overhead_frac: float,
                 out_bytes: int) -> tuple[dict, list[str], list[str]]:
    """Per-call averages of span totals, plus counters from the summary.

    Also returns the stage spans that disagree with the summary's wall times.
    """
    import numpy as np
    from checks import FEAS_TOL, cone_violation
    from spans import CALLER_GROUPS, PROJECT, TRACED_FUNCTIONS
    from arbsurf.pipeline import STAGES

    n = len(traced)
    groups: dict[str, dict] = {}
    problems = []

    def new_group():
        return {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [],
                "kernel_evals": 0, "infeasible": 0, "max_violation": 0.0}

    def add(name, span, self_s):
        g = groups.setdefault(name, new_group())
        g["calls"] += 1
        g["s"] += span.duration
        g["self_s"] += self_s
        g["durations"].append(span.duration)
        g["kernel_evals"] += span.attrs.get("kernel_evals", 0)
        if "values" in span.attrs:
            viol = cone_violation(span.attrs["values"], span.attrs["strikes"])
            g["infeasible"] += int(viol > FEAS_TOL)
            g["max_violation"] = max(g["max_violation"], viol)

    for call, rec in zip(traced, recorders):
        self_times = rec.self_times()
        for i, span in enumerate(rec.spans):
            add(span.name, span, self_times[i])
            if span.name == PROJECT:
                caller = rec.ancestor_named(i, CALLER_GROUPS)
                if caller:
                    add(f"{PROJECT}.{CALLER_GROUPS[caller]}", span, self_times[i])
        stage_s = {s.name.rsplit(".", 1)[1]: s.duration for s in rec.spans
                   if s.name.startswith("pipeline.stage.")}
        for stage in STAGES:
            wall = call["summary"]["meta"][f"wall_{stage}"]
            if abs(stage_s.get(stage, -1.0) - wall) > STAGE_TOL_S + 0.01 * wall:
                problems.append(f"stage span {stage} {stage_s.get(stage)} s "
                                f"disagrees with wall_{stage} {wall} s")

    values = {}
    names = [name for _, _, name in TRACED_FUNCTIONS]
    names += [f"{PROJECT}.{g}" for g in CALLER_GROUPS.values()]
    names += [f"pipeline.stage.{s}" for s in STAGES]
    for name in names:
        g = groups.get(name) or new_group()
        d = g["durations"]
        values.update({
            f"{name}.calls": g["calls"] / n,
            f"{name}.s": g["s"] / n,
            f"{name}.self_s": g["self_s"] / n,
            f"{name}.p50_ms": 1e3 * float(np.median(d)) if d else 0.0,
            f"{name}.max_ms": 1e3 * max(d) if d else 0.0,
            f"{name}.kernel_evals": g["kernel_evals"] / n,
            f"{name}.infeasible": g["infeasible"] / n,
            f"{name}.max_violation": g["max_violation"],
        })
    summary = traced[0]["summary"]
    values.update({
        "projection.lip_emp": summary["C3"]["lip_emp"],
        "descent.accept_rate": summary["C4"]["accept_rate"],
        "bridge.iterations": summary["C2"]["iterations"],
        "bridge.fallbacks": len(summary["C2"]["fallbacks_taken"]),
        "smolyak.node_count": summary["C1"]["node_count"],
        "cpwl.param_count": summary["C1"]["param_count"],
        "pipeline.artifact_bytes": out_bytes,
        "trace.overhead_frac": overhead_frac,
    })
    total = statistics.median(c["seconds"] for c in traced)
    lines = [f"traced calls {n}; median traced call {total:.4f} s; "
             f"overhead {overhead_frac:+.2%} against untraced calls"]
    top = sorted(((g["self_s"] / n, name) for name, g in groups.items()
                  if not name.startswith(f"{PROJECT}.")), reverse=True)
    for self_s, name in top[:8]:
        lines.append(f"  self {self_s:8.4f} s  {100 * self_s / total:5.1f}%  {name}")
    for key in (PROJECT, f"{PROJECT}.in_certificates", f"{PROJECT}.in_descent"):
        g = groups.get(key)
        if g:
            lines.append(f"  {key}: {g['calls'] // n} calls, {g['s'] / n:.4f} s, "
                         f"{g['infeasible'] // n} infeasible (max violation "
                         f"{g['max_violation']:.3g})")
    return values, lines, problems


def traced_loop(calib: Calibrator, seed: int, seconds: float):
    """Alternate untraced and traced calls of one market.

    Returns the traced calls that completed, their recorders, and the
    tracing overhead as a fraction of the untraced call time.
    """
    from spans import SpanRecorder, instrument
    plain, traced, recorders = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(calib(seed))
        rec = SpanRecorder()
        with instrument(rec):
            traced.append(calib(seed))
        recorders.append(rec)
        if time.perf_counter() - start + plain[-1]["seconds"] + traced[-1]["seconds"] > seconds:
            break
    overhead = (statistics.median(c["seconds"] for c in traced)
                / statistics.median(c["seconds"] for c in plain) - 1.0)
    done = [i for i, c in enumerate(traced) if "summary" in c]
    return [traced[i] for i in done], [recorders[i] for i in done], overhead


def declared_metrics(trace: int) -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "arbsurf" / "__init__.py").is_file():
        print(f"arbsurf sources not found under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    setup_times = [] if args.trace else measure_setup(args.workload)
    sys.path.insert(0, str(SRC))
    from checks import provenance

    out_dir = None
    if WORKLOADS[args.workload][1]:
        out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    calib = Calibrator(args.workload, out_dir, keep_summaries=bool(args.trace))
    values, lines, trace_problems = None, [], []
    try:
        if args.trace:
            traced, recorders, overhead = traced_loop(calib, args.seed, args.seconds)
            if traced:
                values, lines, trace_problems = layer_values(
                    traced, recorders, overhead, artifact_bytes(out_dir))
        else:
            seeds = market_seeds(args.workload, args.seed)
            closed_loop(calib, seeds, args.seconds, len(seeds) + 1)
            if any("digest" in c for c in calib.calls):
                values, lines = end_to_end(calib, setup_times)
    finally:
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
    if values is None:
        for c in calib.calls:
            print(f"seed {c['seed']}: {'; '.join(c['problems'])}", file=sys.stderr)
        print("no call completed, so there is nothing to report", file=sys.stderr)
        return 1

    units = declared_metrics(args.trace)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"metrics declared in BENCHMARK.json but not computed: {missing}",
              file=sys.stderr)
        return 2
    lines += [f"TRACE CHECK FAILED: {p}" for p in trace_problems]
    markets: dict[str, dict] = {}
    for c in calib.calls:
        lines += [f"FAILED call seed {c['seed']}: {p}" for p in c["problems"]]
        m = markets.setdefault(str(c["seed"]), {"call_seconds": []})
        m["call_seconds"].append(c["seconds"])
        if "digest" in c:
            m.setdefault("strip_meta_sha256", c["digest"])
            m.setdefault("failed_gates", c["failed_gates"])
            m.setdefault("surface_err", c["surface_err"])
    prov = provenance(ROOT)
    prov.update(workload=args.workload, seed=args.seed, trace=args.trace,
                markets=markets)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(calib.calls)} calls")
    for line in lines:
        print(line)
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": calib.failed == 0 and not trace_problems,
        "attempted": len(calib.calls),
        "failed": calib.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
