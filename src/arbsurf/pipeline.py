"""Batch pipeline: generate -> fit/compile -> bridge -> project -> gate ->
descend -> risk, with a machine-readable summary and per-stage artifacts.

Stages pass their results in memory; with an output directory, some also
write JSON/CSV artifacts there for inspection.  All randomness descends from
the single config seed; wall-clock data lives only under the summary's
"meta" key so two runs are byte-identical after stripping it.
"""

from __future__ import annotations

import csv
import json
import time
import zlib
from pathlib import Path

import numpy as np

from . import bridge as bridge_mod
from . import chainstats as cs
from . import descent as descent_mod
from . import risk as risk_mod
from .cpwl import RELU_MAXABS_PASS, compile_to_relu
from .grid import (Grid2D, Surface, WeightField, check_mesh_admissibility,
                   vega_bump_weight, weighted_norm)
from .projection import (LIP_PASS, ProjectionWarmStart, feasibility_violation,
                         project_to_cone, projection_certificates)
from .smolyak import (AnisotropyConfig, _bilinear_eval, error_frontier,
                      smolyak_fit)
from .synth import MarketParams, extract_density, generate_surface, sample_clouds

__all__ = ["DEFAULT_CONFIG", "RunConfig", "run_pipeline", "PipelineContext",
           "STAGES", "STAGE_DEPS"]

# each stage, in the order the full run takes them, with the earlier stages
# whose artifacts it reads (directly or through another dependency)
STAGE_DEPS = {
    "generate": (),
    "fit": ("generate",),
    "bridge": ("generate", "fit"),
    "project": ("generate", "fit"),
    "gate": ("generate", "fit", "project"),
    "descend": ("generate", "fit", "project"),
    "risk": ("generate", "fit", "bridge", "project", "gate", "descend"),
}
STAGES = tuple(STAGE_DEPS)

# the bridge: a Nystrom kernel of this rank, solved to this KKT tolerance
BRIDGE_FEATURES = "nystrom"
BRIDGE_RANK = 8
BRIDGE_TOL = 5e-3
# the descent's step-size scale, noise level and chain-energy weight
DESCENT_ETA0 = 0.1
DESCENT_NOISE_SIGMA = 0.005
DESCENT_LAMBDA_CHAIN = 0.5

# what a run varies: its input data (seed, grid, market) and the sizes of
# its fit, audit, chain and descent
DEFAULT_CONFIG = {
    "seed": 7,
    "grid": {
        "k_min": 80.0, "k_max": 120.0, "n_strikes": 31,
        "tau_min": 0.1, "tau_max": 1.1, "n_maturities": 11,
    },
    "market": {
        "spot": 100.0, "rate": 0.0, "dividend": 0.0,
        "vol_kind": "constant", "vol_level": 0.2, "smile_curvature": 0.0,
        "noise_sigma": 0.25,
    },
    "smolyak": {"level": 4, "frontier_levels": [2, 3, 4, 5]},
    "projection": {"lip_trials": 10},
    "chain": {
        "sizes": [60, 90, 130, 190, 280, 410, 600, 880, 1290, 1900],
        "n_maturities_used": 6,
    },
    "descent": {"steps": 200},
}


def _same_type(value, default) -> bool:
    """Whether a config value has its default's type: an int may stand for
    a float, a bool is no number, and a list or tuple may stand for a list
    whose elements each have the type of the default's first element."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(value, bool) and isinstance(default, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, (list, tuple)):
        return (isinstance(value, (list, tuple))
                and all(_same_type(v, default[0]) for v in value))
    return isinstance(value, type(default))


def _type_name(default) -> str:
    if isinstance(default, (list, tuple)):
        return f"list of {type(default[0]).__name__}"
    return type(default).__name__


def _merge_config(user: dict, defaults: dict = DEFAULT_CONFIG,
                  path: str = "") -> dict:
    """Fill missing keys from defaults; reject unknown keys, a null, a
    section that is not an object, a value that is one and a value whose
    type is not its default's."""
    out = {}
    if not isinstance(user, dict):
        raise ValueError(f"config section '{path or '.'}' must be an object, "
                         f"not {type(user).__name__}")
    unknown = set(user) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys at '{path or '.'}': {sorted(unknown)}")
    for key, dval in defaults.items():
        uval = user.get(key, {} if isinstance(dval, dict) else dval)
        if uval is None:
            raise ValueError(f"config key '{path}/{key}' is null: leave it out "
                             "to take the default")
        if isinstance(dval, dict):
            out[key] = _merge_config(uval, dval, f"{path}/{key}")
        elif isinstance(uval, dict):
            raise ValueError(f"config key '{path}/{key}' must not be an object")
        elif not _same_type(uval, dval):
            raise ValueError(f"config key '{path}/{key}' must be of type "
                             f"{_type_name(dval)}, not {uval!r}")
        else:
            out[key] = uval
    return out


def _grid_of(gc: dict) -> Grid2D:
    """The mesh that a config's ``grid`` section describes."""
    return Grid2D(np.linspace(gc["k_min"], gc["k_max"], gc["n_strikes"]),
                  np.linspace(gc["tau_min"], gc["tau_max"], gc["n_maturities"]))


class RunConfig(dict):
    """Validated pipeline configuration tree."""

    def __init__(self, user: dict | None = None):
        super().__init__(_merge_config({} if user is None else user))
        if self["seed"] < 0:
            raise ValueError("config key '/seed' must be a non-negative "
                             "integer: it seeds numpy's SeedSequence")
        try:
            _grid_of(self["grid"])
        except ValueError as exc:
            raise ValueError(f"config section '/grid' describes no grid: {exc}") from None
        n_mat, n_k = self["grid"]["n_maturities"], self["grid"]["n_strikes"]
        if not 2 <= self["chain"]["n_maturities_used"] <= n_mat:
            raise ValueError(f"config key '/chain/n_maturities_used' must lie "
                             f"in [2, {n_mat}]: the chain gate compares "
                             "maturities of the grid")
        sizes = self["chain"]["sizes"]
        if (len(sizes) < 4 or min(sizes) < 2
                or any(b <= a for a, b in zip(sizes, sizes[1:]))):
            raise ValueError("config key '/chain/sizes' must hold at least 4 "
                             "strictly increasing sizes, each at least 2: the "
                             "gate reads a tail of the series, and each MMD^2 "
                             "needs 2 samples per cloud")
        if n_k < BRIDGE_RANK:
            raise ValueError(f"config key '/grid/n_strikes' must be at least "
                             f"{BRIDGE_RANK}, the rank of the bridge's "
                             "Nystrom kernel")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as fh:
            doc = json.load(fh)
        if doc is None:  # RunConfig(None) is the default config
            raise ValueError(f"config file {path} holds null, not an object")
        return cls(doc)


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (np.bool_,)):
        return bool(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class PipelineContext:
    """Holds the artifacts of the stages run so far, in memory.

    Each ``stage_*`` method reads what earlier stages left in ``art`` and
    writes its own results there, into ``summary`` and ``gates``, and, when
    ``out_dir`` is set, into artifact files; ``run_pipeline`` runs the
    stages in dependency order.
    """

    def __init__(self, config: RunConfig | dict | None = None,
                 out_dir=None):
        self.config = config if isinstance(config, RunConfig) else RunConfig(config)
        self.out = Path(out_dir) if out_dir else None
        if self.out:
            self.out.mkdir(parents=True, exist_ok=True)
        self.art: dict = {}
        self.summary: dict = {"meta": {}}
        self.gates: dict = {}

    # -- helpers ----------------------------------------------------------
    def _seed(self, label: str) -> int:
        base = int(self.config["seed"])
        tag = zlib.crc32(label.encode())
        return int(np.random.SeedSequence([base, tag]).generate_state(1)[0])

    def _gate(self, name: str, value, threshold, passed: bool):
        self.gates[name] = {"value": value, "threshold": threshold,
                            "pass": bool(passed)}

    def _timed(self, name: str, fn):
        t0 = time.perf_counter()
        fn()
        self.summary["meta"][f"wall_{name}"] = time.perf_counter() - t0

    def _count_projections(self, sequence: str, counters: dict):
        for name, count in counters.items():
            self.summary["meta"][f"proj_{sequence}_{name}"] = count

    # -- stages -----------------------------------------------------------
    def stage_generate(self):
        cfg = self.config
        gc, mc = cfg["grid"], cfg["market"]
        grid = _grid_of(gc)
        params = MarketParams(spot=mc["spot"], rate=mc["rate"],
                              dividend=mc["dividend"], vol_kind=mc["vol_kind"],
                              vol_level=mc["vol_level"],
                              smile_curvature=mc["smile_curvature"],
                              noise_sigma=mc["noise_sigma"],
                              seed=self._seed("market-noise"))
        clean, noisy = generate_surface(params, grid)
        w = vega_bump_weight(grid, mc["spot"])
        report = check_mesh_admissibility(clean, grid)
        self.art.update(grid=grid, weight=w, clean=clean, noisy=noisy)
        self.summary["mesh"] = {
            "h_K": grid.h_K, "h_tau": grid.h_tau,
            "envelope_K": report.envelope_K, "envelope_tau": report.envelope_tau,
            "bound_K": report.bound_K, "bound_tau": report.bound_tau,
            "pass": report.passed, "reason": report.reason,
            "kappa_W": w.kappa_W,
        }
        self._gate("mesh", [grid.h_K, grid.h_tau],
                   [report.bound_K, report.bound_tau], report.passed)
        if self.out:
            doc = {
                "strikes": grid.strikes.tolist(),
                "maturities": grid.maturities.tolist(),
                "w": w.w.tolist(),
                "values": noisy.values.tolist(),
                "clean": clean.values.tolist(),
            }
            (self.out / "surfaces.json").write_text(
                json.dumps(doc, sort_keys=True, default=_json_default))

    def stage_fit(self):
        grid: Grid2D = self.art["grid"]
        sm = self.config["smolyak"]
        domain = ((grid.strikes[0], grid.strikes[-1]),
                  (grid.maturities[0], grid.maturities[-1]))

        def interp_target(surface):
            vals = surface.values

            def target(X, Y):
                return _bilinear_eval(grid.strikes, grid.maturities, vals,
                                      np.asarray(X, float), np.asarray(Y, float))
            return target

        acfg = AnisotropyConfig(level_L=sm["level"])
        fit_noisy = smolyak_fit(interp_target(self.art["noisy"]), acfg, domain)
        fit_clean = smolyak_fit(interp_target(self.art["clean"]), acfg, domain)
        KK, TT = np.meshgrid(grid.strikes, grid.maturities)
        pts = np.column_stack([KK.ravel(), TT.ravel()])
        G_hat = Surface(np.maximum(fit_noisy.evaluate(pts).reshape(grid.shape), 0.0),
                        grid)
        G_clean = Surface(np.maximum(fit_clean.evaluate(pts).reshape(grid.shape), 0.0),
                          grid)

        net = compile_to_relu(fit_noisy)
        t0 = time.perf_counter()
        rng = np.random.default_rng(self._seed("relu-audit"))
        sample = np.column_stack([
            rng.uniform(grid.strikes[0], grid.strikes[-1], 2000),
            rng.uniform(grid.maturities[0], grid.maturities[-1], 2000),
        ])
        maxabs = float(np.max(np.abs(net.evaluate(sample)
                                     - fit_noisy.evaluate(sample))))
        self.summary["meta"]["wall_relu_audit"] = time.perf_counter() - t0

        frontier = error_frontier(interp_target(self.art["noisy"]),
                                  sm["frontier_levels"], acfg, domain,
                                  compile_nets=False,
                                  fits={sm["level"]: fit_noisy})
        # only the fitted level is compiled; the others keep None
        for row in frontier:
            if row["level"] == sm["level"]:
                row["param_count"] = net.param_count
        w = self.art["weight"]
        Z = weighted_norm(self.art["clean"], w, grid)
        self.art.update(G_hat=G_hat, Z=Z)
        self.summary["C1"] = {
            "level": sm["level"],
            "node_count": fit_noisy.n_vertices,
            "param_count": net.param_count,
            "depth": net.depth,
            "relu_maxabs": maxabs,
            "c1_error": weighted_norm(G_clean.values - self.art["clean"].values,
                                      w, grid) / Z,
            "erm_heldout": weighted_norm(G_hat.values - self.art["noisy"].values,
                                         w, grid) / Z,
            "frontier": [{k: v for k, v in r.items() if k != "wall_seconds"}
                         for r in frontier],
        }
        self._gate("C1_relu", maxabs, RELU_MAXABS_PASS,
                   maxabs <= RELU_MAXABS_PASS)
        if self.out:
            _write_csv(self.out / "frontier.csv",
                       ["level", "node_count", "param_count", "weighted_error",
                        "wall_seconds"],
                       [[r["level"], r["node_count"], r["param_count"],
                         r["weighted_error"], r["wall_seconds"]]
                        for r in frontier])

    def stage_bridge(self):
        grid: Grid2D = self.art["grid"]
        # the triad: the middle maturity and one on either side of it
        center = grid.maturities.size // 2
        marginals = [extract_density(self.art["G_hat"], grid, center + k)[0]
                     for k in (-1, 0, 1)]
        x = grid.strikes / self.config["market"]["spot"]
        problem = bridge_mod.TriMarginalProblem(
            x, *marginals, feature_kind=BRIDGE_FEATURES, rank=BRIDGE_RANK)
        kernels = bridge_mod.build_bridge(problem)
        state, certs = bridge_mod.tri_sinkhorn(problem, kernels, tol=BRIDGE_TOL)
        self.art["bridge_certs"] = certs
        self.summary["C2"] = {
            "KKT": certs.kkt,
            "KKT_components": list(certs.kkt_components),
            "rgeo": certs.r_geo,
            "rgeo_iqr": list(certs.ratio_iqr),
            "muhat": certs.mu_hat,
            "eta": state.eta,
            "iterations": certs.iterations,
            "epsilon_final": certs.epsilon_final,
            "delta_lowrank": certs.delta_lowrank,
            "fallbacks_taken": list(certs.fallbacks_taken),
            "converged": certs.converged,
            "trace": [list(r) for r in state.residual_trace],
        }
        self._gate("C2_kkt", certs.kkt, bridge_mod.KKT_PASS, certs.pass_kkt)
        self._gate("C2_rgeo", certs.r_geo, bridge_mod.RGEO_PASS,
                   certs.pass_rgeo)
        self._gate("C2_muhat", certs.mu_hat, list(bridge_mod.MUHAT_BAND),
                   certs.pass_muhat)
        if self.out:
            _write_csv(self.out / "residual_trace.csv",
                       ["iteration", "r1", "r2", "r3", "martingale", "max"],
                       [[i] + list(r) for i, r in
                        enumerate(state.residual_trace)])

    def stage_project(self):
        grid: Grid2D = self.art["grid"]
        w: WeightField = self.art["weight"]
        certs = projection_certificates(
            self.art["noisy"], w, trials=self.config["projection"]["lip_trials"],
            rng_seed=self._seed("lip-pairs"))
        warm = ProjectionWarmStart()
        proj = project_to_cone(self.art["G_hat"], w, warm=warm)
        self.art["C_proj"] = proj
        self._count_projections("certificates", certs.projections)
        self._count_projections("project", warm.counters())
        self.summary["C3"] = {
            "lip_emp": certs.lip_emp,
            "lip_certified": certs.lip_certified,
            "error_bound_max": certs.projections["error_max"],
            "pair_distance_min": certs.pair_distance_min,
            "dup_ok": certs.dup_ok,
            "dup_tv_path": certs.dup_tv_path.tolist(),
            "feasibility_violation": feasibility_violation(proj.values, grid),
        }
        self._gate("C3_lip", certs.lip_certified, LIP_PASS,
                   certs.lip_certified <= LIP_PASS)
        self._gate("C3_dup", bool(certs.dup_ok), True, certs.dup_ok)

    def stage_gate(self):
        cfg = self.config
        cc = cfg["chain"]
        grid: Grid2D = self.art["grid"]
        n_mat = cc["n_maturities_used"]
        tau_idx = np.linspace(0, grid.maturities.size - 1, n_mat).round().astype(int)
        densities = [extract_density(self.art["C_proj"], grid, int(i))[0]
                     for i in tau_idx]
        sizes = list(cc["sizes"])
        edge_w = np.full(n_mat - 1, 1.0 / (n_mat - 1))
        atoms = grid.strikes / cfg["market"]["spot"]
        values = []
        for s_i, n_s in enumerate(sizes):
            counts = [cs.atom_counts(
                sample_clouds(d, atoms, [n_s],
                              seed=self._seed(f"cloud-{s_i}-{m}"))[0], atoms)
                      for m, d in enumerate(densities)]
            total, _, kernels = cs.chain_energy_counts(counts, atoms, edge_w)
            values.append(total)
        # the largest size's kernels, one per edge
        kernel_scales = [k.components[-1][1] for k in kernels]
        values = np.asarray(values)
        alphas = cs.bartlett_alphas(values - np.minimum.accumulate(values))
        neff = np.asarray([cs.n_eff(n, alphas) for n in sizes])
        series = cs.ChainSeries(np.asarray(sizes, float), values, neff)
        decision = cs.gate_v2(series)
        self.art["gate_decision"] = decision
        self.summary["R2"] = {
            "sizes": sizes,
            "values": values.tolist(),
            "neff_tail": neff[decision.tail_indices[0]:].tolist(),
            "slope": decision.slope_tail,
            "area_drop": decision.area_drop,
            "bands": {"slope": decision.band_slope, "area": decision.band_area},
            "pass": decision.passed,
            "envelope_direction": decision.envelope_direction,
            "fir_l1": decision.fir_l1,
            "pair_kernel_scales": kernel_scales,
        }
        self._gate("R2_gate", [decision.slope_tail, decision.area_drop],
                   [cs.SLOPE_PASS, cs.AREA_PASS],
                   decision.passed)
        if self.out:
            _write_csv(self.out / "chain_series.csv",
                       ["size", "chain_mmd2", "neff"],
                       list(zip(sizes, values.tolist(), neff.tolist())))

    def stage_descend(self):
        grid: Grid2D = self.art["grid"]
        w: WeightField = self.art["weight"]
        T = grid.maturities.size
        graph = descent_mod.path_laplacian(T, np.ones(T - 1))
        dcfg = descent_mod.DescentConfig(
            eta0=DESCENT_ETA0, noise_sigma=DESCENT_NOISE_SIGMA,
            lambda_chain=DESCENT_LAMBDA_CHAIN,
            steps=self.config["descent"]["steps"])
        warm = ProjectionWarmStart()

        def projector(states):
            return project_to_cone(states, w, grid=grid, warm=warm).values

        traj, final = descent_mod.projected_descent(
            self.art["C_proj"].values, self.art["G_hat"].values, graph,
            projector, dcfg, seed=self._seed("descent"))
        C_hat = Surface(np.maximum(final, 0.0), grid)
        self.art.update(descent_traj=traj, C_hat=C_hat, graph=graph)
        self._count_projections("descent", warm.counters())
        energies = [r["chain_energy"] for r in traj]
        log_e = np.log(np.asarray(energies) + 1e-300)
        slope = float(np.polyfit(np.arange(log_e.size), log_e, 1)[0])
        passed = energies[-1] <= energies[0] * (1 + 1e-9)
        self.summary["C4"] = {
            "lambda2": graph.lambda2,
            "initial_energy": energies[0],
            "final_energy": energies[-1],
            "log_slope": slope,
            "accept_rate": float(np.mean([r["accepted"] for r in traj])),
            "pass": bool(passed),
        }
        self._gate("C4_decay", [energies[0], energies[-1]], "nonincrease",
                   passed)
        if self.out:
            _write_csv(self.out / "descent_trajectory.csv",
                       ["step", "chain_energy", "data_fit", "accepted"],
                       [[r["step"], r["chain_energy"], r["data_fit"],
                         int(r["accepted"])] for r in traj])

    def stage_risk(self):
        grid: Grid2D = self.art["grid"]
        w: WeightField = self.art["weight"]
        Z = self.art["Z"]
        C_hat: Surface = self.art["C_hat"]
        warm = ProjectionWarmStart()
        C_out = project_to_cone(C_hat, w, warm=warm)
        self._count_projections("risk", warm.counters())
        clean: Surface = self.art["clean"]
        certs: bridge_mod.CertificateSet = self.art["bridge_certs"]
        decision: cs.GateDecision = self.art["gate_decision"]
        graph = self.art["graph"]

        e_prox = risk_mod.eps_prox(C_hat, C_out, clean, w, grid=grid)
        chain_energy_now = self.art["descent_traj"][-1]["chain_energy"] / Z**2
        inputs = {
            "c1_error": self.summary["C1"]["c1_error"],
            "c1_stat": 0.0,
            "erm_term": self.summary["C1"]["erm_heldout"],
            "kkt": certs.kkt,
            "r_geo": certs.r_geo,
            "T": certs.iterations,
            "mu_hat": certs.mu_hat,
            "eps": certs.epsilon_final,
            "delta_mr": certs.delta_lowrank,
            "chain_energy": chain_energy_now,
            "tol_band": decision.band_slope,
            "lambda2": graph.lambda2,
            "slope_plus": max(decision.slope_tail, 0.0),
            "area_minus": max(-decision.area_drop, 0.0),
            "eps_prox": e_prox,
        }
        budget = risk_mod.assemble_risk(inputs)
        measured = 1.0 + weighted_norm(C_out.values - clean.values, w, grid) / Z
        bound_ok = measured <= budget.total * (1 + 1e-12)
        self.summary["Risk"] = {
            "total": budget.total,
            "log_terms": list(budget.log_terms),
            "factors": list(budget.factors),
            "chain_forms": budget.chain_forms,
            "measured_dimensionless": measured,
            "inputs": inputs,
            "bound_holds": bool(bound_ok),
        }
        self._gate("Risk_bound", measured, budget.total, bound_ok)


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, indent=1, default=_json_default)


def strip_meta(summary: dict) -> dict:
    return {k: v for k, v in summary.items() if k != "meta"}


def run_pipeline(config: dict | RunConfig | None = None, out_dir=None,
                 stage: str = STAGES[-1]):
    """Run ``stage`` after the stages it depends on (by default the full
    loop); returns (summary, exit_status), 0 iff every gate run passes.

    Every run ends alike: gates, ``all_pass`` and ``meta.timestamp`` in the
    summary, written to ``summary.json`` under ``out_dir`` if set.  A stage
    that raises is re-raised as a RuntimeError naming it (bridge convergence
    failures surface as a failed C2 gate instead); an unusable ``out_dir``
    raises OSError.
    """
    if stage not in STAGE_DEPS:
        raise ValueError(f"unknown stage {stage!r}: expected one of {STAGES}")
    ctx = PipelineContext(config, out_dir)
    for name in STAGE_DEPS[stage] + (stage,):
        try:
            ctx._timed(name, getattr(ctx, f"stage_{name}"))
        except Exception as exc:
            raise RuntimeError(f"pipeline stage '{name}' failed: {exc}") from exc
    ctx.summary["gates"] = ctx.gates
    ctx.summary["all_pass"] = bool(all(g["pass"] for g in ctx.gates.values()))
    ctx.summary["meta"]["timestamp"] = time.time()
    if ctx.out:
        (ctx.out / "summary.json").write_text(summary_to_json(ctx.summary))
    return ctx.summary, (0 if ctx.summary["all_pass"] else 1)
