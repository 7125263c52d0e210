"""arbsurf: certified arbitrage-free option surface calibration.

Everything is measured in one vega-weighted L2 norm: sparse-grid CPWL
fitting with exact ReLU compilation, a martingale-constrained entropic
bridge with audit certificates, the weighted projection onto the
no-arbitrage cone, chain-consistency statistics with the Gate-V2 decision
rule, a projected-descent decay harness, and a log-additive risk budget.
"""

from .grid import (Grid2D, Surface, WeightField, check_mesh_admissibility,
                   uniform_weight, unweighted_norm, vega_bump_weight,
                   weighted_inner, weighted_norm)
from .fd import (DupireField, FdConfig, dupire_field, dupire_total_variation,
                 fd_derivatives)
from .cpwl import CpwlFunction, ReluNet, compile_to_relu, triangulate_tensor_grid
from .smolyak import (AnisotropyConfig, build_index_set, error_frontier,
                      smolyak_fit)
from .projection import (ProjectionCertificates, ProjectionWarmStart,
                         project_to_cone, projection_certificates)
from .bridge import (BridgeState, CertificateSet, TriMarginalProblem,
                     build_bridge, certify, dual_value, kkt_residual,
                     primal_value, tri_sinkhorn)
from .chainstats import (ChainSeries, GateDecision, KernelMixture, gate_v2,
                         n_eff, pav_isotonic, tail_diagnostics, tolerance_band)
from .descent import (DescentConfig, PathGraph, chain_dirichlet_energy,
                      path_laplacian, projected_descent)
from .risk import RiskBudget, assemble_risk, eps_prox
from .synth import (MarketParams, bs_price, bs_vega, extract_density,
                    generate_surface, sample_clouds)
from .pipeline import DEFAULT_CONFIG, RunConfig, run_pipeline

__version__ = "0.1.0"
