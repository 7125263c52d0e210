"""Log-additive end-to-end risk budget assembled from stage certificates.

Every stage contributes a dimensionless factor >= 1; the total is their
product, so the logs add.  The bridge factor follows the certified form
(kkt + r_geo^T)/mu_hat plus the entropic/low-rank bias, and the chain factor
takes the smaller of the direct energy form and the spectral slope/area form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid2D, Surface, WeightField, _as_values, weighted_norm

__all__ = ["RiskBudget", "eps_prox", "assemble_risk"]


@dataclass
class RiskBudget:
    eps_prox: float
    e_c1: float
    e_erm: float
    e_bridge: float
    e_chain: float
    total: float
    log_terms: tuple
    chain_forms: dict = field(default_factory=dict)

    @property
    def factors(self) -> tuple:
        return (1.0 + self.eps_prox, self.e_c1, self.e_erm, self.e_bridge,
                self.e_chain)


def eps_prox(C_pre, C_post, C_target, w: WeightField,
             grid: Grid2D | None = None) -> float:
    """Proximal budget ||post - pre||_w / ||pre - target||_w, 0 when the
    denominator vanishes."""
    if grid is None:
        for c in (C_pre, C_post, C_target):
            if isinstance(c, Surface):
                grid = c.grid
                break
    if grid is None:
        raise ValueError("grid required")
    pre = _as_values(C_pre)
    post = _as_values(C_post)
    target = _as_values(C_target)
    denom = weighted_norm(pre - target, w, grid)
    if denom == 0.0:
        return 0.0
    return float(weighted_norm(post - pre, w, grid) / denom)


def assemble_risk(inputs: dict) -> RiskBudget:
    """Assemble the five multiplicative risk factors from stage outputs.

    Every bound constant is 1: e_c1 = 1 + c1_error + c1_stat,
    e_erm = 1 + erm_term, e_bridge = 1 + (kkt + r_geo^T)/mu_hat + eps
    + delta_mr, and e_chain = 1 + min(chain_energy + tol_band,
    (max(slope_plus, 0) + max(area_minus, 0))/lambda2 + tol_band).

    Required inputs: c1_error, c1_stat, erm_term, kkt, r_geo, T, mu_hat, eps,
    delta_mr, chain_energy, tol_band, lambda2, slope_plus, area_minus,
    eps_prox.  All must be finite; mu_hat and lambda2 positive.
    """
    required = ("c1_error", "c1_stat", "erm_term", "kkt", "r_geo", "T",
                "mu_hat", "eps", "delta_mr", "chain_energy", "tol_band",
                "lambda2", "slope_plus", "area_minus", "eps_prox")
    missing = [k for k in required if k not in inputs]
    if missing:
        raise ValueError(f"missing risk inputs: {missing}")
    vals = {k: float(inputs[k]) for k in required}
    if not all(np.isfinite(v) for v in vals.values()):
        raise ValueError("risk inputs must be finite")
    if vals["mu_hat"] <= 0:
        raise ValueError("mu_hat must be positive")
    if vals["lambda2"] <= 0:
        raise ValueError("lambda2 must be positive")

    e_c1 = 1.0 + vals["c1_error"] + vals["c1_stat"]
    e_erm = 1.0 + vals["erm_term"]
    e_bridge = (1.0
                + (vals["kkt"] + vals["r_geo"] ** vals["T"]) / vals["mu_hat"]
                + (vals["eps"] + vals["delta_mr"]))
    chain_direct = vals["chain_energy"] + vals["tol_band"]
    chain_spectral = (1.0 / vals["lambda2"]
                      * (max(vals["slope_plus"], 0.0)
                         + max(vals["area_minus"], 0.0))
                      + vals["tol_band"])
    e_chain = 1.0 + min(chain_direct, chain_spectral)

    factors = np.array([1.0 + vals["eps_prox"], e_c1, e_erm, e_bridge, e_chain])
    if np.any(factors < 1.0):
        raise ValueError("risk factors must all be >= 1")
    total = float(np.prod(factors))
    log_terms = tuple(float(np.log(f)) for f in factors)
    return RiskBudget(
        eps_prox=vals["eps_prox"],
        e_c1=float(e_c1),
        e_erm=float(e_erm),
        e_bridge=float(e_bridge),
        e_chain=float(e_chain),
        total=total,
        log_terms=log_terms,
        chain_forms={"direct": float(chain_direct),
                     "spectral": float(chain_spectral)},
    )
