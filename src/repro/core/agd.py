"""Approximate gradient descent within BO (§4.3, Eq. 9–11).

Every ``N_AGD`` iterations the next configuration is produced not by
the acquisition function but by one gradient step from the incumbent:

- ``∂R/∂x`` comes from the exact white-box resource function
  :func:`repro.core.objective.resource`, central-differenced through the
  unit mapping (so it sees the same grid the configs are snapped to),
- ``∂T/∂x`` is approximated by a central finite difference of the
  *runtime surrogate* (Eq. 10) — no extra job executions,
- the generalized objective's partial derivative combines them via
  Eq. 9, and each numeric parameter moves by ``-η · ∂f/∂x`` (Eq. 11).

Steps are taken in the unit cube (chain rule through the unit mapping),
with an additional norm clip so one step cannot jump across the space
— raw-scale η=0.001 (paper) translates to microscopic unit steps for
wide log-ranged integers, so the clip keeps AGD useful at every scale.
Categorical parameters have no gradient and are left unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.bo import append_datasize
from repro.core.config_space import ConfigSpace
from repro.core.gp import GaussianProcess
from repro.core.objective import resource

N_AGD = 5        # every N_AGD-th iteration uses AGD instead of EIC (paper value)
ETA = 0.001      # paper's learning rate (raw objective scale)
FD_EPS = 0.05    # finite-difference half-width in unit space
MAX_STEP = 0.08  # unit-space norm clip per AGD move


@dataclass
class AGDStepper:
    """One approximate-gradient-descent step from the incumbent config."""

    space: ConfigSpace
    beta: float

    def step(
        self,
        best_config: dict,
        runtime_gp: GaussianProcess,
        *,
        datasize_feature: float | None = None,
        dims: list[int] | None = None,
    ) -> dict:
        """Return the next configuration (Eq. 11) from ``best_config``."""
        u = self.space.to_unit(best_config)
        cat = self.space.cat_mask
        dims = [i for i in (dims if dims is not None else range(self.space.dim)) if not cat[i]]

        def predict_T(uu: np.ndarray) -> float:
            x = uu[None, :] if datasize_feature is None else append_datasize(uu[None, :], datasize_feature)
            mu, _ = runtime_gp.predict(x)
            # the generator's runtime GP is fit on log-runtime; Eq. 9/10
            # need T itself, so map back before differencing
            return float(np.exp(mu[0]))

        def R_of(uu: np.ndarray) -> float:
            return resource(self.space.from_unit(uu))

        grad = np.zeros(self.space.dim)
        T0, R0 = max(predict_T(u), 1e-9), max(R_of(u), 1e-9)
        ratio = T0 / R0
        for i in dims:
            up, dn = u.copy(), u.copy()
            up[i] = min(1.0, u[i] + FD_EPS)
            dn[i] = max(0.0, u[i] - FD_EPS)
            width = up[i] - dn[i]
            if width <= 0:
                continue
            dT = (predict_T(up) - predict_T(dn)) / width       # Eq. 10
            dR = (R_of(up) - R_of(dn)) / width                 # analytic in x,
            # finite-differenced through the unit mapping for the chain rule
            grad[i] = (
                self.beta * ratio ** (self.beta - 1.0) * dT
                + (1.0 - self.beta) * ratio**self.beta * dR
            )                                                   # Eq. 9
        step = ETA * grad
        norm = float(np.linalg.norm(step))
        if norm > MAX_STEP:
            step *= MAX_STEP / norm
        elif 0.0 < norm < 0.02:
            # η=0.001 on a well-scaled surrogate stalls in unit space;
            # take a short fixed-length step along the gradient instead
            step *= 0.02 / norm
        return self.space.from_unit(np.clip(u - step, 0.0, 1.0))
