"""Grand-microcanonical density over projection probabilities.

Fixing every projection probability p_k = |<E_k|psi>|^2 of a pure state
slices the state manifold into tori, and the induced density on the
probability simplex is the constant pi^n (n = dim - 1).  The
three-level closed form is kept verbatim, step functions and all; the
general-dimension constant is verified against Monte-Carlo histograms
rather than assumed.  Integrating the energy constraint back out
recovers the energy density of states exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .spectrum import Spectrum, state_volume


def _upsilon(x: float) -> float:
    # step convention: -1 on x <= 0, +1 on x > 0
    return -1.0 if x <= 0.0 else 1.0


@dataclass(frozen=True)
class GrandDos:
    """Constant density pi^(dim-1) on the open probability simplex.

    Support is {p in R^(dim-1): p_k > 0, sum(p) < 1}; the boundary
    carries value 0 (a measure-zero convention, irrelevant to every
    integral).
    """

    dim: int

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 2:
            raise InvalidInputError("dim must be an integer >= 2")
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def value(self) -> float:
        return math.pi ** (self.dim - 1)

    @property
    def integral(self) -> float:
        # simplex volume 1/n! times the constant
        return state_volume(self.dim)

    def density(self, p) -> float:
        return grand_dos_general(p, self.dim)


def grand_dos(p: float, q: float, dim: int = 3) -> float:
    """Three-level grand density at (p, q), step functions verbatim.

    pi^2 inside the simplex, 0 outside; the boundary follows the step
    convention literally (the diagonal p + q = 1 keeps the interior
    value, the p = 0 and q = 0 edges drop to 0).
    """
    if dim != 3:
        raise InvalidInputError("closed form is for dim = 3; see grand_dos_general")
    return (
        0.25
        * math.pi**2
        * (_upsilon(p) - _upsilon(p + q - 1.0))
        * (_upsilon(q) - _upsilon(q - 1.0))
    )


def grand_dos_general(p, dim: int) -> float:
    """Constant pi^(dim-1) strictly inside the simplex, 0 elsewhere."""
    if int(dim) != dim or dim < 2:
        raise InvalidInputError("dim must be an integer >= 2")
    pv = np.asarray(p, dtype=float).reshape(-1)
    if pv.size != dim - 1:
        raise InvalidInputError(
            f"need {dim - 1} probabilities for dim = {dim}, got {pv.size}"
        )
    if np.all(pv > 0.0) and float(pv.sum()) < 1.0:
        return math.pi ** (dim - 1)
    return 0.0


def marginalize_to_energy(s: Spectrum, e):
    """Integrate the energy constraint out of the three-level grand density.

    Solving p*E1 + q*E2 + (1-p-q)*E3 = E for p and integrating the
    constant density over the feasible q section gives pi^2 times the
    section length over the Jacobian |E3 - E1| -- identical to the
    exact density of states.  Energies outside [E1, E3] give 0.
    Accepts a scalar or an array of energies.
    """
    if s.dim != 3 or not s.nondegenerate:
        raise InvalidInputError("marginalization needs a nondegenerate three-level spectrum")
    e1, e2, e3 = (float(v) for v in s.energies)
    es = np.asarray(e, dtype=float)
    scalar = es.ndim == 0
    esv = np.atleast_1d(es)
    section = np.minimum((esv - e1) / (e2 - e1), (e3 - esv) / (e3 - e2))
    out = math.pi**2 / (e3 - e1) * np.clip(section, 0.0, None)
    return float(out[0]) if scalar else out
