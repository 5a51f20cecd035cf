"""Heuristic projections of the pair count and the reciprocal sum.

The conjectured density of twin pairs gives pi2(x) ~ C integral from 2 to
x of dt/log^2 t, and correspondingly B(x) ~ B - 2C/log x.  Feeding those
predictions through the certified tail assembly shows where the upper
bound would land if a census ever reached 10^k.

Nothing here is rigorous: the predictions use a midpoint twin constant
and fixed composite Gauss-Legendre quadrature, and every output carries
a permanent ``non_rigorous`` flag.  The certifying entry points accept
censused integers only, so projections cannot leak into a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from .interval import Interval
from .rv_bound import brun_upper

__all__ = [
    "DEFAULT_B_ASSUMED",
    "Projection",
    "TWIN_C_MID",
    "predict_brun_partial",
    "predict_pi2",
    "project_table",
]

#: Midpoint of the twin prime constant, a plain double, not an enclosure.
TWIN_C_MID = 1.3203236316937391

#: Conjectured value of the full reciprocal sum used as the projection
#: basis; the center of the best published statistical estimate.
DEFAULT_B_ASSUMED = 1.9021605832

#: 20-point Gauss-Legendre rule on [-1, 1], applied to each panel of predict_pi2.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


@dataclass(frozen=True)
class Projection:
    """One projected row: threshold 10^k and the numbers it would yield."""

    k: int
    pi2_pred: float
    b_pred: float
    upper_pred: float
    non_rigorous: bool = True

    def __post_init__(self):
        if self.non_rigorous is not True:
            raise ValueError("projections are never rigorous")
        if self.pi2_pred <= 0:
            raise ValueError(f"nonpositive pair count prediction: {self.pi2_pred}")
        if not self.b_pred < DEFAULT_B_ASSUMED:
            raise ValueError(
                f"partial sum prediction {self.b_pred} must sit below "
                f"the assumed limit {DEFAULT_B_ASSUMED}"
            )


def predict_pi2(x: float) -> float:
    """Predicted pair count: C integral from 2 to x of dt/log^2 t.

    Integrates in the shifted log coordinate v = log x - log t, where the
    integrand x e^(-v)/(log x - v)^2 decays instead of blowing up, with a
    fixed composite Gauss-Legendre rule: 20 nodes on each of the
    ceil(log(x/2)) equal panels of width at most 1.  Heuristic output only.
    """
    if not (x > 2.0 and math.isfinite(x)):
        raise ValueError(f"need finite x > 2: {x}")
    lx = math.log(x)
    span = lx - math.log(2.0)
    panels = math.ceil(span)
    half = 0.5 * span / panels
    v = np.linspace(0.0, span, panels + 1)[:-1, None] + half * (_GL_NODES + 1.0)
    integral = half * float(np.sum(_GL_WEIGHTS * np.exp(-v) / (lx - v) ** 2))
    return TWIN_C_MID * x * integral


def predict_brun_partial(n: float) -> float:
    """Predicted partial sum at n: the assumed limit minus 2C/log n."""
    if not n > 1.0:
        raise ValueError(f"need n > 1: {n}")
    return DEFAULT_B_ASSUMED - 2.0 * TWIN_C_MID / math.log(n)


def project_table(ks: Iterable[int]) -> List[Projection]:
    """Project the certified assembly onto hypothetical censuses at 10^k.

    For each exponent, synthesize a census from the predicted pair count
    and partial sum, run the same tail machinery a real census would get
    (the default parameter set, not re-optimized per threshold), and
    report the resulting would-be upper bound.  Rows come back sorted by
    k; the projected bounds decrease as k grows.
    """
    exponents = sorted(set(int(k) for k in ks))
    if not exponents:
        raise ValueError("no thresholds given")
    if exponents[0] < 7:
        raise ValueError(f"threshold 10^{exponents[0]} below the census floor")
    if exponents[-1] > 300:
        raise ValueError(f"threshold 10^{exponents[-1]} beyond double range")
    rows = []
    for k in exponents:
        x0 = 10**k
        pi2_pred = predict_pi2(float(x0))
        b_pred = predict_brun_partial(float(x0))
        cert = brun_upper(x0, int(round(pi2_pred)), Interval.point(b_pred))
        rows.append(Projection(k=k, pi2_pred=pi2_pred, b_pred=b_pred, upper_pred=cert.upper))
    return rows
