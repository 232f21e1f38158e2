"""Weight adjustment: coordinate descent with golden-section line search.

The data bits of a model are minimized one weight at a time inside a fixed
bracket, keeping every other weight put. Weight-table bits are held fixed
during the search and settled afterwards, when weights are scaled into
(0, 1) and rounded to the working precision. Many independent one-weight
problems (lanes) can also be searched in lockstep, with one vectorised
objective call per iteration for all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .encoding import Model, SequenceScorer, quantize_weight
from .sequence import Sequence

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Relative headroom so the largest normalized weight lands strictly below 1.
NORMALIZE_MARGIN = 1e-9

#: Weight at which a screened rule enters the model before its line search.
INITIAL_WEIGHT = 1.0


@dataclass(frozen=True)
class OptimizerConfig:
    lower: float = 1e-6
    upper: float = 1e3
    tolerance: float = 1e-3
    passes: int = 1

    def __post_init__(self) -> None:
        settings = (self.lower, self.upper, self.tolerance)
        if not all(math.isfinite(v) for v in settings):
            raise ValueError("search bracket and tolerance must be finite")
        if not self.lower < self.upper:
            raise ValueError("search bracket must satisfy lower < upper")
        if self.lower <= 0.0:
            raise ValueError("search bracket must be strictly positive")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.passes < 1:
            raise ValueError("at least one pass required")


def golden_section_minimize(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Argmin of a unimodal scalar function on [lo, hi].

    Within tol of the true minimizer for unimodal f; a local minimizer
    inside the bracket otherwise. One evaluation per iteration after the
    first two; non-finite values abort.
    """
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")

    def checked(x: float) -> float:
        y = f(x)
        if not math.isfinite(y):
            raise ValueError(f"objective returned a non-finite value at {x}")
        return y

    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = checked(c), checked(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = checked(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = checked(d)
    return 0.5 * (a + b)


def golden_section_lanes(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    tol: float,
) -> np.ndarray:
    """Lane-wise argmin of f on [lo, hi], one golden-section search per lane.

    f maps one point per lane to one value per lane, and lane i is
    searched on f(x)[i] alone. Every lane takes the steps, and returns the
    point, that `golden_section_minimize` would on that function; a lane
    stops once its own bracket is within tol while the others go on.
    Each iteration is one call of f for all lanes; non-finite values in
    a running lane abort.
    """
    a = np.array(lo, dtype=np.float64)
    b = np.array(hi, dtype=np.float64)
    if not np.all(a < b):
        raise ValueError("bracket must satisfy lo < hi")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")

    def checked(x: np.ndarray, live: np.ndarray) -> np.ndarray:
        y = f(x)
        bad = live & ~np.isfinite(y)
        if bad.any():
            at = x[np.flatnonzero(bad)[0]]
            raise ValueError(f"objective returned a non-finite value at {at}")
        return y

    live = np.ones(a.shape, dtype=bool)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = checked(c, live), checked(d, live)
    live = b - a > tol
    while live.any():
        left = live & (fc < fd)
        right = live & ~left
        # Left lanes keep [a, d] and reuse c as their new d; right lanes
        # keep [c, b] and reuse d as their new c. Each gets one new point.
        b, d, fd, a, c, fc = (
            np.where(left, d, b),
            np.where(left, c, d),
            np.where(left, fc, fd),
            np.where(right, c, a),
            np.where(right, d, c),
            np.where(right, fd, fc),
        )
        x = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fx = checked(x, live)
        c, fc = np.where(left, x, c), np.where(left, fx, fc)
        d, fd = np.where(right, x, d), np.where(right, fx, fd)
        live = b - a > tol
    return 0.5 * (a + b)


def coordinate_step(
    scorer: SequenceScorer, index: int, config: OptimizerConfig
) -> bool:
    """Golden-section search on one weight; commit only strict improvements."""
    objective, _ = scorer.weight_objective(index)
    best = golden_section_minimize(
        objective, config.lower, config.upper, config.tolerance
    )
    if objective(best) < scorer.data_bits:
        scorer.set_weight(index, best)
        return True
    return False


def lane_steps(
    f: Callable[[np.ndarray], np.ndarray],
    initial: np.ndarray,
    config: OptimizerConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """`coordinate_step` for independent one-weight lanes, in lockstep.

    f gives each lane's data bits at one weight per lane. A lane moves to
    its golden-section argmin only when that strictly improves on its
    initial weight. Returns each lane's weight and its value of f there.
    """
    best = golden_section_lanes(
        f,
        np.full(initial.shape, config.lower),
        np.full(initial.shape, config.upper),
        config.tolerance,
    )
    at_best, at_initial = f(best), f(initial)
    commit = at_best < at_initial
    return np.where(commit, best, initial), np.where(commit, at_best, at_initial)


def run_passes(scorer: SequenceScorer, config: OptimizerConfig) -> None:
    """`config.passes` descent sweeps over every rule weight, in model order."""
    for _ in range(config.passes):
        for index in range(len(scorer.rules)):
            coordinate_step(scorer, index, config)


def adjust_weights(
    m: Model, s: Sequence, config: OptimizerConfig | None = None
) -> Model:
    """Coordinate-descent passes over every rule weight, in model order.

    The result never encodes s in more data bits than the input model did.
    """
    cfg = config or OptimizerConfig()
    scorer = SequenceScorer(m, s)
    run_passes(scorer, cfg)
    return m.with_weights(scorer.weights)


def normalize_weights(m: Model) -> Model:
    """Scale all weights into (0, 1).

    Pure rescaling: predictive distributions, and therefore data bits, are
    unchanged up to float rounding.
    """
    scale = max(m.weights) * (1.0 + NORMALIZE_MARGIN)
    return m.with_weights(w / scale for w in m.weights)


def quantize_weights(m: Model) -> Model:
    """Round normalized weights to the model's decimal precision.

    This is the form that serializes exactly; weight-table bits computed
    before and after quantization agree.
    """
    return m.with_weights(
        quantize_weight(w, m.precision) for w in m.weights
    )
