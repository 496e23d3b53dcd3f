"""Probabilities of causation: necessity, sufficiency, and both.

Exact values come from a full model by one elimination sweep over its
potential-outcome worlds; interval bounds come from an observational joint
over (X, Y) combined with the two experimental quantities
P(Y=y1 | do(X=x1)) and P(Y=y1 | do(X=x0)).
Convention: x1 is the treated value, y1 the response value; callers relabel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from . import ScmkitError
from .record import Record

if TYPE_CHECKING:
    from .expr import JointTable
    from .scm import DiscreteScm

__all__ = [
    "PnPsResult", "pn_ps_exact", "pnps_bounds", "BoundsError", "InconsistentInputs",
]

Bound = tuple[float, float]


class BoundsError(ScmkitError, ValueError):
    """Invalid inputs to the bounds computation."""


class InconsistentInputs(BoundsError):
    """No model yields both the experimental inputs and the observations."""
    exit_code = 3


class PnPsResult(Record):
    """PN, PS, PNS as exact probabilities or (low, high) bounds.

    A component is ``None`` when its conditioning event has probability
    zero; ``notes`` records why.
    """

    pn: Union[float, Bound, None]
    ps: Union[float, Bound, None]
    pns: Union[float, Bound, None]
    mode: str  # "exact" or "bounds"
    notes: tuple[str, ...] = ()


def _check_roles(x: str, y: str, error: type[ValueError]) -> None:
    if x == y:
        raise error("exposure and outcome must be two different variables")


def pn_ps_exact(
    m: DiscreteScm,
    x: str,
    y: str,
    x1: str = "1",
    x0: str = "0",
    y1: str = "1",
    y0: str = "0",
) -> PnPsResult:
    """Exact PN, PS, PNS from the model.

    PN  = P(Y would be y0 under do(x0) | X=x1, Y=y1)
    PS  = P(Y would be y1 under do(x1) | X=x0, Y=y0)
    PNS = P(Y is y1 under do(x1) and y0 under do(x0))
    """
    from .scm import ScmError, _check_endo_assignment, _conditional_pass

    _check_roles(x, y, ScmError)
    for var in (x, y):
        if var not in m.endogenous:
            raise ScmError(f"{var} is not an endogenous variable")
    for label, var, value in (("x1", x, x1), ("x0", x, x0), ("y1", y, y1), ("y0", y, y0)):
        _check_endo_assignment(m, [(var, value)], label)
    (pn, ps, pns), _ = _conditional_pass(m, [
        ({x: x1, y: y1}, [({x: x0}, {y: y0})]),
        ({x: x0, y: y0}, [({x: x1}, {y: y1})]),
        ({}, [({x: x1}, {y: y1}), ({x: x0}, {y: y0})]),
    ])
    notes = tuple(
        f"{name} undefined: P({x}={xv}, {y}={yv}) = 0"
        for name, value, xv, yv in (("PN", pn, x1, y1), ("PS", ps, x0, y0))
        if value is None
    )
    return PnPsResult(pn=pn, ps=ps, pns=pns, mode="exact", notes=notes)


def pnps_bounds(
    obs: JointTable,
    px1: float,
    px0: float,
    x: str = "X",
    y: str = "Y",
    x1: str = "1",
    x0: str = "0",
    y1: str = "1",
    y0: str = "0",
) -> PnPsResult:
    """Tight bounds from observational plus experimental information.

    ``px1`` and ``px0`` are P(Y=y1 | do(X=x1)) and P(Y=y1 | do(X=x0)); one
    within 1e-9 outside its consistency band is read at the band's edge.  The
    bounds hold for a binary exposure and outcome, so either one with more
    than two values of positive probability is refused, as is ``x1 == x0``
    or ``y1 == y0``.
    """
    _check_roles(x, y, BoundsError)
    if x1 == x0:
        raise BoundsError(f"x1 and x0 must be two different values of {x}")
    if y1 == y0:
        raise BoundsError(f"y1 and y0 must be two different values of {y}")
    for p, name in ((px1, "px1"), (px0, "px0")):
        if not 0.0 <= p <= 1.0:
            raise BoundsError(f"{name}={p} is not a probability")
    for var in (x, y):
        if var not in obs.variables:
            raise BoundsError(f"observational table lacks variable {var}")
    for label, var, value in (("x1", x, x1), ("x0", x, x0), ("y1", y, y1), ("y0", y, y0)):
        if value not in obs.domains[var]:
            raise BoundsError(f"{label} value {value!r} not in the domain of {var}")
    for role, var in (("exposure", x), ("outcome", y)):
        observed = [v for v in obs.domains[var] if obs.prob({var: v}) > 0.0]
        if len(observed) > 2:
            raise BoundsError(
                f"{role} {var} has {len(observed)} observed values; the Tian-Pearl"
                " bounds need a binary exposure and outcome"
            )

    p_y = obs.prob({y: y1})
    p_x1y1 = obs.prob({x: x1, y: y1})
    p_x1y0 = obs.prob({x: x1, y: y0})
    p_x0y1 = obs.prob({x: x0, y: y1})
    p_x0y0 = obs.prob({x: x0, y: y0})
    # Tian-Pearl consistency: Y_x = Y wherever X = x, so
    # P(x, y1) <= P(y1 | do(x)) <= 1 - P(x, y0)
    bands = [("px1", px1, x1, p_x1y1, 1.0 - p_x1y0), ("px0", px0, x0, p_x0y1, 1.0 - p_x0y0)]
    for name, p, xv, lo, hi in bands:
        if not lo - 1e-9 <= p <= hi + 1e-9:
            raise InconsistentInputs(
                f"{name}={p} is incompatible with the observational table: "
                f"P({x}={xv},{y}={y1}) <= {name} <= 1 - P({x}={xv},{y}={y0}) "
                f"requires {lo:.6f} <= {name} <= {hi:.6f}"
            )
    # an input accepted within the slack is read at the band's edge
    px1, px0 = (min(max(p, lo), hi) for _, p, _, lo, hi in bands)

    pns_lo = max(0.0, px1 - px0, p_y - px0, px1 - p_y)
    pns_hi = min(px1, 1.0 - px0, p_x1y1 + p_x0y0, px1 - px0 + p_x1y0 + p_x0y1)
    pns = _bound("PNS", pns_lo, pns_hi)

    notes: list[str] = []
    pn: Bound | None
    if p_x1y1 == 0.0:
        pn = None
        notes.append(f"PN undefined: P({x}={x1}, {y}={y1}) = 0")
    else:
        pn = _bound("PN", (p_y - px0) / p_x1y1, (1.0 - px0 - p_x0y0) / p_x1y1)

    ps: Bound | None
    if p_x0y0 == 0.0:
        ps = None
        notes.append(f"PS undefined: P({x}={x0}, {y}={y0}) = 0")
    else:
        ps = _bound("PS", (px1 - p_y) / p_x0y0, (px1 - p_x1y1) / p_x0y0)

    return PnPsResult(pn=pn, ps=ps, pns=pns, mode="bounds", notes=tuple(notes))


def _bound(name: str, lo: float, hi: float) -> Bound:
    """``(lo, hi)`` clipped to [0, 1].  :func:`pnps_bounds` refuses a wider
    exposure or outcome and reads its inputs inside their bands, so the
    bounds are never empty: a rounding error that leaves ``lo`` above ``hi``
    meets them at ``hi``, and a wider gap is refused as an inconsistency."""
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    if lo - hi > 1e-9:
        raise InconsistentInputs(
            f"{name} bounds are empty ({lo:.6f} > {hi:.6f}) beyond rounding error"
        )
    return (lo, hi) if lo <= hi else (max(hi, 0.0),) * 2
