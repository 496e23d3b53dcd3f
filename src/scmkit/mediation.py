"""Natural direct and indirect effects through a single mediator.

Two routes to the same report: exact nested counterfactuals from a full
model, or the mediation formula applied to data under the unconfounded
exposure -> mediator -> outcome triangle.  Confounded data-mode requests are
refused rather than approximated.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import ScmkitError
from .record import Record

if TYPE_CHECKING:
    from .estimate import Dataset
    from .expr import JointTable
    from .graph import Admg
    from .scm import DiscreteScm

__all__ = [
    "MediationReport",
    "ConfoundedMediator",
    "mediation_effects_scm",
    "mediation_effects_data",
]


class ConfoundedMediator(ScmkitError, ValueError):
    """The supplied graph is not the unconfounded mediation triangle."""


class MediationReport(Record):
    te: float
    nde: float
    nie: float
    nie_reversed: float
    mediated_fraction: float | None  # None when the total effect is ~0
    source: str  # "scm-exact" or "data-formula"


def _report(te: float, nde: float, nie: float, nie_rev: float, source: str) -> MediationReport:
    frac = nie / te if abs(te) > 1e-9 else None
    return MediationReport(
        te=te, nde=nde, nie=nie, nie_reversed=nie_rev,
        mediated_fraction=frac, source=source,
    )


def mediation_effects_scm(
    m: DiscreteScm,
    exposure: str,
    mediator: str,
    outcome: str,
    x0: str,
    x1: str,
) -> MediationReport:
    """Exact effects from nested counterfactual worlds.

    E[Y under do(x1) with the mediator held at its do(x0) value] and its
    three companions decompose the total effect; the identity
    te = nde - nie_reversed holds exactly.  The outcome is coded by its
    index in the model's domain.
    """
    from .scm import ScmError, _sweep

    if len({exposure, mediator, outcome}) < 3:
        raise ScmError("exposure, mediator and outcome must be three different variables")
    for var in (exposure, mediator, outcome):
        if var not in m.endogenous:
            raise ScmError(f"{var} is not an endogenous variable")
    for val in (x0, x1):
        if val not in m.endo_domains[exposure]:
            raise ScmError(f"value {val!r} not in the domain of {exposure}")
    # worlds 2 and 3 pin the mediator to its value in worlds 0 and 1
    masses, _ = _sweep(m, [
        {exposure: x0}, {exposure: x1},
        {exposure: x1, mediator: (0, mediator)}, {exposure: x0, mediator: (1, mediator)},
    ], [(w, outcome) for w in range(4)])
    e_y_x0, e_y_x1, e_nested_10, e_nested_01 = (
        sum(w * k[i] for k, w in masses.items()) for i in range(1, 5)
    )
    te = e_y_x1 - e_y_x0
    nde = e_nested_10 - e_y_x0
    nie = e_nested_01 - e_y_x0
    nie_rev = e_nested_10 - e_y_x1
    return _report(te, nde, nie, nie_rev, "scm-exact")


def _check_triangle(g: Admg, exposure: str, mediator: str, outcome: str) -> None:
    g._check(exposure, mediator, outcome)
    trio = {exposure, mediator, outcome}
    for a, b in g.bidirected:
        if a in trio or b in trio:
            raise ConfoundedMediator(
                f"bidirected edge {a} <-> {b} touches the mediation triangle"
            )
    if (exposure, mediator) not in g.directed or (mediator, outcome) not in g.directed:
        raise ConfoundedMediator(
            "graph must contain exposure -> mediator -> outcome"
        )
    if g.parents(exposure):
        raise ConfoundedMediator("exposure must have no parents in data mode")
    if not g.parents(mediator) <= {exposure}:
        raise ConfoundedMediator("mediator parents must be a subset of {exposure}")
    if not g.parents(outcome) <= {exposure, mediator}:
        raise ConfoundedMediator(
            "outcome parents must be a subset of {exposure, mediator}"
        )
    for other in g.nodes - trio:
        if any(g.adjacent(other, t) for t in trio):
            raise ConfoundedMediator(
                f"{other} is adjacent to the mediation triangle; data mode "
                "supports the plain triangle only"
            )


def mediation_effects_data(
    data: Dataset | JointTable,
    g: Admg,
    exposure: str,
    mediator: str,
    outcome: str,
    x0: str,
    x1: str,
) -> MediationReport:
    """Mediation formula on a dataset (or a joint table directly).

    NDE = sum_m [E(Y|x1,m) - E(Y|x0,m)] P(m|x0) and
    NIE = sum_m E(Y|x0,m) [P(m|x1) - P(m|x0)]; with no confounding the total
    effect reduces to E(Y|x1) - E(Y|x0).  The outcome is coded by its index
    in the joint's domain.
    """
    from .expr import ConditioningOnZero, JointTable

    _check_triangle(g, exposure, mediator, outcome)
    if isinstance(data, JointTable):
        joint = data
    else:
        from .estimate import empirical_joint

        joint = empirical_joint(data.select(tuple(sorted(g.nodes))))
    def p_m_given_x(mval: str, xval: str) -> float:
        px = joint.prob({exposure: xval})
        if px == 0.0:
            raise ConditioningOnZero(f"{exposure}={xval}")
        return joint.prob({exposure: xval, mediator: mval}) / px

    def e_y(cond: dict[str, str]) -> float:
        pc = joint.prob(cond)
        if pc == 0.0:
            ctx = ",".join(f"{k}={v}" for k, v in cond.items())
            raise ConditioningOnZero(ctx)
        return sum(
            i * joint.prob({**cond, outcome: yv})
            for i, yv in enumerate(joint.domains[outcome])
        ) / pc

    nde = nie = nie_rev = 0.0
    for mval in joint.domains[mediator]:
        pm0 = p_m_given_x(mval, x0)
        pm1 = p_m_given_x(mval, x1)
        if pm0 == 0.0 and pm1 == 0.0:
            continue
        ey1 = e_y({exposure: x1, mediator: mval})
        ey0 = e_y({exposure: x0, mediator: mval})
        nde += (ey1 - ey0) * pm0
        nie += ey0 * (pm1 - pm0)
        nie_rev += ey1 * (pm0 - pm1)
    te = e_y({exposure: x1}) - e_y({exposure: x0})
    return _report(te, nde, nie, nie_rev, "data-formula")
