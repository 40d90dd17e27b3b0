"""Staleness-adaptive Leashed-SGD — the extension direction the paper
points to.

Section VI notes that staleness-adaptive step sizes ([4] MindTheStep-
AsyncPSGD, [33], [38], [43]) are "orthogonal to this work and can be
applied in conjunction with the algorithms and synchronization
mechanisms considered here". This class does exactly that: Algorithm 3
runs unchanged, except that the step applied at publication time is
scaled by a function of the update's *measured* staleness,

    eta_eff = eta / (1 + damping * tau),

the standard inverse-staleness damping (tau = 0 recovers plain eta).
Because Leashed-SGD knows tau exactly at the moment of its CAS-publish
(the difference of vector sequence numbers), the adaptation needs no
extra synchronization — a concrete payoff of the consistent design. The
implementation is therefore a single overridden hook
(:meth:`repro.core.leashed.LeashedSGD.effective_eta`).

Registered as ``LSH_ADAPT`` / ``LSH_ADAPT_psinf``; build other
persistence/damping combinations with
``AdaptiveLeashedSGD(persistence, damping=...)``.
"""

from __future__ import annotations

from repro.core.base import register_algorithm
from repro.core.leashed import LeashedSGD
from repro.errors import ConfigurationError


class AdaptiveLeashedSGD(LeashedSGD):
    """Leashed-SGD with inverse-staleness step damping."""

    def __init__(self, persistence: float = float("inf"), *, damping: float = 0.5) -> None:
        super().__init__(persistence=persistence)
        if not (damping >= 0):
            raise ConfigurationError(f"damping must be >= 0, got {damping!r}")
        self.damping = float(damping)
        suffix = "inf" if persistence == float("inf") else str(int(persistence))
        self.name = f"LSH_ADAPT_ps{suffix}"

    def effective_eta(self, eta: float, staleness: int) -> float:
        """The damped step size for an update of staleness ``tau``."""
        return eta / (1.0 + self.damping * max(staleness, 0))

    def __repr__(self) -> str:  # pragma: no cover
        return f"AdaptiveLeashedSGD(persistence={self.persistence}, damping={self.damping})"


register_algorithm("LSH_ADAPT_psinf", AdaptiveLeashedSGD)
register_algorithm("LSH_ADAPT", AdaptiveLeashedSGD)
