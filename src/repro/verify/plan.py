"""End-to-end certification of a planning outcome.

``verify_outcome`` walks every iteration of a
:class:`~repro.core.planner.PlanningOutcome` through the checker
catalogue of :mod:`repro.verify.checkers` and aggregates the
certificates into a :class:`~repro.verify.certificate.VerificationReport`.
Each certificate is exported as a ``verify/<checker>`` trace span, so
an audited run's trace records what was certified alongside what was
computed.
"""

from __future__ import annotations

from typing import List

from repro.obs import NOOP_TRACER
from repro.tech.params import DEFAULT_TECH
from repro.verify.certificate import Certificate, VerificationReport
from repro.verify.checkers import verify_iteration


def verify_outcome(outcome, tracer=None) -> VerificationReport:
    """Certify a completed planning outcome, iteration by iteration.

    Works on live outcomes, outcomes restored from ``repro-ckpt/1``
    checkpoints, and outcomes rebuilt from audit JSON — anything with
    the :class:`~repro.core.planner.PlanningOutcome` shape. The
    returned report is *not* attached to the outcome here; the caller
    (e.g. ``plan_interconnect(verify=True)``) decides that.
    """
    if tracer is None:
        tracer = NOOP_TRACER
    config = getattr(outcome, "config", None)
    tech = getattr(config, "tech", None) or DEFAULT_TECH
    certificates: List[Certificate] = []
    with tracer.span("verify", circuit=outcome.circuit) as span:
        for iteration in outcome.iterations:
            for cert in verify_iteration(iteration, tech):
                certificates.append(cert)
                with tracer.span(
                    f"verify/{cert.checker}", subject=cert.subject
                ) as cspan:
                    cspan.set(
                        ok=cert.ok,
                        skipped=cert.skipped,
                        witnesses=len(cert.witnesses),
                    )
        report = VerificationReport(
            circuit=outcome.circuit, certificates=certificates
        )
        span.set(
            ok=report.ok,
            certificates=len(certificates),
            failed=len(report.failed()),
        )
    return report
