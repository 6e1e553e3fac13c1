"""Analysis and reporting utilities.

* :mod:`repro.analysis.reporting` -- ASCII table renderer the
  benchmarks use to print paper-style tables.
* :mod:`repro.analysis.security` -- aggregated security analysis of a
  GeoProof deployment (Section V-C's integrity + distance arguments in
  one report).
* :mod:`repro.analysis.experiments` -- the experiment runner: each
  paper table/figure has a function returning structured rows, shared
  between benches, tests and examples.
"""

from repro.analysis.reporting import format_table
from repro.analysis.scheduling import (
    AuditSchedule,
    audits_until_detection,
    cheapest_schedule,
    plan_schedule,
)
from repro.analysis.security import SecurityReport, analyse_deployment

__all__ = [
    "format_table",
    "SecurityReport",
    "analyse_deployment",
    "AuditSchedule",
    "plan_schedule",
    "cheapest_schedule",
    "audits_until_detection",
]
