"""Differential conformance harness.

One claim: the runtime may be *fast* however it likes, but it must be
*right* the same way everywhere.  :mod:`repro.verify.differential` draws
seeded random cases across (kernel × shape × boundary × fusion × layout),
runs every registered backend against two independent oracles, checks
bit-identity between backends, shrinks failures to minimal repro dicts,
and runs a mutation smoke-check proving the harness can see a planted LUT
off-by-one.

CLI: ``repro verify --quick --seed 0`` (see :mod:`repro.cli`).
"""

from repro.verify.differential import (
    DEFAULT_LOOSE_ULP,
    DEFAULT_TIGHT_ULP,
    Case,
    CaseResult,
    VerifyReport,
    generate_cases,
    max_ulp,
    mutation_check,
    run_case,
    run_verification,
    shrink,
)

__all__ = [
    "Case",
    "CaseResult",
    "DEFAULT_LOOSE_ULP",
    "DEFAULT_TIGHT_ULP",
    "VerifyReport",
    "generate_cases",
    "max_ulp",
    "mutation_check",
    "run_case",
    "run_verification",
    "shrink",
]
