"""SIM: determinism -- simulated time and seeded randomness only.

The paper's detection-probability and timing-radius bounds are checked
against *simulated* quantities: every experiment must replay bit-for-bit
from its seed, and the slot-vs-event engine equivalence anchor only
holds because both engines consume the same injected clock and PRF
streams.  A single ``time.time()`` or global ``random.random()`` call
inside the simulation packages silently breaks both properties.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator

from repro.lint.findings import Finding
from repro.lint.registry import FileContext, Rule, dotted_name, register

#: Wall-clock reads.  Matched by dotted suffix so both ``time.time()``
#: and ``datetime.datetime.now()`` spellings are caught.
_WALL_CLOCK_CALLS = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
)

#: Module-level functions of :mod:`random` -- all draw from one shared
#: global Mersenne Twister, so any call site perturbs every other.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


#: Packages inside src/ that legitimately read the host clock.  The
#: service plane is *deployment* code, not simulation: its per-chunk
#: latency stamps and circuit-breaker probe timer measure real time
#: on a real event loop, and clocks are injectable (``now_fn``) where
#: tests need determinism.  Allowlisted here -- explicitly, not via
#: per-line pragmas -- so the exemption is one greppable decision with
#: its rationale in docs/INVARIANTS.md.
_WALL_CLOCK_ALLOWED_PACKAGES = ("repro.service",)


def _matches_wall_clock(dotted: str) -> bool:
    return any(
        dotted == banned or dotted.endswith("." + banned)
        for banned in _WALL_CLOCK_CALLS
    )


@register
class WallClockRule(Rule):
    """SIM001: no wall-clock reads inside simulation code."""

    id: ClassVar[str] = "SIM001"
    title: ClassVar[str] = "simulated time must come from injected clocks"
    rationale: ClassVar[str] = (
        "All timing in src/repro is simulated: components advance an "
        "injected SimClock/LaneClock, which is what makes every "
        "experiment deterministic and keeps the slot-vs-event engine "
        "equivalence anchor exact.  A wall-clock read (time.time, "
        "time.perf_counter, datetime.now, ...) leaks host timing into "
        "simulated quantities and silently breaks replayability.  "
        "Benchmarks outside src/ may measure wall time; the vetted "
        "in-library measurements (setup_seconds encode cost, "
        "verify_seconds flush cost, and the repro.obs wall-domain "
        "spans/latency histograms) all funnel through "
        "util/wallclock.py, whose single time.perf_counter() read "
        "carries the one lint-ok pragma in src/.  The repro.service "
        "package is allowlisted wholesale: the daemon's latency "
        "stamps and health-probe timers are real-time serving "
        "concerns, not simulated quantities (see docs/INVARIANTS.md)."
    )
    node_types: ClassVar[tuple[type[ast.AST], ...]] = (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if not isinstance(node, ast.Call):
            return
        if not ctx.in_src:
            return
        if any(
            ctx.in_package(pkg) for pkg in _WALL_CLOCK_ALLOWED_PACKAGES
        ):
            return
        dotted = dotted_name(node.func)
        if dotted is not None and _matches_wall_clock(dotted):
            yield self.finding(
                ctx,
                node,
                f"wall-clock call {dotted}() in simulation code; use the "
                f"injected SimClock/LaneClock (now_ms/advance) instead",
            )


@register
class UnseededRandomRule(Rule):
    """SIM002: randomness must be seeded and PRF-derived."""

    id: ClassVar[str] = "SIM002"
    title: ClassVar[str] = "randomness must come from crypto.rng / the PRF"
    rationale: ClassVar[str] = (
        "Simulation randomness flows from DeterministicRNG (HMAC-DRBG "
        "over the library PRF): forkable per-component streams mean "
        "adding a component never perturbs another's draws.  The "
        "random module is banned inside src/repro entirely; in "
        "benchmarks/examples the *global* random.* functions and "
        "unseeded random.Random() are banned (one shared Mersenne "
        "Twister defeats per-component determinism), while an "
        "explicitly seeded random.Random(seed) is tolerated for "
        "generating throwaway test payloads."
    )
    node_types: ClassVar[tuple[type[ast.AST], ...]] = (
        ast.Call,
        ast.Import,
        ast.ImportFrom,
    )

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            if ctx.in_src and any(
                alias.name.split(".")[0] == "random" for alias in node.names
            ):
                yield self.finding(
                    ctx,
                    node,
                    "import of the random module in simulation code; use "
                    "repro.crypto.rng.DeterministicRNG",
                )
            return
        if isinstance(node, ast.ImportFrom):
            if ctx.in_src and (node.module or "").split(".")[0] == "random":
                yield self.finding(
                    ctx,
                    node,
                    "import from the random module in simulation code; use "
                    "repro.crypto.rng.DeterministicRNG",
                )
            return
        if not isinstance(node, ast.Call):
            return
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
        ):
            return
        if func.attr == "Random":
            if ctx.in_src:
                yield self.finding(
                    ctx,
                    node,
                    "random.Random in simulation code; use "
                    "DeterministicRNG(seed).fork(label) so draws are "
                    "PRF-derived and per-component",
                )
            elif not node.args and not node.keywords:
                yield self.finding(
                    ctx,
                    node,
                    "unseeded random.Random(); seed it explicitly so the "
                    "run is reproducible",
                )
        elif func.attr in _GLOBAL_RANDOM_FNS:
            yield self.finding(
                ctx,
                node,
                f"random.{func.attr}() draws from the shared global RNG; "
                f"use DeterministicRNG (src) or a seeded random.Random "
                f"instance (benchmarks/examples)",
            )
