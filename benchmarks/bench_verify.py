"""Batch verification plane: throughput and equivalence CI gates.

The TPA's verdict loop is the fleet's real-compute bottleneck: every
audit costs a path check and a Schnorr verification of its batch root
plus ``k`` HMAC tag checks.  The batch plane
(:func:`~repro.core.verification.verify_transcripts`) amortizes both --
each distinct root signature checked once, all of a verifier key's
roots in one random-linear-combination check on precomputed
fixed-base tables, one HMAC key schedule per (key, file) group -- and
this bench holds it to the two claims it ships under:

1. **Throughput.**  On an honest ``N_AUDITS``-audit population the
   batch plane must produce verdicts at least ``MIN_SPEEDUP`` times
   faster than the scalar :func:`verify_transcript` loop.
2. **Equivalence.**  On a mixed honest/forged/replayed/corrupted
   population the batch verdict list must equal the scalar list
   *field for field* (including ``bad_mac_indices`` -- the exact
   culprit segments), with every tampered position identified.  The
   equivalence gate is 1.0: a single diverging verdict fails CI.  The
   population ends with one ``run_audits`` call's transcripts, all
   under one signed root, some of them tampered.

The honest population comes from the scalar ``run_audit`` oracle, one
signed root per transcript, so the combined check still has one
signature per audit to amortize.  The scalar loop's exact checks run
through the same fixed-base tables, so the speedup sits well below
what it was against the old square-and-multiply single verify.

Runs standalone (no pytest needed) and doubles as the CI smoke bench::

    python benchmarks/bench_verify.py --quick --out BENCH_verify.json
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

try:
    from benchmarks.conftest import record_table
except ImportError:  # running as a script from the repo root
    def record_table(title, rendered):
        print(f"\n{rendered}\n")

try:
    from benchmarks._gates import Gate, enforce_gates  # noqa: E402
except ImportError:  # running as a script from the repo root
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from _gates import Gate, enforce_gates  # noqa: E402

from repro.analysis.reporting import format_table  # noqa: E402
from repro.cloud.adversary import CorruptionAttack  # noqa: E402
from repro.core.session import GeoProofSession  # noqa: E402
from repro.core.verification import (  # noqa: E402
    TranscriptVerification,
    verify_transcript,
    verify_transcripts,
)
from repro.crypto.rng import DeterministicRNG  # noqa: E402
from repro.crypto.schnorr import TEST_GROUP, SchnorrKeyPair  # noqa: E402
from repro.geo.coords import GeoPoint  # noqa: E402
from repro.por.parameters import TEST_PARAMS  # noqa: E402

#: Honest-population size for the throughput gate (full mode: the
#: 10k-audit batch a month-long 3-site fleet campaign accumulates).
N_AUDITS = 10_000
N_AUDITS_QUICK = 1_500

#: Rounds per audit.  Small k keeps the Schnorr share of the scalar
#: cost realistic for the fleet demos (which audit at k = 5..25).
K_ROUNDS = 5

#: Acceptance bar: batch verdicts/s over scalar verdicts/s on the
#: honest population.
MIN_SPEEDUP = 5.0

#: Acceptance bar: fraction of mixed-population verdicts identical to
#: the scalar anchor.  1.0 -- one diverging verdict is a CI failure.
REQUIRED_EQUIVALENCE = 1.0

#: Tampered fraction of the mixed population (the rest stays honest).
MIXED_POPULATION = 400
MIXED_POPULATION_QUICK = 120

#: Transcripts from one ``run_audits`` call appended to the mixed
#: population: they share one signed root, and some are tampered.
SHARED_ROOT_SLICE = 64

BRISBANE = GeoPoint(-27.4698, 153.0251)

#: Small segments: the bench measures verification arithmetic, not
#: segment I/O, so use the fast test parameter set (4-byte blocks,
#: RS(15, 11)) and a small file.
BENCH_PARAMS = TEST_PARAMS


def build_bench_session(seed: str) -> tuple:
    """One outsourced file, ready to audit."""
    session = GeoProofSession.build(
        datacentre_location=BRISBANE,
        params=BENCH_PARAMS,
        seed=seed,
    )
    data = DeterministicRNG(f"{seed}-data").random_bytes(16_000)
    session.outsource(b"bench-verify-file", data)
    return session, b"bench-verify-file"


def _job(session, file_id, request, transcript) -> TranscriptVerification:
    record = session.tpa.record(file_id)
    return TranscriptVerification(
        transcript=transcript,
        request=request,
        verifier_public_key=session.verifier.public_key,
        mac_key=record.mac_key,
        params=record.params,
        region=session.sla.region,
        rtt_max_ms=session.sla.rtt_max_ms,
    )


def collect_jobs(session, file_id, n_audits: int) -> list:
    """Run ``n_audits`` scalar protocol rounds, one signed root each."""
    jobs = []
    for _ in range(n_audits):
        request = session.tpa.make_request(file_id, K_ROUNDS)
        transcript = session.verifier.run_audit(request, session.provider)
        jobs.append(_job(session, file_id, request, transcript))
    return jobs


def collect_shared_root_jobs(session, file_id, n_audits: int) -> list:
    """One ``run_audits`` call: ``n_audits`` transcripts, one signed root."""
    requests = [
        session.tpa.make_request(file_id, K_ROUNDS) for _ in range(n_audits)
    ]
    runs = session.verifier.run_audits(requests, session.provider)
    return [
        _job(session, file_id, request, run.transcript)
        for request, run in zip(requests, runs)
    ]


def _tamper_transcript(job, **changes):
    return dataclasses.replace(
        job, transcript=dataclasses.replace(job.transcript, **changes)
    )


def _tamper_proof(job, **changes):
    proof = dataclasses.replace(job.transcript.proof, **changes)
    return _tamper_transcript(job, proof=proof)


def tamper_shared_root(jobs: list) -> list:
    """Tamper every 8th transcript of a shared-root slice, in four shapes.

    Each shape must fail only the transcripts it touches: a round's
    timing, a segment byte, two swapped leaf positions, and the tree
    size the root signature covers.
    """
    jobs = list(jobs)
    for position in range(3, len(jobs) - 1, 8):
        shape = (position // 8) % 4
        job = jobs[position]
        transcript = job.transcript
        first = transcript.rounds[0]
        if shape == 0:  # a faster round than was measured
            faster = dataclasses.replace(first, rtt_ms=first.rtt_ms / 2)
            jobs[position] = _tamper_transcript(
                job, rounds=(faster,) + transcript.rounds[1:]
            )
        elif shape == 1:  # one segment byte flipped
            segment = first.segment
            flipped = dataclasses.replace(
                segment,
                payload=bytes([segment.payload[0] ^ 1]) + segment.payload[1:],
            )
            jobs[position] = _tamper_transcript(
                job,
                rounds=(dataclasses.replace(first, segment=flipped),)
                + transcript.rounds[1:],
            )
        elif shape == 2:  # two transcripts' leaf positions swapped
            mine, theirs = transcript.proof, jobs[position + 1].transcript.proof
            jobs[position] = _tamper_proof(
                job, leaf_index=theirs.leaf_index, path=theirs.path
            )
            jobs[position + 1] = _tamper_proof(
                jobs[position + 1], leaf_index=mine.leaf_index, path=mine.path
            )
        else:  # the root signature read against another tree size
            jobs[position] = _tamper_proof(
                job, n_leaves=transcript.proof.n_leaves + 1
            )
    return jobs


def scalar_verdicts(jobs: list) -> list:
    return [
        verify_transcript(
            job.transcript,
            job.request,
            verifier_public_key=job.verifier_public_key,
            mac_key=job.mac_key,
            params=job.params,
            region=job.region,
            rtt_max_ms=job.rtt_max_ms,
        )
        for job in jobs
    ]


def measure_throughput(jobs: list) -> dict:
    """Scalar vs batch verdict throughput on an honest population."""
    start = time.perf_counter()
    scalar = scalar_verdicts(jobs)
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = verify_transcripts(jobs)
    batch_seconds = time.perf_counter() - start

    assert batched == scalar, "honest-population verdicts diverged"
    assert all(verdict.accepted for verdict in batched)
    return {
        "n_audits": len(jobs),
        "k_rounds": K_ROUNDS,
        "scalar_seconds": scalar_seconds,
        "batch_seconds": batch_seconds,
        "scalar_verdicts_per_s": len(jobs) / scalar_seconds,
        "batch_verdicts_per_s": len(jobs) / batch_seconds,
        "speedup": scalar_seconds / batch_seconds,
    }


def build_mixed_population(seed: str, n_jobs: int) -> list:
    """Honest majority plus every tampering shape the TPA must catch.

    Tampered positions are spread through the batch (not clustered) so
    the bisection fallback gets exercised on realistic culprit layouts.
    """
    session, file_id = build_bench_session(f"{seed}-mixed")
    jobs = collect_jobs(session, file_id, n_jobs)
    stranger = SchnorrKeyPair.generate(TEST_GROUP, seed=b"bench-stranger")

    # Signature-valid, MAC-bad transcripts come from a corrupting
    # provider (the verifier signs whatever it was served).
    session.provider.set_strategy(
        CorruptionAttack("home", 1.0, DeterministicRNG(f"{seed}-corrupt"))
    )
    corrupted = collect_jobs(session, file_id, max(2, n_jobs // 20))

    for position in range(0, n_jobs, 10):
        shape = (position // 10) % 5
        job = jobs[position]
        if shape == 0:  # forged s component
            commitment, s = job.transcript.signature
            jobs[position] = dataclasses.replace(
                job,
                transcript=dataclasses.replace(
                    job.transcript,
                    signature=(commitment, (s + 1) % TEST_GROUP.q),
                ),
            )
        elif shape == 1:  # signature from the wrong device key
            jobs[position] = dataclasses.replace(
                job, verifier_public_key=stranger.public
            )
        elif shape == 2:  # replayed transcript under a fresh nonce
            jobs[position] = dataclasses.replace(
                job, request=jobs[position - 10].request
            )
        elif shape == 3:  # corrupted storage (bad MACs, valid signature)
            jobs[position] = corrupted[(position // 10) % len(corrupted)]
        else:  # timing violation
            jobs[position] = dataclasses.replace(job, rtt_max_ms=1e-6)
    session.provider.set_strategy(None)
    return jobs + tamper_shared_root(
        collect_shared_root_jobs(session, file_id, SHARED_ROOT_SLICE)
    )


def measure_equivalence(jobs: list) -> dict:
    """Field-for-field batch-vs-scalar agreement on the mixed batch."""
    scalar = scalar_verdicts(jobs)
    batched = verify_transcripts(jobs)
    matches = sum(a == b for a, b in zip(scalar, batched))
    rejected = sum(not verdict.accepted for verdict in scalar)
    bad_mac_matches = sum(
        a.bad_mac_indices == b.bad_mac_indices
        for a, b in zip(scalar, batched)
    )
    return {
        "n_jobs": len(jobs),
        "n_rejected": rejected,
        "equivalence": matches / len(jobs),
        "bad_mac_equivalence": bad_mac_matches / len(jobs),
        "rejected_caught_by_batch": sum(
            (not a.accepted) and (not b.accepted)
            for a, b in zip(scalar, batched)
        )
        / max(1, rejected),
    }


def _render_throughput(row: dict) -> str:
    return format_table(
        ["audits", "k", "scalar (s)", "batch (s)", "scalar v/s",
         "batch v/s", "speedup"],
        [[
            row["n_audits"],
            row["k_rounds"],
            row["scalar_seconds"],
            row["batch_seconds"],
            row["scalar_verdicts_per_s"],
            row["batch_verdicts_per_s"],
            row["speedup"],
        ]],
        title="Batch vs scalar transcript verification (honest population)",
        decimals=3,
    )


def _render_equivalence(row: dict) -> str:
    return format_table(
        ["jobs", "rejected", "verdicts equal", "bad_mac equal",
         "rejects caught"],
        [[
            row["n_jobs"],
            row["n_rejected"],
            row["equivalence"],
            row["bad_mac_equivalence"],
            row["rejected_caught_by_batch"],
        ]],
        title="Batch vs scalar equivalence (mixed adversarial population)",
        decimals=4,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized population")
    parser.add_argument("--out", type=Path, default=None,
                        help="write BENCH_verify.json here")
    args = parser.parse_args(argv)

    n_audits = N_AUDITS_QUICK if args.quick else N_AUDITS
    n_mixed = MIXED_POPULATION_QUICK if args.quick else MIXED_POPULATION

    session, file_id = build_bench_session("bench-verify")
    print(f"collecting {n_audits} honest audit transcripts...")
    jobs = collect_jobs(session, file_id, n_audits)
    throughput = measure_throughput(jobs)
    record_table("verify-throughput", _render_throughput(throughput))

    print(f"building {n_mixed}-job mixed adversarial population...")
    mixed = build_mixed_population("bench-verify", n_mixed)
    equivalence = measure_equivalence(mixed)
    record_table("verify-equivalence", _render_equivalence(equivalence))

    gates = [
        Gate(
            name="batch_verify_speedup",
            measured=throughput["speedup"],
            required=MIN_SPEEDUP,
            detail=f"{throughput['n_audits']} audits, k={K_ROUNDS}",
        ),
        Gate(
            name="mixed_batch_equivalence",
            measured=equivalence["equivalence"],
            required=REQUIRED_EQUIVALENCE,
            detail=f"{equivalence['n_jobs']} jobs, "
                   f"{equivalence['n_rejected']} tampered",
        ),
        Gate(
            name="bad_mac_indices_equivalence",
            measured=equivalence["bad_mac_equivalence"],
            required=REQUIRED_EQUIVALENCE,
            detail="exact culprit segments per transcript",
        ),
    ]
    exit_code = enforce_gates(gates, bench="bench_verify")

    if args.out:
        args.out.write_text(json.dumps(
            {
                "bench": "verify",
                "quick": args.quick,
                "throughput": throughput,
                "equivalence": equivalence,
                "gates": [gate.as_dict() for gate in gates],
            },
            indent=2,
        ))
        print(f"wrote {args.out}")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
