"""One signed root per protocol batch: proofs, tampering and the wire.

A verifier device signs one hash-tree root per ``run_audits`` call, and
each transcript carries its path to that root.  These tests pin what
that must not change: a tampered transcript fails its own
``signature_ok`` and nobody else's, a proof only verifies for the
transcript, position, tree size and root it was issued for, and the
scalar and batch verifiers agree on every one of these shapes.  A small
file keeps the setup cheap, so they run in the fast lanes.
"""

import dataclasses

import pytest

from repro.core.messages import (
    TRANSCRIPT_MAGIC,
    BatchProof,
    SignedTranscript,
    decode_exact,
)
from repro.core.verification import (
    TranscriptVerification,
    verify_transcript,
    verify_transcripts,
)
from repro.errors import ProtocolError
from repro.util.serialization import encode_length_prefixed, encode_uint
from tests.conftest import build_session, transcript_verifies

N_AUDITS = 64


@pytest.fixture(scope="module")
def batch():
    """Two separate 64-audit ``run_audits`` calls over one small file."""
    session, file_id, _ = build_session("batch-proof", file_bytes=2_000)
    record = session.tpa.record(file_id)

    def one_call():
        requests = [session.tpa.make_request(file_id, 3) for _ in range(N_AUDITS)]
        runs = session.verifier.run_audits(requests, session.provider)
        return [
            TranscriptVerification(
                transcript=run.transcript,
                request=request,
                verifier_public_key=session.verifier.public_key,
                mac_key=record.mac_key,
                params=record.params,
                region=session.sla.region,
                rtt_max_ms=session.sla.rtt_max_ms,
            )
            for request, run in zip(requests, runs)
        ]

    return session, one_call(), one_call()


def scalar_verdicts(jobs):
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


def with_transcript(job, **changes):
    return dataclasses.replace(
        job, transcript=dataclasses.replace(job.transcript, **changes)
    )


def with_proof(job, **changes):
    return with_transcript(
        job, proof=dataclasses.replace(job.transcript.proof, **changes)
    )


def signature_oks(jobs):
    """Batch verdicts' ``signature_ok``; asserts the scalar loop agrees."""
    verdicts = verify_transcripts(jobs)
    assert verdicts == scalar_verdicts(jobs)
    return [verdict.signature_ok for verdict in verdicts]


def only_false_at(*positions):
    return [i not in positions for i in range(N_AUDITS)]


class TestOneRootPerCall:
    def test_one_signature_covers_the_call(self, batch):
        session, jobs, other = batch
        transcripts = [job.transcript for job in jobs]
        assert len({t.signature for t in transcripts}) == 1
        assert len({t.proof.root for t in transcripts}) == 1
        assert [t.proof.leaf_index for t in transcripts] == list(range(N_AUDITS))
        assert all(t.proof.n_leaves == N_AUDITS for t in transcripts)
        assert other[0].transcript.proof.root != transcripts[0].proof.root
        assert all(
            transcript_verifies(t, session.verifier.public_key)
            for t in transcripts
        )
        assert signature_oks(jobs + other) == [True] * (2 * N_AUDITS)


class TestTamperedTranscript:
    def test_tampered_rtt_fails_only_itself(self, batch):
        _, jobs, _ = batch
        victim = jobs[37].transcript
        rounds = list(victim.rounds)
        rounds[1] = dataclasses.replace(rounds[1], rtt_ms=rounds[1].rtt_ms / 2)
        tampered = list(jobs)
        tampered[37] = with_transcript(jobs[37], rounds=tuple(rounds))
        assert signature_oks(tampered) == only_false_at(37)

    def test_tampered_segment_byte_fails_only_itself(self, batch):
        _, jobs, _ = batch
        victim = jobs[5].transcript
        segment = victim.rounds[0].segment
        payload = bytes([segment.payload[0] ^ 1]) + segment.payload[1:]
        rounds = (
            dataclasses.replace(
                victim.rounds[0],
                segment=dataclasses.replace(segment, payload=payload),
            ),
        ) + victim.rounds[1:]
        tampered = list(jobs)
        tampered[5] = with_transcript(jobs[5], rounds=rounds)
        verdicts = verify_transcripts(tampered)
        assert verdicts == scalar_verdicts(tampered)
        assert [v.signature_ok for v in verdicts] == only_false_at(5)
        assert not verdicts[5].macs_ok


class TestForeignProofs:
    def test_path_from_another_calls_tree_fails(self, batch):
        _, jobs, other = batch
        tampered = list(jobs)
        tampered[9] = with_proof(jobs[9], path=other[9].transcript.proof.path)
        tampered[10] = with_transcript(
            jobs[10],
            proof=other[10].transcript.proof,
            signature=other[10].transcript.signature,
        )
        assert signature_oks(tampered) == only_false_at(9, 10)

    def test_swapped_leaf_positions_fail(self, batch):
        _, jobs, _ = batch
        a, b = jobs[20].transcript.proof, jobs[21].transcript.proof
        tampered = list(jobs)
        tampered[20] = with_proof(jobs[20], leaf_index=b.leaf_index, path=b.path)
        tampered[21] = with_proof(jobs[21], leaf_index=a.leaf_index, path=a.path)
        assert signature_oks(tampered) == only_false_at(20, 21)

    @pytest.mark.parametrize("n_leaves", [N_AUDITS - 1, N_AUDITS + 1, 2**40])
    def test_altered_tree_size_fails(self, batch, n_leaves):
        _, jobs, _ = batch
        tampered = list(jobs)
        tampered[0] = with_proof(jobs[0], n_leaves=n_leaves)
        assert signature_oks(tampered) == only_false_at(0)

    def test_altered_root_fails(self, batch):
        _, jobs, _ = batch
        root = jobs[63].transcript.proof.root
        tampered = list(jobs)
        tampered[63] = with_proof(
            jobs[63], root=root[:-1] + bytes([root[-1] ^ 0x80])
        )
        assert signature_oks(tampered) == only_false_at(63)

    @pytest.mark.parametrize(
        "changes",
        [
            {"leaf_index": N_AUDITS},
            {"leaf_index": -1},
            {"n_leaves": 0},
            {"n_leaves": -5},
            {"n_leaves": 2**64},
            {"root": None},
            {"path": ((b"short", True),)},
            {"path": (None,)},
            {"path": 7},
        ],
        ids=repr,
    )
    def test_malformed_proof_is_false_not_an_error(self, batch, changes):
        _, jobs, _ = batch
        tampered = list(jobs)
        tampered[3] = with_proof(jobs[3], **changes)
        assert signature_oks(tampered) == only_false_at(3)

    @pytest.mark.parametrize("signature", [None, (1, 2, 3), ([1], 2), "xy"])
    def test_malformed_signature_is_false_not_an_error(self, batch, signature):
        _, jobs, _ = batch
        tampered = list(jobs)
        tampered[4] = with_transcript(jobs[4], signature=signature)
        assert signature_oks(tampered) == only_false_at(4)


def proof_wire(root, n_leaves, leaf_index, steps):
    """A proof encoded by hand, so shapes no tree issues can be built."""
    out = encode_length_prefixed(root) + encode_uint(n_leaves)
    out += encode_uint(leaf_index) + encode_uint(len(steps))
    for sibling, direction in steps:
        out += encode_length_prefixed(sibling) + bytes([direction])
    return out


class TestWire:
    def test_batch_transcript_round_trips_and_verifies(self, batch):
        session, jobs, _ = batch
        for job in (jobs[0], jobs[33], jobs[-1]):
            decoded = decode_exact(
                SignedTranscript.from_wire, job.transcript.to_wire()
            )
            assert decoded == job.transcript
            assert transcript_verifies(decoded, session.verifier.public_key)
            (verdict,) = verify_transcripts(
                [dataclasses.replace(job, transcript=decoded)]
            )
            assert verdict.accepted

    def test_hand_encoding_matches(self, batch):
        _, jobs, _ = batch
        proof = jobs[33].transcript.proof
        steps = [(sibling, int(is_right)) for sibling, is_right in proof.path]
        assert proof.wire_bytes() == proof_wire(
            proof.root, proof.n_leaves, proof.leaf_index, steps
        )

    @pytest.mark.parametrize(
        "root, n_leaves, leaf_index, steps",
        [
            pytest.param(b"r" * 31, 64, 0, [], id="short-root"),
            pytest.param(b"r" * 33, 64, 0, [], id="long-root"),
            pytest.param(b"r" * 32, 4, 1, [(b"s" * 31, 0)], id="short-sibling"),
            pytest.param(b"r" * 32, 4, 1, [(b"s" * 33, 0)], id="long-sibling"),
            pytest.param(b"r" * 32, 0, 0, [], id="empty-tree"),
            pytest.param(b"r" * 32, 64, 64, [], id="index-past-end"),
            pytest.param(b"r" * 32, 1, 0, [(b"s" * 32, 1)], id="path-too-long-1"),
            pytest.param(
                b"r" * 32, 64, 0, [(b"s" * 32, 1)] * 7, id="path-too-long-64"
            ),
            pytest.param(
                b"r" * 32, 65, 0, [(b"s" * 32, 1)] * 8, id="path-too-long-65"
            ),
            pytest.param(b"r" * 32, 4, 1, [(b"s" * 32, 2)], id="direction-2"),
            pytest.param(b"r" * 32, 4, 1, [(b"s" * 32, 255)], id="direction-255"),
        ],
    )
    def test_malformed_proof_fails_closed(
        self, batch, root, n_leaves, leaf_index, steps
    ):
        _, jobs, _ = batch
        transcript = jobs[0].transcript
        wire = transcript.to_wire()
        payload = transcript.signed_payload()
        proof = transcript.proof.wire_bytes()
        assert wire.startswith(payload + proof)
        signature = wire[len(payload) + len(proof):]
        with pytest.raises(ProtocolError):
            decode_exact(
                SignedTranscript.from_wire,
                payload + proof_wire(root, n_leaves, leaf_index, steps) + signature,
            )

    def test_deepest_legal_path_decodes(self, batch):
        _, jobs, _ = batch
        transcript = jobs[0].transcript
        payload = transcript.signed_payload()
        tail = transcript.to_wire()[len(payload) + len(transcript.proof.wire_bytes()):]
        for n_leaves, depth in ((2, 1), (64, 6), (65, 7)):
            wire = payload + proof_wire(
                b"r" * 32, n_leaves, n_leaves - 1, [(b"s" * 32, 0)] * depth
            ) + tail
            decoded = decode_exact(SignedTranscript.from_wire, wire)
            assert decoded.proof == BatchProof(
                b"r" * 32, n_leaves, n_leaves - 1, ((b"s" * 32, False),) * depth
            )

    def test_truncated_direction_fails_closed(self, batch):
        _, jobs, _ = batch
        payload = jobs[0].transcript.signed_payload()
        wire = payload + proof_wire(b"r" * 32, 4, 1, [(b"s" * 32, 0)])
        with pytest.raises(ProtocolError):
            decode_exact(SignedTranscript.from_wire, wire[:-1])

    def test_previous_version_fails_closed(self, batch):
        _, jobs, _ = batch
        wire = jobs[0].transcript.to_wire()
        assert wire.startswith(TRANSCRIPT_MAGIC)
        v1 = b"geoproof-transcript-v1" + wire[len(TRANSCRIPT_MAGIC):]
        with pytest.raises(ProtocolError):
            decode_exact(SignedTranscript.from_wire, v1)
        # A v1 encoding proper: the payload directly followed by the
        # two signature ints, with no proof between them.
        payload = jobs[0].transcript.signed_payload()
        v1_body = b"geoproof-transcript-v1" + payload[len(TRANSCRIPT_MAGIC):]
        sigints = wire[len(payload) + len(jobs[0].transcript.proof.wire_bytes()):]
        with pytest.raises(ProtocolError):
            decode_exact(SignedTranscript.from_wire, v1_body + sigints)
