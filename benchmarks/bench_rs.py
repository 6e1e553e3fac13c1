"""Scalar vs vectorized outsourcing data plane: RS encode and AES-CTR.

ROADMAP's vectorized-data-plane item: after the batch Feistel engine
the GF(256)/RS encode still ran scalar pure-Python loops -- one
byte-column at a time through polynomial division.  The vectorized
engine (:mod:`repro.gf.gf256_vec` +
:class:`repro.erasure.striping.BlockStriper`) computes the parity of
all 16 interleaved byte-columns of every chunk of a file as one
GF(256) matrix product against the precomputed systematic parity
matrix.  Setup step 3's AES-CTR encryption then remained a per-block
scalar loop, and the traced onboarding ledger showed it as the largest
stage; :func:`repro.crypto.aes.aes_ctr_encrypt` now runs every counter
block of a file through the cipher rounds as one numpy batch.

Runs standalone (no pytest needed) and doubles as the CI smoke bench::

    python benchmarks/bench_rs.py --quick --out BENCH_rs.json

It measures blocks/sec for the scalar column-at-a-time path (on a
sample of chunks; the full 1M-block file would take minutes) against
the vectorized batch encode of a full million-block file, and bytes/sec
for the scalar CTR block loop (on a 32 kB sample) against the
vectorized kernel on 1 MB.  It runs a byte-identical equivalence sweep
(encode, decode with errors+erasures, MAC tags, AES-CTR), asserts the
>= 10x RS and >= 20x CTR bars, and writes the numbers plus the gate
table as JSON so CI archives a machine-readable record.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _gates import Gate, enforce_gates  # noqa: E402

from repro.analysis.reporting import format_table  # noqa: E402
from repro.crypto.aes import AES, _ctr_keystream, aes_ctr_encrypt  # noqa: E402
from repro.crypto.mac import mac_tag, mac_tag_many  # noqa: E402
from repro.erasure.striping import BlockStriper, StripeLayout  # noqa: E402
from repro.gf import HAS_NUMPY  # noqa: E402
from repro.util.bitops import xor_bytes  # noqa: E402

#: Encoded file sizes in 16-byte blocks; --quick keeps only the gated
#: million-block row.
FILE_BLOCKS = [100_000, 1_000_000]

#: Gated row: the vectorized engine must beat the scalar path by at
#: least this factor on a 1M-block (16 MB) file (ISSUE 6 / ROADMAP).
MIN_SPEEDUP_1M = 10.0

#: Chunks the scalar path encodes to estimate its per-block rate.
SCALAR_SAMPLE_CHUNKS = 3

#: Gated CTR row: the vectorized kernel on a 1 MB plaintext must beat
#: the scalar block loop, timed on a 32 kB sample, by at least this
#: factor (measured ~60-115x: host speed drifts up to ~2x between the
#: two timings).
MIN_CTR_SPEEDUP = 20.0
CTR_SCALAR_SAMPLE_BYTES = 32_000
CTR_VECTOR_BYTES = 1_000_000

#: Initial counter whose low half is 2^64 - 2: the third block carries
#: into the high half.
CARRY_NONCE = bytes(8) + ((1 << 64) - 2).to_bytes(8, "big")

PAPER_LAYOUT = StripeLayout()  # RS(255, 223), 16-byte blocks
SMALL_LAYOUT = StripeLayout(block_bytes=4, data_blocks=11, total_blocks=15)


def _blocks(n: int, block_bytes: int, seed: str) -> list[bytes]:
    rnd = random.Random(seed)
    payload = rnd.randbytes(n * block_bytes)
    return [
        payload[i : i + block_bytes]
        for i in range(0, len(payload), block_bytes)
    ]


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def scalar_rate(layout: StripeLayout, sample_chunks: int) -> float:
    """Blocks/sec of the column-at-a-time scalar encoder (sampled)."""
    striper = BlockStriper(layout, vectorized=False)
    blocks = _blocks(layout.data_blocks * sample_chunks, layout.block_bytes, "scalar")
    seconds = _time(lambda: striper.encode_blocks(blocks))
    return len(blocks) / seconds


def vectorized_rate(layout: StripeLayout, n_blocks: int) -> float:
    """Blocks/sec of the batch matrix-product encoder on a full file."""
    striper = BlockStriper(layout, vectorized=True)
    blocks = _blocks(n_blocks, layout.block_bytes, f"vec-{n_blocks}")
    striper._parity_transpose()  # table build is one-off, not throughput
    seconds = _time(lambda: striper.encode_blocks(blocks))
    return n_blocks / seconds


def mac_rates(n_segments: int, segment_bytes: int) -> tuple[float, float]:
    """(scalar, batch) tags/sec for the per-segment MAC loop."""
    rnd = random.Random("mac")
    payloads = [rnd.randbytes(segment_bytes) for _ in range(n_segments)]
    scalar_s = _time(
        lambda: [
            mac_tag(b"bench-key", p, i, b"bench-fid")
            for i, p in enumerate(payloads)
        ]
    )
    batch_s = _time(lambda: mac_tag_many(b"bench-key", payloads, b"bench-fid"))
    return n_segments / scalar_s, n_segments / batch_s


def scalar_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """AES-CTR through the scalar block loop, whatever HAS_NUMPY says."""
    return xor_bytes(data, _ctr_keystream(AES(key), nonce, len(data)))


def ctr_rates() -> tuple[float, float]:
    """(scalar, vectorized) bytes/sec of AES-CTR encryption."""
    rnd = random.Random("ctr")
    key = rnd.randbytes(16)
    sample = rnd.randbytes(CTR_SCALAR_SAMPLE_BYTES)
    full = rnd.randbytes(CTR_VECTOR_BYTES)
    scalar_s = _time(lambda: scalar_ctr(key, CARRY_NONCE, sample))
    vector_s = _time(lambda: aes_ctr_encrypt(key, CARRY_NONCE, full))
    return len(sample) / scalar_s, len(full) / vector_s


def equivalence_sweep() -> bool:
    """Byte-identical scalar/vectorized sweep: encode, decode, CTR, MAC."""
    rnd = random.Random("equivalence")
    for layout in (SMALL_LAYOUT, PAPER_LAYOUT):
        scalar = BlockStriper(layout, vectorized=False)
        vector = BlockStriper(layout, vectorized=True)
        blocks = _blocks(
            layout.data_blocks * 2 + 3, layout.block_bytes, "equiv"
        )
        if scalar.encode_blocks(blocks) != vector.encode_blocks(blocks):
            return False
        chunk_blocks = blocks[: layout.data_blocks]
        encoded = scalar.encode_chunk(chunk_blocks)
        corrupted = list(encoded)
        f = min(2, layout.parity_blocks)
        e = (layout.parity_blocks - f) // 2
        positions = rnd.sample(range(layout.total_blocks), e + f)
        for pos in positions:
            corrupted[pos] = bytes(b ^ 0xA5 for b in corrupted[pos])
        erasures = sorted(positions[e:])
        out_s = scalar.decode_chunk(corrupted, erasures=erasures)
        out_v = vector.decode_chunk(corrupted, erasures=erasures)
        if not (out_s == out_v == chunk_blocks):
            return False
    for key_bytes in (16, 24, 32):
        key = rnd.randbytes(key_bytes)
        for nonce in (rnd.randbytes(16), CARRY_NONCE, b"\xff" * 16):
            plaintext = rnd.randbytes(1000 + key_bytes)  # ends mid-block
            if aes_ctr_encrypt(key, nonce, plaintext) != scalar_ctr(
                key, nonce, plaintext
            ):
                return False
    payloads = [rnd.randbytes(52) for _ in range(64)]
    batch = mac_tag_many(b"key", payloads, b"fid")
    scalar_tags = [
        mac_tag(b"key", p, i, b"fid") for i, p in enumerate(payloads)
    ]
    return batch == scalar_tags  # repro: lint-ok[CRY001] -- equivalence gate comparing two locally computed tag lists; no adversarial input, timing is irrelevant


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: only the gated 1M-block row",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_rs.json"),
        help="where to write the JSON record (default: ./BENCH_rs.json)",
    )
    args = parser.parse_args(argv)

    if not HAS_NUMPY:
        print(
            "FAIL: bench_rs needs numpy (pip install repro[fast]); "
            "the scalar fallback path is covered by the test suite instead",
            file=sys.stderr,
        )
        return 2

    sizes = FILE_BLOCKS[-1:] if args.quick else FILE_BLOCKS
    scalar_blocks_per_sec = scalar_rate(PAPER_LAYOUT, SCALAR_SAMPLE_CHUNKS)

    rows = []
    for n_blocks in sizes:
        vec = vectorized_rate(PAPER_LAYOUT, n_blocks)
        rows.append(
            {
                "blocks": n_blocks,
                "scalar_blocks_per_sec": scalar_blocks_per_sec,
                "vectorized_blocks_per_sec": vec,
                "speedup": vec / scalar_blocks_per_sec,
            }
        )
    print(
        format_table(
            ["blocks", "scalar blk/s", "vectorized blk/s", "speedup"],
            [
                [
                    r["blocks"],
                    r["scalar_blocks_per_sec"],
                    r["vectorized_blocks_per_sec"],
                    r["speedup"],
                ]
                for r in rows
            ],
            title="RS(255, 223) stripe encode: scalar vs vectorized engine",
            decimals=1,
        )
    )

    mac_scalar, mac_batch = mac_rates(20_000, 52)
    print(
        f"mac tags: {mac_scalar:,.0f}/s scalar -> {mac_batch:,.0f}/s batched "
        f"({mac_batch / mac_scalar:.2f}x)"
    )

    ctr_scalar, ctr_vector = ctr_rates()
    ctr_speedup = ctr_vector / ctr_scalar
    print(
        f"aes-ctr: {ctr_scalar / 1e3:,.1f} kB/s scalar "
        f"({CTR_SCALAR_SAMPLE_BYTES // 1000} kB) -> "
        f"{ctr_vector / 1e3:,.1f} kB/s vectorized "
        f"({CTR_VECTOR_BYTES // 1000} kB) ({ctr_speedup:.1f}x)"
    )

    equivalent = equivalence_sweep()

    row_1m = next(r for r in rows if r["blocks"] == 1_000_000)
    gates = [
        Gate(
            name="rs_encode_speedup_1m",
            measured=row_1m["speedup"],
            required=MIN_SPEEDUP_1M,
            detail="vectorized vs scalar blk/s, 1M-block file",
        ),
        Gate(
            name="aes_ctr_speedup",
            measured=ctr_speedup,
            required=MIN_CTR_SPEEDUP,
            detail="vectorized (1 MB) vs scalar (32 kB sample) bytes/s",
        ),
        Gate(
            name="scalar_vec_equivalence",
            measured=1.0 if equivalent else 0.0,
            required=1.0,
            detail="encode + decode(errors,erasures) + CTR + MAC byte-identical",
        ),
    ]

    record = {
        "bench": "rs",
        "unit": "blocks/sec",
        "min_speedup_1m": MIN_SPEEDUP_1M,
        "min_ctr_speedup": MIN_CTR_SPEEDUP,
        "scalar_sample_chunks": SCALAR_SAMPLE_CHUNKS,
        "rows": rows,
        "mac_tags_per_sec": {"scalar": mac_scalar, "batch": mac_batch},
        "aes_ctr": {
            "unit": "bytes/sec",
            "scalar_sample_bytes": CTR_SCALAR_SAMPLE_BYTES,
            "vectorized_bytes": CTR_VECTOR_BYTES,
            "scalar_bytes_per_sec": ctr_scalar,
            "vectorized_bytes_per_sec": ctr_vector,
            "speedup": ctr_speedup,
        },
        "gates": [gate.as_dict() for gate in gates],
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    return enforce_gates(gates, bench="rs")


if __name__ == "__main__":
    sys.exit(main())
