"""Schnorr kernels: known-answer signatures and exact modular arithmetic.

The kernels (``_FixedBaseTable`` and ``_multi_exp``) reduce every
product with a one-fold special-form reduction instead of a plain
``% p``.  Two kinds of check hold them to the plain arithmetic:

* known-answer pins: ``(R, s)`` literals for seeded keys, so a kernel
  change that moves a single signature byte fails here, not only in
  the end-to-end digests (which hash verdicts, not signatures);
* properties: every table power and multi-exponentiation equals
  builtin ``pow`` and its products, over the embedded groups, a
  256-bit group and moduli whose ``c`` in ``p = 2^n + c`` is nearly
  ``n`` bits (where the fold reduces least).
"""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.schnorr import (
    DEFAULT_GROUP,
    TEST_GROUP,
    SchnorrKeyPair,
    _FixedBaseTable,
    _MULTI_EXP_WIDE_THRESHOLD,
    _generate_group,
    _multi_exp,
    schnorr_sign,
    schnorr_sign_many,
    schnorr_verify,
)

SEED = b"known-answer"
MESSAGE = b"geoproof transcript"

# (group, message) -> (R, s), computed with plain ``% p`` arithmetic.
KNOWN_ANSWERS = [
    pytest.param(
        TEST_GROUP,
        b"",
        int(
            "5628768E3731FF7D977969C791F42138191BA93608C045A09758372C10C480D0"
            "085C290D67F5D2A90BF8A27AA77AD977F808ED1FFAC1DCF9AC7760C73BC1E680",
            16,
        ),
        0x083B5FFEF4EE4D87F0CBC06890318354CB754E84,
        id="TEST_GROUP-empty",
    ),
    pytest.param(
        TEST_GROUP,
        MESSAGE,
        int(
            "1366E49225EA9C79D92995695A25A78AE16520004E8CD54F345CD9B1180D7ADD"
            "FE939F51EBE1B83A8EEBFFF417A3CD6684B0E6E5E2AC649B72AA84F8F358522B",
            16,
        ),
        0x614F3B7D80D162875BB610D3914263EC52700979,
        id="TEST_GROUP-transcript",
    ),
    pytest.param(
        DEFAULT_GROUP,
        b"",
        int(
            "5BC37649DE4750D2BF654B08FF7197BDF7772DB21E04641C1A844380EA34B14D"
            "D0F16B9F984FA1366D0710E8D877BFD2F290E4D72B170F48C6703A0C30D003F1"
            "00A23A963857609DEBFA9B98B0CAFF1DF8A725847C3D666BEB68A092CC615737"
            "F87B3564F252AAB81721B352D2AFC8F8976F6F7837A1C5565C6F242E7C557BD6",
            16,
        ),
        0x3152EBFA76174E49BC2F5952197C84459147F872485E68BA9A596C1ACE35AB1F,
        id="DEFAULT_GROUP-empty",
    ),
    pytest.param(
        DEFAULT_GROUP,
        MESSAGE,
        int(
            "47AF67F3303722494E49CBC5BC56304BEE3491EAE5CEF994C5708269DF0E30D8"
            "2478B64BAD255CDBB8043646E39E5BE0911A7FD5A61AFC78116A94D6CB0585A5"
            "E5431A6F6CD26F8A412EEFB7B95A46DB3DDA8103DEB24F992ED68B52D91508DD"
            "728DB8306A488C32F930CE2B19309A822BD64191E34CE465F9CBABF2BB413192",
            16,
        ),
        0x8FB3A15AE4E826674831B199612989F5E107D13BEBBA5FA9063370D74C39BFD0,
        id="DEFAULT_GROUP-transcript",
    ),
]


class TestKnownAnswers:
    @pytest.mark.parametrize("group, message, commitment, s", KNOWN_ANSWERS)
    def test_signature_bytes(self, group, message, commitment, s):
        keypair = SchnorrKeyPair.generate(group, seed=SEED)
        assert schnorr_sign(keypair.private, message) == (commitment, s)
        assert schnorr_sign_many(keypair.private, [message]) == [(commitment, s)]
        assert schnorr_verify(keypair.public, message, (commitment, s))


@functools.cache
def bench_sized_group():
    # The 256-bit group bench_daemon.py signs with: its c is 165 bits,
    # so the fold reduces there by only ~90 bits.
    return _generate_group(256, 160, seed=0xBE9C4)


# Moduli with p = 2^n + c, paired with an exponent size.  The last two
# have c nearly n bits: 2^61 - 1 (c = 2^60 - 1) and the largest 256-bit
# prime 2^256 - 189 (c is 255 bits).  The fold is exact for any p >= 2,
# primes or not, so 2 and a power of two (c = 0) are in as well.
MODULI = [
    (TEST_GROUP.p, TEST_GROUP.q.bit_length()),
    (DEFAULT_GROUP.p, DEFAULT_GROUP.q.bit_length()),
    (2**61 - 1, 61),
    (2**256 - 189, 256),
    (2, 8),
    (2**64, 64),
]
MODULUS_IDS = ["TEST_GROUP", "DEFAULT_GROUP", "M61", "P256-189", "two", "2^64"]


def modulus(index):
    if index == len(MODULI):
        group = bench_sized_group()
        return group.p, group.q.bit_length()
    return MODULI[index]


moduli = st.integers(0, len(MODULI))


class TestFixedBaseTable:
    @pytest.mark.parametrize("window_bits", [4, 8])
    @pytest.mark.parametrize(
        "group", [TEST_GROUP, DEFAULT_GROUP], ids=["TEST_GROUP", "DEFAULT_GROUP"]
    )
    def test_edge_exponents(self, group, window_bits):
        q = group.q
        table = _FixedBaseTable(group.g, group.p, q.bit_length(), window_bits)
        for exponent in (0, 1, 2, q - 1, q, (1 << q.bit_length()) - 1):
            assert table.pow(exponent) == pow(group.g, exponent, group.p)
        assert table.pow(q) == 1

    @pytest.mark.parametrize("window_bits", [4, 8])
    def test_bench_sized_group_edges(self, window_bits):
        group = bench_sized_group()
        table = _FixedBaseTable(group.g, group.p, 8, window_bits)
        for exponent in (0, 1, group.q - 1, group.q):
            assert table.pow(exponent) == pow(group.g, exponent, group.p)

    @given(
        moduli,
        st.integers(min_value=0),
        st.integers(min_value=0, max_value=2**1100),
        st.sampled_from([4, 8]),
        st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_pow_matches_builtin(
        self, which, base_seed, exponent, window_bits, initial_bits
    ):
        # initial_bits is usually far below the exponent's length, so
        # most examples extend the table's rows lazily inside pow().
        p, _ = modulus(which)
        base = base_seed % p
        table = _FixedBaseTable(base, p, initial_bits, window_bits)
        assert table.pow(exponent) == pow(base, exponent, p)

    def test_lazy_extension_keeps_earlier_rows(self):
        p = DEFAULT_GROUP.p
        table = _FixedBaseTable(DEFAULT_GROUP.g, p, 8)
        long_exponent = (1 << 700) + 12345
        assert table.pow(long_exponent) == pow(DEFAULT_GROUP.g, long_exponent, p)
        assert table.pow(255) == pow(DEFAULT_GROUP.g, 255, p)


class TestMultiExp:
    @given(
        moduli,
        st.lists(
            st.tuples(st.integers(min_value=0), st.integers(0, 2**80)),
            max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_product_of_builtin_pows(self, which, pairs):
        p, _ = modulus(which)
        bases = [base % p for base, _ in pairs]
        exponents = [exponent for _, exponent in pairs]
        expected = 1
        for base, exponent in zip(bases, exponents):
            expected = expected * pow(base, exponent, p) % p
        assert _multi_exp(p, bases, exponents) == expected

    @pytest.mark.parametrize(
        "which", range(len(MODULI) + 1), ids=MODULUS_IDS + ["BENCH"]
    )
    def test_edge_exponents(self, which):
        p, exp_bits = modulus(which)
        bases = [p - 1, 2 % p, 3 % p, (p // 3) or 1]
        exponents = [0, 1, (1 << exp_bits) - 1, 1 << (exp_bits - 1)]
        expected = 1
        for base, exponent in zip(bases, exponents):
            expected = expected * pow(base, exponent, p) % p
        assert _multi_exp(p, bases, exponents) == expected
        assert _multi_exp(p, bases, [0] * len(bases)) == 1
        assert _multi_exp(p, [], []) == 1

    def test_wide_digits_match_builtin(self):
        # From _MULTI_EXP_WIDE_THRESHOLD bases on, digits are 8 bits.
        p = TEST_GROUP.p
        n = _MULTI_EXP_WIDE_THRESHOLD
        bases = [pow(TEST_GROUP.g, 7 * i + 3, p) for i in range(n)]
        exponents = [(i * 0x9E3779B97F4A7C15) % (1 << 64) | 1 for i in range(n)]
        expected = 1
        for base, exponent in zip(bases, exponents):
            expected = expected * pow(base, exponent, p) % p
        assert _multi_exp(p, bases, exponents) == expected
