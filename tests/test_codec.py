import numpy as np
import pytest

from cvue.bch import BchCode
from cvue.codec import (
    OracleCodec,
    base_decrypt,
    base_encrypt,
    bits_to_hex,
    concrete_spec,
    random_bits,
)
from cvue.protocol import ProtocolParams
from cvue.reference import hex_to_bits


def params(msg_len, num_modes, max_errors, scheme="oracle"):
    return ProtocolParams(msg_len, num_modes, max_errors, 0.4, 3.4, scheme)


class TestBaseCipher:
    def test_zero_pad_is_identity(self):
        m = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        assert np.array_equal(base_encrypt(np.zeros(5, dtype=np.uint8), m), m)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pad = random_bits(64, rng)
            m = random_bits(64, rng)
            assert np.array_equal(base_decrypt(pad, base_encrypt(pad, m)), m)

    def test_zero_message_reveals_pad(self):
        rng = np.random.default_rng(1)
        pad = random_bits(32, rng)
        assert np.array_equal(base_encrypt(pad, np.zeros(32, dtype=np.uint8)), pad)

    def test_involution(self):
        rng = np.random.default_rng(2)
        pad = random_bits(16, rng)
        m = random_bits(16, rng)
        assert np.array_equal(base_encrypt(pad, base_encrypt(pad, m)), m)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            base_encrypt(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8))


class TestBitHelpers:
    def test_hex_round_trip(self):
        rng = np.random.default_rng(3)
        for length in (1, 7, 8, 9, 1000):
            bits = random_bits(length, rng)
            assert np.array_equal(hex_to_bits(bits_to_hex(bits), length), bits)

    def test_hex_too_short(self):
        with pytest.raises(ValueError):
            hex_to_bits("ff", 100)


class TestCodecSpec:
    # the code-layer checks (n, N, t, scheme) that ProtocolParams makes

    def test_valid_oracle_spec(self):
        assert params(892, 1000, 35, "oracle").msg_len == 892

    def test_message_longer_than_code(self):
        with pytest.raises(ValueError, match="exceed"):
            params(20, 10, 1)

    def test_too_many_errors(self):
        with pytest.raises(ValueError, match="num_modes/2"):
            params(4, 10, 5)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            params(4, 10, 1, "magic")

    def test_concrete_realizability(self):
        assert params(6, 16, 2, "concrete").max_errors == 2
        with pytest.raises(ValueError, match="carries 6 message bits, not 5"):
            params(5, 16, 2, "concrete")
        # odd lengths are codes too, just not protocol mode counts
        assert BchCode(15, 2).msg_len == 7
        # even lengths come from shortening the next primitive code
        assert BchCode(16, 2).order == 31
        with pytest.raises(ValueError, match="at most 1023"):
            concrete_spec(2000, 3)
        with pytest.raises(ValueError, match="no message bits"):
            params(4, 16, 7, "concrete")

    def test_concrete_spec_helper(self):
        code = concrete_spec(31, 3)
        assert (code.msg_len, code.length) == (16, 31)
        shortened = concrete_spec(30, 3)
        assert (shortened.msg_len, shortened.length) == (15, 30)


class TestOracleCodec:
    def test_round_trip_many(self):
        rng = np.random.default_rng(4)
        codec = OracleCodec(20, 40, 3)
        for _ in range(1000):
            m = random_bits(20, rng)
            assert np.array_equal(codec.decode(codec.encode(m)), m)

    def test_decode_before_encode(self):
        codec = OracleCodec(4, 8, 1)
        with pytest.raises(RuntimeError):
            codec.decode(np.zeros(8, dtype=np.uint8))

    def test_kilobit_parameters_accepted(self):
        codec = OracleCodec(892, 1000, 35)
        rng = np.random.default_rng(6)
        m = random_bits(892, rng)
        word = codec.encode(m)
        word[rng.choice(1000, size=35, replace=False)] ^= 1
        assert np.array_equal(codec.decode(word), m)


class TestBchCodec:
    def test_round_trip_with_errors(self):
        code = concrete_spec(63, 3)
        rng = np.random.default_rng(7)
        for _ in range(30):
            m = random_bits(code.msg_len, rng)
            word = code.encode(m)
            word[rng.choice(63, size=3, replace=False)] ^= 1
            assert np.array_equal(code.decode(word), m)

    def test_shortened_round_trip_with_errors(self):
        code = concrete_spec(30, 3)
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = random_bits(code.msg_len, rng)
            word = code.encode(m)
            assert word.size == 30
            flips = int(rng.integers(0, 4))
            word[rng.choice(30, size=flips, replace=False)] ^= 1
            assert np.array_equal(code.decode(word), m)

    def test_make_codec_dispatch(self):
        oracle = params(4, 8, 1)
        assert isinstance(oracle.make_codec(), OracleCodec)
        assert oracle.make_codec() is not oracle.make_codec()  # stateful, one per exchange
        assert params(15, 30, 3, "concrete").make_codec() is concrete_spec(30, 3)


@pytest.mark.parametrize(
    "spec", [params(8, 16, 3), params(15, 30, 3, "concrete")], ids=["oracle", "bch-shortened"]
)
def test_success_iff_flip_count_at_most_t(spec):
    # the property the flip-count kernels in cvue.adversary rely on: a
    # bounded-distance decoder returns the sent message iff <= t bits flipped
    rng = np.random.default_rng(5)
    codec = spec.make_codec()
    for flips in range(spec.num_modes + 1):
        for _ in range(20):
            m = random_bits(spec.msg_len, rng)
            corrupted = codec.encode(m)
            corrupted[rng.choice(spec.num_modes, size=flips, replace=False)] ^= 1
            decoded = codec.decode(corrupted)
            if flips <= spec.max_errors:
                assert np.array_equal(decoded, m)
            elif spec.codec_scheme == "oracle":
                assert decoded is None
            else:
                # beyond t a BCH decoder may land on another codeword
                assert decoded is None or not np.array_equal(decoded, m)
