import numpy as np
import pytest

from cvue.codec import (
    BchCodec,
    CodecSpec,
    OracleCodec,
    base_decrypt,
    base_encrypt,
    bits_to_hex,
    concrete_spec,
    make_codec,
    random_bits,
)
from cvue.reference import hex_to_bits


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
    def test_valid_oracle_spec(self):
        spec = CodecSpec(892, 1000, 35, "oracle")
        assert spec.msg_len == 892

    def test_message_longer_than_code(self):
        with pytest.raises(ValueError, match="exceed"):
            CodecSpec(20, 10, 1)

    def test_too_many_errors(self):
        with pytest.raises(ValueError, match="code_len/2"):
            CodecSpec(4, 10, 5)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            CodecSpec(4, 10, 1, "magic")

    def test_concrete_realizability(self):
        assert CodecSpec(7, 15, 2, "concrete").max_errors == 2
        with pytest.raises(ValueError, match="message bits"):
            CodecSpec(6, 15, 2, "concrete")
        # even lengths come from shortening the next primitive code
        assert CodecSpec(6, 16, 2, "concrete").msg_len == 6
        with pytest.raises(ValueError, match="at most"):
            concrete_spec(2000, 3)

    def test_concrete_spec_helper(self):
        spec = concrete_spec(31, 3)
        assert (spec.msg_len, spec.code_len) == (16, 31)
        shortened = concrete_spec(30, 3)
        assert (shortened.msg_len, shortened.code_len) == (15, 30)


class TestOracleCodec:
    def test_round_trip_many(self):
        spec = CodecSpec(20, 40, 3)
        rng = np.random.default_rng(4)
        codec = OracleCodec(spec)
        for _ in range(1000):
            m = random_bits(20, rng)
            assert np.array_equal(codec.decode(codec.encode(m)), m)

    def test_decode_before_encode(self):
        codec = OracleCodec(CodecSpec(4, 8, 1))
        with pytest.raises(RuntimeError):
            codec.decode(np.zeros(8, dtype=np.uint8))

    def test_kilobit_parameters_accepted(self):
        codec = OracleCodec(CodecSpec(892, 1000, 35))
        rng = np.random.default_rng(6)
        m = random_bits(892, rng)
        word = codec.encode(m)
        word[rng.choice(1000, size=35, replace=False)] ^= 1
        assert np.array_equal(codec.decode(word), m)


class TestBchCodec:
    def test_round_trip_with_errors(self):
        spec = concrete_spec(63, 3)
        codec = make_codec(spec)
        assert isinstance(codec, BchCodec)
        rng = np.random.default_rng(7)
        for _ in range(30):
            m = random_bits(spec.msg_len, rng)
            word = codec.encode(m)
            word[rng.choice(63, size=3, replace=False)] ^= 1
            assert np.array_equal(codec.decode(word), m)

    def test_shortened_round_trip_with_errors(self):
        spec = concrete_spec(30, 3)
        codec = make_codec(spec)
        rng = np.random.default_rng(8)
        for _ in range(100):
            m = random_bits(spec.msg_len, rng)
            word = codec.encode(m)
            assert word.size == 30
            flips = int(rng.integers(0, 4))
            word[rng.choice(30, size=flips, replace=False)] ^= 1
            assert np.array_equal(codec.decode(word), m)

    def test_make_codec_dispatch(self):
        assert isinstance(make_codec(CodecSpec(4, 8, 1)), OracleCodec)


@pytest.mark.parametrize(
    "spec", [CodecSpec(8, 16, 3), concrete_spec(30, 3)], ids=["oracle", "bch-shortened"]
)
def test_success_iff_flip_count_at_most_t(spec):
    # the property the flip-count kernels in cvue.adversary rely on: a
    # bounded-distance decoder returns the sent message iff <= t bits flipped
    rng = np.random.default_rng(5)
    codec = make_codec(spec)
    for flips in range(spec.code_len + 1):
        for _ in range(20):
            m = random_bits(spec.msg_len, rng)
            corrupted = codec.encode(m)
            corrupted[rng.choice(spec.code_len, size=flips, replace=False)] ^= 1
            decoded = codec.decode(corrupted)
            if flips <= spec.max_errors:
                assert np.array_equal(decoded, m)
            elif spec.scheme == "oracle":
                assert decoded is None
            else:
                # beyond t a BCH decoder may land on another codeword
                assert decoded is None or not np.array_equal(decoded, m)
