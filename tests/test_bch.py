import itertools

import numpy as np
import pytest

from cvue import bch
from cvue.bch import BchCode, SUPPORTED_LENGTHS
from cvue.codec import concrete_spec, make_codec
from cvue.protocol import ProtocolParams
from cvue.reference import _bch_berlekamp_massey, bch_decode_scalar, bch_encode_scalar


# (length, message bits, t) triples from the standard BCH tables
KNOWN_CODES = [
    (15, 11, 1),
    (15, 7, 2),
    (15, 5, 3),
    (31, 16, 3),
    (63, 45, 3),
    (127, 99, 4),
    (255, 215, 5),
    (1023, 973, 5),
]


@pytest.mark.parametrize("length,msg_len,t", KNOWN_CODES)
def test_known_code_dimensions(length, msg_len, t):
    code = BchCode.for_length(length, t)
    assert code.msg_len == msg_len
    assert code.length == length


def test_bad_length_rejected():
    with pytest.raises(ValueError, match="2\\^m - 1"):
        BchCode.for_length(1000, 3)
    assert 1023 in SUPPORTED_LENGTHS


def test_repetition_code_limit():
    # t=7 at length 15 is the (15,1) repetition code; t=8 exceeds the design bound
    assert BchCode(4, 7).msg_len == 1
    with pytest.raises(ValueError, match="designed distance"):
        BchCode(4, 8)


def test_exhaustive_correction_15_7_2():
    code = BchCode(4, 2)
    rng = np.random.default_rng(0)
    for _ in range(3):
        msg = rng.integers(0, 2, code.msg_len, dtype=np.uint8)
        word = code.encode(msg)
        for weight in range(code.t + 1):
            for flips in itertools.combinations(range(code.length), weight):
                corrupted = word.copy()
                corrupted[list(flips)] ^= 1
                assert np.array_equal(code.decode(corrupted), msg)


def test_exhaustive_correction_15_5_3():
    code = BchCode(4, 3)
    rng = np.random.default_rng(1)
    msg = rng.integers(0, 2, code.msg_len, dtype=np.uint8)
    word = code.encode(msg)
    for weight in range(code.t + 1):
        for flips in itertools.combinations(range(code.length), weight):
            corrupted = word.copy()
            corrupted[list(flips)] ^= 1
            assert np.array_equal(code.decode(corrupted), msg)


def test_randomized_volume_63_45_3():
    # 1e4 randomized round trips at a length where exhaustion is infeasible
    code = BchCode(6, 3)
    rng = np.random.default_rng(63)
    for _ in range(10_000):
        msg = rng.integers(0, 2, code.msg_len, dtype=np.uint8)
        word = code.encode(msg)
        weight = int(rng.integers(0, code.t + 1))
        word[rng.choice(code.length, size=weight, replace=False)] ^= 1
        assert np.array_equal(code.decode(word), msg)


def test_randomized_volume_shortened_1000_675_35():
    # the paper-point codec: BCH(1023, t=35) shortened to 1000 bits
    spec = concrete_spec(1000, 35)
    assert spec.msg_len == 675
    codec = make_codec(spec)
    rng = np.random.default_rng(1000)
    for _ in range(1000):
        msg = rng.integers(0, 2, spec.msg_len, dtype=np.uint8)
        word = codec.encode(msg)
        weight = int(rng.integers(0, spec.max_errors + 1))
        word[rng.choice(spec.code_len, size=weight, replace=False)] ^= 1
        assert np.array_equal(codec.decode(word), msg)


@pytest.mark.parametrize("m,t", [(5, 3), (6, 3), (7, 4), (10, 5)])
def test_random_correction(m, t):
    code = BchCode(m, t)
    rng = np.random.default_rng(m * 100 + t)
    for _ in range(40):
        msg = rng.integers(0, 2, code.msg_len, dtype=np.uint8)
        word = code.encode(msg)
        weight = int(rng.integers(0, t + 1))
        flips = rng.choice(code.length, size=weight, replace=False)
        word[flips] ^= 1
        assert np.array_equal(code.decode(word), msg)


def test_beyond_capacity_fails_or_miscorrects():
    code = BchCode(4, 2)
    rng = np.random.default_rng(7)
    msg = rng.integers(0, 2, code.msg_len, dtype=np.uint8)
    word = code.encode(msg)
    outcomes = {"failure": 0, "miscorrect": 0, "lucky": 0}
    for _ in range(300):
        corrupted = word.copy()
        corrupted[rng.choice(code.length, size=code.t + 1, replace=False)] ^= 1
        decoded = code.decode(corrupted)
        if decoded is None:
            outcomes["failure"] += 1
        elif np.array_equal(decoded, msg):
            outcomes["lucky"] += 1
        else:
            outcomes["miscorrect"] += 1
    # weight-3 errors on a distance-5 code can never land back on the sent word
    assert outcomes["lucky"] == 0
    assert outcomes["failure"] + outcomes["miscorrect"] == 300


def test_systematic_positions():
    code = BchCode(4, 2)
    msg = np.arange(code.msg_len, dtype=np.uint8) % 2
    word = code.encode(msg)
    assert np.array_equal(word[code.parity_len :], msg)


@pytest.mark.parametrize(
    "m,t", [(3, 1), (4, 2), (5, 3), (6, 3), (7, 4), (8, 10), (9, 20), (10, 35)]
)
def test_encode_matches_scalar_oracle(m, t):
    code = BchCode(m, t)
    rng = np.random.default_rng(m * 100 + t)
    messages = [np.zeros(code.msg_len, dtype=np.uint8), np.ones(code.msg_len, dtype=np.uint8)]
    messages += [rng.integers(0, 2, code.msg_len, dtype=np.uint8) for _ in range(20)]
    for msg in messages:
        assert np.array_equal(code.encode(msg), bch_encode_scalar(code, msg))


def test_encode_single_bits_match_scalar_oracle():
    # each parity-table row on its own, and the all-zero message (no rows)
    code = BchCode(5, 3)
    zero = np.zeros((1, code.msg_len), dtype=np.uint8)
    for msg in np.vstack([zero, np.eye(code.msg_len, dtype=np.uint8)]):
        word = code.encode(msg)
        assert word.dtype == np.uint8
        assert np.array_equal(word, bch_encode_scalar(code, msg))


def test_berlekamp_massey_matches_full_step_oracle():
    # the t-step binary form against the 2t-step reference, on the syndromes
    # of random binary words at 0..3t flips: beyond t the locator may be too
    # long (None) or a wrong, short one that the decoder may then act on
    outcomes = {"none": 0, "beyond_t": 0}
    for m, t in [(6, 3), (8, 10), (10, 35)]:
        code = BchCode(m, t)
        rng = np.random.default_rng(m * 1000 + t)
        for weight in range(3 * t + 1):
            for _ in range(max(1, 90 // t)):
                msg = rng.integers(0, 2, code.msg_len, dtype=np.uint8)
                word = code.encode(msg)
                word[rng.choice(code.length, size=weight, replace=False)] ^= 1
                syndromes = code._syndromes(np.flatnonzero(word)).tolist()
                want = _bch_berlekamp_massey(code, syndromes)
                assert code._berlekamp_massey(syndromes) == want, (m, t, weight)
                if want is None:
                    outcomes["none"] += 1
                elif weight > t:
                    outcomes["beyond_t"] += 1
    assert outcomes["none"] > 0 and outcomes["beyond_t"] > 0


def test_encode_length_check():
    code = BchCode(4, 2)
    with pytest.raises(ValueError, match="length"):
        code.encode(np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError, match="length"):
        code.decode(np.zeros(10, dtype=np.uint8))


def test_encode_rejects_non_binary_bits():
    code = BchCode(4, 2)
    for bad in ([2, 0, 0, 0, 0, 0, 1], [0.5, 0, 0, 0, 0, 0, 1], [-1, 0, 0, 0, 0, 0, 1],
                [np.nan, 0, 0, 0, 0, 0, 1]):
        with pytest.raises(ValueError, match="bits"):
            code.encode(np.array(bad))
    booleans = np.array([True, False, True, True, False, False, True])
    assert np.array_equal(code.encode(booleans), code.encode(booleans.astype(np.uint8)))
    # the shortened codec hands the bits over uncast, so 256 does not wrap to 0
    with pytest.raises(ValueError, match="bits"):
        make_codec(concrete_spec(30, 3)).encode(np.array([256] + [0] * 14))


def test_codes_are_shared_and_read_only():
    code = BchCode.for_length(63, 3)
    assert BchCode.smallest_for(60, 3) is code
    tables = (code._exp_table, code._syndrome_table, code._chien_table, code._parity_table)
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 0


def test_concrete_params_build_the_code_once(monkeypatch):
    builds = []
    build = BchCode.__init__

    def counting_init(self, m, t):
        builds.append((m, t))
        build(self, m, t)

    bch._shared_code.cache_clear()
    monkeypatch.setattr(BchCode, "__init__", counting_init)
    for _ in range(2):
        params = ProtocolParams(675, 1000, 35, 0.4, 3.4, "concrete")
        params.make_codec()
    assert builds == [(10, 35)]


def _same_result(got, want) -> bool:
    if want is None:
        return got is None
    return got is not None and np.array_equal(got, want)


def _differential_weights(t: int) -> list[int]:
    # every weight the decoder must correct, then beyond t where it may fail
    # or land on another codeword
    return list(range(t + 1)) + [t + 1] * 8 + [2 * t] * 8


def test_decode_matches_scalar_oracle_63_45_3():
    code = BchCode(6, 3)
    rng = np.random.default_rng(631)
    outcomes = {"none": 0, "miscorrect": 0}
    for weight in _differential_weights(code.t) * 25:
        msg = rng.integers(0, 2, code.msg_len, dtype=np.uint8)
        word = code.encode(msg)
        word[rng.choice(code.length, size=weight, replace=False)] ^= 1
        want = bch_decode_scalar(code, word)
        assert _same_result(code.decode(word), want), weight
        if want is None:
            outcomes["none"] += 1
        elif not np.array_equal(want, msg):
            outcomes["miscorrect"] += 1
    # both beyond-t paths were exercised
    assert outcomes["none"] > 0 and outcomes["miscorrect"] > 0


@pytest.mark.parametrize(
    "code_len,t,repeats", [(1000, 35, 1), (40, 3, 25)], ids=["1000-35", "40-3"]
)
def test_decode_matches_scalar_oracle_shortened(code_len, t, repeats):
    # 1000-35 is the paper-point codec; 40-3 shortens BCH(63, 45, 3) by 23
    # bits, so miscorrections into the pinned positions are common there
    spec = concrete_spec(code_len, t)
    codec = make_codec(spec)
    code = BchCode.smallest_for(code_len, t)
    rng = np.random.default_rng(code_len + t)
    refused = 0
    for weight in _differential_weights(t) * repeats:
        msg = rng.integers(0, 2, spec.msg_len, dtype=np.uint8)
        word = codec.encode(msg)
        word[rng.choice(code_len, size=weight, replace=False)] ^= 1
        full = np.concatenate([word, np.zeros(code.length - code_len, dtype=np.uint8)])
        want = bch_decode_scalar(code, full)
        assert _same_result(code.decode(full), want), weight
        # the codec also refuses a correction in a shortened position
        if want is not None and np.any(want[spec.msg_len :]):
            want = None
            refused += 1
        assert _same_result(codec.decode(word), None if want is None else want[: spec.msg_len])
    assert refused > 0 or repeats == 1
