import itertools
import tracemalloc

import numpy as np
import pytest

from cvue import codec
from cvue.bch import BchCode
from cvue.codec import concrete_spec
from cvue.protocol import ProtocolParams
from cvue.reference import (
    _bch_berlekamp_massey,
    _bch_chien_search,
    _bch_syndromes,
    bch_decode_scalar,
    bch_encode_scalar,
    gf_mul,
)


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
    code = BchCode(length, t)
    assert code.msg_len == msg_len
    assert code.length == code.order == length


def test_bad_length_rejected():
    with pytest.raises(ValueError, match="at most 1023"):
        BchCode(1024, 3)
    # any length up to 1023 is the next primitive code shortened
    code = BchCode(1000, 3)
    assert (code.order, code.msg_len) == (1023, BchCode(1023, 3).msg_len - 23)


def test_repetition_code_limit():
    # t=7 at length 15 is the (15,1) repetition code; t=8 exceeds the design bound
    assert BchCode(15, 7).msg_len == 1
    with pytest.raises(ValueError, match="designed distance"):
        BchCode(15, 8)


def test_exhaustive_correction_15_7_2():
    code = BchCode(15, 2)
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
    code = BchCode(15, 3)
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
    code = BchCode(63, 3)
    rng = np.random.default_rng(63)
    for _ in range(10_000):
        msg = rng.integers(0, 2, code.msg_len, dtype=np.uint8)
        word = code.encode(msg)
        weight = int(rng.integers(0, code.t + 1))
        word[rng.choice(code.length, size=weight, replace=False)] ^= 1
        assert np.array_equal(code.decode(word), msg)


def test_randomized_volume_shortened_1000_675_35():
    # the paper-point codec: BCH(1023, t=35) shortened to 1000 bits
    code = concrete_spec(1000, 35)
    assert (code.msg_len, code.order) == (675, 1023)
    rng = np.random.default_rng(1000)
    for _ in range(1000):
        msg = rng.integers(0, 2, code.msg_len, dtype=np.uint8)
        word = code.encode(msg)
        weight = int(rng.integers(0, code.t + 1))
        word[rng.choice(code.length, size=weight, replace=False)] ^= 1
        assert np.array_equal(code.decode(word), msg)


@pytest.mark.parametrize("m,t", [(5, 3), (6, 3), (7, 4), (10, 5)])
def test_random_correction(m, t):
    code = BchCode((1 << m) - 1, t)
    rng = np.random.default_rng(m * 100 + t)
    for _ in range(40):
        msg = rng.integers(0, 2, code.msg_len, dtype=np.uint8)
        word = code.encode(msg)
        weight = int(rng.integers(0, t + 1))
        flips = rng.choice(code.length, size=weight, replace=False)
        word[flips] ^= 1
        assert np.array_equal(code.decode(word), msg)


def test_beyond_capacity_fails_or_miscorrects():
    code = BchCode(15, 2)
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
    code = BchCode(15, 2)
    msg = np.arange(code.msg_len, dtype=np.uint8) % 2
    word = code.encode(msg)
    assert np.array_equal(word[code.parity_len :], msg)


@pytest.mark.parametrize(
    "m,t", [(3, 1), (4, 2), (5, 3), (6, 3), (7, 4), (8, 10), (9, 20), (10, 35)]
)
def test_encode_matches_scalar_oracle(m, t):
    code = BchCode((1 << m) - 1, t)
    rng = np.random.default_rng(m * 100 + t)
    messages = [np.zeros(code.msg_len, dtype=np.uint8), np.ones(code.msg_len, dtype=np.uint8)]
    messages += [rng.integers(0, 2, code.msg_len, dtype=np.uint8) for _ in range(20)]
    for msg in messages:
        assert np.array_equal(code.encode(msg), bch_encode_scalar(code, msg))


def test_encode_single_bits_match_scalar_oracle():
    # each parity-table row on its own, and the all-zero message (no rows)
    code = BchCode(31, 3)
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
        code = BchCode((1 << m) - 1, t)
        rng = np.random.default_rng(m * 1000 + t)
        for weight in range(3 * t + 1):
            for _ in range(max(1, 90 // t)):
                msg = rng.integers(0, 2, code.msg_len, dtype=np.uint8)
                word = code.encode(msg)
                word[rng.choice(code.length, size=weight, replace=False)] ^= 1
                syndromes = code._expand_syndromes(code._syndromes(np.flatnonzero(word)))
                want = _bch_berlekamp_massey(code, syndromes)
                assert code._berlekamp_massey(syndromes) == want, (m, t, weight)
                if want is None:
                    outcomes["none"] += 1
                elif weight > t:
                    outcomes["beyond_t"] += 1
    assert outcomes["none"] > 0 and outcomes["beyond_t"] > 0


def test_encode_length_check():
    code = BchCode(15, 2)
    with pytest.raises(ValueError, match="length"):
        code.encode(np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError, match="length"):
        code.decode(np.zeros(10, dtype=np.uint8))


def test_encode_rejects_non_binary_bits():
    code = BchCode(15, 2)
    for bad in ([2, 0, 0, 0, 0, 0, 1], [0.5, 0, 0, 0, 0, 0, 1], [-1, 0, 0, 0, 0, 0, 1],
                [np.nan, 0, 0, 0, 0, 0, 1]):
        with pytest.raises(ValueError, match="bits"):
            code.encode(np.array(bad))
    booleans = np.array([True, False, True, True, False, False, True])
    assert np.array_equal(code.encode(booleans), code.encode(booleans.astype(np.uint8)))
    # the bits are checked before any cast, so 256 does not wrap to 0
    with pytest.raises(ValueError, match="bits"):
        concrete_spec(30, 3).encode(np.array([256] + [0] * 14))


def test_codes_are_shared_and_read_only():
    code = concrete_spec(60, 3)
    assert concrete_spec(60, 3) is code
    assert ProtocolParams(42, 60, 3, 0.4, 3.4, "concrete").make_codec() is code
    tables = (code._exp_table, code._syndrome_table, code._chien_table, code._parity_table)
    for table in tables:
        with pytest.raises(ValueError):
            table[0] = 0


def test_concrete_params_build_the_code_once(monkeypatch):
    builds = []
    build = BchCode.__init__

    def counting_init(self, length, t):
        builds.append((length, t))
        build(self, length, t)

    codec.concrete_spec.cache_clear()
    monkeypatch.setattr(BchCode, "__init__", counting_init)
    for _ in range(2):
        params = ProtocolParams(675, 1000, 35, 0.4, 3.4, "concrete")
        params.make_codec()
    assert builds == [(1000, 35)]


def _same_result(got, want) -> bool:
    if want is None:
        return got is None
    return got is not None and np.array_equal(got, want)


def _differential_weights(t: int) -> list[int]:
    # every weight the decoder must correct, then beyond t where it may fail
    # or land on another codeword
    return list(range(t + 1)) + [t + 1] * 8 + [2 * t] * 8


def test_decode_matches_scalar_oracle_63_45_3():
    code = BchCode(63, 3)
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
    code = concrete_spec(code_len, t)
    primitive = BchCode(code.order, t)
    rng = np.random.default_rng(code_len + t)
    refused = 0
    for weight in _differential_weights(t) * repeats:
        msg = rng.integers(0, 2, code.msg_len, dtype=np.uint8)
        word = code.encode(msg)
        word[rng.choice(code_len, size=weight, replace=False)] ^= 1
        want = bch_decode_scalar(code, word)
        assert _same_result(code.decode(word), want), weight
        # the unshortened decode of the zero-padded word agrees, except that
        # the shortened code refuses a correction in a pinned position
        pad = np.zeros(code.order - code_len, dtype=np.uint8)
        full = bch_decode_scalar(primitive, np.concatenate([word, pad]))
        if full is not None and np.any(full[code.msg_len :]):
            full = None
            refused += 1
        assert _same_result(want, None if full is None else full[: code.msg_len])
    assert refused > 0 or repeats == 1


# codes that reach every padding case of the word-parallel tables: t = 0, 1,
# 2 and 3 mod 4 (odd-syndrome lanes), and N below 64, at 64, a multiple of 64
# and neither (Chien words)
PADDING_CODES = [(7, 1), (64, 6), (40, 3), (127, 10), (128, 8), (200, 13), (1000, 35)]
PADDING_IDS = [f"{n}-{t}" for n, t in PADDING_CODES]


def _random_words(code, rng, count):
    # codewords of random messages with 0..2t flips in the sent positions
    for _ in range(count):
        word = code.encode(rng.integers(0, 2, code.msg_len, dtype=np.uint8))
        weight = int(rng.integers(0, min(2 * code.t, code.length) + 1))
        word[rng.choice(code.length, size=weight, replace=False)] ^= 1
        yield word


def _locator_with_roots(code, positions) -> list[int]:
    # prod (1 + alpha^p x): its roots alpha^-p mark the positions p
    sigma = [1]
    for p in positions:
        root = code._exp[p]
        shifted = [0] + [gf_mul(code, c, root) for c in sigma]
        sigma = [a ^ b for a, b in itertools.zip_longest(sigma, shifted, fillvalue=0)]
    return sigma


@pytest.mark.parametrize("code_len,t", PADDING_CODES, ids=PADDING_IDS)
def test_word_parallel_kernels_match_scalar_oracles(code_len, t):
    code = concrete_spec(code_len, t)
    rng = np.random.default_rng(code_len * 100 + t)
    words = 12 if code_len > 500 else 40
    for word in _random_words(code, rng, words):
        positions = np.flatnonzero(word)
        syndromes = code._expand_syndromes(code._syndromes(positions))
        assert syndromes == _bch_syndromes(code, positions)
        assert _same_result(code.decode(word), bch_decode_scalar(code, word))
        message = word[code.parity_len :]
        assert np.array_equal(code.encode(message), bch_encode_scalar(code, message))
        locator = code._berlekamp_massey(syndromes)
        if locator is not None:
            want = _bch_chien_search(code, locator)
            assert np.array_equal(code._chien_search(locator), want[want < code_len])
    # locators with known roots, some in the pinned positions past N, and
    # random ones, which mostly have fewer roots than their degree
    for degree in range(1, t + 1):
        roots = rng.choice(code.order, size=degree, replace=False)
        random_sigma = [1] + rng.integers(0, code.order + 1, size=degree).tolist()
        for sigma in (_locator_with_roots(code, roots), random_sigma):
            want = _bch_chien_search(code, sigma)
            assert np.array_equal(code._chien_search(sigma), want[want < code_len])
    assert np.array_equal(code._chien_search(_locator_with_roots(code, roots)),
                          np.sort(roots[roots < code_len]))


@pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan, 257])
@pytest.mark.parametrize("make", [lambda: BchCode(64, 6), lambda: codec.OracleCodec(16, 64, 6)],
                         ids=["bch", "oracle"])
def test_decode_rejects_non_bit_words(make, bad):
    # checked before any cast: 257 would wrap to 1 and 0.5 to 0 as uint8
    code = make()
    word = code.encode(np.zeros(code.msg_len, dtype=np.uint8)).astype(np.asarray(bad).dtype)
    word[5] = bad
    with pytest.raises(ValueError, match="word bits must be 0 or 1"):
        code.decode(word)
    # 0 and 1 of any dtype, and booleans, are bits
    word[5] = 0
    assert np.array_equal(code.decode(word), np.zeros(code.msg_len, dtype=np.uint8))
    assert np.array_equal(code.decode(word.astype(bool)), np.zeros(code.msg_len, dtype=np.uint8))


def test_paper_point_code_builds_small():
    # the paper-point code's build: its peak allocation and the size of what
    # it keeps set the benchmark's setup time and peak RSS
    tracemalloc.start()
    try:
        code = BchCode(1000, 35)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    tables = [v for v in vars(code).values() if isinstance(v, np.ndarray)]
    assert sum(table.nbytes for table in tables) < 600 * 2**10
