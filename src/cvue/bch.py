"""Binary primitive BCH encoder/decoder over GF(2^m).

Polynomials over GF(2) are stored as Python ints (bit i = coefficient of
x^i), so addition is XOR. Field elements of GF(2^m) are ints in [0, 2^m)
with multiplication through exp/log tables of a primitive element alpha.

A designed-distance code correcting t errors has generator polynomial
g(x) = lcm of the minimal polynomials of alpha^1 ... alpha^2t; the code
length is n = 2^m - 1 and the message length is n - deg(g).

Each code builds three tables once, so that no encode or decode does a
bigint division, a multiply or a modulo per bit:

* a packed parity table whose row i is x^(deg g + i) mod g; systematic
  encoding (message bits in the high-order coefficients) XORs the rows of
  the set message bits;
* an (n, 2t) table of alpha^(i*j); the syndromes S_1..S_2t of a word are
  one gather of its set positions' rows and one XOR reduce;
* a (t+1, n) table of (-k*i) mod n; the Chien search evaluates the error
  locator at every alpha^-i as one gather from the doubled exp table and
  one XOR reduce.

Between the two, Berlekamp-Massey runs in its binary form: a binary
word's syndromes satisfy S_2j = S_j^2, which makes every even-step
discrepancy zero (Berlekamp 1968; Lin & Costello, Error Control Coding,
sec. 6.2), so only the t odd steps run, with products in the log domain.
Decoding fails when the locator fits no error pattern of weight <= t.
"""

from __future__ import annotations

import functools

import numpy as np

# One primitive polynomial per field degree (standard tables).
_PRIMITIVE_POLY = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
}

SUPPORTED_LENGTHS = tuple(sorted((1 << m) - 1 for m in _PRIMITIVE_POLY))


def check_message_bits(message: np.ndarray) -> None:
    """Raise ValueError unless every entry is 0 or 1 (NaN is neither)."""
    message = np.asarray(message)
    if not ((message == 0) | (message == 1)).all():
        raise ValueError("message bits must be 0 or 1")


def _poly_mul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


@functools.cache
def _shared_code(m: int, t: int) -> "BchCode":
    # the field, generator and tables take milliseconds to build; instances are immutable
    return BchCode(m, t)


class BchCode:
    """A (2^m - 1, msg_len) binary BCH code correcting ``t`` bit errors.

    ``for_length`` and ``smallest_for`` return one shared instance per
    (m, t); an instance holds only read-only tables and no decode state.
    """

    def __init__(self, m: int, t: int):
        if m not in _PRIMITIVE_POLY:
            raise ValueError(f"field degree must be one of {sorted(_PRIMITIVE_POLY)}")
        if t < 1:
            raise ValueError("t must be at least 1")
        self.m = m
        self.t = t
        self.length = (1 << m) - 1
        if 2 * t >= self.length:
            raise ValueError(
                f"designed distance 2t+1 must not exceed the code length {self.length}"
            )
        self._build_field()
        self.generator = self._build_generator()
        self.parity_len = self.generator.bit_length() - 1
        self.msg_len = self.length - self.parity_len
        if self.msg_len <= 0:
            raise ValueError(f"t={t} leaves no message bits at length {self.length}")
        self._build_tables()

    @classmethod
    def for_length(cls, length: int, t: int) -> "BchCode":
        m = (length + 1).bit_length() - 1
        if (1 << m) - 1 != length:
            raise ValueError(f"code length must be 2^m - 1, one of {SUPPORTED_LENGTHS}")
        return _shared_code(m, t)

    @classmethod
    def smallest_for(cls, length: int, t: int) -> "BchCode":
        """Smallest primitive code whose length covers ``length`` (for shortening)."""
        for m in sorted(_PRIMITIVE_POLY):
            if (1 << m) - 1 >= length:
                return _shared_code(m, t)
        raise ValueError(f"code length must be at most {SUPPORTED_LENGTHS[-1]}")

    def _build_field(self) -> None:
        # exp[i] = alpha^i for i < 2*length (doubled so log sums need no
        # modulo), then zeros: log[0] = 2*length, so a log sum with a zero
        # operand lands in the zeros and a product with 0 needs no branch
        order = self.length
        prim = _PRIMITIVE_POLY[self.m]
        exp = [0] * (4 * order + 1)
        log = [2 * order] * (order + 1)
        x = 1
        for i in range(order):
            exp[i] = exp[i + order] = x
            log[x] = i
            x <<= 1
            if x & (order + 1):
                x ^= prim
        self._exp, self._log = tuple(exp), tuple(log)  # scalar lookups
        self._exp_table = np.array(exp[: 2 * order], dtype=np.int64)  # array gathers
        self._exp_table.flags.writeable = False

    def _build_tables(self) -> None:
        n, t = self.length, self.t
        points = np.arange(n)
        # syndrome powers alpha^(i*j), j = 1..2t, and Chien exponents
        # (-k*i) mod n, k = 0..t; m <= 10, so 16 bits hold every entry
        exponents = points[:, None] * np.arange(1, 2 * t + 1) % n
        self._syndrome_table = self._exp_table.astype(np.uint16)[exponents]
        self._chien_table = (-np.arange(t + 1)[:, None] * points % n).astype(np.int16)
        # parity rows x^(parity_len + i) mod g, each the last one times x
        top = 1 << self.parity_len
        row = self.generator ^ top
        nbytes = (self.parity_len + 7) // 8
        rows = []
        for _ in range(self.msg_len):
            rows.append(row.to_bytes(nbytes, "little"))
            row <<= 1
            if row & top:
                row ^= self.generator
        self._parity_table = np.frombuffer(b"".join(rows), np.uint8).reshape(self.msg_len, -1)
        for table in (self._syndrome_table, self._chien_table):
            table.flags.writeable = False

    def _gf_mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def _minimal_poly(self, coset: list[int]) -> int:
        # product of (x - alpha^j) over the cyclotomic coset
        poly = [1]  # coefficients in GF(2^m), poly[k] = coeff of x^k
        for j in coset:
            root = self._exp[j]
            nxt = [0] * (len(poly) + 1)
            for k, coeff in enumerate(poly):
                nxt[k + 1] ^= coeff
                nxt[k] ^= self._gf_mul(coeff, root)
            poly = nxt
        if any(c not in (0, 1) for c in poly):
            raise AssertionError("minimal polynomial is not binary")
        return sum(coeff << k for k, coeff in enumerate(poly))

    def _build_generator(self) -> int:
        g = 1
        seen = set()
        for i in range(1, 2 * self.t + 1):
            if i in seen:
                continue
            coset = [i]
            while (c := coset[-1] * 2 % self.length) != i:
                coset.append(c)
            seen.update(coset)
            g = _poly_mul(g, self._minimal_poly(coset))
        return g

    def encode(self, message: np.ndarray) -> np.ndarray:
        """Systematic encoding; message bits land in positions parity_len..length-1."""
        message = np.asarray(message)
        if message.shape != (self.msg_len,):
            raise ValueError(f"message must have length {self.msg_len}")
        check_message_bits(message)
        bits = message.astype(np.uint8)
        parity = np.bitwise_xor.reduce(self._parity_table[bits.astype(bool)], axis=0)
        parity_bits = np.unpackbits(parity, count=self.parity_len, bitorder="little")
        return np.concatenate([parity_bits, bits])

    def decode(self, word: np.ndarray):
        """Return the message bits, or None when decoding fails."""
        word = np.asarray(word, dtype=np.uint8)
        if word.shape != (self.length,):
            raise ValueError(f"word must have length {self.length}")
        syndromes = self._syndromes(np.flatnonzero(word))
        if not syndromes.any():
            return word[self.parity_len :].copy()
        locator = self._berlekamp_massey(syndromes.tolist())
        if locator is None:
            return None
        errors = self._chien_search(locator)
        # the roots must be distinct field points, one per degree, and flipping
        # them must clear every syndrome (syndromes are linear in the word)
        if errors.size != len(locator) - 1:
            return None
        if np.any(self._syndromes(errors) != syndromes):
            return None
        corrected = word.copy()
        corrected[errors] ^= 1
        return corrected[self.parity_len :]

    def _syndromes(self, positions: np.ndarray) -> np.ndarray:
        # S_j = r(alpha^j) = XOR of alpha^(i*j) over the set bits i, j = 1..2t
        return np.bitwise_xor.reduce(np.take(self._syndrome_table, positions, axis=0), axis=0)

    def _berlekamp_massey(self, syndromes: list[int]):
        # returns the error-locator polynomial as a coefficient list, or None.
        # Only steps n = 0, 2, 4, ... run: a binary word's syndromes make every
        # odd-n discrepancy zero, and each skipped step lengthens shift by one.
        exp, log, order = self._exp, self._log, self.length
        syndrome_logs = [log[s] for s in syndromes]
        sigma = [1]
        prev = [1]
        length = 0
        shift = 1
        prev_log = 0  # log of the discrepancy at the last length change
        for n in range(0, len(syndromes), 2):
            disc = syndromes[n]
            for i in range(1, min(length, len(sigma) - 1) + 1):
                disc ^= exp[log[sigma[i]] + syndrome_logs[n - i]]
            if disc == 0:
                shift += 2
                continue
            coeff_log = log[disc] - prev_log
            if coeff_log < 0:
                coeff_log += order
            new = sigma + [0] * (shift + len(prev) - len(sigma))
            for j, c in enumerate(prev, shift):
                new[j] ^= exp[coeff_log + log[c]]
            if 2 * length <= n:
                length, prev, prev_log, shift = n + 1 - length, sigma, log[disc], 2
            else:
                shift += 2
            sigma = new
        while sigma and sigma[-1] == 0:
            sigma.pop()
        if len(sigma) - 1 > self.t:
            return None
        return sigma

    def _chien_search(self, sigma: list[int]) -> np.ndarray:
        # sigma(alpha^-i) = XOR_k alpha^(log sigma_k - k*i) at all n points at
        # once; a root marks an error at position i
        k = np.flatnonzero(sigma)
        logs = np.array([self._log[sigma[j]] for j in k])
        exponents = self._chien_table[k] + logs[:, None]
        values = np.bitwise_xor.reduce(self._exp_table[exponents], axis=0)
        return np.flatnonzero(values == 0)
