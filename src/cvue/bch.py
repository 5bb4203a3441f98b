"""Binary BCH encoder/decoder over GF(2^m), shortened to any length N.

Polynomials over GF(2) are stored as Python ints (bit i = coefficient of
x^i), so addition is XOR. Field elements of GF(2^m) are ints in [0, 2^m)
with multiplication through exp/log tables of a primitive element alpha.

A designed-distance code correcting t errors has generator polynomial
g(x) = lcm of the minimal polynomials of alpha^1 ... alpha^2t over the
smallest field whose order 2^m - 1 covers N. The primitive code has length
2^m - 1; the code of length N is it shortened: its top 2^m - 1 - N
positions are pinned to zero and never sent, so N - deg(g) message bits
remain.

Each code builds three tables once, over the N sent positions only, so
that no encode or decode does a bigint division, a multiply or a modulo
per bit. All three are GF(2)-linear maps stored so that a word's work is a
gather of a few long rows and one long XOR reduce:

* the parity table, transposed into uint64 lanes of shape (lanes,
  msg_len): column i holds x^(deg g + i) mod g; systematic encoding
  (message bits in the high-order coefficients) XORs the columns of the
  set message bits;
* the odd-syndrome table, lanes first with shape (ceil(t/4), N): four
  uint16 powers alpha^(i*j), j = 1, 3, ..., 2t-1, to a uint64 lane; the
  odd syndromes of a word are one gather of its set positions' columns
  and one XOR reduce, and the even ones follow in the log domain, since a
  binary word has S_2j = S_j^2;
* the bit-sliced Chien table of shape ((t+1)*m, m, ceil(N/64)): row k*m + b
  holds the m bit planes of alpha^b * alpha^(-k*i) over the sent positions
  i, packed 64 to a uint64. sigma(alpha^-i) is GF(2)-linear in the bits of
  sigma's coefficients, so the search XORs the rows of their set bits, ORs
  the m planes together and finds a root wherever the result is 0.

Between syndromes and search, Berlekamp-Massey runs in its binary form:
S_2j = S_j^2 makes every even-step discrepancy zero (Berlekamp 1968; Lin &
Costello, Error Control Coding, sec. 6.2), so only the t odd steps run,
with products in the log domain.
Decoding fails when the locator fits no error pattern of weight <= t in
the sent positions; a root in a pinned position is never found.
"""

from __future__ import annotations

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


def check_bits(bits: np.ndarray, what: str = "message") -> None:
    """Raise ValueError unless every entry is 0 or 1 (NaN is neither).

    Bool and unsigned arrays, which every word the protocol measures is,
    take one pass over their maximum."""
    bits = np.asarray(bits)
    if bits.dtype.kind in "bu":
        ok = bits.max(initial=0) <= 1
    else:
        ok = ((bits == 0) | (bits == 1)).all()
    if not ok:
        raise ValueError(f"{what} bits must be 0 or 1")


def _poly_mul(a: int, b: int) -> int:
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


class BchCode:
    """A binary BCH code of length ``length`` correcting ``t`` bit errors.

    ``length`` may be anything up to 1023; below the primitive length
    ``order`` = 2^m - 1 the code is shortened. An instance holds only
    read-only tables and no decode state.
    """

    def __init__(self, length: int, t: int):
        m = max(min(_PRIMITIVE_POLY), int(length).bit_length())  # 2^m - 1 >= length
        if m not in _PRIMITIVE_POLY:
            raise ValueError(f"code length must be at most {(1 << max(_PRIMITIVE_POLY)) - 1}")
        if t < 1:
            raise ValueError("t must be at least 1")
        self.m = m
        self.t = t
        self.length = length
        self.order = (1 << m) - 1
        if 2 * t >= self.order:
            raise ValueError(
                f"designed distance 2t+1 must not exceed the code length {self.order}"
            )
        self._build_field()
        self.generator = self._build_generator()
        self.parity_len = self.generator.bit_length() - 1
        self.msg_len = length - self.parity_len
        if self.msg_len <= 0:
            raise ValueError(
                f"BCH shortened to length {length} with t={t} has no message bits"
            )
        self._build_tables()

    def _build_field(self) -> None:
        # exp[i] = alpha^i for i < 2*order (doubled so log sums need no
        # modulo), then zeros: log[0] = 2*order, so a log sum with a zero
        # operand lands in the zeros and a product with 0 needs no branch
        order = self.order
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
        order, t, m, n = self.order, self.t, self.m, self.length
        # m <= 10, so 16 bits hold every field element and 32 every exponent
        # product below (numpy reduces int32 modulo order faster than int64)
        points = np.arange(n, dtype=np.int32)
        exp16 = self._exp_table[:order].astype(np.uint16)
        # odd syndrome powers alpha^(i*j), j = 1, 3, ..., 2t-1, four to a
        # uint64 lane; the padding powers past t are 0 and add nothing
        exponents = points[:, None] * np.arange(1, 2 * t, 2, dtype=np.int32)
        exponents %= order
        odd = np.zeros((n, 4 * -(-t // 4)), dtype=np.uint16)
        odd[:, :t] = np.take(exp16, exponents)
        self._syndrome_table = np.ascontiguousarray(odd.view(np.uint64).T)
        # Chien rows: first the m bit planes of alpha^(-k*i) for every k
        # (b = 0), packed little-endian into the bytes of ceil(N/64) uint64
        # words, with the padding bits past N left 0; then each b + 1 from b,
        # since multiplying by alpha moves plane p to p + 1 and XORs the top
        # plane into the taps of the primitive polynomial
        self._bit_masks = (1 << np.arange(m)).astype(np.uint16)
        exponents = -np.arange(t + 1, dtype=np.int32)[:, None] * points
        exponents %= order
        powers = np.take(exp16, exponents)
        chien = np.zeros((t + 1, m, m, 8 * -(-n // 64)), dtype=np.uint8)
        for p, mask in enumerate(self._bit_masks):
            # one plane at a time keeps the build's peak allocation small
            chien[:, 0, p, : (n + 7) // 8] = np.packbits(
                (powers & mask) != 0, axis=-1, bitorder="little"
            )
        chien = chien.view(np.uint64)
        taps = np.flatnonzero((_PRIMITIVE_POLY[m] >> np.arange(m)) & 1)
        for b in range(m - 1):
            chien[:, b + 1, 1:] = chien[:, b, :-1]
            chien[:, b + 1, taps] ^= chien[:, b, m - 1 :]
        self._chien_table = chien.reshape((t + 1) * m, m, -1)
        # parity columns x^(parity_len + i) mod g, each the last one times x
        top = 1 << self.parity_len
        row = self.generator ^ top
        nbytes = 8 * -(-self.parity_len // 64)
        rows = []
        for _ in range(self.msg_len):
            rows.append(row.to_bytes(nbytes, "little"))
            row <<= 1
            if row & top:
                row ^= self.generator
        parity = np.frombuffer(b"".join(rows), np.uint64).reshape(self.msg_len, -1)
        self._parity_table = np.ascontiguousarray(parity.T)
        for table in (self._syndrome_table, self._chien_table, self._bit_masks,
                      self._parity_table):
            table.flags.writeable = False

    def _gf_mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def _minimal_poly(self, coset: list[int]) -> int:
        # product of (x - alpha^j) over the cyclotomic coset
        # (the root alpha^j has log j; log[0] lands in exp's zeros)
        exp, log = self._exp, self._log
        poly = [1]  # coefficients in GF(2^m), poly[k] = coeff of x^k
        for j in coset:
            nxt = [0] * (len(poly) + 1)
            for k, coeff in enumerate(poly):
                nxt[k + 1] ^= coeff
                nxt[k] ^= exp[log[coeff] + j]
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
            while (c := coset[-1] * 2 % self.order) != i:
                coset.append(c)
            seen.update(coset)
            g = _poly_mul(g, self._minimal_poly(coset))
        return g

    def encode(self, message: np.ndarray) -> np.ndarray:
        """Systematic encoding; message bits land in positions parity_len..length-1."""
        message = np.asarray(message)
        if message.shape != (self.msg_len,):
            raise ValueError(f"message must have length {self.msg_len}")
        check_bits(message)
        bits = message.astype(np.uint8)
        columns = np.take(self._parity_table, np.flatnonzero(bits), axis=1)
        parity = np.bitwise_xor.reduce(columns, axis=1).view(np.uint8)
        parity_bits = np.unpackbits(parity, count=self.parity_len, bitorder="little")
        return np.concatenate([parity_bits, bits])

    def decode(self, word: np.ndarray):
        """Return the message bits, or None when decoding fails."""
        word = np.asarray(word)
        if word.shape != (self.length,):
            raise ValueError(f"word must have length {self.length}")
        check_bits(word, "word")
        word = word.astype(np.uint8, copy=False)
        syndromes = self._syndromes(np.flatnonzero(word))
        if not syndromes.any():
            return word[self.parity_len :].copy()
        locator = self._berlekamp_massey(self._expand_syndromes(syndromes))
        if locator is None:
            return None
        errors = self._chien_search(locator)
        # the roots must be distinct sent positions, one per degree (a root in
        # a pinned position is not searched), and flipping them must clear
        # every syndrome (syndromes are linear in the word; the even ones
        # follow from the odd ones)
        if errors.size != len(locator) - 1:
            return None
        if np.any(self._syndromes(errors) != syndromes):
            return None
        corrected = word.copy()
        corrected[errors] ^= 1
        return corrected[self.parity_len :]

    def _syndromes(self, positions: np.ndarray) -> np.ndarray:
        # the odd syndromes S_j = r(alpha^j) = XOR of alpha^(i*j) over the set
        # bits i, j = 1, 3, ..., 2t-1, then 0s up to a multiple of four
        lanes = np.take(self._syndrome_table, positions, axis=1)
        return np.bitwise_xor.reduce(lanes, axis=1).view(np.uint16)

    def _expand_syndromes(self, odd: np.ndarray) -> list[int]:
        # S_1..S_2t from the odd ones through S_2j = S_j^2, a doubled log;
        # log[0] doubles to 4*order, where exp holds 0
        exp, log = self._exp, self._log
        syndromes = [0] * (2 * self.t)
        syndromes[::2] = odd[: self.t].tolist()
        for j in range(1, self.t + 1):
            syndromes[2 * j - 1] = exp[2 * log[syndromes[j - 1]]]
        return syndromes

    def _berlekamp_massey(self, syndromes: list[int]):
        # returns the error-locator polynomial as a coefficient list, or None.
        # Only steps n = 0, 2, 4, ... run: a binary word's syndromes make every
        # odd-n discrepancy zero, and each skipped step lengthens shift by one.
        exp, log, order = self._exp, self._log, self.order
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
        # sigma(alpha^-i) at all sent positions at once: XOR the table rows
        # k*m + b of the set bits b of each coefficient sigma_k, then OR the
        # m bit planes; a zero marks an error at position i. The padding
        # bits past N are cut off by count.
        bits = np.array(sigma, dtype=np.uint16)[:, None] & self._bit_masks
        rows = np.take(self._chien_table, np.flatnonzero(bits), axis=0)
        planes = np.bitwise_xor.reduce(rows, axis=0)
        nonzero = np.bitwise_or.reduce(planes, axis=0)
        roots = np.unpackbits(np.invert(nonzero).view(np.uint8), count=self.length,
                              bitorder="little")
        return np.flatnonzero(roots)
