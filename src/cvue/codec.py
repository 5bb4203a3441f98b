"""Classical layer: bit strings, the XOR base cipher, and the error-correcting codecs.

Two interchangeable codecs sit behind the same encode/decode surface:

* ``oracle`` - remembers the codeword it produced and declares success iff
  the received word is within ``max_errors`` bit flips of it. Decryption
  then succeeds exactly when the flip count is small enough, which makes
  Monte-Carlo statistics directly comparable to the analytic bounds.
* ``concrete`` - a binary BCH code for genuine end-to-end runs; lengths
  below 2^m - 1 (the even ones the protocol needs included) are realized
  by shortening, i.e. pinning the top data bits to zero and not sending
  them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bch import BchCode, check_message_bits

SCHEMES = ("oracle", "concrete")


def random_bits(length: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 2, size=length, dtype=np.uint8)


def bits_to_hex(bits: np.ndarray) -> str:
    """Pack a bit array (index 0 first) into a hex string."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def base_encrypt(pad: np.ndarray, message: np.ndarray) -> np.ndarray:
    """One-time-pad encryption; an involution, so it is its own inverse."""
    pad = np.asarray(pad, dtype=np.uint8)
    message = np.asarray(message, dtype=np.uint8)
    if pad.shape != message.shape:
        raise ValueError(
            f"pad length {pad.size} does not match message length {message.size}"
        )
    return pad ^ message


def base_decrypt(pad: np.ndarray, ciphertext: np.ndarray) -> np.ndarray:
    return base_encrypt(pad, ciphertext)


@dataclass(frozen=True)
class CodecSpec:
    """Parameters of the classical code layer.

    Attributes:
        msg_len: message length n.
        code_len: codeword length N.
        max_errors: number of correctable bit errors t.
        scheme: 'oracle' or 'concrete'.
    """

    msg_len: int
    code_len: int
    max_errors: int
    scheme: str = "oracle"

    def __post_init__(self):
        if self.msg_len < 1:
            raise ValueError("message length must be positive")
        if self.msg_len > self.code_len:
            raise ValueError("message length cannot exceed codeword length")
        if self.max_errors < 0:
            raise ValueError("correctable error count must be nonnegative")
        if self.max_errors >= self.code_len / 2:
            raise ValueError("correctable error count must be below code_len/2")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        if self.scheme == "concrete":
            carried = _bch_msg_len(self.code_len, self.max_errors)
            if carried != self.msg_len:
                raise ValueError(
                    f"shortened BCH of length {self.code_len} with t={self.max_errors} "
                    f"carries {carried} message bits, not {self.msg_len}"
                )


def _bch_msg_len(code_len: int, max_errors: int) -> int:
    code = BchCode.smallest_for(code_len, max_errors)
    msg_len = code.msg_len - (code.length - code_len)
    if msg_len < 1:
        raise ValueError(
            f"BCH shortened to length {code_len} with t={max_errors} has no message bits"
        )
    return msg_len


def concrete_spec(code_len: int, max_errors: int) -> CodecSpec:
    """The realizable concrete CodecSpec for a (possibly shortened) BCH length."""
    return CodecSpec(
        _bch_msg_len(code_len, max_errors), code_len, max_errors, scheme="concrete"
    )


class OracleCodec:
    """Tracking codec: success is decided by the flip count alone.

    ``encode`` embeds the message in the first ``msg_len`` positions and
    remembers the true (message, codeword) pair; ``decode`` returns the
    remembered message iff the received word is within ``max_errors`` flips
    of the remembered codeword, else None. One instance serves one
    encrypt/decrypt exchange at a time and is not safe to share across
    concurrent trials.
    """

    def __init__(self, spec: CodecSpec):
        self.spec = spec
        self._message = None
        self._codeword = None

    def encode(self, message: np.ndarray) -> np.ndarray:
        message = np.asarray(message, dtype=np.uint8)
        if message.shape != (self.spec.msg_len,):
            raise ValueError(f"message must have length {self.spec.msg_len}")
        codeword = np.zeros(self.spec.code_len, dtype=np.uint8)
        codeword[: self.spec.msg_len] = message
        self._message = message.copy()
        self._codeword = codeword.copy()
        return codeword

    def decode(self, word: np.ndarray):
        if self._codeword is None:
            raise RuntimeError("oracle codec cannot decode before encoding")
        word = np.asarray(word, dtype=np.uint8)
        if word.shape != (self.spec.code_len,):
            raise ValueError(f"word must have length {self.spec.code_len}")
        if np.count_nonzero(word != self._codeword) <= self.spec.max_errors:
            return self._message.copy()
        return None


class BchCodec:
    """Stateless BCH-backed codec conforming to the oracle codec's surface.

    Shortening pins the top data bits of the parent primitive code to zero;
    they are neither transmitted nor counted, and any flip pattern of weight
    <= max_errors on the shortened word is still corrected.
    """

    def __init__(self, spec: CodecSpec):
        if spec.scheme != "concrete":
            raise ValueError("BchCodec requires a concrete CodecSpec")
        self.spec = spec
        self._code = BchCode.smallest_for(spec.code_len, spec.max_errors)
        self._shorten = self._code.length - spec.code_len

    def encode(self, message: np.ndarray) -> np.ndarray:
        message = np.asarray(message)  # BchCode.encode checks the bits before any cast
        if message.shape != (self.spec.msg_len,):
            raise ValueError(f"message must have length {self.spec.msg_len}")
        full = np.concatenate([message, np.zeros(self._shorten, dtype=np.uint8)])
        return self._code.encode(full)[: self.spec.code_len]

    def decode(self, word: np.ndarray):
        word = np.asarray(word, dtype=np.uint8)
        if word.shape != (self.spec.code_len,):
            raise ValueError(f"word must have length {self.spec.code_len}")
        full = np.concatenate([word, np.zeros(self._shorten, dtype=np.uint8)])
        decoded = self._code.decode(full)
        if decoded is None:
            return None
        if np.any(decoded[self._code.msg_len - self._shorten :]):
            return None  # correction landed outside the shortened code
        return decoded[: self.spec.msg_len]


def make_codec(spec: CodecSpec):
    if spec.scheme == "oracle":
        return OracleCodec(spec)
    return BchCodec(spec)
