"""Symmetric crypto and key algebra used by every protocol module.

All group keys are fixed-width bitstrings combined with XOR; encryption is
authenticated (a wrong key or a flipped bit is a detectable failure, which
the mutual-authentication steps rely on); keyed digests are HMAC over the
configured hash. Randomness is drawn from caller-supplied deterministic RNG
state so whole runs replay bit-for-bit from a seed.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import random
import struct
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

__all__ = [
    "KeyMaterial",
    "NonceSource",
    "CipherSuite",
    "CryptoError",
    "IntegrityFailure",
    "WidthMismatch",
    "NonceExhausted",
    "xor_combine",
]

MAX_NONCE = 2**64 - 1

# Opaque byte blobs; kept as plain bytes on purpose.
Ciphertext = bytes
Digest = bytes


class CryptoError(Exception):
    pass


class IntegrityFailure(CryptoError):
    """Decryption failed authentication (wrong key or tampered ciphertext)."""


class WidthMismatch(CryptoError):
    """Key material of differing widths was mixed in one operation."""


class NonceExhausted(CryptoError):
    """An issuer ran out of nonce space."""


@dataclass(frozen=True)
class KeyMaterial:
    """Fixed-width bitstring; the carrier for every key-like quantity."""

    data: bytes

    def __post_init__(self):
        if len(self.data) == 0:
            raise ValueError("key material must be non-empty")

    @property
    def width_bits(self) -> int:
        return len(self.data) * 8

    def __xor__(self, other: "KeyMaterial") -> "KeyMaterial":
        if len(self.data) != len(other.data):
            raise WidthMismatch(
                f"cannot XOR {self.width_bits}-bit with {other.width_bits}-bit key material"
            )
        folded = int.from_bytes(self.data, "big") ^ int.from_bytes(other.data, "big")
        return KeyMaterial(folded.to_bytes(len(self.data), "big"))

    def hex(self) -> str:
        return self.data.hex()

    @classmethod
    def zero(cls, width_bits: int = 128) -> "KeyMaterial":
        _check_width(width_bits)
        return cls(bytes(width_bits // 8))

    @classmethod
    def random(cls, rng: random.Random, width_bits: int = 128) -> "KeyMaterial":
        _check_width(width_bits)
        return cls(rng.getrandbits(width_bits).to_bytes(width_bits // 8, "big"))


def _check_width(width_bits: int) -> None:
    if width_bits <= 0 or width_bits % 8 != 0:
        raise ValueError(f"key width must be a positive multiple of 8 bits, got {width_bits}")


def xor_combine(parts: list[KeyMaterial]) -> KeyMaterial:
    """Fold a non-empty list of equal-width key material with XOR.

    Order-independent; [x] returns x, [x, x] returns all-zero.
    """
    if not parts:
        raise ValueError("xor_combine needs at least one part")
    acc = parts[0]
    for p in parts[1:]:
        acc = acc ^ p
    return acc


@dataclass
class NonceSource:
    """Per-node nonce generator with a used-value set (replay bookkeeping)."""

    issuer: int
    rng: random.Random
    used: set[int] = field(default_factory=set)

    def fresh(self) -> int:
        """Draw a 64-bit nonce this issuer never issued before and record it in `used`."""
        if len(self.used) >= MAX_NONCE:
            raise NonceExhausted(f"issuer {self.issuer} exhausted the nonce space")
        while True:
            v = self.rng.getrandbits(64)
            if v == MAX_NONCE:
                continue  # keep the +1 echo of every issued nonce in 64 bits
            if v not in self.used:
                self.used.add(v)
                return v


class CipherSuite:
    """Scenario-wide choice of cipher, hash and key width.

    cipher:
      "aesgcm"  - AES-GCM (key width 128/192/256); 12-byte IV prepended.
      "ctrhmac" - hash-counter stream cipher with encrypt-then-HMAC tag;
                  works at any byte-aligned key width (stdlib only).
    """

    CIPHERS = ("aesgcm", "ctrhmac")
    _GCM_IV = 12
    _TAG = 16

    def __init__(self, cipher: str = "aesgcm", hash_name: str = "sha256", key_bits: int = 128):
        if cipher not in self.CIPHERS:
            raise ValueError(f"unknown cipher {cipher!r}, expected one of {self.CIPHERS}")
        try:
            hashlib.new(hash_name, b"")
        except ValueError as e:
            raise ValueError(f"unknown hash {hash_name!r}") from e
        _check_width(key_bits)
        if cipher == "aesgcm" and key_bits not in (128, 192, 256):
            raise ValueError("aesgcm requires a 128/192/256-bit key width")
        self.cipher = cipher
        self.hash_name = hash_name
        self.key_bits = key_bits

    def __repr__(self):
        return f"CipherSuite({self.cipher}, {self.hash_name}, {self.key_bits})"

    # -- key material ------------------------------------------------------

    def new_key(self, rng: random.Random) -> KeyMaterial:
        return KeyMaterial.random(rng, self.key_bits)

    def zero_key(self) -> KeyMaterial:
        return KeyMaterial.zero(self.key_bits)

    def derive_key(self, *parts: bytes) -> KeyMaterial:
        """Hash-and-truncate derivation of suite-width key material."""
        buf = b""
        for p in parts:
            buf += struct.pack(">I", len(p)) + p
        out = b""
        counter = 0
        while len(out) < self.key_bits // 8:
            out += hashlib.new(self.hash_name, struct.pack(">I", counter) + buf).digest()
            counter += 1
        return KeyMaterial(out[: self.key_bits // 8])

    def _check_key(self, key: KeyMaterial) -> None:
        if key.width_bits != self.key_bits:
            raise WidthMismatch(
                f"suite expects {self.key_bits}-bit keys, got {key.width_bits}-bit"
            )

    # -- authenticated encryption -----------------------------------------

    def encrypt(self, key: KeyMaterial, plaintext: bytes, rng: random.Random) -> Ciphertext:
        """Randomized authenticated encryption; the IV is drawn from `rng`.

        A seeded `rng` keeps whole runs reproducible; `random.SystemRandom()`
        draws the IV from the OS.
        """
        self._check_key(key)
        n = self._GCM_IV if self.cipher == "aesgcm" else 16
        iv = rng.getrandbits(n * 8).to_bytes(n, "big")
        if self.cipher == "aesgcm":
            return iv + AESGCM(key.data).encrypt(iv, plaintext, None)
        return self._ctrhmac_encrypt(key, iv, plaintext)

    def decrypt(self, key: KeyMaterial, ct: Ciphertext) -> bytes:
        """Inverse of encrypt; raises IntegrityFailure on wrong key or tamper."""
        self._check_key(key)
        if self.cipher == "aesgcm":
            if len(ct) < self._GCM_IV + self._TAG:
                raise IntegrityFailure("ciphertext too short")
            try:
                return AESGCM(key.data).decrypt(ct[: self._GCM_IV], ct[self._GCM_IV :], None)
            except InvalidTag as e:
                raise IntegrityFailure("authentication tag mismatch") from e
        return self._ctrhmac_decrypt(key, ct)

    # -- ctrhmac construction ----------------------------------------------
    # Encrypt-then-MAC with subkeys split off the suite key by hashing; the
    # keystream is hash(enc_key, iv, block counter).

    def _subkeys(self, key: KeyMaterial) -> tuple[bytes, bytes]:
        return (hashlib.new(self.hash_name, b"enc" + key.data).digest(),
                hashlib.new(self.hash_name, b"mac" + key.data).digest())

    def _keystream(self, enc_key: bytes, iv: bytes, n: int) -> bytes:
        out = b""
        block = 0
        while len(out) < n:
            out += hashlib.new(self.hash_name, enc_key + iv + struct.pack(">Q", block)).digest()
            block += 1
        return out[:n]

    def _ctrhmac_encrypt(self, key: KeyMaterial, iv: bytes, plaintext: bytes) -> Ciphertext:
        enc_key, mac_key = self._subkeys(key)
        body = bytes(a ^ b for a, b in zip(plaintext, self._keystream(enc_key, iv, len(plaintext))))
        tag = _hmac.new(mac_key, iv + body, self.hash_name).digest()[: self._TAG]
        return iv + body + tag

    def _ctrhmac_decrypt(self, key: KeyMaterial, ct: Ciphertext) -> bytes:
        if len(ct) < 16 + self._TAG:
            raise IntegrityFailure("ciphertext too short")
        enc_key, mac_key = self._subkeys(key)
        iv, body, tag = ct[:16], ct[16 : -self._TAG], ct[-self._TAG :]
        want = _hmac.new(mac_key, iv + body, self.hash_name).digest()[: self._TAG]
        if not _hmac.compare_digest(want, tag):
            raise IntegrityFailure("authentication tag mismatch")
        return bytes(a ^ b for a, b in zip(body, self._keystream(enc_key, iv, len(body))))

    # -- digests -------------------------------------------------------------

    def digest(self, data: bytes) -> Digest:
        """Deterministic one-way hash of `data` under the suite's hash."""
        return hashlib.new(self.hash_name, data).digest()

    def keyed_digest(self, key: KeyMaterial, data: bytes) -> Digest:
        """HMAC over `data`; forgery without the key is infeasible."""
        return _hmac.new(key.data, data, self.hash_name).digest()

    def verify_keyed_digest(self, key: KeyMaterial, data: bytes, digest: Digest) -> bool:
        return _hmac.compare_digest(self.keyed_digest(key, data), digest)
