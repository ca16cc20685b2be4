import random

import pytest

from manetsec.crypto import (
    CipherSuite,
    IntegrityFailure,
    KeyMaterial,
    NonceSource,
    WidthMismatch,
    xor_combine,
)

SHA256 = CipherSuite()


def km(hexstr):
    return KeyMaterial(bytes.fromhex(hexstr))


class TestXorCombine:
    def test_single_element_identity(self, rng):
        x = KeyMaterial.random(rng)
        assert xor_combine([x]) == x

    def test_self_inverse(self, rng):
        x = KeyMaterial.random(rng)
        assert xor_combine([x, x]) == KeyMaterial.zero()

    def test_permutation_invariance(self, rng):
        # brute-force all-pairs swap check over 17 random values
        parts = [KeyMaterial.random(rng) for _ in range(17)]
        base = xor_combine(parts)
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                swapped = list(parts)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                assert xor_combine(swapped) == base

    def test_random_shuffles(self, rng):
        parts = [KeyMaterial.random(rng) for _ in range(9)]
        base = xor_combine(parts)
        for _ in range(50):
            rng.shuffle(parts)
            assert xor_combine(parts) == base

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            xor_combine([])

    def test_width_mismatch(self, rng):
        with pytest.raises(WidthMismatch):
            xor_combine([KeyMaterial.random(rng, 128), KeyMaterial.random(rng, 64)])

    def test_xor_is_bytewise(self, rng):
        # leading zero bytes must survive; equal inputs give all-zero bytes
        for bits in (8, 64, 80, 128, 192, 256):
            for _ in range(20):
                a, b = KeyMaterial.random(rng, bits), KeyMaterial.random(rng, bits)
                a = KeyMaterial(b"\x00" + a.data[1:])
                want = bytes(x ^ y for x, y in zip(a.data, b.data))
                assert (a ^ b).data == want
                assert (a ^ a).data == bytes(bits // 8)


class TestAuthenticatedEncryption:
    @pytest.mark.parametrize("cipher", ["aesgcm", "ctrhmac"])
    def test_round_trip(self, cipher, rng):
        suite = CipherSuite(cipher=cipher)
        key = suite.new_key(rng)
        for size in (0, 1, 13, 250, 4000):
            msg = rng.getrandbits(size * 8).to_bytes(size, "big") if size else b""
            assert suite.decrypt(key, suite.encrypt(key, msg, rng)) == msg

    @pytest.mark.parametrize("cipher", ["aesgcm", "ctrhmac"])
    def test_wrong_key_rejected(self, cipher, rng):
        suite = CipherSuite(cipher=cipher)
        k1, k2 = suite.new_key(rng), suite.new_key(rng)
        ct = suite.encrypt(k1, b"payload", rng)
        with pytest.raises(IntegrityFailure):
            suite.decrypt(k2, ct)

    @pytest.mark.parametrize("cipher", ["aesgcm", "ctrhmac"])
    def test_randomized_ciphertexts(self, cipher, rng):
        suite = CipherSuite(cipher=cipher)
        key = suite.new_key(rng)
        assert suite.encrypt(key, b"same", rng) != suite.encrypt(key, b"same", rng)

    @pytest.mark.parametrize("cipher", ["aesgcm", "ctrhmac"])
    def test_os_entropy_round_trip(self, cipher):
        # the one way to draw keys and IVs from the OS instead of a seed
        suite = CipherSuite(cipher=cipher)
        os_rng = random.SystemRandom()
        key = suite.new_key(os_rng)
        assert suite.decrypt(key, suite.encrypt(key, b"payload", os_rng)) == b"payload"

    @pytest.mark.parametrize("cipher", ["aesgcm", "ctrhmac"])
    def test_any_bit_flip_detected(self, cipher, rng):
        suite = CipherSuite(cipher=cipher)
        key = suite.new_key(rng)
        ct = suite.encrypt(key, b"short protected message", rng)
        for _ in range(300):
            pos = rng.randrange(len(ct) * 8)
            mutated = bytearray(ct)
            mutated[pos // 8] ^= 1 << (pos % 8)
            with pytest.raises(IntegrityFailure):
                suite.decrypt(key, bytes(mutated))

    def test_aesgcm_known_answers(self):
        # published AES-GCM reference vectors (zero key, zero IV)
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM
        out1 = AESGCM(bytes(16)).encrypt(bytes(12), b"", None)
        assert out1.hex() == "58e2fccefa7e3061367f1d57a4e7455a"
        out2 = AESGCM(bytes(16)).encrypt(bytes(12), bytes(16), None)
        assert out2[:16].hex() == "0388dace60b6a392f328c2b971b2fe78"
        assert out2[16:].hex() == "ab6e47d42cec13bdf53a67b21257bddf"

    def test_truncated_ciphertext(self, rng):
        suite = CipherSuite()
        with pytest.raises(IntegrityFailure):
            suite.decrypt(suite.new_key(rng), b"tiny")


class TestHashing:
    def test_deterministic(self):
        assert SHA256.digest(b"x") == SHA256.digest(b"x")

    def test_empty_defined(self):
        assert SHA256.digest(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")

    def test_sha256_vector(self):
        assert SHA256.digest(b"abc").hex() == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")

    def test_hmac_rfc4231_case2(self):
        key = KeyMaterial(b"Jefe")
        digest = SHA256.keyed_digest(key, b"what do ya want for nothing?")
        assert digest.hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843")

    def test_keyed_hash_determinism_and_verify(self, rng):
        k = KeyMaterial.random(rng)
        assert SHA256.keyed_digest(k, b"data") == SHA256.keyed_digest(k, b"data")
        assert SHA256.verify_keyed_digest(k, b"data", SHA256.keyed_digest(k, b"data"))

    def test_keyed_hash_distinct_keys(self, rng):
        k = KeyMaterial.random(rng)
        base = SHA256.keyed_digest(k, b"data")
        for _ in range(1000):
            other = KeyMaterial.random(rng)
            if other == k:
                continue
            assert SHA256.keyed_digest(other, b"data") != base

    def test_keyed_hash_rejects_wrong_inputs(self, rng):
        k, k2 = KeyMaterial.random(rng), KeyMaterial.random(rng)
        d = SHA256.keyed_digest(k, b"data")
        assert not SHA256.verify_keyed_digest(k2, b"data", d)
        assert not SHA256.verify_keyed_digest(k, b"other", d)


class TestNonces:
    def test_consecutive_distinct(self, rng):
        src = NonceSource(1, rng)
        assert src.fresh() != src.fresh()

    def test_seeded_reproducibility(self):
        a = NonceSource(1, random.Random(5))
        b = NonceSource(1, random.Random(5))
        assert [a.fresh() for _ in range(20)] == [b.fresh() for _ in range(20)]

    def test_no_duplicates_in_bulk(self, rng):
        src = NonceSource(3, rng)
        values = [src.fresh() for _ in range(100_000)]
        assert len(set(values)) == len(values)
        assert src.used == set(values)


class TestSuiteConfig:
    def test_bad_cipher(self):
        with pytest.raises(ValueError):
            CipherSuite(cipher="rot13")

    def test_bad_hash(self):
        with pytest.raises(ValueError):
            CipherSuite(hash_name="md6")

    def test_aesgcm_width_restriction(self):
        with pytest.raises(ValueError):
            CipherSuite(cipher="aesgcm", key_bits=80)
        CipherSuite(cipher="ctrhmac", key_bits=80)  # any byte width is fine

    def test_width_enforced_on_use(self, rng):
        suite = CipherSuite()
        with pytest.raises(WidthMismatch):
            suite.encrypt(KeyMaterial.random(rng, 64), b"x", rng)

    def test_derive_key_width_and_determinism(self):
        suite = CipherSuite()
        k1 = suite.derive_key(b"a", b"b")
        assert k1.width_bits == 128
        assert k1 == suite.derive_key(b"a", b"b")
        assert k1 != suite.derive_key(b"ab", b"")  # length framing matters
