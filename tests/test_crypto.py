import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from manetsec import crypto
from manetsec.crypto import (
    KEY_BITS,
    KEY_BYTES,
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


class FixedBits:
    """Stands in for the RNG that draws an IV: always returns `value`."""

    def __init__(self, value):
        self.value = value

    def getrandbits(self, _bits):
        return self.value


# AES-128 test cases 1-3 of the GCM specification (McGrew and Viega):
# key, IV, plaintext, ciphertext followed by the 16-byte tag, all in hex.
GCM_VECTORS = [
    ("00" * 16, "00" * 12, "", "58e2fccefa7e3061367f1d57a4e7455a"),
    ("00" * 16, "00" * 12, "00" * 16,
     "0388dace60b6a392f328c2b971b2fe78" "ab6e47d42cec13bdf53a67b21257bddf"),
    ("feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
     "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
     "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
     "4d5c2af327cd64a62cf35abd2ba6fab4"),
]

# RFC 4231 HMAC-SHA-256 test cases 1, 3, 4, 6 and 7 (case 2 has its own test;
# case 5 checks a truncated tag, which the suite never emits).
HMAC_VECTORS = {
    "case1": (b"\x0b" * 20, b"Hi There",
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    "case3": (b"\xaa" * 20, b"\xdd" * 50,
              "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    "case4": (bytes(range(1, 26)), b"\xcd" * 50,
              "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
    "case6": (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
    "case7": (b"\xaa" * 131,
              b"This is a test using a larger than block-size key and a larger than "
              b"block-size data. The key needs to be hashed before being used by the "
              b"HMAC algorithm.",
              "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
}

# derive_key inputs with the bytes they gave before derive_key became one
# SHA-256 call: an edge key, a master key, no parts, and one empty part.
DERIVE_VECTORS = {
    "edge": ((b"edge", bytes(range(16)), struct.pack(">IIQQ", 3, 7, 11, 13)),
             "ea1787174684cd141996fc900c09db8f"),
    "master": ((b"master", bytes(16), struct.pack(">Q", 5), struct.pack(">III", 0, 1, 2),
                b"\xff" * 16),
               "d55fcbb6116fab66f4cb14789a7829b0"),
    "no_parts": ((), "df3f619804a92fdb4057192dc43dd748"),
    "empty_part": ((b"",), "af5570f5a1810b7af78caf4bc70a660f"),
}


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
            xor_combine([KeyMaterial.random(rng), KeyMaterial(bytes(8))])

    def test_xor_is_bytewise(self, rng):
        # leading zero bytes must survive; equal inputs give all-zero bytes
        for bits in (8, 64, 80, 128, 192, 256):
            for _ in range(20):
                a, b = KeyMaterial(rng.randbytes(bits // 8)), KeyMaterial(rng.randbytes(bits // 8))
                a = KeyMaterial(b"\x00" + a.data[1:])
                want = bytes(x ^ y for x, y in zip(a.data, b.data))
                assert (a ^ b).data == want
                assert (a ^ a).data == bytes(bits // 8)


class TestAuthenticatedEncryption:
    def test_round_trip(self, rng):
        suite = CipherSuite()
        key = KeyMaterial.random(rng)
        for size in (0, 1, 13, 250, 4000):
            msg = rng.getrandbits(size * 8).to_bytes(size, "big") if size else b""
            assert suite.decrypt(key, suite.encrypt(key, msg, rng)) == msg

    def test_wrong_key_rejected(self, rng):
        suite = CipherSuite()
        k1, k2 = KeyMaterial.random(rng), KeyMaterial.random(rng)
        ct = suite.encrypt(k1, b"payload", rng)
        with pytest.raises(IntegrityFailure):
            suite.decrypt(k2, ct)

    def test_randomized_ciphertexts(self, rng):
        suite = CipherSuite()
        key = KeyMaterial.random(rng)
        assert suite.encrypt(key, b"same", rng) != suite.encrypt(key, b"same", rng)

    def test_os_entropy_round_trip(self):
        # the one way to draw keys and IVs from the OS instead of a seed
        suite = CipherSuite()
        os_rng = random.SystemRandom()
        key = KeyMaterial.random(os_rng)
        assert suite.decrypt(key, suite.encrypt(key, b"payload", os_rng)) == b"payload"

    def test_any_bit_flip_detected(self, rng):
        suite = CipherSuite()
        key = KeyMaterial.random(rng)
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

    @pytest.mark.parametrize("key,iv,plaintext,ct_tag", GCM_VECTORS, ids=["tc1", "tc2", "tc3"])
    def test_suite_decrypts_reference_vectors(self, key, iv, plaintext, ct_tag):
        # the suite's one ciphertext format is IV(12) || AES-GCM ciphertext+tag
        suite = CipherSuite()
        blob = bytes.fromhex(iv + ct_tag)
        assert suite.decrypt(km(key), blob) == bytes.fromhex(plaintext)

    @pytest.mark.parametrize("key,iv,plaintext,ct_tag", GCM_VECTORS, ids=["tc1", "tc2", "tc3"])
    def test_suite_encrypt_prepends_the_iv(self, key, iv, plaintext, ct_tag):
        suite = CipherSuite()
        blob = suite.encrypt(km(key), bytes.fromhex(plaintext), FixedBits(int(iv, 16)))
        assert blob.hex() == iv + ct_tag

    def test_truncated_ciphertext(self, rng):
        suite = CipherSuite()
        with pytest.raises(IntegrityFailure):
            suite.decrypt(KeyMaterial.random(rng), b"tiny")


def first_decrypt(suite, keys, ct):
    """The reference for an opener: try `decrypt` under each key in turn."""
    for key in keys:
        try:
            return suite.decrypt(key, ct)
        except IntegrityFailure:
            continue
    return None


KEY_LISTS = st.lists(st.binary(min_size=KEY_BYTES, max_size=KEY_BYTES).map(KeyMaterial),
                     max_size=6)


class TestOpener:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(keys=KEY_LISTS, sealer=st.integers(-1, 6), plaintext=st.binary(max_size=80),
           iv_seed=st.integers(0, 2**32 - 1))
    def test_equals_a_first_success_decrypt_loop(self, keys, sealer, plaintext, iv_seed):
        # sealed under one of the keys, or (sealer out of range) under none
        rng = random.Random(iv_seed)
        key = keys[sealer] if 0 <= sealer < len(keys) else KeyMaterial.random(rng)
        ct = SHA256.encrypt(key, plaintext, rng)
        want = first_decrypt(SHA256, keys, ct)
        assert SHA256.opener(keys)(ct) == want
        assert want == (plaintext if key in keys else None)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(keys=KEY_LISTS.filter(bool), pick=st.integers(0, 5), plaintext=st.binary(max_size=80),
           bit=st.integers(0, 2**20), cut=st.integers(0, 27))
    def test_flipped_or_truncated_frame_gives_none(self, keys, pick, plaintext, bit, cut):
        ct = SHA256.encrypt(keys[pick % len(keys)], plaintext, random.Random(bit))
        open_frame = SHA256.opener(keys)
        assert open_frame(ct) == plaintext
        flipped = bytearray(ct)
        flipped[bit // 8 % len(ct)] ^= 1 << (bit % 8)
        assert open_frame(bytes(flipped)) is None
        assert open_frame(ct[:cut]) is None

    def test_empty_key_list_opens_nothing(self, rng):
        ct = SHA256.encrypt(KeyMaterial.random(rng), b"payload", rng)
        assert SHA256.opener([])(ct) is None
        assert SHA256.opener(iter(()))(ct) is None


@pytest.fixture
def built(monkeypatch):
    """Start from an empty context cache and list every AESGCM key built."""
    keys, real = [], crypto.AESGCM

    def counting_aesgcm(key):  # the Rust AESGCM type cannot be subclassed
        keys.append(key)
        return real(key)

    crypto._aead.cache_clear()
    monkeypatch.setattr(crypto, "AESGCM", counting_aesgcm)
    return keys


class TestContextCache:
    def test_equal_keys_share_one_context(self, rng, built):
        data = KeyMaterial.random(rng).data
        sealer, opener = KeyMaterial(data), KeyMaterial(data)
        assert sealer is not opener
        ct = SHA256.encrypt(sealer, b"payload", rng)
        assert SHA256.decrypt(opener, ct) == b"payload"
        assert SHA256.opener([opener])(ct) == b"payload"
        assert built == [data]

    def test_cache_stays_bounded(self, rng, built):
        for _ in range(300):
            SHA256.encrypt(KeyMaterial.random(rng), b"x", rng)
        assert len(built) == 300
        assert crypto._aead.cache_info().currsize <= 256

    def test_width_errors_are_never_cached(self, rng, built):
        short = KeyMaterial(bytes(KEY_BYTES - 1))
        for _ in range(3):
            with pytest.raises(WidthMismatch):
                SHA256.encrypt(short, b"x", rng)
            with pytest.raises(WidthMismatch):
                SHA256.decrypt(short, bytes(40))
        info = crypto._aead.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 6, 0) and built == []

    def test_cached_contexts_keep_their_own_key(self, rng, built):
        a, b = KeyMaterial.random(rng), KeyMaterial.random(rng)
        ct_a, ct_b = SHA256.encrypt(a, b"for a", rng), SHA256.encrypt(b, b"for b", rng)
        with pytest.raises(IntegrityFailure):
            SHA256.decrypt(b, ct_a)  # b's context is cached, and stays b's
        assert SHA256.decrypt(b, ct_b) == b"for b"
        assert built == [a.data, b.data]
        for _ in range(crypto._aead.cache_info().maxsize):  # evict both
            SHA256.encrypt(KeyMaterial.random(rng), b"x", rng)
        del built[:]
        assert SHA256.decrypt(a, ct_a) == b"for a"
        with pytest.raises(IntegrityFailure):
            SHA256.decrypt(a, ct_b)
        assert built == [a.data]


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

    @pytest.mark.parametrize("case", sorted(HMAC_VECTORS))
    def test_hmac_rfc4231(self, case):
        key, data, want = HMAC_VECTORS[case]
        digest = SHA256.keyed_digest(KeyMaterial(key), data)
        assert digest.hex() == want
        assert SHA256.verify_keyed_digest(KeyMaterial(key), data, bytes.fromhex(want))

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
        src = NonceSource(rng)
        assert src.fresh() != src.fresh()

    def test_seeded_reproducibility(self):
        a = NonceSource(random.Random(5))
        b = NonceSource(random.Random(5))
        assert [a.fresh() for _ in range(20)] == [b.fresh() for _ in range(20)]

    def test_no_duplicates_in_bulk(self, rng):
        src = NonceSource(rng)
        values = [src.fresh() for _ in range(100_000)]
        assert len(set(values)) == len(values)
        assert src.used == set(values)


class TestSuiteConfig:
    # 24 and 32 bytes are AES-192/256 keys, which AES-GCM itself would take
    @pytest.mark.parametrize("width", [8, KEY_BYTES - 1, KEY_BYTES + 1, 24, 32])
    def test_width_enforced_on_use(self, rng, width):
        suite = CipherSuite()
        with pytest.raises(WidthMismatch):
            suite.encrypt(KeyMaterial(bytes(width)), b"x", rng)
        with pytest.raises(WidthMismatch):
            suite.decrypt(KeyMaterial(bytes(width)), bytes(40))
        # an opener refuses it when built, wherever it sits among good keys:
        # never skipped as one more key that opens nothing
        good = [KeyMaterial.random(rng), KeyMaterial.random(rng)]
        for at in range(3):
            with pytest.raises(WidthMismatch):
                suite.opener(good[:at] + [KeyMaterial(bytes(width))] + good[at:])

    def test_derive_key_width_and_determinism(self):
        suite = CipherSuite()
        k1 = suite.derive_key(b"a", b"b")
        assert k1.width_bits == KEY_BITS
        assert k1 == suite.derive_key(b"a", b"b")
        assert k1 != suite.derive_key(b"ab", b"")  # length framing matters

    @pytest.mark.parametrize("case", sorted(DERIVE_VECTORS))
    def test_derive_key_known_answers(self, case):
        # every master, edge and local key in a run goes through derive_key
        parts, want = DERIVE_VECTORS[case]
        assert CipherSuite().derive_key(*parts).hex() == want
