//! SHA-256 and HMAC-SHA-256 for policy-bundle signing and V2X message
//! authentication.
//!
//! Self-contained implementation (FIPS 180-4 / RFC 2104), checked against
//! the standard test vectors. It exists so the update mechanism's
//! authenticity story is *executable* without pulling a crypto dependency
//! into the workspace.
//!
//! Everything is built on one private block compression. [`sha256`]
//! compresses whole blocks straight from its input and pads the tail in a
//! stack buffer. [`HmacKey`] keeps the two states left after compressing
//! the key's ipad and opad blocks, so a caller that reuses a key (the V2X
//! follower's auth rung) pays two compressions per short-message tag, not
//! four. [`hmac_sha256`] is `HmacKey::new(key).mac(data)`. No function
//! here allocates except the hex codecs.
//!
//! **This is simulation-grade code.** It is a straightforward, unaudited,
//! non-constant-time implementation; do not reuse it outside this research
//! repository.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// SHA-256 block size in bytes (also the HMAC key-block size).
const BLOCK: usize = 64;

/// Runs the SHA-256 compression function over one 64-byte block.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (k, w) in K.iter().zip(w) {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(*k)
            .wrapping_add(w);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// Finishes a hash whose state `h` has already absorbed `prefix_len`
/// bytes (a whole number of blocks): absorbs `data`, pads, and returns the
/// digest. Whole blocks are compressed straight from `data`; only the
/// tail is copied, into a stack buffer.
fn finish(mut h: [u32; 8], prefix_len: usize, data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut blocks = data.chunks_exact(BLOCK);
    for block in &mut blocks {
        compress(&mut h, block.try_into().expect("chunks_exact yields whole blocks"));
    }
    // tail + 0x80 + zero pad + 8-byte big-endian bit length: one block if
    // the tail leaves room for the marker and the length, else two
    let tail = blocks.remainder();
    let mut pad = [0u8; 2 * BLOCK];
    pad[..tail.len()].copy_from_slice(tail);
    pad[tail.len()] = 0x80;
    let padded = if tail.len() < BLOCK - 8 { BLOCK } else { 2 * BLOCK };
    let bit_len = ((prefix_len + data.len()) as u64).wrapping_mul(8);
    pad[padded - 8..padded].copy_from_slice(&bit_len.to_be_bytes());
    for block in pad[..padded].chunks_exact(BLOCK) {
        compress(&mut h, block.try_into().expect("chunks_exact yields whole blocks"));
    }

    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(h) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Computes the SHA-256 digest of `data`. Allocates nothing.
///
/// # Example
/// ```
/// use polsec_core::sign::{sha256, to_hex};
/// let d = sha256(b"abc");
/// assert_eq!(
///     to_hex(&d),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    finish(H0, 0, data)
}

/// An HMAC-SHA-256 key prepared once (RFC 2104): the SHA-256 states left
/// after absorbing the ipad and opad key blocks.
///
/// [`HmacKey::mac`] resumes from those states, so a tag over a message of
/// at most 55 bytes costs exactly two compressions, and no tag allocates.
///
/// # Example
/// ```
/// use polsec_core::sign::{hmac_sha256, HmacKey};
/// let key = HmacKey::new(b"Jefe");
/// assert_eq!(
///     key.mac(b"what do ya want for nothing?"),
///     hmac_sha256(b"Jefe", b"what do ya want for nothing?")
/// );
/// ```
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Prepares `key`; a key longer than one block is hashed first.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut h = H0;
            compress(&mut h, &key_block.map(|b| b ^ pad));
            h
        };
        HmacKey {
            inner: midstate(0x36),
            outer: midstate(0x5c),
        }
    }

    /// HMAC-SHA-256 of `data` under this key.
    pub fn mac(&self, data: &[u8]) -> [u8; DIGEST_LEN] {
        let inner = finish(self.inner, BLOCK, data);
        finish(self.outer, BLOCK, &inner)
    }
}

/// Computes HMAC-SHA-256 of `data` under `key` (RFC 2104); prepares the
/// key on every call, so a caller that reuses a key should hold an
/// [`HmacKey`].
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(data)
}

/// Hex-encodes a byte slice (lowercase).
pub fn to_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(char::from(DIGITS[usize::from(b >> 4)]));
        s.push(char::from(DIGITS[usize::from(b & 0xF)]));
    }
    s
}

/// Decodes lowercase/uppercase hex into bytes. Returns `None` on odd length
/// or on any character outside `[0-9a-fA-F]`, so every byte string has
/// exactly one accepted spelling per letter case.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    fn nibble(c: u8) -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    }
    let digits = s.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    digits
        .chunks_exact(2)
        .map(|pair| Some(nibble(pair[0])? << 4 | nibble(pair[1])?))
        .collect()
}

/// Constant-shape comparison of two digests (length then bytes; the timing
/// properties don't matter in simulation but the API mirrors real designs).
pub fn digests_equal(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 test vectors
    #[test]
    fn sha256_empty() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn sha256_abc() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn sha256_448_bit_message() {
        assert_eq!(
            to_hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn sha256_million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn sha256_block_boundaries() {
        // lengths around the 55/56/64-byte padding edges must not panic and
        // must be distinct
        let mut digests = Vec::new();
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            digests.push(to_hex(&sha256(&vec![0xAB; len])));
        }
        let mut unique = digests.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), digests.len());
    }

    /// `len` bytes of a fixed pattern: byte `i` is `31 * i + seed` (mod 256).
    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    // Expected digests in the known-answer tests below were generated with
    // Python 3's `hashlib.sha256` and `hmac.new(key, data, hashlib.sha256)`
    // over the same `pattern` inputs.

    #[test]
    fn sha256_known_answers_around_padding_edges() {
        let cases = [
            (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
            (55, "27d3069ecafb8507f92fa750312a99afe0908525e67b2abe8942b51659945b1b"),
            (56, "3428ab653c0a1ac104ee80fd3bed55135da5556ca4c26da9c781ae56364a6969"),
            (57, "28c22b1d4fc34c26ca51d137ec64373fc16b38e32cef9c6759f910fc628efee1"),
            (63, "b5ec25bd1c4b7c94c9ea9d235272e43f644f561d7c8c7e58ec5fa9aefe95ef07"),
            (64, "a08f82c23e6c13629d8e33d0d2a13005fb104363eb793b5e8842044951d27764"),
            (65, "c0a0263ae1ab4e9dda9cd2ed6c44b23ee6ff75c90c640185f462fad7f24fcd6f"),
            (119, "b4639d08cdba917a7875088b4e05633a7812e14282482de937915c9799b17250"),
            (120, "e4fce14f6aa99657bdffe9f1da59ce85f0398479e9af7e9de6ccf53e174447ab"),
            (128, "8bb5dfd6ac2a606ce25701c19ed1fe8fa3a1a7355cd7fe3445ac3e2cc7a45359"),
            (1000, "945acdf575d6a2430bf4d6163e1d03b4b0b896fcef107c8b24bf7ff07a621fa3"),
        ];
        for (len, expected) in cases {
            assert_eq!(to_hex(&sha256(&pattern(len, 0))), expected, "length {len}");
        }
    }

    const HMAC_KEY_LENS: [usize; 6] = [0, 20, 63, 64, 65, 131];
    const HMAC_DATA_LENS: [usize; 6] = [0, 11, 55, 56, 64, 200];

    #[test]
    fn hmac_known_answers_across_key_and_data_lengths() {
        // rows: HMAC_KEY_LENS (key = pattern(k, 0x5a)); columns:
        // HMAC_DATA_LENS (data = pattern(d, 7))
        let expected: [[&str; 6]; 6] = [
            [
                "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad",
                "1a788451bf86d22c6db85bbb625fc351bfd5cb71d5c811ca076396b93a40166d",
                "0f2c96f44c2f83116ac3b0aa62235d62d441e608fdb4bfd3589cfe277cb188e4",
                "1d4df2068927ef5e5ae4f60c57036d30ae1d13569b3b8b89827ec382a24d23ff",
                "d69870f065dbe9cf2f5dafefada5bd6396bb09c1a26421c4c536bfdc9417971d",
                "8c542413cc9381e16b70afa9c97603588209c7695052cc5e599cf45777b64068",
            ],
            [
                "37bfa9b6c0fe1ab563bd2a03a2d8094007a4198e6b329b83b16e746d0888f3d2",
                "82836797ab84a3d2a51e4742b18c063e4a25329bd63dddf9f7a281bc55414edd",
                "b77cd50668435162d82395f650d3445258d69c14fee304f0f2996ec6d83abb2a",
                "9d67eaf86b16d7c9e7ab12adb081873836a4fd3facbd9628a64a36273d0dd793",
                "8fc2554b86fb7287cee6970fbd2a0d6a0074a806f8e8819201af60b07100c475",
                "a43362f7db2be715b9e1e7c2c1c79c4eb3c5245fbb7345e3683a59290edf728f",
            ],
            [
                "d38831de0ff909ec778610cbbd3a064fd223479dd175a93b57d4e7d64f0873a2",
                "440c7c751e7576311067ea450d4edceda969bf529678211262a2f0769f42be19",
                "5a909c5893dd9a7d13e85bbbe758b232ade7182a602c3fe2cd53720668f989cc",
                "b5d2f8c3f0d2306fbd9f163994a06d70ba878c9b8c1af98d0c336a4c78fc94fd",
                "8d7a5f020d2fd0609e5c09197d4ef94e0a3850f82c0cd162d5802aa99e719519",
                "c14fd21f47a3dc545008f83fe1739b2abcd894aa6a8ade706f71435a772b3c54",
            ],
            [
                "a48f1e8d9fbe99eaae1315074b76b92a2b0c68e88f73aba4975768bff263d81f",
                "d2df641f8d4a46e3fbe6e829f9a99845fbed8ab3e5c6d3d67d83b47fd65c3b32",
                "10b291a698fef6434bf806764dd2fe1380aae01766cf47863ca05382e81063c1",
                "d02fb8b730fd986380c78e92bc4b047ff6caf88320b31fb0f32b021663ad5d88",
                "8377fa53db2d374bb3a4d5fe65951c4a638b5f127173c6eada8ffbd3f6048464",
                "c7c6ad622244e8ea6a8b580e7530237d45a8dd23efca9ccdcf4b8df096674c74",
            ],
            [
                "de9e15b5b547576ce0bcb44081c21bdffcb140cfac5cb5bb1beedb204c63f94e",
                "b257db77d83d985323bdcafd9688b95d102e1bea3c130016d0f66f0c95fe5216",
                "6884260e8bd0e7c5a5fcb14531004f29324920e52d38efe942fbb686cf9f2d8d",
                "29236a01f6b07f7beb5b7f4825d360b473dc7bf7ecfbead552527cf243ecc543",
                "a3707ce85bc3ea9415a53196a1640438bafeeb6cae89152261a4607d34cfc38f",
                "7839ec3aa60e824bcd1da111cf5e4191c1748b4f688d2f66d437c848b3792563",
            ],
            [
                "8ad78a6f8aca52be847aca7d10ea0f700520c046c8f1b0245c9bc9d816a6d4e3",
                "2f6581d9279609697773be0cbffd1ac719ef731c258ca18f02baeacf2396d98d",
                "55b1fe78fb360aec85964c0c8900c1d035ada2f33f96351b63c18078b6d288da",
                "2fe6979fe3bfdedb224e50c6e2ba3b37afc0d493bd13e2ae3cca9412a022801d",
                "3d75840673aa0ed5276eec2cc2483ed60c4990e21149d0995ace8860b028a4d7",
                "fe5f17b44cbcf706d83c6df65d1c5a1724262c98bfe90f6adafd290a6220bd7d",
            ],
        ];
        for (k, row) in HMAC_KEY_LENS.into_iter().zip(expected) {
            for (d, hex) in HMAC_DATA_LENS.into_iter().zip(row) {
                let mac = hmac_sha256(&pattern(k, 0x5a), &pattern(d, 7));
                assert_eq!(to_hex(&mac), hex, "key length {k}, data length {d}");
            }
        }
    }

    #[test]
    fn prepared_key_matches_one_shot_hmac() {
        for k in HMAC_KEY_LENS {
            let key = pattern(k, 0x5a);
            let prepared = HmacKey::new(&key);
            for d in HMAC_DATA_LENS {
                let data = pattern(d, 7);
                assert_eq!(
                    prepared.mac(&data),
                    hmac_sha256(&key, &data),
                    "key length {k}, data length {d}"
                );
            }
        }
    }

    // RFC 4231 HMAC-SHA-256 test vectors
    #[test]
    fn hmac_rfc4231_case1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_rfc4231_case2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_rfc4231_case6_long_key() {
        // 131-byte key forces the key-hashing path
        let key = [0xaau8; 131];
        let mac = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            to_hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn hmac_rfc4231_case3() {
        let mac = hmac_sha256(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            to_hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn hmac_rfc4231_case4() {
        let key: Vec<u8> = (0x01..=0x19).collect();
        let mac = hmac_sha256(&key, &[0xcd; 50]);
        assert_eq!(
            to_hex(&mac),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn hmac_rfc4231_case7_long_key_and_data() {
        let key = [0xaau8; 131];
        let data = b"This is a test using a larger than block-size key and a larger than \
block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let mac = hmac_sha256(&key, data);
        assert_eq!(
            to_hex(&mac),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn hmac_key_sensitivity() {
        let a = hmac_sha256(b"key-a", b"payload");
        let b = hmac_sha256(b"key-b", b"payload");
        assert_ne!(a, b);
    }

    #[test]
    fn hex_round_trip() {
        let data = [0u8, 1, 0xAB, 0xFF, 0x7f];
        let hex = to_hex(&data);
        assert_eq!(from_hex(&hex).unwrap(), data.to_vec());
        assert_eq!(from_hex("abc"), None, "odd length");
        assert_eq!(from_hex("zz"), None, "non-hex");
        assert_eq!(from_hex("").unwrap(), Vec::<u8>::new());
        assert_eq!(from_hex("00FfaB").unwrap(), vec![0, 0xFF, 0xAB], "either case");
    }

    #[test]
    fn from_hex_rejects_multibyte_characters_without_panicking() {
        // 'é' is two bytes, so the even-length text splits it across pairs
        assert_eq!(from_hex("aéb"), None);
        assert_eq!(from_hex("éé"), None);
    }

    #[test]
    fn from_hex_rejects_signs() {
        assert_eq!(from_hex("+a0b"), None);
        assert_eq!(from_hex("-a0b"), None);
        assert_eq!(from_hex("0b+a"), None);
    }

    #[test]
    fn digests_equal_semantics() {
        let a = sha256(b"x");
        let mut b = a;
        assert!(digests_equal(&a, &b));
        b[31] ^= 1;
        assert!(!digests_equal(&a, &b));
        assert!(!digests_equal(&a, &a[..31]));
    }
}
