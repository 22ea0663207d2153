//! bsim-guard data integrity: [`crc32`], the IEEE CRC32 the frame
//! header and the result store both stamp over their payloads. It reads
//! sixteen bytes a step (slice-by-16: sixteen 256-entry tables, built at
//! compile time), so re-verifying every stored entry and every served
//! fragment on every read stays cheap; the value is the byte-at-a-time
//! CRC's, bit for bit.

/// The reflected IEEE CRC32 polynomial (zlib/Ethernet/PNG).
const CRC32_POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// IEEE CRC32 of `bytes` (the zlib `crc32` everyone can cross-check).
///
/// Used as the frame-payload checksum of [`crate::frame`], the entry
/// checksum in the svc result store and the checksum of the daemon's
/// served fragments: cheap enough to run on every frame and every read,
/// and strong enough that a single flipped bit anywhere in the
/// payload is always detected.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let word = |at: usize| {
            u32::from_le_bytes([chunk[at], chunk[at + 1], chunk[at + 2], chunk[at + 3]])
        };
        let (a, b, c, d) = (crc ^ word(0), word(4), word(8), word(12));
        crc = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][(b & 0xFF) as usize]
            ^ t[10][((b >> 8) & 0xFF) as usize]
            ^ t[9][((b >> 16) & 0xFF) as usize]
            ^ t[8][(b >> 24) as usize]
            ^ t[7][(c & 0xFF) as usize]
            ^ t[6][((c >> 8) & 0xFF) as usize]
            ^ t[5][((c >> 16) & 0xFF) as usize]
            ^ t[4][(c >> 24) as usize]
            ^ t[3][(d & 0xFF) as usize]
            ^ t[2][((d >> 8) & 0xFF) as usize]
            ^ t[1][((d >> 16) & 0xFF) as usize]
            ^ t[0][(d >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop `crc32` replaced: the oracle it must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic filler (SplitMix64 bytes).
    fn seeded(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard zlib check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_any_single_bit_flip() {
        let clean = b"platform=milkv kernel=Cca cycles=123456";
        let reference = crc32(clean);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut flipped = clean.to_vec();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "byte {byte} bit {bit}");
            }
        }
    }

    /// Every length around the 16-byte step, at every alignment of the
    /// slice, and one long buffer: slice-by-16 equals the byte loop.
    #[test]
    fn crc32_equals_the_bytewise_reference() {
        let buf = seeded(144 + 16, 0x5EED);
        for start in 0..16 {
            for len in 0..=144 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
        let big = seeded(1 << 20, 42);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }
}
