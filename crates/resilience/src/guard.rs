//! bsim-guard data integrity: [`crc32`], the IEEE CRC32 the dist frame
//! header and the result store both stamp over their payloads.

/// The reflected IEEE CRC32 polynomial (zlib/Ethernet/PNG).
const CRC32_POLY: u32 = 0xEDB8_8320;

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 of `bytes` (the zlib `crc32` everyone can cross-check).
///
/// Used as the frame-payload checksum on the dist wire and the
/// entry checksum in the svc result store: cheap enough to run on every
/// frame, and strong enough that a single flipped bit anywhere in the
/// payload is always detected.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
