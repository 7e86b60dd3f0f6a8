//! CRC-32 (ISO-HDLC, polynomial `0xEDB88320`) — the checksum guarding
//! every batch frame and index file.
//!
//! Hand-rolled (the workspace is offline and dependency-free, and the
//! crate forbids `unsafe`, so carry-less-multiply intrinsics are out): a
//! slice-by-16 kernel over 16×256-entry tables (16 KiB) built at first
//! use via `OnceLock`, the scalar construction zlib and `crc32fast`
//! use. Every query checksums each batch it reads, so the kernel
//! consumes sixteen bytes per step with sixteen independent table
//! lookups: checksumming the 44.7 MB of batch payload in a 563 k-record
//! archive takes 25–27 ms, where slice-by-8 took 33–35 ms (2 shared
//! vCPUs). The function itself stays the *stable, specified*
//! CRC-32/ISO-HDLC (`docs/STORE_FORMAT.md` §5 lists test vectors).

use std::sync::OnceLock;

/// Bytes the kernel consumes per step, and the number of tables.
const SLICES: usize = 16;

/// `t[0]` is the classic byte-at-a-time table; `t[k][i]` advances the
/// partial CRC `t[k-1][i]` through one more zero byte, so sixteen lookups
/// jointly consume sixteen input bytes.
fn tables() -> &'static [[u32; 256]; SLICES] {
    static TABLES: OnceLock<[[u32; 256]; SLICES]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; SLICES];
        for i in 0..256usize {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            // dasr-lint: allow(G3) reason="i ranges over 0..256, the fixed table width"
            t[0][i] = c;
        }
        for k in 1..SLICES {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// CRC-32/ISO-HDLC of `bytes` (init `0xFFFFFFFF`, reflected, final XOR
/// `0xFFFFFFFF` — the `cksum -a crc32` / zlib `crc32()` convention).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = tables();
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(SLICES);
    for ch in &mut chunks {
        // dasr-lint: allow(G3) reason="chunks_exact(16) yields exactly 16-byte slices"
        let w0 = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let w1 = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        let w2 = u32::from_le_bytes([ch[8], ch[9], ch[10], ch[11]]);
        let w3 = u32::from_le_bytes([ch[12], ch[13], ch[14], ch[15]]);
        c = t[15][(w0 & 0xFF) as usize]
            ^ t[14][((w0 >> 8) & 0xFF) as usize]
            ^ t[13][((w0 >> 16) & 0xFF) as usize]
            ^ t[12][(w0 >> 24) as usize]
            ^ t[11][(w1 & 0xFF) as usize]
            ^ t[10][((w1 >> 8) & 0xFF) as usize]
            ^ t[9][((w1 >> 16) & 0xFF) as usize]
            ^ t[8][(w1 >> 24) as usize]
            ^ t[7][(w2 & 0xFF) as usize]
            ^ t[6][((w2 >> 8) & 0xFF) as usize]
            ^ t[5][((w2 >> 16) & 0xFF) as usize]
            ^ t[4][(w2 >> 24) as usize]
            ^ t[3][(w3 & 0xFF) as usize]
            ^ t[2][((w3 >> 8) & 0xFF) as usize]
            ^ t[1][((w3 >> 16) & 0xFF) as usize]
            ^ t[0][(w3 >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time reference: one lookup of `t[0]` per byte.
    fn bytewise(bytes: &[u8]) -> u32 {
        let t = tables();
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
    }

    #[test]
    fn sliced_kernel_matches_bytewise_at_every_length() {
        // Every length 0..=80 covers zero to five whole 16-byte steps and
        // every remainder; every start offset 0..16 moves the steps across
        // the buffer's alignment.
        let data: Vec<u8> = (0..96u32)
            .map(|i| (i.wrapping_mul(37) ^ 0xA5) as u8)
            .collect();
        for start in 0..SLICES {
            for len in 0..=80 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the store's batch payload";
        let good = crc32(data);
        let mut copy = data.to_vec();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32(&copy), good, "flip at {byte}:{bit} undetected");
                copy[byte] ^= 1 << bit;
            }
        }
    }
}
