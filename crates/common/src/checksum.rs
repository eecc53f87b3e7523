//! CRC-32 (IEEE 802.3) checksums for block data.
//!
//! Implemented from scratch (reflected polynomial 0xEDB88320) to avoid an
//! extra dependency, as slicing-by-16: sixteen `const`-built tables let
//! one step consume 16 input bytes with independent lookups instead of
//! one dependent lookup per byte. Same polynomial, same values as the
//! bytewise loop it replaced, so block-file headers and edit-log records
//! written before still verify. Workers checksum block payloads on write,
//! the client verifies on read, detecting the corruption events that
//! drive re-replication (paper §5).

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

/// Bytes consumed per step of the main loop (and the number of tables).
const SLICES: usize = 16;

/// `TABLES[0]` is the classic one-byte table; `TABLES[k][i]` is the CRC of
/// byte `i` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut s = self.state;
        let mut steps = data.chunks_exact(SLICES);
        for c in &mut steps {
            // The running CRC folds into the first word only; byte `j` of
            // the step is `SLICES - 1 - j` bytes from its end.
            let words = [
                u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ s,
                u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                u32::from_le_bytes([c[8], c[9], c[10], c[11]]),
                u32::from_le_bytes([c[12], c[13], c[14], c[15]]),
            ];
            s = 0;
            for (i, w) in words.into_iter().enumerate() {
                let t = SLICES - 4 * (i + 1);
                s ^= TABLES[t + 3][(w & 0xff) as usize]
                    ^ TABLES[t + 2][((w >> 8) & 0xff) as usize]
                    ^ TABLES[t + 1][((w >> 16) & 0xff) as usize]
                    ^ TABLES[t][(w >> 24) as usize];
            }
        }
        // Fewer than `SLICES` bytes are left: one table step each.
        for &b in steps.remainder() {
            s = (s >> 8) ^ TABLES[0][((s ^ b as u32) & 0xff) as usize];
        }
        self.state = s;
    }

    /// Finalizes and returns the checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table loop the sliced implementation replaced:
    /// the reference every sliced result must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut s = 0xFFFF_FFFFu32;
        for &b in data {
            s = (s >> 8) ^ TABLES[0][((s ^ b as u32) & 0xff) as usize];
        }
        s ^ 0xFFFF_FFFF
    }

    /// Seeded bytes, so a failure names a reproducible input.
    fn seeded(len: usize, seed: u64) -> Vec<u8> {
        match crate::BlockData::generate_real(len, seed) {
            crate::BlockData::Real(bytes) => bytes.to_vec(),
            crate::BlockData::Synthetic { .. } => unreachable!("generate_real builds real bytes"),
        }
    }

    #[test]
    fn known_vectors() {
        // Standard IEEE CRC-32 test vectors: the values every block-file
        // header and edit-log record on disk was written with.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_alignment() {
        let buf = seeded(4_100 + 16, 0x0C70_9055);
        for start in 0..16 {
            for len in 0..=4_100 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn streaming_equals_oneshot_at_every_split() {
        let data = seeded(300, 7);
        let whole = crc32(&data);
        assert_eq!(whole, crc32_bytewise(&data));
        for split in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn different_data_different_crc() {
        assert_ne!(crc32(b"block-a"), crc32(b"block-b"));
    }
}
