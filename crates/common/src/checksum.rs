//! CRC-32 (IEEE 802.3) checksums for block data.
//!
//! Implemented from scratch (reflected polynomial 0xEDB88320) to avoid an
//! extra dependency, twice over, and both compute the same function — so
//! block-file headers, edit-log records and the wire carry the values
//! they always did, whichever ran:
//!
//! - **Carry-less multiply** (`clmul`): on an x86-64 CPU that reports
//!   `pclmulqdq` and `sse4.1`, an input of at least `clmul::STEP` (64) bytes
//!   is folded 64 bytes per step with `_mm_clmulepi64_si128` — four
//!   128-bit accumulators, each multiplied forward by `x^512 mod P` and
//!   XORed into the data 64 bytes on, then folded together and
//!   Barrett-reduced to 32 bits (the construction of Intel's "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ", as in zlib and
//!   `crc32fast`). This is the block path: a 1 MiB payload.
//! - **Slicing-by-16** (`sliced`): sixteen `const`-built tables let one
//!   step consume 16 input bytes with independent lookups. It takes what
//!   the fold does not: inputs shorter than one fold step (every ~40-byte
//!   edit-log record), the sub-16-byte tail the fold leaves, and every
//!   input on a CPU or target without the instructions.
//!
//! The choice is made per call from the CPU's feature bits and the input's
//! length — nothing selects it from outside. Workers checksum block
//! payloads on write, the client verifies on read, detecting the
//! corruption events that drive re-replication (paper §5).

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

/// Advances the raw CRC register `s` over `data`, 16 bytes per table step.
fn sliced(mut s: u32, data: &[u8]) -> u32 {
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
    s
}

/// The carry-less-multiply path. The crate's only `unsafe` is here: one
/// call into a function compiled for CPU features detected at run time.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Bytes folded per step of the main loop, and the shortest input the
    /// fold takes (it needs one whole step to fill its accumulators).
    pub(super) const STEP: usize = 64;

    /// Bytes in one 128-bit lane; the fold consumes whole lanes only.
    const LANE: usize = 16;

    // `x^n mod P(x)` in the bit-reflected domain of CRC-32/IEEE, for the
    // distances the fold carries an accumulator over: 512 bits (four lanes
    // abreast), 128 bits (one lane), then the 128 → 64 → 32-bit reduction.
    const K1: i64 = 0x1_5444_2bd4; // n = 512 + 32
    const K2: i64 = 0x1_c6e4_1596; // n = 512 − 32
    const K3: i64 = 0x1_7519_97d0; // n = 128 + 32
    const K4: i64 = 0x0_ccaa_009e; // n = 128 − 32
    const K5: i64 = 0x1_63cd_6124; // n = 64
    /// `P(x)` itself, and `⌊x^64 / P(x)⌋` for the Barrett reduction.
    const POLY: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU has the instructions the fold is compiled with.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advances the raw CRC register `state` over the longest prefix of
    /// `data` that is a whole number of lanes, returning the new register
    /// and the unconsumed tail (under [`LANE`] bytes). `None` — nothing
    /// consumed — when `data` is shorter than [`STEP`] or the CPU lacks the
    /// instructions.
    pub(super) fn fold(state: u32, data: &[u8]) -> Option<(u32, &[u8])> {
        if data.len() < STEP || !available() {
            return None;
        }
        let (lanes, tail) = data.split_at(data.len() - data.len() % LANE);
        // SAFETY: `fold_lanes` is compiled with `pclmulqdq` and `sse4.1`
        // enabled, and `available()` just confirmed the running CPU has
        // both; it has no other precondition (its slice accesses are
        // bounds-checked).
        Some((unsafe { fold_lanes(state, lanes) }, tail))
    }

    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn load(lane: &[u8]) -> __m128i {
        let half = |at: usize| {
            i64::from_le_bytes(lane[at..at + 8].try_into().expect("a lane is two 8-byte halves"))
        };
        _mm_set_epi64x(half(8), half(0))
    }

    /// `a` carried forward by the distance `keys` encodes: its low half
    /// times the low key, its high half times the high key.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn carry(a: __m128i, keys: __m128i) -> __m128i {
        _mm_xor_si128(_mm_clmulepi64_si128(a, keys, 0x00), _mm_clmulepi64_si128(a, keys, 0x11))
    }

    /// The fold proper. `lanes.len()` is a multiple of [`LANE`] and at
    /// least [`STEP`].
    #[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
    fn fold_lanes(state: u32, lanes: &[u8]) -> u32 {
        let (wide, narrow) = lanes.split_at(lanes.len() - lanes.len() % STEP);
        let four = |step: &[u8]| {
            [load(&step[..16]), load(&step[16..32]), load(&step[32..48]), load(&step[48..64])]
        };
        let mut steps = wide.chunks_exact(STEP);
        let mut x = four(steps.next().expect("the caller checked for one whole step"));
        // The register so far is a prefix of the message: it meets the
        // first four bytes.
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for step in steps {
            let d = four(step);
            for i in 0..4 {
                x[i] = _mm_xor_si128(carry(x[i], k1k2), d[i]);
            }
        }
        // Four accumulators into one, then the lanes a whole step did not
        // cover, one at a time.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = x[0];
        for lane in &x[1..] {
            acc = _mm_xor_si128(carry(acc, k3k4), *lane);
        }
        for lane in narrow.chunks_exact(LANE) {
            acc = _mm_xor_si128(carry(acc, k3k4), load(lane));
        }
        // 128 → 96 bits (low half × x^96, onto the high half), 96 → 64
        // (low word × x^64), then Barrett: the quotient estimate times
        // P(x) cancels everything above the remainder's 32 bits.
        let low_word = _mm_set_epi32(0, 0, 0, !0);
        let r = _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x10), _mm_srli_si128(acc, 8));
        let r = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(r, low_word), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(r, 4),
        );
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let t = _mm_clmulepi64_si128(_mm_and_si128(r, low_word), poly_mu, 0x10);
        let t = _mm_clmulepi64_si128(_mm_and_si128(t, low_word), poly_mu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(r, t), 1) as u32
    }
}

/// No carry-less multiply on this target: every input takes [`sliced`].
#[cfg(not(target_arch = "x86_64"))]
mod clmul {
    pub(super) fn fold(_state: u32, _data: &[u8]) -> Option<(u32, &[u8])> {
        None
    }
}

impl Crc32 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let (state, rest) = clmul::fold(self.state, data).unwrap_or((self.state, data));
        self.state = sliced(state, rest);
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

    #[cfg(target_arch = "x86_64")]
    use super::clmul::{available, STEP};

    /// Other targets have no fold: these stand in so the tests below
    /// compile there and skip their clmul half.
    #[cfg(not(target_arch = "x86_64"))]
    const STEP: usize = 64;
    #[cfg(not(target_arch = "x86_64"))]
    fn available() -> bool {
        false
    }

    const INIT: u32 = 0xFFFF_FFFF;

    /// The byte-at-a-time table loop: the reference both paths must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut s = INIT;
        for &b in data {
            s = (s >> 8) ^ TABLES[0][((s ^ b as u32) & 0xff) as usize];
        }
        s ^ INIT
    }

    /// The table path alone, whatever the CPU.
    fn crc32_sliced(data: &[u8]) -> u32 {
        sliced(INIT, data) ^ INIT
    }

    /// The fold called directly, its tail finished bytewise so that no
    /// sliced step can mask a wrong fold. `None` for an input the fold
    /// does not take (shorter than one step).
    fn crc32_clmul(data: &[u8]) -> Option<u32> {
        let (mut s, tail) = clmul::fold(INIT, data)?;
        assert!(tail.len() < 16 && data.ends_with(tail), "the fold leaves a sub-lane tail");
        for &b in tail {
            s = (s >> 8) ^ TABLES[0][((s ^ b as u32) & 0xff) as usize];
        }
        Some(s ^ INIT)
    }

    /// Whether the fold runs on this CPU; loud when it does not, so a run
    /// that checked only the table path says so.
    fn clmul_here(test: &str) -> bool {
        if !available() {
            eprintln!("SKIPPED the clmul half of `{test}`: no pclmulqdq + sse4.1 on this CPU");
        }
        available()
    }

    /// Checks one input on every path: sliced, clmul (where the CPU has it
    /// and the input is long enough), and the public dispatcher.
    fn check_all_paths(data: &[u8], clmul: bool, what: std::fmt::Arguments<'_>) -> u32 {
        let want = crc32_bytewise(data);
        assert_eq!(crc32_sliced(data), want, "sliced: {what}");
        if clmul {
            let folded = crc32_clmul(data);
            assert_eq!(folded.is_some(), data.len() >= STEP, "fold threshold: {what}");
            assert!(folded.is_none_or(|got| got == want), "clmul: {what}: {folded:x?} != {want:x}");
        }
        assert_eq!(crc32(data), want, "dispatcher: {what}");
        want
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
        // header and edit-log record on disk was written with. All three
        // are shorter than a fold step, so the fold must decline them.
        let clmul = clmul_here("known_vectors");
        for (data, want) in [
            (&b""[..], 0x0000_0000),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ] {
            assert_eq!(check_all_paths(data, clmul, format_args!("IEEE vector")), want);
        }
    }

    #[test]
    fn both_paths_equal_bytewise_at_every_length_and_alignment() {
        let clmul = clmul_here("both_paths_equal_bytewise_at_every_length_and_alignment");
        let buf = seeded(4_100 + 16, 0x0C70_9055);
        for start in 0..16 {
            for len in 0..=4_100 {
                check_all_paths(
                    &buf[start..start + len],
                    clmul,
                    format_args!("at {start}, {len} B"),
                );
            }
        }
    }

    /// One streaming pass over `data` cut at `split`, each update taking
    /// whichever path its own length selects.
    fn streamed(data: &[u8], split: usize) -> u32 {
        let mut c = Crc32::new();
        c.update(&data[..split]);
        c.update(&data[split..]);
        c.finish()
    }

    #[test]
    fn streaming_equals_oneshot_at_every_split() {
        // 300 bytes: every split has at least one side past the fold
        // threshold, and splits near either end put the other side under
        // it — so one stream mixes both paths, in both orders.
        let clmul = clmul_here("streaming_equals_oneshot_at_every_split");
        let data = seeded(300, 7);
        let whole = check_all_paths(&data, clmul, format_args!("300 B"));
        for split in 0..=data.len() {
            assert_eq!(streamed(&data, split), whole, "split at {split}");
            // The same split with each path forced, registers handed over.
            let (head, tail) = data.split_at(split);
            assert_eq!(sliced(sliced(INIT, head), tail) ^ INIT, whole, "sliced, split {split}");
            if clmul {
                let fold_or_slice = |s: u32, part: &[u8]| {
                    let (s, rest) = clmul::fold(s, part).unwrap_or((s, part));
                    sliced(s, rest)
                };
                assert_eq!(
                    fold_or_slice(fold_or_slice(INIT, head), tail) ^ INIT,
                    whole,
                    "clmul where long enough, split {split}"
                );
            }
        }
    }

    /// Inputs around the fold threshold and at block size, with the value
    /// the bytewise loop gave for each when this test was written (zlib's
    /// `crc32` gives the same seven): a path that drifts fails here even if
    /// all paths drift together.
    #[test]
    fn sizes_around_the_fold_threshold_match_their_golden_values() {
        let clmul = clmul_here("sizes_around_the_fold_threshold_match_their_golden_values");
        let golden: [(usize, u32); 7] = [
            (STEP - 1, 0xE1B2_C77F),
            (STEP, 0x8043_1999),
            (STEP + 1, 0x6C10_A45F),
            (STEP + 63, 0xA23E_BA0C),
            (STEP + 64, 0xDFBF_1B94),
            (STEP + 65, 0xEEA1_4D6A),
            (1 << 20, 0x2DC5_9BF2),
        ];
        for (len, want) in golden {
            let data = seeded(len, 0x601D + len as u64);
            assert_eq!(
                check_all_paths(&data, clmul, format_args!("{len} B")),
                want,
                "golden, {len} B"
            );
            // Streaming splits that cross the threshold: a side just
            // under it, just over it, and exactly on it.
            for split in [1, STEP - 1, STEP, STEP + 1].into_iter().filter(|s| *s <= len) {
                assert_eq!(streamed(&data, split), want, "{len} B split at {split}");
                assert_eq!(streamed(&data, len - split), want, "{len} B split at {}", len - split);
            }
        }
    }

    #[test]
    fn different_data_different_crc() {
        assert_ne!(crc32(b"block-a"), crc32(b"block-b"));
    }
}
