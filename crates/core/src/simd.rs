//! Runtime-dispatched AVX2 variants of the three hot kernels: the shifted-
//! XNOR k-ago agreement sweep (`classify.rs`), the plane-wise
//! saturating-counter replay (`oracle.rs`), and the row-to-column bit
//! transpose that packs the matrix builder's planes (`sweep.rs`).
//!
//! The first two walk packed 64-execution words; their AVX2 paths walk
//! four words (256 executions) per iteration. Popcounts batch through the
//! `vpshufb` nibble-LUT + `vpsadbw` reduction, and the counter replay
//! tests whole 4-word blocks for outcome uniformity with `vptest` so the
//! common strongly-biased case collapses into a single O(1)
//! [`SaturatingCounter::train_run`] jump spanning 256 executions. Mixed
//! words of a two-bit counter replay through a `pext` compaction and a
//! precomputed step table, at most eight executions per lookup. The
//! transpose turns 64 row bytes, one per execution, into eight column
//! words with one `vpmovmskb` per 32-byte half and bit.
//!
//! Dispatch is by `is_x86_feature_detected!("avx2")`: the scorer and the
//! transpose take the AVX2 path at every size, the k-ago sweep only from
//! a minimum word count ([`use_avx2`]). Everything here is bit-exact
//! against the portable scalar kernels, which remain the only path on
//! non-x86 targets and the reference side of the conformance SIMD
//! differential suite. This module is bp-core's sole `unsafe` island —
//! the intrinsics never touch memory beyond the slices handed in, and
//! every unsafe fn's caller checks the cpuid bits first.

use bp_predictors::SaturatingCounter;

use crate::matrix::BranchMatrix;
use crate::oracle::{tail_mask, tally_word, ternary_masks, MAX_PATTERNS};

/// Fewest stream words for which the AVX2 k-ago sweep is worth its setup;
/// below this the scalar sweep wins on latency anyway.
const MIN_WORDS: usize = 8;

/// `true` when the AVX2 k-ago sweep should handle a `words`-word stream.
/// The scorer needs no such threshold: it dispatches on
/// [`avx2_available`] alone.
#[inline]
pub(crate) fn use_avx2(words: usize) -> bool {
    words >= MIN_WORDS && avx2_available()
}

/// Whether the running CPU has AVX2 (always `false` off x86-64).
#[doc(hidden)]
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// AVX2 k-ago agreement count over executions `[k, n)` — the vector twin
/// of `classify::kth_ago_body_scalar`, bit-exact by construction.
///
/// # Panics
///
/// Panics (via the x86 module's dispatch guard) if AVX2 is unavailable;
/// callers must check [`use_avx2`] first. Off x86-64 this is unreachable
/// because [`use_avx2`] is constant `false`.
#[doc(hidden)]
pub fn kth_ago_body_avx2(words: &[u64], n: usize, k: usize) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        assert!(avx2_available(), "AVX2 kernel called without AVX2");
        // SAFETY: the cpuid check above proves the target feature is
        // present at runtime.
        unsafe { x86::kth_ago_body(words, n, k) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (words, n, k);
        unreachable!("AVX2 kernel on a non-x86 target")
    }
}

/// AVX2 selective-history scorer — the vector twin of
/// `oracle::score_tag_set_scalar`, bit-exact by construction, at any
/// plane length.
///
/// # Panics
///
/// As [`kth_ago_body_avx2`]: callers must check [`avx2_available`] first.
pub(crate) fn score_tag_set_avx2(
    bm: &BranchMatrix,
    cols: &[usize],
    init: SaturatingCounter,
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        assert!(avx2_available(), "AVX2 kernel called without AVX2");
        // SAFETY: the cpuid check above proves the target feature is
        // present at runtime.
        unsafe { x86::score_tag_set(bm, cols, init) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (bm, cols, init);
        unreachable!("AVX2 kernel on a non-x86 target")
    }
}

/// Bit-transposes one byte group's rows: bit `j` of `rows[e]` becomes
/// bit `e` of word `j`. Row `e` holds execution `e`'s bits of eight
/// columns, so word `j` is column `j`'s plane word. The AVX2 kernel when
/// the CPU has it, else [`transpose_rows_scalar`].
#[inline]
pub(crate) fn transpose_rows(rows: &[u8; 64]) -> [u64; 8] {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: the cpuid check above proves the target feature is
        // present at runtime.
        return unsafe { x86::transpose_rows(rows) };
    }
    transpose_rows_scalar(rows)
}

/// AVX2 row-to-column bit transpose — the vector twin of
/// [`transpose_rows_scalar`], bit-exact by construction.
///
/// # Panics
///
/// As [`kth_ago_body_avx2`]: callers must check [`avx2_available`] first.
#[doc(hidden)]
pub fn transpose_rows_avx2(rows: &[u8; 64]) -> [u64; 8] {
    #[cfg(target_arch = "x86_64")]
    {
        assert!(avx2_available(), "AVX2 kernel called without AVX2");
        // SAFETY: the cpuid check above proves the target feature is
        // present at runtime.
        unsafe { x86::transpose_rows(rows) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = rows;
        unreachable!("AVX2 kernel on a non-x86 target")
    }
}

/// The portable row-to-column bit transpose: each eight rows, read as
/// one little-endian word, take an 8×8 bit transpose, which leaves byte
/// `j` holding column `j`'s eight bits; an 8×8 byte transpose of the
/// eight words then gathers each column's bytes into its word.
#[doc(hidden)]
pub fn transpose_rows_scalar(rows: &[u8; 64]) -> [u64; 8] {
    let mut words = [0u64; 8];
    for (word, eight) in words.iter_mut().zip(rows.chunks_exact(8)) {
        let mut x = u64::from_le_bytes(eight.try_into().expect("eight rows"));
        // Swap the off-diagonal bits of each 2×2, then 2×2 blocks of each
        // 4×4, then 4×4 blocks: bit 8r + c moves to bit 8c + r.
        for (shift, mask) in [
            (7, 0x00AA_00AA_00AA_00AA_u64),
            (14, 0x0000_CCCC_0000_CCCC),
            (28, 0x0000_0000_F0F0_F0F0),
        ] {
            let t = (x ^ x >> shift) & mask;
            x ^= t ^ t << shift;
        }
        *word = x;
    }
    // Byte `j` of word `k` moves to byte `k` of word `j`: swap bytes
    // between word pairs 1, 2 and 4 apart.
    for (step, mask) in [
        (1, 0x00FF_00FF_00FF_00FF_u64),
        (2, 0x0000_FFFF_0000_FFFF),
        (4, 0x0000_0000_FFFF_FFFF),
    ] {
        let shift = 8 * step;
        for k in (0..8).filter(|k| k & step == 0) {
            let t = (words[k] >> shift ^ words[k + step]) & mask;
            words[k + step] ^= t;
            words[k] ^= t << shift;
        }
    }
    words
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_andnot_si256,
        _mm256_extract_epi64, _mm256_loadu_si256, _mm256_movemask_epi8, _mm256_or_si256,
        _mm256_set1_epi8, _mm256_setr_epi8, _mm256_setzero_si256, _mm256_shuffle_epi8,
        _mm256_sll_epi64, _mm256_srl_epi64, _mm256_srli_epi16, _mm256_storeu_si256,
        _mm256_testc_si256, _mm256_testz_si256, _mm256_xor_si256, _mm_cvtsi32_si128, _pext_u64,
    };

    use bp_predictors::SaturatingCounter;

    use super::{tail_mask, tally_word, ternary_masks, MAX_PATTERNS};
    use crate::matrix::BranchMatrix;

    /// Unaligned 4-word load starting at `words[i]`.
    ///
    /// # Safety
    ///
    /// `i + 4 <= words.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load4(words: &[u64], i: usize) -> __m256i {
        debug_assert!(i + 4 <= words.len());
        _mm256_loadu_si256(words.as_ptr().add(i).cast())
    }

    /// Per-lane popcount via the `vpshufb` nibble LUT, reduced per lane by
    /// `vpsadbw` against zero; returns the 4-lane vector of u64 counts.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_lanes(v: __m256i) -> __m256i {
        // Nibble LUT: popcount of 0x0..=0xF, repeated per 128-bit half.
        #[rustfmt::skip]
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
        let nib = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        // Sum of absolute differences vs zero: horizontal byte sums into
        // each lane's low 16 bits.
        std::arch::x86_64::_mm256_sad_epu8(nib, _mm256_setzero_si256())
    }

    /// Sum of the four u64 lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lane_sum(v: __m256i) -> u64 {
        (_mm256_extract_epi64(v, 0) as u64)
            .wrapping_add(_mm256_extract_epi64(v, 1) as u64)
            .wrapping_add(_mm256_extract_epi64(v, 2) as u64)
            .wrapping_add(_mm256_extract_epi64(v, 3) as u64)
    }

    /// Total popcount of a 4-word vector.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_sum(v: __m256i) -> u64 {
        lane_sum(popcount_lanes(v))
    }

    /// K-ago agreement count over executions `[k, n)`.
    ///
    /// The valid vector region is the words that are (a) entirely at or
    /// past execution `k`, (b) entirely below `n`, and (c) — when the shift
    /// has a cross-word carry — preceded by a source word. Everything
    /// outside that region (at most one leading word and four trailing)
    /// replays through the same masked scalar step the portable kernel
    /// uses.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (enforced by the caller's cpuid check) and `k < n`,
    /// with `words` holding at least `n.div_ceil(64)` words.
    #[target_feature(enable = "avx2")]
    pub unsafe fn kth_ago_body(words: &[u64], n: usize, k: usize) -> u64 {
        debug_assert!(k < n);
        let (q, r) = (k / 64, (k % 64) as u32);
        let last = (n - 1) / 64;
        let scalar_word = |i: usize| -> u64 {
            let shifted = if r == 0 {
                words[i - q]
            } else {
                let carry = if i > q {
                    words[i - q - 1] >> (64 - r)
                } else {
                    0
                };
                (words[i - q] << r) | carry
            };
            let base = i * 64;
            let mut mask = !0u64;
            if k > base {
                mask &= !0u64 << (k - base);
            }
            if n < base + 64 {
                mask &= !0u64 >> (64 - (n - base));
            }
            u64::from((!(words[i] ^ shifted) & mask).count_ones())
        };

        let mut correct = 0u64;
        // First fully-valid word: for r > 0 word q straddles execution k
        // (and lacks a carry source), so the vector region starts at q+1.
        let full_start = if r == 0 { q } else { q + 1 };
        // One past the last word with all 64 executions below n.
        let full_end = n / 64;

        for i in q..full_start.min(last + 1) {
            correct += scalar_word(i);
        }

        let mut i = full_start;
        if full_start + 4 <= full_end {
            let ones = _mm256_set1_epi8(-1);
            let shl = _mm_cvtsi32_si128(r as i32);
            let shr = _mm_cvtsi32_si128(64 - r as i32);
            let mut acc = _mm256_setzero_si256();
            while i + 4 <= full_end {
                let cur = load4(words, i);
                let shifted = if r == 0 {
                    load4(words, i - q)
                } else {
                    let lo = load4(words, i - q);
                    let hi = load4(words, i - q - 1);
                    _mm256_or_si256(_mm256_sll_epi64(lo, shl), _mm256_srl_epi64(hi, shr))
                };
                let agree = _mm256_xor_si256(_mm256_xor_si256(cur, shifted), ones);
                acc = _mm256_add_epi64(acc, popcount_lanes(agree));
                i += 4;
            }
            correct += lane_sum(acc);
        }

        for j in i..=last {
            correct += scalar_word(j);
        }
        correct
    }

    /// Replays one pattern's executions within a 4-word block: `m` masks
    /// the executions selecting this counter, `t` is the branch-outcome
    /// block. A block whose masked outcomes are uniform — the dominant
    /// case for biased branches — collapses into one
    /// [`SaturatingCounter::train_run`] jump covering up to 256
    /// executions; mixed blocks drop to per-lane [`tally_word_fsm`].
    ///
    /// # Safety
    ///
    /// As [`tally_word_fsm`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tally_block(
        slot: &mut SaturatingCounter,
        m: __m256i,
        t: __m256i,
        fsm: bool,
        correct: &mut u64,
    ) {
        if _mm256_testz_si256(m, m) != 0 {
            return;
        }
        if _mm256_testz_si256(m, t) != 0 {
            // t & m == 0 across all four lanes: a uniform not-taken run.
            *correct += slot.train_run(popcount_sum(m), false);
        } else if _mm256_testc_si256(t, m) != 0 {
            // !t & m == 0: a uniform taken run.
            *correct += slot.train_run(popcount_sum(m), true);
        } else {
            let mut ml = [0u64; 4];
            let mut tl = [0u64; 4];
            _mm256_storeu_si256(ml.as_mut_ptr().cast(), m);
            _mm256_storeu_si256(tl.as_mut_ptr().cast(), t);
            for lane in 0..4 {
                tally_word_fsm(slot, ml[lane], tl[lane], fsm, correct);
            }
        }
    }

    /// Replays one pattern's executions within one word, as
    /// [`tally_word`] does, except that a mixed word goes through the
    /// packed [`TWO_BIT_FSM`] replay when `fsm` is set (a two-bit counter
    /// on a BMI2 host). Uniform and empty words take [`tally_word`]'s
    /// O(1) jump either way.
    ///
    /// # Safety
    ///
    /// Requires AVX2; when `fsm` is set, also BMI2 and a two-bit `slot`
    /// (both checked once per scoring call in [`score_tag_set`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tally_word_fsm(
        slot: &mut SaturatingCounter,
        m: u64,
        t: u64,
        fsm: bool,
        correct: &mut u64,
    ) {
        let tm = t & m;
        if fsm && tm != 0 && tm != m {
            // SAFETY: `fsm` asserts BMI2 and a two-bit counter.
            tally_word_two_bit(slot, m, t, correct);
        } else {
            tally_word(slot, m, t, correct);
        }
    }

    /// Whether the running CPU has BMI2 (`pext`), gating the packed
    /// two-bit-counter replay table.
    #[inline]
    fn bmi2_available() -> bool {
        std::arch::is_x86_feature_detected!("bmi2")
    }

    /// Up to eight predict-then-train steps of the two-bit counter,
    /// precomputed for every (step count, state, outcome byte): the step
    /// count `s` in 1..=8 is stored at `s & 7` (8 at 0), and only the
    /// byte's low `s` bits take part. Entry = `next_state << 4 |
    /// corrects`. Outcome bits replay LSB-first, matching trace order.
    static TWO_BIT_FSM: [[[u8; 256]; 4]; 8] = build_two_bit_fsm();

    const fn build_two_bit_fsm() -> [[[u8; 256]; 4]; 8] {
        let mut table = [[[0u8; 256]; 4]; 8];
        let mut steps = 0usize;
        while steps < 8 {
            let count = if steps == 0 { 8 } else { steps };
            let mut state = 0usize;
            while state < 4 {
                let mut byte = 0usize;
                while byte < 256 {
                    let mut value = state as u8;
                    let mut corrects = 0u8;
                    let mut bit = 0;
                    while bit < count {
                        let taken = (byte >> bit) & 1 == 1;
                        if (value >= 2) == taken {
                            corrects += 1;
                        }
                        value = if taken {
                            if value < 3 {
                                value + 1
                            } else {
                                value
                            }
                        } else {
                            value.saturating_sub(1)
                        };
                        bit += 1;
                    }
                    table[steps][state][byte] = (value << 4) | corrects;
                    byte += 1;
                }
                state += 1;
            }
            steps += 1;
        }
        table
    }

    /// Replays one word's masked outcomes through a two-bit counter via
    /// `pext` compaction and [`TWO_BIT_FSM`]: the masked outcome bits
    /// pack into a contiguous stream, then each table lookup advances the
    /// counter up to eight executions at once, the `n % 8` tail included —
    /// bit-exact with serial replay, in `n.div_ceil(8)` lookups.
    ///
    /// # Safety
    ///
    /// Requires BMI2 (enforced by the caller's cpuid check); `slot` must
    /// be a two-bit counter (`max_value() == 3`).
    #[target_feature(enable = "bmi2")]
    pub(super) unsafe fn tally_word_two_bit(
        slot: &mut SaturatingCounter,
        m: u64,
        t: u64,
        correct: &mut u64,
    ) {
        let mut packed = _pext_u64(t, m);
        let mut n = m.count_ones();
        let mut state = slot.value();
        while n > 0 {
            let steps = n.min(8);
            let byte = (packed & 0xff) as usize;
            let entry = TWO_BIT_FSM[(steps & 7) as usize][usize::from(state)][byte];
            *correct += u64::from(entry & 0x0f);
            state = entry >> 4;
            packed >>= 8;
            n -= steps;
        }
        *slot = SaturatingCounter::new(2, state);
    }

    /// One column's ternary-outcome masks for a full-valid 4-word block:
    /// `[taken, not-taken, not-in-path]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn ternary_blocks(ip: __m256i, dir: __m256i) -> [__m256i; 3] {
        let ones = _mm256_set1_epi8(-1);
        [
            _mm256_and_si256(ip, dir),
            _mm256_andnot_si256(dir, ip),
            _mm256_andnot_si256(ip, ones),
        ]
    }

    /// Selective-history scorer over packed planes, 4 words per step.
    ///
    /// Blocks of four words whose executions are all valid go through
    /// [`tally_block`]; the remaining at-most-four trailing words (full
    /// remainder plus the partial tail word, or the whole plane when it
    /// holds no full block) replay through [`tally_word_fsm`] with the
    /// same counters, so state carries over exactly.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (enforced by the caller's cpuid check).
    #[target_feature(enable = "avx2")]
    pub unsafe fn score_tag_set(bm: &BranchMatrix, cols: &[usize], init: SaturatingCounter) -> u64 {
        let words = bm.words();
        let taken = bm.taken_plane();
        let tail = tail_mask(bm.executions());
        let valid_at = |w: usize| if w + 1 == words { tail } else { !0 };
        // Only whole words of valid executions can skip the valid mask.
        let n_full = bm.executions() / 64;
        let vec_end = n_full - n_full % 4;
        let ones = _mm256_set1_epi8(-1);
        // Packed FSM replay applies to two-bit counters on BMI2 hosts;
        // the counter's width never changes during scoring.
        let fsm = init.max_value() == 3 && bmi2_available();
        let mut correct = 0u64;
        match *cols {
            [] => {
                let mut counter = init;
                let mut w = 0;
                while w < vec_end {
                    tally_block(&mut counter, ones, load4(taken, w), fsm, &mut correct);
                    w += 4;
                }
                for (w, &t) in taken.iter().enumerate().take(words).skip(vec_end) {
                    tally_word_fsm(&mut counter, valid_at(w), t, fsm, &mut correct);
                }
            }
            [a] => {
                let (ipa, da) = (bm.inpath_plane(a), bm.dir_plane(a));
                let mut counters = [init; 3];
                let mut w = 0;
                while w < vec_end {
                    let t = load4(taken, w);
                    let ma = ternary_blocks(load4(ipa, w), load4(da, w));
                    for (slot, &m) in counters.iter_mut().zip(&ma) {
                        tally_block(slot, m, t, fsm, &mut correct);
                    }
                    w += 4;
                }
                for w in vec_end..words {
                    let t = taken[w];
                    let ma = ternary_masks(ipa[w], da[w], valid_at(w));
                    for (slot, &m) in counters.iter_mut().zip(&ma) {
                        tally_word_fsm(slot, m, t, fsm, &mut correct);
                    }
                }
            }
            [a, b] => {
                let (ipa, da) = (bm.inpath_plane(a), bm.dir_plane(a));
                let (ipb, db) = (bm.inpath_plane(b), bm.dir_plane(b));
                let mut counters = [init; 9];
                let mut w = 0;
                while w < vec_end {
                    let t = load4(taken, w);
                    let ma = ternary_blocks(load4(ipa, w), load4(da, w));
                    let mb = ternary_blocks(load4(ipb, w), load4(db, w));
                    for (i, &ma) in ma.iter().enumerate() {
                        if _mm256_testz_si256(ma, ma) != 0 {
                            continue;
                        }
                        for (j, &mb) in mb.iter().enumerate() {
                            tally_block(
                                &mut counters[i * 3 + j],
                                _mm256_and_si256(ma, mb),
                                t,
                                fsm,
                                &mut correct,
                            );
                        }
                    }
                    w += 4;
                }
                for w in vec_end..words {
                    let t = taken[w];
                    let valid = valid_at(w);
                    let ma = ternary_masks(ipa[w], da[w], valid);
                    let mb = ternary_masks(ipb[w], db[w], valid);
                    for (i, &ma) in ma.iter().enumerate() {
                        if ma == 0 {
                            continue;
                        }
                        for (j, &mb) in mb.iter().enumerate() {
                            let slot = &mut counters[i * 3 + j];
                            tally_word_fsm(slot, ma & mb, t, fsm, &mut correct);
                        }
                    }
                }
            }
            [a, b, c] => {
                let (ipa, da) = (bm.inpath_plane(a), bm.dir_plane(a));
                let (ipb, db) = (bm.inpath_plane(b), bm.dir_plane(b));
                let (ipc, dc) = (bm.inpath_plane(c), bm.dir_plane(c));
                let mut counters = [init; MAX_PATTERNS];
                let mut w = 0;
                while w < vec_end {
                    let t = load4(taken, w);
                    let ma = ternary_blocks(load4(ipa, w), load4(da, w));
                    let mb = ternary_blocks(load4(ipb, w), load4(db, w));
                    let mc = ternary_blocks(load4(ipc, w), load4(dc, w));
                    for (i, &ma) in ma.iter().enumerate() {
                        if _mm256_testz_si256(ma, ma) != 0 {
                            continue;
                        }
                        for (j, &mb) in mb.iter().enumerate() {
                            let mab = _mm256_and_si256(ma, mb);
                            if _mm256_testz_si256(mab, mab) != 0 {
                                continue;
                            }
                            for (k, &mc) in mc.iter().enumerate() {
                                tally_block(
                                    &mut counters[(i * 3 + j) * 3 + k],
                                    _mm256_and_si256(mab, mc),
                                    t,
                                    fsm,
                                    &mut correct,
                                );
                            }
                        }
                    }
                    w += 4;
                }
                for w in vec_end..words {
                    let t = taken[w];
                    let valid = valid_at(w);
                    let ma = ternary_masks(ipa[w], da[w], valid);
                    let mb = ternary_masks(ipb[w], db[w], valid);
                    let mc = ternary_masks(ipc[w], dc[w], valid);
                    for (i, &ma) in ma.iter().enumerate() {
                        if ma == 0 {
                            continue;
                        }
                        for (j, &mb) in mb.iter().enumerate() {
                            let mab = ma & mb;
                            if mab == 0 {
                                continue;
                            }
                            for (k, &mc) in mc.iter().enumerate() {
                                let slot = &mut counters[(i * 3 + j) * 3 + k];
                                tally_word_fsm(slot, mab & mc, t, fsm, &mut correct);
                            }
                        }
                    }
                }
            }
            _ => unreachable!(
                "selective histories use at most {} tags",
                crate::oracle::MAX_SELECTIVE_TAGS
            ),
        }
        correct
    }

    /// Row-to-column bit transpose: `vpmovmskb` gathers bit 7 of every
    /// row byte, one 32-byte half at a time, into column 7's word; adding
    /// every byte to itself moves the next bit up, eight rounds in all.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (enforced by the caller's cpuid check).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn transpose_rows(rows: &[u8; 64]) -> [u64; 8] {
        let mut lo = _mm256_loadu_si256(rows.as_ptr().cast());
        let mut hi = _mm256_loadu_si256(rows.as_ptr().add(32).cast());
        let mut words = [0u64; 8];
        for word in words.iter_mut().rev() {
            let low = u64::from(_mm256_movemask_epi8(lo) as u32);
            *word = low | u64::from(_mm256_movemask_epi8(hi) as u32) << 32;
            lo = _mm256_add_epi8(lo, lo);
            hi = _mm256_add_epi8(hi, hi);
        }
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{kth_ago_correct, kth_ago_correct_scalar};
    use crate::oracle::score_tag_set_scalar;
    use crate::{score_tag_set, OutcomeMatrix, TagCandidates};
    use bp_trace::{BranchRecord, OutcomeStream, Trace};

    fn pseudo_stream(n: usize, seed: u64) -> OutcomeStream {
        let mut s = OutcomeStream::default();
        let mut x = seed | 1;
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s.push((x >> 60) & 3 != 0);
        }
        s
    }

    #[test]
    fn kth_ago_avx2_matches_scalar_everywhere() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        for n in [512usize, 577, 64 * 12, 64 * 12 + 1, 2048] {
            for seed in [3u64, 99] {
                let s = pseudo_stream(n, seed);
                for k in (1..=64).chain([65, 100, 127, 128, 129, 200, n - 1, n, n + 5]) {
                    let capped = k.clamp(1, n - 1);
                    assert_eq!(
                        kth_ago_body_avx2(s.words(), n, capped),
                        crate::classify::kth_ago_body_scalar(s.words(), n, capped),
                        "n={n} k={k}"
                    );
                    assert_eq!(kth_ago_correct(&s, k), kth_ago_correct_scalar(&s, k));
                }
            }
        }
    }

    /// Every masked count 1..=64 from every start state: the table step
    /// replays `n / 8` full bytes and one `n % 8` tail (every tail length
    /// 0–7) exactly as the bit-serial [`tally_word`] does.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn table_step_matches_bit_serial_replay() {
        if !std::arch::is_x86_feature_detected!("bmi2") {
            eprintln!("skipping: no BMI2 on this host");
            return;
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        for count in 1..=64u32 {
            // The `count` lowest bits, then masks of `count` bits spread
            // over the word by rejection.
            let mut masks = vec![u64::MAX >> (64 - count)];
            while masks.len() < 4 {
                let mut m = 0u64;
                while m.count_ones() < count {
                    m |= 1 << (next() >> 58);
                }
                masks.push(m);
            }
            for m in masks {
                for t in [next(), next(), !0, 0, 0x5555_5555_5555_5555] {
                    for state in 0..=3u8 {
                        let (mut want, mut got) = (0u64, 0u64);
                        let mut serial = SaturatingCounter::new(2, state);
                        tally_word(&mut serial, m, t, &mut want);
                        let mut table = SaturatingCounter::new(2, state);
                        // SAFETY: BMI2 was checked above; the counter is
                        // two-bit.
                        unsafe { x86::tally_word_two_bit(&mut table, m, t, &mut got) };
                        let at = format!("count {count} mask {m:#x} outcomes {t:#x} state {state}");
                        assert_eq!(got, want, "corrects at {at}");
                        assert_eq!(table.value(), serial.value(), "end state at {at}");
                    }
                }
            }
        }
    }

    /// Bit `j` of `rows[e]` as bit `e` of word `j`, one bit at a time.
    fn transpose_bitwise(rows: &[u8; 64]) -> [u64; 8] {
        let mut words = [0u64; 8];
        for (e, &row) in rows.iter().enumerate() {
            for (j, word) in words.iter_mut().enumerate() {
                *word |= u64::from(row >> j & 1) << e;
            }
        }
        words
    }

    /// Both transposes and the dispatch against the bit-by-bit reference:
    /// every single set bit, no bits, all bits, and seeded random rows,
    /// dense and sparse.
    #[test]
    fn transposes_match_the_bitwise_reference() {
        let mut cases = vec![[0u8; 64], [0xFF; 64]];
        for e in 0..64 {
            for j in 0..8 {
                let mut rows = [0u8; 64];
                rows[e] = 1 << j;
                cases.push(rows);
            }
        }
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for case in 0..256 {
            cases.push(std::array::from_fn(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let byte = (x >> 56) as u8;
                if case % 2 == 0 || x >> 40 & 7 == 0 {
                    byte
                } else {
                    0
                }
            }));
        }
        for rows in &cases {
            let want = transpose_bitwise(rows);
            assert_eq!(transpose_rows_scalar(rows), want, "scalar on {rows:?}");
            assert_eq!(transpose_rows(rows), want, "dispatch on {rows:?}");
            if avx2_available() {
                assert_eq!(transpose_rows_avx2(rows), want, "AVX2 on {rows:?}");
            }
        }
    }

    /// A trace in which four branches each execute `n` times: `a` and `b`
    /// random, `a && b` correlated with both, and a loop-like branch in
    /// runs of 300 whose 4-word blocks are uniform.
    fn correlated_trace(n: usize, seed: u64) -> Trace {
        let mut recs = Vec::new();
        let mut x = seed;
        for i in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (x >> 61) & 1 == 1;
            let b = (x >> 62) & 1 == 1;
            recs.push(BranchRecord::conditional(0x100, a));
            recs.push(BranchRecord::conditional(0x200, b));
            recs.push(BranchRecord::conditional(0x300, a && b));
            recs.push(BranchRecord::conditional(0x400, (i / 300) % 2 == 0));
        }
        Trace::from_records(recs)
    }

    /// The AVX2 scorer and its dispatch against the portable scorer on
    /// planes of 1..=12 words with executions ≡ 0, 1, 7 and 63 (mod 64):
    /// planes with no vector block, one block plus a remainder, and two
    /// or more blocks, across counter widths and start values.
    #[test]
    fn score_tag_set_avx2_matches_scalar() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        let inits = [
            SaturatingCounter::two_bit(),
            SaturatingCounter::new(2, 0),
            SaturatingCounter::new(2, 3),
            SaturatingCounter::new(1, 1),
            SaturatingCounter::new(3, 5),
        ];
        for words in 1..=12usize {
            for rem in [0usize, 1, 7, 63] {
                let n = if rem == 0 {
                    64 * words
                } else {
                    64 * (words - 1) + rem
                };
                let trace = correlated_trace(n, 7 + words as u64);
                let cands = TagCandidates::collect(&trace, 8, 12);
                let m = OutcomeMatrix::build(&trace, &cands, 8);
                for (pc, bm) in m.iter() {
                    assert_eq!(bm.words(), words, "branch {pc:#x} at n={n}");
                    let ncols = bm.tags().len();
                    let mut sets: Vec<Vec<usize>> = vec![vec![]];
                    sets.extend((0..ncols).map(|c| vec![c]));
                    if ncols >= 2 {
                        sets.push(vec![0, 1]);
                        sets.push(vec![0, ncols - 1]);
                    }
                    if ncols >= 3 {
                        sets.push(vec![0, 1, 2]);
                        sets.push(vec![0, ncols / 2, ncols - 1]);
                    }
                    for cols in &sets {
                        for init in inits {
                            let want = score_tag_set_scalar(bm, cols, init);
                            let at = format!(
                                "branch {pc:#x} n={n} cols {cols:?} counter {}/{}",
                                init.value(),
                                init.max_value()
                            );
                            assert_eq!(score_tag_set_avx2(bm, cols, init), want, "{at}");
                            assert_eq!(score_tag_set(bm, cols, init), want, "{at}");
                        }
                    }
                }
            }
        }
    }
}
