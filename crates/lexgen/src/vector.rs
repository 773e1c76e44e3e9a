//! Vectorized run-skipping scan path — the post-PR-4 lexing hot tier.
//!
//! The compiled byte-class tables ([`crate::compiled`]) pay one dependent
//! table load per input byte. Most bytes of real SQL, though, are spent
//! *inside* a run the DFA crosses without changing state: whitespace,
//! identifier tails, digit strings, string-literal and comment interiors.
//! This module exploits that:
//!
//! * **Per-state run masks.** For every DFA state we precompute the set of
//!   ASCII bytes `b` with `step(state, b) == state` (the state's self-loop
//!   set). While the next bytes stay inside that set the walk cannot move,
//!   accept metadata cannot change, and the scanner may skip forward
//!   wholesale — maximal munch is preserved exactly because the state (and
//!   therefore the packed accept metadata) is unchanged across the run.
//! * **Chunked classification.** Runs are measured 8 bytes at a time with
//!   a portable SWAR loop (membership verdicts aggregated into one `u64`,
//!   `trailing_zeros` finds the first mismatch), or 16 bytes at a time
//!   with a two-nibble shuffle (`pshufb` on SSSE3, `vqtbl1q_u8` on NEON)
//!   behind runtime detection. Bytes ≥ 0x80 are never members, so
//!   multi-byte scalars stop every run and route through the interval-DFA
//!   fallback, exactly like the per-byte path.
//! * **Keyword perfect-hash.** Keywords fragment the identifier states of
//!   the full DFA (the state after `se` of `SELECT` is not the generic
//!   identifier state), which destroys run-skipping for identifiers. So a
//!   second, *keyword-free* automaton is compiled from the same rule list
//!   with the keyword rules removed, and keyword recognition moves to a
//!   per-dialect hash table generated at build time from the composed
//!   token set (no hardcoded SQL): tokens whose winning rule is a keyword
//!   "home" rule (usually `IDENT`) are post-classified with one
//!   case-insensitive hash probe per token.
//!
//! The keyword-free rewrite is only used when a build-time **soundness
//! gate** proves it tokenizes byte-identically to the full automaton (see
//! [`VectorTables::build`]); any keyword failing the gate drops the whole
//! dialect to run-skipping over the full compiled DFA, which is always
//! exact. Equivalence is additionally proven empirically by the
//! four-substrate differential suite in `tests/lex_differential.rs`.

use crate::compiled::{self, BitSet, CompiledDfa};
use crate::dfa::Dfa;
use crate::minimize::minimize;
use crate::nfa::Nfa;
use crate::scanner::{Token, TokenKind};
use crate::tokenset::{RuleKind, TokenRule};

/// Which chunked classifier [`skip_run`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable 8-byte SWAR loop (always available).
    Swar,
    /// 16-byte `pshufb` two-nibble shuffle (x86-64, runtime-detected).
    Ssse3,
    /// 16-byte `vqtbl1q_u8` two-nibble shuffle (aarch64 baseline).
    Neon,
}

impl SimdLevel {
    /// Pick the widest classifier available on this machine. The `no-simd`
    /// cargo feature pins the answer to [`SimdLevel::Swar`] so the portable
    /// fallback is provably always available.
    pub fn detect() -> SimdLevel {
        #[cfg(all(target_arch = "x86_64", not(feature = "no-simd")))]
        {
            if std::arch::is_x86_feature_detected!("ssse3") {
                return SimdLevel::Ssse3;
            }
        }
        #[cfg(all(target_arch = "aarch64", not(feature = "no-simd")))]
        {
            return SimdLevel::Neon;
        }
        #[allow(unreachable_code)]
        SimdLevel::Swar
    }

    /// Stable name for bench output and ablation labels.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Swar => "swar",
            SimdLevel::Ssse3 => "ssse3",
            SimdLevel::Neon => "neon",
        }
    }

    /// `true` if this level can run on the current machine.
    pub fn available(self) -> bool {
        match self {
            SimdLevel::Swar => true,
            SimdLevel::Ssse3 => {
                #[cfg(all(target_arch = "x86_64", not(feature = "no-simd")))]
                {
                    std::arch::is_x86_feature_detected!("ssse3")
                }
                #[cfg(not(all(target_arch = "x86_64", not(feature = "no-simd"))))]
                {
                    false
                }
            }
            SimdLevel::Neon => cfg!(all(target_arch = "aarch64", not(feature = "no-simd"))),
        }
    }
}

/// The self-loop byte set of one DFA state, in the three layouts the
/// classifiers want: a 128-bit ASCII membership bitmap for the scalar and
/// SWAR paths, plus the two 16-entry nibble tables the shuffle paths use
/// (`member(b) = lo[b & 0xF] & hi[b >> 4] != 0`; rows 8–15 of `hi` are
/// zero, so bytes ≥ 0x80 are never members and always stop a run).
#[derive(Debug, Clone)]
pub(crate) struct RunMask {
    bits: [u64; 2],
    lo: [u8; 16],
    hi: [u8; 16],
    /// Worth attempting a chunked skip (self-loop set is non-trivial).
    active: bool,
}

impl RunMask {
    fn from_bits(bits: [u64; 2]) -> RunMask {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for b in 0u8..0x80 {
            if bits[(b >> 6) as usize] >> (b & 63) & 1 != 0 {
                let h = b >> 4; // 0..8
                lo[(b & 0x0F) as usize] |= 1 << h;
                hi[h as usize] |= 1 << h;
            }
        }
        let active = (bits[0].count_ones() + bits[1].count_ones()) >= 2;
        RunMask { bits, lo, hi, active }
    }

    #[inline]
    fn member(&self, b: u8) -> bool {
        b < 0x80 && self.bits[(b >> 6) as usize] >> (b & 63) & 1 != 0
    }
}

/// Tags in the high word of a [`RunSet::dispatch`] entry.
const D_GENERAL: u64 = 0 << 32;
const D_SINGLE: u64 = 2 << 32;
const D_DEAD: u64 = 3 << 32;
/// Whole token is provably the maximal self-loop run from its first byte
/// (keywords, plain identifiers, whitespace): payload packs the run mask id
/// in bits 16..32 and either the accept meta (flagless, small tag) or
/// [`RUN_SKIP`] in bits 0..16, so the token is finished without entering
/// the DFA walk at all. Skip runs and emitting runs share one tag — and so
/// one branch target — because mixed input alternates between them on
/// nearly every token.
const D_RUN: u64 = 4 << 32;
const D_TAG: u64 = 7 << 32;

/// Low-half payload bit marking a [`D_RUN`] entry as a pure-skip run
/// (nothing is emitted; the resolve probe is bypassed). Emitting `D_RUN`
/// entries require `meta < RUN_SKIP`, so the bit is unambiguous.
const RUN_SKIP: u32 = 0x8000;

/// Per-state run-skip dispatch: a compact `u16` id per state (0 = the
/// state has no worthwhile self-loop set) into a *deduplicated* mask
/// table. Distinct self-loop sets are few (identifier-continue, digits,
/// whitespace, string/comment interiors), so the masks stay cache-hot and
/// the per-state inner-loop cost is one 2-byte load.
///
/// `dispatch` fuses the whole token-start decision into one 8-byte load
/// per ASCII first byte (tag in the high word, payload in the low word):
///
/// * [`D_RUN`] — the entire token is provably `b` plus the state's
///   self-loop run: the state `b` enters accepts and has no continuation
///   except its own self-loop (every other ASCII byte rejects, no
///   non-ASCII transition exists). Skip-flagged states emit nothing
///   ([`RUN_SKIP`]); others emit one token over the run's span. Either
///   way the maximal-munch bookkeeping is bypassed entirely.
/// * [`D_SINGLE`] — the state `b` enters accepts and has *no* continuation
///   at all, so the token is provably exactly `[b]`; the payload is the
///   packed accept meta.
/// * [`D_GENERAL`] — payload is `step(0, b)`: the full walk, seeded with
///   the first transition already taken.
/// * [`D_DEAD`] — no token starts with `b`: a lex error.
#[derive(Debug, Clone)]
pub(crate) struct RunSet {
    mask_id: Vec<u16>,
    masks: Vec<RunMask>,
    dispatch: [u64; 128],
}

impl RunSet {
    /// Compute self-loop masks for every state of `compiled`, plus the
    /// token-start dispatch table (which needs `dfa` to rule out non-ASCII
    /// continuations).
    fn build(dfa: &Dfa, compiled: &CompiledDfa) -> RunSet {
        // masks[0] is an unused placeholder so id 0 can mean "inactive".
        let mut masks = vec![RunMask::from_bits([0, 0])];
        let mut mask_id = Vec::with_capacity(compiled.states());
        for state in 0..compiled.states() as u32 {
            let mut bits = [0u64; 2];
            for b in 0u8..0x80 {
                if compiled.step_ascii(state, b) == state {
                    bits[(b >> 6) as usize] |= 1 << (b & 63);
                }
            }
            let mask = RunMask::from_bits(bits);
            if !mask.active {
                mask_id.push(0);
                continue;
            }
            let id = masks
                .iter()
                .position(|m| m.bits == mask.bits)
                .unwrap_or_else(|| {
                    masks.push(mask);
                    masks.len() - 1
                });
            mask_id.push(id as u16);
        }

        let mut dispatch = [D_DEAD; 128];
        for b in 0u8..0x80 {
            let s1 = compiled.step_ascii(0, b);
            if s1 == compiled::DEAD {
                continue; // stays D_DEAD
            }
            let meta = compiled.accept_meta(s1);
            // Every ASCII continuation self-loops or rejects…
            let ascii_closed = (0u8..0x80).all(|c| {
                let n = compiled.step_ascii(s1, c);
                n == s1 || n == compiled::DEAD
            });
            // …or rejects outright (no self-loop either).
            let ascii_dead =
                (0u8..0x80).all(|c| compiled.step_ascii(s1, c) == compiled::DEAD);
            // No alphabet interval reaching beyond ASCII may have a
            // transition out of the state (conservative: an interval
            // straddling 0x80 also disqualifies).
            let unicode_closed = dfa
                .intervals
                .iter()
                .enumerate()
                .all(|(ii, &(_, hi))| {
                    (hi as u32) < 0x80 || dfa.states[s1 as usize].trans[ii].is_none()
                });
            dispatch[b as usize] = if meta != compiled::NO_ACCEPT
                && meta & compiled::SKIP_FLAG != 0
                && ascii_closed
                && unicode_closed
            {
                // Pure-skip run; the mask id may be 0 (no chunked mask),
                // in which case the run degrades to byte-at-a-time
                // re-dispatch with identical output.
                D_RUN | u64::from(mask_id[s1 as usize]) << 16 | u64::from(RUN_SKIP)
            } else if meta != compiled::NO_ACCEPT && ascii_dead && unicode_closed {
                D_SINGLE | u64::from(meta)
            } else if meta != compiled::NO_ACCEPT
                && meta < RUN_SKIP // flagless, tag fits the packed payload
                && ascii_closed
                && unicode_closed
                && mask_id[s1 as usize] != 0
            {
                // Accepting state whose only continuations are its own
                // self-loop: the maximal munch from `b` is exactly the
                // run, with this state's meta. (An empty self-loop set
                // with these properties is D_SINGLE above; a one-byte set
                // has no chunked mask and stays D_GENERAL.)
                D_RUN | u64::from(mask_id[s1 as usize]) << 16 | u64::from(meta)
            } else {
                D_GENERAL | u64::from(s1)
            };
        }
        RunSet { mask_id, masks, dispatch }
    }
}

#[cfg(test)]
thread_local! {
    /// Bytes [`skip_run`] consumed on this thread, in test builds only: the
    /// exact work count the scanner gate pins (no other build has it).
    static RUN_SKIP_BYTES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Length of the member-run at `bytes[start..]`, measured with the chunked
/// classifier selected by `level`.
#[inline]
pub(crate) fn skip_run(bytes: &[u8], start: usize, m: &RunMask, level: SimdLevel) -> usize {
    let n = match level {
        #[cfg(all(target_arch = "x86_64", not(feature = "no-simd")))]
        // SAFETY: `Ssse3` is only ever selected by `SimdLevel::detect` (or
        // accepted by `Scanner::scan_with_simd`) after runtime detection.
        SimdLevel::Ssse3 => unsafe { skip_ssse3(bytes, start, m) },
        #[cfg(all(target_arch = "aarch64", not(feature = "no-simd")))]
        SimdLevel::Neon => skip_neon(bytes, start, m),
        _ => skip_swar(bytes, start, m),
    };
    #[cfg(test)]
    RUN_SKIP_BYTES.with(|c| c.set(c.get() + n));
    n
}

/// Portable chunked skipper: load 8 bytes, fold the eight membership
/// verdicts into one word, and let `trailing_zeros` locate the first
/// mismatch. The inner loop is branchless and unrolled by the compiler.
#[inline]
fn skip_swar(bytes: &[u8], start: usize, m: &RunMask) -> usize {
    let mut i = start;
    while i + 8 <= bytes.len() {
        let chunk = u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8-byte window"));
        let mut miss = 0u64;
        let mut k = 0;
        while k < 8 {
            let b = (chunk >> (k * 8)) as u8;
            miss |= u64::from(!m.member(b)) << (k * 8);
            k += 1;
        }
        if miss != 0 {
            return i + (miss.trailing_zeros() as usize >> 3) - start;
        }
        i += 8;
    }
    while i < bytes.len() && m.member(bytes[i]) {
        i += 1;
    }
    i - start
}

/// 16-byte two-nibble shuffle classifier. `pshufb` with the raw chunk
/// would already zero lanes whose high bit is set; we mask to the low
/// nibble anyway and rely on the zeroed rows 8–15 of the `hi` table, which
/// keeps the same encoding as the NEON variant.
#[cfg(all(target_arch = "x86_64", not(feature = "no-simd")))]
#[target_feature(enable = "ssse3")]
#[inline]
unsafe fn skip_ssse3(bytes: &[u8], start: usize, m: &RunMask) -> usize {
    use std::arch::x86_64::*;
    let lo_tab = _mm_loadu_si128(m.lo.as_ptr() as *const __m128i);
    let hi_tab = _mm_loadu_si128(m.hi.as_ptr() as *const __m128i);
    let nibble = _mm_set1_epi8(0x0F);
    let zero = _mm_setzero_si128();
    let mut i = start;
    while i + 16 <= bytes.len() {
        let chunk = _mm_loadu_si128(bytes.as_ptr().add(i) as *const __m128i);
        let lo = _mm_shuffle_epi8(lo_tab, _mm_and_si128(chunk, nibble));
        let hi = _mm_shuffle_epi8(hi_tab, _mm_and_si128(_mm_srli_epi16(chunk, 4), nibble));
        let member = _mm_and_si128(lo, hi);
        let miss = _mm_movemask_epi8(_mm_cmpeq_epi8(member, zero)) as u32;
        if miss != 0 {
            return i + miss.trailing_zeros() as usize - start;
        }
        i += 16;
    }
    i - start + skip_swar(bytes, i, m)
}

/// 16-byte two-nibble shuffle on NEON; the mismatch mask is narrowed with
/// the `shrn` trick (4 bits per lane) before `trailing_zeros`.
#[cfg(all(target_arch = "aarch64", not(feature = "no-simd")))]
fn skip_neon(bytes: &[u8], start: usize, m: &RunMask) -> usize {
    use std::arch::aarch64::*;
    // SAFETY: NEON is baseline on aarch64; all loads are in bounds.
    unsafe {
        let lo_tab = vld1q_u8(m.lo.as_ptr());
        let hi_tab = vld1q_u8(m.hi.as_ptr());
        let nibble = vdupq_n_u8(0x0F);
        let mut i = start;
        while i + 16 <= bytes.len() {
            let chunk = vld1q_u8(bytes.as_ptr().add(i));
            let lo = vqtbl1q_u8(lo_tab, vandq_u8(chunk, nibble));
            let hi = vqtbl1q_u8(hi_tab, vshrq_n_u8(chunk, 4));
            let member = vandq_u8(lo, hi);
            let missed = vceqq_u8(member, vdupq_n_u8(0));
            let narrowed = vshrn_n_u16(vreinterpretq_u16_u8(missed), 4);
            let bits = vget_lane_u64(vreinterpret_u64_u8(narrowed), 0);
            if bits != 0 {
                return i + (bits.trailing_zeros() >> 2) as usize - start;
            }
            i += 16;
        }
        i - start + skip_swar(bytes, i, m)
    }
}

/// Case-folded 16-byte fingerprint of a lexeme: two 8-byte windows (front
/// and back, overlapping for lengths 8–16, zero-padded below 8) OR'd with
/// `0x20` so every ASCII letter folds to lowercase. For two same-length
/// strings of 16 bytes or fewer, equal fingerprints hold **iff** the
/// strings are equal under the `|0x20` fold.
#[inline]
fn fold_words(bytes: &[u8]) -> (u64, u64) {
    const FOLD: u64 = 0x2020_2020_2020_2020;
    let (a, b) = if bytes.len() >= 8 {
        let a = u64::from_le_bytes(bytes[..8].try_into().expect("8-byte window"));
        let b = u64::from_le_bytes(
            bytes[bytes.len() - 8..].try_into().expect("8-byte window"),
        );
        (a, b)
    } else {
        let mut buf = [0u8; 8];
        buf[..bytes.len()].copy_from_slice(bytes);
        (u64::from_le_bytes(buf), 0)
    };
    (a | FOLD, b | FOLD)
}

/// [`fold_words`] of `bytes[pos..end]`, using one masked unaligned load for
/// short lexemes whenever 8 bytes are readable — the hot scan path calls
/// this once per home-tagged token, and a variable-length `memcpy` there
/// costs more than the hash itself.
#[inline]
fn fold_words_at(bytes: &[u8], pos: usize, end: usize) -> (u64, u64) {
    const FOLD: u64 = 0x2020_2020_2020_2020;
    let len = end - pos;
    if len < 8 && pos + 8 <= bytes.len() {
        let w = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8-byte window"));
        // `len` is 1..=7 here, so the shift is in range and the mask
        // reproduces the zero padding of the copying path exactly.
        (w & (u64::MAX >> (64 - 8 * len)) | FOLD, FOLD)
    } else {
        fold_words(&bytes[pos..end])
    }
}

/// Combine a [`fold_words`] fingerprint into the perfect-hash probe key.
/// Deliberately *weak* — one rotate and one xor — because it sits on the
/// latency-critical path of every home-tagged token; all the real mixing
/// happens in the bucket's multiplicative stage (`key * mult >> shift`),
/// and the build-time seed search simply rejects multipliers that collide.
/// The `|0x20` fold aliases a few punctuation bytes (`_` with DEL, etc.)
/// beyond the letter case pairs, which can only raise the collision rate —
/// every slot hit is verified, and buckets are per-length, so correctness
/// never depends on the key (pathological collisions land in a
/// linear fallback).
#[inline]
fn fold_mix(a: u64, b: u64) -> u64 {
    a.rotate_left(32) ^ b
}

#[inline]
fn fold_hash(bytes: &[u8]) -> u64 {
    let (a, b) = fold_words(bytes);
    fold_mix(a, b)
}

/// Deterministic multiplier sequence for the perfect-hash seed search.
fn seed_mult(attempt: u64) -> u64 {
    // splitmix64 finalizer; forced odd so the multiplication permutes.
    let mut z = attempt.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1
}

/// One keyword of the composed token set: uppercase spelling plus the
/// rule's index in the full prioritized order.
#[derive(Debug, Clone)]
struct Keyword {
    upper: Box<[u8]>,
    full_idx: u32,
    /// Precomputed [`fold_words`] fingerprint, present when comparing
    /// fingerprints is *exact* for this keyword: all bytes are ASCII
    /// letters (whose only `|0x20` alias is their own case pair) and the
    /// spelling fits the 16-byte window. `None` falls back to a real
    /// case-insensitive byte compare.
    folded: Option<(u64, u64)>,
}

impl Keyword {
    fn new(upper: Box<[u8]>, full_idx: u32) -> Keyword {
        let folded = (upper.len() <= 16 && upper.iter().all(u8::is_ascii_alphabetic))
            .then(|| fold_words(&upper));
        Keyword { upper, full_idx, folded }
    }

    /// Case-insensitive equality against a same-length lexeme.
    #[inline]
    fn matches(&self, lexeme: &[u8], folded_lexeme: (u64, u64)) -> bool {
        match self.folded {
            Some(f) => f == folded_lexeme,
            None => self.upper.eq_ignore_ascii_case(lexeme),
        }
    }
}

/// One perfect-hash table entry with the keyword's folded fingerprint
/// inlined, so the hot probe is a single slot load plus two word compares —
/// no pointer chase back into the keyword list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Front fingerprint word. `0` marks "no inline fingerprint" (empty
    /// slot, or a keyword that needs a real byte compare): [`fold_words`]
    /// sets the `0x20` bit in every byte, so no lexeme ever folds to zero.
    a: u64,
    /// Back fingerprint word.
    b: u64,
    /// Full-order rule index for fingerprint slots; keyword-list index for
    /// byte-compare slots (`a == 0`); [`NO_KEYWORD`] for empty slots.
    id: u32,
}

const EMPTY_SLOT: Slot = Slot { a: 0, b: 0, id: NO_KEYWORD };

/// Per-length probe parameters into the shared [`KeywordHash::slots`]
/// backing. One flat 16-byte load replaces the old per-length bucket enum
/// (discriminant + boxed-slice deref) on the probe's critical path.
#[derive(Debug, Clone, Copy)]
struct BucketParam {
    /// Perfect-hash multiplier; `0` means "no perfect bucket for this
    /// length" (no keywords at all, or the cold linear fallback).
    mult: u64,
    /// Right shift selecting the slot index (64 − log₂ size).
    shift: u32,
    /// Slot-range start in [`KeywordHash::slots`]; for the linear fallback
    /// (`mult == 0`), start of the id range in [`KeywordHash::linear_ids`],
    /// with the range length stored in `shift`. [`NO_KEYWORD`] when empty.
    base: u32,
}

const EMPTY_PARAM: BucketParam = BucketParam { mult: 0, shift: 0, base: NO_KEYWORD };

const NO_KEYWORD: u32 = u32::MAX;

/// Generated per-dialect keyword recognizer: length-bucketed perfect hash
/// over the composed keyword set, probed once per home-tagged token.
#[derive(Debug, Clone)]
pub(crate) struct KeywordHash {
    kws: Vec<Keyword>,
    /// Indexed by lexeme length; lengths past the end cannot be keywords.
    params: Vec<BucketParam>,
    /// Shared slot backing for every length's perfect bucket.
    slots: Vec<Slot>,
    /// Keyword-list ids for lengths whose seed search failed (cold path).
    linear_ids: Vec<u32>,
}

impl KeywordHash {
    fn build(kws: Vec<Keyword>) -> KeywordHash {
        let max_len = kws.iter().map(|k| k.upper.len()).max().unwrap_or(0);
        let mut hash = KeywordHash {
            kws,
            params: vec![EMPTY_PARAM; max_len + 1],
            slots: Vec::new(),
            linear_ids: Vec::new(),
        };
        for len in 1..=max_len {
            let ids: Vec<u32> = hash
                .kws
                .iter()
                .enumerate()
                .filter(|(_, k)| k.upper.len() == len)
                .map(|(i, _)| i as u32)
                .collect();
            if !ids.is_empty() {
                hash.params[len] = hash.build_bucket(&ids);
            }
        }
        hash
    }

    /// Search for a collision-free multiplier over growing power-of-two
    /// table sizes; bounded so scanner construction stays fast even for
    /// adversarial keyword sets. Appends the winning slot table (or the
    /// linear-fallback id range) to the shared backing.
    fn build_bucket(&mut self, ids: &[u32]) -> BucketParam {
        let kws = &self.kws;
        let hashes: Vec<u64> = ids.iter().map(|&i| fold_hash(&kws[i as usize].upper)).collect();
        let mut size = (ids.len() * 2).next_power_of_two().max(4);
        while size <= 4096 {
            let shift = 64 - size.trailing_zeros();
            for attempt in 0..64u64 {
                let mult = seed_mult(attempt);
                let mut slots = vec![EMPTY_SLOT; size];
                let mut ok = true;
                for (&id, &h) in ids.iter().zip(&hashes) {
                    let slot = (h.wrapping_mul(mult) >> shift) as usize;
                    if slots[slot].id != NO_KEYWORD {
                        ok = false;
                        break;
                    }
                    let kw = &kws[id as usize];
                    slots[slot] = match kw.folded {
                        Some((a, b)) => Slot { a, b, id: kw.full_idx },
                        None => Slot { a: 0, b: 0, id },
                    };
                }
                if ok {
                    let base = self.slots.len() as u32;
                    self.slots.extend_from_slice(&slots);
                    return BucketParam { mult, shift, base };
                }
            }
            size *= 2;
        }
        let base = self.linear_ids.len() as u32;
        self.linear_ids.extend_from_slice(ids);
        BucketParam { mult: 0, shift: ids.len() as u32, base }
    }

    /// The full-order rule index of the keyword `lexeme` spells (in any
    /// case), if there is one.
    #[inline]
    pub(crate) fn lookup(&self, lexeme: &[u8]) -> Option<u32> {
        self.lookup_folded(lexeme, fold_words(lexeme))
    }

    /// [`Self::lookup`] of `bytes[pos..end]` with the fingerprint taken via
    /// the positioned fast path.
    #[inline]
    pub(crate) fn lookup_at(&self, bytes: &[u8], pos: usize, end: usize) -> Option<u32> {
        self.lookup_folded(&bytes[pos..end], fold_words_at(bytes, pos, end))
    }

    #[inline]
    fn lookup_folded(&self, lexeme: &[u8], folded: (u64, u64)) -> Option<u32> {
        let p = *self.params.get(lexeme.len())?;
        if p.mult != 0 {
            let idx = (fold_mix(folded.0, folded.1).wrapping_mul(p.mult) >> p.shift) as usize;
            let slot = &self.slots[p.base as usize + idx];
            // Hot probe: one load, two word compares. Same-length
            // fingerprint equality is exact for inlined slots.
            if slot.a == folded.0 && slot.b == folded.1 {
                return Some(slot.id);
            }
            // Cold residue: keyword without an exact fingerprint
            // (non-letter bytes or >16 bytes) needs a byte compare.
            if slot.a == 0 && slot.id != NO_KEYWORD {
                let kw = &self.kws[slot.id as usize];
                if kw.upper.eq_ignore_ascii_case(lexeme) {
                    return Some(kw.full_idx);
                }
            }
            return None;
        }
        if p.base == NO_KEYWORD {
            return None;
        }
        self.lookup_linear(lexeme, folded, p)
    }

    /// Cold path: linear scan of a length bucket the seed search abandoned.
    #[cold]
    fn lookup_linear(&self, lexeme: &[u8], folded: (u64, u64), p: BucketParam) -> Option<u32> {
        self.linear_ids[p.base as usize..(p.base + p.shift) as usize]
            .iter()
            .map(|&id| &self.kws[id as usize])
            .find(|k| k.matches(lexeme, folded))
            .map(|k| k.full_idx)
    }

    /// Number of keywords indexed (bench/introspection metric).
    pub(crate) fn len(&self) -> usize {
        self.kws.len()
    }
}

/// The keyword-free automaton plus the remap/hash metadata that restores
/// full-rule tokenization on emit.
#[derive(Debug, Clone)]
pub(crate) struct HashedTables {
    /// Keyword-free interval DFA (UTF-8 fallback substrate).
    dfa: Dfa,
    /// Its dense byte-class lowering.
    compiled: CompiledDfa,
    /// Per-state self-loop masks of `compiled`.
    run: RunSet,
    /// vec tag → packed full-rule accept meta (`tag | SKIP_FLAG?`).
    remap_meta: Vec<u32>,
    /// vec tag → full-order rule index (for keyword-priority resolution).
    remap_idx: Vec<u32>,
    /// vec tags some keyword lexeme resolves to (probe filter).
    is_home: Vec<bool>,
    hash: KeywordHash,
}

/// The vectorized scan strategy chosen at build time.
#[derive(Debug, Clone)]
pub(crate) enum VectorMode {
    /// Keyword-free automaton + generated keyword hash (gate passed).
    Hashed(Box<HashedTables>),
    /// Run-skipping over the full compiled DFA (no keywords, or the
    /// soundness gate rejected the keyword-free rewrite).
    RunOnly { run: Box<RunSet> },
}

/// Everything the vectorized scan path needs, built once per scanner.
#[derive(Debug, Clone)]
pub(crate) struct VectorTables {
    pub(crate) level: SimdLevel,
    pub(crate) mode: VectorMode,
}

impl VectorTables {
    /// Build the vector tables for a prioritized rule list whose full
    /// automaton is (`dfa`, `compiled`) with skip set `skip`.
    ///
    /// The keyword-free rewrite is enabled only if every keyword passes the
    /// soundness gate:
    ///
    /// 1. the keyword is pure ASCII;
    /// 2. the *full* automaton's longest match on the keyword's lowercase
    ///    spelling is the whole spelling, won by the keyword's own rule
    ///    (i.e. no earlier rule shadows it);
    /// 3. the *keyword-free* automaton's longest match on the same spelling
    ///    is also the whole spelling (the keyword is subsumed by some
    ///    non-keyword "home" rule, usually `IDENT`);
    /// 4. for every letter of the keyword, the upper- and lowercase bytes
    ///    sit in the same byte-equivalence class of **both** automata, so
    ///    every case variant provably follows the lowercase state path.
    ///
    /// Under 1–4, for every input position the keyword-free automaton's
    /// maximal-munch length equals the full automaton's (keyword matches
    /// are always covered by the home rule at at least the same length, and
    /// the keyword-free rule set is a subset of the full one), and the
    /// winning rule differs only when the lexeme *is* a keyword — exactly
    /// the case the emit-time hash probe resolves by full-order priority.
    /// Any gate failure falls back to run-skipping over the full DFA,
    /// which never changes tokenization at all.
    pub(crate) fn build(
        ordered: &[TokenRule],
        dfa: &Dfa,
        compiled: &CompiledDfa,
        skip: &BitSet,
    ) -> VectorTables {
        let level = SimdLevel::detect();
        let fallback = || VectorTables {
            level,
            mode: VectorMode::RunOnly { run: Box::new(RunSet::build(dfa, compiled)) },
        };

        let keywords: Vec<(usize, &TokenRule)> = ordered
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r.kind, RuleKind::Keyword))
            .collect();
        let others: Vec<(usize, &TokenRule)> = ordered
            .iter()
            .enumerate()
            .filter(|(_, r)| !matches!(r.kind, RuleKind::Keyword))
            .collect();
        if keywords.is_empty() || others.is_empty() {
            return fallback();
        }

        // Keyword-free automaton over the remaining rules, same relative
        // priority order, tags renumbered densely.
        let mut nfa = Nfa::new();
        for (vec_tag, (_, rule)) in others.iter().enumerate() {
            match rule.to_regex() {
                Ok(re) => nfa.add_pattern(&re, vec_tag),
                Err(_) => return fallback(), // already rejected upstream
            }
        }
        nfa.finish();
        let vdfa = minimize(&Dfa::from_nfa(&nfa));
        let vskip: BitSet = others.iter().map(|(_, r)| r.is_skip()).collect();
        let vcompiled = CompiledDfa::compile(&vdfa, &vskip);

        let remap_idx: Vec<u32> = others.iter().map(|(fi, _)| *fi as u32).collect();
        let remap_meta: Vec<u32> = others
            .iter()
            .map(|(fi, _)| {
                let flag = if skip.contains(*fi) { compiled::SKIP_FLAG } else { 0 };
                *fi as u32 | flag
            })
            .collect();

        let mut is_home = vec![false; others.len()];
        let mut kws = Vec::with_capacity(keywords.len());
        for (full_idx, rule) in &keywords {
            let spelling = rule.name.as_str();
            if !spelling.is_ascii() || spelling.is_empty() {
                return fallback();
            }
            let lower = spelling.to_ascii_lowercase();
            // Gate 2: the full automaton recognizes the whole spelling as
            // this very keyword rule.
            if dfa.simulate(&lower) != Some((lower.len(), *full_idx)) {
                return fallback();
            }
            // Gate 3: some non-keyword rule subsumes the spelling at full
            // length in the keyword-free automaton.
            let home_tag = match vdfa.simulate(&lower) {
                Some((len, tag)) if len == lower.len() => tag,
                _ => return fallback(),
            };
            // Gate 4: case variants follow the same state path everywhere.
            for b in lower.bytes().filter(u8::is_ascii_lowercase) {
                let up = b.to_ascii_uppercase();
                if compiled.byte_class(b) != compiled.byte_class(up)
                    || vcompiled.byte_class(b) != vcompiled.byte_class(up)
                {
                    return fallback();
                }
            }
            is_home[home_tag] = true;
            kws.push(Keyword::new(
                spelling.to_ascii_uppercase().into_bytes().into_boxed_slice(),
                *full_idx as u32,
            ));
        }

        let mut run = RunSet::build(&vdfa, &vcompiled);
        let hash = KeywordHash::build(kws);
        // Pre-resolve D_SINGLE payloads: a one-byte token's lexeme *is*
        // its dispatch byte, so the emit policy (home check, hash probe,
        // full-order priority) collapses to a build-time constant and the
        // runtime handler can push the packed meta as-is.
        for b in 0u8..0x80 {
            let d = run.dispatch[b as usize];
            if d & D_TAG == D_SINGLE {
                let tag = (d as u32 & compiled::TAG_MASK) as usize;
                let mut full = remap_meta[tag];
                if is_home[tag] {
                    if let Some(kw_idx) = hash.lookup(&[b]) {
                        if kw_idx < remap_idx[tag] {
                            full = kw_idx;
                        }
                    }
                }
                run.dispatch[b as usize] = D_SINGLE | u64::from(full);
            }
        }
        VectorTables {
            level,
            mode: VectorMode::Hashed(Box::new(HashedTables {
                dfa: vdfa,
                compiled: vcompiled,
                run,
                remap_meta,
                remap_idx,
                is_home,
                hash,
            })),
        }
    }

    /// `"keyword-hash"` or `"run-only"` — which strategy the gate chose.
    pub(crate) fn strategy(&self) -> &'static str {
        match self.mode {
            VectorMode::Hashed(_) => "keyword-hash",
            VectorMode::RunOnly { .. } => "run-only",
        }
    }

    /// Number of generated keyword-hash entries (0 in run-only mode).
    pub(crate) fn keywords_hashed(&self) -> usize {
        match &self.mode {
            VectorMode::Hashed(h) => h.hash.len(),
            VectorMode::RunOnly { .. } => 0,
        }
    }

    /// The vectorized maximal-munch loop: scan from byte `start`, append
    /// non-skip tokens, `Err(pos)` at the first stuck position — the same
    /// contract (and provably the same output) as the per-byte cores.
    pub(crate) fn scan_core(
        &self,
        full_dfa: &Dfa,
        full_compiled: &CompiledDfa,
        input: &str,
        start: usize,
        out: &mut Vec<Token>,
        level: SimdLevel,
    ) -> Result<(), usize> {
        match &self.mode {
            VectorMode::Hashed(h) => {
                run_loop(&h.dfa, &h.compiled, &h.run, level, h.as_ref(), input, start, out)
            }
            VectorMode::RunOnly { run } => {
                run_loop(full_dfa, full_compiled, run, level, &Identity, input, start, out)
            }
        }
    }
}

/// Emit-time policy: translate the scanning automaton's packed accept meta
/// for the token `input[pos..end]` into full-rule accept meta.
trait EmitPolicy {
    fn resolve(&self, input: &str, pos: usize, end: usize, meta: u32) -> u32;
}

/// Full-DFA scan: metas are already full-rule metas.
struct Identity;

impl EmitPolicy for Identity {
    #[inline]
    fn resolve(&self, _input: &str, _pos: usize, _end: usize, meta: u32) -> u32 {
        meta
    }
}

impl EmitPolicy for HashedTables {
    #[inline]
    fn resolve(&self, input: &str, pos: usize, end: usize, meta: u32) -> u32 {
        let tag = (meta & compiled::TAG_MASK) as usize;
        if self.is_home[tag] {
            if let Some(kw_idx) = self.hash.lookup_at(input.as_bytes(), pos, end) {
                // Full-order priority between the keyword and the home
                // rule decides, exactly as the full DFA would.
                if kw_idx < self.remap_idx[tag] {
                    return kw_idx; // keyword rules are never skip rules
                }
            }
        }
        self.remap_meta[tag]
    }
}

/// Level dispatch for [`run_loop_inner`]. The SSSE3 arm re-enters through
/// a `#[target_feature]` wrapper so the 16-byte skipper inlines straight
/// into the token loop (no per-run call, no per-run nibble-table reload
/// scheduling barrier); other levels monomorphize the portable path.
#[allow(clippy::too_many_arguments)]
fn run_loop<E: EmitPolicy>(
    dfa: &Dfa,
    compiled: &CompiledDfa,
    run: &RunSet,
    level: SimdLevel,
    policy: &E,
    input: &str,
    start: usize,
    out: &mut Vec<Token>,
) -> Result<(), usize> {
    match level {
        #[cfg(all(target_arch = "x86_64", not(feature = "no-simd")))]
        // SAFETY: `Ssse3` is only selected after runtime detection.
        SimdLevel::Ssse3 => unsafe { run_loop_ssse3(dfa, compiled, run, policy, input, start, out) },
        _ => run_loop_inner(dfa, compiled, run, level, policy, input, start, out),
    }
}

#[cfg(all(target_arch = "x86_64", not(feature = "no-simd")))]
#[target_feature(enable = "ssse3")]
#[allow(clippy::too_many_arguments)]
unsafe fn run_loop_ssse3<E: EmitPolicy>(
    dfa: &Dfa,
    compiled: &CompiledDfa,
    run: &RunSet,
    policy: &E,
    input: &str,
    start: usize,
    out: &mut Vec<Token>,
) -> Result<(), usize> {
    run_loop_inner(dfa, compiled, run, SimdLevel::Ssse3, policy, input, start, out)
}

/// The shared scan loop: per-byte table stepping with chunked run-skipping
/// layered on top. The inner loop is *step → skip → record*: after every
/// state entry the state's self-loop run is skipped wholesale (state and
/// accept meta provably unchanged across a self-loop run), then the accept
/// metadata is recorded at the run's end — identical maximal-munch
/// bookkeeping to the per-byte cores, minus the per-byte work. A one-byte
/// scalar membership pretest keeps zero-length runs (the common case for
/// punctuation-dense input) out of the chunked classifier entirely.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_loop_inner<E: EmitPolicy>(
    dfa: &Dfa,
    compiled: &CompiledDfa,
    run: &RunSet,
    level: SimdLevel,
    policy: &E,
    input: &str,
    start: usize,
    out: &mut Vec<Token>,
) -> Result<(), usize> {
    let bytes = input.as_bytes();
    let len = bytes.len();
    let mask_id: &[u16] = &run.mask_id;
    let masks: &[RunMask] = &run.masks;
    let dispatch: &[u64; 128] = &run.dispatch;
    let mut pos = start;
    while pos < len {
        let b0 = bytes[pos];
        let mut state: u32;
        let mut i: usize;
        if b0 < 0x80 {
            // Frequency-ordered tag tests (run ≫ single ≫ general ≫ dead):
            // mixed input alternates between token shapes on nearly every
            // token, so two well-predicted conditional branches beat one
            // BTB-hostile indirect jump here.
            let d = dispatch[b0 as usize];
            let payload = d as u32;
            let tag = d & D_TAG;
            if tag == D_RUN {
                // The whole token is the maximal self-loop run from
                // `pos` (keywords, identifiers, whitespace): extend it
                // with the chunked classifier and finish without ever
                // touching the DFA walk below.
                let mut end = pos + 1;
                let mid = (payload >> 16) as usize;
                if mid != 0 && end < len {
                    // SAFETY: non-zero ids index `masks` by construction.
                    let rm = unsafe { masks.get_unchecked(mid) };
                    if rm.member(bytes[end]) {
                        end += skip_run(bytes, end, rm, level);
                    }
                }
                let m = payload & 0xFFFF;
                if m & RUN_SKIP == 0 {
                    let meta = policy.resolve(input, pos, end, m);
                    if meta & compiled::SKIP_FLAG == 0 {
                        out.push(Token {
                            kind: TokenKind(meta & compiled::TAG_MASK),
                            start: pos,
                            end,
                        });
                    }
                }
                pos = end;
                continue;
            } else if tag == D_SINGLE {
                // One-byte token (punctuation, mostly). The payload is
                // already full-rule meta: inherently in full-DFA mode,
                // pre-resolved at build time in hashed mode.
                if payload & compiled::SKIP_FLAG == 0 {
                    out.push(Token {
                        kind: TokenKind(payload & compiled::TAG_MASK),
                        start: pos,
                        end: pos + 1,
                    });
                }
                pos += 1;
                continue;
            } else if tag == D_GENERAL {
                // First transition pre-taken by the dispatch table.
                state = payload;
                i = pos + 1;
            } else {
                return Err(pos);
            }
        } else {
            // Multi-byte scalar at token start: take the first transition
            // through the interval DFA.
            let c = input[pos..].chars().next().expect("non-empty suffix");
            match dfa.step(0, c) {
                Some(s) => {
                    state = s;
                    i = pos + c.len_utf8();
                }
                None => return Err(pos),
            }
        }
        // The walk proper: skip the state's self-loop run, record accept
        // metadata at the run's end, then take the next transition —
        // identical maximal-munch bookkeeping to the per-byte cores. Entry
        // invariant: `state` is live and `i > pos` (first byte consumed),
        // so zero-length matches are impossible.
        let mut best_end = usize::MAX;
        let mut best_meta = 0u32;
        loop {
            // SAFETY: live state index; `mask_id` has one entry per state.
            let id = unsafe { *mask_id.get_unchecked(state as usize) };
            if id != 0 && i < len {
                let rm = unsafe { masks.get_unchecked(id as usize) };
                if rm.member(bytes[i]) {
                    i += skip_run(bytes, i, rm, level);
                }
            }
            // SAFETY: live state index.
            let meta = unsafe { compiled.accept_meta_unchecked(state) };
            if meta != compiled::NO_ACCEPT {
                best_end = i;
                best_meta = meta;
            }
            if i >= len {
                break;
            }
            let b = bytes[i];
            let next = if b < 0x80 {
                // SAFETY: `state` is live — the loop breaks before
                // assigning DEAD.
                unsafe { compiled.step_ascii_unchecked(state, b) }
            } else {
                // Multi-byte scalar: `i` is a char boundary because runs
                // never include bytes ≥ 0x80 and the walk advances by
                // whole characters.
                let c = input[i..].chars().next().expect("non-empty suffix");
                i += c.len_utf8() - 1;
                match dfa.step(state, c) {
                    Some(next) => next,
                    None => compiled::DEAD,
                }
            };
            if next == compiled::DEAD {
                break;
            }
            i += 1;
            state = next;
        }
        if best_end == usize::MAX {
            return Err(pos);
        }
        debug_assert!(best_end > pos, "zero-length token match would not progress");
        let meta = policy.resolve(input, pos, best_end, best_meta);
        if meta & compiled::SKIP_FLAG == 0 {
            out.push(Token {
                kind: TokenKind(meta & compiled::TAG_MASK),
                start: pos,
                end: best_end,
            });
        }
        pos = best_end;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_of(set: &[u8]) -> RunMask {
        let mut bits = [0u64; 2];
        for &b in set {
            assert!(b < 0x80);
            bits[(b >> 6) as usize] |= 1 << (b & 63);
        }
        RunMask::from_bits(bits)
    }

    #[test]
    fn nibble_tables_agree_with_bitmap() {
        let m = mask_of(&[b' ', b'\t', b'\n', b'a', b'z', b'_', b'0', b'9', 0x7F]);
        for b in 0u8..=0xFF {
            let via_nibbles = m.lo[(b & 0x0F) as usize] & m.hi[(b >> 4) as usize] != 0;
            assert_eq!(via_nibbles, m.member(b), "byte {b:#x}");
        }
    }

    #[test]
    fn swar_skip_finds_first_mismatch_at_every_offset() {
        let m = mask_of(&(b'a'..=b'z').collect::<Vec<_>>());
        for run_len in 0..40 {
            let mut input = vec![b'q'; run_len];
            input.push(b'!');
            input.extend_from_slice(b"tail");
            for start in 0..run_len.min(3) {
                assert_eq!(
                    skip_swar(&input, start, &m),
                    run_len - start,
                    "run_len={run_len} start={start}"
                );
            }
        }
        // run to end of input (no terminator)
        assert_eq!(skip_swar(&[b'x'; 23], 0, &m), 23);
        // empty and immediate mismatch
        assert_eq!(skip_swar(&[], 0, &m), 0);
        assert_eq!(skip_swar(b"!abc", 0, &m), 0);
    }

    #[test]
    fn swar_skip_stops_at_non_ascii() {
        let m = mask_of(&(0x20u8..0x7F).collect::<Vec<_>>());
        let mut input = vec![b'a'; 20];
        input.push(0xC3);
        input.push(0xA9);
        assert_eq!(skip_swar(&input, 0, &m), 20);
    }

    #[test]
    fn detected_level_agrees_with_swar_everywhere() {
        let level = SimdLevel::detect();
        let m = mask_of(&(b'a'..=b'z').chain([b'_', b'0', b'5']).collect::<Vec<_>>());
        for run_len in [0usize, 1, 7, 8, 15, 16, 17, 31, 32, 63, 64, 65, 100] {
            let mut input = vec![b'm'; run_len];
            input.push(b'#');
            input.extend_from_slice(&[b'z'; 9]);
            assert_eq!(
                skip_run(&input, 0, &m, level),
                skip_swar(&input, 0, &m),
                "run_len={run_len} level={level:?}"
            );
        }
        // non-ASCII terminator at a chunk-interior offset
        let mut input = vec![b'k'; 37];
        input.push(0xE2);
        assert_eq!(skip_run(&input, 0, &m, level), 37);
    }

    /// Bytes the run skips consume while `scan` runs on this thread.
    fn run_skip_bytes(scan: impl FnOnce()) -> usize {
        RUN_SKIP_BYTES.with(|c| c.set(0));
        scan();
        RUN_SKIP_BYTES.with(std::cell::Cell::get)
    }

    /// The scanner gate, in exact counts instead of MiB/s: a full-sized SQL
    /// token set keeps its keyword hash, the hot path leaves most bytes to
    /// the chunked run skips at every SIMD level, and an SSSE3 host uses
    /// the SSSE3 classifier. A scanner that silently falls back to the
    /// per-byte walk or to run-only tables fails here on any host.
    #[test]
    fn run_skips_consume_most_of_a_sql_script() {
        let scanner = crate::testdata::sql_token_set().build().unwrap();
        assert_eq!(scanner.vector_strategy(), "keyword-hash");
        #[cfg(all(target_arch = "x86_64", not(feature = "no-simd")))]
        if std::arch::is_x86_feature_detected!("ssse3") {
            assert_eq!(scanner.simd_level(), SimdLevel::Ssse3);
        }
        let script = crate::testdata::sql_script(256 * 1024);
        let mut toks = Vec::new();
        let skipped = run_skip_bytes(|| scanner.scan_into(&script, &mut toks).unwrap());
        // 190,281 of 262,256 bytes (72.6 %) when this was written.
        assert!(
            skipped * 100 >= script.len() * 72,
            "run skips consumed {skipped} of {} bytes",
            script.len()
        );
        for level in [SimdLevel::Swar, SimdLevel::Ssse3, SimdLevel::Neon] {
            if level.available() {
                let at_level = run_skip_bytes(|| {
                    scanner.scan_with_simd(level, &script).unwrap().unwrap();
                });
                assert_eq!(at_level, skipped, "{level:?}");
            }
        }
    }

    #[test]
    fn keyword_hash_roundtrip_and_case_insensitivity() {
        let words = [
            "SELECT", "FROM", "WHERE", "GROUP", "ORDER", "BY", "HAVING", "LIMIT", "JOIN", "ON",
            "AND", "OR", "NOT", "IN", "AS", "INSERT", "UPDATE", "DELETE", "CREATE", "TABLE",
        ];
        let kws: Vec<Keyword> = words
            .iter()
            .enumerate()
            .map(|(i, w)| Keyword::new(w.as_bytes().to_vec().into_boxed_slice(), i as u32))
            .collect();
        let hash = KeywordHash::build(kws);
        for (i, w) in words.iter().enumerate() {
            assert_eq!(hash.lookup(w.as_bytes()), Some(i as u32), "{w}");
            assert_eq!(hash.lookup(w.to_ascii_lowercase().as_bytes()), Some(i as u32));
            let mixed: String = w
                .chars()
                .enumerate()
                .map(|(j, c)| if j % 2 == 0 { c.to_ascii_lowercase() } else { c })
                .collect();
            assert_eq!(hash.lookup(mixed.as_bytes()), Some(i as u32), "{mixed}");
        }
        for miss in ["SELEC", "SELECTS", "XYZZY", "", "FR0M", "wher"] {
            assert_eq!(hash.lookup(miss.as_bytes()), None, "{miss}");
        }
    }

    #[test]
    fn keyword_hash_prefers_perfect_buckets() {
        let kws: Vec<Keyword> = (0..40)
            .map(|i| Keyword::new(format!("KW{i:02}").into_bytes().into_boxed_slice(), i))
            .collect();
        let hash = KeywordHash::build(kws);
        assert_ne!(hash.params[4].mult, 0, "expected a perfect bucket for length 4");
        for i in 0..40u32 {
            assert_eq!(hash.lookup(format!("kw{i:02}").as_bytes()), Some(i));
        }
    }
}
