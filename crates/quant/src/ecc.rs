//! SECDED error-correcting codes over stored weight words.
//!
//! Aging-induced read failures flip stored bits; duty-balancing
//! policies only slow the aging down. This module adds the *repair*
//! axis: a Hamming-plus-overall-parity SECDED code over each stored
//! weight word, in the two geometries the workspace's formats need —
//! (13,8) for the 8-bit integer formats and (39,32) for fp32 (the
//! classic (72,64)/(39,32) construction at this word size). Every
//! single-bit error in a codeword (data *or* parity) is corrected,
//! every double-bit error is detected-not-miscorrected, and triple and
//! heavier errors may escape or miscorrect — exactly the envelope the
//! fault-injection pipeline counts.
//!
//! The codeword layout is `[data 0..k | check k..k+r | overall parity]`
//! with H-matrix columns assigned the textbook way: check bit `j`
//! carries column `2^j`, data bits take the non-power-of-two columns in
//! ascending order, and the overall parity bit covers the whole word so
//! double errors (even parity, nonzero syndrome) are distinguishable
//! from single errors (odd parity).
//!
//! Two functions decode. [`SecdedCode::correct`] takes a received word,
//! as the hardware decoder would. [`SecdedCode::decode_mask`] takes the
//! error mask instead, so it can also tell an escape from a correction.
//! The fault-injection read path calls `decode_mask` once per faulted
//! word; it has no other decoder.
//!
//! # Example
//!
//! ```
//! use dnnlife_quant::ecc::{EccOutcome, SecdedCode};
//!
//! let code = SecdedCode::for_data_bits(8);
//! assert_eq!(code.codeword_bits(), 13);
//! let cw = code.encode(0xA7);
//! assert_eq!(code.syndrome(cw), 0);
//! let (data, outcome) = code.correct(cw ^ (1 << 11)); // flip a check bit
//! assert_eq!(data, 0xA7);
//! assert_eq!(outcome, EccOutcome::Corrected);
//! ```

use serde::{Deserialize, Serialize};

/// What the SECDED decoder concluded about one word read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccOutcome {
    /// Zero syndrome, even parity: the word is (or decodes as) error
    /// free.
    Clean,
    /// A single-bit error was located and removed; the delivered data
    /// is exact.
    Corrected,
    /// An uncorrectable error was flagged (double-bit, or a heavier
    /// pattern whose syndrome matches no column); the data is delivered
    /// with its raw errors.
    Detected,
    /// The decoder believed it corrected a single-bit error but errors
    /// remain (a ≥3-bit pattern aliasing a valid column) — the worst
    /// case: wrong data delivered as good.
    Escaped,
}

/// Residual error mask and decoder verdict for one word read
/// ([`SecdedCode::decode_mask`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskDecode {
    /// Error bits still present after the decoder's action, in codeword
    /// bit positions (data bits are the low `data_bits`).
    pub residual: u64,
    /// The decoder's verdict.
    pub outcome: EccOutcome,
}

/// A SECDED code for one of the workspace's stored word widths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecdedCode {
    data_bits: u32,
    check_bits: u32,
    /// H-matrix column of data bit `i` (ascending non-powers-of-two).
    data_cols: Vec<u32>,
    /// Codeword bit position for each syndrome value (`-1` = no bit
    /// carries that column: an uncorrectable multi-bit pattern).
    col_to_pos: Vec<i8>,
}

impl SecdedCode {
    /// Builds the code for `data_bits` ∈ {8, 32} — the stored word
    /// widths of [`crate::NumberFormat`].
    ///
    /// # Panics
    ///
    /// Panics on any other width.
    pub fn for_data_bits(data_bits: u32) -> Self {
        let check_bits = match data_bits {
            8 => 4,
            32 => 6,
            other => panic!("SecdedCode: unsupported data width {other}"),
        };
        // Data columns: ascending positive non-powers-of-two.
        let mut data_cols = Vec::with_capacity(data_bits as usize);
        let mut col = 3u32;
        while data_cols.len() < data_bits as usize {
            if !col.is_power_of_two() {
                data_cols.push(col);
            }
            col += 1;
        }
        debug_assert!(*data_cols.last().unwrap() < 1 << check_bits);
        let mut col_to_pos = vec![-1i8; 1 << check_bits];
        // Syndrome 0 with odd overall parity = the parity bit itself.
        col_to_pos[0] = (data_bits + check_bits) as i8;
        for j in 0..check_bits {
            col_to_pos[1 << j] = (data_bits + j) as i8;
        }
        for (i, &c) in data_cols.iter().enumerate() {
            col_to_pos[c as usize] = i as i8;
        }
        Self {
            data_bits,
            check_bits,
            data_cols,
            col_to_pos,
        }
    }

    /// Data width in bits (8 or 32).
    pub fn data_bits(&self) -> u32 {
        self.data_bits
    }

    /// Stored overhead: Hamming check bits plus the overall parity bit
    /// (5 for 8-bit words, 7 for 32-bit).
    pub fn parity_bits(&self) -> u32 {
        self.check_bits + 1
    }

    /// Total codeword width (13 or 39).
    pub fn codeword_bits(&self) -> u32 {
        self.data_bits + self.parity_bits()
    }

    /// Encodes a data word into its codeword (data in the low bits,
    /// check bits above, overall parity on top).
    ///
    /// # Panics
    ///
    /// Panics if `data` has bits above `data_bits`.
    pub fn encode(&self, data: u64) -> u64 {
        assert_eq!(
            data >> self.data_bits,
            0,
            "SecdedCode::encode: data wider than {} bits",
            self.data_bits
        );
        let mut cw = data;
        for j in 0..self.check_bits {
            let mut p = 0u64;
            for (i, &c) in self.data_cols.iter().enumerate() {
                p ^= (data >> i) & u64::from(c >> j & 1);
            }
            cw |= p << (self.data_bits + j);
        }
        let overall = u64::from(cw.count_ones() & 1);
        cw | overall << (self.data_bits + self.check_bits)
    }

    /// The Hamming syndrome of a received word (0 for every valid
    /// codeword; the overall parity bit carries column 0).
    pub fn syndrome(&self, word: u64) -> u32 {
        let mut s = 0u32;
        for (i, &c) in self.data_cols.iter().enumerate() {
            if word >> i & 1 == 1 {
                s ^= c;
            }
        }
        for j in 0..self.check_bits {
            if word >> (self.data_bits + j) & 1 == 1 {
                s ^= 1 << j;
            }
        }
        s
    }

    /// Runs the decoder on an *error mask* (which bits flipped). Codes
    /// are linear, so the syndrome of `codeword ^ mask` equals the
    /// syndrome of `mask` — the decoder's action depends only on the
    /// error pattern, never on the stored data. Returns the error bits
    /// remaining after the decoder's correction attempt and its
    /// verdict.
    ///
    /// A nonzero mask that is itself a codeword (zero syndrome, even
    /// parity; weight ≥ 4, e.g. 255 of the 8191 nonzero 13-bit masks)
    /// is filed as [`EccOutcome::Detected`], although no decoder can see
    /// it: [`SecdedCode::correct`] on the corrupted word returns
    /// [`EccOutcome::Clean`] with wrong data, a silent escape. Injection
    /// statistics therefore over-count detected and under-count escaped
    /// words at high flip densities. Filing it as `Escaped` changes the
    /// SECDED injection store bytes, so it waits for a versioned golden
    /// break.
    pub fn decode_mask(&self, mask: u64) -> MaskDecode {
        if mask == 0 {
            return MaskDecode {
                residual: 0,
                outcome: EccOutcome::Clean,
            };
        }
        let s = self.syndrome(mask) as usize;
        if mask.count_ones() & 1 == 1 {
            // Odd parity: the decoder attempts a single-bit correction
            // at the position carrying column `s`.
            let pos = self.col_to_pos[s];
            if pos < 0 {
                // ≥3 errors whose syndrome matches no column: flagged.
                return MaskDecode {
                    residual: mask,
                    outcome: EccOutcome::Detected,
                };
            }
            let residual = mask ^ (1u64 << pos);
            return MaskDecode {
                residual,
                outcome: if residual == 0 {
                    EccOutcome::Corrected
                } else {
                    EccOutcome::Escaped
                },
            };
        }
        // Even parity with a nonzero pattern: double-error detection
        // (or a heavier even pattern) — flagged, delivered uncorrected.
        MaskDecode {
            residual: mask,
            outcome: EccOutcome::Detected,
        }
    }

    /// Decodes a received word: corrects a located single-bit error and
    /// returns the data bits plus the verdict (the data still carries
    /// errors under `Detected`/`Escaped`).
    pub fn correct(&self, word: u64) -> (u64, EccOutcome) {
        // The received word's syndrome and parity equal its error
        // mask's (valid codewords have zero syndrome and even parity),
        // so re-derive the decoder action through `decode_mask`'s exact
        // logic on the word itself.
        let s = self.syndrome(word) as usize;
        let odd = word.count_ones() & 1 == 1;
        let data_mask = (1u64 << self.data_bits) - 1;
        if s == 0 && !odd {
            return (word & data_mask, EccOutcome::Clean);
        }
        if odd {
            let pos = self.col_to_pos[s];
            if pos < 0 {
                return (word & data_mask, EccOutcome::Detected);
            }
            let fixed = word ^ (1u64 << pos);
            // A single-bit error is indistinguishable from an aliasing
            // ≥3-bit pattern at the receiver; report the optimistic
            // verdict (the injection path, which knows the true mask,
            // uses `decode_mask` and can tell `Escaped` apart).
            return (fixed & data_mask, EccOutcome::Corrected);
        }
        (word & data_mask, EccOutcome::Detected)
    }
}

/// Physical storage layout of a SECDED codeword: which memory column
/// holds each logical codeword bit. `interleave` is the column stride —
/// logical bit `i` lands in physical column `(i * interleave) mod
/// width` — and must be coprime with the codeword width so the map is a
/// bijection. Stride 1 is the identity layout; larger strides scatter
/// the parity bits among the data columns (so, e.g., a barrel-rotated
/// aging schedule wears logically-adjacent bits at non-adjacent
/// columns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EccLayout {
    code: SecdedCode,
    interleave: u32,
}

impl EccLayout {
    /// Builds a layout over `code` with the given column stride.
    ///
    /// # Panics
    ///
    /// Panics if `interleave` is 0 or shares a factor with the codeword
    /// width.
    pub fn new(code: SecdedCode, interleave: u32) -> Self {
        let width = code.codeword_bits();
        assert!(
            interleave >= 1 && gcd(interleave, width) == 1,
            "EccLayout: interleave {interleave} is not coprime with codeword width {width}"
        );
        Self { code, interleave }
    }

    /// The underlying code.
    pub fn code(&self) -> &SecdedCode {
        &self.code
    }

    /// Physical word width (= codeword width).
    pub fn width(&self) -> u32 {
        self.code.codeword_bits()
    }

    /// Physical column of logical codeword bit `i`.
    fn column(&self, i: u32) -> u32 {
        (i * self.interleave) % self.width()
    }

    /// Encodes a data word and scatters the codeword into physical
    /// column order — what the memory plan stores.
    pub fn store(&self, data: u64) -> u64 {
        let cw = self.code.encode(data);
        if self.interleave == 1 {
            return cw;
        }
        let mut phys = 0u64;
        for i in 0..self.width() {
            phys |= (cw >> i & 1) << self.column(i);
        }
        phys
    }

    /// Maps a physical-column bit mask (which cells flipped) back to
    /// logical codeword positions for the decoder.
    pub fn gather_mask(&self, phys: u64) -> u64 {
        if self.interleave == 1 {
            return phys;
        }
        let mut logical = 0u64;
        for i in 0..self.width() {
            logical |= (phys >> self.column(i) & 1) << i;
        }
        logical
    }
}

/// The repair axis of an experiment: what error correction, if any,
/// wraps the stored weight words. The SECDED engine sits at the SRAM
/// array port, *below* the mitigation logic: every raw word read is
/// syndrome-checked and corrected first, and the policy's read-decode
/// permutation then reconstructs the logical weight from the corrected
/// data bits. Parity cells are real SRAM columns — they are written on
/// every weight write and age under the same duty model as data cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RepairPolicy {
    /// No error correction (the workspace's historical behaviour).
    #[default]
    None,
    /// Hamming SECDED over each stored word — (13,8) for the 8-bit
    /// formats, (39,32) for fp32.
    Secded {
        /// Physical column stride of the codeword layout (see
        /// [`EccLayout`]); 1 = identity. Must be coprime with the
        /// codeword width.
        interleave: u8,
    },
}

impl RepairPolicy {
    /// Whether this is the no-repair axis value.
    pub fn is_none(&self) -> bool {
        matches!(self, RepairPolicy::None)
    }

    /// Parity overhead per stored word of `data_bits` (0 without ECC).
    pub fn parity_bits(&self, data_bits: u32) -> u32 {
        match self {
            RepairPolicy::None => 0,
            RepairPolicy::Secded { .. } => SecdedCode::for_data_bits(data_bits).parity_bits(),
        }
    }

    /// The physical layout for words of `data_bits`, or `None` without
    /// ECC.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid for this width (see
    /// [`RepairPolicy::is_valid_for`]).
    pub fn layout(&self, data_bits: u32) -> Option<EccLayout> {
        match *self {
            RepairPolicy::None => None,
            RepairPolicy::Secded { interleave } => Some(EccLayout::new(
                SecdedCode::for_data_bits(data_bits),
                u32::from(interleave),
            )),
        }
    }

    /// Whether the policy can wrap words of `data_bits`: the interleave
    /// stride must be ≥ 1 and coprime with the codeword width (13 for
    /// 8-bit words, 39 for 32-bit).
    pub fn is_valid_for(&self, data_bits: u32) -> bool {
        match *self {
            RepairPolicy::None => true,
            RepairPolicy::Secded { interleave } => {
                let width = SecdedCode::for_data_bits(data_bits).codeword_bits();
                interleave >= 1 && gcd(u32::from(interleave), width) == 1
            }
        }
    }

    /// CLI / report name (`none`, `secded`, `secded:5`).
    pub fn display_name(&self) -> String {
        match *self {
            RepairPolicy::None => "none".to_string(),
            RepairPolicy::Secded { interleave: 1 } => "secded".to_string(),
            RepairPolicy::Secded { interleave } => format!("secded:{interleave}"),
        }
    }

    /// Parses a CLI name: `none`, `secded`, or `secded:STRIDE`.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "none" => return Some(RepairPolicy::None),
            "secded" => return Some(RepairPolicy::Secded { interleave: 1 }),
            _ => {}
        }
        name.strip_prefix("secded:")?
            .parse()
            .ok()
            .filter(|&i: &u8| i >= 1)
            .map(|interleave| RepairPolicy::Secded { interleave })
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometries_match_the_classic_construction() {
        let c8 = SecdedCode::for_data_bits(8);
        assert_eq!(c8.codeword_bits(), 13);
        assert_eq!(c8.parity_bits(), 5);
        let c32 = SecdedCode::for_data_bits(32);
        assert_eq!(c32.codeword_bits(), 39);
        assert_eq!(c32.parity_bits(), 7);
    }

    #[test]
    #[should_panic(expected = "unsupported data width")]
    fn rejects_unsupported_widths() {
        let _ = SecdedCode::for_data_bits(16);
    }

    #[test]
    fn clean_codewords_have_zero_syndrome_and_even_parity() {
        let code = SecdedCode::for_data_bits(8);
        for data in 0u64..256 {
            let cw = code.encode(data);
            assert_eq!(code.syndrome(cw), 0, "data {data:#x}");
            assert_eq!(cw.count_ones() % 2, 0, "data {data:#x}");
            assert_eq!(cw & 0xFF, data, "data bits live in the low bits");
        }
    }

    #[test]
    fn every_single_bit_flip_corrects_exhaustively() {
        for width in [8u32, 32] {
            let code = SecdedCode::for_data_bits(width);
            let data = if width == 8 { 0xB6 } else { 0xDEAD_BEEF };
            let cw = code.encode(data);
            for bit in 0..code.codeword_bits() {
                let (decoded, outcome) = code.correct(cw ^ (1u64 << bit));
                assert_eq!(decoded, data, "width {width} bit {bit}");
                assert_eq!(outcome, EccOutcome::Corrected, "width {width} bit {bit}");
                let d = code.decode_mask(1u64 << bit);
                assert_eq!(d.outcome, EccOutcome::Corrected);
                assert_eq!(d.residual, 0);
            }
        }
    }

    #[test]
    fn double_flips_are_detected_exhaustively_at_8_bits() {
        let code = SecdedCode::for_data_bits(8);
        for a in 0..13u32 {
            for b in (a + 1)..13 {
                let d = code.decode_mask(1u64 << a | 1u64 << b);
                assert_eq!(d.outcome, EccOutcome::Detected, "bits {a},{b}");
                assert_eq!(d.residual, 1u64 << a | 1u64 << b);
            }
        }
    }

    #[test]
    fn triple_flips_escape_or_flag_but_never_report_corrected_falsely() {
        let code = SecdedCode::for_data_bits(8);
        let mut escaped = 0usize;
        for a in 0..13u32 {
            for b in (a + 1)..13 {
                for c in (b + 1)..13 {
                    let mask = 1u64 << a | 1u64 << b | 1u64 << c;
                    let d = code.decode_mask(mask);
                    match d.outcome {
                        EccOutcome::Escaped => {
                            escaped += 1;
                            assert_ne!(d.residual, 0);
                        }
                        EccOutcome::Detected => assert_eq!(d.residual, mask),
                        other => panic!("triple flip decoded as {other:?}"),
                    }
                }
            }
        }
        assert!(escaped > 0, "some 3-bit patterns alias a single-bit column");
    }

    #[test]
    fn mask_decoder_matches_word_decoder_exhaustively_at_8_bits() {
        // Every 13-bit error mask (8192 of them) over one codeword: the
        // mask-space decoder's residual is exactly the error left in the
        // data the receiver's decoder delivers, and its verdict is the
        // receiver's up to what only the true mask can tell. A receiver
        // reports an aliasing escape as a correction, and sees a mask
        // that is itself a nonzero codeword (all 255 of them) as a
        // clean read, which the mask decoder files as detected.
        let code = SecdedCode::for_data_bits(8);
        let data = 0x5Cu64;
        let cw = code.encode(data);
        let mut invisible = 0;
        for mask in 0u64..1 << 13 {
            let d = code.decode_mask(mask);
            let (delivered, outcome) = code.correct(cw ^ mask);
            assert_eq!(delivered, data ^ (d.residual & 0xFF), "mask {mask:#06x}");
            let seen = match d.outcome {
                EccOutcome::Escaped => EccOutcome::Corrected,
                EccOutcome::Detected if code.syndrome(mask) == 0 && mask.count_ones() % 2 == 0 => {
                    invisible += 1;
                    EccOutcome::Clean
                }
                other => other,
            };
            assert_eq!(outcome, seen, "mask {mask:#06x}");
        }
        assert_eq!(invisible, (1 << 8) - 1);
    }

    #[test]
    fn layout_interleave_is_a_bijection_and_round_trips() {
        let code = SecdedCode::for_data_bits(8);
        for stride in [1u32, 2, 5, 12] {
            let layout = EccLayout::new(code.clone(), stride);
            for data in [0u64, 0xFF, 0xA5] {
                let phys = layout.store(data);
                assert_eq!(
                    layout.gather_mask(phys),
                    code.encode(data),
                    "stride {stride} data {data:#x}"
                );
            }
            // Columns are a permutation.
            let cols: std::collections::BTreeSet<u32> = (0..13).map(|i| layout.column(i)).collect();
            assert_eq!(cols.len(), 13);
        }
    }

    #[test]
    #[should_panic(expected = "not coprime")]
    fn layout_rejects_non_coprime_stride() {
        let _ = EccLayout::new(SecdedCode::for_data_bits(32), 3); // 39 = 3 · 13
    }

    #[test]
    fn repair_policy_metadata_and_parsing() {
        assert!(RepairPolicy::None.is_none());
        assert_eq!(RepairPolicy::None.parity_bits(8), 0);
        assert_eq!(RepairPolicy::parse("none"), Some(RepairPolicy::None));
        assert_eq!(
            RepairPolicy::parse("secded"),
            Some(RepairPolicy::Secded { interleave: 1 })
        );
        assert_eq!(
            RepairPolicy::parse("secded:5"),
            Some(RepairPolicy::Secded { interleave: 5 })
        );
        assert_eq!(RepairPolicy::parse("secded:0"), None);
        assert_eq!(RepairPolicy::parse("hamming"), None);
        assert_eq!(
            RepairPolicy::Secded { interleave: 1 }.display_name(),
            "secded"
        );
        assert_eq!(
            RepairPolicy::Secded { interleave: 5 }.display_name(),
            "secded:5"
        );
        // 39 = 3 · 13: stride 3 fits 8-bit words (13 is prime) but not
        // fp32 codewords.
        let p = RepairPolicy::Secded { interleave: 3 };
        assert!(p.is_valid_for(8));
        assert!(!p.is_valid_for(32));
    }

    #[test]
    fn repair_policy_serde_round_trips() {
        for p in [
            RepairPolicy::None,
            RepairPolicy::Secded { interleave: 1 },
            RepairPolicy::Secded { interleave: 5 },
        ] {
            let v = p.to_value();
            assert_eq!(RepairPolicy::from_value(&v).unwrap(), p);
        }
    }
}
