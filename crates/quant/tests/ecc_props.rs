//! Property tests for the SECDED core, at both supported word widths:
//!
//! * encode → flip any single bit (data *or* parity) → decode recovers
//!   the original data word, for every bit position;
//! * any 2-bit flip is detected, never miscorrected (the delivered
//!   data is the raw corrupted data — the decoder touches nothing);
//! * the syndrome of a clean codeword is zero (and its overall parity
//!   even), so fault-free reads never trigger the corrector.
//!
//! Interleaved layouts are covered too: a physical single-bit flip
//! gathered back through any coprime column stride still corrects.

use dnnlife_quant::ecc::{EccLayout, EccOutcome, SecdedCode};
use proptest::prelude::*;

/// The two stored word widths of `NumberFormat` (8-bit integers, fp32).
const WIDTHS: [u32; 2] = [8, 32];

fn data_word(gen_bits: u64, width: u32) -> u64 {
    gen_bits & ((1u64 << width) - 1)
}

proptest! {
    #[test]
    fn clean_codeword_syndrome_is_zero(raw: u64) {
        for width in WIDTHS {
            let code = SecdedCode::for_data_bits(width);
            let cw = code.encode(data_word(raw, width));
            prop_assert_eq!(code.syndrome(cw), 0);
            prop_assert_eq!(cw.count_ones() % 2, 0, "overall parity must be even");
            let (decoded, outcome) = code.correct(cw);
            prop_assert_eq!(decoded, data_word(raw, width));
            prop_assert!(outcome == EccOutcome::Clean);
        }
    }

    #[test]
    fn any_single_bit_flip_corrects_at_every_position(raw: u64) {
        // Exhaustive over bit positions, random over data words: every
        // (width, position) cell is exercised in every case.
        for width in WIDTHS {
            let code = SecdedCode::for_data_bits(width);
            let data = data_word(raw, width);
            let cw = code.encode(data);
            for bit in 0..code.codeword_bits() {
                let (decoded, outcome) = code.correct(cw ^ (1u64 << bit));
                prop_assert_eq!(decoded, data, "width {} bit {}", width, bit);
                prop_assert!(
                    outcome == EccOutcome::Corrected,
                    "width {} bit {}: {:?}",
                    width,
                    bit,
                    outcome
                );
            }
        }
    }

    #[test]
    fn any_double_bit_flip_is_detected_not_miscorrected(raw: u64, a: u32, b: u32) {
        for width in WIDTHS {
            let code = SecdedCode::for_data_bits(width);
            let n = code.codeword_bits();
            let (a, b) = (a % n, b % n);
            prop_assume!(a != b);
            let data = data_word(raw, width);
            let mask = 1u64 << a | 1u64 << b;
            let (decoded, outcome) = code.correct(code.encode(data) ^ mask);
            prop_assert!(
                outcome == EccOutcome::Detected,
                "width {} bits {},{}: {:?}",
                width,
                a,
                b,
                outcome
            );
            // Detected = delivered uncorrected: the data differs from
            // the original exactly by the data-bit part of the mask.
            let data_flips = mask & ((1u64 << width) - 1);
            prop_assert_eq!(decoded, data ^ data_flips);
            // And the mask-space decoder agrees.
            let d = code.decode_mask(mask);
            prop_assert!(d.outcome == EccOutcome::Detected);
            prop_assert_eq!(d.residual, mask);
        }
    }

    #[test]
    fn interleaved_single_bit_flip_still_corrects(raw: u64, stride_pick: u32, bit_pick: u32) {
        for width in WIDTHS {
            let code = SecdedCode::for_data_bits(width);
            let n = code.codeword_bits();
            // Coprime strides only (13 is prime; 39 = 3·13).
            let strides: Vec<u32> = (1..n).filter(|s| gcd(*s, n) == 1).collect();
            let stride = strides[stride_pick as usize % strides.len()];
            let layout = EccLayout::new(code.clone(), stride);
            let data = data_word(raw, width);
            let phys_mask = 1u64 << (bit_pick % n);
            let d = code.decode_mask(layout.gather_mask(phys_mask));
            prop_assert!(
                d.outcome == EccOutcome::Corrected,
                "width {} stride {}: {:?}",
                width,
                stride,
                d.outcome
            );
            prop_assert_eq!(d.residual, 0);
            // The stored word round-trips through the layout.
            prop_assert_eq!(layout.gather_mask(layout.store(data)), code.encode(data));
        }
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
