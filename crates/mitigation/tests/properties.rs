//! Property tests: every transducer's encode/decode must be the
//! identity, for any word, any address pattern, any policy state.

use dnnlife_mitigation::packed::{image_len, write_bits};
use dnnlife_mitigation::transducer::{
    BarrelShifter, DnnLife, Passthrough, PeriodicInversion, WriteTransducer,
};
use dnnlife_mitigation::{
    AgingController, PseudoTrbg, RemapSchedule, RingOscillatorTrbg, Trbg, WearLevelRemap,
};
use proptest::prelude::*;

fn mask(width: u32) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

proptest! {
    #[test]
    fn passthrough_roundtrip(width in 1u32..=64, word: u64) {
        let mut t = Passthrough::new(width);
        let word = word & mask(width);
        let (stored, meta) = t.encode(0, word);
        prop_assert_eq!(t.decode(stored, meta), word);
    }

    #[test]
    fn inversion_roundtrip_under_write_sequences(
        width in 1u32..=64,
        writes in prop::collection::vec((0u64..16, any::<u64>()), 1..60)
    ) {
        let mut t = PeriodicInversion::new(width, 16);
        for (addr, word) in writes {
            let word = word & mask(width);
            let (stored, meta) = t.encode(addr, word);
            prop_assert_eq!(t.decode(stored, meta), word);
        }
    }

    #[test]
    fn barrel_roundtrip_under_write_sequences(
        width in 1u32..=64,
        writes in prop::collection::vec((0u64..16, any::<u64>()), 1..60)
    ) {
        let mut t = BarrelShifter::new(width, 16);
        for (addr, word) in writes {
            let word = word & mask(width);
            let (stored, meta) = t.encode(addr, word);
            prop_assert_eq!(t.decode(stored, meta), word);
        }
    }

    #[test]
    fn dnn_life_roundtrip_any_bias(
        width in 1u32..=64,
        bias in 0.0f64..=1.0,
        seed: u64,
        words in prop::collection::vec(any::<u64>(), 1..60)
    ) {
        let controller = AgingController::new(PseudoTrbg::new(seed, bias), 4);
        let mut t = DnnLife::new(width, controller);
        for (i, word) in words.into_iter().enumerate() {
            if i % 5 == 0 {
                t.new_block();
            }
            let word = word & mask(width);
            let (stored, meta) = t.encode(0, word);
            prop_assert_eq!(t.decode(stored, meta), word);
        }
    }

    #[test]
    fn dnn_life_roundtrip_with_ring_oscillator(
        seed: u64,
        words in prop::collection::vec(any::<u64>(), 1..40)
    ) {
        let controller = AgingController::new(RingOscillatorTrbg::biased(seed, 0.7), 4);
        let mut t = DnnLife::new(32, controller);
        for word in words {
            let word = word & mask(32);
            let (stored, meta) = t.encode(0, word);
            prop_assert_eq!(t.decode(stored, meta), word);
        }
    }

    #[test]
    fn stored_words_respect_width(width in 1u32..=63, word: u64, seed: u64) {
        let word = word & mask(width);
        let controller = AgingController::new(PseudoTrbg::new(seed, 0.5), 4);
        let mut policies: Vec<Box<dyn WriteTransducer>> = vec![
            Box::new(Passthrough::new(width)),
            Box::new(PeriodicInversion::new(width, 4)),
            Box::new(BarrelShifter::new(width, 4)),
            Box::new(DnnLife::new(width, controller)),
        ];
        for p in &mut policies {
            let (stored, _) = p.encode(0, word);
            prop_assert_eq!(stored & !mask(width), 0, "policy {} leaked bits", p.name());
        }
    }

    /// Forked TRBG streams never overlap draws: for any deterministic
    /// seed, no 64-bit window of one shard's stream reappears anywhere
    /// in another shard's stream (a shifted match would mean two
    /// shards consuming the same underlying draw sequence). A fair
    /// stream makes an accidental 64-bit window collision ~2⁻⁶⁴, so a
    /// match can only be a seed-derivation bug.
    #[test]
    fn forked_trbg_streams_never_overlap_draws(
        seed: u64,
        bias_pick in 0usize..3,
    ) {
        let bias = [0.3f64, 0.5, 0.7][bias_pick];
        let parent = PseudoTrbg::new(seed, bias);
        let take = |mut t: PseudoTrbg, n: usize| -> Vec<bool> {
            (0..n).map(|_| t.next_bit()).collect()
        };
        let window = |bits: &[bool], at: usize| -> u64 {
            bits[at..at + 64]
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
        };
        let streams: Vec<Vec<bool>> = (0..4).map(|s| take(parent.fork(s), 256)).collect();
        // Every 64-bit window of every stream, tagged with its stream:
        // a window seen from two different streams is a shifted match,
        // i.e. two shards walking the same underlying draw sequence.
        let mut seen: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for (stream, bits) in streams.iter().enumerate() {
            for at in 0..=bits.len() - 64 {
                if let Some(&owner) = seen.get(&window(bits, at)) {
                    prop_assert_eq!(
                        owner,
                        stream,
                        "a window of stream {} reappears in stream {} (offset {})",
                        owner,
                        stream,
                        at
                    );
                } else {
                    seen.insert(window(bits, at), stream);
                }
            }
        }
    }

    /// Every fork of every policy still satisfies the encode/decode
    /// identity — sharding must never alter inference results either.
    #[test]
    fn forked_transducers_roundtrip(
        width in 1u32..=64,
        shard in 0u64..16,
        seed: u64,
        writes in prop::collection::vec((0u64..16, any::<u64>()), 1..40)
    ) {
        let controller = AgingController::new(PseudoTrbg::new(seed, 0.5), 4);
        let prototypes: Vec<Box<dyn WriteTransducer>> = vec![
            Box::new(Passthrough::new(width)),
            Box::new(PeriodicInversion::new(width, 16)),
            Box::new(BarrelShifter::new(width, 16)),
            Box::new(DnnLife::new(width, controller)),
        ];
        for prototype in &prototypes {
            let mut fork = prototype.fork(shard);
            for &(addr, word) in &writes {
                let word = word & mask(width);
                let (stored, meta) = fork.encode(addr, word);
                prop_assert_eq!(
                    fork.decode(stored, meta),
                    word,
                    "fork {} of policy {} broke the identity",
                    shard,
                    prototype.name()
                );
            }
        }
    }
}

/// Word widths of the packed-image property: the lane widths 1, 8, 32
/// and 64, and 7, 13 and 39, whose words straddle `u64`s.
const PACKED_WIDTHS: [u32; 7] = [1, 7, 8, 13, 32, 39, 64];

/// Addresses of the packed-image property's memory.
const PACKED_WORDS: usize = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `encode_packed` stores exactly what per-word `encode` followed
    /// by `write_bits` stores, with the same state advance, for all five
    /// transducers: every width of `PACKED_WIDTHS`, ragged image tails,
    /// shuffled and repeated addresses, several blocks with
    /// `new_block` between them, on fork `shard` of each prototype. The
    /// output image starts as all ones, so every bit must be written.
    #[test]
    fn encode_packed_matches_per_word_encode_then_write_bits(
        seed: u64,
        shard in 0u64..4,
        blocks in prop::collection::vec(
            prop::collection::vec((0u64..PACKED_WORDS as u64, any::<u64>()), 0..150),
            1..6
        )
    ) {
        for width in PACKED_WIDTHS {
            let schedule = RemapSchedule::new(PACKED_WORDS, 8, 4);
            let prototypes: Vec<Box<dyn WriteTransducer>> = vec![
                Box::new(Passthrough::new(width)),
                Box::new(PeriodicInversion::new(width, PACKED_WORDS)),
                Box::new(BarrelShifter::new(width, PACKED_WORDS)),
                Box::new(DnnLife::new(width, AgingController::new(PseudoTrbg::new(seed, 0.7), 2))),
                Box::new(WearLevelRemap::new(width, schedule)),
            ];
            for prototype in &prototypes {
                let mut packed = prototype.fork(shard);
                let mut sequential = prototype.fork(shard);
                let w = width as usize;
                for (block, writes) in blocks.iter().enumerate() {
                    let addrs: Vec<u64> = writes.iter().map(|&(addr, _)| addr).collect();
                    let len = image_len(writes.len(), width);
                    let mut raw = vec![0u64; len];
                    let mut expect = vec![0u64; len];
                    for (i, &(addr, word)) in writes.iter().enumerate() {
                        let word = word & mask(width);
                        write_bits(&mut raw, i * w, w, word);
                        write_bits(&mut expect, i * w, w, sequential.encode(addr, word).0);
                    }
                    let mut out = vec![u64::MAX; len];
                    packed.encode_packed(&addrs, &raw, &mut out);
                    prop_assert_eq!(
                        &out,
                        &expect,
                        "policy {} width {} block {}",
                        prototype.name(),
                        width,
                        block
                    );
                    packed.new_block();
                    sequential.new_block();
                }
            }
        }
    }
}
