//! Write Data Encoders / Read Data Decoders for all evaluated policies.
//!
//! A transducer pair sits around the weight memory: `encode` transforms
//! each word on its way in (and yields the metadata the decoder needs),
//! `decode` restores it bit-exactly on its way out. The four policies
//! are the ones compared in Fig. 9 / Fig. 11 of the paper.

use std::hint::select_unpredictable;

use crate::controller::AgingController;
use crate::packed::{check_images, check_word, map_words, mask};
use crate::trbg::Trbg;

/// Per-write metadata produced by `encode` and consumed by `decode`.
///
/// In hardware this is the sideband state stored next to the data (an
/// enable flip-flop, a shift-amount register, …); its width is what
/// [`WriteTransducer::metadata_bits`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metadata {
    /// No transformation applied.
    None,
    /// Whether the word was inverted.
    Inverted(bool),
    /// Left-rotation amount applied to the word.
    Rotated(u8),
}

/// A write transducer (WDE) and its matching read decoder (RDD).
///
/// Implementations must satisfy `decode(encode(w)) == w` for every word
/// that fits the transducer width — verified by property tests; the
/// mitigation scheme must never alter inference results.
///
/// # Fork contract
///
/// [`WriteTransducer::fork`] splits one transducer into per-shard
/// clones for the word-sharded exact simulator. The contract all
/// implementations and callers uphold:
///
/// * **Fork before the first `encode`.** Forks snapshot the
///   transducer's current per-address state; the simulator forks a
///   freshly constructed prototype, so every shard starts from reset
///   state. Forking mid-stream is well-defined (a state snapshot) but
///   not what the shard semantics below are stated for.
/// * **Shards write disjoint address sets.** Per-address state
///   (inversion parity, rotation counters) is never shared between
///   forks, so two forks writing the same address would diverge from a
///   serial run.
/// * **Every fork sees every block boundary.** Callers signal
///   [`WriteTransducer::new_block`] to each fork at each boundary, so
///   schedule-driven state (the DNN-Life bias-balancing register)
///   advances in lockstep across shards.
/// * **Deterministic policies are partition-invariant:** their state is
///   per-address, so any shard partition reproduces the serial run's
///   stored stream bit-for-bit.
/// * **DNN-Life is reproducible per shard:** `fork(s)` derives TRBG
///   stream `s` from the construction seed ([`crate::Trbg::fork`]);
///   shard 0 reproduces the unforked stream, so a one-shard run matches
///   the serial simulator exactly, and any fixed shard count is a
///   deterministic function of the scenario seed.
///
/// The `Send + Sync` supertraits let the sharded simulator share a
/// prototype across its scoped worker threads (each fork itself stays
/// thread-local) — hardware transducer models are plain state, so this
/// costs implementations nothing.
pub trait WriteTransducer: Send + Sync {
    /// Short policy name for reports (e.g. `"dnn-life"`).
    fn name(&self) -> &'static str;

    /// Word width in bits (1..=64).
    fn width(&self) -> u32;

    /// Metadata bits stored per word write.
    fn metadata_bits(&self) -> u32;

    /// Encodes `word` being written to `addr`, returning the stored bit
    /// pattern and the metadata for later decoding.
    ///
    /// # Panics
    ///
    /// Implementations panic if `addr` is outside the address space they
    /// were sized for, or if `word` has bits beyond [`Self::width`].
    fn encode(&mut self, addr: u64, word: u64) -> (u64, Metadata);

    /// Decodes a stored pattern using its metadata.
    fn decode(&self, stored: u64, meta: Metadata) -> u64;

    /// Encodes one block write held as packed images (see
    /// [`crate::packed`]): word `i` of `raw` is written to `addrs[i]`,
    /// and its stored pattern lands in word `i` of `out`. Bits past the
    /// last word are zero in `raw` and are left zero in `out`.
    ///
    /// The default unpacks each word, calls [`Self::encode`] and packs
    /// the result, discarding the metadata. Implementations override it
    /// to work on the image directly, and the override must be
    /// observationally identical to the default: the same stored bits,
    /// the same per-address state advance and TRBG draw order, the same
    /// panics. The exact simulator pays one virtual dispatch per block
    /// write through this method.
    ///
    /// # Panics
    ///
    /// Panics if `raw` or `out` is not [`crate::packed::image_len`]`(addrs.len(), width)`
    /// long, if `raw` has a set bit past its last word, or as
    /// [`Self::encode`] does for any address.
    fn encode_packed(&mut self, addrs: &[u64], raw: &[u64], out: &mut [u64]) {
        encode_packed_by_word(self, addrs, raw, out);
    }

    /// Period of the complete encoder state in *writes per address*,
    /// for policies whose state (per-address and block-schedule alike)
    /// provably returns to its initial value after that many writes to
    /// each address — `None` for aperiodic or randomized policies.
    /// The exact simulator uses this to simulate one period of a
    /// repeated write schedule and replay the rest arithmetically.
    fn write_period(&self) -> Option<u64> {
        None
    }

    /// Signals a block boundary (drives the controller's bias-balancing
    /// register in the DNN-Life policy; a no-op for the baselines).
    fn new_block(&mut self) {}

    /// A transducer for word-shard `shard` of a sharded exact
    /// simulation — see the trait-level *Fork contract*. Deterministic
    /// policies return a state snapshot; DNN-Life additionally forks
    /// its TRBG into independent stream `shard`.
    fn fork(&self, shard: u64) -> Box<dyn WriteTransducer>;
}

/// [`WriteTransducer::encode_packed`]'s default: one [`WriteTransducer::encode`]
/// per word, in word order.
fn encode_packed_by_word<T: WriteTransducer + ?Sized>(
    t: &mut T,
    addrs: &[u64],
    raw: &[u64],
    out: &mut [u64],
) {
    let width = t.width();
    let m = mask(width);
    map_words(width, addrs.len(), raw, out, |i, word| {
        t.encode(addrs[i], word).0 & m
    });
}

/// No mitigation: words are stored as-is.
///
/// # Example
///
/// ```
/// use dnnlife_mitigation::transducer::{Passthrough, WriteTransducer};
///
/// let mut t = Passthrough::new(8);
/// let (stored, meta) = t.encode(3, 0xAB);
/// assert_eq!(stored, 0xAB);
/// assert_eq!(t.decode(stored, meta), 0xAB);
/// ```
#[derive(Debug, Clone)]
pub struct Passthrough {
    width: u32,
}

impl Passthrough {
    /// Creates a pass-through transducer for `width`-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or above 64.
    pub fn new(width: u32) -> Self {
        assert!((1..=64).contains(&width), "Passthrough: bad width {width}");
        Self { width }
    }
}

impl WriteTransducer for Passthrough {
    fn name(&self) -> &'static str {
        "none"
    }

    fn width(&self) -> u32 {
        self.width
    }

    fn metadata_bits(&self) -> u32 {
        0
    }

    fn encode(&mut self, _addr: u64, word: u64) -> (u64, Metadata) {
        check_word(self.width, word);
        (word, Metadata::None)
    }

    fn decode(&self, stored: u64, _meta: Metadata) -> u64 {
        stored
    }

    fn encode_packed(&mut self, addrs: &[u64], raw: &[u64], out: &mut [u64]) {
        check_images(addrs.len(), self.width, raw, out);
        out.copy_from_slice(raw);
    }

    fn write_period(&self) -> Option<u64> {
        Some(1)
    }

    fn fork(&self, _shard: u64) -> Box<dyn WriteTransducer> {
        Box::new(self.clone())
    }
}

/// Inversion-based duty-cycle balancing: every other write to the same
/// location is stored inverted (Jin et al., the paper's ref. 19).
///
/// The paper's probabilistic analysis (§III-B) shows why this is
/// sub-optimal for DNN workloads: when the number of blocks cycling
/// through the memory is even, each location always receives the same
/// inversion phase for the same data, so the duty cycle is *not*
/// balanced.
#[derive(Debug, Clone)]
pub struct PeriodicInversion {
    width: u32,
    parity: Vec<bool>,
}

impl PeriodicInversion {
    /// Creates the transducer for a memory of `num_words` words of
    /// `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is invalid or `num_words == 0`.
    pub fn new(width: u32, num_words: usize) -> Self {
        assert!(
            (1..=64).contains(&width),
            "PeriodicInversion: bad width {width}"
        );
        assert!(num_words > 0, "PeriodicInversion: num_words must be > 0");
        Self {
            width,
            parity: vec![false; num_words],
        }
    }
}

impl WriteTransducer for PeriodicInversion {
    fn name(&self) -> &'static str {
        "inversion"
    }

    fn width(&self) -> u32 {
        self.width
    }

    fn metadata_bits(&self) -> u32 {
        1
    }

    fn encode(&mut self, addr: u64, word: u64) -> (u64, Metadata) {
        check_word(self.width, word);
        let slot = &mut self.parity[usize::try_from(addr).expect("address fits usize")];
        let invert = *slot;
        *slot = !*slot;
        let stored = if invert {
            word ^ mask(self.width)
        } else {
            word
        };
        (stored, Metadata::Inverted(invert))
    }

    fn decode(&self, stored: u64, meta: Metadata) -> u64 {
        match meta {
            Metadata::Inverted(true) => stored ^ mask(self.width),
            Metadata::Inverted(false) => stored,
            other => panic!("PeriodicInversion: wrong metadata {other:?}"),
        }
    }

    fn encode_packed(&mut self, addrs: &[u64], raw: &[u64], out: &mut [u64]) {
        // XOR each word with its address's parity spread over the word.
        let (m, parity) = (mask(self.width), &mut self.parity);
        map_words(self.width, addrs.len(), raw, out, |i, word| {
            let slot = &mut parity[usize::try_from(addrs[i]).expect("address fits usize")];
            let invert = *slot;
            *slot = !invert;
            word ^ select_unpredictable(invert, m, 0)
        });
    }

    fn write_period(&self) -> Option<u64> {
        Some(2)
    }

    fn fork(&self, _shard: u64) -> Box<dyn WriteTransducer> {
        Box::new(self.clone())
    }
}

/// Barrel-shifter-based balancing: each write to a location is rotated
/// by one more bit position than the previous one (Kothawade et al.
/// ref. 15). Works only when the word's own bit distribution is balanced —
/// rotation spreads each bit over all positions but cannot fix an
/// overall `0`/`1` imbalance (paper observation 3).
#[derive(Debug, Clone)]
pub struct BarrelShifter {
    width: u32,
    counters: Vec<u8>,
}

impl BarrelShifter {
    /// Creates the transducer for a memory of `num_words` words of
    /// `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is invalid or `num_words == 0`.
    pub fn new(width: u32, num_words: usize) -> Self {
        assert!(
            (1..=64).contains(&width),
            "BarrelShifter: bad width {width}"
        );
        assert!(num_words > 0, "BarrelShifter: num_words must be > 0");
        Self {
            width,
            counters: vec![0; num_words],
        }
    }

    fn rotate_left(&self, word: u64, by: u32) -> u64 {
        let w = self.width;
        let by = by % w;
        if by == 0 {
            return word;
        }
        ((word << by) | (word >> (w - by))) & mask(w)
    }

    fn rotate_right(&self, word: u64, by: u32) -> u64 {
        let w = self.width;
        let by = by % w;
        if by == 0 {
            return word;
        }
        ((word >> by) | (word << (w - by))) & mask(w)
    }
}

impl WriteTransducer for BarrelShifter {
    fn name(&self) -> &'static str {
        "barrel-shifter"
    }

    fn width(&self) -> u32 {
        self.width
    }

    fn metadata_bits(&self) -> u32 {
        // ceil(log2(width)) bits of shift amount.
        32 - (self.width - 1).leading_zeros()
    }

    fn encode(&mut self, addr: u64, word: u64) -> (u64, Metadata) {
        check_word(self.width, word);
        let slot = &mut self.counters[usize::try_from(addr).expect("address fits usize")];
        let shift = u32::from(*slot) % self.width;
        *slot = ((u32::from(*slot) + 1) % self.width) as u8;
        (
            self.rotate_left(word, shift),
            Metadata::Rotated(shift as u8),
        )
    }

    fn decode(&self, stored: u64, meta: Metadata) -> u64 {
        match meta {
            Metadata::Rotated(shift) => self.rotate_right(stored, u32::from(shift)),
            other => panic!("BarrelShifter: wrong metadata {other:?}"),
        }
    }

    fn encode_packed(&mut self, addrs: &[u64], raw: &[u64], out: &mut [u64]) {
        // Rotate each word left by its address's counter, then step the
        // counter with a compare-and-reset (it is always below the
        // width). A zero shift needs no special case: `width - 0`
        // shifts the word out entirely or, at width 64, wraps to a
        // shift by 0, and both leave `word | word = word`.
        let (width, m, counters) = (self.width, mask(self.width), &mut self.counters);
        map_words(width, addrs.len(), raw, out, |i, word| {
            let counter = &mut counters[usize::try_from(addrs[i]).expect("address fits usize")];
            let shift = u32::from(*counter);
            *counter = if shift + 1 == width {
                0
            } else {
                shift as u8 + 1
            };
            ((word << shift) | word.wrapping_shr(width - shift)) & m
        });
    }

    fn write_period(&self) -> Option<u64> {
        Some(u64::from(self.width))
    }

    fn fork(&self, _shard: u64) -> Box<dyn WriteTransducer> {
        Box::new(self.clone())
    }
}

/// The paper's DNN-Life WDE/RDD: each word write is inverted or not
/// according to the enable bit from the [`AgingController`].
#[derive(Debug)]
pub struct DnnLife<T> {
    width: u32,
    controller: AgingController<T>,
}

impl<T: Trbg> DnnLife<T> {
    /// Creates the transducer around an aging controller.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or above 64.
    pub fn new(width: u32, controller: AgingController<T>) -> Self {
        assert!((1..=64).contains(&width), "DnnLife: bad width {width}");
        Self { width, controller }
    }

    /// Access to the controller (for bias reporting).
    pub fn controller(&self) -> &AgingController<T> {
        &self.controller
    }
}

impl<T: Trbg + Send + Sync + 'static> WriteTransducer for DnnLife<T> {
    fn name(&self) -> &'static str {
        "dnn-life"
    }

    fn width(&self) -> u32 {
        self.width
    }

    fn metadata_bits(&self) -> u32 {
        1
    }

    fn encode(&mut self, _addr: u64, word: u64) -> (u64, Metadata) {
        check_word(self.width, word);
        let enable = self.controller.next_enable();
        let stored = if enable {
            word ^ mask(self.width)
        } else {
            word
        };
        (stored, Metadata::Inverted(enable))
    }

    fn decode(&self, stored: u64, meta: Metadata) -> u64 {
        match meta {
            Metadata::Inverted(true) => stored ^ mask(self.width),
            Metadata::Inverted(false) => stored,
            other => panic!("DnnLife: wrong metadata {other:?}"),
        }
    }

    fn encode_packed(&mut self, addrs: &[u64], raw: &[u64], out: &mut [u64]) {
        // XOR each word with its enable bit spread over the word, one
        // TRBG draw per word in word order. The enable is random, so the
        // select must not become a branch.
        let (m, controller) = (mask(self.width), &mut self.controller);
        map_words(self.width, addrs.len(), raw, out, |_, word| {
            word ^ select_unpredictable(controller.next_enable(), m, 0)
        });
    }

    fn new_block(&mut self) {
        self.controller.new_block();
    }

    fn fork(&self, shard: u64) -> Box<dyn WriteTransducer> {
        Box::new(Self {
            width: self.width,
            controller: self.controller.fork(shard),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::write_bits;
    use crate::trbg::PseudoTrbg;

    fn duty_of_repeated_writes(t: &mut dyn WriteTransducer, word: u64, writes: u32) -> Vec<f64> {
        let width = t.width();
        let mut ones = vec![0u32; width as usize];
        for i in 0..writes {
            if i > 0 && i % 4 == 0 {
                t.new_block();
            }
            let (stored, _) = t.encode(0, word);
            for (pos, count) in ones.iter_mut().enumerate() {
                *count += (stored >> pos & 1) as u32;
            }
        }
        ones.iter()
            .map(|&c| f64::from(c) / f64::from(writes))
            .collect()
    }

    #[test]
    fn passthrough_identity() {
        let mut t = Passthrough::new(8);
        for w in [0u64, 0xFF, 0xA5] {
            let (stored, meta) = t.encode(0, w);
            assert_eq!(stored, w);
            assert_eq!(t.decode(stored, meta), w);
        }
        assert_eq!(t.metadata_bits(), 0);
    }

    #[test]
    fn inversion_alternates_per_location() {
        let mut t = PeriodicInversion::new(8, 4);
        let (s1, _) = t.encode(2, 0x0F);
        let (s2, _) = t.encode(2, 0x0F);
        let (s3, _) = t.encode(2, 0x0F);
        assert_eq!(s1, 0x0F);
        assert_eq!(s2, 0xF0); // inverted
        assert_eq!(s3, 0x0F);
        // Other locations have independent parity.
        let (o1, _) = t.encode(3, 0x0F);
        assert_eq!(o1, 0x0F);
    }

    #[test]
    fn inversion_balances_constant_word() {
        let mut t = PeriodicInversion::new(8, 1);
        let duties = duty_of_repeated_writes(&mut t, 0xFF, 100);
        for d in duties {
            assert!((d - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn barrel_shifter_cycles_through_all_rotations() {
        let mut t = BarrelShifter::new(8, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..8 {
            let (stored, _) = t.encode(0, 0b0000_0001);
            seen.insert(stored);
        }
        // A single 1-bit rotated through all 8 positions.
        assert_eq!(seen.len(), 8);
        let expected: std::collections::HashSet<u64> = (0..8).map(|i| 1u64 << i).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn barrel_shifter_spreads_but_preserves_mean() {
        // 0b00000111 has mean bit value 3/8; rotation equalises positions
        // at 3/8 but cannot reach 0.5 (paper observation 3).
        let mut t = BarrelShifter::new(8, 1);
        let duties = duty_of_repeated_writes(&mut t, 0b0000_0111, 80);
        for d in duties {
            assert!((d - 0.375).abs() < 1e-9);
        }
    }

    #[test]
    fn barrel_metadata_width() {
        assert_eq!(BarrelShifter::new(8, 1).metadata_bits(), 3);
        assert_eq!(BarrelShifter::new(32, 1).metadata_bits(), 5);
        assert_eq!(BarrelShifter::new(64, 1).metadata_bits(), 6);
    }

    #[test]
    fn dnn_life_balances_even_constant_biased_words() {
        // An all-ones word (duty 1.0 without mitigation) is driven to
        // ~0.5 by randomised inversion — the case where the barrel
        // shifter fails entirely.
        let controller = AgingController::new(PseudoTrbg::new(7, 0.5), 4);
        let mut t = DnnLife::new(8, controller);
        let duties = duty_of_repeated_writes(&mut t, 0xFF, 4000);
        for d in duties {
            assert!((d - 0.5).abs() < 0.03, "duty {d}");
        }
    }

    #[test]
    fn dnn_life_biased_trbg_without_balancing_misses_half() {
        let controller = AgingController::without_balancing(PseudoTrbg::new(7, 0.7));
        let mut t = DnnLife::new(8, controller);
        let duties = duty_of_repeated_writes(&mut t, 0xFF, 4000);
        // Stored bit = 1 XOR e, e ~ Bern(0.7) → duty ≈ 0.3.
        for d in duties {
            assert!((d - 0.3).abs() < 0.03, "duty {d}");
        }
    }

    #[test]
    fn dnn_life_biased_trbg_with_balancing_recovers() {
        let controller = AgingController::new(PseudoTrbg::new(7, 0.7), 4);
        let mut t = DnnLife::new(8, controller);
        let duties = duty_of_repeated_writes(&mut t, 0xFF, 4000);
        for d in duties {
            assert!((d - 0.5).abs() < 0.03, "duty {d}");
        }
    }

    #[test]
    fn all_policies_roundtrip() {
        let controller = AgingController::new(PseudoTrbg::new(3, 0.6), 4);
        let mut policies: Vec<Box<dyn WriteTransducer>> = vec![
            Box::new(Passthrough::new(16)),
            Box::new(PeriodicInversion::new(16, 8)),
            Box::new(BarrelShifter::new(16, 8)),
            Box::new(DnnLife::new(16, controller)),
        ];
        for p in &mut policies {
            for addr in 0..8u64 {
                for word in [0u64, 0xFFFF, 0x1234, 0x8001] {
                    let (stored, meta) = p.encode(addr, word);
                    assert_eq!(
                        p.decode(stored, meta),
                        word,
                        "policy {} failed roundtrip",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "has bits beyond width")]
    fn rejects_wide_words() {
        let mut t = Passthrough::new(8);
        let _ = t.encode(0, 0x100);
    }

    fn all_policies() -> Vec<Box<dyn WriteTransducer>> {
        vec![
            Box::new(Passthrough::new(8)),
            Box::new(PeriodicInversion::new(8, 16)),
            Box::new(BarrelShifter::new(8, 16)),
            Box::new(DnnLife::new(
                8,
                AgingController::new(PseudoTrbg::new(11, 0.7), 4),
            )),
        ]
    }

    #[test]
    fn encode_packed_matches_sequential_encode() {
        // The packed override must be observationally identical to
        // per-word `encode`: same stored bits and same state advance,
        // across block boundaries. (`tests/properties.rs` covers every
        // width and address pattern.)
        for proto in all_policies() {
            let mut packed = proto.fork(0);
            let mut sequential = proto.fork(0);
            for round in 0..40u64 {
                let addrs: Vec<u64> = (0..16).collect();
                let mut raw = vec![0u64; 2];
                let mut expect = vec![0u64; 2];
                for (i, &a) in addrs.iter().enumerate() {
                    let word = (a * 37 + round * 11) & 0xFF;
                    write_bits(&mut raw, i * 8, 8, word);
                    write_bits(&mut expect, i * 8, 8, sequential.encode(a, word).0);
                }
                let mut out = vec![0u64; 2];
                packed.encode_packed(&addrs, &raw, &mut out);
                assert_eq!(out, expect, "policy {} round {round}", proto.name());
                packed.new_block();
                sequential.new_block();
            }
        }
    }

    #[test]
    fn write_period_cycles_back_to_reset_state() {
        // After `write_period()` writes to every address (with block
        // boundaries interleaved), a periodic policy must store the
        // same bits a fresh instance would.
        for proto in all_policies() {
            let Some(period) = proto.write_period() else {
                assert_eq!(proto.name(), "dnn-life", "only DNN-Life is aperiodic");
                continue;
            };
            let mut cycled = proto.fork(0);
            for i in 0..period {
                for addr in 0..16u64 {
                    let _ = cycled.encode(addr, (addr + i) & 0xFF);
                }
                cycled.new_block();
            }
            let mut fresh = proto.fork(0);
            for addr in 0..16u64 {
                let word = (addr * 13) & 0xFF;
                assert_eq!(
                    cycled.encode(addr, word).0,
                    fresh.encode(addr, word).0,
                    "policy {} did not cycle after {period} writes",
                    proto.name()
                );
            }
        }
    }

    #[test]
    fn deterministic_forks_match_parent_stream_per_address() {
        // Fresh forks of the deterministic policies replay exactly what
        // the parent would have stored at each address, regardless of
        // shard index — the partition-invariance leg of the contract.
        let parents: Vec<Box<dyn WriteTransducer>> = vec![
            Box::new(Passthrough::new(8)),
            Box::new(PeriodicInversion::new(8, 16)),
            Box::new(BarrelShifter::new(8, 16)),
        ];
        for parent in parents {
            let mut serial = parent.fork(0);
            let mut sharded = parent.fork(7);
            for round in 0..5u64 {
                for addr in 0..16u64 {
                    let word = (addr * 31 + round) & 0xFF;
                    assert_eq!(
                        serial.encode(addr, word).0,
                        sharded.encode(addr, word).0,
                        "policy {} addr {addr} round {round}",
                        parent.name()
                    );
                }
                serial.new_block();
                sharded.new_block();
            }
        }
    }

    #[test]
    fn dnn_life_fork_zero_reproduces_parent_stream() {
        let make = || DnnLife::new(8, AgingController::new(PseudoTrbg::new(42, 0.7), 4));
        let prototype = make();
        let mut forked = prototype.fork(0);
        let mut fresh = make();
        for i in 0..200u64 {
            assert_eq!(forked.encode(i % 8, 0xA5).0, fresh.encode(i % 8, 0xA5).0);
            if i % 4 == 3 {
                forked.new_block();
                fresh.new_block();
            }
        }
    }

    #[test]
    fn dnn_life_forks_decorrelate_but_stay_balanced() {
        let prototype = DnnLife::new(8, AgingController::new(PseudoTrbg::new(42, 0.7), 4));
        let mut a = prototype.fork(1);
        let mut b = prototype.fork(2);
        let stream = |t: &mut Box<dyn WriteTransducer>| -> Vec<u64> {
            (0..4000u64)
                .map(|i| {
                    if i % 4 == 0 {
                        t.new_block();
                    }
                    t.encode(0, 0xFF).0
                })
                .collect()
        };
        let sa = stream(&mut a);
        let sb = stream(&mut b);
        assert_ne!(sa, sb, "distinct shards must draw distinct streams");
        // Each forked stream still balances the duty cycle.
        for s in [sa, sb] {
            let duty = s.iter().map(|w| (w & 1) as f64).sum::<f64>() / s.len() as f64;
            assert!((duty - 0.5).abs() < 0.03, "duty {duty}");
        }
    }
}
