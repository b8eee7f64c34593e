//! Hamun-style wear-leveling remap: periodic hot-row rotation.
//!
//! ReRAM endurance wear concentrates on the rows whose data keeps them
//! in the high-stress state; rotating the logical→physical row mapping
//! on a fixed schedule spreads every logical row's stress over many
//! physical rows, pulling the worst physical duty toward the array
//! mean. The schedule here is fully deterministic — a remap *table*
//! derived from the array shape, no RNG — so campaign stores stay
//! byte-identical at any thread/shard count.
//!
//! The device lifetime is split into `epochs` equal segments; in epoch
//! `e` logical row `l` lives at physical row `(l + e·stride) mod rows`
//! (columns are preserved — rotation is row-granular, matching how
//! crossbar wordline drivers are re-pointed). The stride is forced odd
//! so the epoch offsets stay distinct for power-of-two row counts.
//!
//! Two consumers share this module:
//!
//! * `dnnlife-accel`'s remapped block source presents the *physical*
//!   view of the rotation to both simulators (aging follows physical
//!   cells),
//! * [`WearLevelRemap`] carries the schedule through the
//!   [`WriteTransducer`] contract so remap composes with the policy
//!   machinery like every other mitigation — its data path is the
//!   identity (remap moves words, it never rewrites them).

use crate::packed::{check_images, check_word};
use crate::transducer::{Metadata, WriteTransducer};

/// Deterministic logical↔physical row rotation schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemapSchedule {
    rows: u64,
    row_words: u64,
    epochs: u32,
    stride: u64,
}

impl RemapSchedule {
    /// Builds the schedule for a memory of `words` words arranged in
    /// rows of `row_words` words, rotated `epochs` times over the
    /// lifetime.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero or `words` is not a whole number
    /// of rows.
    pub fn new(words: usize, row_words: usize, epochs: u32) -> Self {
        assert!(words > 0, "RemapSchedule: empty memory");
        assert!(row_words > 0, "RemapSchedule: empty rows");
        assert!(epochs > 0, "RemapSchedule: need at least one epoch");
        assert!(
            words.is_multiple_of(row_words),
            "RemapSchedule: {words} words is not a whole number of {row_words}-word rows"
        );
        let rows = (words / row_words) as u64;
        // Spread the epoch offsets across the array; odd ⇒ distinct
        // offsets for power-of-two row counts.
        let stride = (rows / u64::from(epochs)).max(1) | 1;
        Self {
            rows,
            row_words: row_words as u64,
            epochs,
            stride,
        }
    }

    /// Number of lifetime epochs.
    pub fn epochs(&self) -> u32 {
        self.epochs
    }

    /// Rows in the array.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Row offset applied per epoch.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Physical word holding `logical` during `epoch`.
    ///
    /// # Panics
    ///
    /// Panics if `epoch >= epochs` or the word is out of range.
    pub fn physical_word(&self, logical: u64, epoch: u32) -> u64 {
        assert!(epoch < self.epochs, "epoch {epoch} out of range");
        let row = logical / self.row_words;
        assert!(row < self.rows, "word {logical} out of range");
        let col = logical % self.row_words;
        ((row + u64::from(epoch) * self.stride) % self.rows) * self.row_words + col
    }

    /// Logical word stored at `physical` during `epoch` — the inverse
    /// of [`RemapSchedule::physical_word`].
    ///
    /// # Panics
    ///
    /// Panics if `epoch >= epochs` or the word is out of range.
    pub fn logical_word(&self, physical: u64, epoch: u32) -> u64 {
        assert!(epoch < self.epochs, "epoch {epoch} out of range");
        let row = physical / self.row_words;
        assert!(row < self.rows, "word {physical} out of range");
        let col = physical % self.row_words;
        let shift = (u64::from(epoch) * self.stride) % self.rows;
        ((row + self.rows - shift) % self.rows) * self.row_words + col
    }

    /// Physical word holding `logical` in the *final* epoch — where an
    /// end-of-life read finds the data.
    pub fn final_physical_word(&self, logical: u64) -> u64 {
        self.physical_word(logical, self.epochs - 1)
    }
}

/// The wear-leveling policy as a [`WriteTransducer`]: the data path is
/// the identity (words are moved, never transformed), and the remap
/// schedule rides along so the plan layer can install the row
/// rotation. Deterministic, stateless, trivially fork-safe.
#[derive(Debug, Clone)]
pub struct WearLevelRemap {
    width: u32,
    schedule: RemapSchedule,
}

impl WearLevelRemap {
    /// Creates the transducer for `width`-bit words under `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or above 64.
    pub fn new(width: u32, schedule: RemapSchedule) -> Self {
        assert!(
            (1..=64).contains(&width),
            "WearLevelRemap: bad width {width}"
        );
        Self { width, schedule }
    }

    /// The rotation schedule this policy applies.
    pub fn schedule(&self) -> &RemapSchedule {
        &self.schedule
    }
}

impl WriteTransducer for WearLevelRemap {
    fn name(&self) -> &'static str {
        "wear-level"
    }

    fn width(&self) -> u32 {
        self.width
    }

    fn metadata_bits(&self) -> u32 {
        // The remap table is schedule-derived (one epoch counter per
        // array, not per-word sideband state).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remap_is_a_bijection_per_epoch() {
        let schedule = RemapSchedule::new(64, 8, 4);
        for epoch in 0..4 {
            let mut seen = [false; 64];
            for logical in 0..64u64 {
                let p = schedule.physical_word(logical, epoch);
                assert!(!seen[p as usize], "epoch {epoch}: collision at {p}");
                seen[p as usize] = true;
                assert_eq!(
                    schedule.logical_word(p, epoch),
                    logical,
                    "epoch {epoch} word {logical}"
                );
            }
        }
    }

    #[test]
    fn epoch_zero_is_the_identity_and_columns_are_preserved() {
        let schedule = RemapSchedule::new(256, 16, 4);
        for logical in [0u64, 1, 15, 16, 255] {
            assert_eq!(schedule.physical_word(logical, 0), logical);
        }
        for epoch in 1..4 {
            for logical in [3u64, 19, 250] {
                let p = schedule.physical_word(logical, epoch);
                assert_eq!(p % 16, logical % 16, "columns must be preserved");
                assert_ne!(p, logical, "later epochs must move row-sized data");
            }
        }
    }

    #[test]
    fn epoch_offsets_are_distinct_for_power_of_two_rows() {
        // 65536 words / 8-word rows = 8192 rows, 4 epochs: the odd
        // stride keeps every epoch's row offset distinct.
        let schedule = RemapSchedule::new(65_536, 8, 4);
        let offsets: Vec<u64> = (0..4).map(|e| schedule.physical_word(0, e) / 8).collect();
        for (i, a) in offsets.iter().enumerate() {
            for b in &offsets[i + 1..] {
                assert_ne!(a, b, "offsets {offsets:?}");
            }
        }
    }

    #[test]
    fn final_epoch_matches_physical_word() {
        let schedule = RemapSchedule::new(128, 8, 3);
        for logical in 0..128u64 {
            assert_eq!(
                schedule.final_physical_word(logical),
                schedule.physical_word(logical, 2)
            );
        }
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_rows_rejected() {
        let _ = RemapSchedule::new(100, 8, 4);
    }

    #[test]
    fn transducer_is_the_identity_and_round_trips() {
        let schedule = RemapSchedule::new(64, 8, 4);
        let mut t = WearLevelRemap::new(8, schedule);
        assert_eq!(t.name(), "wear-level");
        assert_eq!(t.metadata_bits(), 0);
        assert_eq!(t.write_period(), Some(1));
        for word in [0u64, 0xFF, 0xA5] {
            let (stored, meta) = t.encode(3, word);
            assert_eq!(stored, word);
            assert_eq!(t.decode(stored, meta), word);
        }
        let mut fork = t.fork(5);
        assert_eq!(fork.encode(0, 0x42).0, 0x42);
    }

    #[test]
    #[should_panic(expected = "has bits beyond width")]
    fn transducer_rejects_wide_words() {
        let schedule = RemapSchedule::new(64, 8, 2);
        let _ = WearLevelRemap::new(8, schedule).encode(0, 0x100);
    }
}
