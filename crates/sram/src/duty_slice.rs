//! Bit-sliced duty-cycle accumulation: 64 cells per `u64` operation.
//!
//! [`super::duty::DutyCycleTracker`] pays a branch and an f64 add *per
//! cell per recorded state* — the dominant cost of the exact memory
//! simulator's inner loop. [`DutySliceTracker`] replaces that with
//! vertical carry-save counters: each recorded state word is folded
//! into `PLANES` bit-plane words (plane `p` holds bit `p` of every
//! cell's pending count), so one record costs a branch-free
//! `PLANES`-level ripple of `u64` ops per 64 cells. Pending planes
//! spill into per-cell `u64` counters every `2^PLANES − 1` records.
//!
//! Counts are kept as **integers per distinct dwell value** (grouped in
//! first-seen order) and converted to f64 duty once, at the end:
//!
//! * Uniform dwell (`1.0`, the paper's assumption (b) and the default)
//!   is exact by construction — the scalar tracker's repeated `+1.0`
//!   is integer arithmetic below 2^53, so `count as f64 / total as
//!   f64` reproduces it bit for bit.
//! * Non-uniform dwells are accumulated per group and combined as
//!   `Σ_g count_g × dwell_g` in first-seen group order — the grouped
//!   multiply-and-sum the exact simulator's store regression pins
//!   against the scalar tracker's goldens.
//!
//! Because counts are integers, *repeated identical write sequences
//! collapse into multiplication*: [`DutySliceTracker::scale`] multiplies
//! every count by a repetition factor exactly, which is what lets the
//! exact simulator simulate one period of a deterministic policy's
//! write cycle and replay it arithmetically.

/// Carry-save depth: pending per-cell counts up to `2^PLANES − 1`
/// before spilling into the 64-bit counters.
const PLANES: usize = 8;

/// Records per group between spills (`2^PLANES − 1`).
const SPILL_EVERY: u32 = (1 << PLANES) - 1;

/// Per-dwell-value accumulation state.
#[derive(Debug, Clone)]
struct DwellGroup {
    /// The group's dwell value (exact f64 bits).
    dwell: f64,
    /// States recorded under this dwell (after scaling).
    writes: u64,
    /// Spilled per-cell ones counts.
    counts: Vec<u64>,
    /// Carry-save planes, word-major: `planes[w * PLANES + p]` is bit
    /// plane `p` of state word `w`, so one record touches one cache
    /// line per state word.
    planes: Vec<u64>,
    /// Records folded into `planes` since the last spill
    /// (`< 2^PLANES`).
    pending: u32,
}

impl DwellGroup {
    fn new(dwell: f64, cells: usize, words: usize) -> Self {
        Self {
            dwell,
            writes: 0,
            counts: vec![0; cells],
            planes: vec![0; words * PLANES],
            pending: 0,
        }
    }

    /// Folds one packed state into the carry-save planes. `tail_mask`
    /// zeroes state bits beyond the cell population in the last word,
    /// mirroring the scalar tracker (which never reads them).
    #[inline]
    fn add(&mut self, state: &[u64], words: usize, tail_mask: u64) {
        for (w, word_planes) in self.planes.chunks_exact_mut(PLANES).enumerate() {
            let mut carry = state[w];
            if w == words - 1 {
                carry &= tail_mask;
            }
            // A fixed ripple through every plane: stopping once the
            // carry dies out is a branch that mispredicts on random
            // states and costs more than the levels it skips.
            for plane in word_planes.iter_mut() {
                let t = *plane & carry;
                *plane ^= carry;
                carry = t;
            }
            debug_assert_eq!(carry, 0, "carry-save overflow before spill");
        }
        self.writes += 1;
        self.pending += 1;
        if self.pending == SPILL_EVERY {
            self.spill();
        }
    }

    /// Drains the pending planes into the per-cell counters.
    fn spill(&mut self) {
        if self.pending == 0 {
            return;
        }
        for (w, word_planes) in self.planes.chunks_exact_mut(PLANES).enumerate() {
            let base = w * 64;
            for (level, plane) in word_planes.iter_mut().enumerate() {
                let mut bits = std::mem::take(plane);
                while bits != 0 {
                    let i = bits.trailing_zeros() as usize;
                    self.counts[base + i] += 1 << level;
                    bits &= bits - 1;
                }
            }
        }
        self.pending = 0;
    }
}

/// Bit-sliced, integer-counting drop-in for the scalar
/// [`super::duty::DutyCycleTracker`]: same cell layout, same recording
/// API, one final conversion to f64 duty cycles.
///
/// # Example
///
/// ```
/// use dnnlife_sram::DutySliceTracker;
///
/// let mut t = DutySliceTracker::new(128);
/// // All 128 cells store `1` for 3 write rounds...
/// t.record_packed(&[u64::MAX, u64::MAX], 1.0);
/// t.scale(3);
/// // ...then `0` for 1 round.
/// t.record_packed(&[0, 0], 1.0);
/// assert_eq!(t.into_duties()[5], 0.75);
/// ```
#[derive(Debug, Clone)]
pub struct DutySliceTracker {
    cells: usize,
    words: usize,
    /// Mask of live cell bits in the last state word.
    tail_mask: u64,
    /// Dwell groups in first-seen order. Uniform-dwell runs (the
    /// default) have exactly one.
    groups: Vec<DwellGroup>,
    /// Index of the most recently used group — the next record almost
    /// always repeats the same dwell.
    last: usize,
}

impl DutySliceTracker {
    /// Creates a tracker for `cells` cells.
    ///
    /// # Panics
    ///
    /// Panics if `cells == 0`.
    pub fn new(cells: usize) -> Self {
        assert!(cells > 0, "DutySliceTracker: cells must be > 0");
        Self {
            cells,
            words: cells.div_ceil(64),
            tail_mask: if cells.is_multiple_of(64) {
                u64::MAX
            } else {
                (1u64 << (cells % 64)) - 1
            },
            groups: Vec::new(),
            last: 0,
        }
    }

    /// Number of tracked cells.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Total accumulated time: `Σ_g writes_g × dwell_g` in first-seen
    /// group order (identical to the scalar tracker's running sum for
    /// uniform dwell).
    pub fn total_time(&self) -> f64 {
        self.groups.iter().map(|g| g.writes as f64 * g.dwell).sum()
    }

    /// Records a memory state held for `dwell` time units. `state` is
    /// bit-packed LSB-first: cell `i` is bit `i % 64` of word `i / 64`.
    /// Bits of `state` beyond `cells` are ignored, as in the scalar
    /// tracker.
    ///
    /// # Panics
    ///
    /// Panics if `state` is shorter than `ceil(cells / 64)` words or if
    /// `dwell` is not positive and finite.
    pub fn record_packed(&mut self, state: &[u64], dwell: f64) {
        assert!(
            dwell.is_finite() && dwell > 0.0,
            "DutySliceTracker: dwell must be positive, got {dwell}"
        );
        assert!(
            state.len() >= self.words,
            "DutySliceTracker: state has {} words, need {}",
            state.len(),
            self.words
        );
        let (words, tail_mask) = (self.words, self.tail_mask);
        let group = self.group_for(dwell);
        group.add(state, words, tail_mask);
    }

    /// Records an unpacked boolean state held for `dwell` time units
    /// (convenience for tests and small memories).
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != self.cells()` or `dwell` is not
    /// positive and finite.
    pub fn record_bits(&mut self, state: &[bool], dwell: f64) {
        assert_eq!(
            state.len(),
            self.cells,
            "DutySliceTracker: state length mismatch"
        );
        let mut packed = vec![0u64; self.words];
        for (i, &bit) in state.iter().enumerate() {
            if bit {
                packed[i / 64] |= 1 << (i % 64);
            }
        }
        self.record_packed(&packed, dwell);
    }

    /// Multiplies every accumulated count (and write total) by
    /// `factor` — exact integer run-length replay of everything
    /// recorded so far. The exact simulator records one period of a
    /// deterministic policy's write cycle and scales it by the number
    /// of repetitions instead of re-simulating them.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0` or a count would overflow `u64`.
    pub fn scale(&mut self, factor: u64) {
        assert!(factor > 0, "DutySliceTracker: scale factor must be > 0");
        if factor == 1 {
            return;
        }
        for group in &mut self.groups {
            group.spill();
            group.writes = group
                .writes
                .checked_mul(factor)
                .expect("DutySliceTracker: write count overflow");
            for count in &mut group.counts {
                *count = count
                    .checked_mul(factor)
                    .expect("DutySliceTracker: ones count overflow");
            }
        }
    }

    /// Converts the integer counts to per-cell duty cycles:
    /// `Σ_g count_g[i] × dwell_g / Σ_g writes_g × dwell_g`, group sums
    /// in first-seen order. All zeros if nothing was recorded. Counts
    /// above 2^53 lose the integer-exactness guarantee (as would the
    /// scalar tracker's f64 accumulation).
    pub fn into_duties(mut self) -> Vec<f64> {
        let total = self.total_time();
        if total == 0.0 {
            return vec![0.0; self.cells];
        }
        for group in &mut self.groups {
            group.spill();
        }
        let mut duties = vec![0.0; self.cells];
        if let [single] = self.groups.as_slice() {
            // One dwell value (the uniform case): duty is a pure
            // integer ratio — skip the per-group multiply entirely.
            // Counts range over 0..=writes, so when that range is small
            // a lookup table replaces the per-cell divide with the
            // identical precomputed quotient.
            if single.writes <= 1 << 16 {
                let table: Vec<f64> = (0..=single.writes)
                    .map(|c| (c as f64 * single.dwell) / total)
                    .collect();
                for (d, &count) in duties.iter_mut().zip(&single.counts) {
                    *d = table[count as usize];
                }
            } else {
                for (d, &count) in duties.iter_mut().zip(&single.counts) {
                    *d = (count as f64 * single.dwell) / total;
                }
            }
        } else {
            for group in &self.groups {
                for (d, &count) in duties.iter_mut().zip(&group.counts) {
                    *d += count as f64 * group.dwell;
                }
            }
            for d in &mut duties {
                *d /= total;
            }
        }
        duties
    }

    fn group_for(&mut self, dwell: f64) -> &mut DwellGroup {
        let key = dwell.to_bits();
        if let Some(i) = self
            .groups
            .get(self.last)
            .map(|g| g.dwell.to_bits() == key)
            .and_then(|hit| hit.then_some(self.last))
            .or_else(|| self.groups.iter().position(|g| g.dwell.to_bits() == key))
        {
            self.last = i;
        } else {
            self.groups
                .push(DwellGroup::new(dwell, self.cells, self.words));
            self.last = self.groups.len() - 1;
        }
        &mut self.groups[self.last]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duty::DutyCycleTracker;

    fn duties_of(t: &DutyCycleTracker) -> Vec<f64> {
        t.duties().collect()
    }

    #[test]
    fn matches_scalar_on_uniform_dwell() {
        let mut sliced = DutySliceTracker::new(130);
        let mut scalar = DutyCycleTracker::new(130);
        for round in 0u64..600 {
            let pattern = [
                round.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                !round,
                round & 3, // only bits 0..2 of the tail word are live
            ];
            sliced.record_packed(&pattern, 1.0);
            scalar.record_packed(&pattern, 1.0);
        }
        assert_eq!(sliced.into_duties(), duties_of(&scalar));
    }

    #[test]
    fn matches_scalar_on_grouped_dyadic_dwells() {
        // Dyadic dwell values make both accumulation orders exact, so
        // the grouped multiply-and-sum must be bit-identical.
        let mut sliced = DutySliceTracker::new(64);
        let mut scalar = DutyCycleTracker::new(64);
        for round in 0u64..300 {
            let state = [round.wrapping_mul(0x243F_6A88_85A3_08D3)];
            let dwell = [0.25, 0.5, 1.0, 2.0][(round % 4) as usize];
            sliced.record_packed(&state, dwell);
            scalar.record_packed(&state, dwell);
        }
        assert_eq!(sliced.into_duties(), duties_of(&scalar));
    }

    #[test]
    fn scale_is_exact_run_length_replay() {
        let mut scaled = DutySliceTracker::new(70);
        let mut replayed = DutySliceTracker::new(70);
        let states = [
            [0xFFFF_0000_FF00_F0F0u64, 0x3F],
            [0x0F0F_0F0F_0F0F_0F0F, 0x15],
        ];
        for state in &states {
            scaled.record_packed(state, 1.0);
        }
        scaled.scale(7);
        for _ in 0..7 {
            for state in &states {
                replayed.record_packed(state, 1.0);
            }
        }
        assert_eq!(scaled.into_duties(), replayed.into_duties());
    }

    #[test]
    fn spill_boundary_is_seamless() {
        // Cross the 2^PLANES − 1 pending ceiling several times over.
        let mut sliced = DutySliceTracker::new(64);
        let mut scalar = DutyCycleTracker::new(64);
        for round in 0u64..(u64::from(SPILL_EVERY) * 3 + 5) {
            let state = [1u64 << (round % 64) | 1];
            sliced.record_packed(&state, 1.0);
            scalar.record_packed(&state, 1.0);
        }
        assert_eq!(sliced.into_duties(), duties_of(&scalar));
    }

    #[test]
    fn multi_word_all_ones_stress_matches_scalar_across_spills_and_scales() {
        // 130 cells: three state words, two live bits in the last. All
        // ones carries through every plane on every record; every 7th
        // record clears a few cells so the duties differ per cell.
        let mut sliced = DutySliceTracker::new(130);
        let mut scalar = DutyCycleTracker::new(130);
        let mut history: Vec<[u64; 3]> = Vec::new();
        for round in 0..u64::from(SPILL_EVERY) * 2 + 3 {
            let state = if round % 7 == 3 {
                [!(1u64 << (round % 64)), u64::MAX >> (round % 5), !2]
            } else {
                [u64::MAX; 3]
            };
            sliced.record_packed(&state, 1.0);
            scalar.record_packed(&state, 1.0);
            history.push(state);
            if round == 100 || round == u64::from(SPILL_EVERY) + 40 {
                // `scale(3)` replays everything so far twice more.
                sliced.scale(3);
                let past = history.clone();
                for state in past.iter().chain(&past) {
                    scalar.record_packed(state, 1.0);
                    history.push(*state);
                }
            }
        }
        assert_eq!(sliced.into_duties(), duties_of(&scalar));
    }

    #[test]
    fn empty_tracker_reports_zero() {
        let t = DutySliceTracker::new(5);
        assert_eq!(t.total_time(), 0.0);
        assert_eq!(t.into_duties(), vec![0.0; 5]);
    }

    #[test]
    fn record_bits_matches_record_packed() {
        let bits: Vec<bool> = (0..70).map(|i| i % 3 == 0).collect();
        let mut words = [0u64; 2];
        for (i, &b) in bits.iter().enumerate() {
            if b {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        let mut from_bits = DutySliceTracker::new(70);
        from_bits.record_bits(&bits, 2.0);
        let mut from_packed = DutySliceTracker::new(70);
        from_packed.record_packed(&words, 2.0);
        assert_eq!(from_bits.into_duties(), from_packed.into_duties());
    }

    #[test]
    #[should_panic(expected = "dwell must be positive")]
    fn rejects_zero_dwell() {
        let mut t = DutySliceTracker::new(1);
        t.record_packed(&[1], 0.0);
    }

    #[test]
    #[should_panic(expected = "state has 1 words, need 2")]
    fn rejects_short_state() {
        let mut t = DutySliceTracker::new(100);
        t.record_packed(&[0], 1.0);
    }
}
