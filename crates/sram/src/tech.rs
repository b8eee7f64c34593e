//! The memory-technology axis: which physical wear mechanism ages the
//! weight cells.
//!
//! The paper's pipeline is hard-wired to SRAM — duty cycle → NBTI ΔVth
//! → SNM degradation → Gaussian read failure, computed by
//! [`CalibratedSnmModel`](crate::snm::CalibratedSnmModel) and
//! [`ReadFailureModel`](crate::lifetime::ReadFailureModel). ReRAM
//! crossbars age by a different mechanism entirely: every *write*
//! consumes endurance, each cell has a lognormally distributed
//! endurance budget, and a worn-out cell fails *hard* (stuck at one
//! resistance state), not probabilistically per read. [`MemoryTech`]
//! names the two; callers `match` on it and call each technology's
//! model directly:
//!
//! * SRAM — the sweep's `degrade` stage calls
//!   `CalibratedSnmModel::degradation_percent`, and fault injection
//!   turns each duty level into a per-read flip probability;
//! * ReRAM — [`ReramEnduranceLifetime`]: duty-weighted write-stress
//!   wear against a deterministic per-cell lognormal endurance
//!   threshold (counter-hashed from a die seed, so thresholds are
//!   order- and thread-invariant); a worn-out cell is stuck at a
//!   die-determined value ([`ReramEnduranceLifetime::stuck_at`]).
//!
//! The wear model: each write cycle always pays a RESET baseline
//! ([`ReramEnduranceLifetime::RESET_WEAR`]) and pays the full SET
//! stress in proportion to the duty cycle — the fraction of the
//! lifetime the cell holds the high-stress state. Wear is therefore a
//! pure function of the *final* duty cycle, which is exactly what the
//! simulators already compute, and what makes wear-leveling remap
//! provably help: averaging physical duty toward the mean strictly
//! lowers the maximum wear.

/// Which physical lifetime mechanism ages the weight memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemoryTech {
    /// 6T-SRAM with NBTI duty-cycle aging (the paper's technology).
    #[default]
    SramNbti,
    /// ReRAM crossbar with write-endurance wear-out.
    ReramEndurance,
}

impl MemoryTech {
    /// Every technology, in canonical axis order.
    pub const ALL: [MemoryTech; 2] = [MemoryTech::SramNbti, MemoryTech::ReramEndurance];

    /// `true` for the default technology (SRAM) — stores omit the axis
    /// for it, keeping pre-axis record bytes intact.
    pub fn is_default(self) -> bool {
        self == MemoryTech::SramNbti
    }

    /// Short CLI / store name.
    pub fn display_name(self) -> &'static str {
        match self {
            MemoryTech::SramNbti => "sram",
            MemoryTech::ReramEndurance => "reram",
        }
    }

    /// Parses a CLI / store name ([`MemoryTech::display_name`] plus
    /// common aliases).
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "sram" | "sram-nbti" => Some(MemoryTech::SramNbti),
            "reram" | "reram-endurance" => Some(MemoryTech::ReramEndurance),
            _ => None,
        }
    }
}

// Stores carry the short CLI name ("sram" / "reram") rather than the
// variant identifier: the axis appears in spec JSON only when
// off-default, and the string form keeps those records grep-able and
// CLI-consistent.
impl serde::Serialize for MemoryTech {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.display_name().to_string())
    }
}

impl serde::Deserialize for MemoryTech {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::String(name) => Self::parse(name).ok_or_else(|| {
                serde::Error::new(format!("unknown memory tech {name:?} (sram | reram)"))
            }),
            _ => Err(serde::Error::new("MemoryTech: expected string")),
        }
    }
}

/// SplitMix64 finalizer — the counter-hash behind the per-cell
/// endurance thresholds and stuck-at values. Identical constants to the
/// seed-mixing finalizer used by the campaign layer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Domain separators so the threshold and stuck-value streams never
/// collide even for equal `die_seed ^ f(cell_index)` inputs.
const THRESHOLD_MIX: u64 = 0xE27D_0000_7EA4_D0CE;
const STUCK_MIX: u64 = 0xE27D_0000_57C0_A7B1;

/// ReRAM write-endurance wear-out.
///
/// Per-cell wear after `years` at duty `d` is
/// `years × WRITES_PER_YEAR × (RESET_WEAR + (1 − RESET_WEAR) × d)` —
/// every write cycle pays the RESET baseline, and SET stress scales
/// with the duty cycle. Each cell's endurance threshold is lognormal
/// (`MEDIAN_ENDURANCE_WRITES`, `SIGMA_LN`), drawn deterministically
/// from `(die_seed, cell_index)` by counter hashing — no RNG state, so
/// fates are independent of traversal order, thread count and shard
/// partition. A cell whose wear crosses its threshold is stuck at a
/// die-determined value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReramEnduranceLifetime {
    die_seed: u64,
}

impl ReramEnduranceLifetime {
    /// Write cycles per year of deployment (weight-memory refill rate).
    pub const WRITES_PER_YEAR: f64 = 1.0e5;
    /// Median per-cell endurance in write cycles (mid-range ReRAM).
    pub const MEDIAN_ENDURANCE_WRITES: f64 = 1.0e6;
    /// Lognormal shape of the endurance distribution.
    pub const SIGMA_LN: f64 = 0.45;
    /// Fraction of full SET stress every write cycle pays regardless of
    /// the stored value (the RESET half of the cycle).
    pub const RESET_WEAR: f64 = 0.2;

    /// A die sampled by `die_seed`: the seed determines every cell's
    /// endurance threshold and stuck-at polarity.
    pub fn new(die_seed: u64) -> Self {
        Self { die_seed }
    }

    /// Accumulated wear in write cycles after `years` at duty `duty` —
    /// duty-weighted write stress, a pure function of the final duty
    /// cycle.
    pub fn wear(duty: f64, years: f64) -> f64 {
        years * Self::WRITES_PER_YEAR * (Self::RESET_WEAR + (1.0 - Self::RESET_WEAR) * duty)
    }

    /// Consumed endurance of the *median* cell, in percent (capped at
    /// 100) — the population-level severity the sweep histograms
    /// aggregate. Die-independent: per-cell lognormal variation only
    /// decides which cells die ([`Self::stuck_at`]).
    pub fn degradation_percent(duty: f64, years: f64) -> f64 {
        (100.0 * Self::wear(duty, years) / Self::MEDIAN_ENDURANCE_WRITES).min(100.0)
    }

    /// The bit cell `cell_index` reads back after `years` at duty
    /// `duty` if its wear has crossed its endurance threshold, `None`
    /// while it still works.
    pub fn stuck_at(&self, duty: f64, cell_index: u64, years: f64) -> Option<bool> {
        (Self::wear(duty, years) >= self.cell_threshold(cell_index))
            .then(|| self.stuck_value(cell_index))
    }

    /// This cell's endurance threshold in write cycles: lognormal with
    /// median [`Self::MEDIAN_ENDURANCE_WRITES`] and shape
    /// [`Self::SIGMA_LN`], deterministic in `(die_seed, cell_index)`.
    fn cell_threshold(&self, cell_index: u64) -> f64 {
        let h1 = splitmix64(
            self.die_seed ^ THRESHOLD_MIX ^ cell_index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let h2 = splitmix64(h1 ^ THRESHOLD_MIX);
        // Box–Muller on two 53-bit uniforms; u1 is offset off zero so
        // ln never sees 0.
        let u1 = ((h1 >> 11) as f64 + 0.5) * (1.0 / 9_007_199_254_740_992.0);
        let u2 = (h2 >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        Self::MEDIAN_ENDURANCE_WRITES * (Self::SIGMA_LN * z).exp()
    }

    /// The value a worn-out cell reads as, deterministic in
    /// `(die_seed, cell_index)` — wear-out leaves a cell in whichever
    /// resistance state its filament froze in.
    fn stuck_value(&self, cell_index: u64) -> bool {
        splitmix64(self.die_seed ^ STUCK_MIX ^ cell_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)) & 1
            == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tech_parse_and_display_round_trip() {
        for tech in MemoryTech::ALL {
            assert_eq!(MemoryTech::parse(tech.display_name()), Some(tech));
        }
        assert_eq!(MemoryTech::parse("sram-nbti"), Some(MemoryTech::SramNbti));
        assert_eq!(
            MemoryTech::parse("reram-endurance"),
            Some(MemoryTech::ReramEndurance)
        );
        assert_eq!(MemoryTech::parse("flash"), None);
        assert!(MemoryTech::SramNbti.is_default());
        assert!(!MemoryTech::ReramEndurance.is_default());
        assert_eq!(MemoryTech::default(), MemoryTech::SramNbti);
    }

    #[test]
    fn reram_wear_scales_with_duty_and_years() {
        // duty 0 still wears (RESET baseline); duty 1 wears 5x faster
        // at RESET_WEAR = 0.2.
        let w0 = ReramEnduranceLifetime::wear(0.0, 7.0);
        let w1 = ReramEnduranceLifetime::wear(1.0, 7.0);
        assert!(w0 > 0.0);
        assert!((w1 / w0 - 5.0).abs() < 1e-12);
        assert!(ReramEnduranceLifetime::wear(1.0, 2.0) < w1);
        // 7 years at duty 1.0 consumes 70% of the median endurance.
        assert!((ReramEnduranceLifetime::degradation_percent(1.0, 7.0) - 70.0).abs() < 1e-9);
        // Degradation saturates at 100%.
        assert_eq!(
            ReramEnduranceLifetime::degradation_percent(1.0, 100.0),
            100.0
        );
    }

    #[test]
    fn reram_thresholds_are_lognormal_around_the_median() {
        let model = ReramEnduranceLifetime::new(0xD1E5EED);
        let n = 20_000u64;
        let mut below = 0u64;
        let mut sum_ln = 0.0f64;
        for cell in 0..n {
            let t = model.cell_threshold(cell);
            assert!(t.is_finite() && t > 0.0);
            if t < ReramEnduranceLifetime::MEDIAN_ENDURANCE_WRITES {
                below += 1;
            }
            sum_ln += (t / ReramEnduranceLifetime::MEDIAN_ENDURANCE_WRITES).ln();
        }
        // Median check: ~half the cells below the median endurance.
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "below-median fraction {frac}");
        // Mean of ln(threshold/median) ≈ 0 (the lognormal's mu).
        let mean_ln = sum_ln / n as f64;
        assert!(mean_ln.abs() < 0.02, "mean ln deviation {mean_ln}");
    }

    #[test]
    fn reram_death_rates_match_the_design_points() {
        let model = ReramEnduranceLifetime::new(7);
        let n = 50_000u64;
        let dead_frac = |duty: f64, years: f64| {
            (0..n)
                .filter(|&cell| model.stuck_at(duty, cell, years).is_some())
                .count() as f64
                / n as f64
        };
        // ~21% of duty-1.0 cells dead at 7 years; ~0.8% at the
        // wear-leveled duty; ~50% at 10 years.
        let hot7 = dead_frac(1.0, 7.0);
        assert!((0.18..0.25).contains(&hot7), "hot 7y death rate {hot7}");
        let leveled7 = dead_frac(0.35, 7.0);
        assert!(
            (0.002..0.02).contains(&leveled7),
            "leveled 7y death rate {leveled7}"
        );
        let hot10 = dead_frac(1.0, 10.0);
        assert!((0.45..0.55).contains(&hot10), "hot 10y death rate {hot10}");
        assert!(dead_frac(1.0, 2.0) < 0.002, "2y deaths should be rare");
    }

    #[test]
    fn reram_fates_are_deterministic_and_die_specific() {
        let a = ReramEnduranceLifetime::new(1);
        let b = ReramEnduranceLifetime::new(2);
        let mut differs = false;
        for cell in 0..2_000 {
            assert_eq!(a.stuck_at(1.0, cell, 7.0), a.stuck_at(1.0, cell, 7.0));
            differs |= a.stuck_at(1.0, cell, 7.0) != b.stuck_at(1.0, cell, 7.0);
        }
        assert!(differs, "distinct dies must sample distinct fate maps");
        // Stuck-at polarity is roughly balanced across cells.
        let ones = (0..10_000u64).filter(|&c| a.stuck_value(c)).count();
        assert!((4_000..6_000).contains(&ones), "stuck-1 cells: {ones}");
    }

    #[test]
    fn dead_cells_stay_dead_as_years_grow() {
        // Wear is monotone in years, so a cell dead at year y is dead
        // at every later year with the same stuck value.
        let model = ReramEnduranceLifetime::new(99);
        for cell in 0..2_000u64 {
            let mut was_dead: Option<bool> = None;
            for years in [2.0, 7.0, 10.0, 20.0] {
                let fate = model.stuck_at(0.8, cell, years);
                if was_dead.is_some() {
                    assert_eq!(fate, was_dead, "cell {cell} changed fate after death");
                } else {
                    was_dead = fate;
                }
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Wear is monotone in duty and years, and every cell's
            /// threshold is positive and finite.
            #[test]
            fn wear_monotone_and_thresholds_sane(
                duty in 0.0f64..1.0,
                years in 0.1f64..30.0,
                die in any::<u64>(),
                cell in any::<u64>(),
            ) {
                let w = ReramEnduranceLifetime::wear(duty, years);
                prop_assert!(w > 0.0);
                prop_assert!(ReramEnduranceLifetime::wear(duty + 1e-6, years) >= w);
                prop_assert!(ReramEnduranceLifetime::wear(duty, years + 1e-6) >= w);
                let t = ReramEnduranceLifetime::new(die).cell_threshold(cell);
                prop_assert!(t.is_finite() && t > 0.0);
            }
        }
    }
}
