//! Closed-form lifetime simulator.
//!
//! The same `K` blocks cycle through the weight memory every inference
//! (§III-B), so a cell's lifetime bit sequence is highly structured and
//! per-policy duty cycles have closed forms:
//!
//! * **no mitigation** — duty is the mean of the cell's `K` block bits;
//! * **periodic inversion** — the per-location write parity alternates
//!   deterministically; the duty is an exact average over the
//!   `lcm(2, K)` write cycle plus the partial remainder;
//! * **barrel shifter** — the (data, shift) pair cycles with period
//!   `lcm(K, W)`; full cycles reduce to per-residue bit sums and the
//!   remainder is replayed directly — still exact;
//! * **DNN-Life** — conditioning on the deterministic bias-balancing
//!   MSB schedule, the number of inverted writes among a cell's `T`
//!   writes is a sum of independent Bernoulli draws, i.e. *two binomial
//!   variables* (one for writes where the stored bit would be the data
//!   bit, one for the complement). Sampling those two binomials per
//!   cell reproduces the exact per-cell duty distribution without
//!   simulating a single TRBG draw.
//!
//! One caveat is shared with every analytic treatment: cells in the
//! same word share TRBG draws, so *across* cells duties are weakly
//! correlated; sampling per cell preserves every marginal (and hence
//! the expected histogram) but not that correlation. The cross-
//! validation tests against the event-driven simulator bound the
//! effect.
//!
//! Work is `O(cells × K)` and embarrassingly parallel across words
//! (block sources are random-access). `sample_stride` simulates every
//! n-th word — an unbiased subsample of the cell population for
//! histogram purposes.

use crate::plan::BlockSource;
use crate::rng::SplitMix64;
use dnnlife_numerics::sample_binomial;
use dnnlife_telemetry::{Counter, SpanId, Telemetry};

/// Mitigation policy, in the closed-form parameterisation used by this
/// simulator (mirrors `dnnlife_mitigation::transducer`).
#[derive(Debug, Clone, PartialEq)]
pub enum AnalyticPolicy {
    /// No mitigation.
    Passthrough,
    /// Invert every other write to the same location.
    PeriodicInversion,
    /// Rotate each write by a per-location schedule (one more position
    /// per write).
    BarrelShifter,
    /// The paper's randomised inversion.
    DnnLife {
        /// TRBG probability of emitting 1.
        bias: f64,
        /// `Some(m)` enables the M-bit bias-balancing register.
        bias_balancing: Option<u32>,
        /// Seed for the per-cell binomial draws.
        seed: u64,
    },
}

impl AnalyticPolicy {
    /// Short name matching `WriteTransducer::name`.
    pub fn name(&self) -> &'static str {
        match self {
            AnalyticPolicy::Passthrough => "none",
            AnalyticPolicy::PeriodicInversion => "inversion",
            AnalyticPolicy::BarrelShifter => "barrel-shifter",
            AnalyticPolicy::DnnLife { .. } => "dnn-life",
        }
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyticSimConfig {
    /// Number of inferences over the device lifetime (the paper uses
    /// 100 to estimate duty cycles).
    pub inferences: u64,
    /// Simulate every `sample_stride`-th word (1 = all cells).
    pub sample_stride: usize,
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Contiguous word shards the sampled population is split into —
    /// the same work-partitioning axis the exact backend's
    /// `ExactShardConfig::shards` uses, so both backends share one
    /// execution story (`RunOptions { shards }` resolves this for
    /// both). 0 derives one shard per worker thread. **Never
    /// semantic**: the analytic per-cell draws are counter-seeded, so
    /// every shard count produces identical bytes (unlike the exact
    /// backend, where the shard count deals DNN-Life TRBG streams).
    pub shards: usize,
}

impl Default for AnalyticSimConfig {
    fn default() -> Self {
        Self {
            inferences: 100,
            sample_stride: 1,
            threads: 0,
            shards: 0,
        }
    }
}

// The campaign executor calls `simulate_analytic` from scenario worker
// threads while the simulator itself shards cells across inner threads,
// so its inputs must stay `Send + Sync` (`BlockSource` already has the
// `Sync` supertrait). Enforced at compile time so a stray `Rc`/`RefCell`
// in a future policy variant fails here, not in a consumer crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AnalyticPolicy>();
    assert_send_sync::<AnalyticSimConfig>();
    assert_send_sync::<crate::plan::FlatWeightMemory>();
    assert_send_sync::<crate::plan::FifoSlotMemory>();
};

/// Runs the analytic simulation, returning per-cell duty cycles for the
/// sampled words (cell order: sampled-word-major, bit 0 first).
///
/// # Panics
///
/// Panics if `sample_stride == 0` or `inferences == 0`.
///
/// # Example
///
/// ```
/// use dnnlife_accel::{simulate_analytic, AcceleratorConfig, AnalyticPolicy,
///                     AnalyticSimConfig, FlatWeightMemory};
/// use dnnlife_nn::NetworkSpec;
/// use dnnlife_quant::NumberFormat;
///
/// let mem = FlatWeightMemory::new(
///     &AcceleratorConfig::baseline(),
///     &NetworkSpec::custom_mnist(),
///     NumberFormat::Int8Symmetric,
///     42,
/// );
/// let cfg = AnalyticSimConfig { inferences: 100, sample_stride: 64, threads: 1, shards: 1 };
/// let duties = simulate_analytic(&mem, &AnalyticPolicy::PeriodicInversion, &cfg);
/// assert!(!duties.is_empty());
/// assert!(duties.iter().all(|d| (0.0..=1.0).contains(d)));
/// ```
pub fn simulate_analytic(
    source: &dyn BlockSource,
    policy: &AnalyticPolicy,
    cfg: &AnalyticSimConfig,
) -> Vec<f64> {
    simulate_analytic_telemetry(source, policy, cfg, None, SpanId::NONE)
}

/// [`simulate_analytic`] with an observability handle: shard and cell
/// counts are rolled into `telemetry`, and each word shard journals an
/// `analytic_shard` trace span under `parent` ([`AnalyticSimConfig`]
/// stays a plain `Eq` value type, so the borrowed handle and span
/// parent ride alongside it instead of inside). Never semantic —
/// duties are byte-identical with or without it.
///
/// # Panics
///
/// Panics if `sample_stride == 0` or `inferences == 0`.
pub fn simulate_analytic_telemetry(
    source: &dyn BlockSource,
    policy: &AnalyticPolicy,
    cfg: &AnalyticSimConfig,
    telemetry: Option<&Telemetry>,
    parent: SpanId,
) -> Vec<f64> {
    assert!(
        cfg.sample_stride > 0,
        "simulate_analytic: stride must be > 0"
    );
    assert!(
        cfg.inferences > 0,
        "simulate_analytic: inferences must be > 0"
    );
    let geo = source.geometry();
    let width = geo.word_bits as usize;
    let k_blocks = source.block_count();
    for block in 0..k_blocks {
        assert!(
            (source.dwell(block) - 1.0).abs() < 1e-12,
            "simulate_analytic: closed forms assume equal residency \
             (paper assumption (b)); use simulate_exact_sharded for weighted dwell"
        );
    }
    let telemetry = telemetry.unwrap_or_else(|| Telemetry::noop());
    let sampled: Vec<usize> = (0..geo.words).step_by(cfg.sample_stride).collect();
    if k_blocks == 0 {
        // An unused memory unit holds its reset state (all zeros).
        telemetry.add(
            Counter::AnalyticCellsSimulated,
            (sampled.len() * width) as u64,
        );
        return vec![0.0; sampled.len() * width];
    }

    // Deterministic per-block counts of MSB-high inferences for the
    // DNN-Life bias-balancing schedule (empty for other policies).
    let m1: Vec<u64> = match policy {
        AnalyticPolicy::DnnLife {
            bias_balancing: Some(m_bits),
            ..
        } => (0..k_blocks)
            .map(|k| {
                (0..cfg.inferences)
                    .filter(|&i| source.global_block_index(i, k) >> (m_bits - 1) & 1 == 1)
                    .count() as u64
            })
            .collect(),
        _ => Vec::new(),
    };

    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        cfg.threads
    }
    .max(1);
    // Same partitioning story as the exact backend: contiguous balanced
    // word shards, executed by up to `threads` workers. Per-cell duties
    // are counter-seeded, so the partition is never semantic here.
    let shards = if cfg.shards == 0 { threads } else { cfg.shards }.clamp(1, sampled.len().max(1));
    let ranges = crate::exact::shard_ranges(sampled.len(), shards);
    let workers = threads.min(shards);

    /// One shard's work: its sampled-word range and the disjoint
    /// output slice it writes.
    type ShardJob<'a> = (std::ops::Range<usize>, &'a mut [f64]);

    let mut duties = vec![0.0f64; sampled.len() * width];
    {
        let m1 = &m1;
        let sampled = &sampled;
        // Hand each shard its disjoint output slice up front; workers
        // then pull (range, slice) pairs until the queue drains.
        let mut queue: Vec<ShardJob> = Vec::with_capacity(ranges.len());
        let mut rest: &mut [f64] = duties.as_mut_slice();
        for range in ranges {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(range.len() * width);
            rest = tail;
            queue.push((range, head));
        }
        if workers == 1 {
            for (range, out) in queue {
                let span = telemetry.span_start("analytic_shard", parent);
                simulate_words(source, policy, cfg, k_blocks, m1, &sampled[range], out);
                telemetry.span_end(span);
            }
        } else {
            let next = std::sync::atomic::AtomicUsize::new(0);
            let jobs: Vec<std::sync::Mutex<Option<ShardJob>>> = queue
                .drain(..)
                .map(|job| std::sync::Mutex::new(Some(job)))
                .collect();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    let (next, jobs) = (&next, &jobs);
                    scope.spawn(move || loop {
                        let slot = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(job) = jobs.get(slot) else {
                            break;
                        };
                        let (range, out) = job
                            .lock()
                            .expect("job mutex never poisoned")
                            .take()
                            .expect("each job claimed once");
                        let span = telemetry.span_start("analytic_shard", parent);
                        simulate_words(source, policy, cfg, k_blocks, m1, &sampled[range], out);
                        telemetry.span_end(span);
                    });
                }
            });
        }
    }
    telemetry.add(Counter::AnalyticShardsRun, shards as u64);
    telemetry.add(Counter::AnalyticCellsSimulated, duties.len() as u64);
    duties
}

/// Simulates one contiguous range of sampled words.
fn simulate_words(
    source: &dyn BlockSource,
    policy: &AnalyticPolicy,
    cfg: &AnalyticSimConfig,
    k_blocks: u64,
    m1: &[u64],
    words: &[usize],
    out: &mut [f64],
) {
    let width = source.geometry().word_bits as usize;
    let t_writes = cfg.inferences * k_blocks;
    let mut block_bits: Vec<u64> = vec![0; k_blocks as usize];

    for (wi, &word) in words.iter().enumerate() {
        for k in 0..k_blocks {
            block_bits[k as usize] = source.word(k, word);
        }
        let cell_base = word as u64 * width as u64;
        let out = &mut out[wi * width..(wi + 1) * width];
        match policy {
            AnalyticPolicy::Passthrough => {
                for (j, slot) in out.iter_mut().enumerate() {
                    let ones: u64 = block_bits.iter().map(|b| b >> j & 1).sum();
                    *slot = ones as f64 / k_blocks as f64;
                }
            }
            AnalyticPolicy::PeriodicInversion => {
                inversion_duties(&block_bits, t_writes, out);
            }
            AnalyticPolicy::BarrelShifter => {
                barrel_duties(&block_bits, width, t_writes, out);
            }
            AnalyticPolicy::DnnLife {
                bias,
                bias_balancing,
                seed,
            } => {
                dnn_life_duties(
                    &block_bits,
                    cfg.inferences,
                    *bias,
                    bias_balancing.is_some().then_some(m1),
                    *seed,
                    cell_base,
                    out,
                );
            }
        }
    }
}

/// Exact duty under alternating per-location inversion.
fn inversion_duties(block_bits: &[u64], t_writes: u64, out: &mut [f64]) {
    let k = block_bits.len() as u64;
    let cycle = 2 * k; // write pattern repeats every 2K writes
    let full_cycles = t_writes / cycle;
    let rem = t_writes % cycle;
    for (j, slot) in out.iter_mut().enumerate() {
        // Ones per full 2K cycle.
        let mut cycle_ones = 0u64;
        for t in 0..cycle {
            let bit = block_bits[(t % k) as usize] >> j & 1;
            cycle_ones += bit ^ (t & 1);
        }
        let mut ones = full_cycles * cycle_ones;
        for t in 0..rem {
            let bit = block_bits[(t % k) as usize] >> j & 1;
            ones += bit ^ (t & 1);
        }
        *slot = ones as f64 / t_writes as f64;
    }
}

/// Exact duty under the per-location rotation schedule.
fn barrel_duties(block_bits: &[u64], width: usize, t_writes: u64, out: &mut [f64]) {
    let k = block_bits.len() as u64;
    let w = width as u64;
    let g = gcd(k, w);
    let cycle = k / g * w; // lcm(K, W)
    let full_cycles = t_writes / cycle;
    let rem = t_writes % cycle;

    // Per-residue bit sums: u[k][c] = Σ_{p ≡ c (mod g)} bit_k[p].
    // Over one lcm cycle each (k, s ≡ k mod g) pair occurs once, and
    // stored bit j of rot_left(word_k, s) is word_k[(j − s) mod W], so
    // the cycle sum at position j is Σ_k u[k][(j − k) mod g].
    let mut ones = vec![0u64; width];
    if full_cycles > 0 {
        let mut u = vec![0u64; g as usize];
        for (ki, bits) in block_bits.iter().enumerate() {
            u.iter_mut().for_each(|v| *v = 0);
            for p in 0..w {
                u[(p % g) as usize] += bits >> p & 1;
            }
            for (j, slot) in ones.iter_mut().enumerate() {
                let c = (j as u64 + w - (ki as u64 % w)) % w % g;
                *slot += full_cycles * u[c as usize];
            }
        }
    }
    // Remainder writes replayed directly.
    for t in 0..rem {
        let bits = block_bits[(t % k) as usize];
        let s = t % w;
        for (j, slot) in ones.iter_mut().enumerate() {
            let p = (j as u64 + w - s) % w;
            *slot += bits >> p & 1;
        }
    }
    for (j, slot) in out.iter_mut().enumerate() {
        *slot = ones[j] as f64 / t_writes as f64;
    }
}

/// Duty under DNN-Life randomised inversion: deterministic schedule
/// counts plus two binomial draws per cell.
fn dnn_life_duties(
    block_bits: &[u64],
    inferences: u64,
    bias: f64,
    m1: Option<&[u64]>,
    seed: u64,
    cell_base: u64,
    out: &mut [f64],
) {
    let t_writes = inferences * block_bits.len() as u64;
    for (j, slot) in out.iter_mut().enumerate() {
        // n_plus: writes whose stored bit equals the raw TRBG draw
        // (data 0 & MSB 0, or data 1 & MSB 1); n_minus: the complement.
        let mut n_plus = 0u64;
        for (ki, bits) in block_bits.iter().enumerate() {
            let b = bits >> j & 1;
            let m1k = m1.map_or(0, |m| m[ki]);
            n_plus += if b == 1 { m1k } else { inferences - m1k };
        }
        let n_minus = t_writes - n_plus;
        let mut rng = SplitMix64::for_stream(seed, cell_base + j as u64);
        let x_plus = sample_binomial(&mut rng, n_plus, bias);
        let x_minus = sample_binomial(&mut rng, n_minus, bias);
        *slot = (n_minus + x_plus - x_minus) as f64 / t_writes as f64;
    }
}

fn gcd(a: u64, b: u64) -> u64 {
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
    fn gcd_basics() {
        assert_eq!(gcd(12, 8), 4);
        assert_eq!(gcd(7, 8), 1);
        assert_eq!(gcd(8, 8), 8);
        assert_eq!(gcd(5, 0), 5);
    }

    #[test]
    fn inversion_balances_odd_k() {
        // K = 3 identical all-ones blocks, T = 6 writes: parities cancel.
        let bits = vec![0xFFu64; 3];
        let mut out = vec![0.0; 8];
        inversion_duties(&bits, 6, &mut out);
        for d in out {
            assert!((d - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn inversion_stuck_for_even_k() {
        // K = 2 all-ones blocks: write parity is locked to block parity,
        // so bits alternate 1,0,1,0 → exactly 0.5 here; but with both
        // blocks at parity-matched values the duty stays data-dependent:
        // blocks [0xFF, 0x00] produce stored 0xFF (t even, no invert) and
        // 0xFF (t odd, invert 0x00) → duty 1.0.
        let bits = vec![0xFF, 0x00];
        let mut out = vec![0.0; 8];
        inversion_duties(&bits, 100, &mut out);
        for d in out {
            assert!((d - 1.0).abs() < 1e-12, "duty {d}");
        }
    }

    #[test]
    fn barrel_spreads_bits_across_positions() {
        // Single block 0b00000001, W = 8: each position holds the 1 for
        // exactly 1/8 of the writes.
        let bits = vec![0b1u64];
        let mut out = vec![0.0; 8];
        barrel_duties(&bits, 8, 800, &mut out);
        for d in out {
            assert!((d - 0.125).abs() < 1e-12, "duty {d}");
        }
    }

    #[test]
    fn barrel_cannot_fix_global_imbalance() {
        // 0b00001111: mean 0.5 per position after rotation — but
        // 0b01111111 stays at 7/8 everywhere.
        let bits = vec![0b0111_1111u64];
        let mut out = vec![0.0; 8];
        barrel_duties(&bits, 8, 800, &mut out);
        for d in out {
            assert!((d - 0.875).abs() < 1e-12, "duty {d}");
        }
    }

    #[test]
    fn barrel_remainder_exactness() {
        // T not a multiple of lcm(K, W): compare against brute force.
        let bits = vec![0b1010_0110u64, 0b0000_1111, 0b1110_0001];
        let (k, w, t) = (3u64, 8u64, 50u64);
        let mut out = vec![0.0; 8];
        barrel_duties(&bits, 8, t, &mut out);
        for j in 0..8u64 {
            let mut ones = 0u64;
            for tt in 0..t {
                let s = tt % w;
                let p = (j + w - s) % w;
                ones += bits[(tt % k) as usize] >> p & 1;
            }
            let expect = ones as f64 / t as f64;
            assert!(
                (out[j as usize] - expect).abs() < 1e-12,
                "bit {j}: {} vs {expect}",
                out[j as usize]
            );
        }
    }

    #[test]
    fn dnn_life_unbiased_concentrates_at_half() {
        // All-ones data, fair TRBG, many writes: duty ≈ 0.5 with
        // variance 1/(4T).
        let bits = vec![0xFFu64; 10];
        let mut out = vec![0.0; 8];
        dnn_life_duties(&bits, 400, 0.5, None, 9, 0, &mut out);
        for d in out {
            assert!((d - 0.5).abs() < 0.05, "duty {d}");
        }
    }

    #[test]
    fn dnn_life_biased_without_balancing_shifts_duty() {
        // Stored = data XOR e with e ~ Bern(0.7): all-ones data → duty
        // ≈ 0.3; all-zeros data → duty ≈ 0.7.
        let ones = vec![0xFFu64; 10];
        let zeros = vec![0x00u64; 10];
        let mut d_ones = vec![0.0; 8];
        let mut d_zeros = vec![0.0; 8];
        dnn_life_duties(&ones, 400, 0.7, None, 9, 0, &mut d_ones);
        dnn_life_duties(&zeros, 400, 0.7, None, 9, 64, &mut d_zeros);
        for d in d_ones {
            assert!((d - 0.3).abs() < 0.05, "ones-data duty {d}");
        }
        for d in d_zeros {
            assert!((d - 0.7).abs() < 0.05, "zeros-data duty {d}");
        }
    }

    #[test]
    fn dnn_life_biased_with_balancing_recovers_half() {
        // The MSB schedule flips half of the writes: a 0.7-biased TRBG
        // still yields ~0.5 duty. Build an m1 schedule with exactly half
        // the inferences MSB-high for every block.
        let bits = vec![0xFFu64; 10];
        let m1 = vec![200u64; 10]; // of 400 inferences
        let mut out = vec![0.0; 8];
        dnn_life_duties(&bits, 400, 0.7, Some(&m1), 9, 0, &mut out);
        for d in out {
            assert!((d - 0.5).abs() < 0.05, "duty {d}");
        }
    }

    #[test]
    fn shard_and_thread_counts_never_change_analytic_bytes() {
        use crate::config::AcceleratorConfig;
        use crate::plan::FlatWeightMemory;
        let mut hw = AcceleratorConfig::baseline();
        hw.weight_memory_bytes = 2048;
        let mem = FlatWeightMemory::new(
            &hw,
            &dnnlife_nn::NetworkSpec::custom_mnist(),
            dnnlife_quant::NumberFormat::Int8Symmetric,
            3,
        );
        let run = |threads: usize, shards: usize, policy: &AnalyticPolicy| {
            simulate_analytic(
                &mem,
                policy,
                &AnalyticSimConfig {
                    inferences: 6,
                    sample_stride: 5,
                    threads,
                    shards,
                },
            )
        };
        for policy in [
            AnalyticPolicy::BarrelShifter,
            AnalyticPolicy::DnnLife {
                bias: 0.7,
                bias_balancing: Some(4),
                seed: 11,
            },
        ] {
            let base = run(1, 1, &policy);
            for (threads, shards) in [(1, 7), (4, 1), (4, 16), (2, 0), (4, 1000)] {
                assert_eq!(
                    run(threads, shards, &policy),
                    base,
                    "{threads} thread(s) × {shards} shard(s) diverged for {policy:?}"
                );
            }
        }
    }

    #[test]
    fn per_cell_rng_is_deterministic() {
        let bits = vec![0x5Au64; 4];
        let mut a = vec![0.0; 8];
        let mut b = vec![0.0; 8];
        dnn_life_duties(&bits, 100, 0.5, None, 77, 1234, &mut a);
        dnn_life_duties(&bits, 100, 0.5, None, 77, 1234, &mut b);
        assert_eq!(a, b);
    }
}
