//! Closed-form lifetime simulator.
//!
//! The same `K` blocks cycle through the weight memory every inference
//! (§III-B), so a cell's lifetime bit sequence is highly structured and
//! per-policy duty cycles have closed forms. All of them reduce to one
//! count per cell: fold the `K` stored block words, each passed
//! through a per-block transform, into per-(word, bit) counters `c`,
//! then finalize `c` into the exact integer number of 1-writes among
//! the cell's `T = inferences · K` writes:
//!
//! * **no mitigation** — identity transform; duty is `c / K`;
//! * **periodic inversion** — odd blocks inverted. Write parity repeats
//!   every `2K` writes and `T mod 2K ∈ {0, K}`; a full cycle holds
//!   `2c` ones for even `K` and exactly `K` for odd `K`;
//! * **barrel shifter** — block `k` rotated by `k mod W`. Rotation
//!   commutes with per-bit counting, so inference `i` adds `c` rotated
//!   by a further `iK mod W`: `ones_j = Σ_i times_i · c[(j − iK) mod
//!   W]` over the `W / gcd(K, W)` inferences of one `lcm(K, W)` cycle;
//! * **DNN-Life** — conditioning on the deterministic bias-balancing
//!   MSB schedule, the number of inverted writes among a cell's `T`
//!   writes is a sum of independent Bernoulli draws, i.e. *two binomial
//!   variables* (one for writes where the stored bit would be the data
//!   bit, one for the complement). The counters add the per-block
//!   write counts of the first kind; sampling those two binomials per
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
//! (block sources are random-access). The kernel runs block-major over
//! chunks of sampled words, gathering each block with one
//! [`BlockSource::fill`] per chunk. `sample_stride` simulates every
//! n-th word — an unbiased subsample of the cell population for
//! histogram purposes; [`simulate_analytic_telemetry`] takes any word
//! list, e.g. only the words that hold a network weight.
//!
//! Each cell's count `n` goes into a caller buffer, [`DutyCells`]:
//! `u32` counts keep `n` (inject's duty levels), `f64` duties the
//! correctly rounded `n / T` (the sweeps).

use crate::plan::BlockSource;
use crate::rng::SplitMix64;
use dnnlife_nn::exec;
use dnnlife_numerics::BinomialTable;
use dnnlife_telemetry::{SpanId, Telemetry};

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
/// sampled words (cell order: sampled-word-major, bit 0 first): the
/// `f64` instance of [`simulate_analytic_telemetry`] on the stride list.
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
    assert!(
        cfg.sample_stride > 0,
        "simulate_analytic: stride must be > 0"
    );
    let geo = source.geometry();
    let words: Vec<usize> = (0..geo.words).step_by(cfg.sample_stride).collect();
    let mut duties = vec![0.0; words.len() * geo.word_bits as usize];
    let out = DutyCells::Duties(&mut duties);
    simulate_analytic_telemetry(source, policy, cfg, &words, out, None, SpanId::NONE);
    duties
}

/// The caller buffer [`simulate_analytic_telemetry`] fills, one entry
/// per cell, from the cell's count `n` of 1-writes among its `T`
/// writes.
pub enum DutyCells<'a> {
    /// `n` itself. The run checks `T ≤ u32::MAX` once, before any work.
    Counts(&'a mut [u32]),
    /// The duty `n / T`, correctly rounded (0 for an empty unit).
    Duties(&'a mut [f64]),
}

impl<'a> DutyCells<'a> {
    fn len(&self) -> usize {
        match self {
            DutyCells::Counts(c) => c.len(),
            DutyCells::Duties(d) => d.len(),
        }
    }

    fn split_at_mut(self, mid: usize) -> (DutyCells<'a>, DutyCells<'a>) {
        match self {
            DutyCells::Counts(c) => {
                let (a, b) = c.split_at_mut(mid);
                (DutyCells::Counts(a), DutyCells::Counts(b))
            }
            DutyCells::Duties(d) => {
                let (a, b) = d.split_at_mut(mid);
                (DutyCells::Duties(a), DutyCells::Duties(b))
            }
        }
    }

    /// Stores the counts `ones` of `t_writes > 0` writes from cell `at`
    /// on.
    fn store(&mut self, at: usize, ones: &[u64], t_writes: u64) {
        match self {
            DutyCells::Counts(c) => {
                for (slot, &n) in c[at..].iter_mut().zip(ones) {
                    *slot = n as u32;
                }
            }
            DutyCells::Duties(d) => {
                for (slot, &n) in d[at..].iter_mut().zip(ones) {
                    *slot = n as f64 / t_writes as f64;
                }
            }
        }
    }
}

const CELLS_HELP: &str = "Analytic-backend cells simulated";

/// [`simulate_analytic`] on an explicit word list, into a caller
/// buffer, with an observability handle. `words` replaces the stride
/// list [`simulate_analytic`] derives from `cfg.sample_stride` (which
/// this function does not read): `out` receives one entry per cell
/// of exactly those words, in list order, word-major, bit 0
/// first. Returns `T = inferences × K`, the writes per cell (0 for an
/// empty unit, whose cells all read 0). Every closed form is per word
/// and DNN-Life's per-cell draws are keyed by the word index, so a
/// word's cells do not depend on which other words are listed.
/// Shard and cell counts are rolled into `telemetry`, and each word
/// shard journals an `analytic_shard` trace span under `parent`
/// ([`AnalyticSimConfig`] stays a plain `Eq` value type, so the
/// borrowed handle and span parent ride alongside it instead of
/// inside). Never semantic — the output is byte-identical with or
/// without it.
///
/// # Panics
///
/// Panics if `inferences == 0`, a listed word lies outside the
/// source's geometry, `out` does not hold `words.len() × word_bits`
/// cells, or `T` does not fit `u64` (`u32` for [`DutyCells::Counts`]).
pub fn simulate_analytic_telemetry(
    source: &dyn BlockSource,
    policy: &AnalyticPolicy,
    cfg: &AnalyticSimConfig,
    words: &[usize],
    out: DutyCells,
    telemetry: Option<&Telemetry>,
    parent: SpanId,
) -> u64 {
    assert!(
        cfg.inferences > 0,
        "simulate_analytic: inferences must be > 0"
    );
    let geo = source.geometry();
    assert!(
        words.iter().all(|&w| w < geo.words),
        "simulate_analytic: word index outside the memory"
    );
    let width = geo.word_bits as usize;
    assert_eq!(
        out.len(),
        words.len() * width,
        "simulate_analytic: one output cell per listed word bit"
    );
    let k_blocks = source.block_count();
    for block in 0..k_blocks {
        assert!(
            (source.dwell(block) - 1.0).abs() < 1e-12,
            "simulate_analytic: closed forms assume equal residency \
             (paper assumption (b)); use simulate_exact_sharded for weighted dwell"
        );
    }
    let t_writes = cfg.inferences.checked_mul(k_blocks).unwrap_or_else(|| {
        panic!(
            "simulate_analytic: T = {} inferences × {k_blocks} blocks writes per cell overflow u64",
            cfg.inferences
        )
    });
    if let (DutyCells::Counts(_), Err(e)) = (&out, u32::try_from(t_writes)) {
        panic!("simulate_analytic: T = {t_writes} writes per cell overflow u32 counts: {e}");
    }
    let telemetry = telemetry.unwrap_or_else(|| Telemetry::noop());
    let cells = out.len() as u64;
    if k_blocks == 0 {
        // An unused memory unit holds its reset state (all zeros).
        telemetry.count("analytic_cells_simulated", CELLS_HELP, cells);
        match out {
            DutyCells::Counts(c) => c.fill(0),
            DutyCells::Duties(d) => d.fill(0.0),
        }
        return 0;
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

    // Same partitioning story as the exact backend: contiguous balanced
    // word shards, one job each. Per-cell duties are counter-seeded, so
    // the partition is never semantic here.
    let threads = exec::thread_count(cfg.threads);
    let shards = if cfg.shards == 0 { threads } else { cfg.shards }.clamp(1, words.len().max(1));
    // Each shard's job owns its disjoint output slice.
    let mut jobs = Vec::with_capacity(shards);
    let mut rest = out;
    for range in crate::exact::shard_ranges(words.len(), shards) {
        let (out, tail) = rest.split_at_mut(range.len() * width);
        rest = tail;
        jobs.push((range, out));
    }
    exec::run_jobs(jobs, threads, None, |(range, out)| {
        let span = telemetry.span_start("analytic_shard", parent);
        simulate_words(source, policy, cfg, k_blocks, &m1, &words[range], out);
        telemetry.span_end(span);
        Some(())
    })
    .expect("no cancel flag and no failing job");
    telemetry.count(
        "analytic_shards_run",
        "Analytic-backend word shards executed",
        shards as u64,
    );
    telemetry.count("analytic_cells_simulated", CELLS_HELP, cells);
    t_writes
}

/// Sampled words per block pass: the per-cell counters of one chunk
/// (`CHUNK × W` of them, ≤ 78 KiB at 39-bit words) stay cache-resident
/// while all `K` blocks are folded in.
const CHUNK: usize = 256;

/// Simulates one contiguous range of sampled words, block-major over
/// chunks of [`CHUNK`] words: each block is gathered with one
/// [`BlockSource::fill`] per chunk, transformed per policy and folded
/// into per-(word, bit) counters (through byte-wide tallies, see
/// [`Run`]), which then finalize into 1-write counts.
fn simulate_words(
    source: &dyn BlockSource,
    policy: &AnalyticPolicy,
    cfg: &AnalyticSimConfig,
    k_blocks: u64,
    m1: &[u64],
    words: &[usize],
    mut out: DutyCells,
) {
    let width = source.geometry().word_bits as usize;
    let inferences = cfg.inferences;
    let mask = u64::MAX >> (64 - width);
    let mut finish = match policy {
        AnalyticPolicy::Passthrough => Finish::Passthrough,
        AnalyticPolicy::PeriodicInversion => Finish::Inversion,
        AnalyticPolicy::BarrelShifter => Finish::Barrel(barrel_terms(k_blocks, width, inferences)),
        AnalyticPolicy::DnnLife { bias, seed, .. } => {
            Finish::DnnLife(BinomialTable::new(*bias), *seed)
        }
    };
    // The counters are sums, so blocks may fold in any order: visiting
    // them by DNN-Life weight makes equally weighted blocks one run.
    let mut order: Vec<u64> = (0..k_blocks).collect();
    order.sort_by_key(|&k| m1.get(k as usize).copied().unwrap_or(0));
    let lanes = width.div_ceil(8);
    let mut raw = vec![0u64; words.len().min(CHUNK)];
    let mut counts = vec![0u64; raw.len() * width];
    let mut tally = vec![0u64; raw.len() * lanes];
    // On the stack: a per-shard heap buffer here left ~0.4 MiB more
    // anonymous memory resident in the fig11 sweep.
    let mut ones = [0u64; 64];
    let ones = &mut ones[..width];
    for (c, chunk) in words.chunks(CHUNK).enumerate() {
        let raw = &mut raw[..chunk.len()];
        let counts = &mut counts[..chunk.len() * width];
        let tally = &mut tally[..chunk.len() * lanes];
        counts.fill(0);
        let mut run = Run::default();
        for &k in &order {
            source.fill(k, chunk, raw);
            // The policy's per-block word transform, then what a stored
            // 0 and a stored 1 add to the bit's counter.
            let (zero, one) = match policy {
                AnalyticPolicy::Passthrough => (0, 1),
                AnalyticPolicy::PeriodicInversion => {
                    if k % 2 == 1 {
                        raw.iter_mut().for_each(|x| *x ^= mask);
                    }
                    (0, 1)
                }
                AnalyticPolicy::BarrelShifter => {
                    let r = (k % width as u64) as usize;
                    if r > 0 {
                        raw.iter_mut()
                            .for_each(|x| *x = (*x << r | *x >> (width - r)) & mask);
                    }
                    (0, 1)
                }
                AnalyticPolicy::DnnLife { .. } => {
                    // n_plus counts writes whose stored bit equals the raw
                    // TRBG draw: data 1 under MSB 1 (m1_k of the block's
                    // writes), data 0 under MSB 0 (the rest). Without
                    // balancing `m1` is empty and the MSB is always 0.
                    let m1k = m1.get(k as usize).copied().unwrap_or(0);
                    (inferences - m1k, m1k)
                }
            };
            if (zero, one) != (run.zero, run.one) || run.blocks == u64::from(u8::MAX) {
                run.flush(counts, tally, width);
                run = Run {
                    blocks: 0,
                    zero,
                    one,
                };
            }
            for (lane, &x) in tally.chunks_exact_mut(lanes).zip(raw.iter()) {
                for (g, byte) in lane.iter_mut().enumerate() {
                    *byte += SPREAD[(x >> (8 * g) & 0xFF) as usize];
                }
            }
            run.blocks += 1;
        }
        run.flush(counts, tally, width);
        for (i, (cells, &word)) in counts.chunks_exact(width).zip(chunk).enumerate() {
            finalize(&mut finish, cells, inferences, k_blocks, word, ones);
            out.store((c * CHUNK + i) * width, ones, inferences * k_blocks);
        }
    }
}

/// `SPREAD[b]` holds bit `j` of `b` in byte `j`: adding it to a `u64`
/// counts eight bits at once, one byte-wide counter per bit.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut j = 0;
        while j < 8 {
            table[b] |= (b as u64 >> j & 1) << (8 * j);
            j += 1;
        }
        b += 1;
    }
    table
};

/// A run of consecutive folded blocks that add the same `zero` or `one`
/// per stored bit. Its per-bit set counts wait in byte-wide tallies
/// (one `u64` of eight per 8 bits of a word), so a run is at most 255
/// blocks long.
#[derive(Default)]
struct Run {
    blocks: u64,
    zero: u64,
    one: u64,
}

impl Run {
    /// Adds the run to the counters — a bit set in `n` of its blocks
    /// adds `(blocks − n)·zero + n·one` — and clears the tallies.
    fn flush(&self, counts: &mut [u64], tally: &mut [u64], width: usize) {
        if self.blocks == 0 {
            return;
        }
        let lanes = width.div_ceil(8);
        for (cells, lane) in counts
            .chunks_exact_mut(width)
            .zip(tally.chunks_exact_mut(lanes))
        {
            for (j, c) in cells.iter_mut().enumerate() {
                let n = lane[j / 8] >> (8 * (j % 8)) & 0xFF;
                *c += (self.blocks - n) * self.zero + n * self.one;
            }
            lane.fill(0);
        }
    }
}

/// The policy's closed form, with what [`finalize`] keeps across the
/// words of one shard.
enum Finish {
    Passthrough,
    Inversion,
    /// The barrel shifter's rotation terms ([`barrel_terms`]).
    Barrel(Vec<(usize, u64)>),
    /// DNN-Life's binomials at the policy's bias, rows cached across
    /// words, and its seed.
    DnnLife(BinomialTable, u64),
}

/// Turns one word's per-bit counters into the exact count of 1-writes
/// of each bit over all `T = inferences · K` writes.
fn finalize(
    finish: &mut Finish,
    counts: &[u64],
    inferences: u64,
    k_blocks: u64,
    word: usize,
    out: &mut [u64],
) {
    let width = counts.len();
    let t_writes = inferences * k_blocks;
    match finish {
        Finish::Passthrough => {
            for (slot, &c) in out.iter_mut().zip(counts) {
                *slot = inferences * c;
            }
        }
        Finish::Inversion => {
            // `c` counts one inference with odd blocks inverted. Write
            // parity repeats every 2K writes and T mod 2K ∈ {0, K}: a
            // 2K cycle holds 2c ones for even K; for odd K its second
            // half is the complement of the first, so it holds K.
            for (slot, &c) in out.iter_mut().zip(counts) {
                *slot = if k_blocks.is_multiple_of(2) {
                    inferences * c
                } else {
                    inferences / 2 * k_blocks + inferences % 2 * c
                };
            }
        }
        Finish::Barrel(barrel) => {
            for (j, slot) in out.iter_mut().enumerate() {
                *slot = barrel
                    .iter()
                    .map(|&(s, times)| times * counts[if j >= s { j - s } else { j + width - s }])
                    .sum();
            }
        }
        Finish::DnnLife(table, seed) => {
            let cell_base = word as u64 * width as u64;
            for (j, (slot, &n_plus)) in out.iter_mut().zip(counts).enumerate() {
                let n_minus = t_writes - n_plus;
                let mut rng = SplitMix64::for_stream(*seed, cell_base + j as u64);
                let x_plus = table.sample(&mut rng, n_plus);
                let x_minus = table.sample(&mut rng, n_minus);
                *slot = n_minus + x_plus - x_minus;
            }
        }
    }
}

/// The barrel shifter's finalize terms. Block `k`'s write in inference
/// `i` is rotated by `(iK + k) mod W`; rotation commutes with per-bit
/// counting, so after folding block `k` rotated by `k mod W`, inference
/// `i` contributes the counters rotated by a further `iK mod W`. Those
/// shifts repeat every `W / gcd(K, W)` inferences, so
/// `ones_j = Σ_i times_i · c[(j − iK) mod W]` over one such cycle.
/// Returns each `(iK mod W, times_i)` with `times_i > 0`.
fn barrel_terms(k_blocks: u64, width: usize, inferences: u64) -> Vec<(usize, u64)> {
    let w = width as u64;
    let period = w / gcd(k_blocks, w);
    (0..period.min(inferences))
        .map(|i| {
            let times = inferences / period + u64::from(i < inferences % period);
            ((i * k_blocks % w) as usize, times)
        })
        .collect()
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
    use crate::plan::MemoryGeometry;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 8), 4);
        assert_eq!(gcd(7, 8), 1);
        assert_eq!(gcd(8, 8), 8);
        assert_eq!(gcd(5, 0), 5);
    }

    /// A memory of `words` identical words of `width`-bit cells: block
    /// `k` stores `blocks[k]` in every word, and the global block index
    /// runs `inference · K + k`.
    struct SameWords {
        width: u32,
        words: usize,
        blocks: Vec<u64>,
    }

    impl BlockSource for SameWords {
        fn geometry(&self) -> MemoryGeometry {
            MemoryGeometry {
                word_bits: self.width,
                words: self.words,
            }
        }
        fn block_count(&self) -> u64 {
            self.blocks.len() as u64
        }
        fn fill(&self, block: u64, words: &[usize], out: &mut [u64]) {
            assert!(words.iter().all(|&w| w < self.words));
            out.fill(self.blocks[block as usize]);
        }
        fn global_block_index(&self, inference: u64, block: u64) -> u64 {
            inference * self.block_count() + block
        }
        fn layer_quantizer(&self, _: usize) -> dnnlife_quant::Quantizer {
            unreachable!("a test memory holds no network layers")
        }
        fn locate_weight(&self, _: usize, _: u64) -> Option<crate::WeightAddress> {
            unreachable!("a test memory holds no network layers")
        }
        fn layer_stream_words(&self, _: usize) -> u64 {
            unreachable!("a test memory holds no network layers")
        }
        fn per_layer_dwell_weights(&self, _: &[f64]) -> Vec<f64> {
            unreachable!("a test memory holds no network layers")
        }
    }

    /// Per-bit duties of an 8-bit one-word memory.
    fn duties(blocks: &[u64], policy: &AnalyticPolicy, inferences: u64) -> Vec<f64> {
        duties_w(8, blocks, policy, inferences)
    }

    fn duties_w(width: u32, blocks: &[u64], policy: &AnalyticPolicy, inferences: u64) -> Vec<f64> {
        let source = SameWords {
            width,
            words: 1,
            blocks: blocks.to_vec(),
        };
        let cfg = AnalyticSimConfig {
            inferences,
            sample_stride: 1,
            threads: 1,
            shards: 1,
        };
        simulate_analytic(&source, policy, &cfg)
    }

    fn dnn_life(bias: f64, bias_balancing: Option<u32>, seed: u64) -> AnalyticPolicy {
        AnalyticPolicy::DnnLife {
            bias,
            bias_balancing,
            seed,
        }
    }

    fn every_policy() -> [AnalyticPolicy; 5] {
        [
            AnalyticPolicy::Passthrough,
            AnalyticPolicy::PeriodicInversion,
            AnalyticPolicy::BarrelShifter,
            dnn_life(0.7, None, 5),
            dnn_life(0.7, Some(4), 5),
        ]
    }

    /// The 2 KiB int8 custom-mnist weight memory (several fills).
    fn small_flat_memory() -> crate::plan::FlatWeightMemory {
        let mut hw = crate::config::AcceleratorConfig::baseline();
        hw.weight_memory_bytes = 2048;
        crate::plan::FlatWeightMemory::new(
            &hw,
            &dnnlife_nn::NetworkSpec::custom_mnist(),
            dnnlife_quant::NumberFormat::Int8Symmetric,
            3,
        )
    }

    /// Runs `words` into a `u32` count buffer; returns it and `T`.
    fn run_counts(
        source: &dyn BlockSource,
        policy: &AnalyticPolicy,
        cfg: &AnalyticSimConfig,
        words: &[usize],
    ) -> (Vec<u32>, u64) {
        let mut out = vec![u32::MAX; words.len() * source.geometry().word_bits as usize];
        let cells = DutyCells::Counts(&mut out);
        let t = simulate_analytic_telemetry(source, policy, cfg, words, cells, None, SpanId::NONE);
        (out, t)
    }

    /// Runs `words` into an `f64` duty buffer; returns it and `T`.
    fn run_duties(
        source: &dyn BlockSource,
        policy: &AnalyticPolicy,
        cfg: &AnalyticSimConfig,
        words: &[usize],
    ) -> (Vec<f64>, u64) {
        let mut out = vec![f64::NAN; words.len() * source.geometry().word_bits as usize];
        let cells = DutyCells::Duties(&mut out);
        let t = simulate_analytic_telemetry(source, policy, cfg, words, cells, None, SpanId::NONE);
        (out, t)
    }

    fn serial(inferences: u64) -> AnalyticSimConfig {
        AnalyticSimConfig {
            inferences,
            sample_stride: 1,
            threads: 1,
            shards: 1,
        }
    }

    #[test]
    fn f64_duties_are_the_u32_counts_over_t() {
        let one_word = SameWords {
            width: 13,
            words: 1,
            blocks: (0..7u64).map(|k| (k * 0x9E5 + 0x3A) & 0x1FFF).collect(),
        };
        let flat = small_flat_memory();
        for policy in every_policy() {
            for (name, source, inferences) in [
                ("same-words", &one_word as &dyn BlockSource, 5),
                ("small-flat", &flat, 6),
            ] {
                let words: Vec<usize> = (0..source.geometry().words).collect();
                let cfg = serial(inferences);
                let (duties, t) = run_duties(source, &policy, &cfg, &words);
                let (counts, t_counts) = run_counts(source, &policy, &cfg, &words);
                assert_eq!((t, t_counts), (inferences * source.block_count(), t));
                for (cell, (d, &n)) in duties.iter().zip(&counts).enumerate() {
                    assert!(u64::from(n) <= t, "{policy:?} cell {cell}: n {n} > T {t}");
                    assert_eq!(
                        d.to_bits(),
                        (f64::from(n) / t as f64).to_bits(),
                        "{policy:?} on {name}: cell {cell}"
                    );
                }
            }
        }
    }

    #[test]
    fn an_empty_unit_reads_all_zeros() {
        let empty = SameWords {
            width: 8,
            words: 3,
            blocks: Vec::new(),
        };
        for policy in every_policy() {
            let (duties, t) = run_duties(&empty, &policy, &serial(4), &[0, 2, 1]);
            let (counts, _) = run_counts(&empty, &policy, &serial(4), &[0, 2, 1]);
            assert_eq!(t, 0);
            assert!(duties.iter().all(|d| d.to_bits() == 0), "{duties:?}");
            assert_eq!(counts, [0; 24]);
        }
    }

    #[test]
    #[should_panic(expected = "T = 4294967296 writes per cell overflow u32 counts")]
    fn u32_counts_refuse_more_writes_than_fit() {
        // T = 2 × 2³¹ = 2³²: the f64 run is exact, the u32 run must
        // fail the one check before any work sized by T.
        let source = SameWords {
            width: 8,
            words: 1,
            blocks: vec![0xF0, 0x3C],
        };
        let cfg = serial(1 << 31);
        let policy = AnalyticPolicy::Passthrough;
        let (duties, t) = run_duties(&source, &policy, &cfg, &[0]);
        assert_eq!(t, 1 << 32);
        assert_eq!(duties, [0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 0.5, 0.5]);
        run_counts(&source, &policy, &cfg, &[0]);
    }

    /// Pearson's chi-square of `counts` against Binomial(`t`, `p`) —
    /// consecutive values of `n` pooled until each bin expects ≥ 5
    /// cells — its degrees of freedom, and the z-score of the counts'
    /// mean.
    fn binomial_fit(counts: &[u64], t: u64, p: f64) -> (f64, usize, f64) {
        let cells = counts.len() as f64;
        let mut observed = vec![0.0; t as usize + 1];
        for &n in counts {
            observed[n as usize] += 1.0;
        }
        let (mut bins, mut expected, mut seen) = (Vec::new(), 0.0, 0.0);
        let mut pmf = (1.0 - p).powi(t as i32);
        for n in 0..=t {
            expected += cells * pmf;
            seen += observed[n as usize];
            if expected >= 5.0 {
                bins.push((expected, seen));
                (expected, seen) = (0.0, 0.0);
            }
            pmf *= (t - n) as f64 / (n + 1) as f64 * p / (1.0 - p);
        }
        let last = bins.last_mut().expect("some bin expects 5 cells");
        (last.0, last.1) = (last.0 + expected, last.1 + seen);
        let chi2 = bins.iter().map(|(e, o)| (o - e) * (o - e) / e).sum();
        let mean = counts.iter().sum::<u64>() as f64 / cells;
        let z = (mean - t as f64 * p) / (t as f64 * p * (1.0 - p) / cells).sqrt();
        (chi2, bins.len() - 1, z)
    }

    /// DNN-Life without bias balancing on 512 words of constant data,
    /// `T = 100`: the chi-square fit and mean z-score of every cell's
    /// count against its law — `Binomial(T, bias)` of 1-writes on
    /// all-zero data, of 0-writes on all-one data. Each cell's stream
    /// feeds its one nonzero binomial, so the two fits of a seed agree.
    fn dnn_life_binomial_fits(seed: u64) -> [(f64, usize, f64); 2] {
        let bias = 0.7;
        [0x00u64, 0xFF].map(|data| {
            let source = SameWords {
                width: 8,
                words: 512,
                blocks: vec![data; 4],
            };
            let words: Vec<usize> = (0..source.words).collect();
            let policy = dnn_life(bias, None, seed);
            let (counts, t) = run_counts(&source, &policy, &serial(25), &words);
            let laws: Vec<u64> = counts
                .iter()
                .map(|&n| {
                    if data == 0 {
                        u64::from(n)
                    } else {
                        t - u64::from(n)
                    }
                })
                .collect();
            binomial_fit(&laws, t, bias)
        })
    }

    /// ~1e-5 upper tails of χ²(df) and of the normal mean.
    fn assert_fits(seed: u64, fits: &[(f64, usize, f64); 2]) {
        for &(chi2, df, z) in fits {
            let bound = df as f64 + 6.0 * (2.0 * df as f64).sqrt();
            assert!(chi2 < bound, "seed {seed}: χ² {chi2} on {df} df");
            assert!(z.abs() < 5.0, "seed {seed}: mean z-score {z}");
        }
    }

    #[test]
    fn dnn_life_counts_follow_their_binomial_law() {
        assert_fits(11, &dnn_life_binomial_fits(11));
    }

    #[test]
    #[ignore = "40 seeds; cargo test -- --ignored"]
    fn dnn_life_binomial_fit_spreads_like_chance_over_40_seeds() {
        let fits: Vec<_> = (0..40).map(dnn_life_binomial_fits).collect();
        for (seed, f) in (0..).zip(&fits) {
            assert_fits(seed, f);
        }
        let n = fits.len() as f64;
        let zs: Vec<f64> = fits.iter().map(|f| f[0].2).collect();
        let mean = zs.iter().sum::<f64>() / n;
        let sd = (zs.iter().map(|z| (z - mean) * (z - mean)).sum::<f64>() / (n - 1.0)).sqrt();
        assert!(mean.abs() * n.sqrt() < 4.0, "mean z {mean} over {n} seeds");
        assert!((0.6..1.4).contains(&sd), "z spread {sd} over {n} seeds");
        let ratio = fits.iter().map(|f| f[0].0 / f[0].1 as f64).sum::<f64>() / n;
        assert!((0.85..1.15).contains(&ratio), "mean χ²/df {ratio}");
    }

    #[test]
    fn counts_carry_past_a_byte_wide_tally() {
        // 600 blocks: bit 0 set in every block, bit 1 in every third,
        // bit 2 in none — runs must flush before a tally byte wraps.
        let bits: Vec<u64> = (0..600u64)
            .map(|k| 1 | u64::from(k % 3 == 0) << 1)
            .collect();
        let d = duties(&bits, &AnalyticPolicy::Passthrough, 1);
        assert_eq!(&d[..3], &[1.0, 200.0 / 600.0, 0.0]);
    }

    #[test]
    fn inversion_balances_odd_k() {
        // K = 3 identical all-ones blocks, T = 6 writes: parities cancel.
        let bits = vec![0xFFu64; 3];
        for d in duties(&bits, &AnalyticPolicy::PeriodicInversion, 2) {
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
        for d in duties(&bits, &AnalyticPolicy::PeriodicInversion, 50) {
            assert!((d - 1.0).abs() < 1e-12, "duty {d}");
        }
    }

    #[test]
    fn inversion_matches_write_by_write_replay() {
        // Even and odd K, even and odd inference counts.
        let all = [0b1010_0110u64, 0b0000_1111, 0b1110_0001, 0b0101_0101];
        for k in 1..=4usize {
            let bits = &all[..k];
            for inferences in 1..=5u64 {
                let got = duties(bits, &AnalyticPolicy::PeriodicInversion, inferences);
                let t = inferences * k as u64;
                for (j, d) in got.iter().enumerate() {
                    let ones: u64 = (0..t)
                        .map(|tt| (bits[(tt % k as u64) as usize] >> j & 1) ^ (tt & 1))
                        .sum();
                    assert_eq!(*d, ones as f64 / t as f64, "K {k} inf {inferences} bit {j}");
                }
            }
        }
    }

    #[test]
    fn barrel_spreads_bits_across_positions() {
        // Single block 0b00000001, W = 8: each position holds the 1 for
        // exactly 1/8 of the writes.
        for d in duties(&[0b1], &AnalyticPolicy::BarrelShifter, 800) {
            assert!((d - 0.125).abs() < 1e-12, "duty {d}");
        }
    }

    #[test]
    fn barrel_cannot_fix_global_imbalance() {
        // 0b00001111: mean 0.5 per position after rotation — but
        // 0b01111111 stays at 7/8 everywhere.
        for d in duties(&[0b0111_1111], &AnalyticPolicy::BarrelShifter, 800) {
            assert!((d - 0.875).abs() < 1e-12, "duty {d}");
        }
    }

    #[test]
    fn barrel_remainder_exactness() {
        // T not a multiple of lcm(K, W): compare against brute force.
        // T = inferences · K, so sweep inferences across and past one
        // lcm(3, 8) = 24-write cycle (8 inferences).
        let bits = vec![0b1010_0110u64, 0b0000_1111, 0b1110_0001];
        let (k, w) = (3u64, 8u64);
        for inferences in 1..=17u64 {
            let t = inferences * k;
            let out = duties(&bits, &AnalyticPolicy::BarrelShifter, inferences);
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
                    "inferences {inferences} bit {j}: {} vs {expect}",
                    out[j as usize]
                );
            }
        }
    }

    #[test]
    fn barrel_shared_factor_matches_replay() {
        // gcd(K, W) > 1 on a 13-bit word: K = 26, W = 13.
        let bits: Vec<u64> = (0..26u64).map(|k| (k * 0x9E5 + 0x3A) & 0x1FFF).collect();
        let (k, w) = (26u64, 13u64);
        for inferences in [1u64, 2, 7] {
            let t = inferences * k;
            let out = duties_w(13, &bits, &AnalyticPolicy::BarrelShifter, inferences);
            for j in 0..w {
                let ones: u64 = (0..t)
                    .map(|tt| bits[(tt % k) as usize] >> ((j + w - tt % w) % w) & 1)
                    .sum();
                assert_eq!(out[j as usize], ones as f64 / t as f64, "bit {j}");
            }
        }
    }

    #[test]
    fn dnn_life_unbiased_concentrates_at_half() {
        // All-ones data, fair TRBG, many writes: duty ≈ 0.5 with
        // variance 1/(4T).
        let bits = vec![0xFFu64; 10];
        for d in duties(&bits, &dnn_life(0.5, None, 9), 400) {
            assert!((d - 0.5).abs() < 0.05, "duty {d}");
        }
    }

    #[test]
    fn dnn_life_biased_without_balancing_shifts_duty() {
        // Stored = data XOR e with e ~ Bern(0.7): all-ones data → duty
        // ≈ 0.3; all-zeros data → duty ≈ 0.7.
        let d_ones = duties(&[0xFFu64; 10], &dnn_life(0.7, None, 9), 400);
        let d_zeros = duties(&[0x00u64; 10], &dnn_life(0.7, None, 9), 400);
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
        // still yields ~0.5 duty. With K = 11 (odd) and a 1-bit
        // register, the MSB of global index 11·i + k is high for exactly
        // half of the 400 inferences of every block (m1_k = 200).
        let bits = vec![0xFFu64; 11];
        for d in duties(&bits, &dnn_life(0.7, Some(1), 9), 400) {
            assert!((d - 0.5).abs() < 0.05, "duty {d}");
        }
    }

    #[test]
    fn shard_and_thread_counts_never_change_analytic_bytes() {
        let mem = small_flat_memory();
        let words: Vec<usize> = (0..mem.geometry().words).step_by(5).collect();
        let run = |threads: usize, shards: usize, policy: &AnalyticPolicy| {
            let cfg = AnalyticSimConfig {
                inferences: 6,
                sample_stride: 5,
                threads,
                shards,
            };
            let counts = run_counts(&mem, policy, &cfg, &words).0;
            (simulate_analytic(&mem, policy, &cfg), counts)
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
        let a = duties(&bits, &dnn_life(0.5, None, 77), 100);
        let b = duties(&bits, &dnn_life(0.5, None, 77), 100);
        assert_eq!(a, b);
    }
}
