//! Event-driven reference simulator.
//!
//! Replays every word of every block of every inference through a real
//! [`WriteTransducer`] into a bit-packed memory image, accumulating
//! per-cell duty cycles weighted by each block's residency
//! ([`BlockSource::dwell`]; uniform by default — the paper's assumption
//! (b) in §III-B). `O(cells × K × inferences)` — the ground truth that
//! the analytic simulator is validated against, and the right tool for
//! small configurations and residency ablations.
//!
//! The inner loop is bit-parallel end to end: each block's raw words
//! are packed once into a `width`-bits-per-word image, one
//! [`WriteTransducer::encode_packed`] call turns it into the stored
//! `u64` memory image, and that image is folded into a bit-sliced
//! [`DutySliceTracker`] — 64 cells per `u64` operation instead of an
//! f64 add per cell. Uniform dwell (the default) keeps integer counts
//! end to end, so deterministic policies with a known write period
//! ([`WriteTransducer::write_period`]) simulate one period and replay
//! it by exact multiplication ([`DutySliceTracker::scale`]). Runs with
//! non-uniform dwell fall back to the scalar [`DutyCycleTracker`],
//! whose order-sensitive f64 accumulation the stored goldens pin.
//!
//! For campaign sweeps, [`simulate_exact_sharded`] simulates every
//! n-th memory word (the same unbiased word subsample the analytic
//! simulator's `sample_stride` takes) and caches each block's packed
//! raw image across inferences — the weight generator and quantizer are
//! the expensive part of a block write, and their output is identical
//! every inference. The bits-beyond-width check runs when a block is
//! packed, once per (block, word), not on every write.
//!
//! The same call splits the sampled words into contiguous *word
//! shards*: each shard runs an independent [`WriteTransducer::fork`] of
//! the policy over its own word range as one job of
//! [`dnnlife_nn::exec::run_jobs`], and the per-shard duty vectors come
//! back in shard order to be concatenated. Per-address transducer
//! state makes the partition invisible to the deterministic policies
//! (any shard count is bit-identical to the serial run); the DNN-Life
//! policy draws from an independent seed-derived TRBG stream per shard,
//! so a given shard count is reproducible from the scenario seed alone.
//! The thread count never changes a result.

use std::sync::atomic::{AtomicBool, Ordering};

use crate::plan::BlockSource;
use dnnlife_mitigation::packed::pack;
use dnnlife_mitigation::WriteTransducer;
use dnnlife_nn::exec;
use dnnlife_sram::{DutyCycleTracker, DutySliceTracker};
use dnnlife_telemetry::{SpanId, Telemetry};

/// Raw-block cache ceiling for [`simulate_exact_sharded`], in bytes of
/// packed images (`block_count × sampled_words × word_bits` bits):
/// above it the simulator refills and repacks each block per inference
/// instead. Sharded runs partition the same budget — each shard caches
/// only its own word range, so the total stays under this ceiling for
/// every shard count (up to one partly used `u64` per shard per block).
const BLOCK_CACHE_BYTES: usize = 64 << 20;

/// Execution knobs for [`simulate_exact_sharded`].
#[derive(Debug, Clone, Copy)]
pub struct ExactShardConfig<'a> {
    /// Logical word shards (≥ 1; clamped to the sampled word count).
    /// Semantic for the DNN-Life policy: the shard count selects how
    /// TRBG streams are dealt to words, so two different values give
    /// two different (identically distributed) random runs.
    pub shards: usize,
    /// OS threads executing the shards (0 = all available cores,
    /// clamped to the shard count). Never semantic: any thread count
    /// produces the same bytes for a given shard count.
    pub threads: usize,
    /// Cooperative cancellation, polled once per block per shard — an
    /// abort lands within one block write, well under one inference.
    pub cancel: Option<&'a AtomicBool>,
    /// Observability handle: shard counts, word-write totals, cache
    /// hit/miss accounting, merge timing. Never semantic — duties are
    /// byte-identical with or without it.
    pub telemetry: Option<&'a Telemetry>,
    /// Trace-span parent for the per-shard `exact_shard` /
    /// `exact_merge` spans journaled through `telemetry`.
    pub parent_span: SpanId,
}

impl Default for ExactShardConfig<'_> {
    fn default() -> Self {
        Self {
            shards: 1,
            threads: 0,
            cancel: None,
            telemetry: None,
            parent_span: SpanId::NONE,
        }
    }
}

fn cancelled(cancel: Option<&AtomicBool>) -> bool {
    cancel.is_some_and(|flag| flag.load(Ordering::Relaxed))
}

/// Simulates `inferences` repeated inferences of the block stream
/// through forks of `prototype`, returning per-cell duty cycles (cell
/// order: sampled-word-major, bit 0 first — `simulate_analytic`'s cell
/// order for the same stride).
///
/// Only every `sample_stride`-th memory word is simulated — the strided
/// inner loop that keeps exact campaign sweeps tractable. The
/// per-address transducer state of the deterministic policies
/// (inversion parity, barrel-shift counters) is independent across
/// words, so a strided run produces bit-identical duties for the
/// sampled words. The DNN-Life policy consumes one TRBG draw per word
/// write, so striding changes *which* draws each word sees — a
/// different but identically distributed random stream.
///
/// The sampled words are split into `cfg.shards` contiguous balanced
/// ranges, each range runs through its own [`WriteTransducer::fork`] as
/// one job on up to `cfg.threads` workers, and per-shard duty vectors
/// are concatenated in shard-index order, so the cell order is the same
/// for every shard count. Determinism: the deterministic policies
/// (per-address state) are bit-identical for **any** shard count; the
/// DNN-Life policy consumes an independent seed-derived TRBG stream per
/// shard, so its duties are reproducible for a *given* shard count (one
/// shard reproduces the serial stream of `prototype` exactly) and
/// distribution-identical across shard counts. The thread count is
/// never semantic.
///
/// Returns `None` iff `cfg.cancel` was raised before the run finished;
/// cancellation is polled once per block per shard, so an abort lands
/// within one inference.
///
/// # Panics
///
/// Panics if the transducer width does not match the memory word width,
/// if the source has no blocks, if `sample_stride == 0`, or if
/// `cfg.shards == 0`.
///
/// # Example
///
/// ```
/// use dnnlife_accel::{
///     simulate_exact_sharded, AcceleratorConfig, BlockSource, ExactShardConfig, FlatWeightMemory,
/// };
/// use dnnlife_mitigation::Passthrough;
/// use dnnlife_nn::NetworkSpec;
/// use dnnlife_quant::NumberFormat;
///
/// let mem = FlatWeightMemory::new(
///     &AcceleratorConfig::baseline(),
///     &NetworkSpec::custom_mnist(),
///     NumberFormat::Int8Symmetric,
///     42,
/// );
/// let policy = Passthrough::new(8);
/// let duties = simulate_exact_sharded(&mem, &policy, 2, 1, &ExactShardConfig::default())
///     .expect("no cancel token");
/// assert_eq!(duties.len() as u64, mem.geometry().cells());
/// ```
pub fn simulate_exact_sharded(
    source: &dyn BlockSource,
    prototype: &dyn WriteTransducer,
    inferences: u64,
    sample_stride: usize,
    cfg: &ExactShardConfig,
) -> Option<Vec<f64>> {
    assert!(cfg.shards > 0, "simulate_exact_sharded: shards must be > 0");
    let (sampled, use_cache) = check_and_sample(source, prototype, inferences, sample_stride);
    let width = source.geometry().word_bits as usize;
    let shards = cfg.shards.min(sampled.len()).max(1);
    let ranges = shard_ranges(sampled.len(), shards);

    let telemetry = cfg.telemetry.unwrap_or_else(|| Telemetry::noop());
    let jobs: Vec<_> = ranges.iter().cloned().enumerate().collect();
    let shard_duties = exec::run_jobs(jobs, cfg.threads, cfg.cancel, |(shard, range)| {
        let mut transducer = prototype.fork(shard as u64);
        let span = telemetry.span_start("exact_shard", cfg.parent_span);
        let duties = simulate_word_range(
            source,
            transducer.as_mut(),
            inferences,
            &sampled[range],
            use_cache,
            cfg.cancel,
        );
        telemetry.span_end(span);
        duties
    })?;

    let merge_span = telemetry.span_start("exact_merge", cfg.parent_span);
    let out = telemetry.time(
        "shard_merge_nanos",
        "Time concatenating per-shard duty vectors",
        || {
            let mut out = Vec::with_capacity(sampled.len() * width);
            for (shard, duties) in shard_duties.into_iter().enumerate() {
                assert_eq!(
                    duties.len(),
                    ranges[shard].len() * width,
                    "shard {shard} returned a mis-sized duty vector"
                );
                out.extend(duties);
            }
            out
        },
    );
    telemetry.span_end(merge_span);

    // Counter bookkeeping is arithmetic over the completed run's shape
    // — never per-encode atomics in the hot loop. The counts are
    // *logical* word writes (one per sampled word per block per
    // inference): period-collapsed inferences are counted as if
    // simulated, so throughput metrics reflect the replayed schedule.
    // With the raw-word cache on, the fill is the only pass that
    // touches the block source.
    let k_blocks = source.block_count();
    let word_reads = (sampled.len() as u64)
        .saturating_mul(k_blocks)
        .saturating_mul(inferences);
    let (hit_words, miss_words) = if use_cache {
        (word_reads, (sampled.len() as u64).saturating_mul(k_blocks))
    } else {
        (0, word_reads)
    };
    telemetry.count(
        "exact_shards_run",
        "Exact-backend word shards executed",
        shards as u64,
    );
    telemetry.count(
        "exact_word_writes",
        "Exact-backend word writes (sampled word x block x inference)",
        word_reads,
    );
    telemetry.count(
        "block_cache_hit_words",
        "Exact-backend word reads served from the raw-block cache",
        hit_words,
    );
    telemetry.count(
        "block_cache_miss_words",
        "Exact-backend word reads that went to the block source",
        miss_words,
    );
    Some(out)
}

/// Shared input validation: returns the sampled-word list and whether
/// the packed raw-block cache pays off (a *global* decision over the full
/// sampled population, so shard counts never change memory behaviour —
/// each shard caches only its own slice of the budget).
fn check_and_sample(
    source: &dyn BlockSource,
    transducer: &dyn WriteTransducer,
    inferences: u64,
    sample_stride: usize,
) -> (Vec<usize>, bool) {
    let geo = source.geometry();
    assert_eq!(
        transducer.width(),
        geo.word_bits,
        "simulate_exact_sharded: transducer width {} != memory word width {}",
        transducer.width(),
        geo.word_bits
    );
    assert!(
        sample_stride > 0,
        "simulate_exact_sharded: stride must be > 0"
    );
    let k_blocks = source.block_count();
    assert!(k_blocks > 0, "simulate_exact_sharded: source has no blocks");
    let sampled: Vec<usize> = (0..geo.words).step_by(sample_stride).collect();
    let image_bytes = sampled
        .len()
        .saturating_mul(geo.word_bits as usize)
        .div_ceil(8);
    let use_cache =
        inferences > 1 && (k_blocks as usize).saturating_mul(image_bytes) <= BLOCK_CACHE_BYTES;
    (sampled, use_cache)
}

/// Splits `len` items into `shards` contiguous balanced ranges (the
/// first `len % shards` ranges are one item longer). Shared with the
/// analytic simulator so both backends partition work identically.
pub(crate) fn shard_ranges(len: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let base = len / shards;
    let extra = len % shards;
    let mut start = 0;
    (0..shards)
        .map(|shard| {
            let size = base + usize::from(shard < extra);
            let range = start..start + size;
            start += size;
            range
        })
        .collect()
}

/// The exact inner loop over one contiguous range of sampled words:
/// every block of every inference goes through `transducer` as one
/// packed image, raw in and stored out, and each block state is
/// folded into a bit-sliced integer duty tracker — 64 cells per
/// `u64` op instead of a branch and an f64 add per cell. Returns `None`
/// if `cancel` was raised (polled once per block, including during
/// cache fill).
///
/// Two further collapses keep the loop's *output* untouched while
/// shrinking its work:
///
/// * Encodes go through [`WriteTransducer::encode_packed`] — one
///   virtual dispatch per block instead of per word, image in and image
///   out, with the same stored bits and state advance as per-word
///   [`WriteTransducer::encode`].
/// * When the policy reports a [`WriteTransducer::write_period`], only
///   one period of the repeated inference schedule is simulated; the
///   remaining full periods are replayed by exact integer
///   multiplication of the tracker's counts
///   ([`DutySliceTracker::scale`]), and the leftover inferences run
///   normally from the cycled-back (= reset) transducer state.
fn simulate_word_range(
    source: &dyn BlockSource,
    transducer: &mut dyn WriteTransducer,
    inferences: u64,
    words: &[usize],
    use_cache: bool,
    cancel: Option<&AtomicBool>,
) -> Option<Vec<f64>> {
    let width = source.geometry().word_bits;
    let k_blocks = source.block_count();
    let cells = words.len() * width as usize;
    if cells == 0 {
        return Some(Vec::new());
    }
    // The bit-sliced integer tracker reproduces the scalar tracker bit
    // for bit when every dwell is exactly 1.0 (integer counts, integer
    // total — the default residency model). A non-uniform dwell
    // sequence is accumulated by the scalar tracker instead: its
    // per-cell result is an *order-sensitive* f64 sum that no grouped
    // multiply-and-sum can reproduce exactly, and the store regression
    // pins those bytes (see tests/golden/exact_dwell.jsonl in
    // dnnlife-campaign).
    let uniform = (0..k_blocks).all(|b| source.dwell(b).to_bits() == 1.0f64.to_bits());
    let mut tracker = if uniform {
        Recorder::Sliced(DutySliceTracker::new(cells))
    } else {
        Recorder::Scalar(DutyCycleTracker::new(cells))
    };
    let image_len = cells.div_ceil(64);
    let mut state = vec![0u64; image_len];
    let addrs: Vec<u64> = words.iter().map(|&word| word as u64).collect();
    let mut raw_words = vec![0u64; words.len()];

    // Raw words are a pure function of (block, word): pack each block's
    // image once and replay it from memory on every later inference. A
    // single inference has no later replay, so it skips the cache and
    // packs one scratch image per block.
    let cached: Option<Vec<u64>> = if use_cache {
        let mut cache = vec![0u64; (k_blocks as usize).saturating_mul(image_len)];
        for (block, image) in (0..k_blocks).zip(cache.chunks_exact_mut(image_len)) {
            if cancelled(cancel) {
                return None;
            }
            source.fill(block, words, &mut raw_words);
            pack(&raw_words, width, image);
        }
        Some(cache)
    } else {
        None
    };
    let mut scratch = vec![0u64; if cached.is_some() { 0 } else { image_len }];

    let mut run =
        |tracker: &mut Recorder, transducer: &mut dyn WriteTransducer, n: u64| -> Option<()> {
            for _inference in 0..n {
                for block in 0..k_blocks {
                    if cancelled(cancel) {
                        return None;
                    }
                    let raw: &[u64] = match &cached {
                        Some(cache) => &cache[block as usize * image_len..][..image_len],
                        None => {
                            source.fill(block, words, &mut raw_words);
                            pack(&raw_words, width, &mut scratch);
                            &scratch
                        }
                    };
                    transducer.encode_packed(&addrs, raw, &mut state);
                    transducer.new_block();
                    tracker.record(&state, source.dwell(block));
                }
            }
            Some(())
        };

    // Each address sees `k_blocks` writes per inference, so a policy
    // whose encoder state has period `p` writes cycles back to reset
    // every `p / gcd(k_blocks, p)` inferences — and the integer
    // tracker can replay whole cycles by multiplication. The scalar
    // (non-uniform dwell) tracker has no exact replay, so it always
    // simulates every inference.
    let cycle = match &tracker {
        Recorder::Sliced(_) => transducer.write_period().and_then(|p| {
            let c = p / gcd(k_blocks, p);
            (c < inferences).then_some(c)
        }),
        Recorder::Scalar(_) => None,
    };
    match cycle {
        Some(c) => {
            run(&mut tracker, transducer, c)?;
            tracker.scale(inferences / c);
            run(&mut tracker, transducer, inferences % c)?;
        }
        None => run(&mut tracker, transducer, inferences)?,
    }
    Some(tracker.into_duties())
}

/// The inner loop's duty accumulator: bit-sliced integer counts on the
/// uniform-dwell fast path, the scalar f64 tracker for non-uniform
/// dwell sequences (whose stored bytes are order-sensitive).
enum Recorder {
    Sliced(DutySliceTracker),
    Scalar(DutyCycleTracker),
}

impl Recorder {
    #[inline]
    fn record(&mut self, state: &[u64], dwell: f64) {
        match self {
            Recorder::Sliced(t) => t.record_packed(state, dwell),
            Recorder::Scalar(t) => t.record_packed(state, dwell),
        }
    }

    fn scale(&mut self, factor: u64) {
        match self {
            Recorder::Sliced(t) => t.scale(factor),
            Recorder::Scalar(_) => unreachable!("scalar recorder never collapses cycles"),
        }
    }

    fn into_duties(self) -> Vec<f64> {
        match self {
            Recorder::Sliced(t) => t.into_duties(),
            Recorder::Scalar(t) => t.duties().collect(),
        }
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
    use crate::config::AcceleratorConfig;
    use crate::plan::FlatWeightMemory;
    use dnnlife_mitigation::packed::{read_bits, write_bits};
    use dnnlife_mitigation::{BarrelShifter, Passthrough, PeriodicInversion};
    use dnnlife_nn::NetworkSpec;
    use dnnlife_quant::NumberFormat;

    fn run(
        mem: &FlatWeightMemory,
        policy: &dyn WriteTransducer,
        inferences: u64,
        stride: usize,
    ) -> Vec<f64> {
        simulate_exact_sharded(
            mem,
            policy,
            inferences,
            stride,
            &ExactShardConfig::default(),
        )
        .expect("not cancelled")
    }

    fn tiny_memory() -> FlatWeightMemory {
        // Shrink the baseline config so the exact simulator is fast.
        let mut cfg = AcceleratorConfig::baseline();
        cfg.weight_memory_bytes = 2048;
        FlatWeightMemory::new(
            &cfg,
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            3,
        )
    }

    #[test]
    fn passthrough_duty_is_block_mean() {
        let mem = tiny_memory();
        let k = mem.block_count();
        let duties = run(&mem, &Passthrough::new(8), 3, 1);
        // Cross-check a few cells against direct block averaging.
        for (word, bit) in [(0usize, 0usize), (7, 3), (100, 7)] {
            let ones: u64 = (0..k).map(|b| mem.word(b, word) >> bit & 1).sum();
            let expect = ones as f64 / k as f64;
            let got = duties[word * 8 + bit];
            assert!(
                (got - expect).abs() < 1e-12,
                "cell ({word},{bit}): got {got}, want {expect}"
            );
        }
    }

    #[test]
    fn inversion_halves_constant_cells_when_k_odd_times_even_infs() {
        let mem = tiny_memory();
        let words = mem.geometry().words;
        let duties = run(&mem, &PeriodicInversion::new(8, words), 2, 1);
        let k = mem.block_count();
        if k % 2 == 1 {
            // Odd K with an even number of inferences: every cell is
            // balanced exactly.
            for (i, d) in duties.iter().enumerate() {
                assert!((d - 0.5).abs() < 1e-12, "cell {i}: duty {d}");
            }
        }
    }

    #[test]
    fn strided_run_subsamples_the_full_run_for_deterministic_policies() {
        let mem = tiny_memory();
        let words = mem.geometry().words;
        let width = 8usize;
        let full = run(&mem, &PeriodicInversion::new(8, words), 3, 1);
        let strided = run(&mem, &PeriodicInversion::new(8, words), 3, 7);
        for (si, chunk) in strided.chunks(width).enumerate() {
            let word = si * 7;
            assert_eq!(
                chunk,
                &full[word * width..(word + 1) * width],
                "word {word}"
            );
        }
    }

    #[test]
    fn write_bits_roundtrip() {
        let mut state = vec![0u64; 2];
        write_bits(&mut state, 60, 8, 0xAB);
        // Bits 60..68 straddle the word boundary.
        let read_back = (state[0] >> 60) | ((state[1] & 0xF) << 4);
        assert_eq!(read_back, 0xAB);
        assert_eq!(read_bits(&state, 60, 8), 0xAB);
        write_bits(&mut state, 60, 8, 0x00);
        assert_eq!(state[0], 0);
        assert_eq!(state[1], 0);
    }

    #[test]
    fn write_bits_full_width_words() {
        let mut state = vec![0u64; 2];
        write_bits(&mut state, 0, 64, u64::MAX);
        assert_eq!(state[0], u64::MAX);
        assert_eq!(state[1], 0);
        write_bits(&mut state, 64, 64, 0x1234_5678_9ABC_DEF0);
        assert_eq!(read_bits(&state, 64, 64), 0x1234_5678_9ABC_DEF0);
        write_bits(&mut state, 0, 64, 0);
        assert_eq!(state[0], 0);
    }

    #[test]
    fn write_bits_width_64_straddles_words() {
        // A full-width field at a non-aligned offset touches two words.
        let mut state = vec![u64::MAX; 3];
        let value = 0x0123_4567_89AB_CDEF;
        write_bits(&mut state, 60, 64, value);
        assert_eq!(read_bits(&state, 60, 64), value);
        assert_eq!(read_bits(&state, 0, 60), (1u64 << 60) - 1, "low neighbours");
        assert_eq!(read_bits(&state, 124, 4), 0xF, "high neighbours");
        assert_eq!(state[2], u64::MAX);
        write_bits(&mut state, 60, 64, u64::MAX);
        assert_eq!(state[0], u64::MAX);
        assert_eq!(state[1], u64::MAX);
    }

    #[test]
    fn write_bits_at_offset_zero_every_width() {
        for width in 1..=64usize {
            let mut state = vec![u64::MAX; 2];
            write_bits(&mut state, 0, width, 0);
            assert_eq!(read_bits(&state, 0, width), 0, "width {width}");
            if width < 64 {
                assert_eq!(
                    read_bits(&state, width, 64 - width),
                    u64::MAX >> width,
                    "width {width}: bits above the field must survive"
                );
            }
            assert_eq!(state[1], u64::MAX, "width {width}");
        }
    }

    #[test]
    fn pack_state_matches_write_bits() {
        // The block-cache packer must produce exactly the image that
        // word-by-word `write_bits` calls would.
        for (width, words) in [(1usize, 130usize), (3, 41), (8, 16), (13, 10), (64, 5)] {
            let stored: Vec<u64> = (0..words as u64)
                .map(|w| {
                    let v = w.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    if width == 64 {
                        v
                    } else {
                        v & ((1 << width) - 1)
                    }
                })
                .collect();
            let cells = words * width;
            let mut packed = vec![0u64; cells.div_ceil(64)];
            let mut reference = vec![0u64; cells.div_ceil(64)];
            pack(&stored, width as u32, &mut packed);
            for (i, &value) in stored.iter().enumerate() {
                write_bits(&mut reference, i * width, width, value);
            }
            assert_eq!(packed, reference, "width {width} × {words} words");
        }
    }

    #[test]
    fn write_bits_ignores_value_bits_beyond_width() {
        let mut state = vec![u64::MAX; 1];
        write_bits(&mut state, 8, 8, 0xF00); // low byte 0x00
        assert_eq!(read_bits(&state, 8, 8), 0x00);
        assert_eq!(read_bits(&state, 0, 8), 0xFF, "neighbours untouched");
        assert_eq!(read_bits(&state, 16, 8), 0xFF, "neighbours untouched");
    }

    /// An 8-bit memory of four words whose block 1 stores `0x1ff` at
    /// word 2 — one bit beyond the width.
    struct WideWord;

    impl BlockSource for WideWord {
        fn geometry(&self) -> crate::plan::MemoryGeometry {
            crate::plan::MemoryGeometry {
                word_bits: 8,
                words: 4,
            }
        }
        fn block_count(&self) -> u64 {
            2
        }
        fn fill(&self, block: u64, words: &[usize], out: &mut [u64]) {
            for (slot, &word) in out.iter_mut().zip(words) {
                *slot = if block == 1 && word == 2 { 0x1FF } else { 0xA5 };
            }
        }
        fn global_block_index(&self, inference: u64, block: u64) -> u64 {
            inference * 2 + block
        }
        fn layer_quantizer(&self, _: usize) -> dnnlife_quant::Quantizer {
            unreachable!("holds no network layers")
        }
        fn locate_weight(&self, _: usize, _: u64) -> Option<crate::WeightAddress> {
            unreachable!("holds no network layers")
        }
        fn layer_stream_words(&self, _: usize) -> u64 {
            unreachable!("holds no network layers")
        }
        fn per_layer_dwell_weights(&self, _: &[f64]) -> Vec<f64> {
            unreachable!("holds no network layers")
        }
    }

    #[test]
    fn fill_word_beyond_width_panics_with_the_encode_message() {
        // Cached (several inferences) and uncached (one) block images.
        for inferences in [3u64, 1] {
            let caught = std::panic::catch_unwind(|| {
                simulate_exact_sharded(
                    &WideWord,
                    &Passthrough::new(8),
                    inferences,
                    1,
                    &ExactShardConfig::default(),
                )
            });
            let panic = caught.expect_err("a 9-bit word in an 8-bit memory must panic");
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert_eq!(
                message, "word 0x1ff has bits beyond width 8",
                "{inferences} inference(s)"
            );
        }
    }

    #[test]
    #[should_panic(expected = "transducer width")]
    fn width_mismatch_rejected() {
        let mem = tiny_memory();
        let _ = run(&mem, &Passthrough::new(32), 1, 1);
    }

    #[test]
    fn shard_ranges_are_contiguous_and_balanced() {
        for (len, shards) in [(10, 3), (8, 8), (7, 2), (1, 1), (64, 5)] {
            let ranges = shard_ranges(len, shards);
            assert_eq!(ranges.len(), shards);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, len);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "ranges must be contiguous");
                assert!(
                    pair[0].len() >= pair[1].len(),
                    "earlier shards are never smaller"
                );
            }
            let sizes: Vec<usize> = ranges.iter().map(std::ops::Range::len).collect();
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn sharded_matches_serial_bit_for_bit_for_deterministic_policies() {
        let mem = tiny_memory();
        let words = mem.geometry().words;
        let make: Vec<(&str, Box<dyn WriteTransducer>)> = vec![
            ("none", Box::new(Passthrough::new(8))),
            ("inversion", Box::new(PeriodicInversion::new(8, words))),
            ("barrel", Box::new(BarrelShifter::new(8, words))),
        ];
        for (name, prototype) in make {
            let serial = run(&mem, prototype.as_ref(), 3, 5);
            for shards in [1usize, 2, 3, 8, 64] {
                for threads in [1usize, 4] {
                    let cfg = ExactShardConfig {
                        shards,
                        threads,
                        cancel: None,
                        telemetry: None,
                        parent_span: SpanId::NONE,
                    };
                    let sharded = simulate_exact_sharded(&mem, prototype.as_ref(), 3, 5, &cfg)
                        .expect("not cancelled");
                    assert_eq!(
                        sharded, serial,
                        "policy {name}: {shards} shard(s) × {threads} thread(s) diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn one_shard_dnn_life_matches_serial_stream() {
        use dnnlife_mitigation::{AgingController, DnnLife, PseudoTrbg};
        let mem = tiny_memory();
        let proto = DnnLife::new(8, AgingController::new(PseudoTrbg::new(77, 0.7), 4));
        // The unforked inner loop driven by the prototype's own stream.
        let mut serial_policy = DnnLife::new(8, AgingController::new(PseudoTrbg::new(77, 0.7), 4));
        let (sampled, use_cache) = check_and_sample(&mem, &serial_policy, 4, 3);
        let serial = simulate_word_range(&mem, &mut serial_policy, 4, &sampled, use_cache, None)
            .expect("not cancelled");
        let sharded = run(&mem, &proto, 4, 3);
        assert_eq!(
            sharded, serial,
            "one shard must replay the serial TRBG stream"
        );
    }

    #[test]
    fn sharded_dnn_life_stays_distribution_identical() {
        use dnnlife_mitigation::{AgingController, DnnLife, PseudoTrbg};
        let mem = tiny_memory();
        let proto = DnnLife::new(8, AgingController::new(PseudoTrbg::new(5, 0.5), 4));
        let mean = |duties: &[f64]| duties.iter().sum::<f64>() / duties.len() as f64;
        let base = run(&mem, &proto, 60, 1);
        let split = simulate_exact_sharded(
            &mem,
            &proto,
            60,
            1,
            &ExactShardConfig {
                shards: 8,
                threads: 2,
                cancel: None,
                telemetry: None,
                parent_span: SpanId::NONE,
            },
        )
        .expect("not cancelled");
        assert_eq!(base.len(), split.len());
        assert_ne!(
            base, split,
            "different shard counts deal different TRBG draws"
        );
        assert!(
            (mean(&base) - mean(&split)).abs() < 0.02,
            "mean duty moved: {} vs {}",
            mean(&base),
            mean(&split)
        );
    }

    #[test]
    fn pre_raised_cancel_returns_none_immediately() {
        let mem = tiny_memory();
        let proto = Passthrough::new(8);
        let flag = AtomicBool::new(true);
        let cfg = ExactShardConfig {
            shards: 4,
            threads: 2,
            cancel: Some(&flag),
            telemetry: None,
            parent_span: SpanId::NONE,
        };
        // An inference count that would take far too long uncancelled.
        let started = std::time::Instant::now();
        assert_eq!(
            simulate_exact_sharded(&mem, &proto, u64::MAX, 1, &cfg),
            None
        );
        assert!(
            started.elapsed().as_secs() < 10,
            "cancellation was not prompt"
        );
    }
}
