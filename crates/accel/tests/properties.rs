//! Property tests for dataflow plans, the analytic simulator and the
//! exact simulator's packed-bit image.

use dnnlife_accel::exact::{read_bits, write_bits};
use dnnlife_accel::{
    simulate_analytic, simulate_exact_sharded, AcceleratorConfig, AnalyticPolicy,
    AnalyticSimConfig, BlockSource, ExactShardConfig, FifoSlotMemory, FlatWeightMemory,
};
use dnnlife_mitigation::{BarrelShifter, Passthrough, PeriodicInversion, WriteTransducer};
use dnnlife_nn::NetworkSpec;
use dnnlife_quant::NumberFormat;
use proptest::prelude::*;

/// One-shard exact run: the serial TRBG stream of `policy`.
fn exact(
    mem: &dyn BlockSource,
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

fn small_config(kib: u64) -> AcceleratorConfig {
    let mut cfg = AcceleratorConfig::baseline();
    cfg.weight_memory_bytes = kib * 1024;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Block sources are pure functions of (block, word).
    #[test]
    fn flat_words_are_pure(seed in 0u64..1000, kib in 1u64..8, block_pick in 0u64..1000, word_pick in 0usize..100_000) {
        let mem = FlatWeightMemory::new(
            &small_config(kib),
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            seed,
        );
        let block = block_pick % mem.block_count();
        let word = word_pick % mem.geometry().words;
        prop_assert_eq!(mem.word(block, word), mem.word(block, word));
        prop_assert!(mem.word(block, word) < 256);
    }

    /// Every weight of the network appears in the block stream exactly
    /// once (conservation of the weight stream).
    #[test]
    fn flat_stream_conserves_weight_count(seed in 0u64..100, kib in 1u64..8) {
        let spec = NetworkSpec::custom_mnist();
        let mem = FlatWeightMemory::new(
            &small_config(kib),
            &spec,
            NumberFormat::Int8Symmetric,
            seed,
        );
        // Padded stream length covers all weights plus ragged-lane zeros.
        let padded: u64 = spec
            .layers()
            .iter()
            .map(|l| l.filter_count().div_ceil(8) * 8 * l.weights_per_filter())
            .sum();
        prop_assert_eq!(mem.stream_len(), padded);
        prop_assert_eq!(
            mem.block_count(),
            padded.div_ceil(mem.geometry().words as u64)
        );
    }

    /// NPU slots partition the tile stream: every tile lands in exactly
    /// one slot, and slot block counts differ by at most one.
    #[test]
    fn npu_slots_partition_tiles(seed in 0u64..100) {
        let slots = FifoSlotMemory::all_slots(
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            seed,
        );
        let total: u64 = slots.iter().map(|s| s.block_count()).sum();
        prop_assert_eq!(total, slots[0].total_tiles());
        let max = slots.iter().map(|s| s.block_count()).max().unwrap();
        let min = slots.iter().map(|s| s.block_count()).min().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// Analytic duties are always valid probabilities, under any policy.
    #[test]
    fn analytic_duties_in_unit_interval(
        seed in 0u64..100,
        policy_pick in 0usize..4,
        inferences in 1u64..12,
    ) {
        let mem = FlatWeightMemory::new(
            &small_config(1),
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            seed,
        );
        let policy = match policy_pick {
            0 => AnalyticPolicy::Passthrough,
            1 => AnalyticPolicy::PeriodicInversion,
            2 => AnalyticPolicy::BarrelShifter,
            _ => AnalyticPolicy::DnnLife { bias: 0.6, bias_balancing: Some(4), seed },
        };
        let cfg = AnalyticSimConfig { inferences, sample_stride: 37, threads: 1, shards: 1 };
        let duties = simulate_analytic(&mem, &policy, &cfg);
        prop_assert!(!duties.is_empty());
        for d in duties {
            prop_assert!((0.0..=1.0).contains(&d));
        }
    }

    /// Deterministic policies: analytic equals event-driven exactly, for
    /// random seeds and inference counts (beyond the fixed cases in
    /// validation.rs).
    #[test]
    fn analytic_matches_exact_random_configs(
        seed in 0u64..50,
        inferences in 1u64..6,
        policy_pick in 0usize..3,
    ) {
        let mut cfg = AcceleratorConfig::baseline();
        cfg.weight_memory_bytes = 512;
        let mem = FlatWeightMemory::new(
            &cfg,
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            seed,
        );
        let words = mem.geometry().words;
        let (transducer, policy): (Box<dyn WriteTransducer>, AnalyticPolicy) =
            match policy_pick {
                0 => (Box::new(Passthrough::new(8)), AnalyticPolicy::Passthrough),
                1 => (
                    Box::new(PeriodicInversion::new(8, words)),
                    AnalyticPolicy::PeriodicInversion,
                ),
                _ => (
                    Box::new(BarrelShifter::new(8, words)),
                    AnalyticPolicy::BarrelShifter,
                ),
            };
        let exact = exact(&mem, transducer.as_ref(), inferences, 1);
        let analytic = simulate_analytic(
            &mem,
            &policy,
            &AnalyticSimConfig { inferences, sample_stride: 1, threads: 1, shards: 1 },
        );
        prop_assert_eq!(exact.len(), analytic.len());
        for (i, (e, a)) in exact.iter().zip(&analytic).enumerate() {
            prop_assert!((e - a).abs() < 1e-12, "cell {}: {} vs {}", i, e, a);
        }
    }

    /// `write_bits` round-trips random (offset, width, value) triples
    /// through `read_bits`, including word-straddling writes.
    #[test]
    fn write_bits_roundtrips_random_fields(
        offset in 0usize..192,
        width in 1usize..=64,
        value in 0u64..=u64::MAX,
    ) {
        prop_assume!(offset + width <= 256);
        let mut state = vec![0u64; 4];
        write_bits(&mut state, offset, width, value);
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        prop_assert_eq!(read_bits(&state, offset, width), value & mask);
    }

    /// A write leaves every neighbouring bit untouched, and writing
    /// over a previous value fully replaces it (no stale bits) — the
    /// invariants the exact simulator's duty accounting rests on.
    #[test]
    fn write_bits_preserves_neighbours_and_overwrites(
        offset in 0usize..192,
        width in 1usize..=64,
        value in 0u64..=u64::MAX,
        prior in 0u64..=u64::MAX,
        background in 0u64..=u64::MAX,
    ) {
        prop_assume!(offset + width <= 256);
        // Reference model: one bool per cell.
        let mut state = vec![background; 4];
        let mut reference: Vec<bool> = (0..256).map(|i| background >> (i % 64) & 1 == 1).collect();
        let apply = |state: &mut [u64], reference: &mut [bool], v: u64| {
            write_bits(state, offset, width, v);
            for bit in 0..width {
                reference[offset + bit] = v >> bit & 1 == 1;
            }
        };
        apply(&mut state, &mut reference, prior);
        apply(&mut state, &mut reference, value);
        for (i, &expect) in reference.iter().enumerate() {
            let got = state[i / 64] >> (i % 64) & 1 == 1;
            prop_assert_eq!(got, expect, "cell {} mismatch", i);
        }
    }

    /// Strided exact simulation subsamples the full run exactly for
    /// deterministic policies (per-address transducer state is
    /// independent across words).
    #[test]
    fn strided_exact_subsamples_full_run(
        seed in 0u64..30,
        stride in 1usize..32,
        inferences in 1u64..4,
        policy_pick in 0usize..3,
    ) {
        let mut cfg = AcceleratorConfig::baseline();
        cfg.weight_memory_bytes = 512;
        let mem = FlatWeightMemory::new(
            &cfg,
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            seed,
        );
        let words = mem.geometry().words;
        let width = 8usize;
        let policy: Box<dyn WriteTransducer> = match policy_pick {
            0 => Box::new(Passthrough::new(8)),
            1 => Box::new(PeriodicInversion::new(8, words)),
            _ => Box::new(BarrelShifter::new(8, words)),
        };
        let full = exact(&mem, policy.as_ref(), inferences, 1);
        let strided = exact(&mem, policy.as_ref(), inferences, stride);
        prop_assert_eq!(strided.len(), words.div_ceil(stride) * width);
        for (si, chunk) in strided.chunks(width).enumerate() {
            let word = si * stride;
            prop_assert_eq!(chunk, &full[word * width..(word + 1) * width]);
        }
    }

    /// Word sharding is invisible to the deterministic policies: for
    /// any shard count, thread count and stride, the sharded exact
    /// simulator reproduces the one-shard run bit for bit (per-address
    /// transducer state + shard-index-order merge).
    #[test]
    fn sharded_exact_matches_serial_for_any_partition(
        seed in 0u64..30,
        stride in 1usize..16,
        shards in 1usize..10,
        threads in 1usize..5,
        inferences in 1u64..4,
        policy_pick in 0usize..3,
    ) {
        let mut cfg = AcceleratorConfig::baseline();
        cfg.weight_memory_bytes = 512;
        let mem = FlatWeightMemory::new(
            &cfg,
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            seed,
        );
        let words = mem.geometry().words;
        let prototype: Box<dyn WriteTransducer> = match policy_pick {
            0 => Box::new(Passthrough::new(8)),
            1 => Box::new(PeriodicInversion::new(8, words)),
            _ => Box::new(BarrelShifter::new(8, words)),
        };
        let serial = exact(&mem, prototype.as_ref(), inferences, stride);
        let cfg = ExactShardConfig {
            shards,
            threads,
            cancel: None,
            telemetry: None,
            ..ExactShardConfig::default()
        };
        let sharded = simulate_exact_sharded(&mem, prototype.as_ref(), inferences, stride, &cfg)
            .expect("not cancelled");
        prop_assert_eq!(sharded, serial);
    }
}
