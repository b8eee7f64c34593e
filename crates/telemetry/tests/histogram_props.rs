//! Property tests for the log-bucketed histogram: merge is a
//! commutative monoid over histograms, and quantile estimates stay
//! within one bucket of a scalar sorted-order reference for
//! adversarial value streams (full-domain u64s, dense small values,
//! and mixed splits).

use dnnlife_telemetry::Histogram;
use proptest::prelude::*;

fn snapshot_of(values: &[u64]) -> Histogram {
    let mut hist = Histogram::empty();
    for &v in values {
        hist.record(v);
    }
    hist
}

/// Nearest-rank reference quantile over the raw values.
fn reference_quantile(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn assert_within_one_bucket(estimate: u64, truth: u64, context: &str) {
    let est_bucket = Histogram::bucket_index(estimate) as i64;
    let truth_bucket = Histogram::bucket_index(truth) as i64;
    assert!(
        (est_bucket - truth_bucket).abs() <= 1,
        "{context}: estimate {estimate} (bucket {est_bucket}) vs \
         reference {truth} (bucket {truth_bucket})"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merge_is_commutative(
        a in prop::collection::vec(any::<u64>(), 0..64),
        b in prop::collection::vec(any::<u64>(), 0..64),
    ) {
        let (sa, sb) = (snapshot_of(&a), snapshot_of(&b));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn merge_is_associative(
        a in prop::collection::vec(any::<u64>(), 0..48),
        b in prop::collection::vec(any::<u64>(), 0..48),
        c in prop::collection::vec(any::<u64>(), 0..48),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));
        // (a ⊔ b) ⊔ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊔ (b ⊔ c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // Identity: merging the empty histogram changes nothing.
        let mut with_empty = left.clone();
        with_empty.merge(&Histogram::empty());
        prop_assert_eq!(with_empty, left);
    }

    #[test]
    fn merged_snapshot_equals_combined_stream(
        a in prop::collection::vec(any::<u64>(), 1..64),
        b in prop::collection::vec(any::<u64>(), 1..64),
    ) {
        let mut merged = snapshot_of(&a);
        merged.merge(&snapshot_of(&b));
        let mut combined = a.clone();
        combined.extend_from_slice(&b);
        prop_assert_eq!(merged, snapshot_of(&combined));
    }

    #[test]
    fn quantiles_within_one_bucket_full_domain(
        values in prop::collection::vec(any::<u64>(), 1..256),
    ) {
        let snap = snapshot_of(&values);
        for q in [0.0, 0.5, 0.9, 0.99] {
            assert_within_one_bucket(
                snap.quantile(q),
                reference_quantile(&values, q),
                &format!("q={q} full-domain"),
            );
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(snap.quantile(1.0), *sorted.last().unwrap());
    }

    #[test]
    fn quantiles_within_one_bucket_dense_small(
        values in prop::collection::vec(0u64..5000, 1..256),
    ) {
        // Adversarial for log buckets: many collisions in few octaves.
        let snap = snapshot_of(&values);
        for q in [0.5, 0.9, 0.99] {
            assert_within_one_bucket(
                snap.quantile(q),
                reference_quantile(&values, q),
                &format!("q={q} dense-small"),
            );
        }
    }

    #[test]
    fn quantiles_within_one_bucket_bimodal(
        small in prop::collection::vec(0u64..16, 1..128),
        large in prop::collection::vec((1u64 << 40)..(1u64 << 50), 1..128),
    ) {
        // A latency cliff: most mass tiny, a heavy tail 10 orders up.
        let mut values = small.clone();
        values.extend_from_slice(&large);
        let snap = snapshot_of(&values);
        for q in [0.5, 0.9, 0.99] {
            assert_within_one_bucket(
                snap.quantile(q),
                reference_quantile(&values, q),
                &format!("q={q} bimodal"),
            );
        }
        prop_assert_eq!(snap.count(), values.len() as u64);
    }
}
