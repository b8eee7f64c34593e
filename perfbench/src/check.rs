//! Output checks on a finished store. A scenario fails if it is missing
//! from the store or breaks one of the paper's orderings the workload
//! must reproduce; an unreadable store fails every scenario.

use std::collections::BTreeMap;
use std::path::Path;

use dnnlife_campaign::{InjectionRecord, JsonlStore, ScenarioRecord, StoreRecord};
use dnnlife_core::experiment::PolicySpec;
use dnnlife_core::MemoryTech;
use dnnlife_faultsim::AgeAccuracy;

use crate::workload::Campaign;

/// Lowest clean accuracy an injection cell's trained network may score.
const MIN_CLEAN_ACCURACY: f64 = 0.9;

/// The age at which the injection orderings are checked.
const CHECK_AGE_YEARS: f64 = 7.0;

/// One failed check.
#[derive(Debug, Clone, PartialEq)]
pub struct Failure {
    /// The store key of the failing scenario, or a name for a failure
    /// of the whole store or run.
    pub key: String,
    /// What was wrong.
    pub reason: String,
}

impl Failure {
    /// A failure of `key`.
    pub fn new(key: impl Into<String>, reason: impl Into<String>) -> Self {
        Self {
            key: key.into(),
            reason: reason.into(),
        }
    }
}

/// What the checker found in one store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checked {
    /// Every failed check.
    pub failures: Vec<Failure>,
    /// FNV-1a digest of each record's serialized line, by store key:
    /// two runs of one seed must produce the same digests.
    pub digests: BTreeMap<String, u64>,
}

impl Checked {
    /// Scenarios that failed at least one check (a store-level failure
    /// counts once).
    pub fn failed(&self) -> usize {
        distinct_keys(&self.failures)
    }
}

/// Number of distinct keys among `failures`.
pub fn distinct_keys(failures: &[Failure]) -> usize {
    let mut keys: Vec<&str> = failures.iter().map(|f| f.key.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// Checks the store `campaign` wrote at `path`.
pub fn check_store(campaign: &Campaign, path: &Path) -> Checked {
    let keys = campaign.keys();
    match campaign {
        Campaign::Sweep(_) => check_records::<ScenarioRecord>(&keys, path, sram_panels),
        Campaign::Inject(_) => check_records::<InjectionRecord>(&keys, path, injection_claims),
    }
}

/// The record-count, presence and digest checks every store gets, then
/// the workload's own `claims` over the records found.
fn check_records<R: StoreRecord>(
    keys: &[String],
    path: &Path,
    claims: fn(&[&R], &mut Vec<Failure>),
) -> Checked {
    let store = match JsonlStore::<R>::open(path) {
        Ok(store) => store,
        Err(e) => {
            return Checked {
                failures: keys
                    .iter()
                    .map(|key| Failure::new(key, format!("store unreadable: {e}")))
                    .collect(),
                digests: BTreeMap::new(),
            }
        }
    };
    let mut checked = Checked::default();
    if store.len() != keys.len() {
        checked.failures.push(Failure::new(
            "store",
            format!("{} records, expected {}", store.len(), keys.len()),
        ));
    }
    let mut records = Vec::with_capacity(keys.len());
    for key in keys {
        match store.get(key) {
            Some(record) => {
                let line = serde_json::to_string(record).expect("store records serialize");
                checked.digests.insert(key.clone(), fnv1a(line.as_bytes()));
                records.push(record);
            }
            None => checked
                .failures
                .push(Failure::new(key, "missing from the store")),
        }
    }
    claims(&records, &mut checked.failures);
    checked
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The paper's DNN-Life configuration: TRBG bias 0.7 with bias balancing.
fn is_dnn_life(policy: &PolicySpec) -> bool {
    matches!(
        *policy,
        PolicySpec::DnnLife {
            bias,
            bias_balancing: true,
            ..
        } if bias == 0.7
    )
}

/// The `(Without, DNN-Life)` pair of every panel: records grouped by
/// `panel`, which must map both policies of one panel to one key.
fn pairs<'a, R>(
    records: &[&'a R],
    policy: impl Fn(&R) -> &PolicySpec,
    panel: impl Fn(&R) -> String,
) -> BTreeMap<String, (Option<&'a R>, Option<&'a R>)> {
    let mut panels: BTreeMap<String, (Option<&R>, Option<&R>)> = BTreeMap::new();
    for &record in records {
        let slot = panels.entry(panel(record)).or_default();
        match policy(record) {
            PolicySpec::None => slot.0 = Some(record),
            p if is_dnn_life(p) => slot.1 = Some(record),
            _ => {}
        }
    }
    panels
}

/// On every SRAM panel (all coordinates but the policy), DNN-Life's
/// worst-case SNM degradation is below "Without Aging Mitigation"'s.
fn sram_panels(records: &[&ScenarioRecord], failures: &mut Vec<Failure>) {
    let sram: Vec<&ScenarioRecord> = records
        .iter()
        .copied()
        .filter(|r| r.spec.tech == MemoryTech::SramNbti)
        .collect();
    let panels = pairs(
        &sram,
        |r| &r.spec.policy,
        |r| {
            let mut panel = r.spec.clone();
            panel.policy = PolicySpec::None;
            panel.coordinate_key()
        },
    );
    for (panel, pair) in panels {
        match pair {
            (Some(without), Some(dnn)) => {
                let (worst_dnn, worst_without) = (dnn.result.snm.max(), without.result.snm.max());
                if worst_dnn >= worst_without {
                    failures.push(Failure::new(
                        &dnn.key,
                        format!(
                            "worst-case SNM degradation {worst_dnn}% is not below \
                             Without's {worst_without}%"
                        ),
                    ));
                }
            }
            _ => failures.push(Failure::new(
                format!("panel {panel}"),
                "panel lacks the Without or the DNN-Life scenario",
            )),
        }
    }
}

fn at_check_age(record: &InjectionRecord) -> Option<&AgeAccuracy> {
    record
        .result
        .ages
        .iter()
        .find(|age| age.years == CHECK_AGE_YEARS)
}

/// Clean accuracy is at least [`MIN_CLEAN_ACCURACY`]; at
/// [`CHECK_AGE_YEARS`], DNN-Life flips fewer bits than "Without" under
/// each repair policy, and SECDED leaves fewer flips than it was given.
fn injection_claims(records: &[&InjectionRecord], failures: &mut Vec<Failure>) {
    for &record in records {
        if record.result.clean_accuracy < MIN_CLEAN_ACCURACY {
            failures.push(Failure::new(
                &record.key,
                format!(
                    "clean accuracy {} is below {MIN_CLEAN_ACCURACY}",
                    record.result.clean_accuracy
                ),
            ));
        }
        let Some(age) = at_check_age(record) else {
            failures.push(Failure::new(
                &record.key,
                format!("no {CHECK_AGE_YEARS}-year checkpoint"),
            ));
            continue;
        };
        if let Some(ecc) = &age.ecc {
            if ecc.mean_residual_flips >= age.mean_flipped_bits {
                failures.push(Failure::new(
                    &record.key,
                    format!(
                        "SECDED residual flips {} are not below the raw flips {}",
                        ecc.mean_residual_flips, age.mean_flipped_bits
                    ),
                ));
            }
        }
    }
    let panels = pairs(
        records,
        |r| &r.spec.scenario.policy,
        |r| r.spec.scenario.repair.display_name(),
    );
    for (repair, pair) in panels {
        let (Some(without), Some(dnn)) = pair else {
            failures.push(Failure::new(
                format!("ecc {repair}"),
                "repair group lacks the Without or the DNN-Life cell",
            ));
            continue;
        };
        // A missing checkpoint was reported above.
        let (Some(dnn_age), Some(without_age)) = (at_check_age(dnn), at_check_age(without)) else {
            continue;
        };
        let (flips_dnn, flips_without) = (dnn_age.mean_flipped_bits, without_age.mean_flipped_bits);
        if flips_dnn >= flips_without {
            failures.push(Failure::new(
                &dnn.key,
                format!(
                    "{CHECK_AGE_YEARS}-year flips {flips_dnn} are not below Without's \
                     {flips_without}"
                ),
            ));
        }
    }
}
