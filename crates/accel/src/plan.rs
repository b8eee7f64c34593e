//! Dataflow plans: how weight blocks map onto the on-chip memory.
//!
//! Both platforms follow the Fig. 5 discipline — filters are grouped
//! into sets of `f`, each set is split into chunks that fit on chip,
//! and blocks stream through the memory in (layer, set, chunk) order —
//! but the physical memories differ:
//!
//! * [`FlatWeightMemory`] — the baseline accelerator's single weight
//!   buffer: every block rewrites the whole memory.
//! * [`FifoSlotMemory`] — one slot of the TPU-like NPU's four-tile-deep
//!   circular weight FIFO: tiles are written round-robin, so slot `s`
//!   sees tiles `s, s+4, s+8, …` of the global stream.
//!
//! Partial blocks/tiles are **zero-padded**: hardware must load inert
//! values into unused MAC lanes, and zero is the inert value for
//! multiply-accumulate. This is what makes small networks age the NPU
//! FIFO badly in Fig. 11 (most cells hold padding, i.e. constant bits).
//!
//! Sources are *random access*: the stored word of any (block, address)
//! pair is a pure O(1) function. [`BlockSource::fill`] evaluates it for
//! a batch of addresses of one block, resolving the block's layer (or
//! tile), quantizer and ECC layout once per call; both simulators gather
//! through it, which is what lets them shard and sample words freely.
//!
//! A generated weight is non-decreasing in its raw 53-bit draw (see
//! [`LayerWeightGen::weight_of_draw`]), and an 8-bit code is
//! non-decreasing in the weight (see [`Quantizer::code_rank`]). So each
//! generated layer of an 8-bit plan gets a draw→code step table when the
//! plan is built: a fill then costs one SplitMix64 draw, a bucket lookup
//! and a short scan per word, with the same bytes as encoding the
//! weight. fp32, trained-weight tables and a degenerate scale encode
//! each weight. The four slots of a FIFO plan share one table per layer.

mod steps;

use std::sync::Arc;

use dnnlife_mitigation::RemapSchedule;
use dnnlife_nn::weights::{LayerWeightGen, WeightRange};
use dnnlife_nn::zoo::NetworkSpec;
use dnnlife_quant::{EccLayout, NumberFormat, Quantizer, RepairPolicy};

use steps::StepTable;

/// Where one layer's weight values come from: the synthetic
/// counter-based generator (the default — pure `O(1)` random access),
/// or an explicit per-layer table (trained weights supplied by the
/// fault-injection pipeline, so the simulated memory holds exactly the
/// values the executable network computes with).
#[derive(Debug, Clone)]
enum WeightSource {
    /// Synthetic trained-like model (`dnnlife_nn::weights`), with its
    /// draw→code step table once [`LayerCodes::calibrate`] finds the
    /// quantizer has one.
    Gen(LayerWeightGen, Option<Arc<StepTable>>),
    /// Explicit weight table in canonical `[out][in]` order.
    Table(Arc<Vec<f32>>),
}

impl WeightSource {
    /// Observed range over the first `limit` weights (quantizer
    /// calibration — mirrors [`LayerWeightGen::range`]).
    fn range(&self, limit: u64) -> WeightRange {
        match self {
            WeightSource::Gen(gen, _) => gen.range(limit),
            WeightSource::Table(table) => {
                let n = (table.len() as u64).min(limit.max(1));
                let mut lo = f32::INFINITY;
                let mut hi = f32::NEG_INFINITY;
                for &w in &table[..n as usize] {
                    lo = lo.min(w);
                    hi = hi.max(w);
                }
                WeightRange {
                    min: lo,
                    max: hi,
                    sampled: n,
                }
            }
        }
    }
}

/// One layer's weights and the quantizer that stores them.
#[derive(Debug, Clone)]
struct LayerCodes {
    source: WeightSource,
    quantizer: Quantizer,
}

impl LayerCodes {
    /// Calibrates `format` on the range of up to [`RANGE_CAP`] weights
    /// (for generated weights an integer scan of the raw draws, see
    /// [`LayerWeightGen::range`]) and builds a generated layer's step
    /// table when the quantizer has one.
    fn calibrate(source: WeightSource, format: NumberFormat) -> Self {
        let quantizer = Quantizer::calibrate(format, &source.range(RANGE_CAP));
        let source = match source {
            WeightSource::Gen(gen, _) => {
                WeightSource::Gen(gen, StepTable::build(&gen, &quantizer).map(Arc::new))
            }
            table => table,
        };
        Self { source, quantizer }
    }

    /// The stored word of canonical weight `index`: its quantized code,
    /// wrapped in the ECC codeword when the plan carries one.
    #[inline]
    fn stored_word(&self, ecc: Option<&EccLayout>, index: u64) -> u64 {
        let code = match &self.source {
            WeightSource::Gen(gen, Some(steps)) => steps.code(gen.draw(index)),
            WeightSource::Gen(gen, None) => self.quantizer.encode(gen.weight(index)),
            WeightSource::Table(table) => self
                .quantizer
                .encode(table[usize::try_from(index).expect("index fits usize")]),
        };
        let data = u64::from(code);
        ecc.map_or(data, |layout| layout.store(data))
    }
}

/// Per-layer weight sources drawing from the synthetic generator.
fn gen_sources(spec: &NetworkSpec, seed: u64) -> Vec<WeightSource> {
    (0..spec.layers().len())
        .map(|li| WeightSource::Gen(LayerWeightGen::new(spec, li, seed), None))
        .collect()
}

/// Per-layer weight sources over explicit tables, validated against
/// `spec`. Each table is copied once into a shared handle, so the four
/// FIFO slots of one NPU plan share the same allocations.
fn table_sources(spec: &NetworkSpec, tables: &[Vec<f32>]) -> Vec<WeightSource> {
    assert_eq!(
        tables.len(),
        spec.layers().len(),
        "weight tables: {} tables for {} layers",
        tables.len(),
        spec.layers().len()
    );
    spec.layers()
        .iter()
        .zip(tables)
        .map(|(layer, table)| {
            assert_eq!(
                table.len() as u64,
                layer.weight_count(),
                "weight table for layer {} holds {} weights, spec says {}",
                layer.name(),
                table.len(),
                layer.weight_count()
            );
            WeightSource::Table(Arc::new(table.clone()))
        })
        .collect()
}

/// Physical location of one canonical weight inside a memory unit:
/// which block writes it and at which word address it lands (every
/// repetition of the block rewrites the same address).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightAddress {
    /// Block (memory fill / FIFO tile) carrying the weight.
    pub block: u64,
    /// Word address inside the memory unit.
    pub word: usize,
}

/// Shape of one simulated memory unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryGeometry {
    /// Width of one weight word in bits (8 or 32).
    pub word_bits: u32,
    /// Number of weight words in the memory unit.
    pub words: usize,
}

impl MemoryGeometry {
    /// Total SRAM cells in this unit.
    pub fn cells(&self) -> u64 {
        self.words as u64 * u64::from(self.word_bits)
    }
}

/// A random-access stream of weight blocks targeting one memory unit.
pub trait BlockSource: Sync {
    /// Memory unit shape.
    fn geometry(&self) -> MemoryGeometry;

    /// Number of distinct blocks written per inference (the paper's `K`
    /// for this memory unit).
    fn block_count(&self) -> u64;

    /// Writes to `out[i]` the stored word that block `block` writes to
    /// address `words[i]` (zero-padded outside the occupied region).
    /// Addresses may come in any order and repeat; the result is always
    /// what one-address calls would give.
    ///
    /// # Panics
    ///
    /// Panics if `block >= block_count()`, an address is `>=
    /// geometry().words`, or `out.len() != words.len()`.
    fn fill(&self, block: u64, words: &[usize], out: &mut [u64]);

    /// The stored word written to address `word` by block `block` — a
    /// one-address [`BlockSource::fill`].
    ///
    /// # Panics
    ///
    /// As for [`BlockSource::fill`].
    fn word(&self, block: u64, word: usize) -> u64 {
        let mut out = [0];
        self.fill(block, &[word], &mut out);
        out[0]
    }

    /// Global block-write index of `(inference, block)` — what the
    /// DNN-Life controller's M-bit register counts.
    fn global_block_index(&self, inference: u64, block: u64) -> u64;

    /// Relative residency time of `block` (mean 1.0). The paper's
    /// assumption (b) is equal residency; sources may override this to
    /// model compute-weighted residency (§III-C notes that per-layer
    /// processing times vary). Only the event-driven simulator honours
    /// non-uniform dwell.
    fn dwell(&self, _block: u64) -> f64 {
        1.0
    }

    /// Human-readable label for reports.
    fn label(&self) -> String;

    /// The calibrated quantizer of network layer `layer` — what the
    /// stored words encode that layer's weights with, exposed so fault
    /// injection decodes corrupted codes with the exact same
    /// scale/zero-point the memory image was built from.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    fn layer_quantizer(&self, layer: usize) -> Quantizer;

    /// The physical address of canonical weight `index` of layer
    /// `layer` (the inverse of the [`BlockSource::fill`] dataflow
    /// mapping) if this unit stores it, `None` if another unit of the
    /// platform does. Padded lanes have no canonical index.
    ///
    /// # Panics
    ///
    /// Panics if `layer` or `index` is out of range.
    fn locate_weight(&self, layer: usize, index: u64) -> Option<WeightAddress>;

    /// Words network layer `layer` occupies in the dataflow stream,
    /// padded lanes included.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    fn layer_stream_words(&self, layer: usize) -> u64;

    /// Per-block residency weights from per-layer factors: `factors[li]`
    /// is the relative time the memory dwells on one word of layer
    /// `li`, and a block weighs the factors of the stream words it
    /// holds. Feed the result to the plan's `with_dwell_weights`.
    ///
    /// # Panics
    ///
    /// Panics if `factors.len()` differs from the plan's layer count.
    fn per_layer_dwell_weights(&self, factors: &[f64]) -> Vec<f64>;

    /// Per-block residency weights proportional to MAC work: each
    /// layer's factor is its MAC count over its stream words (conv
    /// fills are reused across output positions and stay resident far
    /// longer than FC fills).
    ///
    /// # Panics
    ///
    /// Panics if `spec` has a different layer count than the plan.
    fn layer_proportional_weights(&self, spec: &NetworkSpec) -> Vec<f64> {
        let factors: Vec<f64> = spec
            .layers()
            .iter()
            .enumerate()
            .map(|(li, layer)| layer.macs() as f64 / self.layer_stream_words(li) as f64)
            .collect();
        self.per_layer_dwell_weights(&factors)
    }
}

/// Per-layer slice of a flat dataflow plan.
#[derive(Debug, Clone)]
struct LayerPlan {
    /// Offset of this layer in the dataflow-ordered weight stream.
    stream_offset: u64,
    /// Stream length of this layer: `sets × f × weights_per_filter`
    /// (ragged final sets carry zero-padded lanes).
    stream_len: u64,
    /// Filters in the layer.
    filters: u64,
    /// Weights per filter.
    weights_per_filter: u64,
    /// Weight values and quantizer of the layer.
    codes: LayerCodes,
}

/// The baseline accelerator's weight buffer under the Fig. 5 dataflow.
///
/// Filters are grouped into sets of `f`; each set's weights stream out
/// interleaved (one word per filter lane, matching the `f × N`-wide
/// memory rows of Fig. 4); consecutive sets and layers pack
/// back-to-back; and the stream is chopped into memory-sized fills.
/// Each fill is one *block* in the paper's sense — `K = ceil(DNN size /
/// memory size)`, exactly the quantity Eq. 1 reasons about (117 for
/// 8-bit AlexNet on the 512 KB baseline, 466 for fp32).
///
/// # Example
///
/// ```
/// use dnnlife_accel::{AcceleratorConfig, BlockSource, FlatWeightMemory};
/// use dnnlife_nn::NetworkSpec;
/// use dnnlife_quant::NumberFormat;
///
/// let mem = FlatWeightMemory::new(
///     &AcceleratorConfig::baseline(),
///     &NetworkSpec::alexnet(),
///     NumberFormat::Int8Symmetric,
///     42,
/// );
/// assert_eq!(mem.block_count(), 117);
/// ```
#[derive(Debug, Clone)]
pub struct FlatWeightMemory {
    geometry: MemoryGeometry,
    parallel_filters: u64,
    layers: Vec<LayerPlan>,
    stream_len: u64,
    total_blocks: u64,
    label: String,
    /// Optional per-block relative residency (mean 1.0).
    dwell_weights: Option<Vec<f64>>,
    /// Optional SECDED layout: stored words carry parity columns.
    ecc: Option<EccLayout>,
}

/// Sample cap for quantizer range calibration (see
/// [`dnnlife_quant::distribution::DEFAULT_SAMPLE_CAP`]).
const RANGE_CAP: u64 = 1_000_000;

impl FlatWeightMemory {
    /// Plans the dataflow of `spec` on `config` with weights stored in
    /// `format`.
    ///
    /// # Panics
    ///
    /// Panics if the memory cannot hold at least one weight.
    pub fn new(
        config: &crate::config::AcceleratorConfig,
        spec: &NetworkSpec,
        format: NumberFormat,
        seed: u64,
    ) -> Self {
        Self::with_sources(config, spec, format, gen_sources(spec, seed))
    }

    /// Plans the same dataflow with weights read from explicit
    /// per-layer tables (canonical `[out][in]` order) instead of the
    /// synthetic generator — the path the fault-injection pipeline uses
    /// so that the aged memory holds exactly the trained weights the
    /// executable network computes with. Quantizers are calibrated from
    /// the table ranges, matching what [`FlatWeightMemory::new`] does
    /// for generated weights.
    ///
    /// # Panics
    ///
    /// Panics if the table count or any table length disagrees with
    /// `spec`, or if the memory cannot hold at least one weight.
    pub fn with_weight_tables(
        config: &crate::config::AcceleratorConfig,
        spec: &NetworkSpec,
        format: NumberFormat,
        tables: &[Vec<f32>],
    ) -> Self {
        Self::with_sources(config, spec, format, table_sources(spec, tables))
    }

    fn with_sources(
        config: &crate::config::AcceleratorConfig,
        spec: &NetworkSpec,
        format: NumberFormat,
        sources: Vec<WeightSource>,
    ) -> Self {
        let word_bits = format.bits() as u32;
        let words = config.weight_capacity(word_bits) as usize;
        assert!(words > 0, "FlatWeightMemory: memory holds no weights");
        let f = config.parallel_filters;
        let mut layers = Vec::with_capacity(spec.layers().len());
        let mut offset = 0u64;
        for (layer, source) in spec.layers().iter().zip(sources) {
            let filters = layer.filter_count();
            let wpf = layer.weights_per_filter();
            let sets = filters.div_ceil(f);
            let stream_len = sets * f * wpf;
            layers.push(LayerPlan {
                stream_offset: offset,
                stream_len,
                filters,
                weights_per_filter: wpf,
                codes: LayerCodes::calibrate(source, format),
            });
            offset += stream_len;
        }
        let total_blocks = offset.div_ceil(words as u64);
        Self {
            geometry: MemoryGeometry { word_bits, words },
            parallel_filters: f,
            layers,
            stream_len: offset,
            total_blocks,
            label: format!("{}/{}/{}", config.name, spec.name(), format),
            dwell_weights: None,
            ecc: None,
        }
    }

    /// Wraps the stored words in `policy`'s error-correcting code: the
    /// memory grows the parity columns ([`RepairPolicy::parity_bits`]
    /// extra bits per word, reflected in [`BlockSource::geometry`]),
    /// and every stored word becomes the interleaved codeword of its
    /// data word — so the duty and lifetime models age the parity
    /// cells alongside the data cells (parity is rewritten on every
    /// weight write). A no-repair policy returns the plan unchanged.
    ///
    /// # Panics
    ///
    /// Panics if ECC was already applied, or the policy is invalid for
    /// this word width (see [`RepairPolicy::is_valid_for`]).
    pub fn with_repair(mut self, policy: &RepairPolicy) -> Self {
        let Some(layout) = policy.layout(self.geometry.word_bits) else {
            return self;
        };
        assert!(self.ecc.is_none(), "FlatWeightMemory: ECC applied twice");
        self.geometry.word_bits = layout.width();
        self.ecc = Some(layout);
        self
    }

    /// Length of the dataflow-ordered weight stream (including padded
    /// lanes of ragged final filter sets).
    pub fn stream_len(&self) -> u64 {
        self.stream_len
    }

    /// Installs explicit per-block residency weights (one per block,
    /// any positive scale — duties depend only on ratios). Weights are
    /// normalised to mean 1.0, with a small positive floor for
    /// zero-work padding blocks (the memory still holds them for the
    /// transfer). Honoured by [`crate::simulate_exact_sharded`]; the analytic
    /// simulator rejects non-uniform dwell.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.block_count()`, or any weight
    /// is negative or non-finite, or all weights are zero.
    pub fn with_dwell_weights(mut self, weights: Vec<f64>) -> Self {
        self.dwell_weights = Some(normalize_dwell(weights, self.total_blocks));
        self
    }
}

/// Normalises raw residency weights to mean 1.0 with a `1e-3` floor.
fn normalize_dwell(mut weights: Vec<f64>, blocks: u64) -> Vec<f64> {
    assert_eq!(
        weights.len() as u64,
        blocks,
        "dwell weights: {} values for {blocks} blocks",
        weights.len()
    );
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "dwell weights must be finite and non-negative"
    );
    let mean = weights.iter().sum::<f64>() / weights.len() as f64;
    assert!(mean > 0.0, "dwell weights must not all be zero");
    for w in &mut weights {
        *w = (*w / mean).max(1e-3);
    }
    weights
}

impl BlockSource for FlatWeightMemory {
    fn geometry(&self) -> MemoryGeometry {
        self.geometry
    }

    fn block_count(&self) -> u64 {
        self.total_blocks
    }

    fn fill(&self, block: u64, words: &[usize], out: &mut [u64]) {
        assert!(block < self.total_blocks, "block out of range");
        assert_eq!(words.len(), out.len(), "fill: output length");
        let base = block * self.geometry.words as u64;
        let f = self.parallel_filters;
        let ecc = self.ecc.as_ref();
        // A fill may span layers: keep the layer of the previous address
        // while the next one falls inside it, else search again.
        let mut layer = &self.layers[0];
        for (slot, &word) in out.iter_mut().zip(words) {
            assert!(word < self.geometry.words, "word out of range");
            let pos = base + word as u64;
            if pos >= self.stream_len {
                *slot = 0; // tail of the final fill (codeword of 0 is 0)
                continue;
            }
            if !(layer.stream_offset..layer.stream_offset + layer.stream_len).contains(&pos) {
                let idx = self
                    .layers
                    .partition_point(|l| l.stream_offset + l.stream_len <= pos);
                layer = &self.layers[idx];
            }
            let local = pos - layer.stream_offset;
            let set_len = f * layer.weights_per_filter;
            let set = local / set_len;
            let in_set = local % set_len;
            // Interleaved rows: consecutive stream words cycle over the
            // f filter lanes of the set.
            let weight_index = in_set / f;
            let filter = set * f + in_set % f;
            *slot = if filter < layer.filters {
                let canonical = filter * layer.weights_per_filter + weight_index;
                layer.codes.stored_word(ecc, canonical)
            } else {
                0 // padded lane of a ragged final set
            };
        }
    }

    fn global_block_index(&self, inference: u64, block: u64) -> u64 {
        inference * self.total_blocks + block
    }

    fn dwell(&self, block: u64) -> f64 {
        self.dwell_weights
            .as_ref()
            .map_or(1.0, |w| w[block as usize])
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn layer_quantizer(&self, layer: usize) -> Quantizer {
        self.layers[layer].codes.quantizer
    }

    /// Always `Some`: the flat memory is the platform's only unit.
    fn locate_weight(&self, layer: usize, index: u64) -> Option<WeightAddress> {
        let plan = &self.layers[layer];
        assert!(
            index < plan.filters * plan.weights_per_filter,
            "locate_weight: index {index} out of range for layer {layer}"
        );
        let f = self.parallel_filters;
        let filter = index / plan.weights_per_filter;
        let weight_index = index % plan.weights_per_filter;
        let set = filter / f;
        let in_set = weight_index * f + filter % f;
        let pos = plan.stream_offset + set * (f * plan.weights_per_filter) + in_set;
        Some(WeightAddress {
            block: pos / self.geometry.words as u64,
            word: (pos % self.geometry.words as u64) as usize,
        })
    }

    fn layer_stream_words(&self, layer: usize) -> u64 {
        self.layers[layer].stream_len
    }

    fn per_layer_dwell_weights(&self, factors: &[f64]) -> Vec<f64> {
        assert_eq!(
            factors.len(),
            self.layers.len(),
            "per_layer_dwell_weights: {} factors for {} layers",
            factors.len(),
            self.layers.len()
        );
        let words = self.geometry.words as u64;
        (0..self.total_blocks)
            .map(|k| {
                let lo = k * words;
                let hi = ((k + 1) * words).min(self.stream_len);
                let mut work = 0.0f64;
                for (plan, factor) in self.layers.iter().zip(factors) {
                    let seg_lo = lo.max(plan.stream_offset);
                    let seg_hi = hi.min(plan.stream_offset + plan.stream_len);
                    if seg_hi > seg_lo {
                        work += (seg_hi - seg_lo) as f64 * factor;
                    }
                }
                work
            })
            .collect()
    }
}

/// Per-layer slice of the NPU tile plan.
#[derive(Debug, Clone)]
struct LayerTiles {
    tile_offset: u64,
    tiles: u64,
    row_tiles: u64,
    filters: u64,
    weights_per_filter: u64,
    codes: LayerCodes,
}

/// One slot of the TPU-like NPU's circular weight FIFO.
///
/// The FIFO is four tiles deep; the global tile stream (layer by layer,
/// filter-set by filter-set, then row-chunks — the Fig. 5 order with
/// `f = 256`) is written round-robin, so slot `s` holds tiles
/// `s, s + 4, s + 8, …`. Each slot is simulated as its own 256 × 256 ×
/// 8-bit memory unit; Fig. 11 histograms merge the four slots.
///
/// # Example
///
/// ```
/// use dnnlife_accel::{BlockSource, FifoSlotMemory};
/// use dnnlife_nn::NetworkSpec;
/// use dnnlife_quant::NumberFormat;
///
/// let slots = FifoSlotMemory::all_slots(
///     &NetworkSpec::custom_mnist(),
///     NumberFormat::Int8Symmetric,
///     42,
/// );
/// assert_eq!(slots.len(), 4);
/// let total: u64 = slots.iter().map(|s| s.block_count()).sum();
/// // The custom network spans 7 tiles (conv1:1, conv2:2, fc1:4... see tests).
/// assert!(total >= 7);
/// ```
#[derive(Debug, Clone)]
pub struct FifoSlotMemory {
    slot: u64,
    layers: Vec<LayerTiles>,
    total_tiles: u64,
    local_blocks: u64,
    label: String,
    /// Optional per-block relative residency (mean 1.0).
    dwell_weights: Option<Vec<f64>>,
    /// Optional SECDED layout: stored words carry parity columns.
    ecc: Option<EccLayout>,
}

impl FifoSlotMemory {
    /// FIFO depth in tiles (Table I: "four tiles deep").
    pub const DEPTH: u64 = 4;
    /// Tile side in weights (256 × 256 PE array).
    pub const TILE_SIDE: u64 = 256;

    /// The slot-independent part of the plan: tile layout, quantizer
    /// calibration and step table per layer (see
    /// [`LayerCodes::calibrate`]), so `all_slots` computes this once and
    /// shares it across the four slots.
    fn plan_layers(
        spec: &NetworkSpec,
        format: NumberFormat,
        sources: Vec<WeightSource>,
    ) -> (Vec<LayerTiles>, u64) {
        assert_eq!(
            format.bits(),
            8,
            "FifoSlotMemory: the NPU weight FIFO stores 8-bit weights"
        );
        let side = Self::TILE_SIDE;
        let mut layers = Vec::with_capacity(spec.layers().len());
        let mut offset = 0u64;
        for (layer, source) in spec.layers().iter().zip(sources) {
            let filters = layer.filter_count();
            let wpf = layer.weights_per_filter();
            let col_tiles = filters.div_ceil(side);
            let row_tiles = wpf.div_ceil(side);
            layers.push(LayerTiles {
                tile_offset: offset,
                tiles: col_tiles * row_tiles,
                row_tiles,
                filters,
                weights_per_filter: wpf,
                codes: LayerCodes::calibrate(source, format),
            });
            offset += col_tiles * row_tiles;
        }
        (layers, offset)
    }

    fn from_plan(
        slot: u64,
        spec: &NetworkSpec,
        format: NumberFormat,
        layers: Vec<LayerTiles>,
        offset: u64,
    ) -> Self {
        assert!(
            slot < Self::DEPTH,
            "FifoSlotMemory: slot {slot} out of range"
        );
        let local_blocks = if offset > slot {
            (offset - slot).div_ceil(Self::DEPTH)
        } else {
            0
        };
        Self {
            slot,
            layers,
            total_tiles: offset,
            local_blocks,
            label: format!("tpu-like-npu/{}/{}/slot{}", spec.name(), format, slot),
            dwell_weights: None,
            ecc: None,
        }
    }

    /// Wraps the stored words in `policy`'s error-correcting code —
    /// see [`FlatWeightMemory::with_repair`]. The NPU's 8-bit datapath
    /// grows to 13-bit SECDED codewords per word.
    ///
    /// # Panics
    ///
    /// Panics if ECC was already applied, or the policy is invalid for
    /// 8-bit words.
    pub fn with_repair(mut self, policy: &RepairPolicy) -> Self {
        let Some(layout) = policy.layout(8) else {
            return self;
        };
        assert!(self.ecc.is_none(), "FifoSlotMemory: ECC applied twice");
        self.ecc = Some(layout);
        self
    }

    /// All four slots of the FIFO. The per-layer plan (tile layout,
    /// quantizer calibration and step table) is slot-independent, so it
    /// is computed once and shared — building all four slots calibrates
    /// each layer once, not four times, and the slots hold one step
    /// table per layer between them.
    ///
    /// # Panics
    ///
    /// Panics if `format` is not 8-bit (the NPU datapath is 8-bit per
    /// Table I).
    pub fn all_slots(spec: &NetworkSpec, format: NumberFormat, seed: u64) -> Vec<Self> {
        Self::slots(spec, format, gen_sources(spec, seed))
    }

    /// All four slots with explicit per-layer weight tables — see
    /// [`FlatWeightMemory::with_weight_tables`]. The slots share one
    /// copy of each table.
    ///
    /// # Panics
    ///
    /// Panics if `format` is not 8-bit or the tables disagree with
    /// `spec`.
    pub fn all_slots_with_weight_tables(
        spec: &NetworkSpec,
        format: NumberFormat,
        tables: &[Vec<f32>],
    ) -> Vec<Self> {
        Self::slots(spec, format, table_sources(spec, tables))
    }

    fn slots(spec: &NetworkSpec, format: NumberFormat, sources: Vec<WeightSource>) -> Vec<Self> {
        let (layers, total_tiles) = Self::plan_layers(spec, format, sources);
        (0..Self::DEPTH)
            .map(|s| Self::from_plan(s, spec, format, layers.clone(), total_tiles))
            .collect()
    }

    /// Total tiles streamed per inference (across all slots).
    pub fn total_tiles(&self) -> u64 {
        self.total_tiles
    }

    /// The layer index owning tile number `tile` of the global stream.
    fn layer_of_tile(&self, tile: u64) -> usize {
        self.layers
            .iter()
            .position(|l| tile < l.tile_offset + l.tiles)
            .expect("tile within plan")
    }

    /// Installs explicit per-block residency weights (see
    /// [`FlatWeightMemory::with_dwell_weights`]).
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != self.block_count()` or any weight is
    /// negative or non-finite, or all weights are zero.
    pub fn with_dwell_weights(mut self, weights: Vec<f64>) -> Self {
        self.dwell_weights = Some(normalize_dwell(weights, self.local_blocks));
        self
    }
}

impl BlockSource for FifoSlotMemory {
    fn geometry(&self) -> MemoryGeometry {
        MemoryGeometry {
            word_bits: self.ecc.as_ref().map_or(8, EccLayout::width),
            words: (Self::TILE_SIDE * Self::TILE_SIDE) as usize,
        }
    }

    fn block_count(&self) -> u64 {
        self.local_blocks
    }

    fn fill(&self, block: u64, words: &[usize], out: &mut [u64]) {
        assert!(block < self.local_blocks, "block out of range");
        assert_eq!(words.len(), out.len(), "fill: output length");
        // A tile belongs to exactly one layer.
        let tile = self.slot + block * Self::DEPTH;
        let layer = &self.layers[self.layer_of_tile(tile)];
        let local = tile - layer.tile_offset;
        let side = Self::TILE_SIDE;
        let first_filter = local / layer.row_tiles * side; // filter-set index
        let first_weight = local % layer.row_tiles * side; // chunk index
        let ecc = self.ecc.as_ref();
        for (slot, &word) in out.iter_mut().zip(words) {
            let word = word as u64;
            assert!(word < side * side, "word out of range");
            let filter = first_filter + word % side; // filter-in-set
            let weight_index = first_weight + word / side; // weight-in-chunk
            *slot = if filter < layer.filters && weight_index < layer.weights_per_filter {
                let canonical = filter * layer.weights_per_filter + weight_index;
                layer.codes.stored_word(ecc, canonical)
            } else {
                0
            };
        }
    }

    fn global_block_index(&self, inference: u64, block: u64) -> u64 {
        inference * self.total_tiles + self.slot + block * Self::DEPTH
    }

    fn dwell(&self, block: u64) -> f64 {
        self.dwell_weights
            .as_ref()
            .map_or(1.0, |w| w[block as usize])
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn layer_quantizer(&self, layer: usize) -> Quantizer {
        self.layers[layer].codes.quantizer
    }

    /// `Some` iff the weight's tile round-robins into this slot:
    /// exactly one of the four slots holds every weight.
    fn locate_weight(&self, layer: usize, index: u64) -> Option<WeightAddress> {
        let plan = &self.layers[layer];
        assert!(
            index < plan.filters * plan.weights_per_filter,
            "locate_weight: index {index} out of range for layer {layer}"
        );
        let side = Self::TILE_SIDE;
        let filter = index / plan.weights_per_filter;
        let weight_index = index % plan.weights_per_filter;
        let col_tile = filter / side;
        let row_tile = weight_index / side;
        let tile = plan.tile_offset + col_tile * plan.row_tiles + row_tile;
        if tile % Self::DEPTH != self.slot {
            return None;
        }
        Some(WeightAddress {
            block: (tile - self.slot) / Self::DEPTH,
            word: ((weight_index % side) * side + filter % side) as usize,
        })
    }

    fn layer_stream_words(&self, layer: usize) -> u64 {
        self.layers[layer].tiles * Self::TILE_SIDE * Self::TILE_SIDE
    }

    /// A tile is wholly owned by one layer, so its weight is that
    /// layer's factor.
    fn per_layer_dwell_weights(&self, factors: &[f64]) -> Vec<f64> {
        assert_eq!(
            factors.len(),
            self.layers.len(),
            "per_layer_dwell_weights: {} factors for {} layers",
            factors.len(),
            self.layers.len()
        );
        (0..self.local_blocks)
            .map(|b| factors[self.layer_of_tile(self.slot + b * Self::DEPTH)])
            .collect()
    }
}

/// Wear-leveling view of a block source: the physical memory under a
/// periodic hot-row rotation ([`RemapSchedule`]).
///
/// The device lifetime is split into `E` epochs; within each epoch the
/// inner plan's `K` blocks stream as usual, but the logical→physical
/// row mapping is rotated per epoch. Both simulators age *physical*
/// cells, so the rotation is presented as a cyclic `E·K`-block source:
/// block `k′` is epoch `k′ / K` streaming inner block `k′ mod K`, and
/// `word(k′, p)` answers "what does physical word `p` hold then" —
/// `inner.word(k′ mod K, logical(p, epoch))`. Time-averaged physical
/// duty is then exactly the epoch-average of the unremapped duties,
/// with zero changes to either simulator.
///
/// Per-block dwell is inherited from the inner block (`dwell(k′) =
/// inner.dwell(k′ mod K)`), so uniform-dwell plans stay analytic-legal.
#[derive(Debug, Clone)]
pub struct RemappedMemory<S: BlockSource> {
    inner: S,
    schedule: RemapSchedule,
}

impl<S: BlockSource> RemappedMemory<S> {
    /// Wraps `inner` in an `epochs`-epoch rotation over rows of
    /// `row_words` words.
    ///
    /// # Panics
    ///
    /// Panics if the inner word count is not a whole number of
    /// `row_words`-word rows, or `epochs == 0`.
    pub fn new(inner: S, row_words: usize, epochs: u32) -> Self {
        let schedule = RemapSchedule::new(inner.geometry().words, row_words, epochs);
        Self { inner, schedule }
    }

    /// The rotation schedule in effect.
    pub fn schedule(&self) -> &RemapSchedule {
        &self.schedule
    }
}

impl<S: BlockSource> BlockSource for RemappedMemory<S> {
    fn geometry(&self) -> MemoryGeometry {
        self.inner.geometry()
    }

    fn block_count(&self) -> u64 {
        u64::from(self.schedule.epochs()) * self.inner.block_count()
    }

    fn fill(&self, block: u64, words: &[usize], out: &mut [u64]) {
        let k = self.inner.block_count();
        assert!(block < self.block_count(), "block out of range");
        let epoch = (block / k) as u32;
        let logical: Vec<usize> = words
            .iter()
            .map(|&word| self.schedule.logical_word(word as u64, epoch) as usize)
            .collect();
        self.inner.fill(block % k, &logical, out);
    }

    fn global_block_index(&self, inference: u64, block: u64) -> u64 {
        inference * self.block_count() + block
    }

    fn dwell(&self, block: u64) -> f64 {
        self.inner.dwell(block % self.inner.block_count())
    }

    fn label(&self) -> String {
        format!(
            "{}+wear-level:{}",
            self.inner.label(),
            self.schedule.epochs()
        )
    }

    fn layer_quantizer(&self, layer: usize) -> Quantizer {
        self.inner.layer_quantizer(layer)
    }

    /// Where the weight sits in the *final* epoch — the physical word
    /// an end-of-life read hits.
    fn locate_weight(&self, layer: usize, index: u64) -> Option<WeightAddress> {
        let addr = self.inner.locate_weight(layer, index)?;
        let last_epoch = u64::from(self.schedule.epochs() - 1);
        Some(WeightAddress {
            block: last_epoch * self.inner.block_count() + addr.block,
            word: self.schedule.final_physical_word(addr.word as u64) as usize,
        })
    }

    fn layer_stream_words(&self, layer: usize) -> u64 {
        self.inner.layer_stream_words(layer)
    }

    /// The inner plan's weights, once per epoch.
    fn per_layer_dwell_weights(&self, factors: &[f64]) -> Vec<f64> {
        self.inner
            .per_layer_dwell_weights(factors)
            .repeat(self.schedule.epochs() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;

    #[test]
    fn alexnet_block_count_matches_paper_scale() {
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &NetworkSpec::alexnet(),
            NumberFormat::Int8Symmetric,
            1,
        );
        // All AlexNet layers have filter counts divisible by f = 8, so
        // the stream is exactly the 60,954,656 weights; 512 KB fills:
        // ceil(60954656 / 524288) = 117 — the paper's "K = DNN size /
        // memory size".
        assert_eq!(mem.stream_len(), 60_954_656);
        assert_eq!(mem.block_count(), 117);
    }

    #[test]
    fn fp32_quarters_capacity_and_scales_blocks() {
        let int8 = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &NetworkSpec::alexnet(),
            NumberFormat::Int8Symmetric,
            1,
        );
        let fp32 = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &NetworkSpec::alexnet(),
            NumberFormat::Fp32,
            1,
        );
        assert_eq!(fp32.geometry().words, int8.geometry().words / 4);
        // 131072 fp32 words per fill: ceil(60954656 / 131072) = 466.
        assert_eq!(fp32.block_count(), 466);
    }

    #[test]
    fn words_are_deterministic_and_in_range() {
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Asymmetric,
            7,
        );
        for block in 0..mem.block_count().min(4) {
            for word in [0usize, 1, 8, 100, mem.geometry().words - 1] {
                let a = mem.word(block, word);
                let b = mem.word(block, word);
                assert_eq!(a, b);
                assert!(a < 256, "8-bit word out of range: {a}");
            }
        }
    }

    #[test]
    fn interleaving_maps_consecutive_words_to_filters() {
        // For f=8: stream words 0..8 are weight 0 of filters 0..8.
        let spec = NetworkSpec::custom_mnist();
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Symmetric,
            7,
        );
        let gen = LayerWeightGen::new(&spec, 0, 7);
        let quantizer = {
            let r = gen.range(u64::MAX);
            Quantizer::calibrate(NumberFormat::Int8Symmetric, &r)
        };
        for filter in 0..8u64 {
            let expect = u64::from(quantizer.encode(gen.weight(filter * 25)));
            assert_eq!(mem.word(0, filter as usize), expect, "filter {filter}");
        }
        // Word 8 is weight 1 of filter 0.
        let expect = u64::from(quantizer.encode(gen.weight(1)));
        assert_eq!(mem.word(0, 8), expect);
    }

    #[test]
    fn final_fill_tail_is_zero_padded() {
        // The custom network stream (231,696 words at 8-bit) does not
        // fill the last 512 KB block; its tail must be zero.
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            7,
        );
        assert_eq!(mem.stream_len(), 231_696);
        assert_eq!(mem.block_count(), 1);
        assert_eq!(mem.word(0, mem.geometry().words - 1), 0);
    }

    #[test]
    fn ragged_set_lanes_are_zero_padded() {
        // conv2 of the custom net has 50 filters: the 7th set uses only
        // 2 of its 8 lanes. Stream position of conv2 set 6, weight 0,
        // lane 2 (filter 50 — out of range) must be zero.
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            7,
        );
        // conv1 stream: 2 sets × 8 × 25 = 400 words; conv2 set 6 starts
        // at 400 + 6×8×400 = 19600; lane 2 is word 19602.
        assert_eq!(mem.word(0, 19_602), 0);
        // Lane 0 of that set (filter 48) is real data.
        assert_ne!(mem.word(0, 19_600), 0);
    }

    #[test]
    fn compute_weighted_dwell_favours_conv_fills() {
        let spec = NetworkSpec::alexnet();
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Symmetric,
            1,
        );
        let weights = mem.layer_proportional_weights(&spec);
        let mem = mem.with_dwell_weights(weights);
        // Mean dwell is 1.0 by construction.
        let k = mem.block_count();
        let mean: f64 = (0..k).map(|b| mem.dwell(b)).sum::<f64>() / k as f64;
        assert!((mean - 1.0).abs() < 1e-9);
        // The first fill (conv layers, heavy reuse) dwells far longer
        // than a mid-stream FC fill.
        let conv_dwell = mem.dwell(0);
        let fc_dwell = mem.dwell(k / 2); // deep inside fc6
        assert!(
            conv_dwell > 10.0 * fc_dwell,
            "conv {conv_dwell} vs fc {fc_dwell}"
        );
    }

    #[test]
    fn default_dwell_is_uniform() {
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &NetworkSpec::alexnet(),
            NumberFormat::Int8Symmetric,
            1,
        );
        assert_eq!(mem.dwell(0), 1.0);
        assert_eq!(mem.dwell(mem.block_count() - 1), 1.0);
    }

    #[test]
    fn explicit_dwell_weights_normalize_to_mean_one() {
        let mut cfg = AcceleratorConfig::baseline();
        cfg.weight_memory_bytes = 2048;
        let mem = FlatWeightMemory::new(
            &cfg,
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            3,
        );
        let k = mem.block_count();
        let mem = mem.with_dwell_weights((1..=k).map(|b| (b as f64).powf(-1.3)).collect());
        let mean: f64 = (0..k).map(|b| mem.dwell(b)).sum::<f64>() / k as f64;
        assert!((mean - 1.0).abs() < 1e-9, "mean dwell {mean}");
        assert!(mem.dwell(0) > mem.dwell(k - 1));
    }

    #[test]
    fn per_layer_factors_weight_blocks_by_layer_span() {
        // Two factors: double residency for conv1 words, none extra for
        // the rest. custom_mnist has 4 layers.
        let mut cfg = AcceleratorConfig::baseline();
        cfg.weight_memory_bytes = 2048;
        let mem = FlatWeightMemory::new(
            &cfg,
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            3,
        );
        let raw = mem.per_layer_dwell_weights(&[2.0, 1.0, 1.0, 1.0]);
        assert_eq!(raw.len() as u64, mem.block_count());
        // Block 0 holds conv1 (400 words at factor 2) + conv2 start; it
        // must outweigh a pure-conv2 block.
        assert!(raw[0] > raw[1], "conv1 block {} vs {}", raw[0], raw[1]);
    }

    #[test]
    fn npu_dwell_weights_follow_tile_layers() {
        let spec = NetworkSpec::custom_mnist();
        let slots = FifoSlotMemory::all_slots(&spec, NumberFormat::Int8Symmetric, 1);
        // 8 tiles: conv1 (1), conv2 (2), fc1 (4), fc2 (1). Slot 0 holds
        // tiles 0 (conv1) and 4 (fc1).
        let raw = slots[0].per_layer_dwell_weights(&[8.0, 4.0, 2.0, 1.0]);
        assert_eq!(raw, vec![8.0, 2.0]);
        // Layer-proportional: conv1 is reused across 576 output
        // positions, fc1 only once per inference, so the conv tile
        // dwells far longer.
        let prop = slots[0].layer_proportional_weights(&spec);
        assert!(
            prop[0] > 4.0 * prop[1],
            "conv {0} vs fc {1}",
            prop[0],
            prop[1]
        );
        let mem = slots[0].clone().with_dwell_weights(prop);
        let mean = (mem.dwell(0) + mem.dwell(1)) / 2.0;
        assert!((mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn npu_tile_counts() {
        let slots =
            FifoSlotMemory::all_slots(&NetworkSpec::custom_mnist(), NumberFormat::Int8Symmetric, 1);
        // conv1: 16 filters × 25 wpf → 1×1 = 1 tile; conv2: 50×400 → 1×2 = 2;
        // fc1: 256×800 → 1×4 = 4; fc2: 10×256 → 1×1 = 1. Total 8 tiles.
        assert_eq!(slots[0].total_tiles(), 8);
        // Round-robin: each slot gets exactly 2 of the 8 tiles.
        for s in &slots {
            assert_eq!(s.block_count(), 2);
        }
    }

    #[test]
    fn npu_global_index_is_round_robin() {
        let slot2 =
            FifoSlotMemory::all_slots(&NetworkSpec::custom_mnist(), NumberFormat::Int8Symmetric, 1)
                .swap_remove(2);
        assert_eq!(slot2.global_block_index(0, 0), 2);
        assert_eq!(slot2.global_block_index(0, 1), 6);
        // Second inference continues the global tile count (8 tiles/inf).
        assert_eq!(slot2.global_block_index(1, 0), 10);
    }

    #[test]
    fn npu_rejects_fp32() {
        let result = std::panic::catch_unwind(|| {
            FifoSlotMemory::all_slots(&NetworkSpec::custom_mnist(), NumberFormat::Fp32, 1)
        });
        assert!(result.is_err());
    }

    fn gen_tables(spec: &NetworkSpec, seed: u64) -> Vec<Vec<f32>> {
        (0..spec.layers().len())
            .map(|li| {
                let gen = LayerWeightGen::new(spec, li, seed);
                gen.iter().collect()
            })
            .collect()
    }

    #[test]
    fn table_backed_flat_plan_reproduces_generated_words() {
        let spec = NetworkSpec::custom_mnist();
        let from_gen = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Asymmetric,
            9,
        );
        let from_tables = FlatWeightMemory::with_weight_tables(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Asymmetric,
            &gen_tables(&spec, 9),
        );
        assert_eq!(from_tables.block_count(), from_gen.block_count());
        for word in [0usize, 1, 399, 19_600, 231_695] {
            assert_eq!(from_tables.word(0, word), from_gen.word(0, word));
        }
        assert_eq!(
            from_tables.layer_quantizer(2),
            from_gen.layer_quantizer(2),
            "table calibration must match the generator's range"
        );
    }

    #[test]
    fn table_backed_plan_sees_edited_weights() {
        let spec = NetworkSpec::custom_mnist();
        let mut tables = gen_tables(&spec, 9);
        tables[0][0] = 100.0; // outlier dominating conv1's calibration range
        let mem = FlatWeightMemory::with_weight_tables(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Symmetric,
            &tables,
        );
        let addr = mem.locate_weight(0, 0).expect("one flat unit");
        let code = mem.word(addr.block, addr.word);
        // The outlier dominates the symmetric range, so it encodes to
        // the top code.
        assert_eq!(code as u8 as i8, 127);
    }

    #[test]
    #[should_panic(expected = "weight table for layer")]
    fn table_shape_mismatch_rejected() {
        let spec = NetworkSpec::custom_mnist();
        let mut tables = gen_tables(&spec, 9);
        tables[1].pop();
        let _ = FlatWeightMemory::with_weight_tables(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Symmetric,
            &tables,
        );
    }

    #[test]
    fn locate_weight_inverts_the_flat_dataflow() {
        let spec = NetworkSpec::custom_mnist();
        let mem = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Symmetric,
            7,
        );
        for (li, layer) in spec.layers().iter().enumerate() {
            let gen = LayerWeightGen::new(&spec, li, 7);
            let quantizer = mem.layer_quantizer(li);
            let count = layer.weight_count();
            for index in [0, 1, count / 2, count - 1] {
                let addr = mem.locate_weight(li, index).expect("one flat unit");
                assert_eq!(
                    mem.word(addr.block, addr.word),
                    u64::from(quantizer.encode(gen.weight(index))),
                    "layer {li} weight {index} at {addr:?}"
                );
            }
        }
    }

    #[test]
    fn locate_weight_inverts_the_npu_dataflow() {
        let spec = NetworkSpec::custom_mnist();
        let slots = FifoSlotMemory::all_slots(&spec, NumberFormat::Int8Symmetric, 7);
        for (li, layer) in spec.layers().iter().enumerate() {
            let gen = LayerWeightGen::new(&spec, li, 7);
            let quantizer = slots[0].layer_quantizer(li);
            let count = layer.weight_count();
            for index in [0, 1, count / 2, count - 1] {
                let hits: Vec<(usize, WeightAddress)> = slots
                    .iter()
                    .enumerate()
                    .filter_map(|(s, slot)| slot.locate_weight(li, index).map(|a| (s, a)))
                    .collect();
                assert_eq!(hits.len(), 1, "layer {li} weight {index}: {hits:?}");
                let (s, addr) = hits[0];
                assert_eq!(
                    slots[s].word(addr.block, addr.word),
                    u64::from(quantizer.encode(gen.weight(index))),
                    "layer {li} weight {index} in slot {s} at {addr:?}"
                );
            }
        }
    }

    #[test]
    fn ecc_plan_grows_parity_columns_and_encodes_codewords() {
        use dnnlife_quant::{RepairPolicy, SecdedCode};
        let spec = NetworkSpec::custom_mnist();
        let secded = RepairPolicy::Secded { interleave: 1 };
        let plain = FlatWeightMemory::new(
            &AcceleratorConfig::baseline(),
            &spec,
            NumberFormat::Int8Symmetric,
            7,
        );
        let ecc = plain.clone().with_repair(&secded);
        // Geometry: same word count, 5 extra parity columns per word —
        // total cells are data + parity exactly.
        assert_eq!(ecc.geometry().words, plain.geometry().words);
        assert_eq!(ecc.geometry().word_bits, 13);
        assert_eq!(
            ecc.geometry().cells(),
            plain.geometry().cells() + plain.geometry().words as u64 * 5
        );
        // Every stored word is the codeword of the plain data word.
        let code = SecdedCode::for_data_bits(8);
        for word in [0usize, 1, 399, 19_600, 231_695] {
            assert_eq!(ecc.word(0, word), code.encode(plain.word(0, word)));
            assert_eq!(code.syndrome(ecc.word(0, word)), 0);
        }
        // `RepairPolicy::None` is the identity.
        let same = plain.clone().with_repair(&RepairPolicy::None);
        assert_eq!(same.geometry(), plain.geometry());
        assert_eq!(same.word(0, 42), plain.word(0, 42));

        // NPU slots grow the same columns.
        let slots = FifoSlotMemory::all_slots(&spec, NumberFormat::Int8Symmetric, 7);
        let slot_ecc = slots[0].clone().with_repair(&secded);
        assert_eq!(slot_ecc.geometry().word_bits, 13);
        assert_eq!(slot_ecc.geometry().words, slots[0].geometry().words);
        assert_eq!(slot_ecc.word(0, 5), code.encode(slots[0].word(0, 5)));
        // Interleaved layouts permute columns but keep the bit
        // population (the codeword content is identical).
        let scattered = slots[0]
            .clone()
            .with_repair(&RepairPolicy::Secded { interleave: 5 });
        let mut permuted_somewhere = false;
        for w in 0..100usize {
            assert_eq!(
                scattered.word(0, w).count_ones(),
                slot_ecc.word(0, w).count_ones(),
                "word {w}"
            );
            permuted_somewhere |= scattered.word(0, w) != slot_ecc.word(0, w);
        }
        assert!(permuted_somewhere, "stride-5 layout should move columns");
    }

    #[test]
    fn alexnet_npu_tiles() {
        let slots =
            FifoSlotMemory::all_slots(&NetworkSpec::alexnet(), NumberFormat::Int8Symmetric, 1);
        // 61M weights / 64Ki per tile, with per-layer ragged edges: the
        // count is near but above the dense bound.
        let total = slots[0].total_tiles();
        assert!((930..1100).contains(&total), "tiles = {total}");
    }

    fn small_flat() -> FlatWeightMemory {
        FlatWeightMemory::new(
            &AcceleratorConfig::crossbar(),
            &NetworkSpec::custom_mnist(),
            NumberFormat::Int8Symmetric,
            7,
        )
    }

    #[test]
    fn crossbar_geometry_matches_tile_budget() {
        let mem = small_flat();
        // 64 tiles × 128 WL × 128 BL single-bit cells = 131072 8-bit words.
        assert_eq!(mem.geometry().words, 131_072);
        assert_eq!(mem.geometry().word_bits, 8);
        // Custom MNIST (231,696 weights) streams as two crossbar fills.
        assert_eq!(mem.block_count(), 2);
    }

    #[test]
    fn remapped_memory_is_the_inner_plan_viewed_through_the_schedule() {
        let inner = small_flat();
        let k = inner.block_count();
        let remapped = RemappedMemory::new(inner.clone(), 16, 4);
        assert_eq!(remapped.block_count(), 4 * k);
        assert_eq!(remapped.geometry(), inner.geometry());
        let schedule = *remapped.schedule();
        for block in [0u64, k, 2 * k + 1, 4 * k - 1] {
            let epoch = (block / k) as u32;
            for word in [0usize, 17, 4000, 131_071] {
                let logical = schedule.logical_word(word as u64, epoch) as usize;
                assert_eq!(
                    remapped.word(block, word),
                    inner.word(block % k, logical),
                    "block {block} word {word}"
                );
            }
        }
        // Epoch 0 is the identity view.
        for word in 0..64 {
            assert_eq!(remapped.word(0, word), inner.word(0, word));
        }
    }

    #[test]
    fn remapped_memory_preserves_per_epoch_word_population() {
        let inner = small_flat();
        let k = inner.block_count();
        let remapped = RemappedMemory::new(inner.clone(), 16, 3);
        // Rotation only moves words, so each epoch's sum over physical
        // addresses equals the inner plan's sum over logical addresses.
        for inner_block in 0..k {
            let want: u64 = (0..inner.geometry().words)
                .map(|w| inner.word(inner_block, w))
                .sum();
            for epoch in 0..3u64 {
                let got: u64 = (0..inner.geometry().words)
                    .map(|w| remapped.word(epoch * k + inner_block, w))
                    .sum();
                assert_eq!(got, want, "epoch {epoch} block {inner_block}");
            }
        }
    }

    #[test]
    fn remapped_memory_inherits_dwell_per_inner_block() {
        let inner = small_flat().with_dwell_weights(vec![3.0, 1.0]);
        let d0 = inner.dwell(0);
        let d1 = inner.dwell(1);
        let remapped = RemappedMemory::new(inner, 16, 4);
        for epoch in 0..4u64 {
            assert_eq!(remapped.dwell(epoch * 2), d0);
            assert_eq!(remapped.dwell(epoch * 2 + 1), d1);
        }
    }

    #[test]
    fn remapped_memory_locates_weights_in_the_final_epoch() {
        let inner = small_flat();
        let k = inner.block_count();
        let remapped = RemappedMemory::new(inner.clone(), 16, 4);
        for index in [0u64, 1, 9_999] {
            let logical = inner.locate_weight(2, index).expect("one flat unit");
            let physical = remapped.locate_weight(2, index).expect("one flat unit");
            assert_eq!(physical.block, 3 * k + logical.block);
            assert_eq!(
                remapped.word(physical.block, physical.word),
                inner.word(logical.block, logical.word),
                "layer 2 weight {index}"
            );
        }
    }

    #[test]
    fn remapped_memory_label_names_the_rotation() {
        let remapped = RemappedMemory::new(small_flat(), 16, 4);
        assert!(
            remapped.label().ends_with("+wear-level:4"),
            "{}",
            remapped.label()
        );
    }
}
