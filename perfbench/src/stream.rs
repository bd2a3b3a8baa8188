//! Seeded request streams: unique COCO-profile items and a Zipf repeat
//! stream. The server only ever sees the items built here.

use ams::prelude::*;
use std::sync::Arc;

/// World seed shared by the agent's training scenes, the served scenes
/// and the scheduler: one simulated world, so the trained agent is
/// serving the kind of scenes it learned on.
pub const WORLD_SEED: u64 = 7;

/// Scene indices below this are reserved for the agent's training set,
/// so no served item is a training item.
const SERVED_BASE: u64 = 1 << 32;

/// Scene-index stride between seeds: every seed draws its own disjoint
/// index range, so different seeds serve different scenes.
const SEED_STRIDE: u64 = 1 << 24;

/// Value threshold the truth rows and the scheduler share.
pub const VALUE_THRESHOLD: f32 = 0.5;

/// SplitMix64's output finalizer: a bijective 64-bit mix in which every
/// input bit affects every output bit.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// SplitMix64: a tiny, fully specified generator, so a stream depends on
/// the seed alone and never on a library's RNG internals.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The model zoo, catalog and scene generator the served items come from.
pub struct ItemSource {
    zoo: ModelZoo,
    catalog: LabelCatalog,
    scenes: SceneGenerator,
    base: u64,
}

impl ItemSource {
    /// The COCO-profile source for `seed`.
    pub fn new(seed: u64) -> Self {
        let zoo = ModelZoo::standard();
        let catalog = zoo.catalog();
        Self {
            zoo,
            catalog,
            scenes: DatasetProfile::Coco2017.generator(WORLD_SEED),
            base: SERVED_BASE + (seed % (1 << 20)) * SEED_STRIDE,
        }
    }

    /// The `k`-th distinct item of this seed's stream: a fresh scene with
    /// its full ground truth (every zoo model executed once, as the paper's
    /// truth procedure does). Distinct `k` give distinct scene ids and so
    /// distinct content hashes.
    pub fn item(&self, k: usize) -> ItemTruth {
        let scene = self.scenes.scene(self.base + k as u64);
        ItemTruth::build(
            &self.zoo,
            &self.catalog,
            &scene,
            WORLD_SEED,
            VALUE_THRESHOLD,
        )
    }

    /// Items `0..n` of this seed's stream.
    pub fn items(&self, n: usize) -> Vec<Arc<ItemTruth>> {
        (0..n).map(|k| Arc::new(self.item(k))).collect()
    }
}

/// The agent's training set: the first `n` scenes of the world, the same
/// for every seed (the agent is part of the system under test, not of
/// its input).
pub fn training_items(n: usize) -> Vec<ItemTruth> {
    let zoo = ModelZoo::standard();
    let ds = Dataset::generate(DatasetProfile::Coco2017, n, WORLD_SEED);
    TruthTable::build(&zoo, &zoo.catalog(), &ds, VALUE_THRESHOLD)
        .items()
        .to_vec()
}

/// A repeat stream as indices into its distinct items: with probability
/// `repeat_share` a submission repeats an already-seen item, drawn with a
/// quadratic (Zipf-like) skew toward the earliest, most popular ones;
/// otherwise it introduces the next fresh item. Returns the submission
/// order and the number of distinct items it uses (fresh draws), which is
/// all the item pool has to hold.
pub fn repeat_order(submissions: usize, repeat_share: f64, seed: u64) -> (Vec<u32>, usize) {
    let mut rng = SplitMix64::new(seed ^ 0x5eed_0f2e_9e47);
    let mut fresh = 0usize;
    let order = (0..submissions)
        .map(|_| {
            if fresh > 0 && rng.next_f64() < repeat_share {
                let u = rng.next_f64();
                ((u * u * fresh as f64) as usize).min(fresh - 1) as u32
            } else {
                fresh += 1;
                (fresh - 1) as u32
            }
        })
        .collect();
    (order, fresh)
}
