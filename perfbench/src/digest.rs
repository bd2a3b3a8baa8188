//! Order-independent digests of labeled results.

use crate::stream::mix64;
use ams::prelude::LabelId;

/// One result's contribution: FNV-1a over the submission index and every
/// `(label, confidence)` pair (confidences by their IEEE-754 bits, so
/// equal digests mean bit-identical labels), then a SplitMix finalizer so
/// contributions sum without structure.
fn item_digest(index: u64, labels: &[(LabelId, f32)]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |x: u64| h = (h ^ x).wrapping_mul(PRIME);
    mix(index);
    mix(labels.len() as u64);
    for &(label, conf) in labels {
        mix(u64::from(label.0));
        mix(u64::from(conf.to_bits()));
    }
    mix64(h)
}

/// An order-independent fold of result digests: a wrapping sum, so
/// completion order does not matter but a result delivered twice (or
/// missing) changes the total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    /// Fold in one result.
    pub fn add(&mut self, index: u64, labels: &[(LabelId, f32)]) {
        self.0 = self.0.wrapping_add(item_digest(index, labels));
    }
}
