//! Scalar types shared across the workspace.
//!
//! The paper works with positive integral edge weights that are polynomial in
//! `n`, and notes that real-valued weights reduce to this case as long as the
//! ratio between the maximum and minimum weight is polynomial. We therefore
//! use fixed-point integers everywhere:
//!
//! * [`Weight`] (`u32`) — the weight of a single edge.
//! * [`Dist`] (`u64`) — a path weight / distance; wide enough that summing
//!   `u32::MAX` weights over billions of hops cannot overflow in practice.
//! * [`WEIGHT_SCALE`] — the fixed-point scale used to embed weights drawn
//!   uniformly from `(0, 1]` (the convention the paper adopts for graphs that
//!   are born unweighted).

/// Node identifier. Graphs are limited to `u32::MAX - 1` nodes, which is far
/// beyond what a single-machine reproduction materializes.
pub type NodeId = u32;

/// Weight of a single edge (positive, fixed-point integer).
pub type Weight = u32;

/// Weight of a path (sum of edge weights).
pub type Dist = u64;

/// Sentinel for "unreachable" / "not yet reached" distances.
pub const INFINITY: Dist = u64::MAX;

/// Fixed-point scale for weights drawn from the real interval `(0, 1]`:
/// a real weight `x` is stored as `ceil(x * WEIGHT_SCALE)`.
pub const WEIGHT_SCALE: Weight = 1_000_000;

/// Converts a real-valued weight in `(0, 1]` to its fixed-point representation.
///
/// Values are clamped so that the result is always a positive weight, matching
/// the paper's requirement that every edge weight is strictly positive.
///
/// # Examples
///
/// ```
/// use cldiam_graph::{weight_from_unit, WEIGHT_SCALE};
/// assert_eq!(weight_from_unit(1.0), WEIGHT_SCALE);
/// assert_eq!(weight_from_unit(0.0), 1); // clamped to the minimum positive weight
/// ```
pub fn weight_from_unit(x: f64) -> Weight {
    let scaled = (x * f64::from(WEIGHT_SCALE)).ceil();
    if scaled < 1.0 {
        1
    } else if scaled >= f64::from(Weight::MAX) {
        Weight::MAX
    } else {
        scaled as Weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_weight_roundtrip_is_close() {
        for &x in &[0.001, 0.25, 0.5, 0.75, 1.0] {
            let w = weight_from_unit(x);
            let back = f64::from(w) / f64::from(WEIGHT_SCALE);
            assert!((back - x).abs() < 2.0 / f64::from(WEIGHT_SCALE), "{x} -> {w} -> {back}");
        }
    }

    #[test]
    fn unit_weight_is_always_positive() {
        assert_eq!(weight_from_unit(0.0), 1);
        assert_eq!(weight_from_unit(-3.0), 1);
        assert!(weight_from_unit(1e-12) >= 1);
    }

    #[test]
    fn unit_weight_saturates() {
        assert_eq!(weight_from_unit(1e10), Weight::MAX);
    }
}
