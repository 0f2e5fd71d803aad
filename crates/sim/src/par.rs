//! Tests of [`crate::runner::map_indexed`] in the per-peer shape: the
//! overlay's bulk build, a join's re-selections and the oracle call it
//! with [`Grain::PEERS`](crate::runner::Grain::PEERS), whose inline threshold and claim size these
//! exercise.

mod tests {
    use crate::runner::{fan_out, map_indexed, Grain};

    /// Order holds on both sides of the inline threshold.
    #[test]
    fn map_preserves_index_order() {
        for n in [511, 512, 1000] {
            let out = map_indexed(Grain::PEERS, n, |i| i * 3);
            assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        assert!(map_indexed(Grain::PEERS, 0, |i| i).is_empty());
        assert_eq!(map_indexed(Grain::PEERS, 3, |i| i + 1), vec![1, 2, 3]);
    }

    /// Claims that do not divide `n` still cover it: the last one is cut
    /// at `n`.
    #[test]
    fn parallel_path_matches_sequential() {
        let seq: Vec<usize> = (0..5000).map(|i| i ^ 0xabc).collect();
        let par = fan_out(5000, 4, 7, &|i| i ^ 0xabc);
        assert_eq!(par, seq);
    }
}
