//! Control-plane wire sizing shared by the synchronous and asynchronous
//! AdaFL flavours.
//!
//! Both engines ship the same artefacts over the control plane — the
//! top-1% `ĝ` digest and the 16-byte utility-score report — and judge
//! bandwidth sufficiency against the same "typical adaptively-compressed
//! payload" yardstick. These constants used to be duplicated per engine;
//! they are pinned here so the two protocols cannot silently drift apart.

use adafl_compression::dense_wire_size;

/// Wire size of a utility-score report (client id + score + tag).
pub const SCORE_REPORT_BYTES: usize = 16;

/// Fraction of coordinates kept in the broadcast `ĝ` digest (top 1/100).
pub const DIGEST_FRACTION: usize = 100;

/// Number of coordinates in the `ĝ` digest for a `dim`-parameter model —
/// top 1%, but never empty.
pub fn digest_len(dim: usize) -> usize {
    (dim / DIGEST_FRACTION).max(1)
}

/// The compression factor of a *typical* adaptively-compressed uplink
/// payload relative to the dense wire size.
///
/// AdaFL assigns each selected client a DGC compression ratio from the
/// adaptive band: by default `min_ratio` 4× for the top-ranked client up
/// to `max_ratio` 210× for the last ([`AdaFlConfig`](crate::AdaFlConfig),
/// Table I; see [`crate::compression_control`]). Its log-midpoint,
/// √(4·210) ≈ 29×, a keep-ratio of roughly 1/32, matches the paper's
/// measured uplink volumes (Tables I and II: 60–78 % total bandwidth
/// saving, the uplink dominated by the compressed deltas); in the sparse
/// wire format each kept coordinate costs an (index, value) pair, twice a
/// dense one. A 1/32-keep sparse update therefore lands at ~1/16 of the
/// dense frame, the yardstick the utility score judges link bandwidth
/// against. `codec_ties_ratio_to_sparse_wire_format` below pins this
/// arithmetic to the actual [`WireCodec`](adafl_compression::WireCodec)
/// encoding so the constant cannot drift from the codec.
pub const TYPICAL_ADAPTIVE_RATIO: usize = 16;

/// The payload size a client's bandwidth is judged against in the utility
/// score: a typical adaptively-compressed update (dense wire size /
/// [`TYPICAL_ADAPTIVE_RATIO`]), not the full dense model.
pub fn expected_compressed_payload(dim: usize) -> usize {
    dense_wire_size(dim) / TYPICAL_ADAPTIVE_RATIO
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_keeps_one_percent() {
        assert_eq!(digest_len(650), 6);
        assert_eq!(digest_len(100), 1);
        assert_eq!(digest_len(10_000), 100);
    }

    #[test]
    fn digest_is_never_empty() {
        assert_eq!(digest_len(0), 1);
        assert_eq!(digest_len(1), 1);
        assert_eq!(digest_len(99), 1);
    }

    #[test]
    fn expected_payload_is_a_sixteenth_of_dense() {
        let dim = 650;
        assert_eq!(
            expected_compressed_payload(dim),
            dense_wire_size(dim) / TYPICAL_ADAPTIVE_RATIO
        );
        assert!(expected_compressed_payload(dim) < dense_wire_size(dim));
    }

    #[test]
    fn codec_ties_ratio_to_sparse_wire_format() {
        // The yardstick is "a 1/32-keep sparse update": each kept
        // coordinate ships as an (index, value) pair — twice a dense
        // coordinate — so the encoded frame sits at ~dense/16. Pin that
        // against the real codec, not pencil arithmetic.
        use adafl_compression::{top_k, WireCodec};
        for dim in [1024usize, 4096, 65_536] {
            let dense: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.13).sin()).collect();
            let sparse = top_k(&dense, dim / 32);
            let yardstick = expected_compressed_payload(dim);
            let actual = sparse.encoded_len();
            let gap = actual.abs_diff(yardstick);
            assert!(
                gap <= 16,
                "dim {dim}: 1/32-keep sparse frame is {actual} B, \
                 yardstick dense/{TYPICAL_ADAPTIVE_RATIO} is {yardstick} B"
            );
        }
    }

    #[test]
    fn score_report_is_tiny() {
        // A score report must be negligible next to any model payload.
        assert!(SCORE_REPORT_BYTES < expected_compressed_payload(650));
    }
}
