//! The wire-codec layer: one vocabulary for turning updates into bytes.
//!
//! Every payload that crosses the simulated network — dense deltas, DGC
//! sparse updates, QSGD quantized updates, TernGrad ternary updates — is a
//! [`WireCodec`]: it knows its exact encoded size up front
//! ([`WireCodec::encoded_len`]), serialises itself into a byte buffer
//! ([`WireCodec::encode_into`]), and parses back defensively
//! ([`WireCodec::decode`]). The invariant
//! `encoded_len() == encode().len()` is property-tested for every form, so
//! ledger accounting can charge `encoded_len()` instead of hand-maintained
//! size formulas and is guaranteed to match the real byte stream.
//!
//! This module is the single serialization authority: the layout constants
//! ([`DENSE_HEADER_BYTES`] …) and primitive writers/readers
//! ([`write_f32s`], [`read_f32s_exact`], [`fletcher64`]) defined here are
//! the only place that knows how multi-byte fields are laid out. The
//! per-form `WireCodec` impls live next to their types (they need field
//! access) but are built exclusively from these primitives; the checkpoint
//! codec in the `fl` crate reuses the same helpers.
//!
//! # Byte layouts (all integers little-endian)
//!
//! | form | layout | size |
//! |---|---|---|
//! | dense | `u64` len · `f32`×len | `8 + 4·len` |
//! | sparse | `u64` dense_len · `u64` nnz · (`u32` idx, `f32` val)×nnz | `16 + 8·nnz` |
//! | quantized | `u64` levels≪56 \| len · `f32` norm · `u8` code×len | `12 + len` |
//! | ternary | `u64` len · `f32` scale · `u8`×⌈len/4⌉ (2-bit codes) | `12 + ⌈len/4⌉` |
//! | view | `u64` dense_len · `u32` nseg · (`u32` off, `u32` len)×nseg | `12 + 8·nseg` |
//!
//! # Decoder hardening
//!
//! All `decode` impls share the same defensive posture (mirrored from the
//! checkpoint codec): length arithmetic uses checked math so a lying
//! header cannot overflow, allocations are bounded by the actual buffer
//! length, and the buffer must be consumed exactly — trailing bytes are a
//! [`DecodeError::TrailingBytes`], not silently ignored. No input can make
//! a decoder panic or allocate unboundedly.

use bytes::{Buf, BufMut};

/// Header bytes of the dense wire form (`u64` element count).
pub const DENSE_HEADER_BYTES: usize = 8;

/// Header bytes of the sparse wire form (`u64` dense_len + `u64` nnz).
pub const SPARSE_HEADER_BYTES: usize = 16;

/// Bytes per transmitted sparse element (`u32` index + `f32` value).
pub const SPARSE_PAIR_BYTES: usize = 8;

/// Header bytes of the quantized wire form (`u64` packed levels/len +
/// `f32` norm).
pub const QUANTIZED_HEADER_BYTES: usize = 12;

/// Header bytes of the ternary wire form (`u64` len + `f32` scale).
pub const TERNARY_HEADER_BYTES: usize = 12;

/// Low 56 bits of the quantized header hold the coordinate count; the top
/// byte holds the level count.
pub const QUANTIZED_LEN_MASK: u64 = (1 << 56) - 1;

/// Header bytes of the view-descriptor wire form (`u64` dense_len +
/// `u32` segment count).
pub const VIEW_HEADER_BYTES: usize = 12;

/// Bytes per view-descriptor segment (`u32` offset + `u32` length).
pub const VIEW_SEGMENT_BYTES: usize = 8;

/// Error from a [`WireCodec::decode`] implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The buffer ended before the declared payload.
    Truncated,
    /// Indices were not strictly increasing or exceeded the dense length.
    InvalidIndices,
    /// The buffer continues past the declared payload.
    TrailingBytes,
    /// A header field holds a value the encoder can never produce.
    InvalidHeader,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer shorter than declared payload"),
            DecodeError::InvalidIndices => write!(f, "indices not strictly increasing in range"),
            DecodeError::TrailingBytes => write!(f, "buffer longer than declared payload"),
            DecodeError::InvalidHeader => write!(f, "header field out of encodable range"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A payload with a binary wire format of statically known size.
///
/// Implementors guarantee `encoded_len() == encode().len()` — the property
/// the communication ledger relies on to charge bytes without actually
/// serialising — and that `decode` rejects any malformed input with a
/// [`DecodeError`] rather than panicking or over-allocating.
pub trait WireCodec: Sized {
    /// Exact number of bytes [`WireCodec::encode_into`] will append.
    fn encoded_len(&self) -> usize;

    /// Appends the wire encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Parses a buffer produced by [`WireCodec::encode_into`]. The whole
    /// buffer must be consumed.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for truncated, oversized, or otherwise
    /// malformed input; never panics and never allocates more than the
    /// buffer length justifies.
    fn decode(buf: &[u8]) -> Result<Self, DecodeError>;

    /// Convenience wrapper: encodes into a fresh, exactly-sized vector.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        debug_assert_eq!(out.len(), self.encoded_len());
        out
    }
}

/// A dense `f32` delta in its wire form: the identity "compression".
///
/// Wraps the raw vector the dense baselines (FedAvg, FedAsync, …) ship, so
/// dense traffic is accounted and corrupted through the same codec
/// pipeline as every compressed form.
///
/// # Examples
///
/// ```
/// use adafl_compression::{DenseUpdate, WireCodec};
///
/// let u = DenseUpdate::new(vec![1.0, -2.5]);
/// let bytes = u.encode();
/// assert_eq!(bytes.len(), u.encoded_len());
/// assert_eq!(DenseUpdate::decode(&bytes), Ok(u));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseUpdate {
    values: Vec<f32>,
}

impl DenseUpdate {
    /// Wraps a dense vector.
    pub fn new(values: Vec<f32>) -> Self {
        DenseUpdate { values }
    }

    /// Number of coordinates.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` for an empty update.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The coordinates.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable access for in-place scrubbing.
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Unwraps into the dense vector.
    pub fn into_values(self) -> Vec<f32> {
        self.values
    }
}

impl WireCodec for DenseUpdate {
    fn encoded_len(&self) -> usize {
        DENSE_HEADER_BYTES + 4 * self.values.len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        out.put_u64_le(self.values.len() as u64);
        write_f32s(out, &self.values);
    }

    fn decode(mut buf: &[u8]) -> Result<Self, DecodeError> {
        if buf.len() < DENSE_HEADER_BYTES {
            return Err(DecodeError::Truncated);
        }
        let len = usize::try_from(buf.get_u64_le()).map_err(|_| DecodeError::Truncated)?;
        let values = read_f32s_exact(buf, len)?;
        Ok(DenseUpdate { values })
    }
}

/// The coordinate mask of a parameter sub-view, as transmitted over the
/// wire alongside a sub-model update.
///
/// Heterogeneous-capacity clients train only a slice of the model
/// (federated-dropout/FedRolex width slicing, SLT layer freezing); the
/// server and client must agree which global coordinates the transmitted
/// values occupy. A `ViewDescriptor` is that agreement in compact form: a
/// sorted, disjoint list of `(offset, len)` coordinate segments into a
/// dense vector of `dense_len` coordinates. It is a [`WireCodec`], so its
/// `encoded_len()` is byte-charged to the communication ledger exactly
/// like the payload it frames — constrained-link savings from sub-model
/// training are measured net of descriptor overhead.
///
/// # Examples
///
/// ```
/// use adafl_compression::{ViewDescriptor, WireCodec};
///
/// let d = ViewDescriptor::new(10, vec![(2, 3), (7, 1)]);
/// assert_eq!(d.view_len(), 4);
/// let bytes = d.encode();
/// assert_eq!(bytes.len(), d.encoded_len());
/// assert_eq!(ViewDescriptor::decode(&bytes), Ok(d));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDescriptor {
    dense_len: usize,
    segments: Vec<(u32, u32)>,
}

impl ViewDescriptor {
    /// Builds a descriptor from sorted, disjoint, non-empty segments.
    ///
    /// # Panics
    ///
    /// Panics when a segment is empty, out of `dense_len` range, unsorted
    /// or overlapping, or when `dense_len` exceeds the `u32` coordinate
    /// space of the wire format.
    pub fn new(dense_len: usize, segments: Vec<(u32, u32)>) -> Self {
        assert!(
            u32::try_from(dense_len).is_ok(),
            "dense_len exceeds the u32 coordinate space"
        );
        let mut at = 0u64;
        for &(off, len) in &segments {
            assert!(len > 0, "view segments must be non-empty");
            assert!(
                u64::from(off) >= at,
                "view segments must be sorted and disjoint"
            );
            at = u64::from(off) + u64::from(len);
            assert!(at <= dense_len as u64, "view segment out of range");
        }
        ViewDescriptor {
            dense_len,
            segments,
        }
    }

    /// The trivial full-width view: one segment covering every coordinate.
    pub fn full(dense_len: usize) -> Self {
        let segments = match u32::try_from(dense_len) {
            Ok(len) if len > 0 => vec![(0, len)],
            // Empty, or past `u32`, which `new` rejects before reading it.
            _ => Vec::new(),
        };
        ViewDescriptor::new(dense_len, segments)
    }

    /// The dense coordinate space the view slices.
    pub fn dense_len(&self) -> usize {
        self.dense_len
    }

    /// Number of coordinates the view covers (the transmitted value count).
    pub fn view_len(&self) -> usize {
        self.segments.iter().map(|&(_, len)| len as usize).sum()
    }

    /// The covering segments, sorted and disjoint.
    pub fn segments(&self) -> &[(u32, u32)] {
        &self.segments
    }

    /// Whether the view covers every coordinate.
    pub fn is_full(&self) -> bool {
        self.view_len() == self.dense_len
    }

    /// Gathers the covered coordinates of `dense` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics when `dense.len()` differs from [`ViewDescriptor::dense_len`].
    pub fn extract(&self, dense: &[f32]) -> Vec<f32> {
        assert_eq!(dense.len(), self.dense_len, "dense length mismatch");
        let mut out = Vec::with_capacity(self.view_len());
        for &(off, len) in &self.segments {
            out.extend_from_slice(&dense[off as usize..off as usize + len as usize]);
        }
        out
    }

    /// Writes view-local `values` into the covered coordinates of `dest`;
    /// uncovered coordinates are untouched.
    ///
    /// # Panics
    ///
    /// Panics when lengths disagree with the descriptor.
    pub fn scatter_into(&self, values: &[f32], dest: &mut [f32]) {
        assert_eq!(dest.len(), self.dense_len, "dense length mismatch");
        assert_eq!(values.len(), self.view_len(), "view length mismatch");
        let mut at = 0usize;
        for &(off, len) in &self.segments {
            let len = len as usize;
            dest[off as usize..off as usize + len].copy_from_slice(&values[at..at + len]);
            at += len;
        }
    }

    /// Accumulates `dest[covered] += scale · values` over the covered
    /// coordinates.
    ///
    /// # Panics
    ///
    /// Panics when lengths disagree with the descriptor.
    pub fn scatter_add_scaled(&self, values: &[f32], dest: &mut [f32], scale: f32) {
        assert_eq!(dest.len(), self.dense_len, "dense length mismatch");
        assert_eq!(values.len(), self.view_len(), "view length mismatch");
        let mut at = 0usize;
        for &(off, len) in &self.segments {
            let len = len as usize;
            for (d, v) in dest[off as usize..off as usize + len]
                .iter_mut()
                .zip(&values[at..at + len])
            {
                *d += scale * v;
            }
            at += len;
        }
    }

    /// Parses a descriptor from the *front* of `buf`, returning it with the
    /// number of bytes consumed — the entry point for composite frames
    /// where the descriptor headers a payload of another wire form.
    ///
    /// # Errors
    ///
    /// Rejects truncated buffers, segment counts the buffer cannot hold,
    /// and segments that are empty, unsorted, overlapping or out of range —
    /// with checked arithmetic and allocations bounded by the buffer
    /// length, like every decoder in this module.
    pub fn decode_prefix(buf: &[u8]) -> Result<(Self, usize), DecodeError> {
        let mut cur = buf;
        if cur.len() < VIEW_HEADER_BYTES {
            return Err(DecodeError::Truncated);
        }
        let dense_len = usize::try_from(cur.get_u64_le()).map_err(|_| DecodeError::Truncated)?;
        if u32::try_from(dense_len).is_err() {
            return Err(DecodeError::InvalidHeader);
        }
        let nseg = cur.get_u32_le() as usize;
        let need = nseg
            .checked_mul(VIEW_SEGMENT_BYTES)
            .ok_or(DecodeError::Truncated)?;
        if cur.len() < need {
            return Err(DecodeError::Truncated);
        }
        let mut segments = Vec::with_capacity(nseg);
        let mut at = 0u64;
        for _ in 0..nseg {
            let off = cur.get_u32_le();
            let len = cur.get_u32_le();
            if len == 0 || u64::from(off) < at {
                return Err(DecodeError::InvalidIndices);
            }
            at = u64::from(off) + u64::from(len);
            if at > dense_len as u64 {
                return Err(DecodeError::InvalidIndices);
            }
            segments.push((off, len));
        }
        Ok((
            ViewDescriptor {
                dense_len,
                segments,
            },
            VIEW_HEADER_BYTES + need,
        ))
    }
}

impl WireCodec for ViewDescriptor {
    fn encoded_len(&self) -> usize {
        VIEW_HEADER_BYTES + VIEW_SEGMENT_BYTES * self.segments.len()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        out.put_u64_le(self.dense_len as u64);
        out.put_u32_le(self.segments.len() as u32);
        for &(off, len) in &self.segments {
            out.put_u32_le(off);
            out.put_u32_le(len);
        }
    }

    fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let (desc, consumed) = Self::decode_prefix(buf)?;
        if consumed < buf.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(desc)
    }
}

/// Appends `values` as consecutive little-endian `f32`s.
pub fn write_f32s<B: BufMut>(buf: &mut B, values: &[f32]) {
    for &v in values {
        buf.put_f32_le(v);
    }
}

/// Reads exactly `count` little-endian `f32`s, which must consume the
/// whole buffer.
///
/// Size arithmetic is checked and the allocation is sized from the actual
/// buffer, so a lying `count` can neither overflow nor force an oversized
/// allocation.
///
/// # Errors
///
/// [`DecodeError::Truncated`] when the buffer is too short (or `count`
/// overflows the byte count), [`DecodeError::TrailingBytes`] when bytes
/// remain after the last value.
pub fn read_f32s_exact(mut buf: &[u8], count: usize) -> Result<Vec<f32>, DecodeError> {
    let need = count.checked_mul(4).ok_or(DecodeError::Truncated)?;
    if buf.len() < need {
        return Err(DecodeError::Truncated);
    }
    if buf.len() > need {
        return Err(DecodeError::TrailingBytes);
    }
    let mut values = Vec::with_capacity(count);
    for _ in 0..count {
        values.push(buf.get_f32_le());
    }
    Ok(values)
}

/// Fletcher-style rolling checksum over `payload` (the checkpoint codec's
/// integrity check, shared here so every byte-layout primitive lives in
/// one module).
///
/// Two running sums mod `2^32 - 5` (the largest 32-bit prime), combined
/// into a `u64`. Detects truncation, byte flips and reordering.
pub fn fletcher64(payload: &[u8]) -> u64 {
    const MOD: u64 = 0xFFFF_FFFB;
    let mut a: u64 = 0xAD_F1;
    let mut b: u64 = 0;
    for &byte in payload {
        a = (a + u64::from(byte)) % MOD;
        b = (b + a) % MOD;
    }
    (b << 32) | a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_round_trips_and_sizes() {
        let u = DenseUpdate::new(vec![0.5, -1.5, f32::MIN_POSITIVE]);
        let bytes = u.encode();
        assert_eq!(bytes.len(), u.encoded_len());
        assert_eq!(bytes.len(), crate::dense_wire_size(3));
        assert_eq!(DenseUpdate::decode(&bytes).unwrap(), u);
    }

    #[test]
    fn dense_decode_rejects_truncation_and_trailing() {
        let bytes = DenseUpdate::new(vec![1.0, 2.0]).encode();
        assert_eq!(
            DenseUpdate::decode(&bytes[..bytes.len() - 1]).unwrap_err(),
            DecodeError::Truncated
        );
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            DenseUpdate::decode(&long).unwrap_err(),
            DecodeError::TrailingBytes
        );
    }

    #[test]
    fn dense_decode_survives_lying_length_header() {
        // Header claims u64::MAX elements: the checked size math must
        // reject it without overflow or allocation.
        let mut buf = Vec::new();
        buf.put_u64_le(u64::MAX);
        buf.put_f32_le(1.0);
        assert_eq!(
            DenseUpdate::decode(&buf).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn fletcher64_detects_flips_and_order() {
        let base = fletcher64(b"adafl");
        assert_ne!(base, fletcher64(b"adafk"));
        assert_ne!(base, fletcher64(b"fldaa"));
        assert_ne!(base, fletcher64(b"adaf"));
        assert_eq!(base, fletcher64(b"adafl"));
    }

    #[test]
    fn view_descriptor_round_trips_and_sizes() {
        let d = ViewDescriptor::new(100, vec![(3, 7), (20, 1), (90, 10)]);
        assert_eq!(d.view_len(), 18);
        assert!(!d.is_full());
        let bytes = d.encode();
        assert_eq!(bytes.len(), d.encoded_len());
        assert_eq!(bytes.len(), VIEW_HEADER_BYTES + 3 * VIEW_SEGMENT_BYTES);
        assert_eq!(ViewDescriptor::decode(&bytes).unwrap(), d);
    }

    #[test]
    fn view_descriptor_full_covers_everything() {
        let d = ViewDescriptor::full(5);
        assert!(d.is_full());
        assert_eq!(d.view_len(), 5);
        assert_eq!(d.segments(), &[(0, 5)]);
        let empty = ViewDescriptor::full(0);
        assert!(empty.is_full());
        assert_eq!(empty.view_len(), 0);
    }

    #[test]
    fn view_descriptor_extract_scatter_round_trip() {
        let d = ViewDescriptor::new(8, vec![(1, 2), (5, 1)]);
        let dense: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let view = d.extract(&dense);
        assert_eq!(view, vec![1.0, 2.0, 5.0]);
        let mut dest = vec![-1.0f32; 8];
        d.scatter_into(&view, &mut dest);
        assert_eq!(dest, vec![-1.0, 1.0, 2.0, -1.0, -1.0, 5.0, -1.0, -1.0]);
        d.scatter_add_scaled(&view, &mut dest, 2.0);
        assert_eq!(dest[1], 3.0);
        assert_eq!(dest[0], -1.0);
    }

    #[test]
    #[should_panic(expected = "sorted and disjoint")]
    fn view_descriptor_rejects_overlap() {
        let _ = ViewDescriptor::new(10, vec![(0, 5), (4, 2)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn view_descriptor_rejects_out_of_range() {
        let _ = ViewDescriptor::new(10, vec![(8, 3)]);
    }

    #[test]
    fn view_descriptor_decode_rejects_malformed() {
        let d = ViewDescriptor::new(10, vec![(2, 3)]);
        let bytes = d.encode();
        assert_eq!(
            ViewDescriptor::decode(&bytes[..bytes.len() - 1]).unwrap_err(),
            DecodeError::Truncated
        );
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            ViewDescriptor::decode(&long).unwrap_err(),
            DecodeError::TrailingBytes
        );
        // Unsorted segments on the wire.
        let bad = ViewDescriptor {
            dense_len: 10,
            segments: vec![(5, 2), (1, 1)],
        };
        assert_eq!(
            ViewDescriptor::decode(&bad.encode()).unwrap_err(),
            DecodeError::InvalidIndices
        );
        // Zero-length segment on the wire.
        let zero = ViewDescriptor {
            dense_len: 10,
            segments: vec![(1, 0)],
        };
        assert_eq!(
            ViewDescriptor::decode(&zero.encode()).unwrap_err(),
            DecodeError::InvalidIndices
        );
        // dense_len beyond the u32 coordinate space.
        let mut huge = Vec::new();
        huge.put_u64_le(u64::from(u32::MAX) + 1);
        huge.put_u32_le(0);
        assert_eq!(
            ViewDescriptor::decode(&huge).unwrap_err(),
            DecodeError::InvalidHeader
        );
        // Segment count the buffer cannot hold.
        let mut lying = Vec::new();
        lying.put_u64_le(10);
        lying.put_u32_le(u32::MAX);
        assert_eq!(
            ViewDescriptor::decode(&lying).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn view_descriptor_decode_prefix_reports_consumption() {
        let d = ViewDescriptor::new(6, vec![(0, 2), (4, 2)]);
        let mut framed = d.encode();
        let header = framed.len();
        framed.extend_from_slice(&[0xAB; 9]);
        let (parsed, consumed) = ViewDescriptor::decode_prefix(&framed).unwrap();
        assert_eq!(parsed, d);
        assert_eq!(consumed, header);
    }

    #[test]
    fn read_f32s_exact_is_strict() {
        let mut buf = Vec::new();
        write_f32s(&mut buf, &[1.0, 2.0]);
        assert_eq!(read_f32s_exact(&buf, 2).unwrap(), vec![1.0, 2.0]);
        assert_eq!(
            read_f32s_exact(&buf, 3).unwrap_err(),
            DecodeError::Truncated
        );
        assert_eq!(
            read_f32s_exact(&buf, 1).unwrap_err(),
            DecodeError::TrailingBytes
        );
        assert_eq!(
            read_f32s_exact(&buf, usize::MAX).unwrap_err(),
            DecodeError::Truncated
        );
    }
}
