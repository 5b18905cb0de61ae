//! The per-vertex byte code: zigzag + LEB128-style varints over gaps.
//!
//! A sorted neighbor list `n_0 < n_1 < … < n_{d-1}` of vertex `v` is
//! encoded as
//!
//! * `zigzag(n_0 − v)` as a varint — the first neighbor as a *signed*
//!   delta from the vertex id (neighbors cluster around `v` after a
//!   locality reordering, so this is usually one byte), then
//! * `n_i − n_{i-1}` for `i ≥ 1` as plain varints — strictly positive
//!   gaps, again usually one byte each.
//!
//! Varints are little-endian base-128: seven value bits per byte, low
//! group first, high bit set on every byte except the last. A `u64` needs
//! at most [`MAX_VARINT_LEN`] bytes; decoders reject anything longer (a
//! garbled stream must produce a clean error, not a silent wraparound).
//!
//! Everything here is pure slice-in/slice-out logic shared by the
//! parallel encoder and the snapshot reader. The reader checks each list
//! with [`validate_list`], then reads every arc once more with
//! [`get_varint`] in the symmetry merge
//! (`mpx_graph::snapshot::check_reverse_arcs`); those checked paths are
//! what makes a corrupt v2 payload fail typed instead of panicking.

use mpx_graph::Vertex;

/// Upper bound on the encoded size of one `u64` varint (⌈64/7⌉ bytes).
pub const MAX_VARINT_LEN: usize = 10;

/// Maps a signed delta onto the unsigned varint domain so small negative
/// and small positive values both stay short: `0, -1, 1, -2, 2, …` →
/// `0, 1, 2, 3, 4, …`.
#[inline]
pub fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Number of bytes [`put_varint`] will write for `v`.
#[inline]
pub fn varint_len(v: u64) -> usize {
    // 1 byte per started 7-bit group; zero still takes one byte.
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Writes `v` at `buf[*pos..]`, advancing `pos`. The caller guarantees
/// capacity (the encoder sizes buffers with [`varint_len`] first).
#[inline]
pub fn put_varint(buf: &mut [u8], pos: &mut usize, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf[*pos] = byte;
            *pos += 1;
            return;
        }
        buf[*pos] = byte | 0x80;
        *pos += 1;
    }
}

/// Reads one varint at `bytes[*pos..]`, advancing `pos`. Returns `None`
/// on truncation or on an over-long (> [`MAX_VARINT_LEN`] bytes, i.e.
/// value overflow) encoding.
#[inline]
pub fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    // One- and two-byte varints cover almost every gap (bytes/arc sits
    // near 2 even on unordered random graphs). Decode them without a
    // branch on the length, which is as unpredictable as the gap; a
    // missing second byte reads as a continuation byte, so a truncated
    // varint takes the loop below.
    let tail = bytes.get(*pos..)?;
    let b0 = *tail.first()? as u64;
    let b1 = tail.get(1).map_or(0x80, |&b| b as u64);
    if b0 & b1 & 0x80 == 0 {
        let two = b0 >> 7;
        *pos += 1 + two as usize;
        return Some((b0 & 0x7f) | ((b1 << 7) * two));
    }
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return None; // would overflow 64 bits
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Encoded byte length of the neighbor list `nbrs` of vertex `v`
/// (the length pass of the parallel encoder).
pub fn encoded_list_len(v: Vertex, nbrs: &[Vertex]) -> usize {
    let Some((&first, rest)) = nbrs.split_first() else {
        return 0;
    };
    let mut len = varint_len(zigzag(first as i64 - v as i64));
    let mut prev = first;
    for &t in rest {
        len += varint_len((t - prev) as u64);
        prev = t;
    }
    len
}

/// Encodes the neighbor list of `v` into `buf[*pos..]`, advancing `pos`.
/// The caller guarantees `buf` has [`encoded_list_len`] bytes of room at
/// `*pos` and that `nbrs` is strictly ascending.
pub fn encode_list(v: Vertex, nbrs: &[Vertex], buf: &mut [u8], pos: &mut usize) {
    let Some((&first, rest)) = nbrs.split_first() else {
        return;
    };
    put_varint(buf, pos, zigzag(first as i64 - v as i64));
    let mut prev = first;
    for &t in rest {
        put_varint(buf, pos, (t - prev) as u64);
        prev = t;
    }
}

/// Streaming decoder over one vertex's encoded neighbor list: yields the
/// neighbors in ascending order without materializing anything.
///
/// This is the hot-path iterator behind the readers' `GraphView`
/// implementations. It assumes the byte range was validated at open time
/// ([`validate_list`]); on bytes that were *not* validated it still never
/// panics or reads out of range — it simply stops early — but only the
/// validated contract guarantees the yielded ids are a real neighbor
/// list.
#[derive(Clone, Debug)]
pub struct DecodeNeighbors<'a> {
    bytes: &'a [u8],
    pos: usize,
    remaining: u32,
    prev: i64,
    first: bool,
    v: i64,
}

impl<'a> DecodeNeighbors<'a> {
    /// Decoder over `bytes`, the encoded list of vertex `v` with `degree`
    /// neighbors.
    #[inline]
    pub fn new(v: Vertex, degree: u32, bytes: &'a [u8]) -> Self {
        DecodeNeighbors {
            bytes,
            pos: 0,
            remaining: degree,
            prev: 0,
            first: true,
            v: v as i64,
        }
    }
}

impl Iterator for DecodeNeighbors<'_> {
    type Item = Vertex;

    #[inline]
    fn next(&mut self) -> Option<Vertex> {
        if self.remaining == 0 {
            return None;
        }
        let raw = get_varint(self.bytes, &mut self.pos)?;
        self.remaining -= 1;
        // Wrapping: validated streams never wrap; unvalidated ones must
        // not panic in debug builds either (the type docs promise
        // stop-early, not correctness, for those).
        let next = if self.first {
            self.first = false;
            self.v.wrapping_add(unzigzag(raw))
        } else {
            self.prev.wrapping_add(raw as i64)
        };
        self.prev = next;
        Some(next as Vertex)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = self.remaining as usize;
        (r, Some(r))
    }
}

impl ExactSizeIterator for DecodeNeighbors<'_> {}

/// Fully checks one encoded list: exactly `degree` neighbors, strictly
/// ascending, in `0..n`, none equal to `v`, and the decode consumes
/// `bytes` exactly (no trailing garbage, no truncation). Returns a
/// description of the first violation.
pub fn validate_list(v: Vertex, degree: u32, bytes: &[u8], n: usize) -> Result<(), String> {
    let mut pos = 0usize;
    let mut prev: i64 = -1;
    for i in 0..degree {
        let raw = get_varint(bytes, &mut pos)
            .ok_or_else(|| format!("vertex {v}: truncated or overlong varint at neighbor {i}"))?;
        let t = if i == 0 {
            (v as i64)
                .checked_add(unzigzag(raw))
                .ok_or_else(|| format!("vertex {v}: first-neighbor delta overflows"))?
        } else {
            // Gap 0 (a duplicate) is caught by the ascending check below.
            prev.checked_add(raw as i64)
                .ok_or_else(|| format!("vertex {v}: neighbor gap overflows at neighbor {i}"))?
        };
        if t <= prev && i > 0 {
            return Err(format!("vertex {v}: neighbors not strictly ascending"));
        }
        if t < 0 || t as u64 >= n as u64 {
            return Err(format!("vertex {v}: neighbor {t} out of range 0..{n}"));
        }
        if t == v as i64 {
            return Err(format!("vertex {v}: self-loop"));
        }
        prev = t;
    }
    if pos != bytes.len() {
        return Err(format!(
            "vertex {v}: encoded list has {} trailing bytes",
            bytes.len() - pos
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes one **validated** list into a vector.
    fn decode_list(v: Vertex, degree: u32, bytes: &[u8]) -> Vec<Vertex> {
        DecodeNeighbors::new(v, degree, bytes).collect()
    }

    #[test]
    fn zigzag_roundtrip() {
        for x in [
            0i64,
            1,
            -1,
            2,
            -2,
            63,
            -64,
            i64::MAX,
            i64::MIN,
            12345,
            -9876,
        ] {
            assert_eq!(unzigzag(zigzag(x)), x, "{x}");
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn varint_roundtrip_and_len() {
        let values = [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
            300,
            1 << 35,
        ];
        for &v in &values {
            let mut buf = vec![0u8; MAX_VARINT_LEN];
            let mut pos = 0;
            put_varint(&mut buf, &mut pos, v);
            assert_eq!(pos, varint_len(v), "{v}");
            let mut rpos = 0;
            assert_eq!(get_varint(&buf[..pos], &mut rpos), Some(v));
            assert_eq!(rpos, pos);
        }
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        // Truncated: continuation bit set, no next byte.
        let mut pos = 0;
        assert_eq!(get_varint(&[0x80], &mut pos), None);
        // Overlong: 10 continuation bytes then more.
        let mut pos = 0;
        assert_eq!(get_varint(&[0xff; 11], &mut pos), None);
        // 10th byte carrying more than the last valid bit overflows u64.
        let mut bytes = [0xffu8; 10];
        bytes[9] = 0x02;
        let mut pos = 0;
        assert_eq!(get_varint(&bytes, &mut pos), None);
    }

    #[test]
    fn list_roundtrip() {
        let cases: &[(Vertex, Vec<Vertex>)] = &[
            (5, vec![]),
            (5, vec![6]),
            (5, vec![0, 1, 4, 6, 7, 1000]),
            (0, vec![1, 2, 3]),
            (1000, vec![0]),
            (7, vec![3, 11]),
        ];
        for (v, nbrs) in cases {
            let len = encoded_list_len(*v, nbrs);
            let mut buf = vec![0u8; len];
            let mut pos = 0;
            encode_list(*v, nbrs, &mut buf, &mut pos);
            assert_eq!(pos, len, "length pass must match encode pass");
            assert_eq!(&decode_list(*v, nbrs.len() as u32, &buf), nbrs);
            assert!(validate_list(*v, nbrs.len() as u32, &buf, 1001).is_ok());
        }
    }

    #[test]
    fn validate_catches_garbage() {
        // Encode [3, 11] for vertex 7, then garble.
        let nbrs = [3u32, 11];
        let len = encoded_list_len(7, &nbrs);
        let mut buf = vec![0u8; len];
        let mut pos = 0;
        encode_list(7, &nbrs, &mut buf, &mut pos);
        assert!(validate_list(7, 2, &buf, 12).is_ok());
        // Wrong degree: trailing bytes or truncation.
        assert!(validate_list(7, 1, &buf, 12).is_err());
        assert!(validate_list(7, 3, &buf, 12).is_err());
        // Out of range.
        assert!(validate_list(7, 2, &buf, 11).is_err());
        // Zero gap = duplicate neighbor.
        let mut dup = vec![0u8; 3];
        let mut pos = 0;
        encode_list(7, &[3], &mut dup, &mut pos);
        put_varint(&mut dup, &mut pos, 0);
        assert!(validate_list(7, 2, &dup[..pos], 12)
            .unwrap_err()
            .contains("ascending"));
        // Self-loop.
        let mut selfy = vec![0u8; 2];
        let mut pos = 0;
        encode_list(7, &[7], &mut selfy, &mut pos);
        assert!(validate_list(7, 1, &selfy[..pos], 12)
            .unwrap_err()
            .contains("self-loop"));
    }
}
