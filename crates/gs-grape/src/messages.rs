//! The GRAPE message manager.
//!
//! The paper: GRAPE "aggregates fragmented, randomly distributed small
//! messages in memory into a continuous compact buffer before dispatching
//! them all at once, thus enhancing bandwidth utilization. Furthermore, it
//! employs varint encoding ... to reduce peak memory usage."
//!
//! [`OutBuffers`] is exactly that: one byte buffer per destination
//! fragment; messages append as `(varint Δlid, payload)`, where the target
//! is the vertex's local id *on the destination fragment* (a mirror's
//! routing entry, see [`Fragment::route`](crate::fragment::Fragment::route)),
//! delta-compressed against the previous one (senders flush mirrors in
//! ascending order, so deltas are small). The whole buffer moves through
//! one channel send, and the receiver indexes its per-vertex arrays with
//! the decoded ids directly.
//!
//! Only cross-fragment traffic needs encoding. PageRank and the Pregel
//! runtime update inner targets in place and fold each mirror's updates
//! into one message per superstep, so at one fragment they encode nothing;
//! the remaining senders (PIE, FLASH, SSSP, the compat façades) may still
//! address a vertex of their own fragment through its self-slot. Contrast
//! with the PowerGraph replica in `gs-baselines`, which sends one
//! heap-allocated message object per edge.

use gs_graph::varint;

/// Message payload codec. Payloads are fixed-meaning per algorithm.
pub trait Payload: Copy + Send + 'static {
    /// Size of the payload in a naive fixed-width wire format, used to
    /// report "message volume before aggregation" in telemetry.
    const RAW_SIZE: usize = 8;
    fn write(&self, buf: &mut Vec<u8>);
    fn read(buf: &[u8]) -> Option<(Self, usize)>;
}

impl Payload for f64 {
    #[inline]
    fn write(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.to_le_bytes());
    }
    #[inline]
    fn read(buf: &[u8]) -> Option<(Self, usize)> {
        if buf.len() < 8 {
            return None;
        }
        Some((f64::from_le_bytes(buf[..8].try_into().unwrap()), 8))
    }
}

impl Payload for u64 {
    #[inline]
    fn write(&self, buf: &mut Vec<u8>) {
        varint::encode_u64(*self, buf);
    }
    #[inline]
    fn read(buf: &[u8]) -> Option<(Self, usize)> {
        varint::decode_u64(buf)
    }
}

impl Payload for u32 {
    const RAW_SIZE: usize = 4;
    #[inline]
    fn write(&self, buf: &mut Vec<u8>) {
        varint::encode_u64(*self as u64, buf);
    }
    #[inline]
    fn read(buf: &[u8]) -> Option<(Self, usize)> {
        varint::decode_u64(buf).map(|(v, n)| (v as u32, n))
    }
}

impl Payload for () {
    const RAW_SIZE: usize = 0;
    #[inline]
    fn write(&self, _buf: &mut Vec<u8>) {}
    #[inline]
    fn read(_buf: &[u8]) -> Option<(Self, usize)> {
        Some(((), 0))
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    const RAW_SIZE: usize = A::RAW_SIZE + B::RAW_SIZE;
    #[inline]
    fn write(&self, buf: &mut Vec<u8>) {
        self.0.write(buf);
        self.1.write(buf);
    }
    #[inline]
    fn read(buf: &[u8]) -> Option<(Self, usize)> {
        let (a, n) = A::read(buf)?;
        let (b, m) = B::read(&buf[n..])?;
        Some(((a, b), n + m))
    }
}

/// Per-destination aggregated message buffers.
pub struct OutBuffers {
    bufs: Vec<Vec<u8>>,
    last_lid: Vec<u32>,
    counts: Vec<u64>,
    raw_bytes: Vec<u64>,
}

impl OutBuffers {
    /// Buffers for `k` destination fragments.
    pub fn new(k: usize) -> Self {
        Self {
            bufs: vec![Vec::new(); k],
            last_lid: vec![0; k],
            counts: vec![0; k],
            raw_bytes: vec![0; k],
        }
    }

    /// Appends a message for the vertex with local id `target` on
    /// fragment `to`.
    #[inline]
    pub fn send<P: Payload>(&mut self, to: usize, target: u32, payload: P) {
        let buf = &mut self.bufs[to];
        // delta-encode the target id against the previous one in this buffer
        let delta = target as i64 - self.last_lid[to] as i64;
        varint::encode_i64(delta, buf);
        self.last_lid[to] = target;
        payload.write(buf);
        self.counts[to] += 1;
        // what the naive format would cost: full 4-byte id + fixed payload
        self.raw_bytes[to] += 4 + P::RAW_SIZE as u64;
    }

    /// Total messages across all buffers.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total encoded bytes buffered across destinations.
    pub fn encoded_bytes(&self) -> u64 {
        self.bufs.iter().map(|b| b.len() as u64).sum()
    }

    /// Total bytes the buffered messages would occupy without varint/delta
    /// aggregation (4-byte id + fixed-width payload each).
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes.iter().sum()
    }

    /// Takes the finished buffers (with message counts), resetting self.
    pub fn take(&mut self) -> Vec<MessageBlock> {
        let k = self.bufs.len();
        let mut out = Vec::with_capacity(k);
        for i in 0..k {
            out.push(MessageBlock {
                bytes: std::mem::take(&mut self.bufs[i]),
                count: std::mem::replace(&mut self.counts[i], 0),
                raw_bytes: std::mem::replace(&mut self.raw_bytes[i], 0),
            });
            self.last_lid[i] = 0;
        }
        out
    }
}

/// One compact buffer of messages for a single destination fragment.
#[derive(Clone, Debug, Default)]
pub struct MessageBlock {
    pub bytes: Vec<u8>,
    pub count: u64,
    /// Size of these messages in the naive fixed-width format (telemetry).
    pub raw_bytes: u64,
}

impl MessageBlock {
    /// Decodes all `(target local id, payload)` messages.
    pub fn decode<P: Payload>(&self) -> Vec<(u32, P)> {
        let mut out = Vec::with_capacity(self.count as usize);
        self.for_each(|l, p| out.push((l, p)));
        out
    }

    /// Visits `(target local id, payload)` messages without materialising
    /// a Vec.
    pub fn for_each<P: Payload>(&self, mut f: impl FnMut(u32, P)) {
        let mut pos = 0usize;
        let mut last: i64 = 0;
        for _ in 0..self.count {
            let Some((delta, n)) = varint::decode_i64(&self.bytes[pos..]) else {
                break;
            };
            pos += n;
            last = last.wrapping_add(delta);
            let Some((p, m)) = P::read(&self.bytes[pos..]) else {
                break;
            };
            pos += m;
            f(last as u32, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_f64_messages() {
        let mut out = OutBuffers::new(2);
        out.send(0, 10, 1.5f64);
        out.send(0, 11, 2.5f64);
        out.send(1, 999, -1.0f64);
        assert_eq!(out.total(), 3);
        let blocks = out.take();
        assert_eq!(blocks[0].decode::<f64>(), vec![(10, 1.5), (11, 2.5)]);
        assert_eq!(blocks[1].decode::<f64>(), vec![(999, -1.0)]);
        assert_eq!(out.total(), 0, "take resets");
    }

    #[test]
    fn delta_encoding_is_compact_for_ascending_targets() {
        let mut out = OutBuffers::new(1);
        for i in 0..1000u32 {
            out.send(0, 1_000_000 + i, ());
        }
        let blocks = out.take();
        // first id costs a few bytes; the rest are 1-byte deltas
        assert!(blocks[0].bytes.len() < 1100, "{}", blocks[0].bytes.len());
        assert_eq!(blocks[0].decode::<()>().len(), 1000);
    }

    #[test]
    fn tuple_payloads() {
        let mut out = OutBuffers::new(1);
        out.send(0, 5, (7u64, 0.5f64));
        let blocks = out.take();
        assert_eq!(blocks[0].decode::<(u64, f64)>(), vec![(5, (7, 0.5))]);
    }

    #[test]
    fn unordered_targets_still_round_trip() {
        let mut out = OutBuffers::new(1);
        out.send(0, 100, 1u64);
        out.send(0, 3, 2u64);
        out.send(0, 50, 3u64);
        out.send(0, u32::MAX, 4u64);
        out.send(0, 0, 5u64);
        let blocks = out.take();
        assert_eq!(
            blocks[0].decode::<u64>(),
            vec![(100, 1), (3, 2), (50, 3), (u32::MAX, 4), (0, 5)]
        );
    }

    #[test]
    fn for_each_matches_decode() {
        let mut out = OutBuffers::new(1);
        for i in 0..50u64 {
            out.send(0, i as u32 * 3, i);
        }
        let blocks = out.take();
        let mut collected = Vec::new();
        blocks[0].for_each::<u64>(|v, p| collected.push((v, p)));
        assert_eq!(collected, blocks[0].decode::<u64>());
    }
}
