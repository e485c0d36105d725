//! Length-prefixed framing over TCP.
//!
//! Every frame is `[u32 length (LE)][u8 tag][payload]`, where `length`
//! counts the tag byte plus the payload. Payload encodings reuse the
//! [`oat_core::wire`] helpers, so the aggregate-value encoding on an edge
//! is byte-identical to [`Message::encode_wire`](oat_core::Message).
//!
//! Tag space:
//!
//! | tag | frame              | payload                              |
//! |-----|--------------------|--------------------------------------|
//! | 0   | hello (edge peer)  | `u32` node id, `u64` rx watermark    |
//! | 1   | hello (client)     | empty                                |
//! | 2   | net message        | *(legacy; edges now use tag 9)*      |
//! | 3   | combine request    | `u64` request id                     |
//! | 4   | write request      | `u64` request id, `V`                |
//! | 5   | combine response   | `u64` request id, `V`                |
//! | 6   | write ack          | `u64` request id                     |
//! | 7   | metrics request    | `u64` request id                     |
//! | 8   | metrics response   | `u64` request id, [`NodeMetrics`]    |
//! | 9   | sequenced edge     | `u64` seq, `u8` inner tag, body      |
//! | 10  | cumulative ack     | `u64` highest in-order seq received  |
//! | 11  | batch request      | `u32` count, then count items        |
//! | 12  | batch response     | `u32` count, then count items        |
//! | 13  | combine request (tree) | `u64` request id, `u32` tree id  |
//! | 14  | write request (tree)   | `u64` request id, `u32` tree id, `V` |
//! | 15  | subscribe          | `u64` sub id, `u32` tree id          |
//! | 16  | partial (pushed)   | `u64` sub id, `u32` tree id, `u64` refine seq, `V` |
//!
//! A batch item is `[u8 tag][u32 len (LE)][len payload bytes]`, where
//! the tag/payload pair is byte-identical to the standalone frame it
//! stands for (tags 3/4/13/14 inside a batch request; 5/6 inside a batch
//! response). Batching changes only the outer framing — one syscall
//! carries N requests and one carries N responses — never the item
//! encodings, so req-id matching, timeout retry, and idempotent
//! re-sends keep working unchanged. Batch responses stream: the node
//! emits completed members at every flush boundary rather than holding
//! the roster behind its slowest member, so one `TAG_REQ_BATCH` may be
//! answered by several `TAG_RESP_BATCH` frames whose items concatenate
//! to the full roster.
//!
//! ## The forest extension (tags 13–16, inner tag 3)
//!
//! Tags 3/4 and inner tag 0 implicitly address tree 0 — the instance
//! every node hosts from birth, with the exact legacy byte encodings
//! (sim parity is pinned against those bytes). The tree-scoped variants
//! carry an explicit `u32` tree id so one cluster multiplexes a whole
//! *forest* of aggregation trees over the same sockets and reactor
//! pool: nodes create automaton instances lazily on the first frame
//! that names a new tree. `TAG_SUB` registers a continuous-query
//! subscription on a tree; the node then *pushes* a `TAG_PARTIAL`
//! frame (unsolicited, no request id) whenever that tree's local
//! aggregate view refines, carrying a per-tree monotone refine seq.
//!
//! ## The sequenced edge link (tags 0, 9, 10)
//!
//! Every payload-bearing frame between neighbours rides inside a tag-9
//! frame stamped with a per-directed-edge sequence number (1, 2, 3, …).
//! The receiver delivers exactly the next expected seq and discards
//! everything else (duplicates *and* out-of-window futures — recovery is
//! go-back-N); it acknowledges cumulatively with tag 10 at its batch
//! boundaries. The sender buffers unacknowledged frames and retransmits
//! them on an RTO tick or after a reconnect. The edge hello carries the
//! receiver's watermark (how many in-order frames it has seen) so a
//! redialed connection resumes the stream exactly where it left off:
//! per-edge FIFO exactly-once delivery survives killed connections.
//!
//! Inner tags inside a tag-9 frame:
//!
//! | inner | meaning        | body                         |
//! |-------|----------------|------------------------------|
//! | 0     | net message    | `Message<V>` wire encoding (tree 0) |
//! | 1     | peer reset     | empty (sender's automaton restarted) |
//! | 2     | lease revoke   | empty (cascaded lease teardown)      |
//! | 3     | net message (tree) | `u32` tree id, `Message<V>` wire encoding |
//!
//! [`NodeMetrics`]: crate::metrics::NodeMetrics

use std::io::{self, Read, Write};

/// Edge-peer handshake: payload is the dialer's node id.
pub const TAG_HELLO_EDGE: u8 = 0;
/// Client handshake: empty payload.
pub const TAG_HELLO_CLIENT: u8 = 1;
/// A mechanism message between neighbouring nodes.
pub const TAG_NET: u8 = 2;
/// Client combine request.
pub const TAG_REQ_COMBINE: u8 = 3;
/// Client write request.
pub const TAG_REQ_WRITE: u8 = 4;
/// Combine response carrying the aggregate value.
pub const TAG_RESP_COMBINE: u8 = 5;
/// Write acknowledgement (the write's transitions have run).
pub const TAG_RESP_WRITE: u8 = 6;
/// Client metrics request.
pub const TAG_REQ_METRICS: u8 = 7;
/// Metrics response carrying a [`crate::metrics::NodeMetrics`].
pub const TAG_RESP_METRICS: u8 = 8;
/// Sequenced edge frame: `u64` seq, `u8` inner tag, inner body.
pub const TAG_SEQ: u8 = 9;
/// Cumulative ack: `u64` highest in-order seq received on this edge.
pub const TAG_ACK: u8 = 10;
/// Batched client requests: `u32` count, then count batch items.
pub const TAG_REQ_BATCH: u8 = 11;
/// Batched responses: `u32` count, then count batch items.
pub const TAG_RESP_BATCH: u8 = 12;
/// Tree-scoped client combine request: `u64` request id, `u32` tree id.
pub const TAG_REQ_COMBINE_T: u8 = 13;
/// Tree-scoped client write request: `u64` request id, `u32` tree id, `V`.
pub const TAG_REQ_WRITE_T: u8 = 14;
/// Continuous-query subscription: `u64` sub id, `u32` tree id.
pub const TAG_SUB: u8 = 15;
/// Pushed partial refinement: `u64` sub id, `u32` tree id, `u64` refine
/// seq, `V`. Unsolicited — the node sends one per refinement, not per
/// request.
pub const TAG_PARTIAL: u8 = 16;

/// Inner tag: a mechanism message (`Message<V>` wire encoding, tree 0).
pub const INNER_NET: u8 = 0;
/// Inner tag: the sending node's automaton crashed and restarted.
pub const INNER_RESET: u8 = 1;
/// Inner tag: cascaded involuntary lease teardown (crash recovery).
pub const INNER_REVOKE: u8 = 2;
/// Inner tag: a mechanism message for a named tree: `u32` tree id, then
/// the `Message<V>` wire encoding (forest multiplexing).
pub const INNER_NET_T: u8 = 3;

/// Upper bound on a frame body; anything larger is a protocol violation.
const MAX_FRAME: u32 = 64 << 20;

/// Writes one `[len][tag][payload]` frame.
pub fn write_frame<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> io::Result<()> {
    let len = 1 + payload.len();
    if len as u64 > MAX_FRAME as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    // Two write_all calls per frame, so `w` should be memory: node
    // outbound paths encode into a connection's `WriteQueue` chunks and
    // the reactor drains them with `write_vectored` once per pass, and
    // clients encode into their `wbuf` and flush it with one write. Either
    // way consecutive frames for one connection coalesce into a single
    // syscall (TCP_NODELAY is set on every stream, so flushed bytes leave
    // promptly).
    let mut head = [0u8; 5];
    head[..4].copy_from_slice(&(len as u32).to_le_bytes());
    head[4] = tag;
    w.write_all(&head)?;
    w.write_all(payload)
}

/// Reads one frame, returning `(tag, payload)`.
///
/// A clean EOF *before* any header byte maps to `ErrorKind::UnexpectedEof`
/// with the message `"closed"`, letting callers distinguish an orderly
/// peer shutdown from a mid-frame truncation.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<(u8, Vec<u8>)> {
    let mut head = [0u8; 4];
    let mut filled = 0;
    while filled < head.len() {
        match r.read(&mut head[filled..]) {
            Ok(0) => {
                let msg = if filled == 0 {
                    "closed"
                } else {
                    "truncated frame header"
                };
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, msg));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(head);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let tag = body[0];
    body.remove(0);
    Ok((tag, body))
}

/// Incremental frame decoder for non-blocking reads.
///
/// [`read_frame`] assumes it may block until a whole frame arrives —
/// fine on a dedicated reader thread, wrong on a reactor (a socket is
/// read only when the kernel says it is readable, and what is readable
/// may end mid-header) and wrong under client read timeouts (a timeout
/// that fires mid-frame must not discard the bytes already consumed).
/// The decoder owns that problem: feed it whatever bytes arrive with
/// [`FrameDecoder::extend`], take complete frames out with
/// [`FrameDecoder::try_frame`], and partial headers/bodies simply wait
/// in the buffer for the next read — the stream can never desync.
///
/// Validation matches `read_frame` exactly: a zero or oversized length
/// field is `InvalidData` before any allocation happens.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` before `start` are already-consumed frames; kept
    /// until the next compaction to avoid a memmove per frame.
    start: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends freshly read bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: consumed prefix space is reused as
        // long as it dominates the live remainder.
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 32 * 1024) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered, not-yet-decoded bytes (a partial frame).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when no partial frame is pending — the boundary at which a
    /// clean peer close is orderly rather than a truncation.
    pub fn is_empty(&self) -> bool {
        self.buffered() == 0
    }

    /// Decodes the next complete frame, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes"; `Err` means the stream is
    /// corrupt (bad length field) and must be dropped.
    pub fn try_frame(&mut self) -> io::Result<Option<(u8, Vec<u8>)>> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4-byte slice"));
        if len == 0 || len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad frame length {len}"),
            ));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let tag = avail[4];
        let payload = avail[5..total].to_vec();
        self.start += total;
        Ok(Some((tag, payload)))
    }
}

/// Encodes batch items into a batch-frame payload: `u32` count, then
/// per item `[u8 tag][u32 len][payload]`. Each item's tag/payload is
/// byte-identical to the standalone frame it replaces.
pub fn encode_batch(items: &[(u8, Vec<u8>)]) -> Vec<u8> {
    let body: usize = items.iter().map(|(_, p)| 5 + p.len()).sum();
    let mut out = Vec::with_capacity(4 + body);
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for (tag, payload) in items {
        out.push(*tag);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// Decodes a batch-frame payload back into `(tag, payload)` items.
///
/// Rejects payloads whose declared count or item lengths disagree with
/// the bytes actually present (including trailing garbage): a batch
/// frame must be exactly self-describing, same spirit as the outer
/// length check in [`read_frame`].
pub fn decode_batch(payload: &[u8]) -> io::Result<Vec<(u8, Vec<u8>)>> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if payload.len() < 4 {
        return Err(bad("batch shorter than its count field"));
    }
    let count = u32::from_le_bytes(payload[..4].try_into().expect("4-byte slice")) as usize;
    let mut items = Vec::new();
    let mut at = 4;
    for _ in 0..count {
        if payload.len() - at < 5 {
            return Err(bad("truncated batch item header"));
        }
        let tag = payload[at];
        let len =
            u32::from_le_bytes(payload[at + 1..at + 5].try_into().expect("4-byte slice")) as usize;
        at += 5;
        if payload.len() - at < len {
            return Err(bad("truncated batch item payload"));
        }
        items.push((tag, payload[at..at + len].to_vec()));
        at += len;
    }
    if at != payload.len() {
        return Err(bad("trailing bytes after final batch item"));
    }
    Ok(items)
}

/// True when `err` means the peer closed the connection cleanly.
pub fn is_clean_close(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionAborted
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_NET, &[1, 2, 3]).unwrap();
        write_frame(&mut buf, TAG_HELLO_CLIENT, &[]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), (TAG_NET, vec![1, 2, 3]));
        assert_eq!(read_frame(&mut r).unwrap(), (TAG_HELLO_CLIENT, vec![]));
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(is_clean_close(&err));
    }

    #[test]
    fn zero_length_frame_is_rejected() {
        let mut r = &[0u8, 0, 0, 0][..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn truncated_header_is_distinguished_from_clean_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, TAG_NET, &[9]).unwrap();
        let mut r = &buf[..2];
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(err.to_string(), "truncated frame header");
    }

    #[test]
    fn decoder_reassembles_frames_fed_byte_by_byte() {
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_NET, &[1, 2, 3]).unwrap();
        write_frame(&mut wire, TAG_ACK, b"xyz").unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &wire {
            dec.extend(std::slice::from_ref(b));
            while let Some(frame) = dec.try_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(
            got,
            vec![(TAG_NET, vec![1, 2, 3]), (TAG_ACK, b"xyz".to_vec())]
        );
        assert!(dec.is_empty());
    }

    #[test]
    fn decoder_keeps_partial_frames_across_feeds() {
        let mut wire = Vec::new();
        write_frame(&mut wire, TAG_SEQ, &[9; 40]).unwrap();
        let mut dec = FrameDecoder::new();
        dec.extend(&wire[..3]); // mid-header
        assert!(dec.try_frame().unwrap().is_none());
        assert_eq!(dec.buffered(), 3);
        dec.extend(&wire[3..20]); // mid-body
        assert!(dec.try_frame().unwrap().is_none());
        dec.extend(&wire[20..]);
        let (tag, payload) = dec.try_frame().unwrap().expect("complete");
        assert_eq!((tag, payload.len()), (TAG_SEQ, 40));
        assert!(dec.is_empty());
    }

    #[test]
    fn decoder_rejects_bad_lengths_like_read_frame() {
        let mut dec = FrameDecoder::new();
        dec.extend(&[0, 0, 0, 0]);
        assert_eq!(
            dec.try_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut dec = FrameDecoder::new();
        dec.extend(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(
            dec.try_frame().unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn batch_roundtrips_including_empty_payloads() {
        let items = vec![
            (TAG_REQ_COMBINE, 7u64.to_le_bytes().to_vec()),
            (TAG_REQ_WRITE, vec![]),
            (TAG_REQ_COMBINE, vec![0xAB; 300]),
        ];
        let wire = encode_batch(&items);
        assert_eq!(decode_batch(&wire).unwrap(), items);
        assert_eq!(decode_batch(&encode_batch(&[])).unwrap(), vec![]);
    }

    #[test]
    fn batch_rejects_malformed_payloads() {
        // Count promises more items than the bytes hold.
        let mut wire = encode_batch(&[(TAG_REQ_COMBINE, vec![1, 2, 3])]);
        wire[0] = 2;
        assert!(decode_batch(&wire).is_err());
        // Item length runs past the end.
        let mut wire = encode_batch(&[(TAG_REQ_COMBINE, vec![1, 2, 3])]);
        wire[5] = 200;
        assert!(decode_batch(&wire).is_err());
        // Trailing garbage after the last item.
        let mut wire = encode_batch(&[(TAG_REQ_COMBINE, vec![1, 2, 3])]);
        wire.push(0);
        assert!(decode_batch(&wire).is_err());
        // Shorter than the count field itself.
        assert!(decode_batch(&[1, 0]).is_err());
    }

    #[test]
    fn decoder_compaction_preserves_the_stream() {
        // Many frames through one decoder, fed in ragged chunks that
        // straddle frame boundaries, forcing periodic compaction.
        let mut wire = Vec::new();
        for i in 0..200u32 {
            write_frame(&mut wire, (i % 7) as u8, &vec![i as u8; (i % 97) as usize]).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut count = 0;
        for chunk in wire.chunks(13) {
            dec.extend(chunk);
            while let Some((tag, payload)) = dec.try_frame().unwrap() {
                assert_eq!(tag, (count % 7) as u8);
                assert_eq!(payload, vec![count as u8; (count % 97) as usize]);
                count += 1;
            }
        }
        assert_eq!(count, 200);
        assert!(dec.is_empty());
    }
}
