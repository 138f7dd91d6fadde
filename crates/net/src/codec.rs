//! The versioned, length-prefixed binary wire format.
//!
//! Every datagram on a CAM wire is one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     length   u32 BE — byte count of everything after this field
//! 4       1     version  currently 1; anything else is rejected
//! 5       1     kind     0 = DATA, 1 = ACK
//! 6       8     from     u64 BE — sender's endpoint (actor) index
//! 14      8     seq      u64 BE — sender-local sequence number
//! DATA frames continue:
//! 22      1     flags    bit 0: ack_required
//! 23      …     body     one encoded [`DhtMsg`]
//! ```
//!
//! The body is a one-byte variant tag followed by the variant's fields in
//! declaration order. Integers are big-endian; `f64` is its IEEE-754 bit
//! pattern as a `u64`; `Option<T>` is a presence byte then `T`;
//! `Vec<T>`/byte strings are a `u32` count then the items. The format is
//! hand-rolled (the build is offline — no serde wire formats, no protobuf)
//! and deliberately boring: fixed header, fixed integer widths, no
//! compression, no varints. Tags are never reused: the retired 13 and 14
//! decode as [`WireError::BadTag`], so a frame's bytes never change
//! meaning under version 1.
//!
//! Decoding is strict. A frame is rejected — with a typed [`WireError`],
//! never a panic — if it is truncated, longer than its length prefix
//! claims (trailing bytes), longer than [`MAX_FRAME`], of an unknown
//! version/kind/variant tag, or if any embedded count would read past the
//! end of the buffer. Malformed input can therefore be fed straight from
//! the socket into [`decode_frame`].

use cam_overlay::dynamic::DhtMsg;
use cam_overlay::Member;
use cam_ring::{Id, Segment};
use cam_sim::ActorId;

/// Wire-format version emitted and accepted by this build.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on an encoded frame, chosen to fit a single loopback UDP
/// datagram (the practical limit is 65,507 bytes) with headroom.
pub const MAX_FRAME: usize = 60 * 1024;

/// Bytes of frame header before a DATA body (length, version, kind, from,
/// seq, flags).
pub const DATA_HEADER_LEN: usize = 23;

/// Total bytes of an ACK frame (header only, no body).
pub const ACK_FRAME_LEN: usize = 22;

const KIND_DATA: u8 = 0;
const KIND_ACK: u8 = 1;

/// One unit of wire traffic: a protocol message envelope or an ack.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A protocol message from endpoint `from`, tagged with the sender's
    /// `seq`; `ack_required` asks the receiver to return an `Ack` so the
    /// sender's retransmit machinery can stop.
    Data {
        /// Sender endpoint (actor) index.
        from: u64,
        /// Sender-local sequence number.
        seq: u64,
        /// Whether the receiver must acknowledge this frame.
        ack_required: bool,
        /// The protocol message.
        msg: DhtMsg,
    },
    /// Acknowledges the `Data` frame `seq` previously sent by the
    /// receiver of this ack; `from` is the acknowledging endpoint.
    Ack {
        /// Acknowledging endpoint (actor) index.
        from: u64,
        /// Sequence number being acknowledged.
        seq: u64,
    },
}

impl Frame {
    /// The sender endpoint index carried in the envelope.
    pub fn from(&self) -> u64 {
        match self {
            Frame::Data { from, .. } | Frame::Ack { from, .. } => *from,
        }
    }
}

/// Why a frame could not be encoded or decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the advertised content did.
    Truncated,
    /// Bytes remain after the advertised content (or after the decoded
    /// body) — the frame is longer than it claims.
    TrailingBytes,
    /// The version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The frame-kind byte is neither DATA nor ACK.
    BadKind(u8),
    /// The message-variant tag is unknown.
    BadTag(u8),
    /// A flags byte has undefined bits set.
    BadFlags(u8),
    /// The frame (or the frame being encoded) exceeds [`MAX_FRAME`].
    Oversize(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::TrailingBytes => write!(f, "frame has trailing bytes"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadFlags(b) => write!(f, "undefined flag bits {b:#04x}"),
            WireError::Oversize(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes `frame`, returning the complete length-prefixed byte string.
///
/// Fails only with [`WireError::Oversize`] when the encoded frame would
/// not fit in [`MAX_FRAME`] (e.g. a multicast payload or anti-entropy
/// digest too large for one datagram).
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    encode_frame_into(frame, &mut out)?;
    Ok(out)
}

/// Encodes `frame` into a caller-provided buffer — the pooled-buffer hot
/// path. `out` is cleared first, so a recycled buffer's old contents never
/// leak; its capacity is reused, so the steady state allocates nothing.
///
/// Fails only with [`WireError::Oversize`] (see [`encode_frame`]); on
/// error `out` is left empty.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) -> Result<(), WireError> {
    out.clear();
    let body_len = match frame {
        Frame::Data { msg, .. } => 1 + msg_len(msg),
        Frame::Ack { .. } => 0,
    };
    let total = 18 + body_len; // ver + kind + from + seq + body
    if 4 + total > MAX_FRAME {
        return Err(WireError::Oversize(4 + total));
    }
    out.reserve(4 + total);
    put_u32(out, total as u32);
    out.push(WIRE_VERSION);
    match frame {
        Frame::Data {
            from,
            seq,
            ack_required,
            msg,
        } => {
            out.push(KIND_DATA);
            put_u64(out, *from);
            put_u64(out, *seq);
            out.push(u8::from(*ack_required));
            put_msg(out, msg);
        }
        Frame::Ack { from, seq } => {
            out.push(KIND_ACK);
            put_u64(out, *from);
            put_u64(out, *seq);
        }
    }
    debug_assert_eq!(out.len(), 4 + total);
    Ok(())
}

/// Decodes one complete frame from `buf` (e.g. a received datagram).
///
/// The buffer must contain exactly one frame: the length prefix must match
/// the buffer, every embedded count must be satisfiable, and no bytes may
/// remain after the body. Any violation is a typed error, never a panic.
pub fn decode_frame(buf: &[u8]) -> Result<Frame, WireError> {
    if buf.len() > MAX_FRAME {
        return Err(WireError::Oversize(buf.len()));
    }
    let mut r = Reader { buf, pos: 0 };
    let claimed = r.u32()? as usize;
    if claimed > buf.len() - 4 {
        return Err(WireError::Truncated);
    }
    if claimed < buf.len() - 4 {
        return Err(WireError::TrailingBytes);
    }
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = r.u8()?;
    let from = r.u64()?;
    let seq = r.u64()?;
    let frame = match kind {
        KIND_DATA => {
            let flags = r.u8()?;
            if flags & !1 != 0 {
                return Err(WireError::BadFlags(flags));
            }
            let msg = read_msg(&mut r)?;
            Frame::Data {
                from,
                seq,
                ack_required: flags & 1 != 0,
                msg,
            }
        }
        KIND_ACK => Frame::Ack { from, seq },
        other => return Err(WireError::BadKind(other)),
    };
    if r.pos != buf.len() {
        return Err(WireError::TrailingBytes);
    }
    Ok(frame)
}

/// Encoded size of the DATA frame that would carry `msg` — the wire cost
/// of one protocol message. Install as `Simulation::set_wire_cost` to make
/// [`cam_sim::engine::SimStats`] byte counters comparable with a real
/// transport's.
pub fn wire_cost(msg: &DhtMsg) -> usize {
    DATA_HEADER_LEN + msg_len(msg)
}

// ---------------------------------------------------------------- encoding

const MEMBER_LEN: usize = 20; // id u64 + capacity u32 + upload f64

// `msg_len` and `put_msg` match `DhtMsg` without a wildcard arm, so a new
// variant is a compile error in both until the codec handles it; the lint
// keeps a later `_ =>` from quietly undoing that.
#[warn(clippy::wildcard_enum_match_arm)]
fn msg_len(msg: &DhtMsg) -> usize {
    1 + match msg {
        DhtMsg::Lookup { .. } => 8 + 8 + 8 + 4 + 8,
        DhtMsg::LookupDone { .. } => 8 + MEMBER_LEN + 4 + 1,
        DhtMsg::StabilizeQuery => 0,
        DhtMsg::StabilizeReply {
            predecessor,
            successors,
        } => 1 + predecessor.map_or(0, |_| MEMBER_LEN) + 4 + MEMBER_LEN * successors.len(),
        DhtMsg::Notify(_) => MEMBER_LEN,
        DhtMsg::Ping { .. } => 8,
        DhtMsg::Pong { .. } => 8 + MEMBER_LEN,
        DhtMsg::Multicast { region, data, .. } => {
            8 + 1 + region.map_or(0, |_| 16) + 4 + 4 + data.len()
        }
        DhtMsg::AntiEntropyDigest { have } => 4 + 8 * have.len(),
        DhtMsg::PayloadPullReq { want } => 4 + 8 * want.len(),
        DhtMsg::PayloadPush { data, .. } => 8 + 4 + 4 + data.len(),
        DhtMsg::JoinRequest { .. } => MEMBER_LEN + 8,
        DhtMsg::JoinAnswer { successors } => 4 + MEMBER_LEN * successors.len(),
        DhtMsg::GroupPublish { region, data, .. } => {
            8 + 8 + 1 + region.map_or(0, |_| 16) + 4 + 4 + data.len()
        }
    }
}

#[warn(clippy::wildcard_enum_match_arm)]
fn put_msg(out: &mut Vec<u8>, msg: &DhtMsg) {
    match msg {
        DhtMsg::Lookup {
            key,
            req_id,
            reply_to,
            hops,
            state,
        } => {
            out.push(0);
            put_u64(out, key.value());
            put_u64(out, *req_id);
            put_u64(out, reply_to.index() as u64);
            put_u32(out, *hops);
            put_u64(out, *state);
        }
        DhtMsg::LookupDone {
            req_id,
            owner,
            hops,
            gave_up,
        } => {
            out.push(1);
            put_u64(out, *req_id);
            put_member(out, owner);
            put_u32(out, *hops);
            out.push(u8::from(*gave_up));
        }
        DhtMsg::StabilizeQuery => out.push(2),
        DhtMsg::StabilizeReply {
            predecessor,
            successors,
        } => {
            out.push(3);
            put_opt_member(out, predecessor.as_ref());
            put_members(out, successors);
        }
        DhtMsg::Notify(m) => {
            out.push(4);
            put_member(out, m);
        }
        DhtMsg::Ping { req_id } => {
            out.push(5);
            put_u64(out, *req_id);
        }
        DhtMsg::Pong { req_id, member } => {
            out.push(6);
            put_u64(out, *req_id);
            put_member(out, member);
        }
        DhtMsg::Multicast {
            payload,
            region,
            hops,
            data,
        } => {
            out.push(7);
            put_u64(out, *payload);
            match region {
                None => out.push(0),
                Some(seg) => {
                    out.push(1);
                    put_u64(out, seg.from.value());
                    put_u64(out, seg.to.value());
                }
            }
            put_u32(out, *hops);
            put_bytes(out, data);
        }
        DhtMsg::AntiEntropyDigest { have } => {
            out.push(8);
            put_u64s(out, have);
        }
        DhtMsg::PayloadPullReq { want } => {
            out.push(9);
            put_u64s(out, want);
        }
        DhtMsg::PayloadPush {
            payload,
            hops,
            data,
        } => {
            out.push(10);
            put_u64(out, *payload);
            put_u32(out, *hops);
            put_bytes(out, data);
        }
        DhtMsg::JoinRequest {
            joiner,
            joiner_actor,
        } => {
            out.push(11);
            put_member(out, joiner);
            put_u64(out, joiner_actor.index() as u64);
        }
        DhtMsg::JoinAnswer { successors } => {
            out.push(12);
            put_members(out, successors);
        }
        DhtMsg::GroupPublish {
            group,
            payload,
            region,
            hops,
            data,
        } => {
            out.push(15);
            put_u64(out, *group);
            put_u64(out, *payload);
            match region {
                None => out.push(0),
                Some(seg) => {
                    out.push(1);
                    put_u64(out, seg.from.value());
                    put_u64(out, seg.to.value());
                }
            }
            put_u32(out, *hops);
            put_bytes(out, data);
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_member(out: &mut Vec<u8>, m: &Member) {
    put_u64(out, m.id.value());
    put_u32(out, m.capacity);
    put_u64(out, m.upload_kbps.to_bits());
}

fn put_opt_member(out: &mut Vec<u8>, m: Option<&Member>) {
    match m {
        None => out.push(0),
        Some(m) => {
            out.push(1);
            put_member(out, m);
        }
    }
}

fn put_members(out: &mut Vec<u8>, ms: &[Member]) {
    put_u32(out, ms.len() as u32);
    for m in ms {
        put_member(out, m);
    }
}

fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    put_u32(out, vs.len() as u32);
    for v in vs {
        put_u64(out, *v);
    }
}

fn put_bytes(out: &mut Vec<u8>, data: &bytes::Bytes) {
    put_u32(out, data.len() as u32);
    out.extend_from_slice(data);
}

// ---------------------------------------------------------------- decoding

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?.first().copied().ok_or(WireError::Truncated)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let bytes = self.take(4)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_be_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let bytes = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_be_bytes(bytes))
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadFlags(b)),
        }
    }

    fn member(&mut self) -> Result<Member, WireError> {
        let id = Id(self.u64()?);
        let capacity = self.u32()?;
        let upload_kbps = f64::from_bits(self.u64()?);
        Ok(Member {
            id,
            capacity,
            upload_kbps,
        })
    }

    fn opt_member(&mut self) -> Result<Option<Member>, WireError> {
        Ok(if self.bool()? {
            Some(self.member()?)
        } else {
            None
        })
    }

    /// Reads a `u32` count and pre-checks that `count × item_len` bytes
    /// remain, so a hostile length cannot trigger a huge allocation.
    fn count(&mut self, item_len: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(item_len) > self.buf.len() - self.pos {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn members(&mut self) -> Result<Vec<Member>, WireError> {
        let n = self.count(MEMBER_LEN)?;
        (0..n).map(|_| self.member()).collect()
    }

    fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.count(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn bytes(&mut self) -> Result<bytes::Bytes, WireError> {
        let n = self.count(1)?;
        Ok(bytes::Bytes::from(self.take(n)?.to_vec()))
    }
}

fn read_msg(r: &mut Reader<'_>) -> Result<DhtMsg, WireError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => DhtMsg::Lookup {
            key: Id(r.u64()?),
            req_id: r.u64()?,
            reply_to: ActorId(r.u64()? as usize),
            hops: r.u32()?,
            state: r.u64()?,
        },
        1 => DhtMsg::LookupDone {
            req_id: r.u64()?,
            owner: r.member()?,
            hops: r.u32()?,
            gave_up: r.bool()?,
        },
        2 => DhtMsg::StabilizeQuery,
        3 => DhtMsg::StabilizeReply {
            predecessor: r.opt_member()?,
            successors: r.members()?,
        },
        4 => DhtMsg::Notify(r.member()?),
        5 => DhtMsg::Ping { req_id: r.u64()? },
        6 => DhtMsg::Pong {
            req_id: r.u64()?,
            member: r.member()?,
        },
        7 => DhtMsg::Multicast {
            payload: r.u64()?,
            region: if r.bool()? {
                Some(Segment::new(Id(r.u64()?), Id(r.u64()?)))
            } else {
                None
            },
            hops: r.u32()?,
            data: r.bytes()?,
        },
        8 => DhtMsg::AntiEntropyDigest { have: r.u64s()? },
        9 => DhtMsg::PayloadPullReq { want: r.u64s()? },
        10 => DhtMsg::PayloadPush {
            payload: r.u64()?,
            hops: r.u32()?,
            data: r.bytes()?,
        },
        11 => DhtMsg::JoinRequest {
            joiner: r.member()?,
            joiner_actor: ActorId(r.u64()? as usize),
        },
        12 => DhtMsg::JoinAnswer {
            successors: r.members()?,
        },
        15 => DhtMsg::GroupPublish {
            group: r.u64()?,
            payload: r.u64()?,
            region: if r.bool()? {
                Some(Segment::new(Id(r.u64()?), Id(r.u64()?)))
            } else {
                None
            },
            hops: r.u32()?,
            data: r.bytes()?,
        },
        other => return Err(WireError::BadTag(other)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_frame_is_fixed_size() {
        let f = Frame::Ack { from: 7, seq: 99 };
        let bytes = encode_frame(&f).unwrap();
        assert_eq!(bytes.len(), ACK_FRAME_LEN);
        assert_eq!(decode_frame(&bytes).unwrap(), f);
    }

    #[test]
    fn encode_into_reuses_dirty_buffers() {
        let frame = Frame::Data {
            from: 3,
            seq: 11,
            ack_required: true,
            msg: DhtMsg::Ping { req_id: 42 },
        };
        let fresh = encode_frame(&frame).unwrap();
        // A recycled buffer arrives with stale contents and capacity; the
        // pooled path must clear it and produce identical bytes.
        let mut recycled = vec![0xAA; 512];
        encode_frame_into(&frame, &mut recycled).unwrap();
        assert_eq!(recycled, fresh);
        // Oversize failures leave the buffer empty, never half-written.
        let huge = Frame::Data {
            from: 0,
            seq: 1,
            ack_required: false,
            msg: DhtMsg::PayloadPush {
                payload: 1,
                hops: 0,
                data: bytes::Bytes::from(vec![0u8; MAX_FRAME]),
            },
        };
        let mut buf = vec![1, 2, 3];
        assert!(encode_frame_into(&huge, &mut buf).is_err());
        assert!(buf.is_empty());
    }

    #[test]
    fn wire_cost_matches_encoding() {
        let msg = DhtMsg::Multicast {
            payload: 5,
            region: Some(Segment::new(Id(3), Id(9))),
            hops: 2,
            data: bytes::Bytes::from(vec![1, 2, 3, 4, 5]),
        };
        let frame = Frame::Data {
            from: 1,
            seq: 2,
            ack_required: true,
            msg: msg.clone(),
        };
        assert_eq!(encode_frame(&frame).unwrap().len(), wire_cost(&msg));
    }

    #[test]
    fn rejects_payload_too_large_to_frame() {
        let msg = DhtMsg::PayloadPush {
            payload: 1,
            hops: 0,
            data: bytes::Bytes::from(vec![0u8; MAX_FRAME]),
        };
        let frame = Frame::Data {
            from: 0,
            seq: 0,
            ack_required: true,
            msg,
        };
        assert!(matches!(encode_frame(&frame), Err(WireError::Oversize(_))));
    }
}
