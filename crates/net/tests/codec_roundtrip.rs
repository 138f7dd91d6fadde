//! Property tests for the wire codec: `decode(encode(m)) == m` across
//! every `DhtMsg` variant (including maximal payloads), and strict,
//! panic-free rejection of malformed frames.

use bytes::Bytes;
use cam_net::codec::{
    decode_frame, encode_frame, wire_cost, Frame, WireError, ACK_FRAME_LEN, DATA_HEADER_LEN,
    MAX_FRAME,
};
use cam_overlay::dynamic::DhtMsg;
use cam_overlay::Member;
use cam_ring::{Id, Segment};
use cam_sim::ActorId;
use proptest::prelude::*;

/// A member with every field derived from one seed; `upload_kbps` stays a
/// finite round number so `PartialEq` round-trips exactly.
fn member_from(seed: u64) -> Member {
    Member {
        id: Id(seed),
        capacity: (seed >> 32) as u32,
        upload_kbps: (seed % 1_000_000) as f64 / 8.0,
    }
}

/// How many variants `DhtMsg` has: the positions [`msg_from`] accepts and
/// one more than the largest value [`variant_index`] returns.
const VARIANTS: u8 = 14;

/// The position of `m`'s variant in `0..VARIANTS` — a test-only index, not
/// the wire tag: `GroupPublish` sits at position 13 but is encoded with
/// tag 15, because the codec never reuses the retired tags 13 and 14.
/// Wildcard-free on purpose: a new `DhtMsg` variant does not compile here
/// (nor in the codec's `msg_len` and `put_msg`) until it has an index, and
/// `bounded_roundtrip_all_variants` then fails until `msg_from` builds it
/// and `read_msg` decodes it.
fn variant_index(m: &DhtMsg) -> u8 {
    match m {
        DhtMsg::Lookup { .. } => 0,
        DhtMsg::LookupDone { .. } => 1,
        DhtMsg::StabilizeQuery => 2,
        DhtMsg::StabilizeReply { .. } => 3,
        DhtMsg::Notify(_) => 4,
        DhtMsg::Ping { .. } => 5,
        DhtMsg::Pong { .. } => 6,
        DhtMsg::Multicast { .. } => 7,
        DhtMsg::AntiEntropyDigest { .. } => 8,
        DhtMsg::PayloadPullReq { .. } => 9,
        DhtMsg::PayloadPush { .. } => 10,
        DhtMsg::JoinRequest { .. } => 11,
        DhtMsg::JoinAnswer { .. } => 12,
        DhtMsg::GroupPublish { .. } => 13,
    }
}

/// Builds the `DhtMsg` variant at [`variant_index`] position `tag` from
/// generic generated material, so one strategy covers the whole enum.
fn msg_from(tag: u8, a: u64, b: u64, hops: u32, ids: &[u64], data: &[u8]) -> DhtMsg {
    let members: Vec<Member> = ids.iter().map(|&s| member_from(s)).collect();
    match tag {
        0 => DhtMsg::Lookup {
            key: Id(a),
            req_id: b,
            hops,
            reply_to: ActorId((a ^ b) as usize),
            state: a.wrapping_mul(b),
        },
        1 => DhtMsg::LookupDone {
            req_id: a,
            owner: member_from(b),
            hops,
            gave_up: a & 1 == 1,
        },
        2 => DhtMsg::StabilizeQuery,
        3 => DhtMsg::StabilizeReply {
            predecessor: (a & 1 == 1).then(|| member_from(b)),
            successors: members,
        },
        4 => DhtMsg::Notify(member_from(a)),
        5 => DhtMsg::Ping { req_id: a },
        6 => DhtMsg::Pong {
            req_id: a,
            member: member_from(b),
        },
        7 => DhtMsg::Multicast {
            payload: a,
            region: (a & 1 == 1).then(|| Segment::new(Id(b), Id(b ^ a))),
            hops,
            data: Bytes::from(data.to_vec()),
        },
        8 => DhtMsg::AntiEntropyDigest { have: ids.to_vec() },
        9 => DhtMsg::PayloadPullReq { want: ids.to_vec() },
        10 => DhtMsg::PayloadPush {
            payload: a,
            hops,
            data: Bytes::from(data.to_vec()),
        },
        11 => DhtMsg::JoinRequest {
            joiner: member_from(a),
            joiner_actor: ActorId(b as usize),
        },
        12 => DhtMsg::JoinAnswer {
            successors: members,
        },
        13 => DhtMsg::GroupPublish {
            group: a,
            payload: b,
            region: (a & 1 == 1).then(|| Segment::new(Id(b), Id(b ^ a))),
            hops,
            data: Bytes::from(data.to_vec()),
        },
        other => unreachable!("tag {other}"),
    }
}

/// One representative of every variant, for the deterministic negative
/// tests below.
fn sample_msgs() -> Vec<DhtMsg> {
    (0..VARIANTS)
        .map(|tag| {
            msg_from(
                tag,
                0x0123_4567_89ab_cdef,
                0xfeed_f00d_dead_beef,
                7,
                &[1, 2, u64::MAX],
                b"payload bytes",
            )
        })
        .collect()
}

proptest! {
    /// Every variant round-trips exactly through the wire, and the frame
    /// is exactly as long as `wire_cost` predicts.
    #[test]
    fn data_frames_roundtrip(
        (tag, a, b) in (0..VARIANTS, 0u64..u64::MAX, 0u64..u64::MAX),
        hops in 0u32..u32::MAX,
        ids in prop::collection::vec(0u64..u64::MAX, 0..12),
        data in prop::collection::vec(0u8..=255, 0..512),
        (from, seq, flags) in (0u64..u64::MAX, 0u64..u64::MAX, 0u8..2),
    ) {
        let msg = msg_from(tag, a, b, hops, &ids, &data);
        let frame = Frame::Data {
            from,
            seq,
            ack_required: flags == 1,
            msg: msg.clone(),
        };
        let bytes = encode_frame(&frame).expect("well under MAX_FRAME");
        prop_assert_eq!(bytes.len(), wire_cost(&msg));
        prop_assert!(bytes.len() <= MAX_FRAME);
        prop_assert_eq!(decode_frame(&bytes).unwrap(), frame);
    }

    /// Ack frames round-trip and are always exactly `ACK_FRAME_LEN`.
    #[test]
    fn ack_frames_roundtrip((from, seq) in (0u64..u64::MAX, 0u64..u64::MAX)) {
        let frame = Frame::Ack { from, seq };
        let bytes = encode_frame(&frame).unwrap();
        prop_assert_eq!(bytes.len(), ACK_FRAME_LEN);
        prop_assert_eq!(decode_frame(&bytes).unwrap(), frame);
    }

    /// Arbitrary garbage never panics the decoder — it either happens to
    /// parse or returns a typed error.
    #[test]
    fn random_bytes_never_panic(junk in prop::collection::vec(0u8..=255, 0..256)) {
        let _ = decode_frame(&junk);
    }
}

/// Deterministic, bounded round-trip across every variant: the subset the
/// CI miri job interprets (`cargo miri test -p cam-net --test
/// codec_roundtrip bounded_roundtrip`). Small enough for an interpreter,
/// but still covering every encode/decode arm with non-trivial contents.
#[test]
fn bounded_roundtrip_all_variants() {
    assert!(
        sample_msgs().iter().map(variant_index).eq(0..VARIANTS),
        "`msg_from` must build every `DhtMsg` variant, in position order"
    );
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    for round in 0..4u64 {
        for tag in 0..VARIANTS {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(round | 1);
            let ids = [seed, seed ^ 1, seed.rotate_left(31)];
            let data = [tag; 48];
            let msg = msg_from(
                tag,
                seed,
                seed.rotate_left(17) ^ 0xD1B5_4A32_D192_ED03,
                (seed % 97) as u32,
                &ids,
                &data,
            );
            let frame = Frame::Data {
                from: round,
                seq: seed,
                ack_required: tag & 1 == 0,
                msg: msg.clone(),
            };
            let bytes = encode_frame(&frame).expect("bounded frames fit");
            assert_eq!(bytes.len(), wire_cost(&msg));
            assert_eq!(decode_frame(&bytes).expect("round-trip decodes"), frame);
        }
    }
}

#[test]
fn every_truncation_is_rejected() {
    for msg in sample_msgs() {
        let frame = Frame::Data {
            from: 3,
            seq: 41,
            ack_required: true,
            msg,
        };
        let bytes = encode_frame(&frame).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not decode",
                bytes.len()
            );
        }
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    for msg in sample_msgs() {
        let frame = Frame::Data {
            from: 0,
            seq: 1,
            ack_required: false,
            msg,
        };
        let mut bytes = encode_frame(&frame).unwrap();
        bytes.push(0xEE);
        assert_eq!(decode_frame(&bytes), Err(WireError::TrailingBytes));
    }
}

#[test]
fn wrong_version_is_rejected() {
    let mut bytes = encode_frame(&Frame::Ack { from: 1, seq: 2 }).unwrap();
    bytes[4] = 2; // future version
    assert_eq!(decode_frame(&bytes), Err(WireError::BadVersion(2)));
    bytes[4] = 0;
    assert_eq!(decode_frame(&bytes), Err(WireError::BadVersion(0)));
}

#[test]
fn unknown_kind_tag_and_flags_are_rejected() {
    let mut bytes = encode_frame(&Frame::Ack { from: 1, seq: 2 }).unwrap();
    bytes[5] = 9;
    assert_eq!(decode_frame(&bytes), Err(WireError::BadKind(9)));

    let data = Frame::Data {
        from: 0,
        seq: 0,
        ack_required: false,
        msg: DhtMsg::StabilizeQuery,
    };
    // 13 and 14 are retired (routed subscribe/unsubscribe), 16 was never
    // assigned: all three are unknown.
    for tag in [13, 14, 16] {
        let mut bytes = encode_frame(&data).unwrap();
        bytes[23] = tag;
        assert_eq!(decode_frame(&bytes), Err(WireError::BadTag(tag)));
    }
    let mut bytes = encode_frame(&data).unwrap();
    bytes[22] = 0b10; // undefined flag bit
    assert_eq!(decode_frame(&bytes), Err(WireError::BadFlags(0b10)));
}

#[test]
fn hostile_count_cannot_allocate() {
    // An AntiEntropyDigest whose element count claims far more items than
    // the buffer holds must fail the pre-check, not attempt a huge Vec.
    let frame = Frame::Data {
        from: 0,
        seq: 0,
        ack_required: false,
        msg: DhtMsg::AntiEntropyDigest { have: vec![1, 2] },
    };
    let mut bytes = encode_frame(&frame).unwrap();
    let count_at = DATA_HEADER_LEN + 1; // after the variant tag
    bytes[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
    assert_eq!(decode_frame(&bytes), Err(WireError::Truncated));
}

#[test]
fn maximal_payload_exactly_fills_a_frame() {
    // Grow the payload until the frame is exactly MAX_FRAME, check it
    // round-trips, then confirm one more byte tips into Oversize.
    let mk = |len: usize| DhtMsg::Multicast {
        payload: u64::MAX,
        region: Some(Segment::new(Id(1), Id(2))),
        hops: u32::MAX,
        data: Bytes::from(vec![0xABu8; len]),
    };
    let overhead = wire_cost(&mk(0));
    let max_payload = MAX_FRAME - overhead;
    let frame = Frame::Data {
        from: 1,
        seq: 2,
        ack_required: true,
        msg: mk(max_payload),
    };
    let bytes = encode_frame(&frame).unwrap();
    assert_eq!(bytes.len(), MAX_FRAME);
    assert_eq!(decode_frame(&bytes).unwrap(), frame);

    let over = Frame::Data {
        from: 1,
        seq: 2,
        ack_required: true,
        msg: mk(max_payload + 1),
    };
    assert_eq!(encode_frame(&over), Err(WireError::Oversize(MAX_FRAME + 1)));
}

#[test]
fn oversize_incoming_buffers_are_rejected() {
    let junk = vec![0u8; MAX_FRAME + 1];
    assert_eq!(decode_frame(&junk), Err(WireError::Oversize(MAX_FRAME + 1)));
}
