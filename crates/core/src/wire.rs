//! Binary wire format for protocol messages.
//!
//! The efficiency metric of the paper divides secret bits by *all* bits the
//! terminals put on the air, so control messages must have a concrete,
//! honest encoding — a hand-rolled length-prefixed binary format on
//! `bytes::{Buf, BufMut}` (the explicit-framing style the networking
//! guides recommend), not an abstract "assume this is free" hand-wave.
//!
//! Layout: every message starts with a one-byte tag followed by
//! fixed-order fields; multi-byte integers are big-endian. Payload symbols
//! are raw bytes (a `Gf256` is its byte).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use thinair_gf::Gf256;

use crate::packet::Payload;

/// A y/z/s coefficient row in sparse form: positions into the x-pool plus
/// one coefficient per position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseRow {
    /// Sorted x-packet indices this row combines.
    pub support: Vec<u16>,
    /// Coefficients, parallel to `support`.
    pub coeffs: Vec<u8>,
}

/// Protocol messages, as put on the air.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Phase 1 step 1: a raw x-packet (plain broadcast, *not* reliable).
    XPacket {
        /// Dense index of the packet within the round.
        id: u16,
        /// Terminal that generated it (role rotation).
        owner: u8,
        /// The random payload.
        payload: Vec<u8>,
    },
    /// Phase 1 step 2: which x-packets a terminal received (reliable).
    ReceptionReport {
        /// Reporting terminal.
        terminal: u8,
        /// Number of x-packets in the round (bitmap length in bits).
        n_packets: u16,
        /// Bit `j` (LSB-first within each byte) set iff packet `j` was
        /// received.
        bitmap: Vec<u8>,
    },
    /// Phase 1 step 3: coefficient vectors of the y-packets (reliable;
    /// identities only, never contents).
    YAnnounce {
        /// One sparse row per y-packet.
        rows: Vec<SparseRow>,
    },
    /// Phase 2 step 1: a z-packet — coefficients over the y-packets *and*
    /// the combined contents (reliable).
    ZPacket {
        /// Index of this z-packet.
        index: u16,
        /// Dense coefficients over the M y-packets.
        coeffs: Vec<u8>,
        /// The z-packet contents.
        payload: Vec<u8>,
    },
    /// Phase 2 step 3: coefficient vectors of the s-packets (reliable;
    /// identities only).
    SAnnounce {
        /// One dense coefficient row over the y-packets per s-packet.
        rows: Vec<Vec<u8>>,
    },
    /// Unicast baseline: the group secret XOR-padded with terminal
    /// `terminal`'s pairwise secret (reliable broadcast; only `terminal`
    /// can strip the pad).
    PadDelivery {
        /// Which terminal this pad targets.
        terminal: u8,
        /// One padded payload per group-secret packet.
        payloads: Vec<Vec<u8>>,
    },
    /// Phase 1 step 3 + phase 2 step 3, compressed: the y/z/s plan is a
    /// deterministic function of the reception reports (which every
    /// terminal holds) and a seed, so the coordinator only announces the
    /// seed plus the resulting (M, L) — the "identities" of the paper,
    /// in their information-equivalent minimal form.
    PlanAnnounce {
        /// Seed from which the construction's coefficients are derived.
        seed: u64,
        /// Number of y-packets the plan produced.
        m: u16,
        /// Group-secret length.
        l: u16,
    },
    /// An authenticated envelope: an inner message plus an HMAC-SHA256 tag
    /// keyed with the bootstrap secret (active-adversary defence; see
    /// `crate::auth`).
    Authenticated {
        /// Serialized inner message.
        inner: Vec<u8>,
        /// HMAC-SHA256 over `inner`.
        tag: [u8; 32],
    },
}

/// Wire decoding failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message did.
    Truncated,
    /// Unknown message tag byte.
    UnknownTag(u8),
    /// A declared length is inconsistent (e.g. coeffs vs support).
    BadLength,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::BadLength => write!(f, "inconsistent length field"),
        }
    }
}

impl std::error::Error for WireError {}

const TAG_X: u8 = 0x01;
const TAG_REPORT: u8 = 0x02;
const TAG_Y: u8 = 0x03;
const TAG_Z: u8 = 0x04;
const TAG_S: u8 = 0x05;
const TAG_PAD: u8 = 0x06;
const TAG_AUTH: u8 = 0x07;
const TAG_PLAN: u8 = 0x08;

impl Message {
    /// Serializes the message.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        match self {
            Message::XPacket { id, owner, payload } => {
                b.put_u8(TAG_X);
                b.put_u16(*id);
                b.put_u8(*owner);
                b.put_u16(payload.len() as u16);
                b.put_slice(payload);
            }
            Message::ReceptionReport { terminal, n_packets, bitmap } => {
                b.put_u8(TAG_REPORT);
                b.put_u8(*terminal);
                b.put_u16(*n_packets);
                b.put_slice(bitmap);
            }
            Message::YAnnounce { rows } => {
                b.put_u8(TAG_Y);
                b.put_u16(rows.len() as u16);
                for row in rows {
                    b.put_u16(row.support.len() as u16);
                    for &s in &row.support {
                        b.put_u16(s);
                    }
                    b.put_slice(&row.coeffs);
                }
            }
            Message::ZPacket { index, coeffs, payload } => {
                b.put_u8(TAG_Z);
                b.put_u16(*index);
                b.put_u16(coeffs.len() as u16);
                b.put_slice(coeffs);
                b.put_u16(payload.len() as u16);
                b.put_slice(payload);
            }
            Message::SAnnounce { rows } => {
                b.put_u8(TAG_S);
                b.put_u16(rows.len() as u16);
                if let Some(first) = rows.first() {
                    b.put_u16(first.len() as u16);
                } else {
                    b.put_u16(0);
                }
                for row in rows {
                    b.put_slice(row);
                }
            }
            Message::PadDelivery { terminal, payloads } => {
                b.put_u8(TAG_PAD);
                b.put_u8(*terminal);
                b.put_u16(payloads.len() as u16);
                if let Some(first) = payloads.first() {
                    b.put_u16(first.len() as u16);
                } else {
                    b.put_u16(0);
                }
                for p in payloads {
                    b.put_slice(p);
                }
            }
            Message::PlanAnnounce { seed, m, l } => {
                b.put_u8(TAG_PLAN);
                b.put_u64(*seed);
                b.put_u16(*m);
                b.put_u16(*l);
            }
            Message::Authenticated { inner, tag } => {
                b.put_u8(TAG_AUTH);
                b.put_u32(inner.len() as u32);
                b.put_slice(inner);
                b.put_slice(tag);
            }
        }
        b.freeze()
    }

    /// Size of the encoded message in bits (for air-time accounting).
    pub fn bits(&self) -> u64 {
        (self.encode().len() * 8) as u64
    }

    /// Parses a message from the front of `buf`; bytes after it are
    /// ignored (see [`Message::decode_prefix`]).
    pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
        Self::decode_prefix(buf).map(|(msg, _)| msg)
    }

    /// Parses one message from the front of `buf` and returns it with the
    /// bytes that follow it, so a framing layer can insist that the
    /// message fills its container exactly. Every accepted message
    /// re-encodes to exactly the bytes it was parsed from.
    pub fn decode_prefix(mut buf: &[u8]) -> Result<(Message, &[u8]), WireError> {
        fn need(buf: &[u8], n: usize) -> Result<(), WireError> {
            if buf.remaining() < n {
                Err(WireError::Truncated)
            } else {
                Ok(())
            }
        }
        fn take(buf: &mut &[u8], n: usize) -> Result<Vec<u8>, WireError> {
            need(buf, n)?;
            let out = buf[..n].to_vec();
            buf.advance(n);
            Ok(out)
        }
        need(buf, 1)?;
        let tag = buf.get_u8();
        let msg = match tag {
            TAG_X => {
                need(buf, 5)?;
                let id = buf.get_u16();
                let owner = buf.get_u8();
                let len = buf.get_u16() as usize;
                let payload = take(&mut buf, len)?;
                Message::XPacket { id, owner, payload }
            }
            TAG_REPORT => {
                need(buf, 3)?;
                let terminal = buf.get_u8();
                let n_packets = buf.get_u16();
                let bitmap = take(&mut buf, (n_packets as usize).div_ceil(8))?;
                Message::ReceptionReport { terminal, n_packets, bitmap }
            }
            TAG_Y => {
                need(buf, 2)?;
                let n_rows = buf.get_u16() as usize;
                let mut rows = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    need(buf, 2)?;
                    let slen = buf.get_u16() as usize;
                    need(buf, slen * 2)?;
                    let mut support = Vec::with_capacity(slen);
                    for _ in 0..slen {
                        support.push(buf.get_u16());
                    }
                    let coeffs = take(&mut buf, slen)?;
                    rows.push(SparseRow { support, coeffs });
                }
                Message::YAnnounce { rows }
            }
            TAG_Z => {
                need(buf, 4)?;
                let index = buf.get_u16();
                let clen = buf.get_u16() as usize;
                let coeffs = take(&mut buf, clen)?;
                need(buf, 2)?;
                let plen = buf.get_u16() as usize;
                let payload = take(&mut buf, plen)?;
                Message::ZPacket { index, coeffs, payload }
            }
            TAG_S => {
                need(buf, 4)?;
                let n_rows = buf.get_u16() as usize;
                let width = buf.get_u16() as usize;
                // The encoder writes width 0 for an empty row set; any
                // other width would be a second encoding of that message.
                if n_rows == 0 && width != 0 {
                    return Err(WireError::BadLength);
                }
                let mut rows = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    rows.push(take(&mut buf, width)?);
                }
                Message::SAnnounce { rows }
            }
            TAG_PAD => {
                need(buf, 5)?;
                let terminal = buf.get_u8();
                let n = buf.get_u16() as usize;
                let width = buf.get_u16() as usize;
                if n == 0 && width != 0 {
                    return Err(WireError::BadLength);
                }
                let mut payloads = Vec::with_capacity(n);
                for _ in 0..n {
                    payloads.push(take(&mut buf, width)?);
                }
                Message::PadDelivery { terminal, payloads }
            }
            TAG_PLAN => {
                need(buf, 12)?;
                let seed = buf.get_u64();
                let m = buf.get_u16();
                let l = buf.get_u16();
                Message::PlanAnnounce { seed, m, l }
            }
            TAG_AUTH => {
                need(buf, 4)?;
                let len = buf.get_u32() as usize;
                let inner = take(&mut buf, len)?;
                need(buf, 32)?;
                let mut tag = [0u8; 32];
                tag.copy_from_slice(&buf[..32]);
                buf.advance(32);
                Message::Authenticated { inner, tag }
            }
            other => return Err(WireError::UnknownTag(other)),
        };
        Ok((msg, buf))
    }
}

/// Builds a reception bitmap from a received-set iterator.
pub fn bitmap_from_received(n_packets: usize, received: impl Iterator<Item = usize>) -> Vec<u8> {
    let mut bm = vec![0u8; n_packets.div_ceil(8)];
    for j in received {
        debug_assert!(j < n_packets);
        bm[j / 8] |= 1 << (j % 8);
    }
    bm
}

/// Expands a reception bitmap back into indices.
pub fn received_from_bitmap(n_packets: usize, bitmap: &[u8]) -> Vec<usize> {
    (0..n_packets).filter(|&j| bitmap.get(j / 8).is_some_and(|b| b & (1 << (j % 8)) != 0)).collect()
}

/// Converts a `Gf256` payload to wire bytes.
pub fn payload_to_bytes(p: &Payload) -> Vec<u8> {
    p.iter().map(|s| s.value()).collect()
}

/// Converts wire bytes to a `Gf256` payload.
pub fn bytes_to_payload(b: &[u8]) -> Payload {
    b.iter().copied().map(Gf256).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: Message) {
        let enc = m.encode();
        assert_eq!(m.bits(), (enc.len() * 8) as u64);
        let dec = Message::decode(&enc).unwrap();
        assert_eq!(dec, m);
    }

    #[test]
    fn x_packet_round_trip() {
        round_trip(Message::XPacket { id: 512, owner: 3, payload: vec![1, 2, 3, 255] });
        round_trip(Message::XPacket { id: 0, owner: 0, payload: vec![] });
    }

    #[test]
    fn report_round_trip() {
        let bitmap = bitmap_from_received(12, [0usize, 3, 11].into_iter());
        round_trip(Message::ReceptionReport { terminal: 5, n_packets: 12, bitmap });
    }

    #[test]
    fn y_announce_round_trip() {
        round_trip(Message::YAnnounce {
            rows: vec![
                SparseRow { support: vec![0, 5, 9], coeffs: vec![1, 7, 255] },
                SparseRow { support: vec![2], coeffs: vec![3] },
                SparseRow { support: vec![], coeffs: vec![] },
            ],
        });
    }

    #[test]
    fn z_packet_round_trip() {
        round_trip(Message::ZPacket { index: 2, coeffs: vec![9, 8, 7], payload: vec![0; 100] });
    }

    #[test]
    fn s_announce_round_trip() {
        round_trip(Message::SAnnounce { rows: vec![vec![1, 2, 3], vec![4, 5, 6]] });
        round_trip(Message::SAnnounce { rows: vec![] });
    }

    #[test]
    fn pad_delivery_round_trip() {
        round_trip(Message::PadDelivery {
            terminal: 4,
            payloads: vec![vec![1; 100], vec![2; 100]],
        });
    }

    #[test]
    fn plan_announce_round_trip() {
        round_trip(Message::PlanAnnounce { seed: u64::MAX, m: 120, l: 7 });
        // Fixed size: 1 + 8 + 2 + 2 bytes.
        assert_eq!(Message::PlanAnnounce { seed: 1, m: 2, l: 3 }.bits(), 13 * 8);
    }

    #[test]
    fn authenticated_round_trip() {
        round_trip(Message::Authenticated { inner: vec![1, 2, 3], tag: [9; 32] });
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        // Truncate every prefix of a valid message: must error, not panic.
        let m = Message::YAnnounce {
            rows: vec![SparseRow { support: vec![0, 1], coeffs: vec![5, 6] }],
        };
        let enc = m.encode();
        for cut in 0..enc.len() {
            let r = Message::decode(&enc[..cut]);
            assert!(r.is_err(), "prefix of length {cut} must not parse");
        }
    }

    #[test]
    fn decode_prefix_returns_the_bytes_after_the_message() {
        let msg = Message::PlanAnnounce { seed: 7, m: 2, l: 1 };
        let mut enc = msg.encode().to_vec();
        enc.extend_from_slice(&[0xAA, 0xBB]);
        assert_eq!(Message::decode_prefix(&enc), Ok((msg, &[0xAA, 0xBB][..])));
    }

    #[test]
    fn empty_row_sets_have_one_encoding() {
        // No rows encode as width 0; a nonzero width is a second encoding.
        assert_eq!(Message::decode(&[TAG_S, 0, 0, 0, 0]), Ok(Message::SAnnounce { rows: vec![] }));
        assert_eq!(Message::decode(&[TAG_S, 0, 0, 0, 5]), Err(WireError::BadLength));
        assert_eq!(Message::decode(&[TAG_PAD, 1, 0, 0, 0, 5]), Err(WireError::BadLength));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(Message::decode(&[0xEE]), Err(WireError::UnknownTag(0xEE)));
        assert_eq!(Message::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn bitmap_round_trip() {
        let received = vec![0, 1, 7, 8, 15, 16, 63];
        let bm = bitmap_from_received(64, received.iter().copied());
        assert_eq!(received_from_bitmap(64, &bm), received);
        // Empty set.
        let bm = bitmap_from_received(10, std::iter::empty());
        assert!(received_from_bitmap(10, &bm).is_empty());
    }

    #[test]
    fn report_bits_scale_with_packet_count() {
        let small = Message::ReceptionReport { terminal: 0, n_packets: 8, bitmap: vec![0xFF] };
        let big = Message::ReceptionReport { terminal: 0, n_packets: 800, bitmap: vec![0; 100] };
        assert!(big.bits() > small.bits());
        // 800-packet report: 1 tag + 1 terminal + 2 count + 100 bitmap.
        assert_eq!(big.bits(), 104 * 8);
    }

    #[test]
    fn payload_byte_conversions() {
        let p = vec![Gf256(0), Gf256(17), Gf256(255)];
        assert_eq!(bytes_to_payload(&payload_to_bytes(&p)), p);
    }
}
