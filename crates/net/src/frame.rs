//! The datagram codec: a versioned, checksummed frame around protocol
//! and runtime-control payloads.
//!
//! Every UDP datagram (and every simulated transmission) carries exactly
//! one frame. Version 2 layout, where `(v:a-b)` is a varint of `a` to
//! `b` bytes:
//!
//! ```text
//! magic(2) version(1)=2 flags(1) sender(1) session(v:1-10) seq(v:1-5)
//! len(v:1-3) payload(len) crc32(4)
//!
//! payload = 0x01 wire::Message           Proto: the core encoding, unchanged
//!         | 0x02 seq(v:1-5)              Ack
//!         | 0x03 digest(8)               Start: a hash, so fixed width
//!         | 0x04                         Done
//!         | 0x05                         Fin
//!         | 0x06 retry_after_ms(v:1-5)   Busy
//! ```
//!
//! Fixed-width fields are big-endian. A varint is unsigned LEB128: seven
//! bits per byte, least significant group first, the high bit set on
//! every byte but the last — variable-length header integers in the
//! spirit of QUIC's (RFC 9000 §16). The CRC-32 covers every byte before
//! it. Version 1 spent a fixed 25 bytes on this envelope (`session`,
//! `seq` and `len` as 8/4/4-byte fields); with session ids below 2^21
//! and `seq` below 128 it now takes 12–14, most of a small frame.
//!
//! `session` routes the frame to one of the concurrently multiplexed
//! group sessions; `seq` numbers frames per sender (acked when
//! [`FLAG_RELIABLE`] is set). The payload is either a protocol
//! [`Message`] in its existing `wire` encoding ([`NetPayload::Proto`]) or
//! one of the runtime-control messages that real packet I/O needs and
//! the omniscient simulator never did (start barrier, acks, completion
//! signals).
//!
//! Decoding is fuzz-resistant and canonical: any truncated, oversized,
//! corrupt, unknown or non-canonical input yields a [`FrameError`],
//! never a panic — the UDP port is an open attack surface — and every
//! accepted datagram re-encodes to exactly its own bytes. A varint with
//! a redundant zero group or a value beyond its field, and bytes left
//! over after a complete payload, are rejected rather than ignored, so
//! no two datagrams decode to the same frame. The property tests in
//! `crates/net/tests/frame_fuzz.rs` fuzz this decoder with random,
//! mutated and re-assembled bytes.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use thinair_core::wire::{Message, WireError};

/// First two bytes of every frame: "tA".
pub const MAGIC: u16 = 0x7441;

/// Current codec version. Version 1 datagrams are rejected as
/// [`FrameError::BadVersion`]; there is no compatibility path.
pub const VERSION: u8 = 2;

/// Flag bit: receiver must acknowledge this frame by `(sender, seq)`.
pub const FLAG_RELIABLE: u8 = 0x01;

/// Hard cap on the payload length field (also bounds decode memory).
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// Length of the fixed header fields (magic, version, flags, sender).
const FIXED_LEN: usize = 2 + 1 + 1 + 1;

/// Trailing checksum length in bytes.
pub const TRAILER_LEN: usize = 4;

/// The shortest datagram that can hold a frame: the fixed fields, three
/// one-byte varints, a payload tag and the checksum.
const MIN_FRAME_LEN: usize = FIXED_LEN + 3 + 1 + TRAILER_LEN;

/// The longest header: the fixed fields plus `session`, `seq` and `len`
/// varints at their widest (10, 5 and 3 bytes).
const MAX_HEADER_LEN: usize = FIXED_LEN + 10 + 5 + 3;

/// Runtime-level frame payloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetPayload {
    /// A protocol message in its `thinair_core::wire` encoding.
    Proto(Message),
    /// Acknowledges the sender's reliable frame `seq`.
    Ack {
        /// Sequence number being acknowledged.
        seq: u32,
    },
    /// Coordinator → terminals: the session is starting. Carries a
    /// digest of the session configuration so misconfigured nodes fail
    /// fast instead of deriving garbage.
    Start {
        /// [`crate::session::SessionConfig::digest`] of the
        /// coordinator's configuration.
        digest: u64,
    },
    /// Terminal → coordinator: this terminal has derived its secret.
    Done,
    /// Coordinator → terminals: every terminal reported `Done`; the
    /// session is complete.
    Fin,
    /// Daemon → coordinator: the `Start` was seen but admission was
    /// refused (registry at or near capacity). The coordinator should
    /// pause the start barrier for `retry_after_ms` instead of
    /// retransmitting blind — explicit backpressure replacing the old
    /// silent drop.
    Busy {
        /// Suggested re-admission delay, scaled to the daemon's load.
        retry_after_ms: u32,
    },
}

const PTAG_PROTO: u8 = 0x01;
const PTAG_ACK: u8 = 0x02;
const PTAG_START: u8 = 0x03;
const PTAG_DONE: u8 = 0x04;
const PTAG_FIN: u8 = 0x05;
const PTAG_BUSY: u8 = 0x06;

/// One framed datagram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// [`FLAG_RELIABLE`] et al.
    pub flags: u8,
    /// Node id of the sender (dense, `0..n`).
    pub sender: u8,
    /// Session the frame belongs to.
    pub session: u64,
    /// Per-sender sequence number.
    pub seq: u32,
    /// The payload.
    pub payload: NetPayload,
}

/// Frame decoding failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Input shorter than the declared or minimal length.
    Truncated,
    /// First two bytes are not [`MAGIC`].
    BadMagic,
    /// Unsupported codec version.
    BadVersion(u8),
    /// Payload length field exceeds [`MAX_PAYLOAD`] or the datagram.
    BadLength,
    /// Checksum mismatch (corrupt datagram).
    BadChecksum,
    /// Unknown payload tag.
    UnknownPayload(u8),
    /// The inner protocol message failed to parse.
    Wire(WireError),
    /// Trailing bytes after a structurally complete frame or payload.
    TrailingBytes,
    /// A varint that is not the shortest encoding of its value, runs
    /// past ten bytes, or exceeds its field's range.
    BadVarint,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::BadLength => write!(f, "frame length field inconsistent"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::UnknownPayload(t) => write!(f, "unknown payload tag {t:#04x}"),
            FrameError::Wire(e) => write!(f, "inner message: {e}"),
            FrameError::TrailingBytes => write!(f, "trailing bytes after frame"),
            FrameError::BadVarint => write!(f, "non-canonical or out-of-range varint"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// CRC-32 (IEEE 802.3), bitwise implementation with a lazily built
/// table.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Appends `v` as an unsigned LEB128 varint (shortest form).
fn put_varint(b: &mut BytesMut, mut v: u64) {
    while v >= 0x80 {
        b.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    b.put_u8(v as u8);
}

/// Reads one canonical LEB128 varint no larger than `max` from the front
/// of `buf`. One that runs past the buffer is [`FrameError::Truncated`];
/// one with a redundant zero group, more than ten bytes, or a value above
/// `max` is [`FrameError::BadVarint`], so every value has exactly one
/// accepted encoding.
fn get_varint(buf: &mut &[u8], max: u64) -> Result<u64, FrameError> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let (&byte, rest) = buf.split_first().ok_or(FrameError::Truncated)?;
        *buf = rest;
        let group = u64::from(byte & 0x7F);
        // The tenth byte carries only bit 63.
        if shift == 63 && group > 1 {
            return Err(FrameError::BadVarint);
        }
        value |= group << shift;
        if byte & 0x80 == 0 {
            // A zero last group after the first byte adds nothing: a
            // longer spelling of a shorter encoding.
            let minimal = byte != 0 || shift == 0;
            return if minimal && value <= max { Ok(value) } else { Err(FrameError::BadVarint) };
        }
    }
    Err(FrameError::BadVarint)
}

/// [`get_varint`] for a `u32` field.
fn get_varint_u32(buf: &mut &[u8]) -> Result<u32, FrameError> {
    get_varint(buf, u32::MAX.into()).map(|v| v as u32)
}

impl NetPayload {
    /// A short human label for traces and counterexample rendering:
    /// the payload kind, with `Proto` resolved to its inner message
    /// variant (`"ReceptionReport"`, `"PlanAnnounce"`, ...).
    pub fn kind_name(&self) -> &'static str {
        match self {
            NetPayload::Proto(msg) => match msg {
                Message::XPacket { .. } => "XPacket",
                Message::ReceptionReport { .. } => "ReceptionReport",
                Message::YAnnounce { .. } => "YAnnounce",
                Message::ZPacket { .. } => "ZPacket",
                Message::SAnnounce { .. } => "SAnnounce",
                Message::PadDelivery { .. } => "PadDelivery",
                Message::PlanAnnounce { .. } => "PlanAnnounce",
                Message::Authenticated { .. } => "Authenticated",
            },
            NetPayload::Ack { .. } => "Ack",
            NetPayload::Start { .. } => "Start",
            NetPayload::Done => "Done",
            NetPayload::Fin => "Fin",
            NetPayload::Busy { .. } => "Busy",
        }
    }

    fn encode_into(&self, b: &mut BytesMut) {
        match self {
            NetPayload::Proto(msg) => {
                b.put_u8(PTAG_PROTO);
                b.put_slice(&msg.encode());
            }
            NetPayload::Ack { seq } => {
                b.put_u8(PTAG_ACK);
                put_varint(b, (*seq).into());
            }
            NetPayload::Start { digest } => {
                b.put_u8(PTAG_START);
                b.put_u64(*digest);
            }
            NetPayload::Done => b.put_u8(PTAG_DONE),
            NetPayload::Fin => b.put_u8(PTAG_FIN),
            NetPayload::Busy { retry_after_ms } => {
                b.put_u8(PTAG_BUSY);
                put_varint(b, (*retry_after_ms).into());
            }
        }
    }

    /// Parses a payload that must fill `buf` exactly: bytes left after a
    /// complete payload are [`FrameError::TrailingBytes`].
    fn decode(buf: &[u8]) -> Result<NetPayload, FrameError> {
        let (&tag, mut rest) = buf.split_first().ok_or(FrameError::Truncated)?;
        let payload = match tag {
            PTAG_PROTO => {
                let (msg, after) = Message::decode_prefix(rest)?;
                rest = after;
                NetPayload::Proto(msg)
            }
            PTAG_ACK => NetPayload::Ack { seq: get_varint_u32(&mut rest)? },
            PTAG_START => {
                if rest.remaining() < 8 {
                    return Err(FrameError::Truncated);
                }
                NetPayload::Start { digest: rest.get_u64() }
            }
            PTAG_DONE => NetPayload::Done,
            PTAG_FIN => NetPayload::Fin,
            PTAG_BUSY => NetPayload::Busy { retry_after_ms: get_varint_u32(&mut rest)? },
            other => return Err(FrameError::UnknownPayload(other)),
        };
        if rest.is_empty() {
            Ok(payload)
        } else {
            Err(FrameError::TrailingBytes)
        }
    }
}

impl Frame {
    /// Serializes the frame into one datagram. Returns the buffer
    /// directly (no trailing copy): `Bytes` derefs to `&[u8]` wherever a
    /// byte slice is needed.
    pub fn encode(&self) -> Bytes {
        let mut payload = BytesMut::new();
        self.payload.encode_into(&mut payload);
        debug_assert!(payload.len() <= MAX_PAYLOAD, "payload over MAX_PAYLOAD");
        let mut b = BytesMut::with_capacity(MAX_HEADER_LEN + payload.len() + TRAILER_LEN);
        b.put_u16(MAGIC);
        b.put_u8(VERSION);
        b.put_u8(self.flags);
        b.put_u8(self.sender);
        put_varint(&mut b, self.session);
        put_varint(&mut b, self.seq.into());
        put_varint(&mut b, payload.len() as u64);
        b.put_slice(&payload);
        let crc = crc32(&b);
        b.put_u32(crc);
        b.freeze()
    }

    /// Size of the encoded frame in bits (for air-time accounting in the
    /// simulated transport).
    pub fn bits(&self) -> u64 {
        (self.encode().len() * 8) as u64
    }

    /// The transmitted-bit ledger class of this frame: x-packets and
    /// z-combos are data plane, ACKs are ACKs, everything else (start
    /// barrier, reports, plan announcements, done/fin) is control.
    pub fn tx_class(&self) -> thinair_netsim::stats::TxClass {
        use thinair_netsim::stats::TxClass;
        match &self.payload {
            NetPayload::Proto(Message::XPacket { .. })
            | NetPayload::Proto(Message::ZPacket { .. }) => TxClass::Data,
            NetPayload::Ack { .. } => TxClass::Ack,
            _ => TxClass::Control,
        }
    }

    /// Parses one datagram. Never panics on any input, and accepts only
    /// the canonical encoding of a frame.
    pub fn decode(buf: &[u8]) -> Result<Frame, FrameError> {
        if buf.len() < MIN_FRAME_LEN {
            return Err(FrameError::Truncated);
        }
        let mut cur: &[u8] = buf;
        let magic = cur.get_u16();
        if magic != MAGIC {
            return Err(FrameError::BadMagic);
        }
        let version = cur.get_u8();
        if version != VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let flags = cur.get_u8();
        let sender = cur.get_u8();
        let session = get_varint(&mut cur, u64::MAX)?;
        let seq = get_varint_u32(&mut cur)?;
        let len = get_varint(&mut cur, u64::MAX)?;
        if len > MAX_PAYLOAD as u64 {
            return Err(FrameError::BadLength);
        }
        let len = len as usize;
        match cur.len().cmp(&(len + TRAILER_LEN)) {
            std::cmp::Ordering::Less => return Err(FrameError::Truncated),
            std::cmp::Ordering::Greater => return Err(FrameError::TrailingBytes),
            std::cmp::Ordering::Equal => {}
        }
        let (body, mut trailer) = buf.split_at(buf.len() - TRAILER_LEN);
        if crc32(body) != trailer.get_u32() {
            return Err(FrameError::BadChecksum);
        }
        let payload = NetPayload::decode(&cur[..len])?;
        Ok(Frame { flags, sender, session, seq, payload })
    }

    /// Whether the receiver must acknowledge this frame.
    pub fn reliable(&self) -> bool {
        self.flags & FLAG_RELIABLE != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame {
                flags: 0,
                sender: 2,
                session: 77,
                seq: 9,
                payload: NetPayload::Proto(Message::XPacket {
                    id: 3,
                    owner: 2,
                    payload: vec![1, 2, 3],
                }),
            },
            Frame {
                flags: FLAG_RELIABLE,
                sender: 0,
                session: u64::MAX,
                seq: u32::MAX,
                payload: NetPayload::Start { digest: 0xDEAD_BEEF_CAFE_F00D },
            },
            Frame { flags: 0, sender: 1, session: 0, seq: 0, payload: NetPayload::Ack { seq: 4 } },
            Frame {
                flags: FLAG_RELIABLE,
                sender: 3,
                session: 5,
                seq: 1,
                payload: NetPayload::Done,
            },
            Frame { flags: FLAG_RELIABLE, sender: 0, session: 5, seq: 2, payload: NetPayload::Fin },
            Frame {
                flags: 0,
                sender: 1,
                session: 5,
                seq: 0,
                payload: NetPayload::Busy { retry_after_ms: 250 },
            },
        ]
    }

    #[test]
    fn round_trip_all_payload_kinds() {
        for f in sample_frames() {
            let enc = f.encode();
            assert_eq!(Frame::decode(&enc).unwrap(), f, "frame {f:?}");
            assert_eq!(f.bits(), (enc.len() * 8) as u64);
        }
    }

    #[test]
    fn truncations_never_panic() {
        for f in sample_frames() {
            let enc = f.encode();
            for cut in 0..enc.len() {
                assert!(Frame::decode(&enc[..cut]).is_err(), "cut {cut}");
            }
        }
    }

    #[test]
    fn single_byte_corruption_is_detected() {
        let f = &sample_frames()[0];
        let enc = f.encode();
        for i in 0..enc.len() {
            let mut bad = enc.to_vec();
            bad[i] ^= 0x40;
            // Either an error, or (impossible for CRC-protected frames)
            // the identical frame back.
            match Frame::decode(&bad) {
                Err(_) => {}
                Ok(g) => assert_eq!(&g, f, "corruption at byte {i} silently accepted"),
            }
        }
    }

    /// Every rejection of the fixed-width layout still fires on v2.
    #[test]
    fn rejects_wrong_magic_version_and_trailing() {
        let f = &sample_frames()[2];
        let enc = f.encode();
        let mut wrong_magic = enc.to_vec();
        wrong_magic[0] = 0;
        assert_eq!(Frame::decode(&wrong_magic), Err(FrameError::BadMagic));
        let mut wrong_ver = enc.to_vec();
        wrong_ver[2] = 9;
        assert_eq!(Frame::decode(&wrong_ver), Err(FrameError::BadVersion(9)));
        let mut trailing = enc.to_vec();
        trailing.push(0);
        assert_eq!(Frame::decode(&trailing), Err(FrameError::TrailingBytes));
        assert_eq!(Frame::decode(&enc[..enc.len() - 1]), Err(FrameError::Truncated));
        let mut bad_crc = enc.to_vec();
        bad_crc[enc.len() - 1] ^= 1;
        assert_eq!(Frame::decode(&bad_crc), Err(FrameError::BadChecksum));
        // `len` (byte 7) claims more, then less, than the 2 payload bytes.
        let mut body = enc[..enc.len() - TRAILER_LEN].to_vec();
        body[7] = 3;
        assert_eq!(Frame::decode(&sealed(&body)), Err(FrameError::Truncated));
        body[7] = 1;
        assert_eq!(Frame::decode(&sealed(&body)), Err(FrameError::TrailingBytes));
        let unknown = raw(&[0x05], &[0x01], &[0x7f]);
        assert_eq!(Frame::decode(&unknown), Err(FrameError::UnknownPayload(0x7f)));
        assert_eq!(Frame::decode(&raw(&[0x05], &[0x01], &[])), Err(FrameError::Truncated));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// `body` followed by its CRC-32, so only the structure can reject it.
    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut out = body.to_vec();
        out.extend_from_slice(&crc32(body).to_be_bytes());
        out
    }

    /// A sealed v2 datagram from raw `session` and `seq` varint bytes
    /// and a payload shorter than 128 bytes (one-byte `len`).
    fn raw(session: &[u8], seq: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut body = vec![0x74, 0x41, VERSION, 0, 1];
        body.extend_from_slice(session);
        body.extend_from_slice(seq);
        body.push(payload.len() as u8);
        body.extend_from_slice(payload);
        sealed(&body)
    }

    /// Pins the v2 layout byte for byte, one frame per payload kind. Each
    /// golden reads `magic version flags sender`, `session`, `seq`,
    /// `len`, payload tag, payload fields, `crc32`.
    #[test]
    fn golden_v2_encodings() {
        let golden = [
            (
                Frame {
                    flags: FLAG_RELIABLE,
                    sender: 0,
                    session: 300,
                    seq: 2,
                    payload: NetPayload::Proto(Message::PlanAnnounce {
                        seed: 0x0102_0304_0506_0708,
                        m: 12,
                        l: 3,
                    }),
                },
                concat!(
                    "7441020100",
                    "ac02",
                    "02",
                    "0e",
                    "01",
                    "080102030405060708000c0003",
                    "5d172426"
                ),
            ),
            (
                Frame {
                    flags: 0,
                    sender: 2,
                    session: 1,
                    seq: 0,
                    payload: NetPayload::Ack { seq: 300 },
                },
                concat!("7441020002", "01", "00", "03", "02", "ac02", "dbbcff40"),
            ),
            (
                Frame {
                    flags: FLAG_RELIABLE,
                    sender: 0,
                    session: 1,
                    seq: 1,
                    payload: NetPayload::Start { digest: 0xDEAD_BEEF_CAFE_F00D },
                },
                concat!("7441020100", "01", "01", "09", "03", "deadbeefcafef00d", "8777921e"),
            ),
            (
                Frame {
                    flags: FLAG_RELIABLE,
                    sender: 3,
                    session: 1,
                    seq: 5,
                    payload: NetPayload::Done,
                },
                concat!("7441020103", "01", "05", "01", "04", "1513ac8e"),
            ),
            (
                Frame {
                    flags: FLAG_RELIABLE,
                    sender: 0,
                    session: 1,
                    seq: 6,
                    payload: NetPayload::Fin,
                },
                concat!("7441020100", "01", "06", "01", "05", "27f25891"),
            ),
            (
                Frame {
                    flags: 0,
                    sender: 1,
                    session: 128,
                    seq: 0,
                    payload: NetPayload::Busy { retry_after_ms: 250 },
                },
                concat!("7441020001", "8001", "00", "03", "06", "fa01", "4f26b9c2"),
            ),
        ];
        for (frame, want) in golden {
            let enc = frame.encode();
            assert_eq!(hex(&enc), want, "{}", frame.payload.kind_name());
            assert_eq!(Frame::decode(&enc), Ok(frame));
        }
    }

    #[test]
    fn boundary_frames_round_trip_at_their_widest() {
        let widest = Frame {
            flags: FLAG_RELIABLE,
            sender: u8::MAX,
            session: u64::MAX,
            seq: u32::MAX,
            payload: NetPayload::Ack { seq: u32::MAX },
        };
        let enc = widest.encode();
        // session: nine 0xff groups and a final 0x01; seq: 0xff x4, 0x0f.
        assert_eq!(&enc[5..15], &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01]);
        assert_eq!(&enc[15..20], &[0xff, 0xff, 0xff, 0xff, 0x0f]);
        assert_eq!(enc.len(), FIXED_LEN + 10 + 5 + 1 + 6 + TRAILER_LEN);
        assert_eq!(Frame::decode(&enc), Ok(widest));

        // An x-packet whose payload field is exactly MAX_PAYLOAD bytes:
        // payload tag, message tag, id, owner and length take 7.
        let full = Frame {
            flags: 0,
            sender: 1,
            session: 9,
            seq: 3,
            payload: NetPayload::Proto(Message::XPacket {
                id: 1,
                owner: 1,
                payload: vec![0xA5; MAX_PAYLOAD - 7],
            }),
        };
        let enc = full.encode();
        assert_eq!(&enc[7..10], &[0x80, 0x80, 0x04], "len 65536 as a 3-byte varint");
        assert_eq!(enc.len(), FIXED_LEN + 1 + 1 + 3 + MAX_PAYLOAD + TRAILER_LEN);
        assert_eq!(Frame::decode(&enc), Ok(full));
        // One more byte of declared length is over the cap.
        let mut over = enc[..7].to_vec();
        over.extend_from_slice(&[0x81, 0x80, 0x04]);
        over.extend_from_slice(&enc[10..enc.len() - TRAILER_LEN]);
        over.push(0);
        assert_eq!(Frame::decode(&sealed(&over)), Err(FrameError::BadLength));
    }

    #[test]
    fn a_v1_datagram_is_rejected_as_bad_version() {
        // v1: session(8) seq(4) len(4) as fixed big-endian fields.
        let mut v1 = vec![0x74, 0x41, 1, FLAG_RELIABLE, 0];
        v1.extend_from_slice(&5u64.to_be_bytes());
        v1.extend_from_slice(&2u32.to_be_bytes());
        v1.extend_from_slice(&1u32.to_be_bytes());
        v1.push(PTAG_FIN);
        assert_eq!(Frame::decode(&sealed(&v1)), Err(FrameError::BadVersion(1)));
    }

    #[test]
    fn non_canonical_varints_are_rejected() {
        let done = [PTAG_DONE];
        assert!(Frame::decode(&raw(&[0x05], &[0x01], &done)).is_ok(), "canonical control");
        let cases: [(&str, &[u8], &[u8]); 6] = [
            ("session 5 padded to two bytes", &[0x85, 0x00], &[0x01]),
            ("session 0 padded to two bytes", &[0x80, 0x00], &[0x01]),
            ("seq 1 padded to three bytes", &[0x05], &[0x81, 0x80, 0x00]),
            ("seq u32::MAX + 1", &[0x05], &[0x80, 0x80, 0x80, 0x80, 0x10]),
            (
                "session past bit 63",
                &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
                &[0x01],
            ),
            ("session of eleven bytes", &[0x80; 11], &[0x01]),
        ];
        for (what, session, seq) in cases {
            assert_eq!(
                Frame::decode(&raw(session, seq, &done)),
                Err(FrameError::BadVarint),
                "{what}"
            );
        }
        // The same rules hold for the Ack and Busy payload fields.
        let payloads: [&[u8]; 3] = [
            &[PTAG_ACK, 0x84, 0x00],
            &[PTAG_ACK, 0x80, 0x80, 0x80, 0x80, 0x10],
            &[PTAG_BUSY, 0xfa, 0x81, 0x00],
        ];
        for p in payloads {
            assert_eq!(
                Frame::decode(&raw(&[0x05], &[0x01], p)),
                Err(FrameError::BadVarint),
                "{p:?}"
            );
        }
    }

    #[test]
    fn leftover_payload_bytes_are_trailing() {
        let plan = Message::PlanAnnounce { seed: 1, m: 2, l: 1 }.encode();
        let mut proto = vec![PTAG_PROTO];
        proto.extend_from_slice(&plan);
        assert!(Frame::decode(&raw(&[0x05], &[0x01], &proto)).is_ok());
        proto.push(0xEE);
        let payloads: [&[u8]; 4] = [
            &proto,
            &[PTAG_ACK, 0x04, 0xEE],
            &[PTAG_DONE, 0x00],
            &[PTAG_START, 0, 0, 0, 0, 0, 0, 0, 1, 2],
        ];
        for p in payloads {
            assert_eq!(
                Frame::decode(&raw(&[0x05], &[0x01], p)),
                Err(FrameError::TrailingBytes),
                "{p:?}"
            );
        }
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" -> 0xCBF43926 (the standard check value).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
