//! Fuzz-style property tests for the datagram codec: the UDP port is an
//! open attack surface, so `Frame::decode` must reject — never panic
//! on — arbitrary and mutated inputs.

use proptest::prelude::*;
use thinair_core::wire::{Message, SparseRow};
use thinair_net::frame::{crc32, Frame, NetPayload, FLAG_RELIABLE};

/// A reception report whose bitmap length matches `n_packets` (the wire
/// format derives the byte count from the packet count).
fn arb_report() -> impl Strategy<Value = Message> {
    (any::<u8>(), 0u16..300).prop_flat_map(|(terminal, n_packets)| {
        proptest::collection::vec(any::<u8>(), (n_packets as usize).div_ceil(8))
            .prop_map(move |bitmap| Message::ReceptionReport { terminal, n_packets, bitmap })
    })
}

/// Sparse rows keep `support` and `coeffs` parallel (the wire format
/// encodes one length for both).
fn arb_sparse_row() -> impl Strategy<Value = SparseRow> {
    proptest::collection::vec((any::<u16>(), any::<u8>()), 0..12).prop_map(|pairs| {
        let (support, coeffs) = pairs.into_iter().unzip();
        SparseRow { support, coeffs }
    })
}

/// Row matrices with one shared row width (the wire format encodes the
/// width once).
fn arb_rows() -> impl Strategy<Value = Vec<Vec<u8>>> {
    (0usize..6, 0usize..24).prop_flat_map(|(rows, width)| {
        proptest::collection::vec(proptest::collection::vec(any::<u8>(), width), rows)
    })
}

/// Every [`Message`] variant, honouring the wire format's structural
/// invariants so each generated message round-trips.
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u16>(), any::<u8>(), proptest::collection::vec(any::<u8>(), 0..120))
            .prop_map(|(id, owner, payload)| Message::XPacket { id, owner, payload }),
        arb_report(),
        proptest::collection::vec(arb_sparse_row(), 0..6)
            .prop_map(|rows| Message::YAnnounce { rows }),
        (
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..24),
            proptest::collection::vec(any::<u8>(), 0..120)
        )
            .prop_map(|(index, coeffs, payload)| Message::ZPacket {
                index,
                coeffs,
                payload
            }),
        arb_rows().prop_map(|rows| Message::SAnnounce { rows }),
        (any::<u8>(), arb_rows())
            .prop_map(|(terminal, payloads)| Message::PadDelivery { terminal, payloads }),
        (any::<u64>(), any::<u16>(), any::<u16>()).prop_map(|(seed, m, l)| Message::PlanAnnounce {
            seed,
            m,
            l
        }),
        (proptest::collection::vec(any::<u8>(), 0..80), proptest::collection::vec(any::<u8>(), 32))
            .prop_map(|(inner, tag_bytes)| {
                let mut tag = [0u8; 32];
                tag.copy_from_slice(&tag_bytes);
                Message::Authenticated { inner, tag }
            }),
    ]
}

fn arb_payload() -> impl Strategy<Value = NetPayload> {
    prop_oneof![
        arb_message().prop_map(NetPayload::Proto),
        any::<u32>().prop_map(|seq| NetPayload::Ack { seq }),
        any::<u64>().prop_map(|digest| NetPayload::Start { digest }),
        Just(NetPayload::Done),
        Just(NetPayload::Fin),
        any::<u32>().prop_map(|retry_after_ms| NetPayload::Busy { retry_after_ms }),
    ]
}

/// `v` as LEB128, padded with `pad` redundant zero groups (`pad > 0`
/// gives a non-canonical spelling of the same value).
fn leb128(mut v: u64, pad: usize) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    for _ in 0..pad {
        *out.last_mut().expect("nonempty") |= 0x80;
        out.push(0);
    }
    out
}

/// Splits a canonical encoding into its payload bytes: skips the fixed
/// fields and the `session`, `seq` and `len` varints, drops the CRC.
fn payload_bytes(enc: &[u8]) -> &[u8] {
    let mut at = 5;
    for _ in 0..3 {
        while enc[at] & 0x80 != 0 {
            at += 1;
        }
        at += 1;
    }
    &enc[at..enc.len() - 4]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (arb_payload(), any::<u8>(), any::<u64>(), any::<u32>(), any::<bool>()).prop_map(
        |(payload, sender, session, seq, reliable)| Frame {
            flags: if reliable { FLAG_RELIABLE } else { 0 },
            sender,
            session,
            seq,
            payload,
        },
    )
}

proptest! {
    /// Well-formed frames always round-trip exactly.
    #[test]
    fn every_frame_round_trips(frame in arb_frame()) {
        let enc = frame.encode();
        prop_assert_eq!(Frame::decode(&enc).unwrap(), frame);
    }

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = Frame::decode(&data);
    }

    /// Any truncation of a valid frame is rejected (the trailing CRC
    /// makes every strict prefix invalid).
    #[test]
    fn truncations_are_rejected(frame in arb_frame(), cut_frac in 0.0f64..1.0) {
        let enc = frame.encode();
        let cut = ((enc.len() as f64) * cut_frac) as usize;
        if cut < enc.len() {
            prop_assert!(Frame::decode(&enc[..cut]).is_err());
        }
    }

    /// Any single-byte mutation is rejected or decodes to the identical
    /// frame (CRC-32 detects all single-byte errors, so in practice:
    /// rejected).
    #[test]
    fn byte_mutations_are_detected(frame in arb_frame(), pos_frac in 0.0f64..1.0, xor in 1u8..=255) {
        let enc = frame.encode();
        let pos = (((enc.len() - 1) as f64) * pos_frac) as usize;
        let mut bad = enc.to_vec();
        bad[pos] ^= xor;
        prop_assert!(Frame::decode(&bad).is_err(), "mutation at {pos} accepted");
    }

    /// Frames whose checksum was recomputed after corrupting the inner
    /// payload still fail structural validation or parse to *some*
    /// frame — but never panic.
    #[test]
    fn refreshed_checksum_still_safe(frame in arb_frame(), pos_frac in 0.0f64..1.0, xor in 1u8..=255) {
        let mut enc = frame.encode().to_vec();
        let body_len = enc.len() - 4;
        let pos = ((body_len.saturating_sub(1)) as f64 * pos_frac) as usize;
        enc[pos] ^= xor;
        let crc = crc32(&enc[..body_len]).to_be_bytes();
        enc[body_len..].copy_from_slice(&crc);
        let _ = Frame::decode(&enc);
    }

    /// Splices of two valid frames (prefix of one + suffix of the
    /// other) never panic, and are rejected unless the splice happens
    /// to reproduce one of the originals byte-for-byte — corruption is
    /// never *silently* accepted.
    #[test]
    fn spliced_frames_are_rejected_or_identical(
        a in arb_frame(),
        b in arb_frame(),
        cut_frac in 0.0f64..1.0,
    ) {
        let ea = a.encode();
        let eb = b.encode();
        let cut = ((ea.len().min(eb.len()) as f64) * cut_frac) as usize;
        let spliced: Vec<u8> = ea[..cut].iter().chain(eb[cut..].iter()).copied().collect();
        match Frame::decode(&spliced) {
            Err(_) => {}
            Ok(got) => {
                // Only acceptable if the splice reconstructed a valid
                // frame verbatim (e.g. identical prefixes).
                prop_assert!(
                    spliced == ea[..] || spliced == eb[..],
                    "novel spliced bytes decoded to {got:?}"
                );
            }
        }
    }

    /// Double-bit flips across the whole datagram (header, payload and
    /// CRC) are rejected or decode to the identical frame — never
    /// silently accepted as something else, never a panic.
    #[test]
    fn double_bit_flips_never_silently_mutate(
        frame in arb_frame(),
        bit_a in any::<u32>(),
        bit_b in any::<u32>(),
    ) {
        let enc = frame.encode();
        let bits = enc.len() * 8;
        let (a, b) = ((bit_a as usize) % bits, (bit_b as usize) % bits);
        let mut bad = enc.to_vec();
        bad[a / 8] ^= 1 << (a % 8);
        bad[b / 8] ^= 1 << (b % 8);
        match Frame::decode(&bad) {
            Err(_) => {}
            Ok(got) => prop_assert_eq!(got, frame, "double flip at bits {}/{} accepted", a, b),
        }
    }
}

proptest! {
    // Cheap per case, and an accepted non-canonical spelling is rare in
    // random edits: run many more cases than the default.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Canonical decoding: any datagram the codec accepts re-encodes to
    /// exactly its own bytes, so no two datagrams decode to one frame.
    /// The inputs are valid frames with up to two bytes changed and the
    /// checksum refreshed, so the structure alone has to reject.
    #[test]
    fn accepted_datagrams_re_encode_identically(
        frame in arb_frame(),
        edits in proptest::collection::vec((0.0f64..1.0, any::<u8>()), 1..3),
    ) {
        let enc = frame.encode();
        let mut body = enc[..enc.len() - 4].to_vec();
        for (pos_frac, byte) in edits {
            let pos = ((body.len() - 1) as f64 * pos_frac) as usize;
            body[pos] = byte;
        }
        let crc = crc32(&body).to_be_bytes();
        body.extend_from_slice(&crc);
        if let Ok(got) = Frame::decode(&body) {
            prop_assert_eq!(&got.encode()[..], &body[..], "{:?}", got);
        }
    }

    /// A frame re-assembled with a padded `session`, `seq` or `len`
    /// varint, or with junk after its payload (and `len` counting it), is
    /// rejected even under a valid checksum; the canonical assembly is
    /// accepted.
    #[test]
    fn only_the_canonical_assembly_is_accepted(
        frame in arb_frame(),
        pads in (0usize..3, 0usize..3, 0usize..3),
        junk in proptest::collection::vec(any::<u8>(), 0..3),
    ) {
        let enc = frame.encode();
        let mut payload = payload_bytes(&enc).to_vec();
        payload.extend_from_slice(&junk);
        let mut body = enc[..5].to_vec();
        body.extend(leb128(frame.session, pads.0));
        body.extend(leb128(frame.seq.into(), pads.1));
        body.extend(leb128(payload.len() as u64, pads.2));
        body.extend_from_slice(&payload);
        let crc = crc32(&body).to_be_bytes();
        body.extend_from_slice(&crc);
        let canonical = pads == (0, 0, 0) && junk.is_empty();
        match Frame::decode(&body) {
            Ok(got) => {
                prop_assert!(canonical, "non-canonical assembly accepted as {:?}", got);
                prop_assert_eq!(&body[..], &enc[..]);
                prop_assert_eq!(got, frame);
            }
            Err(e) => prop_assert!(!canonical, "canonical assembly rejected: {}", e),
        }
    }
}
