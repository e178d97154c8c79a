//! Property tests pinning the v2 binary trace format.
//!
//! `src/trace_v2.rs` carries targeted unit tests (varint extremes, known
//! corruptions at known offsets); this suite attacks the same code with
//! randomized inputs: arbitrary access streams — mixed address magnitudes,
//! kinds, and think gaps, with lengths straddling the frame size — must
//! encode→decode bit-identically, convert v1→v2→v1 losslessly, replay
//! through `Trace::replay` exactly as decoded (including under arbitrary
//! `refill` batch sizes), and survive truncation and byte-flip corruption
//! without panicking.
//!
//! The vendored proptest shim is deterministic (fixed per-case seeds, no
//! shrinking), so any failure here reproduces exactly.

use cache_sim::{Access, AccessSource, Addr};
use pipo_workloads::{Trace, TRACE_V2_MAGIC};
use proptest::collection::vec;
use proptest::prelude::*;

/// One frame's worth of accesses in the v2 format; lengths around multiples
/// of this hit the frame-boundary paths.
const FRAME_LEN: usize = 1024;

/// An arbitrary access: the address arms deliberately mix magnitudes so
/// frames land in every encoder regime — small line-aligned working sets
/// (deep shift, tiny deltas), raw unaligned addresses (shift 0), and huge
/// tenant-region bases (multi-byte zigzag deltas, as the scenario sources
/// emit).
fn arb_access() -> impl Strategy<Value = Access> {
    let addr = prop_oneof![
        (0u64..4096).prop_map(|line| line * 64),
        any::<u64>(),
        (0u64..64, 0u64..1024).prop_map(|(region, line)| ((region << 36) | line) * 64),
    ];
    let think = prop_oneof![Just(0u64), 1u64..100, any::<u64>()];
    (addr, any::<bool>(), think).prop_map(|(a, write, think)| {
        let access = if write {
            Access::write(Addr(a))
        } else {
            Access::read(Addr(a))
        };
        access.after(think)
    })
}

/// Streams up to a few frames long, so single-frame, exact-boundary, and
/// multi-frame encodings all occur across the case budget.
fn arb_stream() -> impl Strategy<Value = Vec<Access>> {
    vec(arb_access(), 0..(2 * FRAME_LEN + 600))
}

fn trace_of(accesses: &[Access]) -> Trace {
    let mut trace = Trace::new();
    for &a in accesses {
        trace.push(a);
    }
    trace
}

proptest! {
    /// Encode→decode is bit-identical for arbitrary streams.
    #[test]
    fn encode_decode_round_trips(accesses in arb_stream()) {
        let trace = trace_of(&accesses);
        let bytes = trace.to_v2();
        let decoded = Trace::from_v2(&bytes).expect("own encoding decodes");
        prop_assert_eq!(&decoded, &trace);
        // The encoder is canonical: re-encoding the decoded trace
        // reproduces the bytes (what lets the corpus pin byte identity).
        prop_assert_eq!(decoded.to_v2(), bytes);
    }

    /// v1→v2→v1: any stream that went through the text serialiser converts
    /// to v2 and back without loss, and the text re-serialises identically.
    #[test]
    fn v1_to_v2_to_v1_is_lossless(accesses in arb_stream()) {
        let trace = trace_of(&accesses);
        let text = trace.to_text();
        let from_text: Trace = text.parse().expect("own text re-parses");
        prop_assert_eq!(&from_text, &trace);
        let back = Trace::from_v2(&from_text.to_v2()).expect("decodes");
        prop_assert_eq!(&back, &trace);
        prop_assert_eq!(back.to_text(), text);
    }

    /// Replaying the decoded trace yields exactly the encoded access list,
    /// and `refill` with arbitrary batch sizes is prefix-identical to
    /// repeated `next_access` (the `AccessSource` contract the cores rely
    /// on).
    #[test]
    fn streaming_replay_matches_decode(
        accesses in arb_stream(),
        batch_seed in any::<u64>(),
    ) {
        let decoded = Trace::from_v2(&trace_of(&accesses).to_v2()).expect("own encoding decodes");
        prop_assert_eq!(decoded.len(), accesses.len());
        let mut one_by_one = decoded.replay();
        for (i, &expected) in accesses.iter().enumerate() {
            prop_assert_eq!(one_by_one.next_access(), Some(expected), "access {}", i);
        }
        prop_assert_eq!(one_by_one.next_access(), None);

        let mut batched = decoded.replay();
        let mut buf = Vec::new();
        let mut got = Vec::new();
        let mut round = batch_seed;
        loop {
            round = round.wrapping_mul(6364136223846793005).wrapping_add(1);
            let batch = 1 + (round >> 33) as usize % 64;
            buf.clear();
            batched.refill(&mut buf, batch);
            if buf.is_empty() {
                break;
            }
            prop_assert!(buf.len() <= batch, "refill overfilled the batch");
            got.extend_from_slice(&buf);
        }
        prop_assert_eq!(got, accesses);
    }

    /// Every strict prefix of a valid encoding is rejected — truncation is
    /// always detected, whether the cut lands in the header, mid-varint,
    /// mid-frame, or exactly on a frame boundary — and never panics.
    #[test]
    fn truncation_is_always_detected(accesses in arb_stream(), cut_seed in any::<u64>()) {
        let bytes = trace_of(&accesses).to_v2();
        // A spread of cuts: the header region, and pseudo-random interior
        // points (which straddle frame boundaries as lengths vary).
        let mut cuts = vec![0, 1, TRACE_V2_MAGIC.len(), bytes.len() - 1];
        let mut state = cut_seed;
        for _ in 0..16 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            cuts.push((state >> 32) as usize % bytes.len());
        }
        for cut in cuts {
            let result = Trace::from_v2(&bytes[..cut]);
            prop_assert!(
                result.is_err(),
                "truncation at {} of {} decoded to {:?} accesses",
                cut,
                bytes.len(),
                result.map(|t| t.len())
            );
        }
    }

    /// Single-byte corruption never panics the decoder: it either errors
    /// or decodes to *some* well-formed trace (flips in delta bytes can
    /// yield a different valid stream). Flips inside the magic must error.
    #[test]
    fn corruption_never_panics(accesses in arb_stream(), flip_seed in any::<u64>()) {
        let bytes = trace_of(&accesses).to_v2();
        let mut state = flip_seed;
        for _ in 0..16 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let pos = (state >> 32) as usize % bytes.len();
            let bit = 1u8 << (state % 8);
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= bit;
            let result = Trace::from_v2(&corrupt);
            if pos < TRACE_V2_MAGIC.len() {
                prop_assert!(result.is_err(), "magic flip at {} must be rejected", pos);
            } else if let Ok(decoded) = result {
                // Whatever decoded must itself round-trip (the decoder
                // never fabricates an unencodable trace).
                prop_assert_eq!(
                    Trace::from_v2(&decoded.to_v2()).expect("re-decodes"),
                    decoded
                );
            }
        }
    }
}

/// Frame-boundary lengths hit the encoder's frame edges exactly; the
/// proptest lengths cover them statistically, this covers them by name.
#[test]
fn boundary_lengths_round_trip() {
    for len in [
        0,
        1,
        2,
        FRAME_LEN - 1,
        FRAME_LEN,
        FRAME_LEN + 1,
        2 * FRAME_LEN - 1,
        2 * FRAME_LEN,
        2 * FRAME_LEN + 1,
        4 * FRAME_LEN,
    ] {
        let mut trace = Trace::new();
        let mut state = len as u64 + 1;
        for i in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let access = if state >> 63 == 1 {
                Access::write(Addr((state >> 20) & !63))
            } else {
                Access::read(Addr(state >> 20))
            };
            trace.push(access.after(i as u64 % 7));
        }
        assert_eq!(
            Trace::from_v2(&trace.to_v2()).expect("decodes"),
            trace,
            "length {len} round trip"
        );
    }
}
