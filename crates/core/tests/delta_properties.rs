//! Seeded property tests for incremental checkpoints: a receiver that
//! follows the chain rule (full snapshot every K, deltas applied in order
//! on the exact base they were diffed against) reconstructs byte-identical
//! state, and any break in the chain — a dropped, reordered or
//! wrong-base delta — is detected rather than silently corrupting state.

use bytes::Bytes;

use vd_core::messages::ReplicatorMsg;
use vd_core::state::{apply_delta, diff_state, DeltaError};
use vd_core::style::ReplicationStyle;
use vd_simnet::rng::DeterministicRng;

/// Mutates `state` the way a replicated application would between
/// checkpoints: a few scattered byte writes, occasionally a resize.
fn mutate(state: &mut Vec<u8>, rng: &mut DeterministicRng) {
    if !state.is_empty() {
        let writes = rng.gen_range_u64(0..=8);
        for _ in 0..writes {
            let at = rng.gen_range_u64(0..=(state.len() as u64 - 1)) as usize;
            state[at] = rng.next_u64() as u8;
        }
    }
    if rng.gen_range_u64(0..=9) == 0 {
        let new_len = rng.gen_range_u64(0..=4096) as usize;
        state.resize(new_len, 0x5A);
    }
}

/// The receiver side of incremental mode, as the replica implements it:
/// a mirror of the last reconstructed state plus its version; deltas apply
/// only when their base version matches the mirror.
struct Mirror {
    version: u64,
    state: Bytes,
}

impl Mirror {
    fn apply(
        &mut self,
        version: u64,
        delta_base: Option<u64>,
        wire_state: &Bytes,
    ) -> Result<(), DeltaError> {
        let full = match delta_base {
            None => wire_state.clone(),
            Some(base) => {
                if base != self.version {
                    // The chain rule: wrong base version, reject.
                    return Err(DeltaError::BaseMismatch {
                        expected: base as usize,
                        actual: self.version as usize,
                    });
                }
                apply_delta(&self.state, wire_state)?
            }
        };
        self.version = version;
        self.state = full;
        Ok(())
    }
}

#[test]
fn delta_chains_reconstruct_full_state_exactly() {
    let mut rng = DeterministicRng::new(0xDE17A);
    for round in 0..25 {
        let full_every = rng.gen_range_u64(2..=8);
        let initial_len = rng.gen_range_u64(1..=4096) as usize;
        let mut app_state = vec![0u8; initial_len];
        let mut sender_base = Bytes::from(app_state.clone());
        let mut mirror = Mirror {
            version: 0,
            state: sender_base.clone(),
        };
        for version in 1..=40u64 {
            mutate(&mut app_state, &mut rng);
            let full = Bytes::from(app_state.clone());
            let is_full = version % full_every == 0;
            let (delta_base, wire_state) = if is_full {
                (None, full.clone())
            } else {
                (Some(version - 1), diff_state(&sender_base, &full))
            };
            sender_base = full.clone();
            mirror
                .apply(version, delta_base, &wire_state)
                .unwrap_or_else(|e| {
                    panic!("round {round} version {version}: in-order chain rejected: {e}")
                });
            assert_eq!(
                mirror.state, full,
                "round {round} version {version}: delta restore diverged from full state"
            );
        }
    }
}

#[test]
fn missing_or_reordered_deltas_are_rejected() {
    let mut rng = DeterministicRng::new(0xBAD5EED);
    for _ in 0..25 {
        // Build a 3-link chain: full v1, delta v2 (on v1), delta v3 (on v2).
        let mut app_state = vec![7u8; rng.gen_range_u64(64..=1024) as usize];
        let v1 = Bytes::from(app_state.clone());
        mutate(&mut app_state, &mut rng);
        let v2 = Bytes::from(app_state.clone());
        mutate(&mut app_state, &mut rng);
        let v3 = Bytes::from(app_state.clone());
        let d2 = diff_state(&v1, &v2);
        let d3 = diff_state(&v2, &v3);

        // Skipping d2 (lost message) must not let d3 apply.
        let mut mirror = Mirror {
            version: 1,
            state: v1.clone(),
        };
        assert!(mirror.apply(3, Some(2), &d3).is_err(), "missing delta");
        // The rejection left the mirror untouched…
        assert_eq!(mirror.version, 1);
        assert_eq!(mirror.state, v1);

        // …and applying out of order (d3 before d2) fails the same way.
        let mut mirror = Mirror {
            version: 1,
            state: v1.clone(),
        };
        assert!(mirror.apply(3, Some(2), &d3).is_err(), "out of order");
        assert!(mirror.apply(2, Some(1), &d2).is_ok(), "in order is fine");
        assert_eq!(mirror.state, v2);
        assert!(mirror.apply(3, Some(2), &d3).is_ok());
        assert_eq!(mirror.state, v3);

        // A later full snapshot always resynchronizes a broken mirror.
        let mut broken = Mirror {
            version: 1,
            state: v1.clone(),
        };
        assert!(broken.apply(3, Some(2), &d3).is_err());
        assert!(broken.apply(3, None, &v3).is_ok());
        assert_eq!(broken.state, v3);
    }
}

#[test]
fn wrong_length_bases_fail_at_the_byte_layer_too() {
    // Even without version bookkeeping, a delta diffed against a state of
    // a different length cannot apply (defense in depth below the chain
    // rule).
    let mut rng = DeterministicRng::new(0x1E46);
    for _ in 0..25 {
        let a = Bytes::from(vec![1u8; rng.gen_range_u64(10..=100) as usize]);
        let mut b = a.to_vec();
        b[0] ^= 0xFF;
        let delta = diff_state(&a, &Bytes::from(b));
        let shorter = Bytes::from(vec![1u8; a.len() - 1]);
        assert!(matches!(
            apply_delta(&shorter, &delta),
            Err(DeltaError::BaseMismatch { .. })
        ));
    }
}

#[test]
fn checkpoint_frames_with_random_deltas_round_trip() {
    let mut rng = DeterministicRng::new(0xC0DEC);
    for i in 0..50u64 {
        let state_len = rng.gen_range_u64(0..=2048) as usize;
        let mut state = Vec::with_capacity(state_len);
        for _ in 0..state_len {
            state.push(rng.next_u64() as u8);
        }
        let delta_base = if i % 2 == 0 {
            Some(rng.next_u64())
        } else {
            None
        };
        let msg = ReplicatorMsg::Checkpoint {
            version: rng.next_u64(),
            delta_base,
            style: ReplicationStyle::WarmPassive,
            final_for_switch: i % 7 == 0,
            state: Bytes::from(state),
            replies: vec![],
        };
        let encoded = msg.encode();
        assert_eq!(encoded.len(), msg.encoded_len(), "presizing must be exact");
        assert_eq!(ReplicatorMsg::decode(encoded).unwrap(), msg);
    }
}

/// The original byte-at-a-time encoder, kept as the oracle the chunked
/// [`diff_state`] must match byte for byte: a run absorbs a gap of up to
/// 8 equal bytes before the next difference.
fn bytewise_diff(old: &[u8], new: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(new.len() as u32).to_le_bytes());
    if old.len() != new.len() {
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(new.len() as u32).to_le_bytes());
        out.extend_from_slice(new);
        return out;
    }
    let mut i = 0;
    let n = new.len();
    while i < n {
        if old[i] == new[i] {
            i += 1;
            continue;
        }
        let start = i;
        let mut end = i + 1;
        let mut scan = end;
        while scan < n {
            if old[scan] != new[scan] {
                end = scan + 1;
                scan = end;
            } else if scan - end < 8 {
                scan += 1;
            } else {
                break;
            }
        }
        out.extend_from_slice(&(start as u32).to_le_bytes());
        out.extend_from_slice(&((end - start) as u32).to_le_bytes());
        out.extend_from_slice(&new[start..end]);
        i = end;
    }
    out
}

/// Asserts that `diff_state(old, new)` equals the oracle's delta and that
/// applying it to `old` yields `new`.
fn assert_matches_oracle(old: &[u8], new: &[u8], case: &str) {
    let (old_b, new_b) = (Bytes::copy_from_slice(old), Bytes::copy_from_slice(new));
    let delta = diff_state(&old_b, &new_b);
    assert_eq!(
        delta.as_slice(),
        bytewise_diff(old, new).as_slice(),
        "{case}: delta differs from the bytewise encoder"
    );
    assert_eq!(
        apply_delta(&old_b, &delta).unwrap_or_else(|e| panic!("{case}: {e}")),
        new_b,
        "{case}: delta does not reproduce the new state"
    );
}

/// `base` with the bytes at `at` flipped.
fn flipped(base: &[u8], at: &[usize]) -> Vec<u8> {
    let mut v = base.to_vec();
    for &i in at {
        v[i] ^= 0xA5;
    }
    v
}

#[test]
fn chunked_diff_matches_the_bytewise_encoder_on_random_pairs() {
    let mut rng = DeterministicRng::new(0xD1FF);
    for round in 0..400 {
        let len = rng.gen_range_u64(0..=5000) as usize;
        let old: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut new = old.clone();
        match round % 4 {
            // Scattered single-byte writes.
            0 => mutate(&mut new, &mut rng),
            // Clustered writes: short bursts with gaps around the 8-byte
            // absorption limit.
            1 if len > 0 => {
                let mut at = rng.gen_range_u64(0..=(len as u64 - 1)) as usize;
                for _ in 0..rng.gen_range_u64(1..=12) {
                    if at >= len {
                        break;
                    }
                    new[at] = new[at].wrapping_add(1 + rng.gen_range_u64(0..=254) as u8);
                    at += 1 + rng.gen_range_u64(0..=12) as usize;
                }
            }
            // Dense rewrite of a random window.
            2 if len > 0 => {
                let from = rng.gen_range_u64(0..=(len as u64 - 1)) as usize;
                let to = (from + rng.gen_range_u64(0..=200) as usize).min(len);
                for b in &mut new[from..to] {
                    *b = rng.next_u64() as u8;
                }
            }
            _ => {}
        }
        assert_matches_oracle(&old, &new, &format!("round {round} (len {len})"));
    }
}

#[test]
fn chunked_diff_matches_the_bytewise_encoder_on_edge_cases() {
    let base: Vec<u8> = (0..4097u32).map(|i| (i * 31 % 251) as u8).collect();
    let zeros = vec![0u8; 256];

    // Lengths around the chunk widths, identical and with the first and
    // last byte changed.
    for len in [0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 4097] {
        let old = &base[..len];
        assert_matches_oracle(old, old, &format!("identical, len {len}"));
        if len > 0 {
            assert_matches_oracle(old, &flipped(old, &[0]), &format!("first byte, len {len}"));
            assert_matches_oracle(
                old,
                &flipped(old, &[len - 1]),
                &format!("last byte, len {len}"),
            );
            assert_matches_oracle(
                old,
                &flipped(old, &[0, len - 1]),
                &format!("first and last byte, len {len}"),
            );
        }
    }

    // Equal gaps of 7, 8 and 9 bytes between two changes: up to 8 are
    // absorbed into one run, 9 start a second run.
    for gap in [7, 8, 9] {
        for first in [0, 5, 24, 31, 32, 60] {
            let new = flipped(&zeros, &[first, first + gap + 1]);
            assert_matches_oracle(&zeros, &new, &format!("gap {gap} after byte {first}"));
        }
    }
    let absorbed = diff_state(
        &Bytes::from(zeros.clone()),
        &Bytes::from(flipped(&zeros, &[10, 19])),
    );
    assert_eq!(absorbed.len(), 4 + 8 + 10, "an 8-byte gap joins the runs");
    let split = diff_state(
        &Bytes::from(zeros.clone()),
        &Bytes::from(flipped(&zeros, &[10, 20])),
    );
    assert_eq!(split.len(), 4 + 2 * (8 + 1), "a 9-byte gap splits the runs");

    // Runs straddling the 8- and 32-byte chunk boundaries.
    for boundary in [8, 16, 32, 64, 96, 128] {
        for width in [1, 2, 9, 33] {
            let from = boundary - width.min(boundary) / 2 - 1;
            let at: Vec<usize> = (from..from + width).collect();
            assert_matches_oracle(
                &zeros,
                &flipped(&zeros, &at),
                &format!("run of {width} across byte {boundary}"),
            );
        }
    }
    // A chain of changes each 8 bytes apart crosses many chunks as one run.
    let chain: Vec<usize> = (3..250).step_by(9).collect();
    assert_matches_oracle(&zeros, &flipped(&zeros, &chain), "chain of 8-byte gaps");

    // A length change is one whole-state run.
    assert_matches_oracle(&base[..63], &base[..65], "grow 63 -> 65");
    assert_matches_oracle(&base[..65], &base[..1], "shrink 65 -> 1");
    assert_matches_oracle(&base[..4097], &[], "shrink to empty");
    assert_matches_oracle(&[], &base[..63], "grow from empty");
}
