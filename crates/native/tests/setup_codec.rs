//! The worker setup frame's codec: every execution mode round-trips
//! with and without a warm start, and hostile bodies — truncated,
//! padded, arbitrary, or naming an unknown mode — are typed errors,
//! never panics.

use bytes::Bytes;
use imapreduce::{Activation, ExecMode};
use imr_native::setup::{PairCfg, PairDirs, PairPlan, Setup};
use imr_net::proto::ToWorker;
use imr_records::{Codec, CodecError};
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn sample(mode: ExecMode, warm: bool) -> Setup {
    Setup {
        epoch: 6,
        cfg: PairCfg {
            n: 4,
            mode,
            threshold: Some(1e-9),
            max_iters: 50,
            checkpoint_interval: 5,
            num_state_parts: 4,
            warm,
        },
        dirs: PairDirs {
            state_dir: "/job/state".into(),
            static_dir: "/job/static".into(),
            output_dir: "/job/out".into(),
        },
        plan: PairPlan {
            kills: vec![7],
            hangs: vec![],
            delays: vec![(3, 250)],
            speed: 0.5,
            crash_after: Some(9),
        },
    }
}

const MODES: [ExecMode; 5] = [
    ExecMode::One2One(Activation::Async),
    ExecMode::One2One(Activation::Eager),
    ExecMode::One2One(Activation::Sync),
    ExecMode::One2All,
    ExecMode::Delta {
        batch: 16,
        check_every: NonZeroUsize::new(3).unwrap(),
    },
];

/// Splits a setup frame into its `num_tasks` and body, through the
/// frame codec (the path a real worker takes).
fn wire(setup: &Setup) -> (usize, Bytes) {
    let mut bytes = setup.frame().to_bytes();
    match ToWorker::decode(&mut bytes).unwrap() {
        ToWorker::Setup { num_tasks, body } => (num_tasks, body),
        other => panic!("expected a setup frame, got {other:?}"),
    }
}

#[test]
fn every_mode_round_trips_with_and_without_warm_start() {
    for mode in MODES {
        for warm in [false, true] {
            let setup = sample(mode, warm);
            let (num_tasks, body) = wire(&setup);
            assert_eq!(Setup::decode(num_tasks, body).unwrap(), setup);
        }
    }
}

#[test]
fn zero_check_every_is_corrupt() {
    let (n, body) = wire(&sample(MODES[0], false));
    // Epoch 6 is one varint byte; the mode tag follows it.
    let mut bad = vec![6, 4, 16, 0];
    bad.extend_from_slice(&body[2..]);
    assert!(matches!(
        Setup::decode(n, Bytes::from(bad)),
        Err(CodecError::Corrupt("zero check_every"))
    ));
}

#[test]
fn truncated_or_padded_bodies_are_typed_errors() {
    let (n, body) = wire(&sample(MODES[4], true));
    for cut in 0..body.len() {
        assert!(Setup::decode(n, body.slice(..cut)).is_err(), "cut {cut}");
    }
    let mut padded = body.to_vec();
    padded.push(0);
    assert!(Setup::decode(n, Bytes::from(padded)).is_err());
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_the_setup_decoder(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        n in 0usize..64,
    ) {
        let _ = Setup::decode(n, Bytes::from(data.clone()));
        let _ = ToWorker::decode(&mut Bytes::from(data));
    }

    /// Tags are varints: every one-byte value past the last mode is an
    /// unknown mode (longer ones fail as varints first).
    #[test]
    fn unknown_mode_tags_are_typed_errors(
        tag in 5u8..128,
        rest in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut body = vec![0u8, tag];
        body.extend(rest);
        prop_assert!(matches!(
            Setup::decode(1, Bytes::from(body)),
            Err(CodecError::Corrupt("unknown execution mode"))
        ));
    }
}
