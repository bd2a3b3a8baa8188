//! Wire-stable types and a hostile decoder: serde round-trip properties
//! for the frame vocabulary (`WireRequest` / `Completion` / `LabelResult`
//! / `ShedReason`) through the binary codec, plus malformed-frame fuzz
//! against a live listener — truncated length prefixes, oversized frame
//! claims, and garbage payloads must error the connection cleanly: no
//! panic, no leaked ticket, and the server keeps serving.

use ams_core::framework::{AdaptiveModelScheduler, Budget};
use ams_core::predictor::OraclePredictor;
use ams_data::{Dataset, DatasetProfile, TruthTable};
use ams_models::{LabelId, ModelId, ModelZoo};
use ams_serve::net::{decode_value, encode_value, ClientFrame, NetClient, NetServer, WireRequest};
use ams_serve::net::{ServerFrame, WireError};
use ams_serve::{
    AmsServer, BackpressurePolicy, Completion, LabelResult, ObsConfig, ServeConfig, ShedReason,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};

fn scheduler() -> AdaptiveModelScheduler {
    let zoo = ModelZoo::standard();
    let predictor = Box::new(OraclePredictor::new(zoo.len(), 0.5));
    AdaptiveModelScheduler::new(zoo, predictor, 0.5, 64)
}

fn truth() -> &'static TruthTable {
    static TRUTH: OnceLock<TruthTable> = OnceLock::new();
    TRUTH.get_or_init(|| {
        let zoo = ModelZoo::standard();
        let ds = Dataset::generate(DatasetProfile::Coco2017, 24, 64);
        TruthTable::build(&zoo, &zoo.catalog(), &ds, 0.5)
    })
}

/// Round-trip one value through serde *and* the binary codec, comparing
/// the full Debug rendering (field-for-field, bit-exact floats — Debug
/// prints enough digits to distinguish any two distinct f64s).
fn round_trip<T: Serialize + Deserialize + std::fmt::Debug>(v: &T) -> T {
    let tree = v.to_value();
    let mut buf = Vec::new();
    encode_value(&tree, &mut buf);
    let back = decode_value(&buf).expect("codec round trip");
    assert_eq!(
        format!("{back:?}"),
        format!("{tree:?}"),
        "value tree stable"
    );
    let rebuilt = T::from_value(&back).expect("typed round trip");
    assert_eq!(format!("{rebuilt:?}"), format!("{v:?}"), "type round trip");
    rebuilt
}

fn arb_shed_reason() -> impl Strategy<Value = ShedReason> {
    (0usize..4).prop_map(|i| {
        [
            ShedReason::Admission,
            ShedReason::Overflow,
            ShedReason::Deadline,
            ShedReason::Drain,
        ][i]
    })
}

fn arb_label_result() -> impl Strategy<Value = LabelResult> {
    (
        any::<u64>(),
        0usize..8,
        prop::collection::vec((0u16..512, 0.0f32..1.0), 0..12),
        prop::collection::vec(0u8..10, 0..10),
        (0.0f64..1e6, 0.0f64..1e6, 0.0f64..1.0),
        (any::<u64>(), any::<u64>(), any::<bool>()),
    )
        .prop_map(|(ticket, class, labels, executed, values, timing)| {
            let (label_value, banked_value, recall) = values;
            let (queue_wait_us, execute_us, deadline_met) = timing;
            LabelResult {
                ticket,
                class,
                labels: labels.into_iter().map(|(l, c)| (LabelId(l), c)).collect(),
                executed: executed.into_iter().map(ModelId).collect(),
                label_value,
                banked_value,
                recall,
                queue_wait_us,
                execute_us,
                deadline_met,
            }
        })
}

fn arb_completion() -> impl Strategy<Value = Completion> {
    (
        0usize..3,
        arb_label_result(),
        any::<u64>(),
        0usize..8,
        arb_shed_reason(),
    )
        .prop_map(|(variant, result, ticket, class, reason)| match variant {
            0 => Completion::Labeled(result),
            1 => Completion::Shed {
                ticket,
                class,
                reason,
            },
            _ => Completion::Cancelled { ticket, class },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ShedReason` round-trips by variant name.
    #[test]
    fn shed_reason_round_trips(reason in arb_shed_reason()) {
        prop_assert_eq!(round_trip(&reason), reason);
    }

    /// `LabelResult` — the labels payload itself — survives the codec
    /// bit-exactly, floats included.
    #[test]
    fn label_result_round_trips(result in arb_label_result()) {
        let back = round_trip(&result);
        prop_assert_eq!(back.labels, result.labels);
        prop_assert_eq!(back.label_value.to_bits(), result.label_value.to_bits());
        prop_assert_eq!(back.recall.to_bits(), result.recall.to_bits());
    }

    /// Every `Completion` variant (the `Completion` frame body)
    /// round-trips.
    #[test]
    fn completion_round_trips(ev in arb_completion()) {
        round_trip(&ev);
    }

    /// `Request` frames round-trip with full scene content and arbitrary
    /// per-ticket economics.
    #[test]
    fn request_frames_round_trip(
        idx in 0usize..24,
        id in any::<u64>(),
        class in 0usize..8,
        deadline_us in (any::<bool>(), any::<u64>()).prop_map(|(s, v)| s.then_some(v)),
        value in (any::<bool>(), 0.0f64..1e9).prop_map(|(s, v)| s.then_some(v)),
    ) {
        let frame = ClientFrame::Request(WireRequest {
            id,
            item: truth().item(idx).clone(),
            class,
            deadline_us,
            value,
        });
        round_trip(&frame);
    }

    /// The decoder is total: arbitrary bytes either decode or error —
    /// they never panic, hang, or over-allocate.
    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_value(&bytes);
    }
}

fn arb_client_frame() -> impl Strategy<Value = ClientFrame> {
    (
        0usize..4,
        any::<u64>(),
        0usize..24,
        0usize..8,
        (any::<bool>(), any::<u64>()).prop_map(|(s, v)| s.then_some(v)),
        (any::<bool>(), 0.0f64..1e9).prop_map(|(s, v)| s.then_some(v)),
    )
        .prop_map(
            |(variant, n, idx, class, deadline_us, value)| match variant {
                0 => ClientFrame::Hello { window: n },
                1 => ClientFrame::Request(WireRequest {
                    id: n,
                    item: truth().item(idx).clone(),
                    class,
                    deadline_us,
                    value,
                }),
                2 => ClientFrame::Cancel { id: n },
                _ => ClientFrame::Goodbye,
            },
        )
}

fn arb_server_frame() -> impl Strategy<Value = ServerFrame> {
    (any::<bool>(), arb_completion(), any::<u64>()).prop_map(|(completion, ev, id)| {
        if completion {
            ServerFrame::Completion(ev)
        } else {
            ServerFrame::Rejected { id }
        }
    })
}

/// The payload the generic value codec produces for `v`.
fn value_codec_bytes<T: Serialize>(v: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_value(&v.to_value(), &mut buf);
    buf
}

/// Run both typed decoders on `bytes` (which must not panic). Whatever a
/// typed decoder accepts, the reference path — `decode_value` then
/// `from_value` — must decode to the same frame.
fn typed_decoders_agree_with_reference(bytes: &[u8]) -> Result<(), TestCaseError> {
    fn check<T: Deserialize + std::fmt::Debug>(
        bytes: &[u8],
        typed: Result<T, WireError>,
    ) -> Result<(), TestCaseError> {
        let Ok(frame) = typed else { return Ok(()) };
        match decode_value(bytes).map(|tree| T::from_value(&tree)) {
            Ok(Ok(reference)) => {
                prop_assert_eq!(format!("{reference:?}"), format!("{frame:?}"));
                Ok(())
            }
            _ => Err(TestCaseError::fail(format!(
                "typed decoder accepted bytes the reference decoder rejects: {bytes:?}"
            ))),
        }
    }
    check(bytes, ClientFrame::decode(bytes))?;
    check(bytes, ServerFrame::decode(bytes))
}

/// A real frame payload, cut short and/or with one bit flipped.
fn damaged(mut bytes: Vec<u8>, mode: u8, cut: usize, flip: usize, bit: u8) -> Vec<u8> {
    if mode != 1 {
        bytes.truncate(cut % (bytes.len() + 1));
    }
    if mode != 0 && !bytes.is_empty() {
        let at = flip % bytes.len();
        bytes[at] ^= 1 << bit;
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The typed encoder writes exactly the generic codec's bytes for
    /// every client frame variant, so the frame format is unchanged.
    #[test]
    fn typed_client_encoding_is_byte_equal_to_value_codec(frame in arb_client_frame()) {
        let mut typed = Vec::new();
        frame.encode(&mut typed);
        prop_assert_eq!(typed, value_codec_bytes(&frame));
    }

    /// Same for every server frame variant.
    #[test]
    fn typed_server_encoding_is_byte_equal_to_value_codec(frame in arb_server_frame()) {
        let mut typed = Vec::new();
        frame.encode(&mut typed);
        prop_assert_eq!(typed, value_codec_bytes(&frame));
    }

    /// Typed decode of a typed encoding returns the same client frame,
    /// floats bit-exact (Debug prints every distinguishing digit).
    #[test]
    fn typed_client_frames_round_trip(frame in arb_client_frame()) {
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let back = ClientFrame::decode(&buf).expect("typed decode");
        prop_assert_eq!(format!("{back:?}"), format!("{frame:?}"));
    }

    /// Same for server frames.
    #[test]
    fn typed_server_frames_round_trip(frame in arb_server_frame()) {
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let back = ServerFrame::decode(&buf).expect("typed decode");
        prop_assert_eq!(format!("{back:?}"), format!("{frame:?}"));
    }

    /// Arbitrary bytes: the typed decoders never panic, and anything they
    /// accept decodes identically through the reference path.
    #[test]
    fn typed_decoder_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        typed_decoders_agree_with_reference(&bytes)?;
    }

    /// Truncated and bit-flipped real request and completion frames: no
    /// panic, and every frame the typed decoders still accept matches the
    /// reference decoding.
    #[test]
    fn typed_decoder_survives_damaged_real_frames(
        client in arb_client_frame(),
        server in arb_server_frame(),
        damage in (0u8..3, any::<usize>(), any::<usize>(), 0u8..8),
    ) {
        let (mode, cut, flip, bit) = damage;
        for bytes in [value_codec_bytes(&client), value_codec_bytes(&server)] {
            typed_decoders_agree_with_reference(&damaged(bytes, mode, cut, flip, bit))?;
        }
    }
}

fn lossless_server() -> AmsServer {
    AmsServer::start(
        scheduler(),
        Budget::Deadline { ms: 900 },
        ServeConfig {
            shards: 2,
            workers_per_shard: 1,
            max_batch: 4,
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            obs: Some(ObsConfig::default()),
            ..ServeConfig::default()
        },
    )
}

/// Hostile framing: truncated length prefixes, oversized frame claims,
/// garbage payloads, and a mid-protocol corruption after a real request.
/// Each bad connection must die cleanly — no panic, no leaked ticket —
/// while a well-behaved client on another connection keeps being served,
/// and the final report still reconciles bucket-for-bucket against the
/// event stream.
#[test]
fn malformed_frames_error_cleanly_without_leaking_tickets() {
    let net = NetServer::bind(lossless_server(), "127.0.0.1:0").expect("bind");
    let addr = net.local_addr();

    // 1. Truncated length prefix: two bytes, then EOF.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&[0x07, 0x00]).expect("write");
    drop(s);

    // 2. Oversized frame claim: a length prefix beyond MAX_FRAME. The
    //    server must refuse before allocating, not read 4 GiB.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&u32::MAX.to_le_bytes()).expect("write");
    // The server closes; a subsequent read sees EOF rather than a hang.
    drop(s);

    // 3. Garbage payload under a valid length prefix.
    let mut s = TcpStream::connect(addr).expect("connect");
    s.write_all(&8u32.to_le_bytes()).expect("write");
    s.write_all(&[0xde, 0xad, 0xbe, 0xef, 0xff, 0x00, 0x11, 0x22])
        .expect("write");
    drop(s);

    // 4. A valid handshake and a real submission, then an abrupt close
    //    with the request possibly still in flight: the issued ticket
    //    must resolve (disconnect == cancel-all), not leak — whether the
    //    label beat the disconnect or not, it is accounted.
    let poisoned = NetClient::connect_with_window(addr, 8).expect("connect");
    poisoned
        .submit(Arc::new(truth().item(0).clone()))
        .expect("submit");
    drop(poisoned);

    // A well-behaved client is still served after all of the above.
    let good = NetClient::connect_with_window(addr, 16).expect("connect");
    for item in truth().items().iter().take(8) {
        good.submit(Arc::new(item.clone())).expect("submit");
    }
    let events = good.drain().expect("drain");
    assert_eq!(events.len(), 8, "good client gets every completion");
    assert!(
        events
            .iter()
            .all(|e| e.completion().and_then(|c| c.labeled()).is_some()),
        "lossless config labels everything"
    );
    good.goodbye().expect("goodbye");
    drop(good);

    let report = net.shutdown();
    // The poisoned connection's ticket either completed or was cancelled
    // by the disconnect; nothing is lost or double-counted.
    assert_eq!(report.offered, 9, "one poisoned + eight good submissions");
    assert!(report.is_conserved(), "no ticket leaked");
    assert!(report.events_reconcile(), "event stream matches the ledger");
}

/// A frame that decodes to a value tree but not to a `ClientFrame` (a
/// well-formed string that names no variant) is a protocol error, not a
/// panic; tickets submitted before it resolve via cancel-all.
#[test]
fn well_formed_but_wrong_shape_frame_closes_the_connection() {
    let net = NetServer::bind(lossless_server(), "127.0.0.1:0").expect("bind");
    let addr = net.local_addr();

    let mut s = TcpStream::connect(addr).expect("connect");
    // A valid Hello so the connection opens...
    let hello = ClientFrame::Hello { window: 4 };
    let mut payload = Vec::new();
    encode_value(&hello.to_value(), &mut payload);
    s.write_all(&(payload.len() as u32).to_le_bytes()).unwrap();
    s.write_all(&payload).unwrap();
    // ...then a frame that is a perfectly valid value tree of the wrong
    // shape.
    let mut bogus = Vec::new();
    encode_value(&serde::Value::Str("NotAFrame".into()), &mut bogus);
    s.write_all(&(bogus.len() as u32).to_le_bytes()).unwrap();
    s.write_all(&bogus).unwrap();
    drop(s);

    let report = net.shutdown();
    assert_eq!(report.offered, 0, "nothing was ever submitted");
    assert!(report.is_conserved());
    assert!(report.events_reconcile());
}
