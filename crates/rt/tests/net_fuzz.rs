//! Adversarial fuzz of the `rt::net` frame and message layer, in the
//! same spirit as the JSON/INI/HTTP fuzzers: whatever bytes arrive —
//! soup, truncations, hostile length prefixes, near-miss hellos — the
//! parser must return a classified error or a value, never panic, and
//! never attempt an attacker-sized allocation.

use std::io::Cursor;

use rt::check::{from_fn, select, vec, CheckRng};
use rt::json::Json;
use rt::net::{check_hello, hello_frame, read_frame, write_frame, NetError, PROTOCOL_VERSION};
use rt::rand::Rng;

/// A small ceiling so "oversized" cases are cheap to construct.
const MAX_FRAME: usize = 4 * 1024;

fn arbitrary_json(rng: &mut CheckRng, depth: u32) -> Json {
    let variants = if depth >= 2 { 4 } else { 6 };
    match rng.gen_range(0u32..variants) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_range(0u32..2) == 1),
        2 => Json::Number(rng.gen_range(-1_000_000i64..1_000_000) as f64),
        3 => Json::String(
            (0..rng.gen_range(0usize..6))
                .map(|_| ['a', '"', '\\', 'é', '\n', ' '][rng.gen_range(0usize..6)])
                .collect(),
        ),
        4 => Json::Array(
            (0..rng.gen_range(0usize..3))
                .map(|_| arbitrary_json(rng, depth + 1))
                .collect(),
        ),
        _ => Json::Object(
            (0..rng.gen_range(0usize..3))
                .map(|i| (format!("k{i}"), arbitrary_json(rng, depth + 1)))
                .collect(),
        ),
    }
}

rt::prop! {
    #![cases(256)]
    /// Raw byte soup fed to the frame reader: an error or a value,
    /// never a panic. Most inputs die on the prefix or mid-payload.
    fn read_frame_survives_byte_soup(bytes in vec(0u8..=255, 0..64)) {
        let _ = read_frame(&mut Cursor::new(&bytes), MAX_FRAME);
    }

    /// A valid frame truncated at every possible byte boundary: every
    /// cut must produce `Closed` (cut before byte 1) or an I/O error,
    /// and the prefix itself must never be trusted past the ceiling.
    fn truncated_frames_error_cleanly(doc in from_fn(|rng| arbitrary_json(rng, 0)),
                                      frac in 0u32..1000) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc, MAX_FRAME).expect("generated doc fits");
        let cut = (buf.len() - 1) * frac as usize / 1000;
        let err = read_frame(&mut Cursor::new(&buf[..cut]), MAX_FRAME)
            .expect_err("truncated frame must not parse");
        match err {
            NetError::Closed | NetError::Io(_) => {}
            other => panic!("unexpected error class for truncation: {other:?}"),
        }
    }

    /// Hostile length prefixes up to u32::MAX followed by junk: the
    /// reader must reject on the announced length alone when it is
    /// above the ceiling — before allocating or reading the payload.
    fn oversized_prefixes_rejected_without_allocation(len in 0u32..=u32::MAX,
                                                      tail in vec(0u8..=255, 0..8)) {
        let mut buf = len.to_be_bytes().to_vec();
        buf.extend_from_slice(&tail);
        match read_frame(&mut Cursor::new(&buf), MAX_FRAME) {
            Err(NetError::FrameTooLarge { len: l, max }) => {
                rt::prop_assert_eq!(l, len as usize);
                rt::prop_assert_eq!(max, MAX_FRAME);
                rt::prop_assert!(l > MAX_FRAME, "in-bounds length misclassified");
            }
            Err(_) => rt::prop_assert!(
                (len as usize) <= MAX_FRAME,
                "oversized length {len} not rejected as FrameTooLarge"
            ),
            Ok(_) => rt::prop_assert!((len as usize) <= MAX_FRAME),
        }
    }

    /// Any JSON document — including valid non-hello documents and
    /// structural near-misses — fed to the hello validator: a clean
    /// error or a role, never a panic.
    fn check_hello_survives_arbitrary_documents(doc in from_fn(|rng| arbitrary_json(rng, 0))) {
        let _ = check_hello(&doc, None);
        let _ = check_hello(&doc, Some("worker"));
    }

    /// Hello-shaped token soup: hand-assembled documents recombining
    /// the fields a real hello carries, with wrong types and versions.
    fn check_hello_survives_near_miss_hellos(
        net in select(std::vec::Vec::from(["hello", "goodbye", "", "HELLO"])),
        version in select(std::vec::Vec::from([-1i64, 0, 1, 2, 255, 1 << 40])),
        role in select(std::vec::Vec::from(["worker", "coordinator", "", "wörker"])),
        drop_version in select(std::vec::Vec::from([false, true])),
    ) {
        let mut doc = Json::object().insert("net", net).insert("role", role);
        if !drop_version {
            doc = doc.insert("version", version);
        }
        match check_hello(&doc, Some("worker")) {
            Ok(got) => {
                rt::prop_assert_eq!(net, "hello");
                rt::prop_assert_eq!(version, PROTOCOL_VERSION as i64);
                rt::prop_assert_eq!(got.as_str(), "worker");
            }
            Err(NetError::VersionMismatch { ours, theirs }) => {
                rt::prop_assert_eq!(ours, PROTOCOL_VERSION);
                rt::prop_assert!(theirs != PROTOCOL_VERSION);
            }
            Err(NetError::Protocol(_)) => {}
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
    }

    /// Frames written back-to-back on one stream read back in order,
    /// byte-identically — and the serializer/framer pair never writes
    /// something its own reader rejects.
    fn frame_stream_round_trips(docs in vec(from_fn(|rng| arbitrary_json(rng, 0)), 0..6)) {
        let mut buf = Vec::new();
        for doc in &docs {
            write_frame(&mut buf, doc, MAX_FRAME).expect("generated doc fits");
        }
        let mut cursor = Cursor::new(&buf);
        for doc in &docs {
            let got = read_frame(&mut cursor, MAX_FRAME).expect("own frame reads back");
            rt::prop_assert_eq!(got.to_string(), doc.to_string());
        }
        rt::prop_assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME),
            Err(NetError::Closed)
        ));
    }
}

/// A peer built before the current version (1) and one from the
/// future both fail the hello as a version mismatch, never as a field
/// error further into the session.
#[test]
fn version_mismatch_is_permanent_and_descriptive() {
    for theirs in [1, PROTOCOL_VERSION + 7] {
        let skew = Json::object()
            .insert("net", "hello")
            .insert("version", theirs)
            .insert("role", "worker");
        let err = check_hello(&skew, None).unwrap_err();
        assert!(
            matches!(err, NetError::VersionMismatch { ours: PROTOCOL_VERSION, theirs: t } if t == theirs),
            "v{theirs} peer: {err:?}"
        );
        assert!(!err.is_transient(), "version skew must not be retried");
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("v{PROTOCOL_VERSION}")) && msg.contains("mismatch"),
            "operator-facing message should name both versions: {msg}"
        );
    }
}

#[test]
fn hello_frame_passes_its_own_validator() {
    let frame = hello_frame("coordinator");
    let reparsed = Json::parse(&frame.to_string()).unwrap();
    assert_eq!(check_hello(&reparsed, Some("coordinator")).unwrap(), "coordinator");
}
