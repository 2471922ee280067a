//! The remote server's refusals. A client that does not open with a
//! handshake of the negotiated dictionary mode, a payload that does not
//! decode and a request the protocol does not take from a client each end
//! that connection with `RtError::Wire` before anything reaches the
//! runtime, and the same listener then serves the next client end to end.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use layercake_event::{
    encode_frame, Advertisement, AttributeDecl, ClassId, CodecError, DictMode, EncodeDict,
    Envelope, EventData, EventSeq, StageMap, TypeRegistry, ValueKind, FRAME_HEADER_LEN,
    HELLO_MAGIC,
};
use layercake_filter::Filter;
use layercake_overlay::{OverlayConfig, OverlayMsg};
use layercake_rt::remote::{serve_one, RemoteClient};
use layercake_rt::wire::{encode_hello, encode_msg, read_link, WireError};
use layercake_rt::{RtConfig, RtError, Runtime};
use layercake_sim::ActorId;

const EXTERNAL: ActorId = ActorId(usize::MAX);

fn runtime() -> (Runtime, ClassId) {
    let mut registry = TypeRegistry::new();
    let class = registry
        .register(
            "RemoteTick",
            None,
            vec![AttributeDecl::new("level", ValueKind::Int)],
        )
        .unwrap();
    let overlay = OverlayConfig {
        levels: vec![2, 1],
        ..OverlayConfig::default()
    };
    let rt = Runtime::start(RtConfig::new(overlay, 1), Arc::new(registry)).unwrap();
    (rt, class)
}

fn event(class: ClassId, seq: u64) -> Envelope {
    let mut meta = EventData::new();
    meta.insert("level", seq as i64);
    Envelope::from_meta(class, "RemoteTick", EventSeq(seq), meta)
}

/// The frames a client sends to publish `event(class, 0)`.
fn publish(class: ClassId) -> Vec<u8> {
    let msg = OverlayMsg::Publish(event(class, 0));
    encode_msg(EXTERNAL, &msg, &mut EncodeDict::new(DictMode::Negotiated)).unwrap()
}

/// Connects to `listener`, writes `bytes` and serves the connection: the
/// connect completes against the listener's backlog, so one thread can
/// play both ends. Returns the refusal.
fn refused(rt: &mut Runtime, listener: &TcpListener, bytes: &[u8]) -> String {
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    client.write_all(bytes).unwrap();
    match serve_one(rt, listener) {
        Err(RtError::Wire(detail)) => detail,
        other => panic!("served {other:?}"),
    }
}

#[test]
fn a_client_without_the_handshake_is_refused_before_it_publishes() {
    let (mut rt, class) = runtime();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut v1 = encode_hello(DictMode::Negotiated);
    v1[FRAME_HEADER_LEN + HELLO_MAGIC.len()] = 1;
    let shared = encode_hello(DictMode::Shared);
    let cases = [
        (
            publish(class),
            CodecError::Invalid("stream opens without a handshake"),
        ),
        ([v1, publish(class)].concat(), CodecError::Version(1)),
        (
            [shared, publish(class)].concat(),
            CodecError::ModeMismatch {
                expected: DictMode::Negotiated,
                found: 0,
            },
        ),
    ];
    for (bytes, error) in cases {
        // The reader's typed error, and the server's refusal that names it.
        let read = read_link::<WireError>(&bytes[..], DictMode::Negotiated, None, |_| Ok(()));
        assert!(
            matches!(&read, Err(WireError::Codec(e)) if *e == error),
            "{read:?}"
        );
        let detail = refused(&mut rt, &listener, &bytes);
        assert!(detail.contains(&error.to_string()), "{detail}");
    }
    assert_eq!(rt.stats().published(), 0);
    rt.shutdown().into_result().expect("no crash");
}

#[test]
fn a_refused_connection_leaves_the_listener_serving() {
    let (mut rt, class) = runtime();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let hello = encode_hello(DictMode::Negotiated);

    // A payload whose first byte is no frame kind.
    let garbage = [hello.clone(), encode_frame(&[0xEE, 1, 2]).unwrap()].concat();
    let detail = refused(&mut rt, &listener, &garbage);
    assert!(
        detail.contains(&CodecError::Tag(0xEE).to_string()),
        "{detail}"
    );
    // A message a client may not send.
    let mut dict = EncodeDict::new(DictMode::Negotiated);
    let renew = encode_msg(EXTERNAL, &OverlayMsg::Renew, &mut dict).unwrap();
    let detail = refused(&mut rt, &listener, &[hello, renew].concat());
    assert!(detail.contains("unsupported remote request"), "{detail}");
    assert_eq!(rt.stats().published(), 0);

    let addr = listener.local_addr().unwrap();
    let client = std::thread::spawn(move || {
        let mut client = RemoteClient::connect(addr).unwrap();
        let stages = StageMap::from_prefixes(&[1]).unwrap();
        client.advertise(Advertisement::new(class, stages)).unwrap();
        let wait = Duration::from_secs(10);
        client
            .subscribe(Filter::for_class(class).ge("level", 5i64), wait)
            .unwrap();
        for seq in 0..10 {
            client.publish(event(class, seq)).unwrap();
        }
        let mut got: Vec<EventSeq> = (0..5)
            .map(|_| {
                client
                    .recv_deliver(wait)
                    .unwrap()
                    .expect("a delivery")
                    .seq()
            })
            .collect();
        got.sort_unstable();
        got
    });
    serve_one(&mut rt, &listener).expect("the next client is served");
    let got = client.join().unwrap();
    assert_eq!(got, (5..10).map(EventSeq).collect::<Vec<_>>());
    assert_eq!(rt.stats().published(), 10);
    rt.shutdown().into_result().expect("no crash");
}
