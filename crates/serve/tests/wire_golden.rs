//! Golden bytes of `mps-proto/v1`: every client and server frame shape,
//! encoded by `send_msg`, must match `golden/wire_v1.txt` byte for byte,
//! and every golden frame must decode back to the frame it was made from.
//!
//! The golden file holds one frame per line, `<name>\t<envelope>`: the
//! envelope is the frame after its 4-byte little-endian length prefix.
//! The encoder escapes tabs, newlines and every other control character
//! inside strings, so an envelope is always one tab-free line. The
//! strings carry quotes, backslashes, control characters and multi-byte
//! UTF-8; the `Cell` payload carries edge-case floats and integers, so the
//! file also pins the JSON printer the payloads go through.

use mps_serve::proto::{
    recv_msg, send_msg, ClientFrame, ServerFrame, ServerStats, WorkRequest, WorkSummary,
    PROTO_VERSION,
};
use serde::Serialize;

const GOLDEN: &str = include_str!("golden/wire_v1.txt");

/// Quotes, backslashes, the escaped and unescaped control characters,
/// DEL, and two-, three- and four-byte UTF-8.
const NASTY: &str = "q\"uo\\te/\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}\n\r\t é€𝄞\u{2028} {}[]:,";

#[derive(Serialize)]
struct Numbers {
    floats: Vec<f64>,
    ints: (u64, i64, i64, u64),
    text: String,
}

fn payload() -> String {
    serde_json::to_string(&Numbers {
        floats: vec![
            0.1,
            -0.0,
            0.0,
            5e-324,
            1e300,
            -1e-300,
            1.0,
            1.5e-7,
            1e21,
            123_456_789.0,
            0.30000000000000004,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
        ],
        ints: (u64::MAX, i64::MIN, -1, 0),
        text: NASTY.to_string(),
    })
    .unwrap()
}

fn client_frames() -> Vec<(&'static str, ClientFrame)> {
    let s = NASTY.to_string();
    vec![
        (
            "hello",
            ClientFrame::Hello {
                proto: PROTO_VERSION.to_string(),
                client: s.clone(),
            },
        ),
        (
            "submit-schedule",
            ClientFrame::Submit {
                id: 0,
                work: WorkRequest::Schedule {
                    dag: 53,
                    variant: "analytic".to_string(),
                    algo: "HCPA".to_string(),
                },
                deadline_ms: None,
            },
        ),
        (
            "submit-simulate",
            ClientFrame::Submit {
                id: u64::MAX,
                work: WorkRequest::Simulate {
                    dag: 7,
                    variant: s.clone(),
                    algo: "MCPA".to_string(),
                    repeats: 3,
                    disturb: Some("crash@4:3;slow@2-10:5:1.5".to_string()),
                },
                deadline_ms: Some(1500),
            },
        ),
        (
            "submit-online",
            ClientFrame::Submit {
                id: 2,
                work: WorkRequest::Online {
                    arrival: "mmpp@0.02:0.16:50:10".to_string(),
                    horizon_events: 1_000_000,
                    seed: 2011,
                    admission: 0,
                    algo: s.clone(),
                },
                deadline_ms: Some(0),
            },
        ),
        (
            "submit-subset-grid",
            ClientFrame::Submit {
                id: 3,
                work: WorkRequest::SubsetGrid {
                    take: 2,
                    repeats: 1,
                    disturb: None,
                },
                deadline_ms: None,
            },
        ),
        ("health", ClientFrame::Health { id: 4 }),
        ("drain", ClientFrame::Drain { id: u64::MAX }),
        ("bye", ClientFrame::Bye),
    ]
}

fn server_frames() -> Vec<(&'static str, ServerFrame)> {
    let s = NASTY.to_string();
    vec![
        (
            "hello-ack",
            ServerFrame::HelloAck {
                proto: PROTO_VERSION.to_string(),
                server: s.clone(),
                queue_capacity: 16,
            },
        ),
        (
            "version-mismatch",
            ServerFrame::VersionMismatch {
                want: PROTO_VERSION.to_string(),
                got: s.clone(),
            },
        ),
        ("accepted", ServerFrame::Accepted { id: 0 }),
        (
            "overloaded",
            ServerFrame::Overloaded {
                id: 1,
                retry_after_ms: 50,
            },
        ),
        ("draining", ServerFrame::Draining { id: 2 }),
        (
            "cell",
            ServerFrame::Cell {
                id: 3,
                key: "schedule/dag-0/n2000/analytic/HCPA".to_string(),
                payload: payload(),
            },
        ),
        (
            "done",
            ServerFrame::Done {
                id: 4,
                summary: WorkSummary {
                    cells: 6,
                    resumed: 2,
                    computed: 4,
                    quarantined: 1,
                    disturbed: 3,
                    rescues: 5,
                    status: "complete".to_string(),
                },
            },
        ),
        (
            "failed",
            ServerFrame::Failed {
                id: 5,
                error: s.clone(),
            },
        ),
        (
            "stats",
            ServerFrame::Stats {
                id: 6,
                stats: ServerStats {
                    queue_depth: 1,
                    queue_capacity: 16,
                    inflight: 2,
                    served: 12_345,
                    shed: 7,
                    quarantined: 0,
                    recovered: 1,
                    stalled: 3,
                    disturbed: 240,
                    rescues: 712,
                    p50_service_ms: 0,
                    p99_service_ms: u64::MAX,
                    draining: true,
                },
            },
        ),
        ("drain-started", ServerFrame::DrainStarted { id: 8 }),
    ]
}

/// Encodes `frame` and splits it into its length prefix and envelope.
fn encode<T: Serialize>(frame: &T) -> ([u8; 4], String) {
    let mut buf = Vec::new();
    send_msg(&mut buf, frame).unwrap();
    let (len, env) = buf.split_at(4);
    (
        len.try_into().unwrap(),
        String::from_utf8(env.to_vec()).unwrap(),
    )
}

fn golden() -> Vec<(&'static str, &'static str)> {
    GOLDEN
        .lines()
        .map(|l| {
            l.split_once('\t')
                .expect("golden line is <name>\\t<envelope>")
        })
        .collect()
}

fn frame_of(env: &str) -> Vec<u8> {
    let mut buf = (env.len() as u32).to_le_bytes().to_vec();
    buf.extend_from_slice(env.as_bytes());
    buf
}

#[test]
fn every_frame_encodes_to_its_golden_bytes() {
    let golden = golden();
    let mut encoded: Vec<(&str, ([u8; 4], String))> = Vec::new();
    encoded.extend(client_frames().iter().map(|(n, f)| (*n, encode(f))));
    encoded.extend(server_frames().iter().map(|(n, f)| (*n, encode(f))));
    assert_eq!(encoded.len(), golden.len(), "one golden line per frame");
    for ((name, (len, env)), (gname, genv)) in encoded.iter().zip(&golden) {
        assert_eq!(name, gname);
        assert_eq!(env, genv, "{name}: envelope bytes differ from the golden");
        assert_eq!(
            *len,
            (genv.len() as u32).to_le_bytes(),
            "{name}: length prefix"
        );
    }
}

#[test]
fn every_golden_frame_decodes_to_its_message() {
    let golden = golden();
    let clients = client_frames();
    for ((name, frame), (_, env)) in clients.iter().zip(&golden) {
        let got: Option<ClientFrame> = recv_msg(&mut frame_of(env).as_slice()).unwrap();
        assert_eq!(got.as_ref(), Some(frame), "{name}");
    }
    for ((name, frame), (_, env)) in server_frames().iter().zip(&golden[clients.len()..]) {
        let got: Option<ServerFrame> = recv_msg(&mut frame_of(env).as_slice()).unwrap();
        assert_eq!(got.as_ref(), Some(frame), "{name}");
    }
}
