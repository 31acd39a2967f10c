//! Golden digests of the daemon's `Schedule` traffic at seed 2011: for
//! each of the 324 (dag, variant, algorithm) requests, the `Submit` frame
//! and the `Accepted`, `Cell` and `Done` replies as `send_msg` encodes
//! them. One FNV-64 covers the schedule payloads alone and one covers
//! every frame's bytes, so a change to the schedule JSON and a change to
//! the framing fail separately.

use mps_core::journal::{fnv64, RunControl};
use mps_core::sched::{Hcpa, Mcpa, Scheduler};
use mps_core::serve::{send_msg, Backend, ClientFrame, ServerFrame, WorkRequest};
use mps_exp::{Harness, ServeBackend, SimVariant};

const PAYLOADS_FNV: &str = "4206949789f4489d";
const WIRE_FNV: &str = "9900ae83eb91cdb9";

#[test]
fn schedule_traffic_matches_the_golden_digests() {
    let h = Harness::new(2011);
    let dags = h.corpus().len();
    let backend = ServeBackend::new(h);
    let (mut payloads, mut wire) = (Vec::new(), Vec::new());
    let mut requests = 0u64;
    for dag in 0..dags {
        for variant in SimVariant::ALL {
            for algo in [Hcpa.name(), Mcpa.name()] {
                let id = requests;
                requests += 1;
                let work = WorkRequest::Schedule {
                    dag,
                    variant: variant.name().to_string(),
                    algo: algo.to_string(),
                };
                let mut cell = None;
                let summary = backend
                    .execute(&work, &RunControl::unlimited(), &mut |k, p| {
                        cell = Some((k.to_string(), p.to_string()));
                        true
                    })
                    .unwrap();
                let (key, payload) = cell.expect("one cell per Schedule request");
                payloads.extend_from_slice(payload.as_bytes());
                let submit = ClientFrame::Submit {
                    id,
                    work,
                    deadline_ms: None,
                };
                send_msg(&mut wire, &submit).unwrap();
                for reply in [
                    ServerFrame::Accepted { id },
                    ServerFrame::Cell { id, key, payload },
                    ServerFrame::Done { id, summary },
                ] {
                    send_msg(&mut wire, &reply).unwrap();
                }
            }
        }
    }
    assert_eq!(requests, 324);
    assert_eq!(format!("{:016x}", fnv64(&payloads)), PAYLOADS_FNV);
    assert_eq!(format!("{:016x}", fnv64(&wire)), WIRE_FNV);
}
