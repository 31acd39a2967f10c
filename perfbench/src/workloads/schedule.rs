//! `schedule`: an in-process `repro serve` daemon (default config) on a
//! Unix socket, driven by one closed-loop client connection sending
//! `Schedule` requests over all (dag, variant, algorithm) combinations in
//! a seed-shuffled order. A pass is one sweep over the combinations.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mps_core::journal::{fnv64, RunControl};
use mps_core::sched::{AllocationEngine, Hcpa, Mcpa, Scheduler};
use mps_core::serve::client::connect_unix;
use mps_core::serve::{
    recv_msg, send_msg, Backend, Client, ClientFrame, RequestOutcome, ServeError, Server,
    ServerConfig, ServerExit, ServerFrame, WorkRequest, WorkSummary,
};
use mps_exp::{Harness, ServeBackend, SimVariant};
use mps_perf::{median, Tracer};

use super::{schedule, timed, Pass, SplitMix, Workload};

pub struct ScheduleLoad {
    client: Option<Client<UnixStream>>,
    server: Option<JoinHandle<Result<ServerExit, ServeError>>>,
    /// Every request of a pass, in the pass's order.
    requests: Vec<WorkRequest>,
    /// FNV-64 of each request's payload, from `Backend::execute`.
    expected: Vec<u64>,
    next_id: u64,
    /// A harness equal to the daemon's, for the composed pass.
    h: Harness,
    engine: AllocationEngine,
    /// Wall time of every socket pass, seconds.
    socket_pass_s: Vec<f64>,
    overloaded: u64,
    failed: u64,
}

fn frame_err(e: ServeError) -> String {
    format!("frame: {e}")
}

impl ScheduleLoad {
    pub fn setup(seed: u64, scratch: &Path) -> Result<Self, String> {
        let backend = Arc::new(ServeBackend::new(Harness::new(seed)));
        let h = Harness::new(seed);
        let socket: PathBuf = scratch.join("serve.sock");
        let server = {
            let server = Server::new(
                Arc::clone(&backend) as Arc<dyn Backend>,
                ServerConfig::default(),
            );
            let socket = socket.clone();
            std::thread::spawn(move || server.run_unix(&socket))
        };
        let (client, _) = connect_unix(&socket, "mps-perf", Duration::from_secs(10))
            .map_err(|e| format!("connect to the daemon: {e}"))?;

        let mut combos = Vec::new();
        for dag in 0..h.corpus().len() {
            for variant in SimVariant::ALL {
                for algo in [Hcpa.name(), Mcpa.name()] {
                    combos.push(WorkRequest::Schedule {
                        dag,
                        variant: variant.name().to_string(),
                        algo: algo.to_string(),
                    });
                }
            }
        }
        let requests = SplitMix(seed).shuffled(&combos);
        let mut expected = Vec::with_capacity(requests.len());
        for work in &requests {
            let mut payload = None;
            backend
                .execute(work, &RunControl::unlimited(), &mut |_, p| {
                    payload = Some(fnv64(p.as_bytes()));
                    true
                })
                .map_err(|e| format!("Backend::execute({work:?}): {e}"))?;
            expected.push(payload.ok_or("Backend::execute streamed no payload")?);
        }
        let mut w = ScheduleLoad {
            client: Some(client),
            server: Some(server),
            requests,
            expected,
            next_id: 0,
            h,
            engine: AllocationEngine::new(),
            socket_pass_s: Vec::new(),
            overloaded: 0,
            failed: 0,
        };
        w.pass()?; // cold pass over the socket
        w.socket_pass_s.clear();
        eprintln!(
            "schedule: {} requests per pass, one connection, closed loop",
            w.requests.len()
        );
        Ok(w)
    }

    /// The daemon's `Schedule` work rebuilt from the layers' calls:
    /// resolve, schedule on the nominal cluster, validate, encode.
    fn work(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        work: &WorkRequest,
    ) -> Result<(String, String), String> {
        let WorkRequest::Schedule { dag, variant, algo } = work else {
            return Err(format!("not a schedule request: {work:?}"));
        };
        let corpus = self.h.corpus();
        let g = corpus.get(*dag).ok_or("dag index out of range")?;
        let variant = SimVariant::ALL
            .into_iter()
            .find(|v| v.name() == variant)
            .ok_or("unknown variant")?;
        let algo: &dyn Scheduler = if algo == Hcpa.name() { &Hcpa } else { &Mcpa };
        let model = self.h.model_of(variant);
        let nominal = self.h.nominal_cluster();
        let s = schedule(
            tr,
            id,
            &mut self.engine,
            None,
            algo,
            &g.dag,
            nominal,
            model.as_ref(),
        );
        tr.leaf("sched.validate", id, || s.validate(&g.dag, nominal))
            .map_err(|e| format!("schedule validation: {e:?}"))?;
        let key = format!(
            "schedule/{}/n{}/{}/{}",
            g.name(),
            g.params.matrix_size,
            variant.name(),
            algo.name()
        );
        let payload = serde_json::to_string(&s).map_err(|e| format!("encode schedule: {e}"))?;
        Ok((key, payload))
    }

    /// One request through the frame codec and the rebuilt work, as the
    /// client and the daemon handle it; returns the payload's FNV-64.
    fn compose_request(&mut self, tr: &mut Tracer, i: usize) -> Result<u64, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut wire = Vec::new();
        let submit = ClientFrame::Submit {
            id,
            work: self.requests[i].clone(),
            deadline_ms: None,
        };
        tr.leaf("serve.encode", id, || send_msg(&mut wire, &submit))
            .map_err(frame_err)?;
        let frame: Option<ClientFrame> = tr
            .leaf("serve.decode", id, || recv_msg(&mut wire.as_slice()))
            .map_err(frame_err)?;
        let Some(ClientFrame::Submit { work, .. }) = frame else {
            return Err(format!("decoded {frame:?}, not the submit"));
        };
        let s = tr.begin("serve.work", id);
        let done = self.work(tr, id, &work);
        tr.end(s);
        let (key, payload) = done?;

        let mut reply = Vec::new();
        let frames = [
            ServerFrame::Accepted { id },
            ServerFrame::Cell { id, key, payload },
            ServerFrame::Done {
                id,
                summary: WorkSummary {
                    cells: 1,
                    computed: 1,
                    status: "complete".to_string(),
                    ..WorkSummary::default()
                },
            },
        ];
        for f in &frames {
            tr.leaf("serve.encode", id, || send_msg(&mut reply, f))
                .map_err(frame_err)?;
        }
        let mut r = reply.as_slice();
        let mut fnv = None;
        for _ in &frames {
            let f: Option<ServerFrame> = tr
                .leaf("serve.decode", id, || recv_msg(&mut r))
                .map_err(frame_err)?;
            if let Some(ServerFrame::Cell { payload, .. }) = f {
                fnv = Some(fnv64(payload.as_bytes()));
            }
        }
        fnv.ok_or_else(|| "no cell frame decoded".to_string())
    }
}

impl Workload for ScheduleLoad {
    fn pass(&mut self) -> Result<Pass, String> {
        let client = self.client.as_mut().ok_or("client closed")?;
        let mut op_ms = Vec::with_capacity(self.requests.len());
        let mut failed = 0;
        let start = Instant::now();
        for (i, work) in self.requests.iter().enumerate() {
            let id = self.next_id;
            self.next_id += 1;
            let mut got = None;
            let t = Instant::now();
            let outcome = client
                .request(id, work, None, &mut |_, p| got = Some(fnv64(p.as_bytes())))
                .map_err(|e| format!("request {id}: {e}"))?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match outcome {
                RequestOutcome::Done(_) => {
                    if got != Some(self.expected[i]) {
                        return Err(format!(
                            "request {id} ({work:?}): payload differs from Backend::execute"
                        ));
                    }
                    op_ms.push(ms);
                }
                RequestOutcome::Overloaded { .. } => {
                    self.overloaded += 1;
                    failed += 1;
                }
                RequestOutcome::Failed { .. } | RequestOutcome::Draining => failed += 1,
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        self.socket_pass_s.push(wall_s);
        self.failed += failed;
        Ok(Pass {
            wall_s,
            items: self.requests.len() as u64,
            failed,
            op_ms,
        })
    }

    fn composed(&mut self, tr: &mut Tracer) -> Result<f64, String> {
        let mut got = Vec::with_capacity(self.requests.len());
        let (done, wall_s) = timed(|| {
            for i in 0..self.requests.len() {
                let s = tr.begin("serve.request", self.next_id);
                let r = self.compose_request(tr, i);
                tr.end(s);
                got.push(r?);
            }
            Ok::<(), String>(())
        });
        done?;
        if got != self.expected {
            return Err("composed payloads differ from Backend::execute".into());
        }
        Ok(wall_s)
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("serve.overloaded", self.overloaded as f64),
            ("serve.failed", self.failed as f64),
        ]
    }

    fn wait_share_pct(&self, untraced_composed_s: f64) -> f64 {
        let mut socket = self.socket_pass_s.clone();
        socket.sort_by(f64::total_cmp);
        if socket.is_empty() {
            return 0.0;
        }
        let s = median(&socket);
        100.0 * (s - untraced_composed_s) / s
    }

    fn finish(mut self: Box<Self>) -> Result<(), String> {
        let mut client = self.client.take().ok_or("client closed")?;
        client.drain(u64::MAX).map_err(|e| format!("drain: {e}"))?;
        let server = self.server.take().ok_or("daemon gone")?;
        let exit = server
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))?;
        eprintln!(
            "schedule: daemon served {} requests, shed {}",
            exit.served, exit.shed
        );
        Ok(())
    }
}
