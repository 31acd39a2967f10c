//! Measurement core of the `mps-perf` benchmark: order statistics, a span
//! recorder with self-time attribution, a Chrome trace-event writer, the
//! machine block, and hand-rolled JSON output (the benchmark adds no
//! dependencies).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

// ---------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------

/// Nearest-rank quantile of an ascending sample: the smallest value with
/// at least `q · n` samples at or below it. Panics on an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    sorted[rank(q, n).clamp(1, n) - 1]
}

/// 1-based nearest rank of quantile `q` in `n` samples. The tolerance
/// keeps `0.999 · 10000` (which is 9990.000000000002 in floating point)
/// at rank 9990.
fn rank(q: f64, n: usize) -> usize {
    (q * n as f64 - 1e-9).ceil() as usize
}

/// Median (nearest-rank) of an ascending sample.
pub fn median(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.5)
}

/// Summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    /// Highest percentile with at least ten samples beyond it, and its
    /// value; `None` below twenty samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `values` (any order). Panics on an empty sample.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let med = median(&v);
        let mut dev: Vec<f64> = v.iter().map(|x| (x - med).abs()).collect();
        dev.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            median: med,
            q1: quantile(&v, 0.25),
            q3: quantile(&v, 0.75),
            min: v[0],
            mad: median(&dev),
            tail: tail_percentile(v.len()).map(|p| (p, quantile(&v, p / 100.0))),
        }
    }

    /// The summary as a JSON object.
    pub fn to_json(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(r#"{{"pct": {}, "value": {}}}"#, num(p), num(v)),
            None => "null".to_string(),
        };
        format!(
            r#"{{"n": {}, "median": {}, "q1": {}, "q3": {}, "min": {}, "mad": {}, "tail": {tail}}}"#,
            self.n,
            num(self.median),
            num(self.q1),
            num(self.q3),
            num(self.min),
            num(self.mad),
        )
    }
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that
/// leaves at least ten of `n` samples strictly above its nearest rank —
/// the tail a sample of that size can actually resolve.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n >= rank(p / 100.0, n) + 10)
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One timed call into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer and call, `module.call`.
    pub name: &'static str,
    /// Cell, request, or job the call worked for.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// In-memory span recorder. A disabled tracer records nothing and never
/// reads the clock, so the same composed pass runs traced and untraced.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (see [`Tracer::begin`]).
#[must_use = "a span must be closed with Tracer::end"]
pub struct Open(usize);

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(usize::MAX);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Closes the innermost open span, which must be `span`.
    pub fn end(&mut self, span: Open) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(span.0), "spans closed out of order");
        self.spans[span.0].end_ns = end;
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, id);
        let r = f();
        self.end(s);
        r
    }

    /// Spans recorded since the last [`Tracer::clear`].
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops the recorded spans (keeping the buffer).
    pub fn clear(&mut self) {
        assert!(self.open.is_empty(), "clearing with open spans");
        self.spans.clear();
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part of it that the
/// union of its children's intervals covers (children may overlap each
/// other or stick out of the parent; only the covered part counts).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per-layer totals accumulated over traced passes.
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    /// Calls recorded.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Self time of every call, nanoseconds.
    pub self_samples: Vec<u64>,
}

/// Layer attribution over a set of traced passes.
#[derive(Debug, Default)]
pub struct Profile {
    /// Layers by span name.
    pub layers: BTreeMap<&'static str, LayerStats>,
    /// Traced passes absorbed.
    pub passes: u64,
    /// Summed wall time of those passes, nanoseconds.
    pub wall_ns: u64,
}

impl Profile {
    /// Adds one traced pass that took `wall_ns`.
    pub fn absorb(&mut self, spans: &[Span], wall_ns: u64) {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let l = self.layers.entry(s.name).or_default();
            l.calls += 1;
            l.self_ns += own;
            l.self_samples.push(own);
        }
        self.passes += 1;
        self.wall_ns += wall_ns;
    }

    /// Calls of `layer` per pass.
    pub fn calls_per_pass(&self, layer: &str) -> f64 {
        self.layers
            .get(layer)
            .map_or(0.0, |l| l.calls as f64 / self.passes.max(1) as f64)
    }

    /// Self time of `layer` as a percentage of the traced wall time.
    pub fn share_pct(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |l| {
            100.0 * l.self_ns as f64 / self.wall_ns.max(1) as f64
        })
    }

    /// Median self time of one `layer` call, microseconds.
    pub fn self_us_p50(&self, layer: &str) -> Option<f64> {
        let l = self.layers.get(layer)?;
        let v: Vec<f64> = l.self_samples.iter().map(|&ns| ns as f64 / 1e3).collect();
        (!v.is_empty()).then(|| Summary::of(&v).median)
    }

    /// Summed self time of every span as a percentage of the traced wall
    /// time: how much of a pass the spans account for.
    pub fn coverage_pct(&self) -> f64 {
        let covered: u64 = self.layers.values().map(|l| l.self_ns).sum();
        100.0 * covered as f64 / self.wall_ns.max(1) as f64
    }
}

/// Renders spans as Chrome trace-event JSON (complete `X` events in
/// microseconds on one thread), the format Perfetto and
/// `chrome://tracing` open. `meta` goes to `otherData`.
pub fn chrome_trace(spans: &[Span], meta: &[(&str, String)]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let cat = s.name.split('.').next().unwrap_or(s.name);
        let parent = s.parent.map_or("null".to_string(), |p| str(spans[p].name));
        let _ = write!(
            out,
            r#"{{"name": {}, "cat": {}, "ph": "X", "ts": {}, "dur": {}, "pid": 1, "tid": 1, "args": {{"id": {}, "parent": {parent}}}}}"#,
            str(s.name),
            str(cat),
            num(s.start_ns as f64 / 1e3),
            num((s.end_ns - s.start_ns) as f64 / 1e3),
            s.id,
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("], \"displayTimeUnit\": \"ms\", \"otherData\": {");
    let fields: Vec<String> = meta
        .iter()
        .map(|(k, v)| format!("{}: {}", str(k), str(v)))
        .collect();
    out.push_str(&fields.join(", "));
    out.push_str("}}\n");
    out
}

// ---------------------------------------------------------------------
// Machine block
// ---------------------------------------------------------------------

/// What the numbers were measured on.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: String,
}

impl Machine {
    /// Probes the running machine; unknown fields read `unknown`.
    pub fn probe() -> Machine {
        let unknown = || "unknown".to_string();
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| unknown());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(unknown);
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            kernel,
            rustc,
            commit: git_head(std::path::Path::new(".git")).unwrap_or_else(unknown),
        }
    }

    /// Key/value pairs, for the report and the trace file.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("nproc", self.nproc.to_string()),
            ("cpu", self.cpu.clone()),
            ("kernel", self.kernel.clone()),
            ("rustc", self.rustc.clone()),
            ("commit", self.commit.clone()),
        ]
    }

    /// The block as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"nproc": {}, "cpu": {}, "kernel": {}, "rustc": {}, "commit": {}}}"#,
            self.nproc,
            str(&self.cpu),
            str(&self.kernel),
            str(&self.rustc),
            str(&self.commit)
        )
    }
}

/// Resolves `HEAD` of a git directory by reading its files (no `git`
/// process): a detached hash, a loose ref, or a packed ref.
fn git_head(git: &std::path::Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => match std::fs::read_to_string(git.join(r)) {
            Ok(h) => h.trim().to_string(),
            Err(_) => std::fs::read_to_string(git.join("packed-refs"))
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))?,
        },
    };
    Some(hash.chars().take(12).collect())
}

// ---------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------

/// A JSON string literal.
pub fn str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of `v` (shortest round-trip form);
/// `null` for a non-finite value, which JSON cannot carry.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The benchmark's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics` (`{"name": {"value": v, "unit": u}}`).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#"{}: {{"value": {}, "unit": {}}}"#,
                str(&m.name),
                num(m.value),
                str(m.unit)
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nearest_rank_quantiles_match_known_values() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.0);
        assert_eq!(quantile(&v, 0.25), 3.0);
        assert_eq!(quantile(&v, 0.75), 8.0);
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(median(&[7.0]), 7.0);

        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 100.0]);
        assert_eq!((s.n, s.median, s.q1, s.q3, s.min), (5, 3.0, 2.0, 4.0, 1.0));
        // |x − 3| = 1, 2, 0, 1, 97 → median 1.
        assert_eq!(s.mad, 1.0);
        assert_eq!(s.tail, None);
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.tail, Some((99.0, 990.0)));
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,30) ⊃ aa [15,20); b [40,90).
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("aa", Some(1), 15, 20),
            span("b", Some(0), 40, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 15, 5, 50]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,50) and [30,70) overlap on [30,50); [60,120)
        // sticks out of the parent [0,100). Covered: [10,100) = 90.
        let spans = [
            span("p", None, 0, 100),
            span("c", Some(0), 10, 50),
            span("c", Some(0), 30, 70),
            span("c", Some(0), 60, 120),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn tracer_nests_and_profile_attributes() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("exp.cell", 7);
        let v = tr.leaf("sched.allocate", 7, || 42);
        tr.end(outer);
        assert_eq!(v, 42);
        let spans = tr.spans().to_vec();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].id, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut p = Profile::default();
        let wall = spans[0].end_ns - spans[0].start_ns;
        p.absorb(&spans, wall);
        assert_eq!(p.calls_per_pass("sched.allocate"), 1.0);
        assert_eq!(p.calls_per_pass("serve.work"), 0.0);
        assert!((p.coverage_pct() - 100.0).abs() < 1e-9);

        let mut off = Tracer::new(false);
        let s = off.begin("x", 0);
        off.end(s);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_has_the_event_shape_perfetto_reads() {
        let spans = [
            span("exp.cell", None, 1000, 5000),
            span("sim.simulate", Some(0), 1500, 2500),
        ];
        let json = chrome_trace(&spans, &[("cpu", "x \"y\"".to_string())]);
        let v: serde::Value = serde_json::from_str(&json).expect("trace is valid JSON");
        let serde::Value::Seq(events) = v.get("traceEvents").expect("traceEvents") else {
            panic!("traceEvents is not an array");
        };
        assert_eq!(events.len(), 2);
        let e = &events[1];
        assert_eq!(
            e.get("name"),
            Some(&serde::Value::Str("sim.simulate".into()))
        );
        assert_eq!(e.get("cat"), Some(&serde::Value::Str("sim".into())));
        assert_eq!(e.get("ph"), Some(&serde::Value::Str("X".into())));
        assert!(matches!(e.get("ts"), Some(serde::Value::Float(f)) if *f == 1.5));
        assert!(
            matches!(e.get("dur"), Some(serde::Value::Float(f)) if *f == 1.0)
                || matches!(e.get("dur"), Some(serde::Value::UInt(1)))
        );
        let args = e.get("args").expect("args");
        assert_eq!(
            args.get("parent"),
            Some(&serde::Value::Str("exp.cell".into()))
        );
        assert_eq!(
            v.get("otherData").and_then(|o| o.get("cpu")),
            Some(&serde::Value::Str("x \"y\"".into()))
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::new("setup_s", 0.125, "s"),
                Metric::new("bad", f64::NAN, "ms"),
            ],
        );
        let v: serde::Value = serde_json::from_str(&line).expect("valid JSON");
        let serde::Value::Map(keys) = &v else {
            panic!()
        };
        let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("unit"), Some(&serde::Value::Str("s".into())));
        assert!(matches!(m.get("value"), Some(serde::Value::Float(f)) if *f == 0.125));
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("bad"))
                .and_then(|m| m.get("value")),
            Some(&serde::Value::Null)
        );
    }

    #[test]
    fn json_strings_escape_control_characters() {
        assert_eq!(str("a\"b\\c\nd\u{1}"), r#""a\"b\\c\nd\u0001""#);
        assert_eq!(num(0.1), "0.1");
        assert_eq!(num(f64::INFINITY), "null");
    }
}
