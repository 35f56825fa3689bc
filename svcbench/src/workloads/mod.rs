//! The three workloads and the state they share: the timed-phase record,
//! the span recorder, the check tally and the metric assembly.
//!
//! Every workload is a closed loop with one client thread: the next
//! request is issued only after the previous one returned and was checked.
//! Only the service calls themselves are inside the timed regions; input
//! generation, checks, quality scoring and trace probes run between them.

mod cold;
mod drift;
mod hot;

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use twoqan::pipeline::Compiler;
use twoqan_baselines::CompilerRegistry;
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_service::{cache_key, stable_key, CompileService, ServiceError, ServiceResponse};

use crate::checks::QualitySums;
use crate::inputs::Digest;
use crate::json::Metric;
use crate::stats;
use crate::sys::{peak_rss_mb, process_cpu_ns};
use crate::trace::{Kind, SpanId, Totals, Tracer};
use crate::COMPILER;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// How many check failures are printed.
const SHOWN_FAILURES: u64 = 5;

/// A workload's name and entry point.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Runs the workload.
    pub run: fn(&RunConfig) -> Outcome,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cold-portfolio",
        run: cold::run,
    },
    Workload {
        name: "hot-hits",
        run: hot::run,
    },
    Workload {
        name: "drift-recompile",
        run: drift::run,
    },
];

/// The command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Length of the timed phase (sum of the timed regions), seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed a check or returned an error.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
}

/// Which service entry point a request uses.
#[derive(Debug, Clone, Copy)]
pub enum Call {
    /// `CompileService::request`.
    Request,
    /// `CompileService::recompile`.
    Recompile,
}

/// One issued service call.
pub struct Served {
    /// Request identifier (shared by its spans).
    pub request: u64,
    /// What the service answered.
    pub response: Result<ServiceResponse, ServiceError>,
    start: Instant,
    wall_ns: u64,
    cpu_ns: u64,
}

impl Served {
    /// The response, or the service error as a check failure.
    pub fn ok(&self) -> Result<&ServiceResponse, String> {
        self.response
            .as_ref()
            .map_err(|e| format!("service error: {e}"))
    }
}

/// The spans [`Session::trace`] recorded for one call.
#[derive(Debug, Clone, Copy)]
pub struct Traced {
    /// The call's own span.
    pub root: SpanId,
    /// Its qap-mapping pass, the parent of distance-matrix probes, when the
    /// call compiled.
    pub qap: Option<SpanId>,
}

/// Run-wide state shared by the workloads.
pub struct Session {
    config: RunConfig,
    /// The registry's `2QAN-noise`, used for probes and independent checks
    /// (the service registers its own instance).
    pub compiler: Box<dyn Compiler>,
    tracer: Tracer,
    next_request: u64,
    /// Set-up durations, seconds.
    pub setup_s: Vec<f64>,
    /// Digest of the generated inputs.
    pub digest: Digest,
    /// Quality sums over the workload's fixed quality set.
    pub quality: QualitySums,
    // Latency samples in nanoseconds (saturating at 4.29 s), kept compact
    // because hot-hits collects hundreds of thousands and peak RSS is a
    // metric.
    untraced_ns: Vec<u32>,
    untraced_class: Vec<u8>,
    traced_ns: Vec<u32>,
    timed_ns: u64,
    timed_cpu_ns: u64,
    timed_requests: u64,
    timed_hits: u64,
    timed_warm: u64,
    timed_roots: Vec<SpanId>,
    /// First request id of the timed phase.
    timed_from: u64,
    /// Candidates per traced compile, with the compile's request id.
    candidates: Vec<(u64, usize)>,
    /// Entries dropped per traced invalidation, with its request id.
    invalidated: Vec<(u64, usize)>,
    attempted: u64,
    failed: u64,
}

impl Session {
    /// A fresh session for one run.
    pub fn new(config: &RunConfig) -> Self {
        Self {
            config: *config,
            compiler: CompilerRegistry::by_name(COMPILER)
                .expect("the registry builds 2QAN-noise by name"),
            tracer: Tracer::new(),
            next_request: 0,
            setup_s: Vec::new(),
            digest: Digest::default(),
            quality: QualitySums::default(),
            untraced_ns: Vec::new(),
            untraced_class: Vec::new(),
            traced_ns: Vec::new(),
            timed_ns: 0,
            timed_cpu_ns: 0,
            timed_requests: 0,
            timed_hits: 0,
            timed_warm: 0,
            timed_roots: Vec::new(),
            timed_from: u64::MAX,
            candidates: Vec::new(),
            invalidated: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Marks the end of the set-up: later calls belong to the timed phase
    /// (or to the untimed rest of the quality set).
    pub fn start_timed_phase(&mut self) {
        self.timed_from = self.next_request;
    }

    /// Whether the timed phase still has time left.
    pub fn timing(&self) -> bool {
        (self.timed_ns as f64) / 1e9 < self.config.seconds
    }

    /// Issues one service call, with wall and process CPU time taken
    /// tightly around it.
    pub fn call(
        &mut self,
        service: &CompileService,
        call: Call,
        circuit: &Circuit,
        device: &Device,
    ) -> Served {
        let request = self.next_request;
        self.next_request += 1;
        let cpu0 = process_cpu_ns();
        let start = Instant::now();
        let response = match call {
            Call::Request => service.request(COMPILER, circuit, device),
            Call::Recompile => service.recompile(COMPILER, circuit, device),
        };
        let wall_ns = start.elapsed().as_nanos() as u64;
        let cpu_ns = process_cpu_ns() - cpu0;
        Served {
            request,
            response,
            start,
            wall_ns,
            cpu_ns,
        }
    }

    /// Counts a served call into the timed phase; `class` indexes the
    /// workload's class list, and `root` is the call's span when it was
    /// traced (traced calls are kept apart from the untraced ones the
    /// end-to-end metrics use).
    pub fn count_timed(&mut self, served: &Served, class: usize, root: Option<SpanId>) {
        let ns = u32::try_from(served.wall_ns).unwrap_or(u32::MAX);
        match root {
            Some(root) => {
                self.traced_ns.push(ns);
                self.timed_roots.push(root);
            }
            None => {
                self.untraced_ns.push(ns);
                self.untraced_class
                    .push(u8::try_from(class).expect("workloads have few classes"));
            }
        }
        self.timed_ns += served.wall_ns;
        self.timed_cpu_ns += served.cpu_ns;
        self.timed_requests += 1;
        if let Ok(r) = &served.response {
            self.timed_hits += u64::from(r.hit);
            self.timed_warm += u64::from(r.warm);
        }
    }

    /// `invalidate_device` on `device`; counted into the timed phase when
    /// `timed` (it is on the calibration loop's path) and traced when
    /// `traced`.
    pub fn invalidate(
        &mut self,
        service: &CompileService,
        device: &Device,
        traced: bool,
        timed: bool,
    ) -> usize {
        let request = self.next_request;
        self.next_request += 1;
        let cpu0 = process_cpu_ns();
        let start = Instant::now();
        let dropped = service.invalidate_device(device);
        let wall_ns = start.elapsed().as_nanos() as u64;
        let cpu_ns = process_cpu_ns() - cpu0;
        if timed {
            self.timed_ns += wall_ns;
            self.timed_cpu_ns += cpu_ns;
        }
        if traced {
            let start_ns = self.tracer.offset_ns(start);
            self.tracer.record(
                "service.invalidate_device",
                request,
                None,
                start_ns,
                wall_ns,
                Kind::Call,
            );
            self.invalidated.push((request, dropped));
        }
        dropped
    }

    /// Records the spans of a served call: the call itself, probes of the
    /// key derivations it performed, and the compile and pass clocks the
    /// program reported.  `warm_seed` is the placement a warm recompile
    /// started from.
    pub fn trace(
        &mut self,
        served: &Served,
        circuit: &Circuit,
        device: &Device,
        warm_seed: Option<&[usize]>,
    ) -> Traced {
        let request = served.request;
        let name = match &served.response {
            Err(_) => "service.error",
            Ok(r) if r.hit => "service.hit",
            Ok(r) if r.warm => "service.warm",
            Ok(_) => "service.miss",
        };
        let start_ns = self.tracer.offset_ns(served.start);
        let root = self
            .tracer
            .record(name, request, None, start_ns, served.wall_ns, Kind::Call);
        let mut traced = Traced { root, qap: None };
        let Ok(r) = &served.response else {
            return traced;
        };
        let compiler = self.compiler.as_ref();
        self.tracer
            .probe("service.cache_key", request, Some(root), || {
                cache_key(compiler, circuit, device)
            });
        if r.hit {
            return traced;
        }
        self.tracer
            .probe("service.stable_key", request, Some(root), || {
                stable_key(compiler, circuit, device)
            });
        if let (true, Some(seed)) = (r.warm, warm_seed) {
            let (warm, _) = self
                .tracer
                .probe("core.warm_clone", request, Some(root), || {
                    compiler.warm_clone(seed)
                });
            if let Some(warm) = warm {
                self.tracer
                    .probe("service.warm_key", request, Some(root), || {
                        cache_key(warm.as_ref(), circuit, device)
                    });
            }
        }
        if r.compile_ms <= 0.0 {
            return traced;
        }
        // The compile ends where the call ends (only the insert and the
        // placement record follow it); its passes run back to back.
        let compile_ns = (r.compile_ms * 1e6) as u64;
        let mut at = (start_ns + served.wall_ns).saturating_sub(compile_ns);
        let compile = self.tracer.record(
            "core.compile",
            request,
            Some(root),
            at,
            compile_ns,
            Kind::Reported,
        );
        self.candidates.push((request, r.output.report.trials));
        for pass in &r.output.report.passes {
            let dur = (pass.wall_ms * 1e6) as u64;
            let id = self.tracer.record(
                pass_span(pass.name),
                request,
                Some(compile),
                at,
                dur,
                Kind::Reported,
            );
            if pass.name == "qap-mapping" {
                traced.qap = Some(id);
            }
            at += dur;
        }
        traced
    }

    /// Probes the distance matrices on `copy`, an un-warmed copy of a
    /// snapshot, attributed to the qap-mapping pass that built them.
    pub fn probe_distances(
        &mut self,
        copy: &Device,
        request: u64,
        parent: Option<SpanId>,
        hop: bool,
    ) {
        if hop {
            self.tracer
                .probe("device.hop_distances", request, parent, || copy.distances());
        }
        self.tracer
            .probe("device.weighted_distances", request, parent, || {
                copy.weighted_distances()
            });
    }

    /// Tallies one request (or gate): attempted, and failed unless
    /// `verdict` is Ok.
    pub fn settle<T>(&mut self, verdict: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match verdict {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= SHOWN_FAILURES {
                    eprintln!("check failed: {e}");
                }
                None
            }
        }
    }

    /// Records a run-level gate (statevector, prefill identity, set-up
    /// sanity); it counts as one attempt, and a failed gate fails the run.
    pub fn gate(&mut self, what: &str, verdict: Result<(), String>) {
        self.settle(verdict.map_err(|e| format!("{what}: {e}")));
    }

    /// Prints the run's report lines and returns its outcome: end-to-end
    /// metrics for an untraced run, per-layer metrics (and the span file)
    /// for a traced one.
    pub fn finish(self, workload: &str, classes: &[String]) -> Outcome {
        // Before the analysis below allocates anything.
        let peak_rss_mb = peak_rss_mb();
        let to_ms = |ns: &[u32]| ns.iter().map(|&v| f64::from(v) / 1e6).collect::<Vec<f64>>();
        let untraced_ms = to_ms(&self.untraced_ns);
        let traced_ms = to_ms(&self.traced_ns);
        println!("inputs digest: {:016x}", self.digest.value());
        println!(
            "set-ups (s): {}",
            self.setup_s
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        println!(
            "timed phase: {} requests in {:.3} s; quality set: {} artifacts",
            self.timed_requests,
            self.timed_ns as f64 / 1e9,
            self.quality.count()
        );
        let correct = self.failed == 0 && self.attempted > 0;
        let metrics = if self.config.trace {
            let metrics = self.per_layer(&untraced_ms, &traced_ms);
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("trace-out")
                .join(format!("{workload}-seed{}.jsonl", self.config.seed));
            match self.tracer.write_jsonl_file(&path) {
                Ok(()) => println!(
                    "spans: {} written to {}",
                    self.tracer.spans().len(),
                    path.display()
                ),
                Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
            }
            metrics
        } else {
            self.print_bands(classes, &untraced_ms);
            self.end_to_end(&untraced_ms, peak_rss_mb)
        };
        for m in &metrics {
            println!("{:<30} {:>16.6} {}", m.name, m.value, m.unit);
        }
        Outcome {
            correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }

    fn print_bands(&self, classes: &[String], untraced_ms: &[f64]) {
        if untraced_ms.is_empty() {
            return;
        }
        let sorted = stats::sorted(untraced_ms);
        let p50 = stats::percentile(&sorted, 50.0);
        let tail = stats::tail(&sorted);
        println!(
            "latency: p50 {p50:.4} ms, tail p{:.2} {:.4} ms ({} samples, {} beyond)",
            tail.percentile, tail.value, tail.samples, tail.beyond
        );
        let class_of: Vec<usize> = self
            .untraced_class
            .iter()
            .map(|&c| usize::from(c))
            .collect();
        let bands = stats::bands(&class_of, untraced_ms, classes.len());
        let mut holds_p50 = Vec::new();
        let mut holds_tail = Vec::new();
        for (label, band) in classes.iter().zip(&bands) {
            let Some(b) = band else { continue };
            println!(
                "  band {label:<32} n={:<6} min {:>10.4}  p50 {:>10.4}  max {:>10.4} ms",
                b.samples, b.min, b.p50, b.max
            );
            if b.contains(p50) {
                holds_p50.push(label.as_str());
            }
            if b.contains(tail.value) {
                holds_tail.push(label.as_str());
            }
        }
        println!("  p50 lies in: {}", holds_p50.join(", "));
        println!("  tail lies in: {}", holds_tail.join(", "));
    }

    fn end_to_end(&self, untraced_ms: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
        let n = untraced_ms.len().max(1) as f64;
        let sorted = stats::sorted(untraced_ms);
        let (p50, tail) = if sorted.is_empty() {
            (0.0, 0.0)
        } else {
            (stats::percentile(&sorted, 50.0), stats::tail(&sorted).value)
        };
        let q = self.quality.means();
        vec![
            Metric::new("setup_s", stats::median(&self.setup_s), "s"),
            Metric::new("latency_p50_ms", p50, "ms"),
            Metric::new("latency_tail_ms", tail, "ms"),
            Metric::new(
                "throughput_rps",
                n / (self.timed_ns.max(1) as f64 / 1e9),
                "1/s",
            ),
            Metric::new("cpu_ms_per_req", self.timed_cpu_ns as f64 / 1e6 / n, "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
            Metric::new(
                "ok_share",
                (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64,
                "ratio",
            ),
            Metric::new("swaps_mean", q.swaps, "count"),
            Metric::new("twoq_gates_mean", q.twoq_gates, "count"),
            Metric::new("twoq_depth_mean", q.twoq_depth, "layers"),
            Metric::new("duration_us_mean", q.duration_us, "us"),
            Metric::new("log10_inv_esp_mean", q.log10_inv_esp, "log10"),
        ]
    }

    fn per_layer(&self, untraced_ms: &[f64], traced_ms: &[f64]) -> Vec<Metric> {
        // Each layer is measured on the timed phase's traced calls; a layer
        // the timed phase bypasses is measured on the set-up's calls of it.
        let timed_from = self.timed_from;
        let timed = self.tracer.totals(|s| s.request >= timed_from);
        let setup = self.tracer.totals(|s| s.request < timed_from);
        let phase = |names: &[&str]| {
            if names.iter().any(|n| timed.contains_key(n)) {
                &timed
            } else {
                &setup
            }
        };
        let get =
            |map: &BTreeMap<&str, Totals>, name: &str| map.get(name).copied().unwrap_or_default();
        let t = |name: &str| get(phase(&[name]), name);
        let by_phase = |values: &[(u64, usize)]| {
            let in_timed: Vec<usize> = values
                .iter()
                .filter(|(r, _)| *r >= timed_from)
                .map(|&(_, v)| v)
                .collect();
            if in_timed.is_empty() {
                mean_usize(&values.iter().map(|&(_, v)| v).collect::<Vec<_>>())
            } else {
                mean_usize(&in_timed)
            }
        };
        let misses_phase = phase(&["service.miss", "service.warm"]);
        let (miss, warm) = (
            get(misses_phase, "service.miss"),
            get(misses_phase, "service.warm"),
        );
        let misses = (miss.count + warm.count).max(1) as f64;
        let requests = self.timed_requests.max(1) as f64;
        let candidates = by_phase(&self.candidates);
        let workers = twoqan::pool::max_useful_workers().max(1) as f64;

        // Share of traced timed request wall time that no leaf layer span
        // (key probes, passes) covers: the calls' and compiles' self time.
        let selfs = self.tracer.self_ns();
        let spans = self.tracer.spans();
        let roots: HashSet<SpanId> = self.timed_roots.iter().copied().collect();
        let (mut wall, mut unattributed) = (0u64, 0u64);
        for &r in &self.timed_roots {
            wall += spans[r].dur_ns;
            unattributed += selfs[r];
        }
        for (s, own) in spans.iter().zip(&selfs) {
            if s.name == "core.compile" && s.parent.is_some_and(|p| roots.contains(&p)) {
                unattributed += own;
            }
        }
        let overhead = if traced_ms.is_empty() || untraced_ms.is_empty() {
            0.0
        } else {
            stats::median(traced_ms) / stats::median(untraced_ms) - 1.0
        };

        vec![
            Metric::new("service.key_us", t("service.cache_key").mean_dur(1e3), "us"),
            Metric::new("service.hit_self_us", t("service.hit").mean_self(1e3), "us"),
            Metric::new(
                "service.stable_key_us",
                t("service.stable_key").mean_dur(1e3),
                "us",
            ),
            Metric::new(
                "service.miss_self_ms",
                (miss.self_ns + warm.self_ns) as f64 / misses / 1e6,
                "ms",
            ),
            Metric::new(
                "service.invalidate_ms",
                t("service.invalidate_device").mean_dur(1e6),
                "ms",
            ),
            Metric::new(
                "service.invalidated_entries",
                by_phase(&self.invalidated),
                "count",
            ),
            Metric::new(
                "service.hit_share",
                self.timed_hits as f64 / requests,
                "ratio",
            ),
            Metric::new(
                "service.warm_share",
                self.timed_warm as f64 / requests,
                "ratio",
            ),
            Metric::new("core.compile_ms", t("core.compile").mean_dur(1e6), "ms"),
            Metric::new("core.candidates", candidates, "count"),
            Metric::new(
                "core.kept_share",
                if candidates > 0.0 {
                    1.0 / candidates
                } else {
                    0.0
                },
                "ratio",
            ),
            Metric::new(
                "core.qap_mapping_ms",
                t("core.qap_mapping").mean_dur(1e6),
                "ms",
            ),
            Metric::new(
                "core.alap_schedule_ms",
                t("core.alap_schedule").mean_dur(1e6),
                "ms",
            ),
            Metric::new("core.unify_ms", t("core.unify").mean_dur(1e6), "ms"),
            Metric::new("core.routing_ms", t("core.routing").mean_dur(1e6), "ms"),
            Metric::new("core.decompose_ms", t("core.decompose").mean_dur(1e6), "ms"),
            Metric::new(
                "core.portfolio_self_ms",
                t("core.compile").mean_self(1e6),
                "ms",
            ),
            Metric::new(
                "device.hop_distances_ms",
                t("device.hop_distances").mean_dur(1e6),
                "ms",
            ),
            Metric::new(
                "device.weighted_distances_ms",
                t("device.weighted_distances").mean_dur(1e6),
                "ms",
            ),
            Metric::new(
                "pool.busy_share",
                self.timed_cpu_ns as f64 / (self.timed_ns.max(1) as f64 * workers),
                "ratio",
            ),
            Metric::new(
                "trace.unattributed_share",
                unattributed as f64 / wall.max(1) as f64,
                "ratio",
            ),
            Metric::new("trace.overhead_share", overhead, "ratio"),
        ]
    }
}

/// The span name of a pipeline pass.
fn pass_span(pass: &'static str) -> &'static str {
    match pass {
        "unify" => "core.unify",
        "qap-mapping" => "core.qap_mapping",
        "permutation-routing" => "core.routing",
        "alap-schedule" => "core.alap_schedule",
        "decompose" => "core.decompose",
        other => other,
    }
}

fn mean_usize(values: &[usize]) -> f64 {
    values.iter().sum::<usize>() as f64 / values.len().max(1) as f64
}
