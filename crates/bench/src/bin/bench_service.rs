//! Emits `BENCH_service.json`: the compile service under concurrent
//! clients.
//!
//! The bench builds a request *population* — every (device, workload,
//! compiler) combination over the registered devices — and samples it from
//! a zipf(s) popularity distribution, so a hot head of repeated requests
//! hits the content-addressed cache while the cold tail keeps compiling.
//! On fresh services it runs a single-client baseline, then a contended
//! phase (N barrier-started threads replaying overlapping zipf streams
//! against one service), then a barrier-started same-key storm that must
//! coalesce onto exactly one compile.  Usage:
//!
//! ```text
//! cargo run --release -p twoqan-bench --bin bench_service -- \
//!     [--requests N] [--zipf S] [--seed SEED] [--clients N] [--out PATH]
//! cargo run --release -p twoqan-bench --bin bench_service -- --smoke \
//!     [--clients N] [--out PATH]
//! cargo run --release -p twoqan-bench --bin bench_service -- --check PATH \
//!     [--tolerance PCT]
//! ```
//!
//! Defaults: 2000 requests, zipf exponent 1.1, seed 42, 4 clients, output
//! to `BENCH_service.json` in the current directory.  Every run exits
//! non-zero if the same-key storm performs more than one compile.
//! `--smoke` is the CI mode: a small population, 120 contended requests
//! and a 400-request storm.  `--check PATH` re-measures the contended p99
//! (best-of-two runs at the committed client count) and exits non-zero if
//! it regressed more than `--tolerance` percent (default 50) against the
//! committed baseline at PATH.  See `BENCHMARKS.md` for the output schema.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;
use twoqan_baselines::CompilerRegistry;
use twoqan_bench::report::percentile;
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_ham::{nnn_heisenberg, nnn_ising, trotter_step};
use twoqan_service::{CompileService, ServiceConfig, StatsSnapshot};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One member of the request population.
struct Combo {
    compiler: &'static str,
    device_idx: usize,
    circuit_idx: usize,
}

/// The fixed request population: every registered compiler on every
/// (device, workload) pair.  `smoke` shrinks it to one device and two
/// workloads so the CI run stays fast.
fn build_population(smoke: bool) -> (Vec<Device>, Vec<Circuit>, Vec<Combo>) {
    // One small uniform device, one mid-size uniform device, and one with a
    // heterogeneous calibration snapshot so the noise-aware portfolio
    // (`2QAN-noise`) compiles something the uniform path would not.
    let devices = if smoke {
        vec![Device::aspen()]
    } else {
        vec![
            Device::aspen(),
            Device::montreal(),
            Device::montreal().with_heterogeneous_calibration(7),
        ]
    };
    let sizes: &[usize] = if smoke { &[6, 8] } else { &[8, 10, 12, 16] };
    let circuits: Vec<Circuit> = sizes
        .iter()
        .flat_map(|&n| {
            [
                trotter_step(&nnn_ising(n, 1), 1.0),
                trotter_step(&nnn_heisenberg(n, 2), 1.0),
            ]
        })
        .collect();
    let mut names: Vec<&'static str> = CompilerRegistry::NAMES.to_vec();
    names.push("2QAN-noise");
    let mut combos = Vec::new();
    for device_idx in 0..devices.len() {
        for circuit_idx in 0..circuits.len() {
            for &compiler in &names {
                combos.push(Combo {
                    compiler,
                    device_idx,
                    circuit_idx,
                });
            }
        }
    }
    (devices, circuits, combos)
}

/// Cumulative zipf(s) distribution over `n` ranks: rank `i` has weight
/// `1 / (i + 1)^s`.  Sampling is a uniform draw + binary search.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for i in 0..n {
        total += ((i + 1) as f64).powf(-s);
        cdf.push(total);
    }
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

fn sample_rank(cdf: &[f64], rng: &mut StdRng) -> usize {
    let u = rng.gen::<f64>();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

struct ClientNumbers {
    population: usize,
    clients: usize,
    requests: usize,
    elapsed_s: f64,
    single_requests: usize,
    single_elapsed_s: f64,
    contended_ms: Vec<f64>,
    per_client_rps: Vec<f64>,
    coalesced: u64,
    rejected: u64,
    storm_requests: usize,
    storm_compiles: u64,
    storm_coalesced: u64,
    host_cores: usize,
}

/// Drives one client's zipf stream against a shared service, returning its
/// per-request wall times and the client's own elapsed seconds.
fn drive_zipf_stream(
    service: &CompileService,
    devices: &[Device],
    circuits: &[Circuit],
    combos: &[Combo],
    cdf: &[f64],
    requests: usize,
    seed: u64,
) -> (Vec<f64>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wall_ms = Vec::with_capacity(requests);
    let start = Instant::now();
    for _ in 0..requests {
        let combo = &combos[sample_rank(cdf, &mut rng)];
        let response = service
            .request(
                combo.compiler,
                &circuits[combo.circuit_idx],
                &devices[combo.device_idx],
            )
            .expect("population workloads fit their devices");
        wall_ms.push(response.wall_ms);
    }
    (wall_ms, start.elapsed().as_secs_f64())
}

/// The N-thread contended phase on a fresh service: every client replays an
/// overlapping zipf stream, so hot keys race and coalesce.  Returns the
/// merged per-request wall times, per-client elapsed seconds, the phase
/// elapsed, and the service's counters.
fn run_contended(
    clients: usize,
    requests: usize,
    zipf_s: f64,
    seed: u64,
    smoke: bool,
) -> (Vec<f64>, Vec<f64>, f64, StatsSnapshot) {
    let (devices, circuits, mut combos) = build_population(smoke);
    let mut rng = StdRng::seed_from_u64(seed);
    combos.shuffle(&mut rng);
    let cdf = zipf_cdf(combos.len(), zipf_s);
    let per_client = (requests / clients).max(1);

    let service = CompileService::new(ServiceConfig::default());
    let barrier = Barrier::new(clients);
    let mut merged = Vec::with_capacity(per_client * clients);
    let mut client_elapsed = Vec::with_capacity(clients);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let (service, devices, circuits, combos, cdf, barrier) =
                    (&service, &devices, &circuits, &combos, &cdf, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    drive_zipf_stream(
                        service,
                        devices,
                        circuits,
                        combos,
                        cdf,
                        per_client,
                        seed.wrapping_add(7919 * (client as u64 + 1)),
                    )
                })
            })
            .collect();
        for handle in handles {
            let (wall_ms, elapsed) = handle.join().expect("contended client panicked");
            merged.extend(wall_ms);
            client_elapsed.push(elapsed);
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    (merged, client_elapsed, elapsed_s, service.stats())
}

/// Barrier-started same-key storm on a fresh service: every thread hammers
/// one key at once.  Singleflight must collapse the whole storm onto exactly
/// one compile (`stats.misses == 1`); everything else is a hit or a
/// coalesced follower.
fn run_storm(clients: usize, requests: usize, smoke: bool) -> (usize, StatsSnapshot) {
    let (devices, circuits, combos) = build_population(smoke);
    let combo = &combos[0];
    let per_client = (requests / clients).max(1);
    let service = CompileService::new(ServiceConfig::default());
    let barrier = Barrier::new(clients);
    let failures = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let (service, devices, circuits, barrier, failures) =
                (&service, &devices, &circuits, &barrier, &failures);
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..per_client {
                    let response = service
                        .request(
                            combo.compiler,
                            &circuits[combo.circuit_idx],
                            &devices[combo.device_idx],
                        )
                        .expect("storm workload fits its device");
                    if !(response.hit || response.coalesced || response.cached) {
                        failures.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    assert_eq!(
        failures.load(Ordering::SeqCst),
        0,
        "storm responses must be the leader's, a coalesced copy, or a hit"
    );
    (per_client * clients, service.stats())
}

fn run_clients(
    clients: usize,
    requests: usize,
    zipf_s: f64,
    seed: u64,
    smoke: bool,
) -> ClientNumbers {
    // Single-client baseline on a fresh service: the denominator for the
    // scaling ratio, measured with the same stream shape.
    let (contended_single, _, single_elapsed_s, _) =
        run_contended(1, requests, zipf_s, seed, smoke);
    let single_requests = contended_single.len();

    let (contended_ms, client_elapsed, elapsed_s, stats) =
        run_contended(clients, requests, zipf_s, seed, smoke);
    let per_client = contended_ms.len() / clients;
    let per_client_rps = client_elapsed
        .iter()
        .map(|&s| per_client as f64 / s.max(1e-9))
        .collect();

    let storm_requests = if smoke { 400 } else { 2000 };
    let (storm_total, storm_stats) = run_storm(clients, storm_requests, smoke);

    ClientNumbers {
        population: build_population(smoke).2.len(),
        clients,
        requests: contended_ms.len(),
        elapsed_s,
        single_requests,
        single_elapsed_s,
        contended_ms,
        per_client_rps,
        coalesced: stats.coalesced,
        rejected: stats.rejected,
        storm_requests: storm_total,
        storm_compiles: storm_stats.misses,
        storm_coalesced: storm_stats.coalesced,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

fn write_json(numbers: &mut ClientNumbers, zipf_s: f64, seed: u64, out: &str) {
    let config = ServiceConfig::default();
    let throughput = numbers.requests as f64 / numbers.elapsed_s.max(1e-9);
    let single = numbers.single_requests as f64 / numbers.single_elapsed_s.max(1e-9);
    let p50 = percentile(&mut numbers.contended_ms, 50.0);
    let p99 = percentile(&mut numbers.contended_ms, 99.0);
    let per_client: Vec<String> = numbers
        .per_client_rps
        .iter()
        .map(|rps| format!("{rps:.1}"))
        .collect();
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"compile_service\",\n");
    json.push_str("  \"unit\": \"ms (per-request wall clock)\",\n");
    json.push_str(&format!("  \"population\": {},\n", numbers.population));
    json.push_str(&format!("  \"zipf_s\": {zipf_s},\n"));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str("  \"clients\": {\n");
    json.push_str(&format!("    \"count\": {},\n", numbers.clients));
    json.push_str(&format!("    \"requests\": {},\n", numbers.requests));
    json.push_str(&format!("    \"throughput_rps\": {throughput:.1},\n"));
    json.push_str(&format!(
        "    \"single_client_throughput_rps\": {single:.1},\n"
    ));
    json.push_str(&format!(
        "    \"scaling_vs_single\": {:.3},\n",
        throughput / single.max(1e-9)
    ));
    json.push_str(&format!("    \"host_cores\": {},\n", numbers.host_cores));
    json.push_str(&format!(
        "    \"contended\": {{\"p50_ms\": {p50:.4}, \"p99_ms\": {p99:.4}}},\n"
    ));
    json.push_str(&format!("    \"coalesced\": {},\n", numbers.coalesced));
    json.push_str(&format!("    \"rejected\": {},\n", numbers.rejected));
    json.push_str(&format!(
        "    \"per_client_rps\": [{}],\n",
        per_client.join(", ")
    ));
    json.push_str(&format!(
        "    \"storm\": {{\"requests\": {}, \"compiles\": {}, \"coalesced\": {}}}\n",
        numbers.storm_requests, numbers.storm_compiles, numbers.storm_coalesced
    ));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"cache\": {{\"capacity\": {}, \"shards\": {}}}\n",
        config.capacity, config.shards
    ));
    json.push_str("}\n");
    std::fs::write(out, &json).expect("writing the service baseline file");
    println!("{json}");
    println!("wrote {out}");
}

// ---------------------------------------------------------------------------
// `--check`: the CI perf-regression guard on the contended p99.
// ---------------------------------------------------------------------------

/// Pulls `p99_ms` off the `"contended"` line of a committed
/// `BENCH_service.json` (one object per line, no JSON parser needed).
fn committed_contended_p99(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.contains("\"contended\""))?;
    parse_field(line, "\"p99_ms\": ")
}

/// Pulls the `"count"` off the `"clients"` section's first line.
fn committed_client_count(text: &str) -> Option<usize> {
    let mut lines = text.lines().skip_while(|l| !l.contains("\"clients\""));
    lines.next()?;
    let line = lines.next()?;
    parse_field(line, "\"count\": ").map(|n: f64| n as usize)
}

fn parse_field(line: &str, key: &str) -> Option<f64> {
    let tail = line.split(key).nth(1)?;
    let number: String = tail
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    number.parse().ok()
}

fn run_check(baseline_path: &str, tolerance_pct: f64) {
    let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("--check: cannot read {baseline_path}: {e}");
        std::process::exit(2);
    });
    let committed_p99 = committed_contended_p99(&text).unwrap_or_else(|| {
        eprintln!("--check: no \"contended\" entry with p99_ms in {baseline_path}");
        std::process::exit(2);
    });
    let clients = committed_client_count(&text).unwrap_or(4);
    // Best-of-two full contended runs: concurrency jitter only adds time, so
    // the minimum p99 is the comparable statistic.
    let p99 = (0..2)
        .map(|_| {
            let (mut contended_ms, _, _, _) = run_contended(clients, 2000, 1.1, 42, false);
            percentile(&mut contended_ms, 99.0)
        })
        .fold(f64::INFINITY, f64::min);
    let ratio = p99 / committed_p99;
    println!(
        "service contended p99 ({clients} clients): best-of-2 {p99:.3} ms vs committed \
         {committed_p99:.3} ms (x{ratio:.3}, tolerance +{tolerance_pct:.0}%)"
    );
    if ratio > 1.0 + tolerance_pct / 100.0 {
        eprintln!("PERF REGRESSION: service contended p99 exceeds the committed baseline");
        std::process::exit(1);
    }
}

fn main() {
    let mut requests = 2000usize;
    let mut zipf_s = 1.1f64;
    let mut seed = 42u64;
    let mut clients = 4usize;
    let mut out: Option<String> = None;
    let mut smoke = false;
    let mut check: Option<String> = None;
    let mut tolerance_pct = 50.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => {
                requests = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => {
                        eprintln!("--requests needs a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--zipf" => {
                zipf_s = match args.next().and_then(|v| v.parse().ok()) {
                    Some(s) if s > 0.0 => s,
                    _ => {
                        eprintln!("--zipf needs a positive exponent");
                        std::process::exit(2);
                    }
                };
            }
            "--seed" => {
                seed = match args.next().and_then(|v| v.parse().ok()) {
                    Some(s) => s,
                    None => {
                        eprintln!("--seed needs an integer");
                        std::process::exit(2);
                    }
                };
            }
            "--clients" => {
                clients = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 1 => n,
                    _ => {
                        eprintln!("--clients needs an integer greater than 1");
                        std::process::exit(2);
                    }
                };
            }
            "--smoke" => {
                smoke = true;
            }
            "--check" => {
                check = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--check needs the committed baseline path");
                    std::process::exit(2);
                }));
            }
            "--tolerance" => {
                tolerance_pct = match args.next().and_then(|v| v.parse().ok()) {
                    Some(p) if p > 0.0 => p,
                    _ => {
                        eprintln!("--tolerance needs a positive percentage");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => {
                out = Some(args.next().expect("--out needs a path"));
            }
            other => {
                eprintln!(
                    "unknown argument {other}; supported: --requests N, --zipf S, --seed SEED, \
                     --clients N, --smoke, --check PATH, --tolerance PCT, --out PATH"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some(baseline) = check {
        run_check(&baseline, tolerance_pct);
        return;
    }
    if smoke {
        requests = 120;
    }

    let out = out.unwrap_or_else(|| "BENCH_service.json".into());
    let mut numbers = run_clients(clients, requests, zipf_s, seed, smoke);
    eprintln!(
        "{} clients, {} contended requests: {} coalesced, {} rejected; \
         same-key storm of {} requests compiled {} time(s)",
        numbers.clients,
        numbers.requests,
        numbers.coalesced,
        numbers.rejected,
        numbers.storm_requests,
        numbers.storm_compiles
    );
    if numbers.storm_compiles != 1 {
        eprintln!(
            "SERVICE COALESCING FAILURE: the same-key storm performed {} compiles \
             (singleflight must collapse it to exactly 1)",
            numbers.storm_compiles
        );
        std::process::exit(1);
    }
    write_json(&mut numbers, zipf_s, seed, &out);
}
