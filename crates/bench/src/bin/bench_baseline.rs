//! Emits `BENCH_compiler.json`: the saved compile-time baseline that the
//! perf trajectory is measured against.
//!
//! For every size n = 10/20/40/80 (plus one n = 200 stress compile on a
//! 15×14 grid in full runs) it runs the instrumented pipeline on the same
//! circuits as the `compiler_passes` criterion bench and derives *all* of an
//! entry's numbers from that one sample set: `mapping_ms`, `routing_ms` and
//! `scheduling_ms` are the medians of the `qap-mapping`,
//! `permutation-routing` and `alap-schedule` passes, `end_to_end_ms` is the
//! external wall-clock median of the same compiles, and the `passes` section
//! lists every pass's median.  It also runs the whole
//! size × compiler sweep through the parallel [`BatchCompiler`] driver at
//! every requested worker count (`batch.sweep` section — serial wall-clock
//! plus one `{threads, workers, ms, speedup}` point per count, where
//! `workers` is the *actual* pool size used).  Usage:
//!
//! ```text
//! cargo run --release -p twoqan-bench --bin bench_baseline -- \
//!     [--samples N] [--out PATH] [--threads T1,T2,...] [--smoke]
//! cargo run --release -p twoqan-bench --bin bench_baseline -- --check PATH \
//!     [--samples N] [--tolerance PCT]
//! ```
//!
//! Defaults: 9 samples per measurement, output to `BENCH_compiler.json` in
//! the current directory, thread sweep `1,2,4` (override with `--threads`;
//! `0` = one worker per core).  `--smoke` is the CI mode: sizes 10/20 only,
//! 1 sample, no n = 200 entry.
//!
//! `--check PATH` re-measures the n = 80 end-to-end compile and exits
//! non-zero if its median regressed more than `--tolerance` percent
//! (default 10) against the committed baseline at PATH — the CI perf guard.
//! See `BENCHMARKS.md` for how to compare a full run against the checked-in
//! baseline.

use std::time::Instant;
use twoqan::{BatchCompiler, BatchJob, TwoQanCompiler, TwoQanConfig};
use twoqan_baselines::CompilerRegistry;
use twoqan_bench::report::median;
use twoqan_bench::{scaling_device, LARGE_SCALING_SIZE, SCALING_SIZES};
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_ham::{nnn_heisenberg, trotter_step};

struct Entry {
    n: usize,
    device: String,
    samples: usize,
    mapping_ms: f64,
    routing_ms: f64,
    scheduling_ms: f64,
    end_to_end_ms: f64,
    /// `(pass name, median wall-clock ms)` from the instrumented pipeline.
    passes: Vec<(&'static str, f64)>,
}

fn measure(n: usize, samples: usize) -> Entry {
    let device = scaling_device(n);
    let circuit = trotter_step(&nnn_heisenberg(n, 1), 1.0);
    let compiler = TwoQanCompiler::new(TwoQanConfig {
        mapping_trials: 1,
        ..TwoQanConfig::default()
    });

    // ONE sample set for everything: `samples` instrumented compiles (plus a
    // warm-up that also fixes the pass list).  The headline per-stage numbers
    // are the medians of the corresponding pipeline passes and the end-to-end
    // median is the external wall-clock of the same runs, so the `mapping_ms`
    // column and the `qap-mapping` pass can never disagree about what was
    // measured.
    let mut per_pass: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut end_to_end: Vec<f64> = Vec::with_capacity(samples);
    for sample in 0..=samples {
        let t0 = Instant::now();
        let (_, report) = compiler.compile_with_report(&circuit, &device).unwrap();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if sample == 0 {
            // Warm-up run (populates the device distance cache etc.).
            per_pass = report
                .passes
                .iter()
                .map(|p| (p.name, Vec::with_capacity(samples)))
                .collect();
            continue;
        }
        end_to_end.push(wall_ms);
        for (slot, record) in per_pass.iter_mut().zip(&report.passes) {
            debug_assert_eq!(slot.0, record.name);
            slot.1.push(record.wall_ms);
        }
    }
    let passes: Vec<(&'static str, f64)> = per_pass
        .into_iter()
        .map(|(name, samples)| (name, median(samples)))
        .collect();
    let pass_ms = |name: &str| {
        passes
            .iter()
            .find(|(pass, _)| *pass == name)
            .map(|&(_, ms)| ms)
            .unwrap_or_else(|| panic!("pipeline has no {name} pass"))
    };

    Entry {
        n,
        device: device.name().to_string(),
        samples,
        mapping_ms: pass_ms("qap-mapping"),
        routing_ms: pass_ms("permutation-routing"),
        scheduling_ms: pass_ms("alap-schedule"),
        end_to_end_ms: median(end_to_end),
        passes,
    }
}

/// One point of the batch-driver thread sweep.
struct SweepPoint {
    /// Requested worker count (`0` = one per core).
    threads: usize,
    /// Actual pool size the driver resolved to.
    workers: usize,
    ms: f64,
    speedup: f64,
}

struct BatchNumbers {
    jobs: usize,
    serial_ms: f64,
    sweep: Vec<SweepPoint>,
}

/// Runs the whole size × compiler sweep (every registry compiler on every
/// scaling size) through the batch driver — once serially, then once per
/// requested worker count — and checks that every ordering agrees with the
/// serial results.
fn measure_batch(sizes: &[usize], samples: usize, thread_counts: &[usize]) -> BatchNumbers {
    let inputs: Vec<(Circuit, Device)> = sizes
        .iter()
        .map(|&n| (trotter_step(&nnn_heisenberg(n, 1), 1.0), scaling_device(n)))
        .collect();
    let compilers = CompilerRegistry::all();
    let jobs: Vec<BatchJob<'_>> = inputs
        .iter()
        .flat_map(|(circuit, device)| {
            compilers.iter().map(move |compiler| BatchJob {
                circuit,
                device,
                compiler: compiler.as_ref(),
            })
        })
        .collect();

    let serial_driver = BatchCompiler::new(1);
    let serial_results = serial_driver.compile_batch(&jobs);

    // Warm every driver up once and check that its results agree with the
    // serial ordering before any timing.
    let drivers: Vec<(usize, BatchCompiler, usize)> = thread_counts
        .iter()
        .map(|&threads| {
            let driver = BatchCompiler::new(threads);
            let workers = driver.resolved_threads(jobs.len());
            let results = driver.compile_batch(&jobs);
            for (i, (s, p)) in serial_results.iter().zip(&results).enumerate() {
                let (s, p) = (
                    s.as_ref().expect("bench circuits fit"),
                    p.as_ref().expect("bench circuits fit"),
                );
                assert_eq!(
                    s.metrics, p.metrics,
                    "batch job {i} diverged between serial and {threads}-thread runs"
                );
            }
            (threads, driver, workers)
        })
        .collect();

    // Interleaved timing: every round times the serial driver and then each
    // sweep configuration, so slow host drift (thermal state, co-tenants)
    // hits all of them equally instead of penalising whichever ran last.
    // Per-configuration medians are taken across the rounds.
    let mut serial_samples: Vec<f64> = Vec::with_capacity(samples);
    let mut config_samples: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); drivers.len()];
    let time_one = |driver: &BatchCompiler| {
        let t0 = Instant::now();
        driver.compile_batch(&jobs);
        t0.elapsed().as_secs_f64() * 1e3
    };
    for _ in 0..samples {
        serial_samples.push(time_one(&serial_driver));
        for ((_, driver, _), slot) in drivers.iter().zip(&mut config_samples) {
            slot.push(time_one(driver));
        }
    }
    let serial_ms = median(serial_samples);
    let sweep = drivers
        .iter()
        .zip(config_samples)
        .map(|(&(threads, _, workers), samples)| {
            let ms = median(samples);
            eprintln!("batch sweep: requested {threads} threads -> {workers} workers, {ms:.3} ms");
            SweepPoint {
                threads,
                workers,
                ms,
                speedup: serial_ms / ms.max(1e-9),
            }
        })
        .collect();

    BatchNumbers {
        jobs: jobs.len(),
        serial_ms,
        sweep,
    }
}

// ---------------------------------------------------------------------------
// `--check`: the CI perf-regression guard.
// ---------------------------------------------------------------------------

/// Pulls `end_to_end_ms` of the `"n": 80` entry out of a committed
/// `BENCH_compiler.json` (one entry per line, no JSON parser needed).
fn committed_n80_end_to_end(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.contains("\"n\": 80"))?;
    let tail = line.split("\"end_to_end_ms\": ").nth(1)?;
    let number: String = tail
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    number.parse().ok()
}

fn run_check(baseline_path: &str, samples: usize, tolerance_pct: f64) {
    let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("--check: cannot read {baseline_path}: {e}");
        std::process::exit(2);
    });
    let committed = committed_n80_end_to_end(&text).unwrap_or_else(|| {
        eprintln!("--check: no \"n\": 80 entry with end_to_end_ms in {baseline_path}");
        std::process::exit(2);
    });
    let n = 80;
    let device = scaling_device(n);
    let circuit = trotter_step(&nnn_heisenberg(n, 1), 1.0);
    let compiler = TwoQanCompiler::new(TwoQanConfig {
        mapping_trials: 1,
        ..TwoQanConfig::default()
    });
    // Warm up caches/frequency state, then gate on the *minimum* sample:
    // scheduler noise and co-tenants only ever add time, so the floor is the
    // stable statistic — a genuine regression raises it, transient load
    // does not lower it.
    for _ in 0..3 {
        compiler.compile(&circuit, &device).unwrap();
    }
    let measured = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            compiler.compile(&circuit, &device).unwrap();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    let ratio = measured / committed;
    println!(
        "n=80 end-to-end: best-of-{samples} {measured:.3} ms vs committed {committed:.3} ms \
         (x{ratio:.3}, tolerance +{tolerance_pct:.0}%)"
    );
    if ratio > 1.0 + tolerance_pct / 100.0 {
        eprintln!("PERF REGRESSION: n=80 end-to-end exceeds the committed baseline");
        std::process::exit(1);
    }
}

fn parse_thread_list(spec: &str) -> Option<Vec<usize>> {
    let list: Option<Vec<usize>> = spec
        .split(',')
        .map(|t| t.trim().parse::<usize>().ok())
        .collect();
    list.filter(|l| !l.is_empty())
}

fn main() {
    let mut samples = 9usize;
    let mut out: Option<String> = None;
    let mut threads: Option<Vec<usize>> = None;
    let mut smoke = false;
    let mut check: Option<String> = None;
    let mut tolerance_pct = 10.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--samples" => {
                samples = match args.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n > 0 => n,
                    _ => {
                        eprintln!("--samples needs a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--threads" => {
                threads = match args.next().as_deref().and_then(parse_thread_list) {
                    Some(list) => Some(list),
                    None => {
                        eprintln!(
                            "--threads needs a comma-separated list of integers \
                             (0 = one per core), e.g. --threads 1,2,4"
                        );
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
                    "unknown argument {other}; supported: --samples N, --threads T1,T2,..., \
                     --smoke, --check PATH, --tolerance PCT, --out PATH"
                );
                std::process::exit(2);
            }
        }
    }
    if smoke {
        samples = 1;
    }

    if let Some(baseline) = check {
        run_check(&baseline, samples, tolerance_pct);
        return;
    }

    let thread_counts = threads.unwrap_or_else(|| vec![1, 2, 4]);

    let out = out.unwrap_or_else(|| "BENCH_compiler.json".into());
    let sizes: Vec<usize> = if smoke {
        SCALING_SIZES.iter().copied().take(2).collect()
    } else {
        SCALING_SIZES.to_vec()
    };

    let mut entries: Vec<Entry> = sizes.iter().map(|&n| measure(n, samples)).collect();
    if !smoke {
        // One large stress compile, at a reduced sample count (it dominates
        // the wall-clock of a full run).
        entries.push(measure(LARGE_SCALING_SIZE, samples.min(3)));
    }
    // The batch sweep sticks to the paper sizes; the n = 200 stress entry is
    // end-to-end only.
    let batch = measure_batch(&sizes, samples, &thread_counts);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"compiler_passes\",\n");
    json.push_str("  \"workload\": \"nnn_heisenberg trotter step, seed 1\",\n");
    json.push_str("  \"unit\": \"ms (median wall clock)\",\n");
    json.push_str(&format!("  \"samples\": {samples},\n"));
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let passes = e
            .passes
            .iter()
            .map(|(name, ms)| format!("{{\"name\": \"{name}\", \"ms\": {ms:.3}}}"))
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "    {{\"n\": {}, \"device\": \"{}\", \"samples\": {}, \"mapping_ms\": {:.3}, \"routing_ms\": {:.3}, \"scheduling_ms\": {:.3}, \"end_to_end_ms\": {:.3}, \"passes\": [{}]}}{}\n",
            e.n,
            e.device,
            e.samples,
            e.mapping_ms,
            e.routing_ms,
            e.scheduling_ms,
            e.end_to_end_ms,
            passes,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"batch\": {{\"jobs\": {}, \"compilers\": {}, \"serial_ms\": {:.3}, \"sweep\": [\n",
        batch.jobs,
        CompilerRegistry::NAMES.len(),
        batch.serial_ms,
    ));
    for (i, p) in batch.sweep.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"workers\": {}, \"ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
            p.threads,
            p.workers,
            p.ms,
            p.speedup,
            if i + 1 == batch.sweep.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]}\n");
    json.push_str("}\n");

    std::fs::write(&out, &json).expect("writing the baseline file");
    println!("{json}");
    println!("wrote {out}");
}
