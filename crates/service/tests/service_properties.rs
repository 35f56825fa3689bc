//! The cache-correctness property suite of the compilation service.
//!
//! Four properties from the service's contract:
//!
//! 1. a cache hit is bit-identical to a cold compile, for **every**
//!    registered compiler (modulo wall-clock timing instrumentation, which
//!    measures the run rather than the artifact),
//! 2. LRU eviction respects the configured capacity and evicts the
//!    least-recently-*used* entry,
//! 3. changing a single calibration value in the device [`Target`] changes
//!    the cache key — a drifted device can never be served a stale artifact,
//! 4. a compile that failed, or that a deadline degraded below
//!    [`DegradationRung::Full`], is never cached as the full-quality
//!    artifact.

use std::time::Duration;
use twoqan::pipeline::{Compiler, DegradationRung};
use twoqan::{CompileBudget, TwoQanCompiler, TwoQanConfig};
use twoqan_baselines::CompilerRegistry;
use twoqan_circuit::Circuit;
use twoqan_device::{Device, DriftDelta};
use twoqan_ham::{nnn_heisenberg, nnn_ising, trotter_step};
use twoqan_service::{bit_identical, cache_key, CompileService, ServiceConfig, ServiceError};

fn workload(n: usize, seed: u64) -> Circuit {
    trotter_step(&nnn_ising(n, seed), 1.0)
}

fn small_service(capacity: usize, shards: usize) -> CompileService {
    CompileService::new(ServiceConfig {
        capacity,
        shards,
        threads: 1,
        max_in_flight: 0,
    })
}

/// Property 1: for every registered compiler, the artifact served from the
/// cache is bit-identical to an independent cold compile of the same
/// request (heterogeneous calibration included, so the noise-aware portfolio
/// path is exercised too).
#[test]
fn hits_are_bit_identical_to_cold_compiles_for_every_compiler() {
    let service = small_service(64, 4);
    let circuit = trotter_step(&nnn_heisenberg(8, 3), 1.0);
    let uniform = Device::montreal();
    let heterogeneous = Device::montreal().with_heterogeneous_calibration(7);
    let names = CompilerRegistry::NAMES.into_iter().chain(["2QAN-noise"]);
    for name in names {
        // `2QAN-noise` only diverges from `2QAN` on heterogeneous targets;
        // give it one so the calibration-aware portfolio is what's cached.
        let device = if name == "2QAN-noise" {
            &heterogeneous
        } else {
            &uniform
        };
        let miss = service.request(name, &circuit, device).unwrap();
        assert!(!miss.hit, "{name}: first request must miss");
        assert!(miss.cached, "{name}: full-quality success must be cached");
        let hit = service.request(name, &circuit, device).unwrap();
        assert!(hit.hit, "{name}: second request must hit");
        // The independent cold compile, outside the service entirely.
        let cold = CompilerRegistry::by_name(name)
            .unwrap()
            .compile(&circuit, device)
            .unwrap();
        assert!(
            bit_identical(&hit.output, &cold),
            "{name}: cached artifact must be bit-identical to a cold compile"
        );
        assert!(bit_identical(&miss.output, &cold), "{name}");
    }
}

/// Property 2: the cache never holds more than its capacity, and the entry
/// evicted to make room is the least-recently-used one (a single shard makes
/// the global LRU order exact).
#[test]
fn lru_eviction_respects_capacity_and_use_order() {
    let service = small_service(3, 1);
    let device = Device::montreal();
    let circuits: Vec<Circuit> = (0..4).map(|s| workload(7 + s % 2, s as u64)).collect();
    // Fill: c0, c1, c2 (in that order).
    for c in &circuits[..3] {
        assert!(service.request("2QAN", c, &device).unwrap().cached);
    }
    assert_eq!(service.len(), 3);
    // Touch c0 so c1 becomes the least recently used…
    assert!(service.request("2QAN", &circuits[0], &device).unwrap().hit);
    // …then insert c3, forcing one eviction.
    assert!(
        service
            .request("2QAN", &circuits[3], &device)
            .unwrap()
            .cached
    );
    assert_eq!(service.len(), 3, "capacity bound must hold after eviction");
    assert_eq!(service.stats().evictions, 1);
    // c0, c2 and c3 survive; c1 was evicted.
    assert!(service.request("2QAN", &circuits[0], &device).unwrap().hit);
    assert!(service.request("2QAN", &circuits[2], &device).unwrap().hit);
    assert!(service.request("2QAN", &circuits[3], &device).unwrap().hit);
    assert!(
        !service.request("2QAN", &circuits[1], &device).unwrap().hit,
        "the least-recently-used entry must have been evicted"
    );
}

/// Sharded capacity is bounded globally too: the shards split the budget
/// without rounding up, also when it does not divide evenly or is smaller
/// than the shard count.  Forty distinct keys fill every shard.
#[test]
fn sharded_cache_stays_within_total_capacity() {
    let device = Device::montreal();
    let circuits: Vec<Circuit> = (0..40).map(|s| workload(6, s)).collect();
    for (capacity, shards) in [(4, 4), (5, 4), (2, 8), (10, 8)] {
        let service = CompileService::with_compilers(
            ServiceConfig {
                capacity,
                shards,
                threads: 1,
                max_in_flight: 0,
            },
            vec![CompilerRegistry::by_name("NoMap").unwrap()],
        );
        for c in &circuits {
            let _ = service.request("NoMap", c, &device).unwrap();
        }
        assert!(
            service.len() <= capacity,
            "cache holds {} entries over a capacity of {capacity} in {shards} shards",
            service.len()
        );
    }
}

/// ...and full shards use all of it: when the shard count does not divide
/// the capacity, the first shards take the remainder, so no slot goes
/// unused.  Eighty distinct keys fill every shard.
#[test]
fn sharded_cache_fills_exactly_its_capacity() {
    let device = Device::montreal();
    let circuits: Vec<Circuit> = (0..80).map(|s| workload(6, s)).collect();
    for (capacity, shards) in [(4, 4), (5, 4), (2, 8), (10, 8), (11, 3)] {
        let service = CompileService::with_compilers(
            ServiceConfig {
                capacity,
                shards,
                threads: 1,
                max_in_flight: 0,
            },
            vec![CompilerRegistry::by_name("NoMap").unwrap()],
        );
        for c in &circuits {
            let _ = service.request("NoMap", c, &device).unwrap();
        }
        assert_eq!(
            service.len(),
            capacity,
            "full cache over a capacity of {capacity} in {shards} shards"
        );
    }
}

/// Property 3: one drifted calibration value — a single per-edge error —
/// changes the content-addressed key, so the drifted device misses instead
/// of being served the stale artifact.
#[test]
fn single_calibration_value_changes_the_key() {
    let service = small_service(64, 4);
    let circuit = workload(8, 1);
    let device = Device::montreal().with_heterogeneous_calibration(3);
    let compiler = CompilerRegistry::by_name("2QAN-noise").unwrap();
    let key = cache_key(compiler.as_ref(), &circuit, &device);
    // Drift exactly one two-qubit edge error by 10%.
    let (a, b) = device.target().edges()[2];
    let drifted_target = device
        .target()
        .perturb(&DriftDelta {
            two_qubit_error: vec![((a, b), device.target().two_qubit_error(a, b) * 1.1)],
            ..DriftDelta::default()
        })
        .unwrap();
    let drifted = device.clone().try_with_target(drifted_target).unwrap();
    let drifted_key = cache_key(compiler.as_ref(), &circuit, &drifted);
    assert_ne!(key, drifted_key, "a drifted target must change the key");
    // And end to end: caching under the old snapshot must not produce a hit
    // for the drifted one.
    assert!(
        service
            .request("2QAN-noise", &circuit, &device)
            .unwrap()
            .cached
    );
    let response = service.request("2QAN-noise", &circuit, &drifted).unwrap();
    assert!(!response.hit, "a drifted device must recompile");
    // Per-qubit values are part of the snapshot as well.
    let readout_target = device
        .target()
        .perturb(&DriftDelta {
            readout_error: vec![(0, 0.31)],
            ..DriftDelta::default()
        })
        .unwrap();
    let readout_drifted = device.clone().try_with_target(readout_target).unwrap();
    assert_ne!(
        key,
        cache_key(compiler.as_ref(), &circuit, &readout_drifted),
        "a single readout-error drift must change the key"
    );
}

/// Property 4: failed compiles propagate as errors and leave no cache entry;
/// deadline-degraded compiles succeed but are not cached as the full-quality
/// artifact, so a later healthy request recompiles.
#[test]
fn failed_or_degraded_compiles_are_never_cached() {
    // A 1 ns deadline forces the degradation ladder below `Full`.
    let starved = TwoQanCompiler::new(TwoQanConfig {
        budget: CompileBudget::with_deadline(Duration::from_nanos(1)),
        ..TwoQanConfig::default()
    });
    let service = CompileService::with_compilers(
        ServiceConfig {
            capacity: 16,
            shards: 1,
            threads: 1,
            max_in_flight: 0,
        },
        vec![Box::new(starved) as Box<dyn Compiler>],
    );
    let circuit = workload(8, 1);
    let device = Device::montreal();
    let response = service.request("2QAN", &circuit, &device).unwrap();
    assert_ne!(
        response.rung(),
        DegradationRung::Full,
        "a 1 ns deadline must degrade the compile"
    );
    assert!(!response.cached, "degraded artifacts must not be cached");
    assert!(service.is_empty());
    assert_eq!(service.stats().uncacheable, 1);
    // The next identical request misses again (no stale degraded hit).
    assert!(!service.request("2QAN", &circuit, &device).unwrap().hit);

    // Outright failures: an oversized circuit errors and caches nothing.
    let service = small_service(16, 1);
    let too_big = workload(40, 1);
    assert!(matches!(
        service.request("2QAN", &too_big, &device),
        Err(ServiceError::Compile(_))
    ));
    assert!(service.is_empty());
}
