//! Concurrency properties of the service's singleflight admission layer.
//!
//! Four contracts from the module documentation:
//!
//! 1. an N-thread same-key storm performs **exactly one** compile: one
//!    leader, one cache insertion, and `coalesced == requests − leaders −
//!    hits`, with every response bit-identical to a cold compile,
//! 2. a leader that panics mid-compile (injected via [`FaultInjector`])
//!    propagates a *typed* error to itself and every coalesced follower,
//!    never caches, and never poisons the slot — a later retry succeeds,
//! 3. when the admission cap is saturated, a request needing a new compile
//!    is fast-rejected with [`ServiceError::Overloaded`] while same-key
//!    requests still coalesce (followers are never rejected),
//! 4. a deadline-degraded leader result is shared with the followers that
//!    were already waiting but never cached.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::Duration;

use twoqan::pipeline::{CompiledOutput, Compiler, DegradationRung};
use twoqan::{
    CompileBudget, CompileError, FaultConfig, FaultInjector, TwoQanCompiler, TwoQanConfig,
};
use twoqan_baselines::CompilerRegistry;
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_ham::{nnn_ising, trotter_step};
use twoqan_service::{bit_identical, CompileService, ServiceConfig, ServiceError};

fn workload(n: usize, seed: u64) -> Circuit {
    trotter_step(&nnn_ising(n, seed), 1.0)
}

fn config() -> ServiceConfig {
    ServiceConfig {
        capacity: 64,
        shards: 4,
        threads: 1,
        max_in_flight: 0,
    }
}

/// Delegates to a wrapped compiler while counting how many compiles
/// actually ran — the storm tests' "exactly one compile" probe.
struct CountingCompiler {
    inner: Box<dyn Compiler>,
    compiles: Arc<AtomicUsize>,
}

impl Compiler for CountingCompiler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn order_respecting(&self) -> bool {
        self.inner.order_respecting()
    }

    fn constrains_connectivity(&self) -> bool {
        self.inner.constrains_connectivity()
    }

    fn compile(&self, circuit: &Circuit, device: &Device) -> Result<CompiledOutput, CompileError> {
        self.compiles.fetch_add(1, Ordering::SeqCst);
        self.inner.compile(circuit, device)
    }

    fn cache_fingerprint(&self) -> u64 {
        self.inner.cache_fingerprint()
    }
}

fn counting_service(config: ServiceConfig) -> (CompileService, Arc<AtomicUsize>) {
    let compiles = Arc::new(AtomicUsize::new(0));
    let compiler = CountingCompiler {
        inner: CompilerRegistry::by_name("2QAN").unwrap(),
        compiles: Arc::clone(&compiles),
    };
    let service = CompileService::with_compilers(config, vec![Box::new(compiler)]);
    (service, compiles)
}

/// Property 1: 2000 same-key requests from 8 threads elect exactly one
/// leader; everyone else is a hit or a coalesced follower, and every
/// response is bit-identical to an independent cold compile.
#[test]
fn same_key_storm_from_eight_threads_compiles_exactly_once() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 250;
    let (service, compiles) = counting_service(config());
    let circuit = workload(8, 1);
    let device = Device::montreal();
    let barrier = Barrier::new(THREADS);
    let cold = CompilerRegistry::by_name("2QAN")
        .unwrap()
        .compile(&circuit, &device)
        .unwrap();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let mut outcomes = Vec::with_capacity(PER_THREAD);
                    for _ in 0..PER_THREAD {
                        outcomes.push(service.request("2QAN", &circuit, &device).unwrap());
                    }
                    outcomes
                })
            })
            .collect();
        for handle in handles {
            for response in handle.join().expect("storm thread panicked") {
                assert!(
                    bit_identical(&response.output, &cold),
                    "every storm response must be bit-identical to a cold compile"
                );
                assert!(
                    !(response.hit && response.coalesced),
                    "a response is a hit or coalesced, never both"
                );
            }
        }
    });
    assert_eq!(
        compiles.load(Ordering::SeqCst),
        1,
        "the whole storm must perform exactly one compile"
    );
    let stats = service.stats();
    assert_eq!(stats.requests, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.misses, 1, "exactly one leader");
    assert_eq!(stats.insertions, 1, "insertions == unique keys");
    assert_eq!(
        stats.coalesced,
        stats.requests - stats.misses - stats.hits,
        "every non-leader non-hit request coalesced"
    );
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.rejected, 0);
    assert_eq!(service.len(), 1);
}

/// A compiler that, while armed, waits for every storm thread to have
/// issued its request and then consults a seeded [`FaultInjector`] whose
/// panic fault always fires — so the leader dies with followers provably
/// parked on its flight.
struct FaultedCompiler {
    inner: Box<dyn Compiler>,
    injector: Arc<FaultInjector>,
    armed: Arc<AtomicBool>,
    started: Arc<AtomicUsize>,
    expected: usize,
}

impl Compiler for FaultedCompiler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn order_respecting(&self) -> bool {
        self.inner.order_respecting()
    }

    fn constrains_connectivity(&self) -> bool {
        self.inner.constrains_connectivity()
    }

    fn compile(&self, circuit: &Circuit, device: &Device) -> Result<CompiledOutput, CompileError> {
        if self.armed.load(Ordering::SeqCst) {
            while self.started.load(Ordering::SeqCst) < self.expected {
                std::thread::sleep(Duration::from_micros(50));
            }
            // Give the non-leader threads time to park on the flight.
            std::thread::sleep(Duration::from_millis(20));
            self.injector.before_stage("storm-leader")?;
        }
        self.inner.compile(circuit, device)
    }

    fn cache_fingerprint(&self) -> u64 {
        self.inner.cache_fingerprint()
    }
}

/// Property 2: an injected leader panic reaches every concurrent requester
/// as a typed [`ServiceError::Compile`], caches nothing, and leaves the
/// slot clean — the next (disarmed) request compiles and caches normally.
#[test]
fn leader_panic_propagates_typed_error_to_followers_and_slot_recovers() {
    const THREADS: usize = 4;
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        seed: 9,
        panic_probability: 1.0,
        ..FaultConfig::default()
    }));
    let armed = Arc::new(AtomicBool::new(true));
    let started = Arc::new(AtomicUsize::new(0));
    let compiler = FaultedCompiler {
        inner: CompilerRegistry::by_name("2QAN").unwrap(),
        injector: Arc::clone(&injector),
        armed: Arc::clone(&armed),
        started: Arc::clone(&started),
        expected: THREADS,
    };
    let service = CompileService::with_compilers(config(), vec![Box::new(compiler)]);
    let circuit = workload(8, 1);
    let device = Device::montreal();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    started.fetch_add(1, Ordering::SeqCst);
                    service.request("2QAN", &circuit, &device)
                })
            })
            .collect();
        for handle in handles {
            let result = handle.join().expect("requester thread panicked");
            // The panic was caught at the batch isolation boundary and
            // propagated as a typed internal error — to the leader and to
            // every follower alike.
            assert!(
                matches!(
                    result,
                    Err(ServiceError::Compile(CompileError::Internal { .. }))
                ),
                "expected a typed internal error, got {result:?}"
            );
        }
    });
    assert!(injector.counts().panics >= 1, "the panic fault fired");
    assert!(service.is_empty(), "failures must cache nothing");
    assert_eq!(service.stats().insertions, 0);
    // The slot is not poisoned: a disarmed retry compiles and caches.
    armed.store(false, Ordering::SeqCst);
    let retry = service.request("2QAN", &circuit, &device).unwrap();
    assert!(
        !retry.hit && retry.cached,
        "the retry recompiles and caches"
    );
    assert!(service.request("2QAN", &circuit, &device).unwrap().hit);
}

/// A compiler that parks inside `compile` until released, so a test can
/// hold a leader in flight deterministically.
struct GatedCompiler {
    inner: Box<dyn Compiler>,
    gate: Arc<(Mutex<bool>, Condvar)>,
    entered: Arc<AtomicUsize>,
}

impl Compiler for GatedCompiler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn order_respecting(&self) -> bool {
        self.inner.order_respecting()
    }

    fn constrains_connectivity(&self) -> bool {
        self.inner.constrains_connectivity()
    }

    fn compile(&self, circuit: &Circuit, device: &Device) -> Result<CompiledOutput, CompileError> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let (lock, cv) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cv.wait(open).unwrap();
        }
        drop(open);
        self.inner.compile(circuit, device)
    }

    fn cache_fingerprint(&self) -> u64 {
        self.inner.cache_fingerprint()
    }
}

fn release(gate: &(Mutex<bool>, Condvar)) {
    *gate.0.lock().unwrap() = true;
    gate.1.notify_all();
}

/// Property 3: with `max_in_flight: 1` and a leader held in flight, a
/// request for a *different* key is fast-rejected with `Overloaded`, while
/// a same-key request coalesces (followers consume no compile capacity and
/// are never rejected).  Once the leader finishes, admission reopens.
#[test]
fn overloaded_fast_rejects_new_compiles_but_never_followers() {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let entered = Arc::new(AtomicUsize::new(0));
    let compiler = GatedCompiler {
        inner: CompilerRegistry::by_name("2QAN").unwrap(),
        gate: Arc::clone(&gate),
        entered: Arc::clone(&entered),
    };
    let service = CompileService::with_compilers(
        ServiceConfig {
            max_in_flight: 1,
            ..config()
        },
        vec![Box::new(compiler)],
    );
    let hot = workload(8, 1);
    let other = workload(7, 2);
    let device = Device::montreal();
    std::thread::scope(|scope| {
        let leader = scope.spawn(|| service.request("2QAN", &hot, &device));
        // Wait until the leader is provably inside its compile.
        while entered.load(Ordering::SeqCst) == 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
        // A different key needs a second concurrent compile: rejected.
        let rejected = service.request("2QAN", &other, &device);
        assert!(
            matches!(
                rejected,
                Err(ServiceError::Overloaded {
                    in_flight: 1,
                    cap: 1
                })
            ),
            "expected Overloaded, got {rejected:?}"
        );
        // The same key coalesces instead — never rejected.
        let follower = scope.spawn(|| service.request("2QAN", &hot, &device));
        release(&gate);
        let led = leader.join().unwrap().unwrap();
        let followed = follower.join().unwrap().unwrap();
        assert!(!led.hit && !led.coalesced && led.cached);
        assert!(
            followed.hit || followed.coalesced,
            "the same-key request must coalesce or hit, never reject"
        );
        assert!(bit_identical(&led.output, &followed.output));
    });
    let stats = service.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.errors, 1);
    // Admission reopened: the rejected key compiles fine now.
    assert!(service.request("2QAN", &other, &device).unwrap().cached);
    assert_eq!(service.stats().rejected, 1, "no further rejections");
}

/// A compiler that waits for a follower to arrive, then compiles under a
/// 1 ns deadline — producing a degraded (below-`Full`) result while a
/// follower is provably parked on the flight.
struct DegradedGateCompiler {
    starved: TwoQanCompiler,
    started: Arc<AtomicUsize>,
}

impl Compiler for DegradedGateCompiler {
    fn name(&self) -> &'static str {
        self.starved.name()
    }

    fn order_respecting(&self) -> bool {
        self.starved.order_respecting()
    }

    fn constrains_connectivity(&self) -> bool {
        self.starved.constrains_connectivity()
    }

    fn compile(&self, circuit: &Circuit, device: &Device) -> Result<CompiledOutput, CompileError> {
        while self.started.load(Ordering::SeqCst) < 2 {
            std::thread::sleep(Duration::from_micros(50));
        }
        // Give the follower time to park on the flight.
        std::thread::sleep(Duration::from_millis(50));
        Compiler::compile(&self.starved, circuit, device)
    }

    fn cache_fingerprint(&self) -> u64 {
        self.starved.cache_fingerprint()
    }
}

/// Property 4: a deadline-degraded leader result is shared with the
/// followers that were already waiting — but never cached, so the next
/// request recompiles (PR-8 quality gate, unchanged under coalescing).
#[test]
fn degraded_leader_result_is_shared_but_never_cached() {
    let started = Arc::new(AtomicUsize::new(0));
    let compiler = DegradedGateCompiler {
        starved: TwoQanCompiler::new(TwoQanConfig {
            budget: CompileBudget::with_deadline(Duration::from_nanos(1)),
            ..TwoQanConfig::default()
        }),
        started: Arc::clone(&started),
    };
    let service = CompileService::with_compilers(config(), vec![Box::new(compiler)]);
    let circuit = workload(8, 1);
    let device = Device::montreal();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    started.fetch_add(1, Ordering::SeqCst);
                    service.request("2QAN", &circuit, &device).unwrap()
                })
            })
            .collect();
        let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // One degraded leader, one follower sharing its artifact.
        assert_eq!(responses.iter().filter(|r| r.coalesced).count(), 1);
        for response in &responses {
            assert_ne!(response.rung(), DegradationRung::Full);
            assert!(!response.cached, "degraded artifacts are never cached");
        }
        assert!(
            bit_identical(&responses[0].output, &responses[1].output),
            "the follower shares the leader's degraded artifact"
        );
    });
    assert!(service.is_empty());
    assert_eq!(service.stats().uncacheable, 1);
    // No stale degraded hit: the next request misses and recompiles.
    started.fetch_add(2, Ordering::SeqCst);
    assert!(!service.request("2QAN", &circuit, &device).unwrap().hit);
}
