//! Deterministic seeded fault injection for chaos testing.
//!
//! A [`FaultInjector`] is consulted by the [`crate::PassManager`] before
//! every pass (and by [`ChaosCompiler`] before whole baseline compilations)
//! and, with configured probabilities, injects one of three fault classes:
//!
//! * a **panic** — exercising the `catch_unwind` isolation boundary of the
//!   batch driver,
//! * a typed **error** ([`crate::CompileError::PassFailed`]) — exercising
//!   error propagation and the portfolio compiler's degradation ladder,
//! * a **delay** — exercising deadline expiry mid-pipeline.
//!
//! Injection draws come from a single seeded RNG behind a mutex, so a chaos
//! run is reproducible from its seed (up to scheduling of concurrent jobs
//! over the shared stream).  Work that one caller runs concurrently takes
//! its own streams instead: the 2QAN portfolio [`FaultInjector::fork`]s
//! one stream per candidate with a single draw from the attached injector,
//! so a chaos compile injects the same faults for any worker count, and the
//! streams' injections still add up in the attached injector's
//! [`FaultInjector::counts`].  A *disarmed* injector (all probabilities
//! zero, the default) takes a fast path that draws nothing, keeping
//! zero-fault chaos runs bit-identical to the stock pipeline.

use crate::error::CompileError;
use crate::pipeline::{CompiledOutput, Compiler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use twoqan_circuit::Circuit;
use twoqan_device::Device;

/// Configuration of a [`FaultInjector`].
///
/// The three probabilities are evaluated per injection site from one
/// uniform draw; they must sum to at most 1.  The default configuration is
/// disarmed (all zero).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the injector's RNG.
    pub seed: u64,
    /// Probability of injecting a panic at each site.
    pub panic_probability: f64,
    /// Probability of injecting a typed [`CompileError`] at each site.
    pub error_probability: f64,
    /// Probability of injecting a sleep of [`FaultConfig::delay`] at each
    /// site.
    pub delay_probability: f64,
    /// Duration of an injected delay.
    pub delay: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            panic_probability: 0.0,
            error_probability: 0.0,
            delay_probability: 0.0,
            delay: Duration::from_millis(1),
        }
    }
}

impl FaultConfig {
    /// Whether this configuration can never fire (all probabilities zero).
    pub fn is_disarmed(&self) -> bool {
        self.panic_probability <= 0.0
            && self.error_probability <= 0.0
            && self.delay_probability <= 0.0
    }
}

/// Counters of what a [`FaultInjector`] actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Number of injection sites consulted.
    pub checks: usize,
    /// Panics injected.
    pub panics: usize,
    /// Typed errors injected.
    pub errors: usize,
    /// Delays injected.
    pub delays: usize,
}

/// A deterministic seeded fault injector hooked into pass boundaries.
///
/// Share one injector across a batch via `Arc` and read back
/// [`FaultInjector::counts`] afterwards to know how many faults actually
/// fired.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: Mutex<StdRng>,
    /// Shared with every stream forked from this injector, so the faults
    /// the streams inject are counted here too.
    tally: Arc<Tally>,
}

/// The counters behind [`FaultCounts`].
#[derive(Debug, Default)]
struct Tally {
    checks: AtomicUsize,
    panics: AtomicUsize,
    errors: AtomicUsize,
    delays: AtomicUsize,
}

impl FaultInjector {
    /// Creates an injector from its configuration.
    pub fn new(config: FaultConfig) -> Self {
        let rng = Mutex::new(StdRng::seed_from_u64(config.seed));
        Self {
            config,
            rng,
            tally: Arc::default(),
        }
    }

    /// An injector that never fires (used to prove zero-fault chaos runs
    /// match the stock pipeline bit-for-bit).
    pub fn disarmed() -> Self {
        Self::new(FaultConfig::default())
    }

    /// The injector's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// What the injector, and every stream forked from it, has done so
    /// far.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            checks: self.tally.checks.load(Ordering::Relaxed),
            panics: self.tally.panics.load(Ordering::Relaxed),
            errors: self.tally.errors.load(Ordering::Relaxed),
            delays: self.tally.delays.load(Ordering::Relaxed),
        }
    }

    /// Forks `count` independent fault streams for work that runs
    /// concurrently, such as the candidates of one portfolio compile.
    ///
    /// An armed injector takes exactly one draw from its RNG to seed the
    /// streams; a disarmed one draws nothing.  Stream `k` has this
    /// injector's configuration, an RNG of its own seeded from that draw
    /// and `k`, and counts into this injector's [`FaultInjector::counts`].
    /// So which faults stream `k` injects depends only on the draw and on
    /// `k`, not on how the streams' work is scheduled.
    pub fn fork(&self, count: usize) -> Vec<Arc<FaultInjector>> {
        let base: u64 = if self.config.is_disarmed() {
            self.config.seed
        } else {
            self.rng.lock().expect("fault injector RNG poisoned").gen()
        };
        (0..count)
            .map(|k| {
                Arc::new(Self {
                    config: self.config.clone(),
                    rng: Mutex::new(StdRng::seed_from_u64(base.wrapping_add(k as u64))),
                    tally: Arc::clone(&self.tally),
                })
            })
            .collect()
    }

    /// The injection site: called by the pass manager before each pass (and
    /// by [`ChaosCompiler`] before each delegated compile) with the stage
    /// name.
    ///
    /// # Errors
    ///
    /// Returns an injected [`CompileError::PassFailed`] naming the stage
    /// when the error fault fires.
    ///
    /// # Panics
    ///
    /// Panics deliberately when the panic fault fires — the whole point is
    /// to exercise the caller's isolation boundary.
    pub fn before_stage(&self, stage: &'static str) -> Result<(), CompileError> {
        self.tally.checks.fetch_add(1, Ordering::Relaxed);
        if self.config.is_disarmed() {
            return Ok(());
        }
        let draw: f64 = {
            let mut rng = self.rng.lock().expect("fault injector RNG poisoned");
            rng.gen()
        };
        if draw < self.config.panic_probability {
            self.tally.panics.fetch_add(1, Ordering::Relaxed);
            panic!("injected fault: panic before {stage}");
        }
        if draw < self.config.panic_probability + self.config.error_probability {
            self.tally.errors.fetch_add(1, Ordering::Relaxed);
            return Err(CompileError::PassFailed {
                pass: stage,
                reason: "injected fault".into(),
            });
        }
        if draw
            < self.config.panic_probability
                + self.config.error_probability
                + self.config.delay_probability
        {
            self.tally.delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.config.delay);
        }
        Ok(())
    }
}

/// Wraps any [`Compiler`] with a fault-injection site before each compile,
/// so baseline compilers (whose pipelines are built internally) participate
/// in chaos runs without plumbing changes.
pub struct ChaosCompiler {
    inner: Box<dyn Compiler>,
    injector: Arc<FaultInjector>,
}

impl ChaosCompiler {
    /// Wraps `inner`, consulting `injector` before every compile.
    pub fn new(inner: Box<dyn Compiler>, injector: Arc<FaultInjector>) -> Self {
        Self { inner, injector }
    }
}

impl std::fmt::Debug for ChaosCompiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosCompiler")
            .field("inner", &self.inner.name())
            .field("injector", &self.injector)
            .finish()
    }
}

impl Compiler for ChaosCompiler {
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
        self.injector.before_stage("chaos-job")?;
        self.inner.compile(circuit, device)
    }

    fn cache_fingerprint(&self) -> u64 {
        // Chaos compiles are deliberately nondeterministic (the injector is
        // stateful), so keep the fingerprint distinct from the wrapped
        // compiler's: a content-addressed cache must never serve a chaos
        // result for the real compiler or vice versa.
        crate::hash::fnv1a_64(&format!("chaos|{:016x}", self.inner.cache_fingerprint()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn disarmed_injector_never_fires_and_draws_nothing() {
        let inj = FaultInjector::disarmed();
        for _ in 0..100 {
            assert!(inj.before_stage("any").is_ok());
        }
        let counts = inj.counts();
        assert_eq!(counts.checks, 100);
        assert_eq!(counts.panics + counts.errors + counts.delays, 0);
        // The RNG stream was never advanced.
        let untouched = StdRng::seed_from_u64(inj.config().seed);
        assert_eq!(*inj.rng.lock().unwrap(), untouched);
    }

    #[test]
    fn error_faults_fire_with_the_configured_rate_and_name_the_stage() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 42,
            error_probability: 1.0,
            ..FaultConfig::default()
        });
        let err = inj.before_stage("qap-mapping").unwrap_err();
        assert_eq!(
            err,
            CompileError::PassFailed {
                pass: "qap-mapping",
                reason: "injected fault".into(),
            }
        );
        assert_eq!(inj.counts().errors, 1);
    }

    #[test]
    fn panic_faults_actually_panic_with_an_identifiable_message() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 7,
            panic_probability: 1.0,
            ..FaultConfig::default()
        });
        let caught = catch_unwind(AssertUnwindSafe(|| inj.before_stage("routing"))).unwrap_err();
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault"), "payload: {msg}");
        assert!(msg.contains("routing"), "payload: {msg}");
        assert_eq!(inj.counts().panics, 1);
    }

    #[test]
    fn delay_faults_sleep_and_are_counted() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 1,
            delay_probability: 1.0,
            delay: Duration::from_micros(100),
            ..FaultConfig::default()
        });
        assert!(inj.before_stage("alap-schedule").is_ok());
        assert_eq!(inj.counts().delays, 1);
    }

    #[test]
    fn injection_sequence_is_deterministic_per_seed() {
        let run = |seed| {
            let inj = FaultInjector::new(FaultConfig {
                seed,
                error_probability: 0.5,
                ..FaultConfig::default()
            });
            (0..50)
                .map(|_| inj.before_stage("s").is_err())
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100));
    }

    #[test]
    fn forked_streams_draw_once_from_the_parent_and_count_into_it() {
        let config = FaultConfig {
            seed: 13,
            error_probability: 0.5,
            ..FaultConfig::default()
        };
        let pattern = |stream: &FaultInjector| {
            (0..40)
                .map(|_| stream.before_stage("s").is_err())
                .collect::<Vec<bool>>()
        };
        let parent = FaultInjector::new(config.clone());
        let streams = parent.fork(3);
        // Each stream's faults depend only on the fork draw and its index,
        // not on the order the streams run in.
        let twin = FaultInjector::new(config.clone());
        let twin_streams = twin.fork(3);
        let backwards: Vec<Vec<bool>> = twin_streams.iter().rev().map(|s| pattern(s)).collect();
        let forwards: Vec<Vec<bool>> = streams.iter().map(|s| pattern(s)).collect();
        assert_eq!(forwards, backwards.into_iter().rev().collect::<Vec<_>>());
        assert_ne!(forwards[0], forwards[1]);
        // The fork took exactly one draw from the parent's stream.
        let mut expected = StdRng::seed_from_u64(config.seed);
        let _: u64 = expected.gen();
        assert_eq!(*parent.rng.lock().unwrap(), expected);
        // The streams' checks and faults are counted on the parent.
        let counts = parent.counts();
        assert_eq!(counts.checks, 120);
        assert_eq!(
            counts.errors,
            forwards.iter().flatten().filter(|&&e| e).count()
        );
        // A disarmed injector forks without drawing.
        let disarmed = FaultInjector::disarmed();
        for stream in disarmed.fork(2) {
            assert!(stream.before_stage("s").is_ok());
        }
        assert_eq!(disarmed.counts().checks, 2);
        assert_eq!(
            *disarmed.rng.lock().unwrap(),
            StdRng::seed_from_u64(disarmed.config().seed)
        );
    }
}
