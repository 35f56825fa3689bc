//! Compile-as-a-service: a caching front-end over the workspace compilers.
//!
//! The 2QAN pipeline is cheap per invocation (single-digit milliseconds at
//! n = 80), so a long-running compilation service absorbing sustained mixed
//! traffic is dominated by *repeat* requests: the same popular (workload,
//! device, calibration) combinations arrive over and over, and re-running
//! the QAP search for them is pure waste.  [`CompileService`] keys every
//! request by a **content hash** of everything that determines the compiled
//! artifact —
//!
//! * the canonicalized workload circuit (gate kinds, parameters, operands,
//!   in order),
//! * the device topology and native gate set,
//! * the full per-edge/per-qubit calibration ([`Target`]) snapshot,
//! * the compiler's configuration fingerprint
//!   ([`Compiler::cache_fingerprint`]) —
//!
//! and serves hits from a sharded LRU cache of [`CompiledOutput`]s.  Every
//! workspace compiler is deterministic for a fixed configuration, so a hit
//! is bit-identical to a fresh compile (property-tested in
//! `tests/service_properties.rs`); the only fields a cache hit cannot
//! reproduce are the wall-clock *timing* instrumentation of the original
//! run, which [`bit_identical`] therefore excludes from its comparison.
//!
//! Because the calibration snapshot is part of the key, cache invalidation
//! under calibration drift is automatic: a device whose `Target` changed
//! simply stops matching its old entries (which age out via LRU), and
//! [`CompileService::invalidate_device`] drops them eagerly when a drift
//! event is known.  Compiles that failed, or that were degraded below
//! [`DegradationRung::Full`] by a deadline, are **never** cached: a later
//! request with a healthier budget must get the chance to produce the
//! full-quality artifact.
//!
//! # Warm-start recompilation under drift
//!
//! [`CompileService::recompile`] goes one step further than invalidation:
//! alongside the artifact cache the service keeps a **drift-stable
//! placement index** — keyed by [`stable_key`], which hashes everything in
//! [`cache_key`] *except* the calibration snapshot — remembering the
//! initial placement of the last full-quality compile of every workload.
//! When drift invalidates an artifact, `recompile` seeds
//! [`Compiler::warm_clone`] with the predecessor placement: a
//! reduced-effort compiler whose warm-started QAP solvers are guaranteed
//! never to end with a placement worse than the seed.  Because calibration
//! drift moves placement quality only marginally per cycle, the warm
//! compile skips most of the cold multi-start effort (one mapping trial
//! with a single solver restart) while staying fully valid and
//! equivalence-checkable.  Warm artifacts are cached under the warm
//! compiler's own fingerprint, so plain [`CompileService::request`] hits
//! never observe a warm-derived artifact.
//!
//! # Concurrency: singleflight coalescing and bounded admission
//!
//! The service is designed for **many concurrent callers**.  Two layers sit
//! between the cache and the compile pool:
//!
//! * **In-flight coalescing (singleflight).**  The first thread to miss on a
//!   key becomes that key's *leader* and compiles it; every other thread
//!   that misses on the same key while the compile is running becomes a
//!   *follower*: it parks on the leader's in-flight slot — lending its core
//!   to queued pool work via [`CompilePool::try_help_one`] instead of
//!   sleeping — and receives the leader's `Arc<CompiledOutput>` when it
//!   lands (`coalesced: true` in the response, bit-identical by
//!   construction since the artifact is shared).  A leader *failure*
//!   propagates its typed [`ServiceError`] to all current followers and
//!   then clears the slot — errors are never cached and never poison the
//!   key, so a later retry compiles fresh.  A leader result that a deadline
//!   *degraded* below full quality is shared with the followers that were
//!   already waiting but never cached, matching the quality gate above.
//! * **Bounded admission (backpressure).**  [`ServiceConfig::max_in_flight`]
//!   caps the number of concurrently admitted miss compiles (leaders).
//!   When the cap is reached, a request that would need a *new* compile is
//!   fast-rejected with [`ServiceError::Overloaded`] instead of piling up
//!   behind the pool — the caller sheds load, retries later, or routes
//!   elsewhere.  Hits and followers are never rejected: they consume no
//!   compile capacity.

#![deny(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use twoqan::hash::ContentHasher;
pub use twoqan::pipeline::bit_identical;
use twoqan::pipeline::{CompiledOutput, Compiler, DegradationRung};
use twoqan::{compile_isolated, CompileError, CompilePool};
use twoqan_baselines::CompilerRegistry;
use twoqan_circuit::{Circuit, GateKind};
use twoqan_device::{Device, Target, TwoQubitBasis};

/// Configuration of a [`CompileService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Total cached outputs across all shards (divided evenly per shard).
    pub capacity: usize,
    /// Number of independently locked cache shards; more shards means less
    /// lock contention between concurrent requests.
    pub shards: usize,
    /// Worker count of the service's long-lived compile pool (`0` = one per
    /// core).  Provisioned **once** at construction — requests never pay
    /// per-call pool spawn costs.
    pub threads: usize,
    /// Maximum number of concurrently admitted miss compiles (in-flight
    /// *leaders*); `0` means unbounded.  A request that would start a new
    /// compile while the cap is saturated is fast-rejected with
    /// [`ServiceError::Overloaded`].  Cache hits and requests that coalesce
    /// onto an already-running compile are never rejected.
    pub max_in_flight: usize,
}

impl Default for ServiceConfig {
    /// 1024 cached outputs over 8 shards, one worker per core, unbounded
    /// admission.
    fn default() -> Self {
        Self {
            capacity: 1024,
            shards: 8,
            threads: 0,
            max_in_flight: 0,
        }
    }
}

/// Why a service request could not be served.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The request named a compiler the service has not registered.
    UnknownCompiler {
        /// The requested compiler name.
        name: String,
    },
    /// The compile itself failed (a panic surfaces as
    /// [`CompileError::Internal`]).
    Compile(CompileError),
    /// The admission cap on concurrent miss compiles is saturated: serving
    /// this request would require starting a new compile, and
    /// [`ServiceConfig::max_in_flight`] of them are already running.  This
    /// is a *fast* rejection — the request did not queue — so the caller
    /// can shed load or retry after a backoff.
    Overloaded {
        /// Miss compiles in flight when the request was rejected.
        in_flight: usize,
        /// The configured admission cap ([`ServiceConfig::max_in_flight`]).
        cap: usize,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownCompiler { name } => {
                write!(
                    f,
                    "no compiler named '{name}' is registered with the service"
                )
            }
            Self::Compile(e) => write!(f, "compilation failed: {e}"),
            Self::Overloaded { in_flight, cap } => write!(
                f,
                "service overloaded: {in_flight} miss compile(s) in flight at a cap of {cap}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<CompileError> for ServiceError {
    fn from(e: CompileError) -> Self {
        Self::Compile(e)
    }
}

/// One request of a [`CompileService::request_batch`] call.
#[derive(Clone, Copy)]
pub struct ServiceRequest<'a> {
    /// Registered compiler name (e.g. `"2QAN"`).
    pub compiler: &'a str,
    /// The workload circuit.
    pub circuit: &'a Circuit,
    /// The target device (topology + gate set + calibration snapshot).
    pub device: &'a Device,
}

/// The service's answer to one request, with its per-request metrics.
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// The compiled artifact (shared with the cache on a hit/insert).
    pub output: Arc<CompiledOutput>,
    /// Whether the artifact came from the cache.
    pub hit: bool,
    /// Whether this request coalesced onto another caller's in-flight
    /// compile of the same key and received the leader's (shared, therefore
    /// bit-identical) artifact instead of compiling itself.
    pub coalesced: bool,
    /// Whether the artifact came from the warm-start recompile path: a
    /// previous snapshot's placement seeded a reduced-effort compile (only
    /// [`CompileService::recompile`] sets this).
    pub warm: bool,
    /// Whether this request inserted the artifact into the cache (misses
    /// only; `false` when the result was uncacheable — failed requests
    /// return an error instead, degraded ones return `cached: false`).
    pub cached: bool,
    /// The content-addressed cache key of the request.
    pub key: u128,
    /// Milliseconds between request arrival and compile start (hashing,
    /// cache lookup and — in a batch — waiting for a pool worker).
    pub queue_wait_ms: f64,
    /// Milliseconds a coalesced request spent waiting for the leader's
    /// artifact (`0` unless `coalesced`).  Followers spend this time
    /// helping with queued pool work, not sleeping.
    pub coalesced_wait_ms: f64,
    /// Compile wall-clock milliseconds (`0` on a hit or coalesced request).
    pub compile_ms: f64,
    /// Total request wall-clock milliseconds.
    pub wall_ms: f64,
    /// Miss compiles in flight when this request arrived — the queue-depth
    /// / backpressure signal [`ServiceConfig::max_in_flight`] caps.
    pub queue_depth: usize,
}

impl ServiceResponse {
    /// The degradation rung that produced the artifact (from the PR-6
    /// graceful-degradation ladder).
    pub fn rung(&self) -> DegradationRung {
        self.output.report.rung
    }
}

/// A point-in-time copy of the service's request counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Total requests served (including failed ones).
    pub requests: u64,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that compiled (in-flight *leaders*; coalesced followers are
    /// counted separately).
    pub misses: u64,
    /// Requests that coalesced onto another caller's in-flight compile of
    /// the same key instead of compiling themselves.
    pub coalesced: u64,
    /// Requests fast-rejected with [`ServiceError::Overloaded`] because the
    /// admission cap on concurrent miss compiles was saturated.
    pub rejected: u64,
    /// Artifacts inserted into the cache.
    pub insertions: u64,
    /// Artifacts evicted to respect the capacity bound.
    pub evictions: u64,
    /// Successful compiles *not* cached because a deadline degraded them
    /// below [`DegradationRung::Full`].
    pub uncacheable: u64,
    /// Requests that returned an error.
    pub errors: u64,
    /// Successful *warm* leader compiles: recompiles where the predecessor
    /// snapshot's placement seeded a reduced-effort compile.
    pub warm_hits: u64,
    /// Successful *cold* (full-effort) leader compiles.
    pub cold_compiles: u64,
    /// Calls to [`CompileService::invalidate_device`].
    pub invalidations: u64,
    /// Cached artifacts dropped by those invalidation calls.
    pub invalidated_entries: u64,
}

#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    uncacheable: AtomicU64,
    errors: AtomicU64,
    warm_hits: AtomicU64,
    cold_compiles: AtomicU64,
    invalidations: AtomicU64,
    invalidated_entries: AtomicU64,
}

impl Stats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn add(counter: &AtomicU64, amount: u64) {
        counter.fetch_add(amount, Ordering::Relaxed);
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            cold_compiles: self.cold_compiles.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            invalidated_entries: self.invalidated_entries.load(Ordering::Relaxed),
        }
    }
}

struct Entry {
    output: Arc<CompiledOutput>,
    /// Monotonic use counter value at the last touch — exact LRU order.
    last_used: u64,
    /// Hash of the (device, target) snapshot the artifact was compiled
    /// against, for eager [`CompileService::invalidate_device`].
    device_fingerprint: u128,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<u128, Entry>,
    clock: u64,
}

impl Shard {
    fn touch(&mut self, key: u128) -> Option<Arc<CompiledOutput>> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&key).map(|e| {
            e.last_used = clock;
            Arc::clone(&e.output)
        })
    }

    /// Inserts (or refreshes) an entry, evicting the least-recently-used
    /// one first when the shard is at capacity.  The O(n) eviction scan is
    /// deliberate: inserts only happen on misses, which already paid for a
    /// full compile — thousands of times the scan's cost.
    fn insert(
        &mut self,
        key: u128,
        output: Arc<CompiledOutput>,
        device_fingerprint: u128,
        capacity: usize,
    ) -> u64 {
        let mut evicted = 0;
        if !self.entries.contains_key(&key) {
            while self.entries.len() >= capacity.max(1) {
                let lru = self
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(&k, _)| k)
                    .expect("non-empty shard has an LRU entry");
                self.entries.remove(&lru);
                evicted += 1;
            }
        }
        self.clock += 1;
        self.entries.insert(
            key,
            Entry {
                output,
                last_used: self.clock,
                device_fingerprint,
            },
        );
        evicted
    }
}

/// What [`CompileService::recompile`] remembers about the last successful
/// full-quality compile of a drift-stable key: which calibration snapshot
/// it was compiled against, where the artifact lives in the cache, and the
/// initial placement that seeds a warm recompile after the snapshot drifts.
#[derive(Clone)]
struct PlacementRecord {
    device_fingerprint: u128,
    artifact_key: u128,
    placement: Vec<usize>,
}

/// The bounded LRU index from [`stable_key`] to [`PlacementRecord`].
/// Placements survive device drift by construction (the key excludes the
/// calibration snapshot), which is the whole point: when drift invalidates
/// an artifact, its placement is still here to warm-start the recompile.
#[derive(Default)]
struct PlacementIndex {
    entries: HashMap<u128, (PlacementRecord, u64)>,
    clock: u64,
}

impl PlacementIndex {
    fn touch(&mut self, key: u128) -> Option<PlacementRecord> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&key).map(|(record, last_used)| {
            *last_used = clock;
            record.clone()
        })
    }

    fn record(&mut self, key: u128, record: PlacementRecord, capacity: usize) {
        if !self.entries.contains_key(&key) {
            while self.entries.len() >= capacity.max(1) {
                let lru = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, last_used))| *last_used)
                    .map(|(&k, _)| k)
                    .expect("non-empty index has an LRU entry");
                self.entries.remove(&lru);
            }
        }
        self.clock += 1;
        self.entries.insert(key, (record, self.clock));
    }
}

/// One in-flight compile: the slot the key's leader publishes into and its
/// followers park on.  `state` is `None` while the compile runs and becomes
/// `Some(result)` exactly once; a shared `Arc` clone of the leader's output
/// (or its typed error) is what every follower receives — bit-identical by
/// construction.
struct Flight {
    state: Mutex<Option<Result<Arc<CompiledOutput>, ServiceError>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(None),
            done: Condvar::new(),
        })
    }
}

/// A request that missed the cache, resolved to everything its compile
/// and its response need.
struct Miss<'a> {
    /// The registered compiler the request named.
    registered: &'a dyn Compiler,
    /// The warm clone that compiles instead, on the warm recompile path.
    warm: Option<Box<dyn Compiler>>,
    circuit: &'a Circuit,
    device: &'a Device,
    /// The cache key of the compiler that compiles the miss.
    key: u128,
    /// The drift-stable key of the *registered* compiler (not a warm
    /// clone's), so successive recompiles keep finding the freshest
    /// placement.
    stable: u128,
    /// Hash of the device snapshot, computed once per miss for the
    /// placement check, the cache insert and the placement record.
    device_fingerprint: u128,
    arrival: Instant,
    /// Miss compiles in flight when the request arrived.
    queue_depth: usize,
}

impl Miss<'_> {
    /// The compiler that compiles this miss.
    fn compiler(&self) -> &dyn Compiler {
        self.warm.as_deref().unwrap_or(self.registered)
    }
}

/// A leader's compile outcome and where its time went.
struct Compiled {
    result: Result<CompiledOutput, CompileError>,
    /// Milliseconds from request arrival to compile start.
    queue_wait_ms: f64,
    compile_ms: f64,
}

/// What [`CompileService::probe`] found.
enum Probe<'a> {
    /// A cached artifact answered the request.
    Hit(ServiceResponse),
    /// The request needs a compile (or a flight to follow).
    Miss(Miss<'a>),
}

/// How [`CompileService::admit`] classified a miss-path request.
enum Admission<'s> {
    /// The key was cached between the miss probe and admission (another
    /// thread's leader landed it) — serve the artifact as a hit.
    Hit(Arc<CompiledOutput>),
    /// This thread is the key's leader: it owns the compile and must
    /// publish through the lease (which also releases the admission slot).
    Lead(FlightLease<'s>),
    /// Another thread is already compiling this key — park on its flight.
    Follow(Arc<Flight>),
}

/// The leader's RAII claim on an in-flight slot plus one admission token.
///
/// [`FlightLease::publish`] hands the compile result to every parked
/// follower, clears the slot and releases the token.  Dropping the lease
/// without publishing (a panic unwinding through the leader) publishes a
/// typed internal error instead — followers are never left parked on a
/// torn slot, and the key is never poisoned (the slot is removed either
/// way, so a later retry compiles fresh).
struct FlightLease<'s> {
    service: &'s CompileService,
    key: u128,
    flight: Arc<Flight>,
    published: bool,
}

impl FlightLease<'_> {
    /// Publishes the leader's result to all followers and clears the slot.
    fn publish(mut self, result: Result<Arc<CompiledOutput>, ServiceError>) {
        self.published = true;
        self.service.finish_flight(self.key, &self.flight, result);
    }
}

impl Drop for FlightLease<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.service.finish_flight(
                self.key,
                &self.flight,
                Err(ServiceError::Compile(CompileError::Internal {
                    detail: "in-flight leader abandoned its compile".to_string(),
                })),
            );
        }
    }
}

/// A long-running compilation service with a content-addressed cache.
///
/// Construction registers the compilers and provisions one long-lived
/// [`CompilePool`] (clamped to the core count); requests reuse both, so the
/// per-request cost of a miss is exactly one compile, and of a hit one hash
/// plus one shard lock.  The service is `Sync`: requests may be issued from
/// any number of threads concurrently.
pub struct CompileService {
    compilers: Vec<Box<dyn Compiler>>,
    shards: Vec<Mutex<Shard>>,
    shard_capacity: usize,
    /// In-flight compiles keyed by cache key, sharded like the cache so
    /// leader registration and follower lookup contend per shard only.
    flights: Vec<Mutex<HashMap<u128, Arc<Flight>>>>,
    /// Currently admitted miss compiles (leaders holding admission tokens).
    in_flight: AtomicUsize,
    /// Admission cap (`0` = unbounded); see [`ServiceConfig::max_in_flight`].
    max_in_flight: usize,
    /// Drift-stable placement index feeding warm-start recompiles, bounded
    /// by the same capacity as the artifact cache.
    placements: Mutex<PlacementIndex>,
    placement_capacity: usize,
    pool: CompilePool,
    stats: Stats,
}

impl CompileService {
    /// A service over every registered workspace compiler
    /// ([`CompilerRegistry::NAMES`] plus the calibration-aware
    /// `"2QAN-noise"` variant).
    pub fn new(config: ServiceConfig) -> Self {
        let mut compilers = CompilerRegistry::all();
        compilers.push(
            CompilerRegistry::by_name("2QAN-noise")
                .expect("the noise-aware 2QAN variant is constructible by name"),
        );
        Self::with_compilers(config, compilers)
    }

    /// A service over an explicit compiler set (names must be unique).
    pub fn with_compilers(config: ServiceConfig, compilers: Vec<Box<dyn Compiler>>) -> Self {
        let shards = config.shards.max(1);
        Self {
            compilers,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity: config.capacity.max(1).div_ceil(shards),
            flights: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            in_flight: AtomicUsize::new(0),
            max_in_flight: config.max_in_flight,
            placements: Mutex::new(PlacementIndex::default()),
            placement_capacity: config.capacity.max(1),
            pool: CompilePool::new(twoqan::pool::resolve_workers(config.threads)),
            stats: Stats::default(),
        }
    }

    /// The registered compiler names, in registration order.
    pub fn compiler_names(&self) -> Vec<&'static str> {
        self.compilers.iter().map(|c| c.name()).collect()
    }

    /// Number of artifacts currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").entries.len())
            .sum()
    }

    /// Returns `true` when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of the request counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// The content-addressed cache key the service would use for this
    /// request, or `None` for an unregistered compiler name.
    pub fn key_for(&self, compiler: &str, circuit: &Circuit, device: &Device) -> Option<u128> {
        self.resolve(compiler)
            .map(|c| cache_key(c, circuit, device))
    }

    /// Serves one request: a cache hit returns the stored artifact, a miss
    /// either compiles on the service pool (this thread is the key's
    /// *leader*) or coalesces onto another thread's in-flight compile of
    /// the same key and receives its shared artifact (`coalesced: true`).
    /// Full-quality leader results are cached.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownCompiler`] for an unregistered name,
    /// [`ServiceError::Compile`] when the compile fails — propagated to the
    /// leader *and* every coalesced follower, never cached, never poisoning
    /// the key — and [`ServiceError::Overloaded`] when starting a new
    /// compile would exceed [`ServiceConfig::max_in_flight`].
    pub fn request(
        &self,
        compiler: &str,
        circuit: &Circuit,
        device: &Device,
    ) -> Result<ServiceResponse, ServiceError> {
        self.serve(compiler, circuit, device, false)
    }

    /// Recompiles a workload whose cached artifact was invalidated by
    /// calibration drift, **warm-starting** from the placement of the last
    /// successful compile of the same (compiler, circuit, topology) when
    /// one is known:
    ///
    /// 1. If the *current* snapshot's artifact is cached (the target did not
    ///    actually change, or another thread already recompiled it), it is
    ///    served as an ordinary hit — bit-identical to a cold compile by the
    ///    cache contract.
    /// 2. Otherwise the drift-stable placement index is consulted.  A
    ///    recorded placement seeds [`Compiler::warm_clone`] — a
    ///    reduced-effort compiler that is guaranteed never to end up with a
    ///    worse placement than the seed — and the warm artifact is compiled,
    ///    cached under the warm compiler's own key and returned with
    ///    `warm: true`.
    /// 3. With no usable record (first sight of the workload, index
    ///    eviction, or a compiler without a warm path) the request falls
    ///    back to a cold compile, exactly like [`CompileService::request`].
    ///
    /// # Errors
    ///
    /// Same contract as [`CompileService::request`].
    pub fn recompile(
        &self,
        compiler: &str,
        circuit: &Circuit,
        device: &Device,
    ) -> Result<ServiceResponse, ServiceError> {
        self.serve(compiler, circuit, device, true)
    }

    /// The request path of [`CompileService::request`] (`warm == false`)
    /// and [`CompileService::recompile`] (`warm == true`): probe, then
    /// admit and compile or follow on a miss.
    fn serve(
        &self,
        compiler: &str,
        circuit: &Circuit,
        device: &Device,
        warm: bool,
    ) -> Result<ServiceResponse, ServiceError> {
        let miss = match self.probe(compiler, circuit, device, warm, Instant::now())? {
            Probe::Hit(response) => return Ok(response),
            Probe::Miss(miss) => miss,
        };
        match self.admit(miss.key)? {
            Admission::Hit(output) => {
                Ok(self.hit(output, miss.key, false, miss.arrival, miss.queue_depth))
            }
            Admission::Follow(flight) => self.follow(&flight, &miss),
            Admission::Lead(lease) => {
                Stats::bump(&self.stats.misses);
                // The service pool is installed for the compile so the
                // solvers' multi-start restarts reuse the long-lived
                // workers instead of provisioning per request.
                let guard = self.pool.install();
                let compiled = self.compile(&miss);
                drop(guard);
                self.lead(lease, &miss, compiled)
            }
        }
    }

    /// The request prelude every entry point shares: count the request,
    /// resolve the compiler, derive the key and probe the cache.  With
    /// `warm` set, a miss then consults the drift-stable placement index:
    /// a recorded placement of the same workload is served if its artifact
    /// is still cached, and otherwise seeds a warm clone of the compiler,
    /// whose own key is probed and becomes the miss's key.
    fn probe<'a>(
        &'a self,
        compiler: &str,
        circuit: &'a Circuit,
        device: &'a Device,
        warm: bool,
        arrival: Instant,
    ) -> Result<Probe<'a>, ServiceError> {
        Stats::bump(&self.stats.requests);
        let queue_depth = self.in_flight.load(Ordering::Relaxed);
        let Some(registered) = self.resolve(compiler) else {
            Stats::bump(&self.stats.errors);
            return Err(ServiceError::UnknownCompiler {
                name: compiler.to_string(),
            });
        };
        let key = cache_key(registered, circuit, device);
        if let Some(output) = self.shard(key).touch(key) {
            let hit = self.hit(output, key, false, arrival, queue_depth);
            return Ok(Probe::Hit(hit));
        }
        let mut miss = Miss {
            registered,
            warm: None,
            circuit,
            device,
            key,
            stable: stable_key(registered, circuit, device),
            device_fingerprint: device_fingerprint(device),
            arrival,
            queue_depth,
        };
        if !warm {
            return Ok(Probe::Miss(miss));
        }
        let record = self
            .placements
            .lock()
            .expect("placement index poisoned")
            .touch(miss.stable);
        let Some(record) = record else {
            return Ok(Probe::Miss(miss));
        };
        // Fast path for a repeat recompile against an unchanged snapshot
        // whose artifact is still cached under its own key.
        if record.device_fingerprint == miss.device_fingerprint {
            let recorded = record.artifact_key;
            if let Some(output) = self.shard(recorded).touch(recorded) {
                // A recorded artifact under a different key than the cold
                // one was produced by a warm compile.
                let hit = self.hit(output, recorded, recorded != key, arrival, queue_depth);
                return Ok(Probe::Hit(hit));
            }
        }
        if let Some(warm_compiler) = registered.warm_clone(&record.placement) {
            // The warm artifact is keyed under the *warm* compiler's
            // fingerprint (which covers the seed), so plain `request` hits
            // never observe warm-derived artifacts and repeated recompiles
            // of the same drifted snapshot hit this key.
            miss.key = cache_key(warm_compiler.as_ref(), circuit, device);
            if let Some(output) = self.shard(miss.key).touch(miss.key) {
                let hit = self.hit(output, miss.key, true, arrival, queue_depth);
                return Ok(Probe::Hit(hit));
            }
            miss.warm = Some(warm_compiler);
        }
        Ok(Probe::Miss(miss))
    }

    /// The registered compiler named `name`.
    fn resolve(&self, name: &str) -> Option<&dyn Compiler> {
        self.compilers
            .iter()
            .find(|c| c.name() == name)
            .map(|c| c.as_ref())
    }

    /// Compiles a miss on the calling thread, panic-isolated, timing the
    /// wait before it and the compile itself.  Callers install the service
    /// pool first, so the portfolio candidates and solver restarts run on
    /// its workers.
    fn compile(&self, miss: &Miss<'_>) -> Compiled {
        let queue_wait_ms = ms_since(miss.arrival);
        let start = Instant::now();
        let result = compile_isolated(miss.compiler(), miss.circuit, miss.device);
        Compiled {
            result,
            queue_wait_ms,
            compile_ms: ms_since(start),
        }
    }

    /// The leader's completion: account the compile, cache it and record
    /// its placement, publish it to the followers and answer.  A failed
    /// compile is published as its typed error and never cached.
    fn lead(
        &self,
        lease: FlightLease<'_>,
        miss: &Miss<'_>,
        compiled: Compiled,
    ) -> Result<ServiceResponse, ServiceError> {
        let output = match compiled.result {
            Ok(output) => Arc::new(output),
            Err(e) => {
                Stats::bump(&self.stats.errors);
                let error = ServiceError::from(e);
                lease.publish(Err(error.clone()));
                return Err(error);
            }
        };
        Stats::bump(if miss.warm.is_some() {
            &self.stats.warm_hits
        } else {
            &self.stats.cold_compiles
        });
        // Cache *before* the flight clears so a newcomer always finds the
        // key in one of the two maps.
        let cached = self.maybe_cache(miss, &output);
        self.record_placement(miss, &output);
        lease.publish(Ok(Arc::clone(&output)));
        Ok(ServiceResponse {
            output,
            hit: false,
            coalesced: false,
            warm: miss.warm.is_some(),
            cached,
            key: miss.key,
            queue_wait_ms: compiled.queue_wait_ms,
            coalesced_wait_ms: 0.0,
            compile_ms: compiled.compile_ms,
            wall_ms: ms_since(miss.arrival),
            queue_depth: miss.queue_depth,
        })
    }

    /// The follower's completion: park on the leader's flight and answer
    /// with its shared artifact, or its error.
    fn follow(&self, flight: &Flight, miss: &Miss<'_>) -> Result<ServiceResponse, ServiceError> {
        let queue_wait_ms = ms_since(miss.arrival);
        let wait_start = Instant::now();
        let result = self.wait_for_flight(flight);
        Stats::bump(&self.stats.coalesced);
        match result {
            Ok(output) => Ok(ServiceResponse {
                output,
                hit: false,
                coalesced: true,
                warm: miss.warm.is_some(),
                cached: false,
                key: miss.key,
                queue_wait_ms,
                coalesced_wait_ms: ms_since(wait_start),
                compile_ms: 0.0,
                wall_ms: ms_since(miss.arrival),
                queue_depth: miss.queue_depth,
            }),
            Err(e) => {
                Stats::bump(&self.stats.errors);
                Err(e)
            }
        }
    }

    /// Remembers a full-quality compile's initial placement under its
    /// drift-stable key so a later [`CompileService::recompile`] against a
    /// drifted snapshot can warm-start from it.  Degraded artifacts are
    /// skipped (their placement may come from the trivial fallback), as are
    /// compilers that report no placement.
    fn record_placement(&self, miss: &Miss<'_>, output: &CompiledOutput) {
        if output.report.rung != DegradationRung::Full || output.initial_placement.is_empty() {
            return;
        }
        self.placements
            .lock()
            .expect("placement index poisoned")
            .record(
                miss.stable,
                PlacementRecord {
                    device_fingerprint: miss.device_fingerprint,
                    artifact_key: miss.key,
                    placement: output.initial_placement.clone(),
                },
                self.placement_capacity,
            );
    }

    /// Counts a cache hit on `key` and answers with its artifact.
    fn hit(
        &self,
        output: Arc<CompiledOutput>,
        key: u128,
        warm: bool,
        arrival: Instant,
        queue_depth: usize,
    ) -> ServiceResponse {
        Stats::bump(&self.stats.hits);
        let wall_ms = ms_since(arrival);
        ServiceResponse {
            output,
            hit: true,
            coalesced: false,
            warm,
            cached: false,
            key,
            queue_wait_ms: wall_ms,
            coalesced_wait_ms: 0.0,
            compile_ms: 0.0,
            wall_ms,
            queue_depth,
        }
    }

    /// Classifies a cache miss: follow an existing in-flight compile, serve
    /// the cache entry a just-finished leader landed (double-checked under
    /// the flight-shard lock), or become the key's leader — which requires
    /// an admission token when [`ServiceConfig::max_in_flight`] is set.
    fn admit(&self, key: u128) -> Result<Admission<'_>, ServiceError> {
        let mut flights = self.flight_shard(key);
        if let Some(flight) = flights.get(&key) {
            return Ok(Admission::Follow(Arc::clone(flight)));
        }
        // Double-check the cache while holding the flight-shard lock: a
        // leader inserts into the cache *before* clearing its flight, so a
        // key absent from both maps genuinely needs a fresh compile.  (Lock
        // order is always flight shard → cache shard; nothing acquires them
        // in the opposite order.)
        if let Some(output) = self.shard(key).touch(key) {
            return Ok(Admission::Hit(output));
        }
        let admitted = self.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        if self.max_in_flight != 0 && admitted > self.max_in_flight {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            Stats::bump(&self.stats.rejected);
            Stats::bump(&self.stats.errors);
            return Err(ServiceError::Overloaded {
                in_flight: admitted - 1,
                cap: self.max_in_flight,
            });
        }
        let flight = Flight::new();
        flights.insert(key, Arc::clone(&flight));
        Ok(Admission::Lead(FlightLease {
            service: self,
            key,
            flight,
            published: false,
        }))
    }

    /// Parks on a leader's in-flight slot until its result is published.
    /// While waiting, the follower lends its core to queued pool work
    /// ([`CompilePool::try_help_one`]) — typically the leader's own
    /// multi-start restarts — instead of sleeping.
    fn wait_for_flight(&self, flight: &Flight) -> Result<Arc<CompiledOutput>, ServiceError> {
        loop {
            {
                let state = flight.state.lock().expect("in-flight slot poisoned");
                if let Some(result) = state.as_ref() {
                    return result.clone();
                }
            }
            if self.pool.try_help_one() {
                continue;
            }
            // Nothing to help with right now: park until the leader's
            // notify (with a short timeout so newly queued pool work is
            // picked up promptly).
            let state = flight.state.lock().expect("in-flight slot poisoned");
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
            let (state, _) = flight
                .done
                .wait_timeout(state, Duration::from_micros(500))
                .expect("in-flight slot poisoned");
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
        }
    }

    /// Publishes a leader's result to its followers, clears the in-flight
    /// slot and releases the admission token.  Called exactly once per
    /// flight, via [`FlightLease::publish`] or the lease's drop guard.
    fn finish_flight(
        &self,
        key: u128,
        flight: &Arc<Flight>,
        result: Result<Arc<CompiledOutput>, ServiceError>,
    ) {
        {
            let mut flights = self.flight_shard(key);
            // Remove only *this* flight — belt-and-braces against a stale
            // lease racing a successor leader's registration.
            if flights.get(&key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
                flights.remove(&key);
            }
        }
        *flight.state.lock().expect("in-flight slot poisoned") = Some(result);
        flight.done.notify_all();
        self.in_flight.fetch_sub(1, Ordering::AcqRel);
    }

    fn flight_shard(&self, key: u128) -> MutexGuard<'_, HashMap<u128, Arc<Flight>>> {
        let index = (key >> 96) as usize % self.flights.len();
        self.flights[index]
            .lock()
            .expect("in-flight shard poisoned")
    }

    /// Serves a batch of requests, fanning the misses out over the service
    /// pool; responses keep the request order.  Per-response
    /// `queue_wait_ms` covers hashing, lookup and the wait for a pool
    /// worker.  Every request is classified before anything compiles, so
    /// duplicate keys inside the batch — and keys another thread is already
    /// compiling — coalesce onto a single compile, just like
    /// [`CompileService::request`].
    pub fn request_batch(
        &self,
        requests: &[ServiceRequest<'_>],
    ) -> Vec<Result<ServiceResponse, ServiceError>> {
        let arrival = Instant::now();
        // Hits and unknown names answer immediately, each distinct missing
        // key elects one in-batch leader (the pool compiles those), and
        // everything else follows a flight — an in-batch leader's or
        // another thread's.
        let mut responses: Vec<Option<Result<ServiceResponse, ServiceError>>> =
            (0..requests.len()).map(|_| None).collect();
        let mut leaders = Vec::new();
        let mut followers = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            let miss = match self.probe(req.compiler, req.circuit, req.device, false, arrival) {
                Ok(Probe::Miss(miss)) => miss,
                Ok(Probe::Hit(response)) => {
                    responses[i] = Some(Ok(response));
                    continue;
                }
                Err(e) => {
                    responses[i] = Some(Err(e));
                    continue;
                }
            };
            match self.admit(miss.key) {
                Ok(Admission::Hit(output)) => {
                    let hit = self.hit(output, miss.key, false, arrival, miss.queue_depth);
                    responses[i] = Some(Ok(hit));
                }
                Ok(Admission::Lead(lease)) => {
                    Stats::bump(&self.stats.misses);
                    leaders.push((i, miss, lease));
                }
                Ok(Admission::Follow(flight)) => followers.push((i, miss, flight)),
                Err(e) => responses[i] = Some(Err(e)),
            }
        }
        let guard = self.pool.install();
        let compiled = self
            .pool
            .run_indexed(leaders.len(), |j| self.compile(&leaders[j].1));
        drop(guard);
        for ((i, miss, lease), compiled) in leaders.into_iter().zip(compiled) {
            responses[i] = Some(self.lead(lease, &miss, compiled));
        }
        // In-batch followers resolve instantly (their leader just
        // published); followers of another thread's flight park on it.
        for (i, miss, flight) in followers {
            responses[i] = Some(self.follow(&flight, &miss));
        }
        responses
            .into_iter()
            .map(|r| r.expect("every request index is answered"))
            .collect()
    }

    /// Eagerly drops every cached artifact compiled against this device's
    /// *current* (topology, gate set, calibration snapshot) — the explicit
    /// invalidation hook for calibration-drift events.  Returns the number
    /// of dropped entries.  (Entries for a *previous* snapshot stop being
    /// reachable as soon as the device drifts — their keys no longer match —
    /// and age out via LRU.)
    pub fn invalidate_device(&self, device: &Device) -> usize {
        let fingerprint = device_fingerprint(device);
        let mut dropped = 0;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            let before = shard.entries.len();
            shard
                .entries
                .retain(|_, e| e.device_fingerprint != fingerprint);
            dropped += before - shard.entries.len();
        }
        Stats::bump(&self.stats.invalidations);
        Stats::add(&self.stats.invalidated_entries, dropped as u64);
        dropped
    }

    /// Drops every cached artifact.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").entries.clear();
        }
    }

    fn shard(&self, key: u128) -> std::sync::MutexGuard<'_, Shard> {
        // Shard by the top bits: the low bits pick the slot inside the
        // shard's hash map, so both selections stay independent.
        let index = (key >> 96) as usize % self.shards.len();
        self.shards[index].lock().expect("cache shard poisoned")
    }

    /// Caches a successful compile unless a deadline degraded it: only
    /// [`DegradationRung::Full`] artifacts may be served as the canonical
    /// result for their key.
    fn maybe_cache(&self, miss: &Miss<'_>, output: &Arc<CompiledOutput>) -> bool {
        if output.report.rung != DegradationRung::Full {
            Stats::bump(&self.stats.uncacheable);
            return false;
        }
        let evicted = self.shard(miss.key).insert(
            miss.key,
            Arc::clone(output),
            miss.device_fingerprint,
            self.shard_capacity,
        );
        Stats::bump(&self.stats.insertions);
        self.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
        true
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The content-addressed cache key of a (compiler, circuit, device)
/// request: a 128-bit stable hash of the canonicalized circuit, the device
/// topology and gate set, the full calibration snapshot and the compiler's
/// configuration fingerprint.
pub fn cache_key(compiler: &dyn Compiler, circuit: &Circuit, device: &Device) -> u128 {
    let mut h = ContentHasher::new();
    h.write_u64(compiler.cache_fingerprint());
    hash_circuit(&mut h, circuit);
    hash_device(&mut h, device);
    h.finish()
}

/// Hash of a device's (topology, gate set, calibration snapshot) — what a
/// cached artifact was compiled *against*, independent of the workload.
fn device_fingerprint(device: &Device) -> u128 {
    let mut h = ContentHasher::new();
    hash_device(&mut h, device);
    h.finish()
}

fn hash_circuit(h: &mut ContentHasher, circuit: &Circuit) {
    h.write_usize(circuit.num_qubits());
    h.write_usize(circuit.gates().len());
    for gate in circuit.gates() {
        hash_gate(h, gate.kind);
        h.write_usize(gate.qubit0());
        if gate.is_two_qubit() {
            h.write_usize(gate.qubit1());
        }
    }
}

/// One stable byte tag per gate kind plus its exact parameter bits.  The
/// tags are part of the cache-key format: renumbering them invalidates
/// every key (which is safe — at worst one cold compile per entry).
fn hash_gate(h: &mut ContentHasher, kind: GateKind) {
    match kind {
        GateKind::Rx(t) => {
            h.write_u8(0);
            h.write_f64(t);
        }
        GateKind::Ry(t) => {
            h.write_u8(1);
            h.write_f64(t);
        }
        GateKind::Rz(t) => {
            h.write_u8(2);
            h.write_f64(t);
        }
        GateKind::H => h.write_u8(3),
        GateKind::X => h.write_u8(4),
        GateKind::Y => h.write_u8(5),
        GateKind::Z => h.write_u8(6),
        GateKind::U3(t, p, l) => {
            h.write_u8(7);
            h.write_f64(t);
            h.write_f64(p);
            h.write_f64(l);
        }
        GateKind::Cnot => h.write_u8(8),
        GateKind::Cz => h.write_u8(9),
        GateKind::Swap => h.write_u8(10),
        GateKind::ISwap => h.write_u8(11),
        GateKind::Syc => h.write_u8(12),
        GateKind::Canonical { xx, yy, zz } => {
            h.write_u8(13);
            h.write_f64(xx);
            h.write_f64(yy);
            h.write_f64(zz);
        }
        GateKind::DressedSwap { xx, yy, zz } => {
            h.write_u8(14);
            h.write_f64(xx);
            h.write_f64(yy);
            h.write_f64(zz);
        }
    }
}

fn basis_tag(basis: TwoQubitBasis) -> u8 {
    match basis {
        TwoQubitBasis::Cnot => 0,
        TwoQubitBasis::Cz => 1,
        TwoQubitBasis::Syc => 2,
        TwoQubitBasis::ISwap => 3,
    }
}

fn hash_device(h: &mut ContentHasher, device: &Device) {
    hash_topology(h, device);
    hash_target(h, device.target());
}

/// Hash of the calibration-*independent* part of a device: topology and
/// native gate set only.  This is what stays stable across calibration
/// drift, making it the right device component of [`stable_key`].
fn hash_topology(h: &mut ContentHasher, device: &Device) {
    // Topology: qubit count plus the canonical sorted edge list.  The
    // display name is deliberately excluded — two identically shaped and
    // calibrated devices compile identically, so they share cache lines.
    h.write_usize(device.num_qubits());
    let mut edges: Vec<(usize, usize)> = device
        .topology()
        .edges()
        .into_iter()
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    h.write_usize(edges.len());
    for (a, b) in edges {
        h.write_usize(a);
        h.write_usize(b);
    }
    // Native gate set, in declared order (the first basis is the default
    // decomposition target, so order matters).
    let bases = &device.gate_set().bases;
    h.write_usize(bases.len());
    for &basis in bases {
        h.write_u8(basis_tag(basis));
    }
}

/// The *drift-stable* identity of a request: compiler fingerprint,
/// canonical circuit and device topology + gate set — everything in
/// [`cache_key`] **except** the calibration snapshot.  Two requests for the
/// same workload on the same device before and after a calibration drift
/// share this key, which is how [`CompileService::recompile`] finds the
/// predecessor snapshot's placement to warm-start from.
pub fn stable_key(compiler: &dyn Compiler, circuit: &Circuit, device: &Device) -> u128 {
    let mut h = ContentHasher::new();
    h.write_u64(compiler.cache_fingerprint());
    hash_circuit(&mut h, circuit);
    hash_topology(&mut h, device);
    h.finish()
}

/// Absorbs the complete per-edge / per-qubit calibration snapshot: any
/// single drifted value — one edge error, one readout figure — changes the
/// digest and therefore the cache key.
fn hash_target(h: &mut ContentHasher, target: &Target) {
    let edges = target.edges();
    h.write_usize(edges.len());
    for &(a, b) in edges {
        h.write_usize(a);
        h.write_usize(b);
        h.write_f64(target.two_qubit_error(a, b));
        h.write_f64(target.two_qubit_duration_ns(a, b));
    }
    let n = target.num_qubits();
    h.write_usize(n);
    for q in 0..n {
        h.write_f64(target.single_qubit_error(q));
        h.write_f64(target.single_qubit_duration_ns(q));
        h.write_f64(target.readout_error(q));
        h.write_f64(target.t1_us(q));
        h.write_f64(target.t2_us(q));
    }
    let avg = target.average();
    h.write_f64_slice(&[
        avg.two_qubit_error,
        avg.two_qubit_gate_ns,
        avg.single_qubit_error,
        avg.single_qubit_gate_ns,
        avg.readout_error,
        avg.t1_us,
        avg.t2_us,
    ]);
    h.write_u8(target.is_uniform() as u8);
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoqan_ham::{nnn_ising, trotter_step};

    fn service() -> CompileService {
        CompileService::new(ServiceConfig {
            capacity: 64,
            shards: 4,
            threads: 1,
            max_in_flight: 0,
        })
    }

    #[test]
    fn misses_then_hits_with_shared_storage() {
        let service = service();
        let circuit = trotter_step(&nnn_ising(8, 1), 1.0);
        let device = Device::montreal();
        let miss = service.request("2QAN", &circuit, &device).unwrap();
        assert!(!miss.hit);
        assert!(!miss.coalesced);
        assert!(miss.cached);
        assert!(miss.compile_ms > 0.0);
        assert_eq!(miss.queue_depth, 0, "no other compile was in flight");
        let hit = service.request("2QAN", &circuit, &device).unwrap();
        assert!(hit.hit);
        assert!(!hit.coalesced);
        assert_eq!(hit.key, miss.key);
        assert_eq!(hit.compile_ms, 0.0);
        assert_eq!(hit.coalesced_wait_ms, 0.0);
        assert!(Arc::ptr_eq(&hit.output, &miss.output) || bit_identical(&hit.output, &miss.output));
        let stats = service.stats();
        assert_eq!((stats.requests, stats.hits, stats.misses), (2, 1, 1));
        assert_eq!(service.len(), 1);
    }

    #[test]
    fn unknown_compilers_are_typed_errors() {
        let service = service();
        let circuit = trotter_step(&nnn_ising(6, 1), 1.0);
        let device = Device::montreal();
        let err = service.request("not-a-compiler", &circuit, &device);
        assert!(matches!(err, Err(ServiceError::UnknownCompiler { .. })));
        assert_eq!(service.stats().errors, 1);
    }

    #[test]
    fn failed_compiles_propagate_and_are_not_cached() {
        let service = service();
        let too_big = trotter_step(&nnn_ising(40, 1), 1.0);
        let device = Device::montreal(); // 27 qubits
        let err = service.request("2QAN", &too_big, &device);
        assert!(matches!(
            err,
            Err(ServiceError::Compile(CompileError::TooManyQubits { .. }))
        ));
        assert!(service.is_empty());
        // The failure is not sticky: the error path never poisons the key.
        let err2 = service.request("2QAN", &too_big, &device);
        assert!(err2.is_err());
        assert_eq!(service.stats().misses, 2);
    }

    #[test]
    fn request_batch_keeps_order_and_mixes_hits_and_misses() {
        let service = service();
        let a = trotter_step(&nnn_ising(7, 1), 1.0);
        let b = trotter_step(&nnn_ising(8, 2), 1.0);
        let device = Device::montreal();
        // Warm `a` only.
        service.request("2QAN", &a, &device).unwrap();
        let responses = service.request_batch(&[
            ServiceRequest {
                compiler: "2QAN",
                circuit: &a,
                device: &device,
            },
            ServiceRequest {
                compiler: "nope",
                circuit: &a,
                device: &device,
            },
            ServiceRequest {
                compiler: "2QAN",
                circuit: &b,
                device: &device,
            },
        ]);
        assert!(responses[0].as_ref().unwrap().hit);
        assert!(matches!(
            responses[1],
            Err(ServiceError::UnknownCompiler { .. })
        ));
        let miss = responses[2].as_ref().unwrap();
        assert!(!miss.hit && miss.cached);
        assert!(miss.compile_ms > 0.0);
        assert!(miss.queue_wait_ms >= 0.0);
        // The job's start and compile timings nest inside the request.
        assert!(miss.queue_wait_ms + miss.compile_ms <= miss.wall_ms + 1e-9);
    }

    #[test]
    fn every_entry_point_shares_the_request_prelude() {
        let service = service();
        let circuit = trotter_step(&nnn_ising(7, 4), 1.0);
        let device = Device::montreal();
        let nope = ServiceRequest {
            compiler: "nope",
            circuit: &circuit,
            device: &device,
        };
        assert!(matches!(
            service.recompile("nope", &circuit, &device),
            Err(ServiceError::UnknownCompiler { .. })
        ));
        assert!(matches!(
            service.request_batch(&[nope])[0],
            Err(ServiceError::UnknownCompiler { .. })
        ));
        // A miss compiled through the batch path is a plain hit, under the
        // same key, for both single-request entry points.
        let miss = service
            .request_batch(&[ServiceRequest {
                compiler: "2QAN",
                ..nope
            }])
            .pop()
            .unwrap()
            .unwrap();
        assert!(!miss.hit && miss.cached);
        let via_request = service.request("2QAN", &circuit, &device).unwrap();
        let via_recompile = service.recompile("2QAN", &circuit, &device).unwrap();
        assert!(via_request.hit && via_recompile.hit && !via_recompile.warm);
        assert_eq!((via_request.key, via_recompile.key), (miss.key, miss.key));
        let stats = service.stats();
        assert_eq!(
            (stats.requests, stats.errors, stats.hits, stats.misses),
            (5, 2, 2, 1)
        );
    }

    #[test]
    fn device_invalidation_drops_only_that_snapshot() {
        let service = service();
        let circuit = trotter_step(&nnn_ising(8, 1), 1.0);
        let montreal = Device::montreal();
        let aspen = Device::aspen();
        service.request("2QAN", &circuit, &montreal).unwrap();
        service.request("2QAN", &circuit, &aspen).unwrap();
        assert_eq!(service.len(), 2);
        assert_eq!(service.invalidate_device(&montreal), 1);
        assert_eq!(service.len(), 1);
        // The aspen artifact is still served from cache.
        assert!(service.request("2QAN", &circuit, &aspen).unwrap().hit);
        assert!(!service.request("2QAN", &circuit, &montreal).unwrap().hit);
    }

    #[test]
    fn key_for_matches_the_served_key_and_rejects_unknown_names() {
        let service = service();
        let circuit = trotter_step(&nnn_ising(8, 1), 1.0);
        let device = Device::montreal();
        let key = service.key_for("2QAN", &circuit, &device).unwrap();
        assert_eq!(service.request("2QAN", &circuit, &device).unwrap().key, key);
        assert!(service.key_for("nope", &circuit, &device).is_none());
    }
}
