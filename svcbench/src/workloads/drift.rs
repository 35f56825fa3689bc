//! `drift-recompile`: the calibration loop.  Five resident workloads share
//! one heterogeneous 15×14 device and are compiled cold at set-up.  Each
//! cycle a seeded `DriftStream` (default σ) yields the next snapshot, the
//! previous snapshot is invalidated, and all five residents are recompiled
//! warm from their previous placements.  Every [`EPOCH_CYCLES`] cycles the
//! stream restarts from the base snapshot with a fresh seed, as a full
//! recalibration would.

use std::time::Instant;

use twoqan_circuit::Circuit;
use twoqan_device::{Device, DriftStream};
use twoqan_service::{CompileService, ServiceConfig};

use super::{Call, Outcome, RunConfig, Session, SETUP_REPS};
use crate::checks;
use crate::inputs::{Class, Family, SplitMix64, Topology};

const TOPOLOGY: Topology = Topology::Grid15x14;

/// The resident workloads.
const RESIDENTS: [(Family, usize); 5] = [
    (Family::NnnHeisenberg, 60),
    (Family::NnnHeisenberg, 120),
    (Family::NnnHeisenberg, 180),
    (Family::QaoaReg3, 90),
    (Family::QaoaReg3, 150),
];

/// The quality means cover the first this many cycles, finished after the
/// timed phase if it ended sooner.
const QUALITY_CYCLES: usize = 20;

/// Cycles per drift epoch.  A walk left running drifts ever further from
/// the base calibration (towards the clamped extremes), and the warm
/// recompiles get cheaper as it goes, so a run's cost would depend on how
/// many cycles it reached.  Restarting keeps the calibration the
/// recompiles see identically distributed over the whole run.
const EPOCH_CYCLES: usize = 20;

/// Stream labels of the seed's independent generators.
const INPUTS: u64 = 1;
const DRIFT: u64 = 2;

/// The set-up's product.
struct Seeded {
    service: CompileService,
    device: Device,
    circuits: Vec<Circuit>,
    placements: Vec<Result<Vec<usize>, String>>,
    hit_ok: bool,
}

fn set_up(s: &mut Session, seed: u64, traced: bool) -> Seeded {
    let mut rng = SplitMix64::new(seed, INPUTS);
    let device = TOPOLOGY.snapshot(rng.next_u64());
    let circuits: Vec<Circuit> = RESIDENTS
        .iter()
        .map(|&(family, qubits)| family.circuit(qubits, rng.next_u64()))
        .collect();
    let service = CompileService::new(ServiceConfig::default());
    let copy = traced.then(|| device.clone());
    let mut placements = Vec::new();
    for (k, circuit) in circuits.iter().enumerate() {
        let served = s.call(&service, Call::Request, circuit, &device);
        if traced {
            let ids = s.trace(&served, circuit, &device, None);
            if let (0, Some(copy)) = (k, &copy) {
                s.probe_distances(copy, served.request, ids.qap, true);
            }
        }
        placements.push(served.ok().and_then(|r| {
            if r.hit {
                return Err("a seeding compile hit an empty cache".to_string());
            }
            checks::structural(&r.output, &circuit.unify_same_pair_gates(), &device)?;
            Ok(r.output.initial_placement.clone())
        }));
    }
    // One repeat request: the only hit this workload makes.
    let again = s.call(&service, Call::Request, &circuits[0], &device);
    if traced {
        s.trace(&again, &circuits[0], &device, None);
    }
    let hit_ok = again.response.as_ref().is_ok_and(|r| r.hit);
    Seeded {
        service,
        device,
        circuits,
        placements,
        hit_ok,
    }
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let mut s = Session::new(config);
    let families = [Family::NnnHeisenberg, Family::QaoaReg3];
    let verdict = checks::statevector_gate(&families, TOPOLOGY, s.compiler.as_ref(), config.seed);
    s.gate("statevector", verdict);

    let mut seeded = None;
    for rep in 0..SETUP_REPS {
        let traced = config.trace && rep + 1 == SETUP_REPS;
        let started = Instant::now();
        let state = set_up(&mut s, config.seed, traced);
        s.setup_s.push(started.elapsed().as_secs_f64());
        seeded = Some(state);
    }
    let Seeded {
        service,
        device,
        circuits,
        placements,
        hit_ok,
    } = seeded.expect("at least one set-up");
    s.gate(
        "set-up",
        if hit_ok {
            Ok(())
        } else {
            Err("repeat request did not hit".into())
        },
    );
    let mut placements: Vec<Vec<usize>> = placements
        .into_iter()
        .enumerate()
        .map(|(k, p)| {
            let label = format!("seeding compile {k}");
            p.unwrap_or_else(|e| {
                s.gate(&label, Err(e));
                Vec::new()
            })
        })
        .collect();
    let unified: Vec<Circuit> = circuits
        .iter()
        .map(Circuit::unify_same_pair_gates)
        .collect();
    s.digest.device(&device);
    for c in &circuits {
        s.digest.circuit(c);
    }

    s.start_timed_phase();
    let base = device.target().clone();
    let mut drift_seeds = SplitMix64::new(config.seed, DRIFT);
    let mut stream = DriftStream::new(base.clone(), drift_seeds.next_u64());
    let mut previous = device;
    let mut cycle = 0;
    loop {
        let timed = s.timing();
        if !timed && cycle >= QUALITY_CYCLES {
            break;
        }
        if cycle > 0 && cycle % EPOCH_CYCLES == 0 {
            stream = DriftStream::new(base.clone(), drift_seeds.next_u64());
        }
        stream.advance();
        let snapshot = previous.with_target(stream.current().clone());
        if cycle < QUALITY_CYCLES {
            s.digest.target(snapshot.target());
        }
        // The traced run alternates traced and untraced cycles.
        let traced = config.trace && cycle % 2 == 1;
        let copy = traced.then(|| snapshot.clone());
        s.invalidate(&service, &previous, traced, timed);
        for (k, circuit) in circuits.iter().enumerate() {
            let served = s.call(&service, Call::Recompile, circuit, &snapshot);
            let ids = traced.then(|| s.trace(&served, circuit, &snapshot, Some(&placements[k])));
            if let (0, Some(copy), Some(ids)) = (k, &copy, ids) {
                // The first recompile of a cycle builds the weighted
                // matrix; the hop matrix carries over between snapshots.
                s.probe_distances(copy, served.request, ids.qap, false);
            }
            if timed {
                s.count_timed(&served, k, ids.map(|t| t.root));
            }
            let verdict = served.ok().and_then(|r| {
                if !r.warm || r.hit {
                    return Err(format!("cycle {cycle}: recompile {k} missed the warm path"));
                }
                checks::structural(&r.output, &unified[k], &snapshot)?;
                checks::never_worse(
                    &placements[k],
                    &r.output.initial_placement,
                    &unified[k],
                    &snapshot,
                )?;
                if cycle < QUALITY_CYCLES {
                    s.quality.add(&checks::score(&r.output, &snapshot)?);
                }
                Ok(r.output.initial_placement.clone())
            });
            if let Some(placement) = s.settle(verdict) {
                placements[k] = placement;
            }
        }
        previous = snapshot;
        cycle += 1;
    }
    let labels: Vec<String> = RESIDENTS
        .iter()
        .map(|&(family, qubits)| {
            Class {
                family,
                qubits,
                topology: TOPOLOGY,
            }
            .label()
        })
        .collect();
    s.finish("drift-recompile", &labels)
}
