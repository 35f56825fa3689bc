//! `hot-hits`: repeat requests drawn uniformly (seeded) over eight combos
//! prefilled at set-up — NNN-Heisenberg, NNN-XY, NNN-Ising and QAOA-REG-3
//! at n = 150 and 200 on one heterogeneous 15×14 snapshot.  Every request
//! is a hit: the path is key derivation plus one shard lookup, and no
//! compiler layer runs.

use std::sync::Arc;
use std::time::Instant;

use twoqan::pipeline::CompiledOutput;
use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_service::{bit_identical, CompileService, ServiceConfig};

use super::{Call, Outcome, RunConfig, Session, SETUP_REPS};
use crate::checks;
use crate::inputs::{Class, Family, SplitMix64, Topology};

const FAMILIES: [Family; 4] = [
    Family::NnnHeisenberg,
    Family::NnnXy,
    Family::NnnIsing,
    Family::QaoaReg3,
];
const SIZES: [usize; 2] = [150, 200];
const TOPOLOGY: Topology = Topology::Grid15x14;

/// The digest covers this many leading draws.
const DIGEST_DRAWS: usize = 256;

/// Stream labels of the seed's independent generators.
const INPUTS: u64 = 1;
const DRAWS: u64 = 2;
const DECOY: u64 = 3;

/// The set-up's product: the snapshot, the combos and their artifacts.
struct Prefilled {
    service: CompileService,
    device: Device,
    combos: Vec<(Class, Circuit)>,
    artifacts: Vec<Result<Arc<CompiledOutput>, String>>,
}

fn set_up(s: &mut Session, seed: u64, traced: bool) -> Prefilled {
    let mut rng = SplitMix64::new(seed, INPUTS);
    let device = TOPOLOGY.snapshot(rng.next_u64());
    let mut combos = Vec::new();
    for &qubits in &SIZES {
        for &family in &FAMILIES {
            let class = Class {
                family,
                qubits,
                topology: TOPOLOGY,
            };
            combos.push((class, family.circuit(qubits, rng.next_u64())));
        }
    }
    let service = CompileService::new(ServiceConfig::default());
    let copy = traced.then(|| device.clone());
    let mut artifacts = Vec::new();
    for (k, (_, circuit)) in combos.iter().enumerate() {
        let served = s.call(&service, Call::Request, circuit, &device);
        if traced {
            let ids = s.trace(&served, circuit, &device, None);
            if let (0, Some(copy)) = (k, &copy) {
                s.probe_distances(copy, served.request, ids.qap, true);
            }
        }
        artifacts.push(served.ok().and_then(|r| {
            if r.hit {
                Err("a prefill request hit an empty cache".to_string())
            } else {
                Ok(r.output.clone())
            }
        }));
    }
    Prefilled {
        service,
        device,
        combos,
        artifacts,
    }
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let mut s = Session::new(config);
    let verdict = checks::statevector_gate(&FAMILIES, TOPOLOGY, s.compiler.as_ref(), config.seed);
    s.gate("statevector", verdict);

    let mut prefilled = None;
    for rep in 0..SETUP_REPS {
        let traced = config.trace && rep + 1 == SETUP_REPS;
        let started = Instant::now();
        let p = set_up(&mut s, config.seed, traced);
        s.setup_s.push(started.elapsed().as_secs_f64());
        prefilled = Some(p);
    }
    let Prefilled {
        service,
        device,
        combos,
        artifacts,
    } = prefilled.expect("at least one set-up");

    // Every prefilled artifact must be valid and bit-identical to an
    // independent cold compile; the quality means cover these eight.
    s.digest.device(&device);
    let mut valid = Vec::new();
    for ((class, circuit), artifact) in combos.iter().zip(&artifacts) {
        s.digest.circuit(circuit);
        let verdict = artifact.clone().and_then(|a| {
            checks::structural(&a, &circuit.unify_same_pair_gates(), &device)?;
            let cold = s
                .compiler
                .compile(circuit, &device)
                .map_err(|e| format!("independent compile failed: {e}"))?;
            if !bit_identical(&a, &cold) {
                return Err("prefilled artifact differs from an independent cold compile".into());
            }
            s.quality.add(&checks::score(&a, &device)?);
            Ok(())
        });
        valid.push(verdict.is_ok());
        s.gate(&class.label(), verdict);
    }
    if config.trace {
        // Hot traffic never invalidates; time one scan of the live cache
        // for a snapshot it does not hold.
        let decoy = TOPOLOGY.snapshot(SplitMix64::new(config.seed, DECOY).next_u64());
        s.invalidate(&service, &decoy, true, false);
    }

    s.start_timed_phase();
    let mut draws = SplitMix64::new(config.seed, DRAWS);
    let mut i = 0;
    while s.timing() {
        let k = draws.below(combos.len());
        if i < DIGEST_DRAWS {
            s.digest.u64(k as u64);
        }
        // The traced run traces one request in eight.
        let traced = config.trace && i % 8 == 7;
        let circuit = &combos[k].1;
        let served = s.call(&service, Call::Request, circuit, &device);
        let ids = traced.then(|| s.trace(&served, circuit, &device, None));
        s.count_timed(&served, k, ids.map(|t| t.root));
        let verdict = served.ok().and_then(|r| {
            let expected = artifacts[k].as_ref().map_err(Clone::clone)?;
            if !(r.hit && valid[k] && Arc::ptr_eq(&r.output, expected)) {
                return Err(format!(
                    "{}: not the prefilled artifact",
                    combos[k].0.label()
                ));
            }
            Ok(())
        });
        s.settle(verdict);
        i += 1;
    }
    let labels: Vec<String> = combos.iter().map(|(c, _)| c.label()).collect();
    s.finish("hot-hits", &labels)
}
