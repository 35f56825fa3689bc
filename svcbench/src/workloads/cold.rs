//! `cold-portfolio`: every request is a miss.  Each request carries a
//! fresh instance and a fresh heterogeneous calibration snapshot (distance
//! matrices still empty), drawn in a seeded shuffle over five equally
//! weighted classes, so every request runs the full six-candidate
//! `2QAN-noise` portfolio and builds both distance matrices.

use std::time::Instant;

use twoqan_circuit::Circuit;
use twoqan_device::Device;
use twoqan_service::{CompileService, ServiceConfig};

use super::{Call, Outcome, RunConfig, Session, SETUP_REPS};
use crate::checks;
use crate::inputs::{Class, Family, SplitMix64, Topology};

/// The five classes, equally weighted.
const CLASSES: [Class; 5] = [
    Class {
        family: Family::NnnHeisenberg,
        qubits: 40,
        topology: Topology::Sycamore,
    },
    Class {
        family: Family::NnnHeisenberg,
        qubits: 80,
        topology: Topology::Grid9x9,
    },
    Class {
        family: Family::QaoaReg3,
        qubits: 80,
        topology: Topology::Grid9x9,
    },
    Class {
        family: Family::NnnHeisenberg,
        qubits: 200,
        topology: Topology::Grid15x14,
    },
    Class {
        family: Family::QaoaReg3,
        qubits: 200,
        topology: Topology::Grid15x14,
    },
];

/// The quality means cover the first this many requests (ten full
/// shuffles), finished after the timed phase if it ended sooner.
const QUALITY_REQUESTS: usize = 50;

/// Stream labels of the seed's independent generators.
const DECK: u64 = 1;
const WARM_UP: u64 = 2;

/// The request stream: each block of five requests is a seeded shuffle of
/// the classes, and every request draws its own instance and calibration
/// seeds.
struct Deck {
    rng: SplitMix64,
    block: [usize; 5],
    next: usize,
}

impl Deck {
    fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed, DECK),
            block: [0, 1, 2, 3, 4],
            next: CLASSES.len(),
        }
    }

    /// The next request's class index and its inputs.
    fn draw(&mut self) -> (usize, Circuit, Device) {
        if self.next == CLASSES.len() {
            self.block = [0, 1, 2, 3, 4];
            self.rng.shuffle(&mut self.block);
            self.next = 0;
        }
        let class = self.block[self.next];
        self.next += 1;
        let (circuit, device) = inputs(&CLASSES[class], &mut self.rng);
        (class, circuit, device)
    }
}

fn inputs(class: &Class, rng: &mut SplitMix64) -> (Circuit, Device) {
    let circuit = class.family.circuit(class.qubits, rng.next_u64());
    let device = class.topology.snapshot(rng.next_u64());
    (circuit, device)
}

/// A miss that compiled a structurally valid artifact.
fn check_miss(
    served: &super::Served,
    circuit: &Circuit,
    device: &Device,
) -> Result<std::sync::Arc<twoqan::pipeline::CompiledOutput>, String> {
    let r = served.ok()?;
    if r.hit || r.warm || r.coalesced {
        return Err("a cold-portfolio request was not a cold miss".into());
    }
    checks::structural(&r.output, &circuit.unify_same_pair_gates(), device)?;
    Ok(r.output.clone())
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let mut s = Session::new(config);
    let families = [Family::NnnHeisenberg, Family::QaoaReg3];
    let verdict = checks::statevector_gate(
        &families,
        Topology::Sycamore,
        s.compiler.as_ref(),
        config.seed,
    );
    s.gate("statevector", verdict);

    // Set-up: a fresh service and one throwaway compile per class, each
    // followed by one hit and the invalidation of its snapshot.
    let mut service = None;
    let mut warm_up_ok = Ok(());
    for rep in 0..SETUP_REPS {
        let traced = config.trace && rep + 1 == SETUP_REPS;
        let started = Instant::now();
        let svc = CompileService::new(ServiceConfig::default());
        let mut rng = SplitMix64::new(config.seed, WARM_UP);
        for class in &CLASSES {
            let (circuit, device) = inputs(class, &mut rng);
            let copy = traced.then(|| device.clone());
            let first = s.call(&svc, Call::Request, &circuit, &device);
            let again = s.call(&svc, Call::Request, &circuit, &device);
            if traced {
                let ids = s.trace(&first, &circuit, &device, None);
                if let Some(copy) = &copy {
                    s.probe_distances(copy, first.request, ids.qap, true);
                }
                s.trace(&again, &circuit, &device, None);
            }
            s.invalidate(&svc, &device, traced, false);
            if !matches!((&first.response, &again.response), (Ok(a), Ok(b)) if !a.hit && b.hit) {
                warm_up_ok = Err(format!(
                    "{}: warm-up compile then hit failed",
                    class.label()
                ));
            }
        }
        s.setup_s.push(started.elapsed().as_secs_f64());
        service = Some(svc);
    }
    s.gate("set-up", warm_up_ok);
    let service = service.expect("at least one set-up");

    // Timed phase, then the rest of the quality set untimed.
    s.start_timed_phase();
    let mut deck = Deck::new(config.seed);
    let mut i = 0;
    loop {
        let timed = s.timing();
        if !timed && i >= QUALITY_REQUESTS {
            break;
        }
        let (class, circuit, device) = deck.draw();
        if i < QUALITY_REQUESTS {
            s.digest.circuit(&circuit);
            s.digest.device(&device);
        }
        // The traced run alternates traced and untraced shuffles.
        let traced = config.trace && (i / CLASSES.len()) % 2 == 1;
        let copy = traced.then(|| device.clone());
        let served = s.call(&service, Call::Request, &circuit, &device);
        let ids = traced.then(|| s.trace(&served, &circuit, &device, None));
        if let (Some(copy), Some(ids)) = (&copy, ids) {
            s.probe_distances(copy, served.request, ids.qap, true);
        }
        if timed {
            s.count_timed(&served, class, ids.map(|t| t.root));
        }
        let verdict = check_miss(&served, &circuit, &device).and_then(|output| {
            if i < QUALITY_REQUESTS {
                let q = checks::score(&output, &device)?;
                s.quality.add(&q);
            }
            Ok(())
        });
        s.settle(verdict);
        // Retire the snapshot, as a calibration feed would, so the cache
        // (and peak memory) does not grow with the request count.
        s.invalidate(&service, &device, traced, false);
        i += 1;
    }
    let labels: Vec<String> = CLASSES.iter().map(Class::label).collect();
    s.finish("cold-portfolio", &labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shuffle_holds_each_class_once_and_repeats_per_seed() {
        let classes = |seed| {
            let mut deck = Deck::new(seed);
            (0..10).map(|_| deck.draw().0).collect::<Vec<_>>()
        };
        let drawn = classes(9);
        assert_eq!(drawn, classes(9));
        assert_ne!(drawn, classes(10));
        for block in drawn.chunks(CLASSES.len()) {
            let mut b = block.to_vec();
            b.sort_unstable();
            assert_eq!(b, vec![0, 1, 2, 3, 4]);
        }
    }
}
