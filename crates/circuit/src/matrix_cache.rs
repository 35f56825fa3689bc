//! Per-[`GateKind`] unitary caching.
//!
//! Building a gate's matrix involves trigonometry (`sin`/`cos` per entry for
//! the rotation and canonical gates), and a simulator that rebuilds it on
//! every application pays that cost once per gate *instance* per shot.  Real
//! circuits use very few distinct kinds — a QAOA layer has one `Rzz` angle,
//! one mixer angle and a handful of dressed-SWAP coefficients — so a cache
//! keyed by [`GateKind`] brings matrix construction down to once per circuit.
//!
//! `GateKind` carries `f64` parameters and is therefore `PartialEq` but not
//! `Eq`/`Hash`; the cache is a small vector with linear lookup, which for the
//! handful of distinct kinds in practice is faster than hashing anyway.

use crate::gate::GateKind;
use twoqan_math::{Matrix2, Matrix4};

/// A cache of gate unitaries keyed by [`GateKind`].
#[derive(Debug, Clone, Default)]
pub struct MatrixCache {
    singles: Vec<(GateKind, Matrix2)>,
    twos: Vec<(GateKind, Matrix4)>,
}

impl MatrixCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The 2×2 matrix of a single-qubit kind, computed on first use.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a two-qubit kind.
    pub fn single(&mut self, kind: &GateKind) -> Matrix2 {
        if let Some((_, m)) = self.singles.iter().find(|(k, _)| k == kind) {
            return *m;
        }
        let m = kind.single_qubit_matrix();
        self.singles.push((*kind, m));
        m
    }

    /// The 4×4 matrix of a two-qubit kind, computed on first use.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a single-qubit kind.
    pub fn two(&mut self, kind: &GateKind) -> Matrix4 {
        if let Some((_, m)) = self.twos.iter().find(|(k, _)| k == kind) {
            return *m;
        }
        let m = kind.two_qubit_matrix();
        self.twos.push((*kind, m));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_one_matrix_per_distinct_kind() {
        let mut cache = MatrixCache::new();
        let a = cache.two(&GateKind::Canonical {
            xx: 0.0,
            yy: 0.0,
            zz: 0.4,
        });
        let b = cache.two(&GateKind::Canonical {
            xx: 0.0,
            yy: 0.0,
            zz: 0.4,
        });
        assert_eq!(a, b);
        assert_eq!(cache.singles.len() + cache.twos.len(), 1);
        cache.two(&GateKind::Canonical {
            xx: 0.0,
            yy: 0.0,
            zz: 0.5,
        });
        assert_eq!(cache.singles.len() + cache.twos.len(), 2);
        cache.single(&GateKind::Rx(0.3));
        cache.single(&GateKind::Rx(0.3));
        assert_eq!(cache.singles.len() + cache.twos.len(), 3);
        assert_eq!(
            cache.single(&GateKind::Rx(0.3)),
            GateKind::Rx(0.3).single_qubit_matrix()
        );
    }
}
