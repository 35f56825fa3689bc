//! Compile-time budgets: the deadline/cancellation *specification* carried
//! by [`crate::TwoQanConfig`].
//!
//! A [`CompileBudget`] is inert — it describes a wall-clock deadline and/or
//! a cooperative [`CancelToken`] without starting any clock.  At the top of
//! a compilation the compiler [`arms`](CompileBudget::arm) it into a
//! [`SolverBudget`], which the pass pipeline threads down into the Tabu /
//! annealing multi-start loops (checked once per sweep).  On expiry the
//! solvers return their best-so-far placement and the portfolio compiler
//! degrades along an explicit ladder instead of erroring — see
//! [`crate::pipeline::DegradationRung`].

use std::time::Duration;

pub use twoqan_graphs::{CancelToken, SolverBudget};

/// The deadline/cancellation specification for one compilation.
///
/// The default budget is unlimited and costs nothing to poll; compilations
/// under it are bit-identical to a compiler without budget support.
#[derive(Debug, Clone, Default)]
pub struct CompileBudget {
    /// Wall-clock deadline, measured from the start of the compilation.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation token shared with the caller.
    pub cancel: Option<CancelToken>,
}

impl CompileBudget {
    /// A budget with no deadline and no cancellation token.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget expiring `deadline` after compilation starts.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            deadline: Some(deadline),
            cancel: None,
        }
    }

    /// Whether this budget can ever expire.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.cancel.is_some()
    }

    /// Starts the clock: produces the armed [`SolverBudget`] the pipeline
    /// polls.
    pub fn arm(&self) -> SolverBudget {
        SolverBudget::armed(self.deadline, self.cancel.clone())
    }
}

impl PartialEq for CompileBudget {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline
            && match (&self.cancel, &other.cancel) {
                (None, None) => true,
                (Some(a), Some(b)) => a.same_token(b),
                _ => false,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = CompileBudget::default();
        assert!(!b.is_limited());
        assert!(!b.arm().expired());
        assert_eq!(b, CompileBudget::unlimited());
    }

    #[test]
    fn deadline_budget_arms_into_an_expiring_solver_budget() {
        let b = CompileBudget::with_deadline(Duration::ZERO);
        assert!(b.is_limited());
        assert!(b.arm().expired());
    }

    #[test]
    fn cancellation_flows_through_arming() {
        let token = CancelToken::new();
        let b = CompileBudget {
            cancel: Some(token.clone()),
            ..CompileBudget::unlimited()
        };
        let armed = b.arm();
        assert!(!armed.expired());
        token.cancel();
        assert!(armed.expired());
    }

    #[test]
    fn equality_compares_token_identity() {
        let token = CancelToken::new();
        let a = CompileBudget {
            cancel: Some(token.clone()),
            ..CompileBudget::unlimited()
        };
        let b = CompileBudget {
            cancel: Some(token.clone()),
            ..CompileBudget::unlimited()
        };
        let c = CompileBudget {
            cancel: Some(CancelToken::new()),
            ..CompileBudget::unlimited()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, CompileBudget::unlimited());
        assert_ne!(
            CompileBudget::with_deadline(Duration::from_millis(1)),
            CompileBudget::with_deadline(Duration::from_millis(2))
        );
    }
}
