//! # antruss-core
//!
//! The paper's contribution: the **Anchor Trussness Reinforcement (ATR)**
//! problem and the **GAS** algorithm, plus every baseline evaluated in the
//! paper.
//!
//! Given a graph `G` and budget `b`, ATR selects `b` edges to *anchor*
//! (infinite support — never peeled by truss decomposition) so that the
//! total trussness gain `Σ_{e ∈ E\A} (t_A(e) − t(e))` is maximized. The
//! problem is NP-hard and non-submodular; the practical solver is a greedy
//! that needs two accelerations to scale:
//!
//! * [`followers`] — `GetFollowers` (Algorithm 3): upward-route search with
//!   effective-triangle support checks and retract cascades; computes the
//!   exact follower set of one anchor without re-decomposing the graph,
//!   and reports the route each trussness level popped;
//! * [`gas`] — `GAS` (Algorithm 6): the greedy, reusing each candidate's
//!   per-level results between rounds unless the anchoring changed the
//!   class of an edge on or beside that level's route;
//! * [`tree`] and [`reuse`] — the paper's truss-component tree
//!   (Algorithm 4, with `sla(e)` subtree-adjacency) and its tree-keyed
//!   `FollowerReuse` with component-local refresh (Algorithm 5). `GAS` no
//!   longer uses them; they stay as library code with their own tests and
//!   benches;
//! * [`baselines`] — `Exact`, `Rand`, `Sup`, `Tur`, `BASE`, `BASE+`, the
//!   vertex-anchoring `AKT` comparator and the edge-deletion comparator;
//! * [`engine`] — the unified [`Solver`](engine::Solver) API: one
//!   [`RunConfig`](engine::RunConfig), one
//!   [`Outcome`](engine::Outcome), and a string-keyed
//!   [`registry()`](engine::registry) dispatching every algorithm above
//!   by name (`"gas"`, `"base+"`, `"rand:sup"`, …).
//!
//! New callers should start from [`engine`]; the per-algorithm modules
//! remain the implementation layer it adapts.

#![warn(missing_docs)]

pub mod baselines;
pub mod engine;
pub mod followers;
pub mod gas;
pub mod json;
pub mod metrics;
pub mod parallel;
mod problem;
pub mod reuse;
pub mod route;
pub mod stability;
pub mod tree;
pub mod whatif;

pub use engine::{registry, Outcome, RunConfig, SolveError, Solver};
pub use followers::{FollowerOutcome, FollowerSearch};
pub use gas::{Gas, GasConfig, GasOutcome, ReusePolicy, RoundReport};
pub use problem::{gain_of_anchor_set, AtrState};
pub use tree::{TreeNode, TrussTree};
pub use whatif::WhatIf;
