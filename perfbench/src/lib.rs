//! # diam-perfbench
//!
//! The time-to-verdict benchmark of the `diam` workspace: AIGER bytes in,
//! one verdict per target out, through `strategy::solve_all` with the
//! options `diam solve` uses by default, on one thread.
//!
//! * [`workload`] — the seeded workloads and their known answers;
//! * [`run`] — cold repetitions, timing, and the run's outcome;
//! * [`oracle`] — the verdict oracle and witness replay;
//! * [`shadow`] — the traced shadow of `solve_all` (one span per layer
//!   call);
//! * [`layers`] — per-layer metrics read off the recorded trace.

pub mod layers;
pub mod oracle;
pub mod run;
pub mod shadow;
pub mod workload;
