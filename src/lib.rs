//! Umbrella crate for the Alberta Workloads reproduction.
//!
//! This crate re-exports the workspace's layers under one roof, which is
//! what the runnable examples and integration tests build against. Most
//! users want [`core`] (the [`core::Suite`] facade) and [`report`] (the
//! sweep document and the paper's artifacts built from it); the other
//! modules expose the substrates individually.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `alberta-core` | suite facade, characterization, published paper data |
//! | [`report`] | `alberta-report` | sweep reports; Tables I–II and Figures 1–2 built from them |
//! | [`stats`] | `alberta-stats` | the paper's geometric summarization (Eq. 1–5) |
//! | [`profile`] | `alberta-profile` | instrumentation substrate |
//! | [`uarch`] | `alberta-uarch` | predictors, caches, Top-Down model |
//! | [`workloads`] | `alberta-workloads` | the fifteen workload generators |
//! | [`benchmarks`] | `alberta-benchmarks` | the fifteen mini-benchmarks |
//! | [`onefile`] | `alberta-onefile` | the OneFile multi-file merger |
//! | [`fdo`] | `alberta-fdo` | the FDO methodology laboratory |
//!
//! # Examples
//!
//! ```
//! use alberta::core::Suite;
//! use alberta::workloads::Scale;
//!
//! # fn main() -> Result<(), alberta::core::CoreError> {
//! let suite = Suite::new(Scale::Test);
//! let (leela, _metrics) = suite.characterize_resilient_metered("leela")?;
//! assert!(leela.is_complete(), "every run comes back Ok");
//! let row = leela.characterization.expect("runs survived");
//! println!("leela μg(V) = {:.1}", row.topdown.mu_g_v);
//! # Ok(())
//! # }
//! ```

pub use alberta_benchmarks as benchmarks;
pub use alberta_core as core;
pub use alberta_fdo as fdo;
pub use alberta_onefile as onefile;
pub use alberta_profile as profile;
pub use alberta_report as report;
pub use alberta_stats as stats;
pub use alberta_uarch as uarch;
pub use alberta_workloads as workloads;
