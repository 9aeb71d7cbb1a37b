//! # mams-mapreduce — a minimal MapReduce engine over the simulated FS
//!
//! Reproduces the paper's Figure 9 experiment: a wordcount-style job whose
//! tasks create and stat files through the metadata service, with a
//! metadata-server failure injected mid-job. "The reduce jobs needed the
//! former maps to write intermediate results into the file system before
//! continuing subsequent operations" — so a slow metadata failover shows up
//! directly as delayed map completions and stalled reduces.
//!
//! Components:
//! * [`JobTracker`] / [`TaskWorker`] — scheduling and execution,
//! * [`JobStats`] — per-task completion timestamps for the CDF plots.
//!
//! Tasks reach the metadata service through `mams-cluster`'s
//! [`ClientCore`](mams_cluster::ClientCore), the routing, retry and
//! reconciliation engine of the benchmark client, so a job sees the
//! failover exactly as any other client does.

pub mod engine;
pub mod stats;

pub use engine::{build_job, JobSpec, JobTracker, MrMsg, TaskWorker};
pub use stats::JobStats;
