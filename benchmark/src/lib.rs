//! The repo benchmark: six seeded workloads measured end to end and layer
//! by layer, from outside, through the product crates' public functions.
//! See `README.md` for the metric tables and how to read the trace.

pub mod check;
pub mod json;
pub mod layers;
pub mod outcome;
pub mod registry;
pub mod run;
pub mod server;
pub mod sim;
pub mod stats;
pub mod trace;
pub mod workloads;
