//! The HydroNAS benchmark's reusable pieces: statistics and the span
//! recorder. The runner itself lives in `main.rs`.

pub mod stats;
pub mod trace;
