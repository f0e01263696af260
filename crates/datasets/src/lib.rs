#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Dataset substrate for the LDPRecover reproduction.
//!
//! The paper evaluates on two real-world datasets (§VI-A.1):
//!
//! * **IPUMS** — 2017 U.S. census extract, attribute "city":
//!   d = 102 items, n = 389,894 users.
//! * **Fire** — San Francisco Fire Department "Alarms" service calls,
//!   attribute "unit ID": d = 490 items, n = 667,574 users.
//!
//! Neither raw extract ships with this reproduction, so [`corpus`] provides
//! synthetic stand-ins with the *same* domain sizes, user counts, and
//! heavy-tailed shapes (city populations ≈ Zipf(1.05); unit IDs flatter,
//! ≈ Zipf(0.75)). That preserves the paper's phenomena because
//! LDPRecover's behaviour depends on `(d, n, ε, β, η)` and the broad
//! frequency shape only (see [`corpus`]).
//! [`dataset::Dataset::from_item_file`] loads the real extracts (one item
//! index per line) if you have them.

pub mod corpus;
pub mod dataset;
pub mod presets;
pub mod synthetic;

pub use corpus::{fire_like, ipums_like, DatasetKind};
pub use dataset::{Dataset, PopulationCounts};
pub use presets::ScalePreset;
pub use synthetic::{geometric_dataset, uniform_dataset, zipf_counts, zipf_dataset};
