//! # hstencil-testkit
//!
//! Owned, zero-dependency infrastructure that replaces the four external
//! crates the workspace originally leaned on, so that
//! `cargo build --release && cargo test -q` succeeds with **no network
//! access** (see DESIGN.md "Hermetic / offline build"):
//!
//! * [`rng`] — SplitMix64 + Xoshiro256\*\* with a `rand`-like
//!   [`Rng::gen_range`] API (replaces `rand`),
//! * [`prop`] — a seeded property-testing harness with configurable case
//!   counts, failing-seed reporting and bounded shrinking (replaces
//!   `proptest`),
//! * [`json`] — a hand-rolled JSON value model with a writer, a
//!   [`ToJson`] trait and a [`Json::parse`](json::Json::parse) reader
//!   (replaces `serde` + `serde_json`),
//! * [`mod@bench`] — a `std::time` bench harness with warmup, sampling and
//!   median/p10/p90 summaries (replaces `criterion`).
//!
//! One module is owned infrastructure rather than a replacement:
//!
//! * [`load`] — seeded open-loop arrival schedules and exact p50/p99
//!   latency order statistics for the serve harness (`crates/serve`),
//!   sharing the `TESTKIT_SEED` replay convention with [`prop`].
//! * [`mod@out`] — [`outln!`]/[`out!`], `println!`/`print!` for report
//!   binaries that exit quietly when their reader closes the pipe.
//!
//! The crate deliberately has **no dependencies** — it is the leaf of the
//! workspace graph and every other crate may use it from either
//! `[dependencies]` or `[dev-dependencies]`.

pub mod bench;
pub mod json;
pub mod load;
pub mod out;
pub mod prop;
pub mod rng;

pub use bench::{BenchGroup, Harness, Summary};
pub use json::{Json, ParseError, ToJson};
pub use load::{Arrival, LatencyStats, ScheduleSpec};
pub use prop::{check, Config, Strategy};
pub use rng::{Rng, SplitMix64, Xoshiro256};
