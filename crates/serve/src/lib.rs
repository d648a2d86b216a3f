//! Deterministic many-stream serving layer over the recognition engine.
//!
//! The paper's collaborative-environment vision implies a supervisor station
//! watching *many* drones and cameras at once, and the production metric for
//! that shape of load is not aggregate fps but **per-stream decision latency
//! against an SLO**: how late is each camera's accepted/rejected verdict,
//! and how many streams can one station sustain before the tail blows past
//! the deadline? This crate is that front end, built so the whole thing
//! stays golden-testable:
//!
//! * **Seeded arrivals on a virtual clock** ([`arrivals`]): every stream's
//!   frame arrival times come from a per-stream [`hdc_runtime::SplitMix64`]
//!   substream; the decision path never reads wall time, so the entire
//!   serving trace is a pure function of `(workload, config)`.
//! * **Sharded deterministic scheduler** ([`server`]): streams hash to a
//!   fixed number of shards (a config property, *not* the worker count);
//!   each shard runs an independent discrete-event loop over its streams —
//!   admission, queueing, eviction, shedding, service. Shards fan out over
//!   the [`hdc_runtime::WorkPool`], whose index-addressed results make the
//!   merged trace **byte-identical at any `--threads N`**.
//! * **Admission control with per-stream budgets**: a token bucket per
//!   stream (frames/s with a burst allowance) pushes back on streams that
//!   outrun their budget, and a bounded shard queue rejects load the shard
//!   provably cannot serve in time — overload degrades by early rejection,
//!   never by unbounded queueing.
//! * **LRU eviction of idle gate state**: resident
//!   [`hdc_vision::temporal::StreamRecognizer`] state is capacity-bounded
//!   per shard; the least-recently-used idle stream is evicted (never one
//!   with a frame in service), its state optionally spilled by moving the
//!   recogniser into a spill map so re-admission moves the warm gate state
//!   back instead of paying cold full runs — no frame is copied.
//! * **Frame-deadline shedding**: a frame whose service would start past
//!   its arrival deadline is dropped *before* it touches the pipeline and
//!   counted, bounding the latency of everything that is served.
//! * **Golden-digestable event trace** ([`trace`]): every admit / reject /
//!   shed / evict / restore / decide lands in one canonical, totally
//!   ordered event log whose FNV-1a/64 digest is committed under
//!   `tests/golden/` and asserted at `--threads 1/2/4` in CI.
//!
//! Service *costs* are virtual microseconds from a fixed [`server::CostModel`]
//! keyed by how the temporal gate resolved the frame — the recognition
//! itself (pixels in, decision out) is real and runs through the exact
//! [`hdc_vision::RecognitionPipeline`] machinery the batch benches measure.
//! Virtual costing is what separates *scheduling correctness* (deterministic,
//! asserted by goldens and property tests) from *hardware speed* (measured
//! by `bench_serve` and reported in `BENCH_serve.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod server;
pub mod trace;
pub mod workload;

pub use arrivals::{ArrivalSpec, BurstSpec};
pub use server::{serve, CostModel, ServeConfig, ServeInput, ServeReport, StreamBudget};
pub use trace::{EventKind, ServeEvent};
