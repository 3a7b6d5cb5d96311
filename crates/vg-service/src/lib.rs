//! Transport-agnostic service layer for the TRIP registration system.
//!
//! The paper's deployment (§6, SOSP 2025) is distributed: kiosks in
//! privacy booths, officials' desks, envelope printers, the public
//! bulletin board and voters' devices are separate machines. This crate
//! makes those boundaries explicit:
//!
//! ```text
//!  fleet side (booths)                │ registrar side (one Request seam)
//!  ──────────────────────────────────┼──────────────────────────────────
//!  KioskFleet ── RegistrarBoundary ──┤ CheckIn, SubmitWindow  (officials)
//!    │   (vg-trip seam, five calls;  │ Print                  (printers)
//!    │    ServiceBoundary maps them  │ SubmitWindow,
//!    │    onto Request → Response)   │   SyncThrough, …       (bulletin board)
//!    └─ VSD client checks            │ ActivationSweep        (ledger phase)
//! ```
//!
//! - [`messages`]: versioned, canonical wire messages built from the
//!   protocol's natural units (tickets, check-out QRs, envelope
//!   commitments, print jobs, activation claims, signed tree heads);
//!   the [`messages::Request`] variants — the four paper roles as four
//!   message groups — carry each role's trust assumptions and the
//!   commit-point contract;
//! - [`wire`]: the strict codec envelope and length-prefixed framing;
//! - [`channel`]: the pluggable transport API — [`FramedChannel`] /
//!   [`Connector`] / [`Listener`] traits, TCP channels, in-process
//!   pipes (for probes and channel-level tests; no day runs over one),
//!   and the mutual-auth encrypted [`channel::SecureChannel`] that wraps
//!   any of them by [`ChannelPolicy`];
//! - [`transport`]: the three [`TransportPlan`]s (in-process, TCP,
//!   secure TCP), the one-method [`RequestEndpoint`] seam, the fleet-facing
//!   [`ServiceBoundary`] mapping over it, the [`ChannelClient`] speaking
//!   it over any channel, and the flat [`DayStats`] record;
//! - [`gateway`]: the registrar's server — every TCP connection of a
//!   threaded day is served by a blocking thread of its own over
//!   [`ChannelPolicy::establish_server`], held to read deadlines;
//! - [`pipeline`]: [`run_day`] and the threaded engine behind it (the
//!   commit sequencer with its one ingest lane for both ledgers, station
//!   runners, the work-stealing coordinator).
//!
//! # One registration day: [`run_day`]
//!
//! A whole registration day is one call, `run_day(&fleet, &mut system,
//! queue, &DayPlan, sink)`, and the engine is something the code reads
//! off the [`DayPlan`] rather than something the caller picks. A plan
//! that needs no concurrency (plaintext in-process transport, default
//! [`PipelineConfig`], no chaos) runs inline and thread-free on
//! [`vg_trip::LocalBoundary`]; every other plan — one-station TCP and
//! secure days included — runs on the threaded engine. The split is
//! measured: forcing one-session booth days through the threaded engine
//! cost 26 % of booth throughput on the lifecycle benchmark (see
//! [`pipeline`]'s module docs), so both paths stay, each with a benchmark
//! workload on its side of the choice.
//!
//! # Equivalence contract
//!
//! A registration day under any plan is **bit-identical** — same ledger
//! tree heads, same credentials, same event traces — to the in-process
//! sequential reference, for any `(seed, queue, kiosks, pool batch)`.
//! The workspace's `tests/service.rs` and `tests/pipeline.rs`
//! pin this with cross-transport and cross-configuration proptests;
//! `bench/e2e`'s `vg-service.day.{tcp_tax, seal_tax}_us_per_session`
//! rows measure what the framing and the sealing cost per ceremony.
//!
//! This crate forbids `unsafe` code (`#![forbid(unsafe_code)]`): the
//! whole workspace is safe Rust, locked in by the `vg-lint` analyzer's
//! `forbid-unsafe` rule.

#![forbid(unsafe_code)]

pub mod channel;
pub mod error;
pub mod fault;
pub mod gateway;
pub mod messages;
pub mod pipeline;
pub mod retry;
pub mod transport;
pub mod wire;

pub use channel::{
    pipe_pair, ChannelPolicy, Connector, Deadlines, FramedChannel, Listener, PipeChannel,
    SecureConfig, TcpChannel, TcpChannelListener, TcpConnector,
};
pub use error::ServiceError;
pub use fault::{ChannelFault, FaultPlan, FaultyChannel, FaultyConnector};
pub use pipeline::{
    run_day, ChaosOptions, DayPlan, IngestMode, PipelineConfig, StationFault, StationHang,
};
pub use retry::RetryPolicy;
pub use transport::{
    ChannelClient, DayStats, RequestEndpoint, ServiceBoundary, StealRecord, TransportPlan,
};
pub use wire::Wire;
