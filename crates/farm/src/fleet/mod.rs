//! Cross-machine farm transport: a crash-safe, partition-tolerant
//! coordinator/agent protocol that moves [`crate::lease::WorkQueue`]
//! semantics onto the wire.
//!
//! ```text
//!                        ┌────────────────────────────┐
//!                        │ coordinator (--coordinate)  │
//!                        │  WorkQueue + CoordJournal   │
//!                        │  epoch E, fences f1<f2<…    │
//!                        └─────▲───────────────▲──────┘
//!            lease/heartbeat/  │               │  complete(meta)/
//!            release/poison    │               │  fenced replies
//!                    ┌─────────┴───┐       ┌───┴─────────┐
//!                    │ agent A     │       │ agent B     │
//!                    │ (--join)    │       │ (--join)    │
//!                    │ workers =   │       │ workers =   │
//!                    │ campaign    │       │ campaign    │
//!                    │  --resume   │       │  --resume   │
//!                    └─────────────┘       └─────────────┘
//! ```
//!
//! Division of labor:
//!
//! * [`coord`] — [`CoordState`], the pure lease-queue state machine,
//!   and [`run_coordinator`], which journals every transition through
//!   [`crate::coordjournal`] *before* replying. Kill it anytime; the
//!   restart replays the journal, bumps the epoch, and fences the dead
//!   process's leases — no shard lost, none double-merged.
//! * [`agent`] — the one supervision loop: leases shards, materializes
//!   their checkpoints, runs `campaign --resume` workers, ships finished
//!   `result.json`s back, and says goodbye when told the run is done.
//!   [`run_agent`] runs it against a coordinator over TCP; the local
//!   farm runs it against an in-process [`CoordState`].
//! * [`client`] — the timeout-everything TCP client, one request/reply
//!   exchange per connection; the agent's loop retries a failed one on
//!   its next timed pass.
//! * [`netchaos`] — the seeded wire adversary (drop, delay, duplicate,
//!   truncate, partition) proving a tortured fleet merges byte-identical
//!   to a calm single-process run.

pub mod agent;
pub mod client;
pub mod coord;
pub mod netchaos;

pub use agent::{run_agent, AgentConfig, AgentReport};
pub use client::FleetClient;
pub use coord::{run_coordinator, CoordConfig, CoordReport, CoordState};
pub use netchaos::{NetChaos, NetChaosConfig, NetFault};
