//! # adn-dataplane — ADN processors
//!
//! Paper §5.3: "The ADN data plane is composed of ADN processors that carry
//! out the low-level executions of ADN elements. Each processor acquires
//! the compiled version of the RPC processing logic from the control plane
//! and periodically sends reports ... back to the controller."
//!
//! * [`processor`] — a standalone processor endpoint. [`ProcessorCore`]
//!   is the processor without a thread, channel or clock: it classifies a
//!   batch of frames, admits, decodes, runs its engine chain and turns
//!   verdicts into outbound frames plus one typed outcome per frame.
//!   Processors NAT themselves into the path (rewriting `src` and keeping
//!   a call-id flow table) so responses traverse the same chain in
//!   reverse — the same trick sidecars use. [`spawn_processor`] pumps
//!   frames from the virtual link layer through a core on a thread, with a
//!   control channel for pause / snapshot / restore / drain /
//!   hot-chain-swap, the primitives live migration is built from; the
//!   simulator drives the same core on virtual time.
//! * [`scaleout`] — Figure 2 Configuration 4: a shard router endpoint in
//!   front of N processor instances, sharding by a request field so keyed
//!   element state stays shard-local.
//! * [`hop`] — minimal-header hop codec: intermediate hops carry only the
//!   fields downstream processors read (paper §4 Q2); everything else
//!   crosses as opaque bytes that are never re-parsed.

pub mod hop;
pub mod processor;
pub mod scaleout;
pub mod shard;

pub use processor::{
    spawn_processor, Fate, NextHop, Outcome, Outputs, OverloadPolicy, ProcessorConfig,
    ProcessorCore, ProcessorHandle, ProcessorStats, StatsSnapshot, DEFAULT_BATCH_MAX,
};
pub use scaleout::{spawn_sharded, ShardedConfig, ShardedHandle};
pub use shard::{spawn_processor_sharded, ShardedProcessor};
