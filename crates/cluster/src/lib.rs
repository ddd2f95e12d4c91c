//! **carousel-cluster** — a real networked storage cluster serving
//! Carousel-coded blocks over TCP.
//!
//! Everything else in this repository measures the paper's claims in
//! simulation or in-process; this crate executes them across sockets:
//!
//! * [`protocol`] — a length-prefixed, checksummed binary wire protocol
//!   (pure encode/decode, testable without a network);
//! * [`DataNode`] — a multi-threaded block server over a CRC-trailed
//!   [`BlockStore`], including the *helper side* of MSR repair:
//!   [`protocol::Request::RepairRead`] ships the `β × sub` coefficient
//!   matrix and the node returns only `β/sub` of its block;
//! * [`Coordinator`] — the namenode analogue: registrations,
//!   heartbeats, and file → stripe → block → node placement via
//!   [`dfs::Placement`], durable through the [`metalog`] record log;
//! * [`metalog`] / [`MetaRouter`] — the scale-out metadata layer: an
//!   append-only CRC-framed record log with torn-tail crash recovery
//!   and snapshot compaction, plus consistent-hash sharding of the
//!   file namespace across multiple coordinators with per-shard
//!   epochs that invalidate client-side manifest caches;
//! * [`ClusterClient`] — the paper's three read paths (direct `p`-way
//!   parallel, degraded with mid-read replanning, generic `k`-block
//!   fallback) plus optimal-traffic repair, with every wire byte
//!   counted;
//! * [`repair`] — the background repair scheduler: node deaths become a
//!   priority queue of degraded stripes drained by throttled workers
//!   (per-node fan-in cap, global bandwidth budget) while foreground
//!   traffic keeps flowing.
//!
//! The crate is std-only, like the rest of the workspace. The
//! [`testing::LocalCluster`] harness spins up `n` real datanodes on
//! loopback ports for integration tests and the `ext_cluster`
//! experiment.
//!
//! # Examples
//!
//! All data-path traffic flows through the unified
//! [`access::ObjectStore`] trait — the same contract the in-memory
//! filestore and the simulated DFS implement:
//!
//! ```
//! use access::{ObjectStore, PutOptions};
//! use cluster::testing::LocalCluster;
//!
//! let mut cluster = LocalCluster::start(6)?;
//! let mut client = cluster.client();
//! let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
//! let opts = PutOptions::new().code("carousel(6,3,3,6)").block_bytes(120);
//! client.put_opts("demo", &data, &opts)?;
//! assert_eq!(client.get("demo")?, data);
//! // Mutate in place: parity is updated by delta, not re-encode.
//! client.write_range("demo", 100, &[7u8; 32])?;
//! assert_eq!(&client.get_range("demo", 100, 32)?, &[7u8; 32]);
//! // Kill a node silently: the client degrades mid-read and still
//! // returns identical bytes.
//! cluster.kill(2);
//! assert_eq!(&client.get("demo")?[..100], &data[..100]);
//! assert!(client.delete("demo")?);
//! # Ok::<(), cluster::ClusterError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod coordinator;
mod datanode;
mod error;
pub mod metalog;
pub mod protocol;
pub mod repair;
pub mod router;
mod store;
pub mod testing;

pub use client::{ClusterClient, NodeStats, RepairReport};
pub use coordinator::{Coordinator, FilePlacement, LivenessEvent, NodeInfo, ObjectExtent};
pub use datanode::{serve_forever, DataNode, DataNodeConfig};
pub use error::ClusterError;
pub use metalog::{MetaLog, MetaRecord};
pub use protocol::{BlockId, Request, Response};
pub use repair::{
    FanInGate, RateLimiter, RepairConfig, RepairScheduler, RepairStatusReport, SchedulerStatus,
};
pub use router::MetaRouter;
pub use store::BlockStore;
pub use testing::LocalCluster;
