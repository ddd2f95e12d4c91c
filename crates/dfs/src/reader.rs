//! Client download paths — the substrate of the paper's Fig. 11.
//!
//! Three ways to fetch a whole file to an external client:
//!
//! * [`download_replicated`] — the built-in `hadoop fs -get` behaviour:
//!   each block is downloaded from a (single) datanode **sequentially**;
//! * [`download_striped`] — the paper's custom parallel reader for RS and
//!   Carousel files: original data is fetched from all data-bearing blocks
//!   in parallel (k servers for RS, p for Carousel);
//! * the same striped reader in **degraded** mode when a block is dead: it
//!   fetches parity from replacement blocks and decodes, with the decode
//!   cost charged at the measured throughput of the respective code
//!   (Carousel decoding is more expensive than RS — paper §VIII-D).
//!
//! Model notes: downloads are flow-simulated (disk, uplink and client
//! downlink contention all emerge from max-min sharing); the decode of
//! degraded stripes is charged *after* the download completes, covering one
//! full pass over the stripe's original data. This serialized-decode model
//! is what reproduces the visible one-failure penalty in Fig. 11.

use std::sync::LazyLock;

use access::{AccessCode, PlanCache, ReadMode};
use carousel::Carousel;
use erasure::CodeError;
use rs_code::ReedSolomon;
use simcore::Engine;

use crate::namenode::StoredFile;
use crate::policy::{CodingRates, Policy};
use crate::topology::{ClusterSpec, Topology};

static DOWNLOADS: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("dfs.downloads"));
static DOWNLOAD_MB: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("dfs.download.traffic_mb"));
static DOWNLOAD_MS: LazyLock<&'static telemetry::Histogram> =
    LazyLock::new(|| telemetry::histogram("dfs.download.ms"));
static DECODE_MB: LazyLock<&'static telemetry::Counter> =
    LazyLock::new(|| telemetry::counter("dfs.decode.mb"));

/// Feeds one finished download into the per-download metrics.
fn record_download(res: &DownloadResult) {
    DOWNLOADS.inc();
    DOWNLOAD_MB.record_f64(res.downloaded_mb);
    DOWNLOAD_MS.record_f64(res.seconds * 1e3);
    DECODE_MB.add(res.decoded_mb.round() as u64);
}

/// Outcome of a simulated download.
#[derive(Debug, Clone, PartialEq)]
pub struct DownloadResult {
    /// Wall-clock completion time, seconds.
    pub seconds: f64,
    /// Bytes that crossed the network, MB.
    pub downloaded_mb: f64,
    /// Original-data volume that had to pass through a decoder, MB.
    pub decoded_mb: f64,
    /// Distinct datanodes read from.
    pub servers: usize,
}

/// Sequential whole-block replica fetch (`hadoop fs -get`).
///
/// # Errors
///
/// Returns [`CodeError::InsufficientData`] if some block has no live
/// replica, and [`CodeError::InvalidParameters`] if the file is not
/// replicated.
pub fn download_replicated(
    spec: &ClusterSpec,
    file: &StoredFile,
) -> Result<DownloadResult, CodeError> {
    let Policy::Replication { .. } = file.policy else {
        return Err(CodeError::InvalidParameters {
            reason: "download_replicated requires a replicated file".into(),
        });
    };
    let mut engine: Engine<usize> = Engine::new();
    let topo = Topology::build(spec, &mut engine);
    // Pick the first live replica of every block, in order.
    let mut sources = Vec::with_capacity(file.stripes.len());
    for stripe in &file.stripes {
        let role = stripe
            .alive_roles()
            .into_iter()
            .next()
            .ok_or(CodeError::InsufficientData { needed: 1, got: 0 })?;
        sources.push(stripe.blocks[role].node);
    }
    // Sequential: start block i+1 when block i completes.
    let mut iter = sources.iter();
    if let Some(&first) = iter.next() {
        engine.start_flow(file.block_mb, &topo.client_read(first), None, 0);
    }
    let mut last_t = 0.0;
    while let Some((t, _)) = engine.next_event() {
        last_t = t;
        if let Some(&next) = iter.next() {
            engine.start_flow(file.block_mb, &topo.client_read(next), None, 0);
        }
    }
    let mut servers: Vec<usize> = sources.clone();
    servers.sort_unstable();
    servers.dedup();
    let res = DownloadResult {
        seconds: last_t,
        downloaded_mb: file.block_mb * sources.len() as f64,
        decoded_mb: 0.0,
        servers: servers.len(),
    };
    record_download(&res);
    Ok(res)
}

/// Parallel striped download for RS and Carousel files, with degraded-read
/// support.
///
/// # Errors
///
/// Returns [`CodeError::InvalidParameters`] for replicated files and
/// [`CodeError::InsufficientData`] if a stripe has fewer than `k` live
/// blocks.
pub fn download_striped(
    spec: &ClusterSpec,
    file: &StoredFile,
    rates: CodingRates,
) -> Result<DownloadResult, CodeError> {
    // One code and one plan cache per file: every stripe shares the
    // geometry, so stripes with the same liveness pattern replan for free.
    let (code, code_rate): (Box<dyn AccessCode>, f64) = match file.policy {
        Policy::Replication { .. } => {
            return Err(CodeError::InvalidParameters {
                reason: "download_striped requires a coded file".into(),
            })
        }
        Policy::Rs { n, k } => (Box::new(ReedSolomon::new(n, k)?), rates.rs_decode_mbps),
        Policy::Carousel { n, k, d, p } => (
            Box::new(Carousel::new(n, k, d, p)?),
            rates.carousel_decode_mbps,
        ),
    };
    let k = code.k();
    let unit_mb = file.block_mb / code.linear().sub() as f64;
    let plans = PlanCache::new(file.stripes.len().max(1));

    let mut engine: Engine<usize> = Engine::new();
    let topo = Topology::build(spec, &mut engine);
    let mut downloaded_mb = 0.0;
    let mut decoded_mb = 0.0;
    let mut decode_rate = f64::INFINITY;
    let mut servers: Vec<usize> = Vec::new();

    for stripe in &file.stripes {
        let alive = stripe.alive_roles();
        let plan = plans.read_plan(code.as_ref(), &alive)?;
        if plan.mode() != ReadMode::Direct {
            decoded_mb += k as f64 * file.block_mb;
            decode_rate = decode_rate.min(code_rate);
        }
        for (role, units) in plan.units_per_node() {
            let mb = units as f64 * unit_mb;
            let node = stripe.blocks[role].node;
            engine.start_flow(mb, &topo.client_read(node), None, 0);
            downloaded_mb += mb;
            if !servers.contains(&node) {
                servers.push(node);
            }
        }
    }

    let mut last_t = 0.0;
    while let Some((t, _)) = engine.next_event() {
        last_t = t;
    }
    let decode_s = if decoded_mb > 0.0 {
        decoded_mb / decode_rate
    } else {
        0.0
    };
    let res = DownloadResult {
        seconds: last_t + decode_s,
        downloaded_mb,
        decoded_mb,
        servers: servers.len(),
    };
    record_download(&res);
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::namenode::Namenode;
    use rand::SeedableRng;

    fn fig11_spec() -> ClusterSpec {
        // Paper Fig. 11: datanode reads capped at 300 Mbps = 37.5 MB/s.
        ClusterSpec::r3_large_cluster().with_disk_read_mbps(37.5)
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn replicated_download_is_sequential() {
        let spec = fig11_spec();
        let mut nn = Namenode::new(30);
        let f = nn
            .store(
                "f",
                3072.0,
                512.0,
                Policy::Replication { copies: 3 },
                &mut rng(),
            )
            .clone();
        let r = download_replicated(&spec, &f).unwrap();
        // 6 blocks x 512 MB at 37.5 MB/s, one at a time: ~81.9 s.
        assert!(
            (r.seconds - 6.0 * 512.0 / 37.5).abs() < 1e-6,
            "{}",
            r.seconds
        );
        assert_eq!(r.decoded_mb, 0.0);
    }

    #[test]
    fn rs_parallel_download_beats_replication() {
        let spec = fig11_spec();
        let mut nn = Namenode::new(30);
        let rep = nn
            .store(
                "rep",
                3072.0,
                512.0,
                Policy::Replication { copies: 3 },
                &mut rng(),
            )
            .clone();
        let rs = nn
            .store("rs", 3072.0, 512.0, Policy::Rs { n: 12, k: 6 }, &mut rng())
            .clone();
        let t_rep = download_replicated(&spec, &rep).unwrap().seconds;
        let t_rs = download_striped(&spec, &rs, CodingRates::default())
            .unwrap()
            .seconds;
        assert!(t_rs < t_rep / 3.0, "parallel {t_rs} vs sequential {t_rep}");
    }

    #[test]
    fn carousel_download_beats_rs() {
        // The paper's headline Fig. 11 ordering (no failure).
        let spec = fig11_spec();
        let mut nn = Namenode::new(30);
        let rs = nn
            .store("rs", 3072.0, 512.0, Policy::Rs { n: 12, k: 6 }, &mut rng())
            .clone();
        let ca = nn
            .store(
                "ca",
                3072.0,
                512.0,
                Policy::Carousel {
                    n: 12,
                    k: 6,
                    d: 10,
                    p: 10,
                },
                &mut rng(),
            )
            .clone();
        let t_rs = download_striped(&spec, &rs, CodingRates::default()).unwrap();
        let t_ca = download_striped(&spec, &ca, CodingRates::default()).unwrap();
        assert_eq!(t_rs.servers, 6);
        assert_eq!(t_ca.servers, 10);
        assert!(t_ca.seconds < t_rs.seconds);
        // Same bytes cross the network either way (k blocks' worth).
        assert!((t_rs.downloaded_mb - t_ca.downloaded_mb).abs() < 1e-6);
    }

    #[test]
    fn degraded_reads_decode_and_still_order_correctly() {
        let spec = fig11_spec();
        let mut nn = Namenode::new(30);
        nn.store("rs", 3072.0, 512.0, Policy::Rs { n: 12, k: 6 }, &mut rng());
        nn.store(
            "ca",
            3072.0,
            512.0,
            Policy::Carousel {
                n: 12,
                k: 6,
                d: 10,
                p: 10,
            },
            &mut rng(),
        );
        // Kill one data-bearing block of each file.
        nn.fail_block("rs", 0, 0);
        nn.fail_block("ca", 0, 0);
        let rs = nn.file("rs").unwrap();
        let ca = nn.file("ca").unwrap();
        let r_rs = download_striped(&spec, rs, CodingRates::default()).unwrap();
        let r_ca = download_striped(&spec, ca, CodingRates::default()).unwrap();
        assert!(r_rs.decoded_mb > 0.0);
        assert!(r_ca.decoded_mb > 0.0);
        // Paper: with one failure Carousel is slower than without, but still
        // faster than RS.
        assert!(r_ca.seconds < r_rs.seconds);
    }

    #[test]
    fn multi_stripe_files_download_all_stripes_in_parallel() {
        let spec = fig11_spec();
        let mut nn = Namenode::new(30);
        // 9 GB = 3 stripes of (12,6).
        let f = nn
            .store(
                "big",
                3.0 * 3072.0,
                512.0,
                Policy::Rs { n: 12, k: 6 },
                &mut rng(),
            )
            .clone();
        assert_eq!(f.stripes.len(), 3);
        let r = download_striped(&spec, &f, CodingRates::default()).unwrap();
        assert!((r.downloaded_mb - 3.0 * 6.0 * 512.0).abs() < 1e-6);
        // All stripes stream concurrently, but shared disks/links make a
        // 3-stripe download slower than one stripe and much faster than 3x.
        let one = nn
            .store("one", 3072.0, 512.0, Policy::Rs { n: 12, k: 6 }, &mut rng())
            .clone();
        let r1 = download_striped(&spec, &one, CodingRates::default()).unwrap();
        assert!(r.seconds > r1.seconds);
        assert!(r.seconds < 3.5 * r1.seconds);
    }

    #[test]
    fn insufficient_blocks_error() {
        let spec = fig11_spec();
        let mut nn = Namenode::new(30);
        nn.store("f", 1024.0, 512.0, Policy::Rs { n: 3, k: 2 }, &mut rng());
        nn.fail_block("f", 0, 0);
        nn.fail_block("f", 0, 1);
        let f = nn.file("f").unwrap();
        assert!(download_striped(&spec, f, CodingRates::default()).is_err());
    }

    #[test]
    fn wrong_policy_rejected() {
        let spec = fig11_spec();
        let mut nn = Namenode::new(10);
        let rep = nn
            .store(
                "r",
                512.0,
                512.0,
                Policy::Replication { copies: 2 },
                &mut rng(),
            )
            .clone();
        assert!(download_striped(&spec, &rep, CodingRates::default()).is_err());
        let rs = nn
            .store("s", 512.0, 512.0, Policy::Rs { n: 4, k: 2 }, &mut rng())
            .clone();
        assert!(download_replicated(&spec, &rs).is_err());
    }
}
