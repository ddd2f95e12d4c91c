//! The per-layer budget of a traced run. Every number is taken from
//! outside the crates: either by replaying a layer's public function on
//! the inputs the workload generated, from the client's own exact
//! counters, or from one read of the telemetry registry the crates
//! already keep. The map from each metric to the end-to-end metric it
//! should move is in `LAYERS.md`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use access::{MemorySource, PlanCache, PlanExecutor};
use cluster::protocol::{BlockId, Request, Response};
use cluster::BlockStore;
use erasure::codec::ColumnUpdater;
use erasure::ErasureCode;
use filestore::format::{AnyCode, CodeSpec};
use filestore::FileCodec;
use gf256::Gf256;

use crate::drive::Outcome;
use crate::report::Metric;
use crate::spec::{content, derive, Code, Rng, Sizes, Workload, CODES};

/// Per-layer metric names and units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("gf256.encode_gbps", "GB/s"),
    ("gf256.decode_gbps", "GB/s"),
    ("codec.encode_stripe_ms.rs", "ms"),
    ("codec.encode_stripe_ms.carousel", "ms"),
    ("codec.decode_stripe_ms.rs", "ms"),
    ("codec.decode_stripe_ms.carousel", "ms"),
    ("codec.delta_ms.rs", "ms"),
    ("codec.delta_ms.carousel", "ms"),
    ("checksum.crc32_gbps", "GB/s"),
    ("store.put_ms", "ms"),
    ("store.get_ms", "ms"),
    ("store.stat_ms", "ms"),
    ("protocol.data_frame_ms", "ms"),
    ("protocol.put_frame_ms", "ms"),
    ("access.read_plan_hit_us.rs", "us"),
    ("access.read_plan_hit_us.carousel", "us"),
    ("access.read_plan_miss_us.rs", "us"),
    ("access.read_plan_miss_us.carousel", "us"),
    ("access.fetch_decode_us.rs", "us"),
    ("access.fetch_decode_us.carousel", "us"),
    ("access.plan_hit_rate", "ratio"),
    ("client.read_amp.rs", "ratio"),
    ("client.read_amp.carousel", "ratio"),
    ("client.put_tx_per_byte", "ratio"),
    ("client.write_tx_per_byte", "ratio"),
    ("repair.wire_per_lost_byte.rs", "ratio"),
    ("repair.wire_per_lost_byte.carousel", "ratio"),
    ("cluster.phase.wait_us.p50", "us"),
    ("cluster.phase.recv_us.p50", "us"),
    ("cluster.node.queue_us.p50", "us"),
    ("cluster.node.queue_us.p99", "us"),
    ("cluster.node.service_us.p50", "us"),
    ("cluster.node.service_us.p99", "us"),
    ("cluster.fetch.stall_us.p50", "us"),
    ("meta.manifest_hit_rate", "ratio"),
    ("meta.log.append_us.p50", "us"),
    ("process.cpu_s_per_gib", "s/GiB"),
    ("span.read_p50_ms.rs", "ms"),
    ("span.read_p50_ms.carousel", "ms"),
    ("span.write_p50_ms.rs", "ms"),
    ("span.write_p50_ms.carousel", "ms"),
];

/// Wall time each replay spends at the least.
const REPLAY_SECS: f64 = 0.08;

/// Median seconds per call of `call`, over at least `min_reps` calls and
/// [`REPLAY_SECS`].
fn per_call(min_reps: usize, mut call: impl FnMut(usize)) -> f64 {
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < min_reps || start.elapsed().as_secs_f64() < REPLAY_SECS {
        let t = Instant::now();
        call(times.len());
        times.push(t.elapsed().as_secs_f64());
    }
    crate::report::median(&times)
}

fn build(code: Code) -> AnyCode {
    CodeSpec::parse(code.spec())
        .and_then(|s| s.build().map_err(Into::into))
        .expect("benchmark code specs are valid")
}

/// Every [`PER_LAYER`] metric. `scratch` is an empty directory on the
/// same filesystem as the cluster's stores. Returns `false` in the second
/// slot if a replay produced wrong bytes.
pub fn measure(
    out: &Outcome,
    workload: Workload,
    sizes: Sizes,
    seed: u64,
    scratch: &Path,
) -> (Vec<Metric>, bool) {
    let mut m = Vec::new();
    let mut ok = true;
    let block = sizes.block_bytes;
    let stripe_of = |code: Code| {
        out.inputs
            .stripes
            .get(&code)
            .cloned()
            .unwrap_or_else(|| content(derive(seed, 0xD000), sizes.stripe_bytes()))
    };
    let stripe = stripe_of(Code::Rs);

    // gf256: the RS parity shape (k = 4 whole blocks into one) and the
    // Carousel decode shape (all k * sub = 24 units into one unit).
    let kernel = gf256::kernel();
    let coeffs = [0x8e, 0x47, 0xad, 0x2c, 0x1d, 0x3b];
    let mut dst = vec![0u8; block];
    let terms: Vec<(Gf256, &[u8])> = stripe
        .chunks(block)
        .zip(coeffs)
        .map(|(src, c)| (Gf256::new(c), src))
        .collect();
    let secs = per_call(4, |_| kernel.mul_acc_rows(black_box(&terms), &mut dst));
    m.push(Metric::new(
        "gf256.encode_gbps",
        (4 * block) as f64 / secs / 1e9,
        "GB/s",
        0,
    ));
    let unit = block / 6;
    let mut dst = vec![0u8; unit];
    let terms: Vec<(Gf256, &[u8])> = stripe
        .chunks(unit)
        .enumerate()
        .map(|(i, src)| (Gf256::new(coeffs[i % coeffs.len()]), src))
        .collect();
    let secs = per_call(4, |_| kernel.mul_acc_rows(black_box(&terms), &mut dst));
    m.push(Metric::new(
        "gf256.decode_gbps",
        (24 * unit) as f64 / secs / 1e9,
        "GB/s",
        0,
    ));

    // codec and access, per code, on the workload's first stripe with the
    // failed node's block missing (block 0 where no node failed).
    for code in CODES {
        let data = stripe_of(code);
        let codec = FileCodec::new(build(code), block).expect("block size fits both codes");
        let mut encoded = codec.empty_stripe();
        let secs = per_call(3, |_| {
            codec
                .encode_stripe_into(black_box(&data), &mut encoded)
                .expect("one stripe of data")
        });
        m.push(Metric::new(
            format!("codec.encode_stripe_ms.{}", code.suffix()),
            secs * 1e3,
            "ms",
            0,
        ));

        let missing = if workload == Workload::Degraded {
            out.inputs.missing.get(&code).copied().unwrap_or(0)
        } else {
            0
        };
        let mut blocks: Vec<Option<Vec<u8>>> = encoded.blocks.iter().cloned().map(Some).collect();
        blocks[missing] = None;
        let mut decoded = Vec::new();
        let secs = per_call(3, |_| {
            decoded = codec
                .decode_stripe(black_box(&blocks))
                .expect("one block missing")
        });
        ok &= decoded == data;
        m.push(Metric::new(
            format!("codec.decode_stripe_ms.{}", code.suffix()),
            secs * 1e3,
            "ms",
            0,
        ));

        let linear = codec.code().linear();
        let updater = ColumnUpdater::new(linear);
        let unit_bytes = block / linear.sub();
        let edits = edits_for(out, code, sizes, seed);
        let secs = per_call(edits.len(), |i| {
            let (offset, new) = &edits[i % edits.len()];
            let old = &data[*offset..offset + new.len()];
            let delta = updater
                .stripe_delta(unit_bytes, *offset, old, new)
                .expect("edit lies in the stripe");
            black_box(
                updater
                    .node_updates(&delta)
                    .expect("delta spans message units"),
            );
        });
        m.push(Metric::new(
            format!("codec.delta_ms.{}", code.suffix()),
            secs * 1e3,
            "ms",
            0,
        ));

        let available: Vec<usize> = (0..blocks.len()).filter(|&b| b != missing).collect();
        let any = codec.code();
        let cache = PlanCache::new(16);
        let hit = per_call(16, |_| {
            black_box(
                cache
                    .read_plan(any, &available)
                    .expect("k blocks available"),
            );
        });
        let miss = per_call(16, |_| {
            let cold = PlanCache::new(1);
            black_box(cold.read_plan(any, &available).expect("k blocks available"));
        });
        let refs: Vec<Option<&[u8]>> = blocks.iter().map(|b| b.as_deref()).collect();
        let mut fetched = Vec::new();
        let fetch = per_call(3, |_| {
            let mut source = MemorySource::new(refs.clone(), linear.sub());
            let read = PlanExecutor::new(&cache)
                .fetch_stripe(any, &mut source)
                .expect("one block missing");
            fetched = read.decode().expect("plan decodes its own units");
        });
        ok &= fetched[..data.len()] == data[..];
        m.push(Metric::new(
            format!("access.read_plan_hit_us.{}", code.suffix()),
            hit * 1e6,
            "us",
            0,
        ));
        m.push(Metric::new(
            format!("access.read_plan_miss_us.{}", code.suffix()),
            miss * 1e6,
            "us",
            0,
        ));
        m.push(Metric::new(
            format!("access.fetch_decode_us.{}", code.suffix()),
            fetch * 1e6,
            "us",
            0,
        ));
    }
    let crc_block = &stripe[..block];
    let secs = per_call(4, |_| {
        black_box(filestore::checksum::crc32(black_box(crc_block)));
    });
    m.push(Metric::new(
        "checksum.crc32_gbps",
        block as f64 / secs / 1e9,
        "GB/s",
        0,
    ));

    // BlockStore in a fresh directory: fsyncing puts, gets, stats.
    let store = BlockStore::open(scratch.join("store")).expect("scratch directory is writable");
    let blocks: Vec<&[u8]> = stripe.chunks(block).collect();
    let id = |i: usize| BlockId {
        file: "replay".into(),
        stripe: (i / blocks.len()) as u32,
        block: (i % blocks.len()) as u32,
    };
    let puts = 2 * blocks.len();
    let put = per_call(puts, |i| {
        store
            .put(&id(i % puts), blocks[i % blocks.len()])
            .expect("store put")
    });
    let get = per_call(puts, |i| {
        let got = store.get(&id(i % puts)).expect("store get");
        ok &= got.as_deref() == Some(blocks[i % blocks.len()]);
    });
    let stat = per_call(puts, |i| {
        black_box(store.stat(&id(i % puts)).expect("store stat"));
    });
    m.push(Metric::new("store.put_ms", put * 1e3, "ms", 0));
    m.push(Metric::new("store.get_ms", get * 1e3, "ms", 0));
    m.push(Metric::new("store.stat_ms", stat * 1e3, "ms", 0));

    // Frames at block size, the payload of a whole-block read or put.
    let data = Response::Data(blocks[0].to_vec());
    let secs = per_call(4, |_| {
        let frame = data.encode();
        ok &= Response::decode(black_box(&frame)).ok().as_ref() == Some(&data);
    });
    m.push(Metric::new("protocol.data_frame_ms", secs * 1e3, "ms", 0));
    let put_req = Request::PutBlock {
        id: id(0),
        data: blocks[0].to_vec(),
    };
    let secs = per_call(4, |_| {
        let frame = put_req.encode();
        ok &= Request::decode(black_box(&frame)).ok().as_ref() == Some(&put_req);
    });
    m.push(Metric::new("protocol.put_frame_ms", secs * 1e3, "ms", 0));

    m.push(Metric::new(
        "access.plan_hit_rate",
        rate(out.plan_cache),
        "ratio",
        0,
    ));

    m.extend(counts(out, workload));
    m.extend(registry(out));
    m.push(Metric::new(
        "meta.manifest_hit_rate",
        rate(out.manifests),
        "ratio",
        0,
    ));
    let hist = |name: &str| out.registry.histogram(name).map_or(0.0, |h| h.p50() as f64);
    m.push(Metric::new(
        "meta.log.append_us.p50",
        hist("meta.log.append_us"),
        "us",
        0,
    ));
    let moved: u64 = out
        .samples
        .iter()
        .filter(|s| !matches!(s.op, "warm_put" | "warm_get" | "preload"))
        .map(|s| s.bytes)
        .sum();
    let gib = moved as f64 / f64::from(1u32 << 30);
    m.push(Metric::new(
        "process.cpu_s_per_gib",
        out.cpu_s / gib,
        "s/GiB",
        0,
    ));
    m.extend(spans(out, workload));
    m.sort_by_key(|x| PER_LAYER.iter().position(|(name, _)| *name == x.name));
    (m, ok)
}

/// The workload's own edits of `code` objects, or on workloads without
/// writes, `point`-shaped edits drawn from the seed.
fn edits_for(out: &Outcome, code: Code, sizes: Sizes, seed: u64) -> Vec<(usize, Vec<u8>)> {
    let mut edits: Vec<(usize, Vec<u8>)> = out
        .inputs
        .edits
        .iter()
        .filter(|(c, _, _)| *c == code)
        .map(|(_, off, new)| (*off, new.clone()))
        .collect();
    if edits.is_empty() {
        let mut rng = Rng::new(derive(seed, 0xE000));
        let len = sizes.write_len as usize;
        edits = (0..16)
            .map(|_| {
                let off = rng.below((sizes.stripe_bytes() - len + 1) as u64) as usize;
                (off, content(rng.next_u64(), len))
            })
            .collect();
    }
    edits
}

fn rate((hits, misses): (u64, u64)) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// Exact client-side byte counts. A ratio over an operation the workload
/// does not run reads 0.
fn counts(out: &Outcome, workload: Workload) -> Vec<Metric> {
    let wire = |ops: &[&str], code: Option<Code>| {
        out.wire
            .iter()
            .filter(|((op, c), _)| ops.contains(op) && code.is_none_or(|code| code == *c))
            .fold((0u64, 0u64, 0u64), |acc, (_, w)| {
                (acc.0 + w.tx, acc.1 + w.rx, acc.2 + w.bytes)
            })
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut m = Vec::new();
    for code in CODES {
        let (_, rx, bytes) = wire(&[workload.read_op()], Some(code));
        m.push(Metric::new(
            format!("client.read_amp.{}", code.suffix()),
            ratio(rx, bytes),
            "ratio",
            0,
        ));
    }
    let (tx, _, bytes) = wire(&["put", "warm_put", "preload"], None);
    m.push(Metric::new(
        "client.put_tx_per_byte",
        ratio(tx, bytes),
        "ratio",
        0,
    ));
    let (tx, _, bytes) = wire(&["write_range"], None);
    m.push(Metric::new(
        "client.write_tx_per_byte",
        ratio(tx, bytes),
        "ratio",
        0,
    ));
    for code in CODES {
        let t = out.repairs.get(&code).copied().unwrap_or_default();
        let name = format!("repair.wire_per_lost_byte.{}", code.suffix());
        m.push(Metric::new(
            name,
            ratio(t.wire_bytes, t.lost_bytes),
            "ratio",
            0,
        ));
    }
    m
}

/// Transport and datanode histograms the cluster crate records.
fn registry(out: &Outcome) -> Vec<Metric> {
    let q = |name: &str, q: f64| {
        out.registry
            .histogram(name)
            .map_or(0.0, |h| h.quantile(q) as f64)
    };
    vec![
        Metric::new(
            "cluster.phase.wait_us.p50",
            q("cluster.phase.wait_us", 0.5),
            "us",
            0,
        ),
        Metric::new(
            "cluster.phase.recv_us.p50",
            q("cluster.phase.recv_us", 0.5),
            "us",
            0,
        ),
        Metric::new(
            "cluster.node.queue_us.p50",
            q("cluster.node.queue_us", 0.5),
            "us",
            0,
        ),
        Metric::new(
            "cluster.node.queue_us.p99",
            q("cluster.node.queue_us", 0.99),
            "us",
            0,
        ),
        Metric::new(
            "cluster.node.service_us.p50",
            q("cluster.node.service_us", 0.5),
            "us",
            0,
        ),
        Metric::new(
            "cluster.node.service_us.p99",
            q("cluster.node.service_us", 0.99),
            "us",
            0,
        ),
        Metric::new(
            "cluster.fetch.stall_us.p50",
            q("cluster.fetch.stall_us", 0.5),
            "us",
            0,
        ),
    ]
}

/// Median span durations of the workload's read and write calls.
fn spans(out: &Outcome, workload: Workload) -> Vec<Metric> {
    let mut m = Vec::new();
    for (kind, op) in [("read", workload.read_op()), ("write", workload.write_op())] {
        for code in CODES {
            let name = format!("{op}.{}", code.suffix());
            let ms: Vec<f64> = out
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_us / 1e3)
                .collect();
            let metric = format!("span.{kind}_p50_ms.{}", code.suffix());
            m.push(Metric::new(
                metric,
                crate::report::median(&ms),
                "ms",
                ms.len(),
            ));
        }
    }
    m
}
