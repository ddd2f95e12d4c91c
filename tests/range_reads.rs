//! Direct ranged reads and sliced delta writes over real loopback TCP.
//!
//! `get_range` maps a byte range through the code's data layout and
//! fetches only the `g`-byte slices holding it (`g = gcd(w, 4096)`),
//! falling back to a whole-stripe decode when a touched block cannot
//! serve; `write_range` ships each node only the delta slices its block
//! consumes. These tests hold both to byte identity against the written
//! data — healthy, with a data-bearing node failed, and with a block
//! corrupted on disk — and bound the bytes they move on the wire.

use access::{ObjectStore, PutOptions};
use cluster::testing::LocalCluster;
use cluster::ClusterClient;
use filestore::format::CodeSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Frame, tag and length-prefix bytes one request/response pair may add
/// on top of its payload.
const FRAME_SLACK: u64 = 64;

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

/// The spec under test with a block size whose unit width `w` is three
/// slices of `g = w / 3` bytes, so ranges cross slice, unit, block and
/// stripe boundaries.
struct Geometry {
    spec: &'static str,
    block_bytes: usize,
    /// Unit width.
    w: usize,
    /// Slice width.
    g: usize,
    /// Original-data bytes per stripe.
    sdb: usize,
}

fn geometry(spec: &'static str) -> Geometry {
    let code = CodeSpec::parse(spec).unwrap().build().unwrap();
    let linear = erasure::ErasureCode::linear(&code);
    let w = 48;
    let g = erasure::slice_bytes(w);
    assert_eq!(g, 16);
    Geometry {
        spec,
        block_bytes: linear.sub() * w,
        w,
        g,
        sdb: linear.message_units() * w,
    }
}

const SPECS: [&str; 4] = ["rs(6,4)", "carousel(6,3,3,6)", "msr(6,3,4)", "mbr(6,3,4)"];

/// Offsets and lengths that start and end on, and one byte either side
/// of, slice, unit and stripe boundaries, plus random ones.
fn ranges(geo: &Geometry, file_len: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut points = Vec::new();
    for step in [geo.g, geo.w, geo.block_bytes, geo.sdb] {
        for m in 1..4 {
            for delta in [-1i64, 0, 1] {
                let p = (step * m) as i64 + delta;
                if p >= 0 && (p as usize) < file_len {
                    points.push(p as usize);
                }
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for &start in &points {
        for &stop in &points {
            if start < stop && out.len() < 400 && rng.gen_bool(0.3) {
                out.push((start, stop - start));
            }
        }
    }
    for _ in 0..60 {
        let offset = rng.gen_range(0..file_len);
        let len = rng.gen_range(0..=(file_len - offset).min(3 * geo.sdb));
        out.push((offset, len));
    }
    out.push((0, file_len));
    out
}

fn put(client: &mut ClusterClient, name: &str, geo: &Geometry, data: &[u8]) {
    let opts = PutOptions::new()
        .code(geo.spec)
        .block_bytes(geo.block_bytes);
    client.put_opts(name, data, &opts).unwrap();
}

fn fallbacks() -> u64 {
    telemetry::counter("cluster.read.range.fallback").get()
}

/// Healthy ranged reads over every code family are byte-identical, and a
/// healthy read receives at most `len + 2·g` bytes per touched unit plus
/// framing per request.
#[test]
fn ranged_reads_are_byte_identical_and_slice_sized() {
    let cluster = LocalCluster::start(7).unwrap();
    let mut client = cluster.client().with_seed(3);
    for (i, spec) in SPECS.into_iter().enumerate() {
        let geo = geometry(spec);
        let data = payload(geo.sdb * 5 / 2 + 7, i as u64);
        let name = format!("f{i}");
        put(&mut client, &name, &geo, &data);
        for (offset, len) in ranges(&geo, data.len(), i as u64) {
            let (_, rx0) = client.wire_counters();
            let got = client.get_range(&name, offset as u64, len as u64).unwrap();
            assert_eq!(got, &data[offset..offset + len], "{spec} {offset}+{len}");
            let rx = client.wire_counters().1 - rx0;
            // Touched units, counted per stripe.
            let mut units = 0;
            let end = offset + len;
            let mut at = offset;
            while at < end {
                let stripe_end = (at / geo.sdb + 1) * geo.sdb;
                let hi = end.min(stripe_end);
                units += (hi - 1) / geo.w - at / geo.w + 1;
                at = hi;
            }
            let bound = (len + 2 * geo.g * units) as u64 + FRAME_SLACK * units as u64;
            assert!(
                rx <= bound,
                "{spec} {offset}+{len}: {rx} bytes received, bound {bound}"
            );
        }
    }
}

/// Packed objects read through the same direct path, at any offset.
#[test]
fn packed_ranged_reads_are_byte_identical() {
    let cluster = LocalCluster::start(7).unwrap();
    let mut client = cluster
        .client()
        .with_seed(5)
        .with_default_code(CodeSpec::parse("carousel(6,3,3,6)").unwrap())
        .with_default_block_bytes(geometry("carousel(6,3,3,6)").block_bytes)
        .with_pack_limit(4000);
    let objects: Vec<(String, Vec<u8>)> = (0..10)
        .map(|i| (format!("small-{i}"), payload(150 + 37 * i, 100 + i as u64)))
        .collect();
    let packed = PutOptions::new().pack(true);
    for (name, bytes) in &objects {
        client.put_opts(name, bytes, &packed).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(9);
    for (name, bytes) in &objects {
        assert_eq!(&client.get(name).unwrap(), bytes);
        for _ in 0..8 {
            let offset = rng.gen_range(0..bytes.len());
            let len = rng.gen_range(0..=bytes.len() - offset);
            let got = client.get_range(name, offset as u64, len as u64).unwrap();
            assert_eq!(got, &bytes[offset..offset + len], "{name} {offset}+{len}");
        }
    }
}

/// With one data-bearing node failed — known to the coordinator, or
/// killed silently — every range still reads byte-identical through the
/// whole-stripe fallback, and the fallback counter moves.
#[test]
fn failed_node_reads_fall_back_byte_identical() {
    for (i, spec) in SPECS.into_iter().enumerate() {
        for silent in [false, true] {
            let mut cluster = LocalCluster::start(7).unwrap();
            let mut client = cluster.client().with_seed(7 + i as u64);
            let geo = geometry(spec);
            let data = payload(geo.sdb * 2 + 5, 20 + i as u64);
            put(&mut client, "victim", &geo, &data);
            let fp = client.coordinator().file("victim").unwrap();
            // Role 0 carries original data in every family here.
            let node = fp.nodes[0][0];
            if silent {
                cluster.kill(node);
            } else {
                cluster.fail(node);
            }
            let before = fallbacks();
            for (offset, len) in ranges(&geo, data.len(), 40 + i as u64) {
                let got = client
                    .get_range("victim", offset as u64, len as u64)
                    .unwrap();
                assert_eq!(got, &data[offset..offset + len], "{spec} {offset}+{len}");
            }
            // The first stripe's first unit sits on the failed node.
            client.get_range("victim", 0, 1).unwrap();
            assert!(fallbacks() > before, "{spec}: no fallback counted");
        }
    }
}

/// A block corrupted on disk is quarantined by its datanode (answered as
/// an error, never served), so ranges over it fall back and stay
/// byte-identical.
#[test]
fn corrupt_block_reads_fall_back_byte_identical() {
    for (i, spec) in SPECS.into_iter().enumerate() {
        let cluster = LocalCluster::start(7).unwrap();
        let mut client = cluster.client().with_seed(11 + i as u64);
        let geo = geometry(spec);
        let data = payload(geo.sdb * 2 + 5, 60 + i as u64);
        put(&mut client, "rotten", &geo, &data);
        let fp = client.coordinator().file("rotten").unwrap();
        let path = cluster.block_path(fp.nodes[1][0], "rotten", 1, 0).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0x20;
        std::fs::write(&path, bytes).unwrap();
        let before = fallbacks();
        for (offset, len) in ranges(&geo, data.len(), 80 + i as u64) {
            let got = client
                .get_range("rotten", offset as u64, len as u64)
                .unwrap();
            assert_eq!(got, &data[offset..offset + len], "{spec} {offset}+{len}");
        }
        client.get_range("rotten", geo.sdb as u64, 1).unwrap();
        assert!(fallbacks() > before, "{spec}: no fallback counted");
        assert_eq!(client.get("rotten").unwrap(), data);
    }
}

/// A small in-place write ships each node only the touched slices of its
/// delta: far less than one unit per node, and the object reads back
/// byte-identical, directly and after losing a node.
#[test]
fn small_writes_ship_slices_not_units() {
    let mut cluster = LocalCluster::start(7).unwrap();
    let mut client = cluster.client().with_seed(17);
    // rs(6,4) with 12 KiB blocks: w = 12288, g = 4096, three slices a unit.
    let block_bytes = 3 * 4096;
    let opts = PutOptions::new().code("rs(6,4)").block_bytes(block_bytes);
    let mut data = payload(4 * block_bytes + 999, 33);
    client.put_opts("doc", &data, &opts).unwrap();
    let patch = payload(100, 34);
    let offset = 5000; // inside unit 0's second slice
    let (tx0, _) = client.wire_counters();
    client.write_range("doc", offset as u64, &patch).unwrap();
    let tx = client.wire_counters().0 - tx0;
    data[offset..offset + patch.len()].copy_from_slice(&patch);
    // One data node and two parity nodes receive one 4 KiB slice each
    // (whole units would be 3 × 12 KiB), plus the old-span read request.
    let bound = 3 * (4096 + 2 * FRAME_SLACK) + 2 * FRAME_SLACK;
    assert!(tx <= bound, "write shipped {tx} bytes, bound {bound}");
    assert_eq!(client.get("doc").unwrap(), data);
    // A write across a unit boundary and one that changes nothing.
    let patch = payload(300, 35);
    let offset = block_bytes - 150;
    client.write_range("doc", offset as u64, &patch).unwrap();
    data[offset..offset + patch.len()].copy_from_slice(&patch);
    let same = data[7000..7100].to_vec();
    client.write_range("doc", 7000, &same).unwrap();
    assert_eq!(client.get("doc").unwrap(), data);
    // Parity was updated consistently: reads survive losing a data node.
    let fp = client.coordinator().file("doc").unwrap();
    cluster.fail(fp.nodes[0][0]);
    assert_eq!(client.get("doc").unwrap(), data);
    assert_eq!(
        client.get_range("doc", 4900, 400).unwrap(),
        &data[4900..5300]
    );
}
