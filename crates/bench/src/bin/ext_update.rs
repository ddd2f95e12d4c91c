//! Extension: in-place write amplification of the mutable object path.
//!
//! Two experiments over loopback TCP clusters, both on measured wire
//! bytes (`ClusterClient::wire_counters`, payload + framing):
//!
//! * **delta vs re-encode** — a single-block-sized `write_range` on a
//!   one-stripe file ships only unit deltas and coefficient products
//!   (`Request::WriteDelta`) to the touched data node and the parities.
//!   The baseline is what a full re-encode moves for the same edit: read
//!   the stripe back (k blocks) and rewrite every block (n blocks). For
//!   the systematic (8 data, 4 parity) geometries — RS(8,4) and
//!   RS(12,8) — the delta bytes must come in at ≤ 0.5× the re-encode
//!   bytes, and the bench **exits nonzero** if they don't. A
//!   Carousel(8,4,6,8) row is reported ungated: its rotated layout
//!   spreads every message unit across most blocks, so deltas fan wider
//!   — the measured cost of non-systematic layouts under updates.
//! * **packed vs unpacked small objects** — N small objects put
//!   individually (one stripe each, mostly padding) vs packed into
//!   shared `.pack-NNNN` stripes (`PutOptions::pack`). Reports put
//!   throughput, wire bytes per object, and stripes stored; asserts
//!   packing strictly reduces stored stripes.
//!
//! Writes `results/BENCH_update.json` (`--smoke`: a temp file) and, with
//! `--metrics`, emits one `{"type": "update"}` event line per measured
//! row. Knobs: `BENCH_UPDATE_BLOCK_BYTES` (multiple of 6),
//! `BENCH_UPDATE_OBJECTS`, `BENCH_UPDATE_OBJ_BYTES`.

use std::process::ExitCode;
use std::time::Instant;

use access::{ObjectStore, PutOptions};
use bench_support::{env_knob, render_table};
use cluster::testing::LocalCluster;
use telemetry::json::Obj;

/// Emits a `{"type": "update"}` event line when a sink is installed
/// (`--metrics`).
fn emit_update(build: impl FnOnce(Obj) -> Obj) {
    if telemetry::event_sink_installed() {
        telemetry::emit_event(build(Obj::new().str("type", "update")));
    }
}

/// One measured delta-vs-re-encode row.
struct WriteAmp {
    code: &'static str,
    gated: bool,
    update_tx: u64,
    update_rx: u64,
    reencode: u64,
    ratio: f64,
}

/// Measures a single-block-sized in-place edit of a one-stripe file
/// against the read + full-rewrite traffic a re-encode would move.
fn write_amp_row(
    cluster: &mut LocalCluster,
    code: &'static str,
    gated: bool,
    k: usize,
    block_bytes: usize,
    seed: u64,
) -> WriteAmp {
    let mut client = cluster.client().with_seed(seed);
    let data: Vec<u8> = (0..k * block_bytes).map(|i| (i * 131 + 7) as u8).collect();
    let opts = PutOptions::new().code(code).block_bytes(block_bytes);

    // Re-encode baseline, measured: the put ships all n blocks, and a
    // re-encode would first have to read the stripe back (k blocks).
    let (tx0, _) = client.wire_counters();
    client.put_opts(code, &data, &opts).expect("put");
    let (tx1, rx1) = client.wire_counters();
    let put_tx = tx1 - tx0;
    assert_eq!(client.get(code).expect("readback"), data);
    let (_, rx2) = client.wire_counters();
    let reencode = put_tx + (rx2 - rx1);

    // The edit: exactly one block's span of the stripe message,
    // block-aligned — the paper's small-write case.
    let patch: Vec<u8> = (0..block_bytes).map(|i| (i * 37 + 11) as u8).collect();
    let (tx2, rx3) = client.wire_counters();
    client
        .write_range(code, block_bytes as u64, &patch)
        .expect("write_range");
    let (tx3, rx4) = client.wire_counters();

    let mut expect = data;
    expect[block_bytes..2 * block_bytes].copy_from_slice(&patch);
    assert_eq!(client.get(code).expect("post-edit get"), expect, "{code}");

    let update_tx = tx3 - tx2;
    WriteAmp {
        code,
        gated,
        update_tx,
        update_rx: rx4 - rx3,
        reencode,
        ratio: update_tx as f64 / reencode as f64,
    }
}

/// One side of the packed-vs-unpacked comparison.
struct PackSide {
    secs: f64,
    tx: u64,
    stripes: u64,
    files: usize,
}

fn main() -> ExitCode {
    let _metrics = bench_support::init_metrics("ext_update");
    let smoke = std::env::args().any(|a| a == "--smoke");
    let block_bytes = env_knob("BENCH_UPDATE_BLOCK_BYTES", if smoke { 1536 } else { 6144 });
    assert!(
        block_bytes > 0 && block_bytes.is_multiple_of(6),
        "BENCH_UPDATE_BLOCK_BYTES must be a positive multiple of 6 (carousel sub-block width)"
    );
    let objects = env_knob("BENCH_UPDATE_OBJECTS", if smoke { 24 } else { 192 });
    let obj_bytes = env_knob("BENCH_UPDATE_OBJ_BYTES", if smoke { 140 } else { 600 });

    // --- Phase 1: delta update vs full re-encode, one cluster for all
    // three geometries (RS(12,8) needs 12 homes; 13 leaves a spare).
    let mut cluster = LocalCluster::start(13).expect("start cluster");
    let rows = [
        write_amp_row(&mut cluster, "rs(8,4)", true, 4, block_bytes, 1),
        write_amp_row(&mut cluster, "rs(12,8)", true, 8, block_bytes, 2),
        write_amp_row(&mut cluster, "carousel(8,4,6,8)", false, 4, block_bytes, 3),
    ];
    drop(cluster);

    println!(
        "== Single-block edit: delta update vs read + full re-encode ({block_bytes} B blocks) =="
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.code.to_string(),
                r.update_tx.to_string(),
                r.update_rx.to_string(),
                r.reencode.to_string(),
                format!("{:.3}", r.ratio),
                if r.gated {
                    "<= 0.5".into()
                } else {
                    "report".into()
                },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["code", "delta tx", "delta rx", "re-encode", "ratio", "gate"],
            &table
        )
    );
    let mut amp_ok = true;
    for r in &rows {
        emit_update(|o| {
            o.str("event", "write_amp")
                .str("code", r.code)
                .u64("edit_bytes", block_bytes as u64)
                .u64("update_tx", r.update_tx)
                .u64("update_rx", r.update_rx)
                .u64("reencode_bytes", r.reencode)
                .f64("ratio", r.ratio)
        });
        if r.gated && r.ratio > 0.5 {
            eprintln!(
                "FAIL: {} delta update shipped {} B, over 0.5x the {} B re-encode",
                r.code, r.update_tx, r.reencode
            );
            amp_ok = false;
        }
    }

    // --- Phase 2: small-object put throughput, packed vs unpacked.
    // rs(4,2) on six nodes; object sizes vary around the configured mean.
    let cluster = LocalCluster::start(6).expect("start cluster");
    let pack_block = if smoke { 256 } else { 1024 };
    let pack_limit = 16 * pack_block as u64;
    let body = |i: usize| -> Vec<u8> {
        let len = obj_bytes / 2 + (i * 37) % obj_bytes.max(2);
        (0..len).map(|b| (b * 17 + i * 29 + 3) as u8).collect()
    };

    let mut unpacked_client = cluster.client().with_seed(100);
    let unpack_opts = PutOptions::new().code("rs(4,2)").block_bytes(pack_block);
    let (tx0, _) = unpacked_client.wire_counters();
    let t0 = Instant::now();
    for i in 0..objects {
        unpacked_client
            .put_opts(&format!("u{i}"), &body(i), &unpack_opts)
            .expect("unpacked put");
    }
    let unpacked = PackSide {
        secs: t0.elapsed().as_secs_f64(),
        tx: unpacked_client.wire_counters().0 - tx0,
        stripes: (0..objects)
            .map(|i| {
                unpacked_client
                    .coordinator()
                    .file(&format!("u{i}"))
                    .expect("placement")
                    .stripes as u64
            })
            .sum(),
        files: objects,
    };

    let mut packed_client = cluster
        .client()
        .with_seed(101)
        .with_default_code(filestore::format::CodeSpec::Rs { n: 4, k: 2 })
        .with_default_block_bytes(pack_block)
        .with_pack_limit(pack_limit);
    let pack_opts = PutOptions::new().pack(true);
    let (tx0, _) = packed_client.wire_counters();
    let t0 = Instant::now();
    for i in 0..objects {
        packed_client
            .put_opts(&format!("p{i}"), &body(i), &pack_opts)
            .expect("packed put");
    }
    let coord = packed_client.coordinator().clone();
    let packs: Vec<String> = coord
        .files()
        .into_iter()
        .filter(|f| f.starts_with(".pack-"))
        .collect();
    let packed = PackSide {
        secs: t0.elapsed().as_secs_f64(),
        tx: packed_client.wire_counters().0 - tx0,
        stripes: packs
            .iter()
            .map(|p| coord.file(p).expect("pack placement").stripes as u64)
            .sum(),
        files: packs.len(),
    };
    // Packed objects stay byte-identical through the extent indirection.
    for i in 0..objects {
        assert_eq!(
            packed_client.get(&format!("p{i}")).expect("packed get"),
            body(i),
            "packed object p{i} corrupted"
        );
    }

    println!(
        "== {objects} small objects (~{obj_bytes} B), rs(4,2), {pack_block} B blocks, \
         pack limit {pack_limit} B =="
    );
    let sides = [("unpacked", &unpacked), ("packed", &packed)];
    let table: Vec<Vec<String>> = sides
        .iter()
        .map(|(mode, s)| {
            vec![
                mode.to_string(),
                format!("{:.0}", objects as f64 / s.secs.max(1e-9)),
                (s.tx / objects as u64).to_string(),
                s.stripes.to_string(),
                s.files.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["mode", "puts/s", "tx B/obj", "stripes", "files"], &table)
    );
    for (mode, s) in &sides {
        emit_update(|o| {
            o.str("event", "packing")
                .str("mode", mode)
                .u64("objects", objects as u64)
                .u64("wire_tx", s.tx)
                .u64("stripes", s.stripes)
                .f64("secs", s.secs)
        });
    }
    let stripe_ratio = packed.stripes as f64 / unpacked.stripes as f64;
    let pack_ok = packed.stripes < unpacked.stripes;
    if !pack_ok {
        eprintln!(
            "FAIL: packing stored {} stripes vs {} unpacked",
            packed.stripes, unpacked.stripes
        );
    }

    // --- JSON.
    let amp_rows = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"code\": \"{}\", \"gated\": {}, \"update_tx\": {}, \"update_rx\": {}, \
                 \"reencode_bytes\": {}, \"ratio\": {:.4}}}",
                r.code, r.gated, r.update_tx, r.update_rx, r.reencode, r.ratio
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let side = |s: &PackSide| {
        format!(
            "{{\"secs\": {:.4}, \"wire_tx\": {}, \"stripes\": {}, \"files\": {}, \"puts_per_s\": {:.1}}}",
            s.secs,
            s.tx,
            s.stripes,
            s.files,
            s.files.max(1) as f64 / s.secs.max(1e-9)
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"update\",\n  \"smoke\": {smoke},\n  \
         \"config\": {{\"kernel\": \"{}\", \"block_bytes\": {block_bytes}, \
         \"objects\": {objects}, \"obj_bytes\": {obj_bytes}, \"pack_block\": {pack_block}, \
         \"pack_limit\": {pack_limit}}},\n  \"write_amp\": [\n{amp_rows}\n  ],\n  \
         \"packing\": {{\"objects\": {objects}, \"unpacked\": {}, \"packed\": {}, \
         \"stripe_ratio\": {stripe_ratio:.3}}}\n}}\n",
        gf256::kernel().name(),
        side(&unpacked),
        side(&packed),
    );
    let path = if smoke {
        std::env::temp_dir().join("BENCH_update.smoke.json")
    } else {
        std::fs::create_dir_all("results").expect("create results/");
        std::path::PathBuf::from("results/BENCH_update.json")
    };
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {} ({} bytes)", path.display(), json.len());

    if smoke {
        let reread = std::fs::read_to_string(&path).expect("re-read bench json");
        assert!(reread.starts_with('{') && reread.trim_end().ends_with('}'));
        assert_eq!(
            reread.matches('{').count(),
            reread.matches('}').count(),
            "unbalanced JSON braces"
        );
    }
    for r in rows.iter().filter(|r| r.gated) {
        println!(
            "write amplification: {} delta is {:.2}x re-encode (bar 0.5x) -> {}",
            r.code,
            r.ratio,
            if r.ratio <= 0.5 { "PASS" } else { "FAIL" }
        );
    }
    println!(
        "packing: {:.2}x the unpacked stripes stored -> {}",
        stripe_ratio,
        if pack_ok { "PASS" } else { "FAIL" }
    );
    if amp_ok && pack_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("ext_update: verification FAILED");
        ExitCode::FAILURE
    }
}
