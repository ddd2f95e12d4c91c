//! End-to-end tests of the `carousel-tool` CLI binary: encode a real file,
//! damage the directory on disk, verify, repair and decode.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_carousel-tool"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("carousel-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn write_input(dir: &Path, len: usize) -> PathBuf {
    let path = dir.join("input.bin");
    let data: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
    std::fs::write(&path, data).expect("write input");
    path
}

#[test]
fn encode_damage_repair_decode_round_trip() {
    let dir = temp_dir("roundtrip");
    let input = write_input(&dir, 50_000);
    let enc = dir.join("data.enc");
    let out = dir.join("out.bin");

    let status = tool()
        .args([
            "encode",
            input.to_str().unwrap(),
            enc.to_str().unwrap(),
            "--code",
            "carousel(6,4,4,6)",
        ])
        .status()
        .expect("run encode");
    assert!(status.success());

    // Remove two block files (the code tolerates n - k = 2).
    for (s, b) in [(0, 1), (0, 4)] {
        let status = tool()
            .args([
                "drop",
                enc.to_str().unwrap(),
                &s.to_string(),
                &b.to_string(),
            ])
            .status()
            .expect("run drop");
        assert!(status.success());
    }

    // verify reports the damage but exits successfully (still recoverable).
    let output = tool()
        .args(["verify", enc.to_str().unwrap()])
        .output()
        .expect("run verify");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("4/6 blocks healthy"), "{text}");

    let status = tool()
        .args(["repair", enc.to_str().unwrap()])
        .status()
        .expect("run repair");
    assert!(status.success());

    let status = tool()
        .args(["decode", enc.to_str().unwrap(), out.to_str().unwrap()])
        .status()
        .expect("run decode");
    assert!(status.success());
    assert_eq!(std::fs::read(&input).unwrap(), std::fs::read(&out).unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bitrot_is_quarantined_and_fatal_damage_reported() {
    let dir = temp_dir("bitrot");
    let input = write_input(&dir, 10_000);
    let enc = dir.join("data.enc");
    assert!(tool()
        .args([
            "encode",
            input.to_str().unwrap(),
            enc.to_str().unwrap(),
            "--code",
            "rs(4,2)",
        ])
        .status()
        .unwrap()
        .success());

    // Corrupt one block in place: verify must quarantine it.
    let victim = enc.join("s00000_b001.blk");
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[3] ^= 0x80;
    std::fs::write(&victim, bytes).unwrap();
    let output = tool()
        .args(["verify", enc.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("3/4 blocks healthy"));

    // Destroy two more blocks: below k, verify must fail loudly.
    std::fs::remove_file(enc.join("s00000_b000.blk")).unwrap();
    std::fs::remove_file(enc.join("s00000_b002.blk")).unwrap();
    let output = tool()
        .args(["verify", enc.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("DATA LOSS"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn range_reads_bytes_to_stdout() {
    let dir = temp_dir("range");
    let input = write_input(&dir, 5_000);
    let enc = dir.join("data.enc");
    assert!(tool()
        .args([
            "encode",
            input.to_str().unwrap(),
            enc.to_str().unwrap(),
            "--code",
            "msr(6,3,4)",
        ])
        .status()
        .unwrap()
        .success());
    let output = tool()
        .args(["range", enc.to_str().unwrap(), "1200", "64"])
        .output()
        .unwrap();
    assert!(output.status.success());
    let expect = &std::fs::read(&input).unwrap()[1200..1264];
    assert_eq!(output.stdout, expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn write_updates_in_place() {
    let dir = temp_dir("write");
    let input = write_input(&dir, 8_000);
    let enc = dir.join("data.enc");
    let out = dir.join("out.bin");
    assert!(tool()
        .args([
            "encode",
            input.to_str().unwrap(),
            enc.to_str().unwrap(),
            "--code",
            "carousel(6,3,3,6)",
        ])
        .status()
        .unwrap()
        .success());
    // Patch 500 bytes at offset 1234.
    let patch_path = dir.join("patch.bin");
    let patch: Vec<u8> = (0..500).map(|i| (i * 7 + 99) as u8).collect();
    std::fs::write(&patch_path, &patch).unwrap();
    assert!(tool()
        .args([
            "write",
            enc.to_str().unwrap(),
            "1234",
            patch_path.to_str().unwrap(),
        ])
        .status()
        .unwrap()
        .success());
    // Checksums were refreshed: verify is clean; decode reflects the patch
    // even after losing blocks (parity was updated too).
    assert!(tool()
        .args(["verify", enc.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    assert!(tool()
        .args(["drop", enc.to_str().unwrap(), "0", "0"])
        .status()
        .unwrap()
        .success());
    assert!(tool()
        .args(["decode", enc.to_str().unwrap(), out.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let mut expect = std::fs::read(&input).unwrap();
    expect[1234..1734].copy_from_slice(&patch);
    assert_eq!(std::fs::read(&out).unwrap(), expect);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_commands_fail_with_usage() {
    let output = tool().args(["frobnicate"]).output().unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("usage"));
}

/// `kernels` prints every registered kernel, the probed CPU features and
/// the active default — and honors the `CAROUSEL_KERNEL` override,
/// including warn-and-fallback to the detected best for unknown names.
#[test]
fn kernels_subcommand_reports_registry_and_dispatch() {
    let output = tool().args(["kernels"]).output().unwrap();
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout).to_string();
    for k in gf256::kernels() {
        assert!(
            text.contains(k.name()),
            "kernel {} missing:\n{text}",
            k.name()
        );
    }
    for feature in ["ssse3", "avx2", "neon"] {
        assert!(text.contains(feature), "feature {feature} missing:\n{text}");
    }
    assert!(text.contains("detected best"), "{text}");
    assert!(
        text.contains(&format!(
            "active kernel {:?}",
            gf256::detected_best().name()
        )),
        "{text}"
    );

    // A pinned override becomes the active default...
    let output = tool()
        .args(["kernels"])
        .env("CAROUSEL_KERNEL", "scalar")
        .output()
        .unwrap();
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(text.contains("active kernel \"scalar\""), "{text}");

    // ...and an unknown name warns and falls back to the detected best.
    let output = tool()
        .args(["kernels"])
        .env("CAROUSEL_KERNEL", "not-a-kernel")
        .output()
        .unwrap();
    assert!(output.status.success());
    let out = String::from_utf8_lossy(&output.stdout).to_string();
    let err = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(err.contains("not a registered kernel"), "{err}");
    assert!(
        err.contains(&format!(
            "using detected best {:?}",
            gf256::detected_best().name()
        )),
        "{err}"
    );
    assert!(
        out.contains(&format!(
            "active kernel {:?}",
            gf256::detected_best().name()
        )),
        "{out}"
    );
}

/// Full cluster workflow through the CLI: seven `serve` datanode
/// *processes*, then `put` / `get` / kill-a-node / degraded `get` /
/// `repair` / `get` — asserting byte-identical output each time — and
/// finally `stats` / `repair-status` against a surviving node. Seven
/// nodes for 6-wide stripes leaves a spare for the repaired blocks.
#[test]
fn cluster_serve_put_get_repair_round_trip() {
    use std::io::{BufRead, BufReader};

    let dir = temp_dir("cluster");
    let input = write_input(&dir, 20_000);
    let manifest = dir.join("cluster.manifest");

    /// Kills the datanode processes when the test ends, pass or fail.
    struct Nodes(Vec<std::process::Child>);
    impl Drop for Nodes {
        fn drop(&mut self) {
            for child in &mut self.0 {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }

    // Spawn 7 datanodes on ephemeral ports; each prints its address.
    let mut children = Nodes(Vec::new());
    let mut addrs = Vec::new();
    for id in 0..7 {
        let mut child = tool()
            .args([
                "serve",
                dir.join(format!("node{id}")).to_str().unwrap(),
                "--id",
                &id.to_string(),
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn datanode");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("banner");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in banner")
            .to_string();
        addrs.push(addr);
        children.0.push(child);
    }

    let status = tool()
        .args([
            "put",
            input.to_str().unwrap(),
            manifest.to_str().unwrap(),
            "--nodes",
            &addrs.join(","),
            "--code",
            "carousel(6,4,4,6)",
            "--threads",
            "2",
        ])
        .status()
        .expect("run put");
    assert!(status.success());

    let out = dir.join("roundtrip.bin");
    assert!(tool()
        .args(["get", manifest.to_str().unwrap(), out.to_str().unwrap()])
        .status()
        .unwrap()
        .success());
    let expect = std::fs::read(&input).unwrap();
    assert_eq!(std::fs::read(&out).unwrap(), expect);

    // Kill a datanode that actually hosts blocks of stripe 0 (read from
    // `manifest dump`'s placement line — the manifest itself is a binary
    // record log); get must degrade transparently.
    let dump = tool()
        .args(["manifest", "dump", manifest.to_str().unwrap()])
        .output()
        .expect("run manifest dump");
    assert!(dump.status.success());
    let text = String::from_utf8_lossy(&dump.stdout).to_string();
    let victim: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("place_0_0="))
        .expect("placement line")
        .split(',')
        .next()
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    children.0[victim].kill().expect("kill datanode");
    let _ = children.0[victim].wait();
    let degraded = dir.join("degraded.bin");
    assert!(tool()
        .args([
            "get",
            manifest.to_str().unwrap(),
            degraded.to_str().unwrap()
        ])
        .status()
        .unwrap()
        .success());
    assert_eq!(std::fs::read(&degraded).unwrap(), expect);

    // Network repair (polymorphic `repair` on a manifest path): rebuilds
    // the dead node's blocks onto the survivors and rewrites the manifest.
    let output = tool()
        .args(["repair", manifest.to_str().unwrap()])
        .output()
        .expect("run repair");
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("repaired"));

    let repaired = dir.join("repaired.bin");
    assert!(tool()
        .args([
            "get",
            manifest.to_str().unwrap(),
            repaired.to_str().unwrap()
        ])
        .status()
        .unwrap()
        .success());
    assert_eq!(std::fs::read(&repaired).unwrap(), expect);

    // Both registry scrapes answer from a live node: `stats` lists its
    // metrics, `repair-status` prints the ten report lines.
    let live = &addrs[(victim + 1) % addrs.len()];
    let stats = tool().args(["stats", live]).output().expect("run stats");
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout).to_string();
    assert!(
        text.contains("counter   cluster.node.requests = "),
        "{text}"
    );
    assert!(
        text.contains("histogram cluster.node.service_us: "),
        "{text}"
    );
    let report = tool()
        .args(["repair-status", live])
        .output()
        .expect("run repair-status");
    assert!(report.status.success());
    let text = String::from_utf8_lossy(&report.stdout).to_string();
    for label in [
        "queue depth:",
        "in flight:",
        "enqueued:",
        "completed:",
        "requeued:",
        "cancelled:",
        "abandoned:",
        "blocks rebuilt:",
        "helper bytes:",
        "wire bytes:",
    ] {
        assert!(
            text.contains(label),
            "repair-status lacks {label:?}: {text}"
        );
    }

    drop(children);
    let _ = std::fs::remove_dir_all(&dir);
}
