//! Delta parity updates vs full re-encode, across every code family.
//!
//! The mutable write path never re-encodes a stripe: it ships only the
//! changed data units and per-parity coefficient products
//! (`erasure::ColumnUpdater`). These tests prove the two are exactly
//! equivalent — for random edit ranges over all four families
//! (RS, LRC, MSR, Carousel), through the local apply path, the wire path
//! (`node_updates` + `apply_block_delta`) and the sliced wire path
//! (`StripeDelta::split` at every slice width dividing the unit, then
//! `apply_block_delta` per node), and under every
//! registered GF(2⁸) kernel via the child-process `CAROUSEL_KERNEL`
//! matrix.

use carousel::Carousel;
use erasure::{apply_block_delta, ColumnUpdater, ErasureCode, SparseEncoder};
use lrc::LocalRepairable;
use msr::ProductMatrixMsr;
use proptest::prelude::*;
use rs_code::ReedSolomon;

/// One representative geometry per family, behind the common
/// linear-code surface the updater consumes.
fn family(idx: usize) -> (&'static str, Box<dyn ErasureCode>) {
    match idx {
        0 => ("rs(6,4)", Box::new(ReedSolomon::new(6, 4).unwrap())),
        1 => (
            "lrc(4,2,2)",
            Box::new(LocalRepairable::new(4, 2, 2).unwrap()),
        ),
        2 => (
            "msr(8,4,6)",
            Box::new(ProductMatrixMsr::new(8, 4, 6).unwrap()),
        ),
        _ => (
            "carousel(6,3,3,6)",
            Box::new(Carousel::new(6, 3, 3, 6).unwrap()),
        ),
    }
}

/// Applies the edit via both delta paths and checks each against the
/// full re-encode of the new message.
fn assert_delta_matches_reencode(
    label: &str,
    code: &dyn ErasureCode,
    old: &[u8],
    offset: usize,
    patch: &[u8],
) {
    let linear = code.linear();
    let enc = SparseEncoder::new(linear);
    let upd = ColumnUpdater::new(linear);
    let mut new = old.to_vec();
    new[offset..offset + patch.len()].copy_from_slice(patch);
    let expect = enc.encode(&new).unwrap().blocks;

    // Local path: the whole stripe in hand, parity patched in place.
    let mut local = enc.encode(old).unwrap();
    upd.delta_update(
        &mut local.blocks,
        offset,
        &old[offset..offset + patch.len()],
        &new[offset..offset + patch.len()],
    )
    .unwrap();
    assert_eq!(local.blocks, expect, "{label}: local delta != re-encode");

    // Wire path: ship (deltas, per-node coefficient rows) and apply each
    // against the receiver's block alone — what `WriteDelta` does.
    let mut wire = enc.encode(old).unwrap();
    let w = wire.unit_bytes;
    let delta = upd
        .stripe_delta(
            w,
            offset,
            &old[offset..offset + patch.len()],
            &new[offset..offset + patch.len()],
        )
        .unwrap();
    let updates = upd.node_updates(&delta).unwrap();
    for nu in &updates {
        apply_block_delta(&mut wire.blocks[nu.node], w, &nu.rows, &delta.deltas).unwrap();
    }
    assert_eq!(wire.blocks, expect, "{label}: wire delta != re-encode");

    // Sliced wire path: split the delta into g-byte slices for every g
    // dividing w (edits then cross slice as well as unit boundaries) and
    // apply each node's share alone — what a sliced `WriteDelta` does.
    let before = enc.encode(old).unwrap().blocks;
    for g in (1..=w).filter(|&g| w.is_multiple_of(g)) {
        let mut sliced = before.clone();
        for nu in delta.split(&updates, g).unwrap() {
            apply_block_delta(&mut sliced[nu.node], g, &nu.rows, &nu.deltas).unwrap();
        }
        assert_eq!(
            sliced, expect,
            "{label}: {g}-byte sliced delta != re-encode"
        );
    }
    let mut shipped = before.clone();
    for nu in delta.split_for_wire(&updates).unwrap() {
        apply_block_delta(&mut shipped[nu.node], nu.slice_bytes, &nu.rows, &nu.deltas).unwrap();
    }
    assert_eq!(shipped, expect, "{label}: wire split != re-encode");

    // The wire path only touches nodes whose blocks actually change.
    for (node, (was, is)) in before.iter().zip(&expect).enumerate() {
        if was != is {
            assert!(
                updates.iter().any(|u| u.node == node),
                "{label}: changed block {node} got no update"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random edits over random messages: the delta-updated stripe is
    /// byte-identical to a from-scratch re-encode, for every family.
    #[test]
    fn delta_equals_reencode_across_families(
        idx in 0usize..4,
        data in proptest::collection::vec(any::<u8>(), 8..300),
        patch in proptest::collection::vec(any::<u8>(), 1..80),
        at in any::<u16>(),
    ) {
        let (label, code) = family(idx);
        let offset = at as usize % data.len();
        let len = patch.len().min(data.len() - offset);
        assert_delta_matches_reencode(label, code.as_ref(), &data, offset, &patch[..len]);
    }
}

/// Identical edits produce identical parity no matter which family's
/// generator the coefficients come from being sparse or dense — a no-op
/// edit must also be a no-op delta.
#[test]
fn noop_edit_ships_nothing() {
    for idx in 0..4 {
        let (label, code) = family(idx);
        let linear = code.linear();
        let upd = ColumnUpdater::new(linear);
        let data: Vec<u8> = (0..linear.message_units() * 6)
            .map(|i| (i * 29 + 5) as u8)
            .collect();
        let stripe = SparseEncoder::new(linear).encode(&data).unwrap();
        let delta = upd
            .stripe_delta(stripe.unit_bytes, 3, &data[3..20], &data[3..20])
            .unwrap();
        let updates = upd.node_updates(&delta).unwrap();
        assert!(
            updates.is_empty(),
            "{label}: unchanged bytes produced {} node updates",
            updates.len()
        );
        assert!(delta.split_for_wire(&updates).unwrap().is_empty());
    }
}

/// The fixed four-family scenario run by
/// [`delta_identity_holds_for_every_kernel`] in a child process with
/// `CAROUSEL_KERNEL` pinned to one registered kernel. Marked `#[ignore]`
/// so it only ever runs with that variable set by the parent test.
#[test]
#[ignore = "spawned per kernel by delta_identity_holds_for_every_kernel"]
fn delta_scenario_for_pinned_kernel() {
    let kernel = std::env::var("CAROUSEL_KERNEL").expect("parent pins CAROUSEL_KERNEL");
    assert_eq!(
        gf256::kernel().name(),
        kernel,
        "pinned kernel must win dispatch"
    );
    let data: Vec<u8> = (0..1024usize).map(|i| (i * 151 + 13) as u8).collect();
    for idx in 0..4 {
        let (label, code) = family(idx);
        // Three edit shapes: sub-unit, unit-spanning, and a long run
        // reaching the padded tail; each crosses slice boundaries at
        // some of the slice widths the sliced path tries.
        for (offset, len) in [(1usize, 3usize), (200, 77), (900, 124)] {
            let patch: Vec<u8> = (0..len).map(|i| (i * 83 + 29) as u8).collect();
            assert_delta_matches_reencode(label, code.as_ref(), &data, offset, &patch);
        }
        // An edit that rewrites bytes with their own values.
        assert_delta_matches_reencode(label, code.as_ref(), &data, 300, &data[300..340]);
    }
}

/// One delta-identity pass per registered kernel: re-runs
/// [`delta_scenario_for_pinned_kernel`] in a child process with
/// `CAROUSEL_KERNEL` set, so every kernel — not just the process
/// default — drives the coefficient products on both delta paths.
#[test]
fn delta_identity_holds_for_every_kernel() {
    let exe = std::env::current_exe().expect("test binary path");
    for kernel in gf256::kernels() {
        let output = std::process::Command::new(&exe)
            .args([
                "--exact",
                "delta_scenario_for_pinned_kernel",
                "--ignored",
                "--test-threads=1",
            ])
            .env("CAROUSEL_KERNEL", kernel.name())
            .output()
            .expect("spawn child test process");
        assert!(
            output.status.success(),
            "delta identity failed under kernel {}:\n{}\n{}",
            kernel.name(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr),
        );
    }
}
