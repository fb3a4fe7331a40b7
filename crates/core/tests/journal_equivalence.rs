//! Checkpoint-policy independence of the crash journal.
//!
//! Commit deltas are assembled from what actually landed in shared
//! storage, selected by write flags tracked under *both* checkpoint
//! policies — so a run journaled under [`CheckpointPolicy::Eager`] and
//! the same run under [`CheckpointPolicy::OnDemand`] must produce
//! **identical** journal records, and a journal recorded under one
//! policy must resume under the other. That is why the policy is
//! deliberately excluded from the journal header's identity.

use rlrpd_core::{
    run_speculative, ArrayDecl, ArrayId, CheckpointPolicy, ClosureLoop, Journal, RunConfig,
    RunPlan, Runner, ShadowKind, Strategy, WindowConfig,
};
use std::path::PathBuf;

const A: ArrayId = ArrayId(0);
const U: ArrayId = ArrayId(1);

/// A seeded partially parallel loop (xorshift-derived access pattern)
/// with one tested and one untested array.
fn seeded_loop(seed: u64, n: usize) -> ClosureLoop {
    ClosureLoop::new(
        n,
        move || {
            vec![
                ArrayDecl::tested("A", vec![0.5; 128], ShadowKind::Dense),
                ArrayDecl::untested("U", vec![2.0; n]),
            ]
        },
        move |i, ctx| {
            let mut x = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x ^= x >> 13;
            x ^= x << 7;
            x ^= x >> 17;
            let src = (x % 128) as usize;
            let v = if x.is_multiple_of(5) {
                ctx.read(A, src)
            } else {
                i as f64 * 0.25
            };
            ctx.write(A, (i * 3 + 1) % 128, v + 1.0);
            if x.is_multiple_of(3) {
                // Injective over the whole iteration space: untested
                // locations are single-writer by contract.
                ctx.write(U, i, v - 2.0);
            }
        },
    )
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rlrpd-jeq-{name}-{}", std::process::id()))
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::Nrd,
        Strategy::Rd,
        Strategy::SlidingWindow(WindowConfig::fixed(8)),
    ]
}

#[test]
fn eager_and_ondemand_write_identical_journal_records() {
    for seed in [3u64, 17, 2002] {
        let lp = seeded_loop(seed, 96);
        for (k, strategy) in strategies().into_iter().enumerate() {
            let mut per_policy = Vec::new();
            for policy in [CheckpointPolicy::Eager, CheckpointPolicy::OnDemand] {
                let cfg = RunConfig::new(4)
                    .with_strategy(strategy)
                    .with_checkpoint(policy);
                let path = tmp(&format!("records-{seed}-{k}-{policy:?}"));
                let mut journal = Journal::create(&path).unwrap();
                let res = Runner::new(cfg)
                    .execute(&lp, RunPlan::default().journal(&mut journal))
                    .unwrap();
                let bytes = std::fs::read(&path).unwrap();
                std::fs::remove_file(&path).ok();
                per_policy.push((journal.commits().to_vec(), bytes, res.arrays));
            }
            let (eager_commits, eager_bytes, eager_arrays) = &per_policy[0];
            let (od_commits, od_bytes, od_arrays) = &per_policy[1];
            assert_eq!(
                eager_commits, od_commits,
                "seed={seed} {strategy:?}: commit records differ across policies"
            );
            assert_eq!(
                eager_bytes, od_bytes,
                "seed={seed} {strategy:?}: journal files differ byte-for-byte"
            );
            assert_eq!(eager_arrays, od_arrays);
        }
    }
}

#[test]
fn journal_resumes_across_checkpoint_policies() {
    // Record under one policy, crash, resume under the other: the
    // header deliberately omits the policy, so this must work and stay
    // byte-identical.
    for seed in [3u64, 2002] {
        let lp = seeded_loop(seed, 96);
        for (k, strategy) in strategies().into_iter().enumerate() {
            for (rec_policy, res_policy) in [
                (CheckpointPolicy::Eager, CheckpointPolicy::OnDemand),
                (CheckpointPolicy::OnDemand, CheckpointPolicy::Eager),
            ] {
                let rec_cfg = RunConfig::new(4)
                    .with_strategy(strategy)
                    .with_checkpoint(rec_policy);
                let res_cfg = RunConfig::new(4)
                    .with_strategy(strategy)
                    .with_checkpoint(res_policy);

                // Ground truth: an uninterrupted run.
                let want = run_speculative(&lp, rec_cfg).arrays;

                // Record fully, then cut the journal back to its first
                // two records (header + first commit) — a mid-run crash.
                let path = tmp(&format!("xpolicy-{seed}-{k}-{rec_policy:?}"));
                let mut journal = Journal::create(&path).unwrap();
                Runner::new(rec_cfg)
                    .execute(&lp, RunPlan::default().journal(&mut journal))
                    .unwrap();
                drop(journal);
                let bytes = std::fs::read(&path).unwrap();
                let cut = first_two_records_len(&bytes);
                std::fs::write(&path, &bytes[..cut]).unwrap();

                let mut journal = Journal::open(&path).unwrap();
                let res = Runner::new(res_cfg)
                    .execute(&lp, RunPlan::default().journal(&mut journal))
                    .unwrap();
                assert_eq!(
                    res.arrays, want,
                    "seed={seed} {strategy:?}: {rec_policy:?} -> {res_policy:?} resume diverged"
                );
                std::fs::remove_file(&path).ok();
            }
        }
    }
}

/// Byte length of the first two frames (header + first commit).
fn first_two_records_len(bytes: &[u8]) -> usize {
    let mut pos = 0usize;
    for _ in 0..2 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4 + len;
    }
    pos.min(bytes.len())
}
