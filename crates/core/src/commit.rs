//! The commit phase: last-value copy-out of correctly computed private
//! data into shared storage.
//!
//! For the committing prefix of blocks (everything below the first
//! dependence sink, or all blocks on a passing stage), each tested
//! element's final shared value is assembled **in block order**:
//!
//! * an ordinary write replaces the value (so the *last* committing
//!   writer wins — the paper's last-value semantics for output
//!   dependences);
//! * a reduction delta folds into the value with the declared operator
//!   (starting from the current shared value when no committing block
//!   wrote the element ordinarily).
//!
//! Committing also establishes the flow-dependence repair for the next
//! stage: re-executed blocks copy in the committed values on demand.

use crate::buf::SharedBuf;
use crate::value::{Reduction, Value};
use crate::view::ProcView;
use rlrpd_runtime::{ExecMode, Executor};
use rlrpd_shadow::hasher::FxBuildHasher;
use std::collections::HashMap;

/// Cost-accounting summary of one commit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct CommitStats {
    /// Distinct elements whose shared value was updated.
    pub elems_committed: usize,
    /// Max contributions from any single block (parallel critical path).
    pub max_per_block: usize,
}

/// Fold the committing blocks' private data into shared storage.
///
/// `per_pos_views` must be the committing prefix, in block order;
/// `reductions[slot]` is the declared operator of tested slot `slot`;
/// `tested_ids[slot]` maps the slot to its array declaration index in
/// `shared`.
///
/// The *merge* (resolving last-value/reduction order per element) runs
/// sequentially under [`ExecMode::Simulated`] and as an
/// element-partitioned parallel merge otherwise (same bucketing scheme
/// as the parallel analysis); the *write-back* — the memory-heavy part
/// — is partitioned by last contributing block and executed in
/// parallel, which is how the paper's commit "is fully parallel and
/// scales with the number of processors". Both merges produce the same
/// final arrays and the same [`CommitStats`].
pub(crate) fn commit_tested<T: Value>(
    per_pos_views: &[&[ProcView<T>]],
    tested_ids: &[usize],
    reductions: &[Option<Reduction<T>>],
    shared: &[SharedBuf<T>],
    executor: &Executor,
) -> CommitStats {
    let (stats, per_block) = match executor.mode() {
        ExecMode::Simulated => merge_seq(per_pos_views, tested_ids, reductions, shared),
        ExecMode::Pooled | ExecMode::Distributed => {
            merge_parallel(per_pos_views, tested_ids, reductions, shared, executor)
        }
    };
    writeback(per_block, shared, executor);
    stats
}

/// Write-back work list per contributing block:
/// (array declaration index, element, final value).
type PerBlock<T> = Vec<Vec<(u32, usize, T)>>;

/// Sequential reference merge: per slot, fold touched entries in block
/// order into each element's final value and last contributor.
fn merge_seq<T: Value>(
    per_pos_views: &[&[ProcView<T>]],
    tested_ids: &[usize],
    reductions: &[Option<Reduction<T>>],
    shared: &[SharedBuf<T>],
) -> (CommitStats, PerBlock<T>) {
    let mut stats = CommitStats::default();
    let mut per_block: PerBlock<T> = vec![Vec::new(); per_pos_views.len()];

    for (slot, &array_id) in tested_ids.iter().enumerate() {
        let buf = &shared[array_id];
        // elem -> (value so far, last contributing block position).
        let mut final_vals: HashMap<usize, (T, usize), FxBuildHasher> = HashMap::default();

        for (pos, views) in per_pos_views.iter().enumerate() {
            let mut contributions = 0usize;
            for (elem, mark) in views[slot].touched() {
                if mark.is_written() {
                    final_vals.insert(elem, (views[slot].written_value(elem), pos));
                    contributions += 1;
                } else if mark.is_reduction_only() {
                    let op = reductions[slot].expect("reduction mark without operator");
                    let delta = views[slot].reduction_delta(elem);
                    let base = final_vals
                        .get(&elem)
                        .map(|&(v, _)| v)
                        // SAFETY: commit runs after the stage barrier;
                        // no concurrent writers of tested shared data.
                        .unwrap_or_else(|| unsafe { buf.get(elem) });
                    final_vals.insert(elem, ((op.combine)(base, delta), pos));
                    contributions += 1;
                }
            }
            stats.max_per_block = stats.max_per_block.max(contributions);
        }

        stats.elems_committed += final_vals.len();
        for (&elem, &(v, who)) in &final_vals {
            per_block[who].push((array_id as u32, elem, v));
        }
    }

    (stats, per_block)
}

/// One merge-relevant touched entry, with its value fetched up front so
/// the bucket pass never touches the views again.
#[derive(Clone, Copy)]
struct Contribution<T> {
    slot: u32,
    elem: usize,
    /// `true`: ordinary write (replaces). `false`: reduction delta
    /// (folds with the slot's operator).
    is_write: bool,
    value: T,
}

/// Element-partitioned parallel merge. Pass 1 (parallel over blocks)
/// extracts each block's contributions — mark kind, element, and the
/// private value — bucketed by element hash, and counts contributions
/// per `(block, slot)` for the critical-path statistic. Pass 2
/// (parallel over buckets) folds each bucket's contributions in block
/// order, exactly as [`merge_seq`] does per element; every entry of a
/// given `(slot, elem)` lands in one bucket, so the fold is the
/// sequential one. Pass 3 (sequential, cheap) redistributes the final
/// values into per-last-contributor write-back lists.
fn merge_parallel<T: Value>(
    per_pos_views: &[&[ProcView<T>]],
    tested_ids: &[usize],
    reductions: &[Option<Reduction<T>>],
    shared: &[SharedBuf<T>],
    executor: &Executor,
) -> (CommitStats, PerBlock<T>) {
    let num_pos = per_pos_views.len();
    let num_slots = tested_ids.len();
    let buckets = match executor.pool() {
        Some(pool) => pool.threads(),
        None => num_pos,
    }
    .max(1);

    // Pass 1: per-block contribution extraction.
    struct BlockPart<T> {
        buckets: Vec<Vec<Contribution<T>>>,
        /// Contribution count per slot (sequential counts per
        /// `(slot, pos)`; the stats maximum ranges over both).
        per_slot_contribs: Vec<usize>,
    }
    let parts: Vec<BlockPart<T>> = executor.run_indexed(num_pos, |pos| {
        let mut part = BlockPart {
            buckets: vec![Vec::new(); buckets],
            per_slot_contribs: vec![0; num_slots],
        };
        for (slot, view) in per_pos_views[pos].iter().enumerate().take(num_slots) {
            for (elem, mark) in view.touched() {
                let contribution = if mark.is_written() {
                    Contribution {
                        slot: slot as u32,
                        elem,
                        is_write: true,
                        value: view.written_value(elem),
                    }
                } else if mark.is_reduction_only() {
                    Contribution {
                        slot: slot as u32,
                        elem,
                        is_write: false,
                        value: view.reduction_delta(elem),
                    }
                } else {
                    continue;
                };
                part.per_slot_contribs[slot] += 1;
                part.buckets[bucket_of(slot, elem, buckets)].push(contribution);
            }
        }
        part
    });

    // Pass 2: per-bucket fold in block order.
    let folded: Vec<Vec<(u32, usize, T, u32)>> = executor.run_indexed(buckets, |b| {
        // (slot, elem) -> (value so far, last contributing block).
        let mut final_vals: HashMap<(u32, usize), (T, usize), FxBuildHasher> = HashMap::default();
        for (pos, part) in parts.iter().enumerate() {
            for &Contribution {
                slot,
                elem,
                is_write,
                value,
            } in &part.buckets[b]
            {
                if is_write {
                    final_vals.insert((slot, elem), (value, pos));
                } else {
                    let op = reductions[slot as usize].expect("reduction mark without operator");
                    let base = final_vals
                        .get(&(slot, elem))
                        .map(|&(v, _)| v)
                        .unwrap_or_else(
                            // SAFETY: commit runs after the stage barrier;
                            // no concurrent writers of tested shared data.
                            || unsafe { shared[tested_ids[slot as usize]].get(elem) },
                        );
                    final_vals.insert((slot, elem), ((op.combine)(base, value), pos));
                }
            }
        }
        final_vals
            .into_iter()
            .map(|((slot, elem), (v, who))| (tested_ids[slot as usize] as u32, elem, v, who as u32))
            .collect()
    });

    // Pass 3: redistribute by last contributor.
    let mut stats = CommitStats::default();
    for part in &parts {
        for &c in &part.per_slot_contribs {
            stats.max_per_block = stats.max_per_block.max(c);
        }
    }
    let mut per_block: PerBlock<T> = vec![Vec::new(); num_pos];
    for bucket in folded {
        stats.elems_committed += bucket.len();
        for (array_id, elem, v, who) in bucket {
            per_block[who as usize].push((array_id, elem, v));
        }
    }

    (stats, per_block)
}

/// Same deterministic element-to-bucket hash the parallel analysis
/// uses.
#[inline]
fn bucket_of(slot: usize, elem: usize, buckets: usize) -> usize {
    let h = (elem ^ (slot << 56)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> 32) % buckets
}

/// Parallel write-back: each block writes the elements it owns (it was
/// the last contributor), so the sets are disjoint per element.
fn writeback<T: Value>(mut per_block: PerBlock<T>, shared: &[SharedBuf<T>], executor: &Executor) {
    executor.run_blocks(&mut per_block, |who, entries| {
        for &(array_id, elem, v) in entries.iter() {
            // SAFETY: ownership partition — element `elem` of this
            // array appears in exactly one block's work list.
            unsafe { shared[array_id as usize].set(elem, v, who as u32) };
        }
        entries.len() as f64
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ShadowKind;

    fn setup(init: Vec<f64>) -> SharedBuf<f64> {
        SharedBuf::new(init)
    }

    fn commit_one(
        views: Vec<ProcView<f64>>,
        red: Option<Reduction<f64>>,
        buf: &mut SharedBuf<f64>,
    ) -> CommitStats {
        buf.new_epoch();
        let wrapped: Vec<Vec<ProcView<f64>>> = views.into_iter().map(|v| vec![v]).collect();
        let refs: Vec<&[ProcView<f64>]> = wrapped.iter().map(|v| v.as_slice()).collect();
        let bufs = std::slice::from_ref(buf);
        let executor = Executor::new(rlrpd_runtime::ExecMode::Simulated);
        commit_tested(&refs, &[0], &[red], bufs, &executor)
    }

    #[test]
    fn parallel_writeback_matches_sequential() {
        // Same commit through both executors must yield identical state.
        for mode in [
            rlrpd_runtime::ExecMode::Simulated,
            rlrpd_runtime::ExecMode::Pooled,
        ] {
            let mut buf = SharedBuf::new(vec![0.0; 64]);
            buf.new_epoch();
            let mut views = Vec::new();
            for pos in 0..4usize {
                let mut v = ProcView::<f64>::new(64, ShadowKind::Dense, None);
                for e in (pos..64).step_by(3) {
                    v.write(e, (pos * 100 + e) as f64);
                }
                views.push(vec![v]);
            }
            let refs: Vec<&[ProcView<f64>]> = views.iter().map(|v| v.as_slice()).collect();
            let executor = Executor::new(mode);
            commit_tested(&refs, &[0], &[None], std::slice::from_ref(&buf), &executor);
            // Last writer wins per element: recompute expectation.
            let mut expect = vec![0.0; 64];
            for pos in 0..4usize {
                for e in (pos..64).step_by(3) {
                    expect[e] = (pos * 100 + e) as f64;
                }
            }
            assert_eq!(buf.as_slice(), &expect[..], "{mode:?}");
        }
    }

    #[test]
    fn last_value_wins_across_blocks() {
        let mut buf = setup(vec![0.0; 4]);
        let mut a = ProcView::new(4, ShadowKind::Dense, None);
        a.write(1, 10.0);
        let mut b = ProcView::new(4, ShadowKind::Dense, None);
        b.write(1, 20.0);
        let stats = commit_one(vec![a, b], None, &mut buf);
        assert_eq!(buf.as_slice()[1], 20.0);
        assert_eq!(stats.elems_committed, 1);
    }

    #[test]
    fn unwritten_elements_are_untouched() {
        let mut buf = setup(vec![7.0; 4]);
        let mut a = ProcView::new(4, ShadowKind::Dense, None);
        let _ = a.read(2, |_| 7.0); // exposed read only: nothing to commit
        let stats = commit_one(vec![a], None, &mut buf);
        assert_eq!(buf.as_slice(), &[7.0; 4]);
        assert_eq!(stats.elems_committed, 0);
    }

    #[test]
    fn reduction_deltas_fold_over_shared() {
        let mut buf = setup(vec![100.0; 2]);
        let op = Reduction::sum();
        let mut a = ProcView::new(2, ShadowKind::Dense, Some(op));
        a.reduce(0, 3.0, |_| 100.0);
        let mut b = ProcView::new(2, ShadowKind::Dense, Some(op));
        b.reduce(0, 4.0, |_| 100.0);
        commit_one(vec![a, b], Some(op), &mut buf);
        assert_eq!(buf.as_slice()[0], 107.0);
    }

    #[test]
    fn delta_applies_on_top_of_lower_block_write() {
        let mut buf = setup(vec![0.0; 2]);
        let op = Reduction::sum();
        let mut a = ProcView::new(2, ShadowKind::Dense, Some(op));
        a.write(0, 50.0);
        let mut b = ProcView::new(2, ShadowKind::Dense, Some(op));
        b.reduce(0, 4.0, |_| 0.0);
        commit_one(vec![a, b], Some(op), &mut buf);
        assert_eq!(
            buf.as_slice()[0],
            54.0,
            "delta composes over the committed write"
        );
    }

    #[test]
    fn sparse_views_commit_identically() {
        let mut buf = setup(vec![0.0; 8]);
        let mut a = ProcView::new(8, ShadowKind::Sparse, None);
        a.write(5, 1.5);
        commit_one(vec![a], None, &mut buf);
        assert_eq!(buf.as_slice()[5], 1.5);
    }

    #[test]
    fn max_per_block_tracks_critical_path() {
        let mut buf = setup(vec![0.0; 8]);
        let mut a = ProcView::new(8, ShadowKind::Dense, None);
        a.write(0, 1.0);
        a.write(1, 1.0);
        a.write(2, 1.0);
        let mut b = ProcView::new(8, ShadowKind::Dense, None);
        b.write(3, 1.0);
        let stats = commit_one(vec![a, b], None, &mut buf);
        assert_eq!(stats.max_per_block, 3);
        assert_eq!(stats.elems_committed, 4);
    }
}
