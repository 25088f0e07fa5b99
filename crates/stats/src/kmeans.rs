//! Seeded 1-D k-means with silhouette-based `k` selection.
//!
//! Fig. 5 of the paper groups BRAMs by fault rate into vulnerability
//! classes; the inputs here are therefore one-dimensional (one rate per
//! BRAM). The implementation is the classic k-means++ seeding followed by
//! Lloyd iterations, with every tie broken by lowest index so the result
//! is a pure function of `(points, k, seed)`.

use std::collections::HashMap;
use uvf_fpga::seedmix::SplitMix64;

/// Upper bound on Lloyd iterations; 1-D runs converge in a handful.
const MAX_ITERATIONS: usize = 100;

/// A converged clustering. Clusters are relabeled by ascending centroid,
/// so cluster `0` is always the least-faulty group — stable, meaningful
/// ids independent of seeding order.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeans {
    pub k: usize,
    /// Cluster centers, ascending.
    pub centroids: Vec<f64>,
    /// Cluster id per input point.
    pub assignments: Vec<usize>,
    /// Points per cluster. A size can be `0` on degenerate inputs (fewer
    /// distinct values than `k`); the empty cluster keeps its seeded
    /// centroid.
    pub sizes: Vec<usize>,
    /// Sum of squared distances to the assigned centroid.
    pub inertia: f64,
    pub iterations: usize,
}

/// Deterministic k-means++ / Lloyd on 1-D data. `None` when `k == 0` or
/// there are fewer points than clusters.
#[must_use]
pub fn kmeans_1d(points: &[f64], k: usize, seed: u64) -> Option<KMeans> {
    if k == 0 || points.len() < k {
        return None;
    }
    let mut centroids = seed_plusplus(points, k, seed);
    let mut assignments = vec![0usize; points.len()];
    let mut iterations = 0;
    for iter in 1..=MAX_ITERATIONS {
        iterations = iter;
        let mut changed = false;
        for (i, &p) in points.iter().enumerate() {
            let c = nearest(&centroids, p);
            if assignments[i] != c {
                assignments[i] = c;
                changed = true;
            }
        }
        let mut sums = vec![0.0f64; k];
        let mut counts = vec![0usize; k];
        for (i, &p) in points.iter().enumerate() {
            sums[assignments[i]] += p;
            counts[assignments[i]] += 1;
        }
        for c in 0..k {
            // An empty cluster keeps its old centroid; with fewer distinct
            // values than clusters this is the stable fixpoint.
            if counts[c] > 0 {
                centroids[c] = sums[c] / counts[c] as f64;
            }
        }
        if !changed && iter > 1 {
            break;
        }
    }
    relabel(points, centroids, assignments, k, iterations)
}

/// k-means++ seeding: first center uniform, then each next center drawn
/// with probability proportional to squared distance from the chosen set.
fn seed_plusplus(points: &[f64], k: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    let n = points.len();
    let first = (rng.next_f64() * n as f64) as usize;
    let mut centroids = vec![points[first.min(n - 1)]];
    let mut d2: Vec<f64> = points.iter().map(|&p| sq(p - centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total > 0.0 {
            let mut r = rng.next_f64() * total;
            let mut chosen = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if r < w {
                    chosen = i;
                    break;
                }
                r -= w;
            }
            chosen
        } else {
            // All remaining mass sits on already-chosen values: any index
            // works, take the lowest for determinism.
            0
        };
        let c = points[next];
        centroids.push(c);
        for (i, &p) in points.iter().enumerate() {
            let d = sq(p - c);
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

fn sq(x: f64) -> f64 {
    x * x
}

/// Index of the nearest centroid; ties go to the lowest index.
fn nearest(centroids: &[f64], p: f64) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, &center) in centroids.iter().enumerate() {
        let d = sq(p - center);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// Sort clusters by ascending centroid (index tie-break) and remap ids.
fn relabel(
    points: &[f64],
    centroids: Vec<f64>,
    assignments: Vec<usize>,
    k: usize,
    iterations: usize,
) -> Option<KMeans> {
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| centroids[a].total_cmp(&centroids[b]).then(a.cmp(&b)));
    let mut remap = vec![0usize; k];
    for (new, &old) in order.iter().enumerate() {
        remap[old] = new;
    }
    let centroids: Vec<f64> = order.iter().map(|&old| centroids[old]).collect();
    let assignments: Vec<usize> = assignments.into_iter().map(|a| remap[a]).collect();
    let mut sizes = vec![0usize; k];
    let mut inertia = 0.0;
    for (i, &p) in points.iter().enumerate() {
        sizes[assignments[i]] += 1;
        inertia += sq(p - centroids[assignments[i]]);
    }
    Some(KMeans {
        k,
        centroids,
        assignments,
        sizes,
        inertia,
        iterations,
    })
}

/// Mean silhouette coefficient of a labeled 1-D clustering, in `[-1, 1]`.
/// Singleton-cluster points score `0` (Rousseeuw's convention), as does
/// everything when no second non-empty cluster exists.
///
/// Fig. 5's points (weak cells per BRAM) take few distinct values, so each
/// point's term is computed once per distinct `(value bits, own cluster)`
/// and reused: O(distinct · n) instead of O(n²). The reuse is exact for
/// finite points: two equal points see the same `|x_i − x_j|` for every
/// `j` except each other, where both see `+0.0`, and adding `+0.0` to a
/// non-negative sum changes no bit. The stored terms are summed in index
/// order, as a plain per-point loop would.
#[must_use]
pub fn silhouette_1d(points: &[f64], assignments: &[usize], k: usize) -> f64 {
    assert_eq!(points.len(), assignments.len());
    let n = points.len();
    if n == 0 || k < 2 {
        return 0.0;
    }
    let mut sizes = vec![0usize; k];
    for &a in assignments {
        sizes[a] += 1;
    }
    let mut terms: HashMap<(u64, usize), Option<f64>> = HashMap::new();
    let mut dist_sum = vec![0.0f64; k];
    let mut total = 0.0;
    for i in 0..n {
        let own = assignments[i];
        if sizes[own] <= 1 {
            continue; // s(i) = 0
        }
        let term = *terms.entry((points[i].to_bits(), own)).or_insert_with(|| {
            // Sum of |x_i - x_j| per cluster, one pass over the data.
            dist_sum.fill(0.0);
            for j in 0..n {
                if i != j {
                    dist_sum[assignments[j]] += (points[i] - points[j]).abs();
                }
            }
            silhouette_term(&dist_sum, &sizes, own)
        });
        if let Some(s) = term {
            total += s;
        }
    }
    total / n as f64
}

/// `s(i) = (b − a) / max(a, b)` from a point's per-cluster distance sums;
/// `None` where the point adds nothing (no other non-empty cluster, or
/// `a = b = 0`).
fn silhouette_term(dist_sum: &[f64], sizes: &[usize], own: usize) -> Option<f64> {
    let a = dist_sum[own] / (sizes[own] - 1) as f64;
    let mut b = f64::INFINITY;
    for (c, (&sum, &size)) in dist_sum.iter().zip(sizes).enumerate() {
        if c != own && size > 0 {
            b = b.min(sum / size as f64);
        }
    }
    let denom = a.max(b);
    (b.is_finite() && denom > 0.0).then(|| (b - a) / denom)
}

/// Outcome of a silhouette scan over candidate cluster counts.
#[derive(Debug, Clone, PartialEq)]
pub struct KSelection {
    /// Clustering at the winning `k`.
    pub best: KMeans,
    /// Its mean silhouette.
    pub silhouette: f64,
    /// Every candidate tried, as `(k, silhouette)` in ascending `k`.
    pub scores: Vec<(usize, f64)>,
}

/// Try `k = 2..=max_k` (capped at `points.len()`), score each converged
/// clustering by mean silhouette, and keep the best (smallest `k` on
/// ties). `None` when fewer than 3 points or `max_k < 2`.
#[must_use]
pub fn select_k(points: &[f64], max_k: usize, seed: u64) -> Option<KSelection> {
    if points.len() < 3 || max_k < 2 {
        return None;
    }
    let max_k = max_k.min(points.len());
    let mut best: Option<(KMeans, f64)> = None;
    let mut scores = Vec::new();
    for k in 2..=max_k {
        let Some(run) = kmeans_1d(points, k, seed) else {
            continue;
        };
        let s = silhouette_1d(points, &run.assignments, k);
        scores.push((k, s));
        let better = match &best {
            None => true,
            Some((_, best_s)) => s > *best_s,
        };
        if better {
            best = Some((run, s));
        }
    }
    best.map(|(best, silhouette)| KSelection {
        best,
        silhouette,
        scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_GROUPS: [f64; 6] = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2];

    /// Regression pin: the k-means++ draws must keep the exact stream the
    /// crate produced when it carried a private SplitMix64 copy. These
    /// words were captured from that implementation.
    #[test]
    fn seeding_stream_is_bit_identical_to_the_historical_private_impl() {
        let mut r = SplitMix64::new(7);
        assert_eq!(r.next_u64(), 0x63cb_e1e4_5932_0dd7);
        assert_eq!(r.next_u64(), 0x044c_3cd7_f43c_661c);
        assert_eq!(r.next_u64(), 0xe698_4080_bab1_2a02);
        assert_eq!(r.next_u64(), 0x953a_eb70_673e_29cb);
    }

    #[test]
    fn closed_form_two_groups() {
        let got = kmeans_1d(&TWO_GROUPS, 2, 1).unwrap();
        assert_eq!(got.assignments, [0, 0, 0, 1, 1, 1]);
        assert!((got.centroids[0] - 0.1).abs() < 1e-12);
        assert!((got.centroids[1] - 10.1).abs() < 1e-12);
        assert_eq!(got.sizes, [3, 3]);
        // Inertia: the four outer points sit 0.1 from their centroid.
        assert!((got.inertia - 4.0 * 0.01).abs() < 1e-9);
    }

    #[test]
    fn centroids_are_ascending_for_any_seed() {
        for seed in 0..20 {
            let got = kmeans_1d(&TWO_GROUPS, 2, seed).unwrap();
            assert!(got.centroids.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(got.assignments, [0, 0, 0, 1, 1, 1], "seed {seed}");
        }
    }

    #[test]
    fn reruns_are_bit_identical() {
        let points: Vec<f64> = (0..200)
            .map(|i| f64::from(i % 17) * 3.7 + f64::from(i % 5))
            .collect();
        let a = kmeans_1d(&points, 4, 99).unwrap();
        let b = kmeans_1d(&points, 4, 99).unwrap();
        assert_eq!(a, b);
        let bits = |r: &KMeans| -> Vec<u64> { r.centroids.iter().map(|c| c.to_bits()).collect() };
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn degenerate_inputs_are_total() {
        assert!(kmeans_1d(&[1.0, 2.0], 3, 0).is_none());
        assert!(kmeans_1d(&[1.0], 0, 0).is_none());
        // Fewer distinct values than clusters still converges.
        let same = [5.0; 8];
        let got = kmeans_1d(&same, 3, 7).unwrap();
        assert_eq!(got.sizes.iter().sum::<usize>(), 8);
        assert_eq!(got.inertia, 0.0);
    }

    #[test]
    fn silhouette_is_high_for_tight_separated_groups() {
        let run = kmeans_1d(&TWO_GROUPS, 2, 3).unwrap();
        let s = silhouette_1d(&TWO_GROUPS, &run.assignments, 2);
        assert!(s > 0.95, "silhouette {s}");
        // Splitting a tight group hurts the score.
        let run3 = kmeans_1d(&TWO_GROUPS, 3, 3).unwrap();
        let s3 = silhouette_1d(&TWO_GROUPS, &run3.assignments, 3);
        assert!(s3 < s, "s3 {s3} >= s2 {s}");
    }

    /// The textbook O(n²) silhouette: every point re-sums its distances.
    fn naive_silhouette(points: &[f64], assignments: &[usize], k: usize) -> f64 {
        let n = points.len();
        if n == 0 || k < 2 {
            return 0.0;
        }
        let mut sizes = vec![0usize; k];
        for &a in assignments {
            sizes[a] += 1;
        }
        let mut total = 0.0;
        for i in 0..n {
            let own = assignments[i];
            if sizes[own] <= 1 {
                continue;
            }
            let mut dist_sum = vec![0.0f64; k];
            for j in 0..n {
                if i != j {
                    dist_sum[assignments[j]] += (points[i] - points[j]).abs();
                }
            }
            let a = dist_sum[own] / (sizes[own] - 1) as f64;
            let mut b = f64::INFINITY;
            for c in 0..k {
                if c != own && sizes[c] > 0 {
                    b = b.min(dist_sum[c] / sizes[c] as f64);
                }
            }
            if b.is_finite() {
                let denom = a.max(b);
                if denom > 0.0 {
                    total += (b - a) / denom;
                }
            }
        }
        total / n as f64
    }

    #[test]
    fn silhouette_equals_the_quadratic_reference_bit_for_bit() {
        let mut rng = SplitMix64::new(33);
        let mut below = |n: u64| rng.next_u64() % n;
        let mut checked = 0;
        for trial in 0..300u64 {
            let n = 1 + below(80) as usize;
            let distinct = 1 + below(12);
            let points: Vec<f64> = (0..n)
                .map(|_| match below(distinct + 2) {
                    0 => 0.0,
                    1 => -0.0,
                    v => (v * v) as f64 * 0.37,
                })
                .collect();
            for k in 1..=6 {
                // Arbitrary labels, equal points split across clusters and
                // singleton or empty clusters included; then the k-means
                // labels of the same points.
                let random: Vec<usize> = (0..n).map(|_| below(k as u64) as usize).collect();
                let mut labelings = vec![random];
                labelings.extend(kmeans_1d(&points, k, trial).map(|r| r.assignments));
                for labels in &labelings {
                    let got = silhouette_1d(&points, labels, k);
                    let want = naive_silhouette(&points, labels, k);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "trial {trial} k {k}: {got} vs {want} on {points:?} / {labels:?}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 2_000, "{checked}");
        // Singleton clusters score zero and a lone cluster scores nothing.
        let points = [0.0, -0.0, 0.0, 5.0, 9.0];
        for labels in [[0, 0, 0, 1, 2], [0, 1, 0, 2, 2], [3, 3, 3, 3, 3]] {
            assert_eq!(
                silhouette_1d(&points, &labels, 4).to_bits(),
                naive_silhouette(&points, &labels, 4).to_bits()
            );
        }
    }

    #[test]
    fn select_k_recovers_the_generating_group_count() {
        let sel2 = select_k(&TWO_GROUPS, 6, 11).unwrap();
        assert_eq!(sel2.best.k, 2);
        let three: Vec<f64> = [0.0, 0.2, 5.0, 5.2, 11.0, 11.2, 0.1, 5.1, 11.1].to_vec();
        let sel3 = select_k(&three, 6, 11).unwrap();
        assert_eq!(sel3.best.k, 3);
        assert_eq!(sel3.scores.len(), 5, "k = 2..=6 all tried");
    }

    #[test]
    fn select_k_rejects_undersized_inputs() {
        assert!(select_k(&[1.0, 2.0], 4, 0).is_none());
        assert!(select_k(&TWO_GROUPS, 1, 0).is_none());
    }
}
