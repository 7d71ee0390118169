//! Theorem 1: the duplicate bound μ(η) of the X-shuffle.
//!
//! After the η butterfly shuffles of Algorithm 3 over a bundle of `2^η`
//! threads, the number of *distinct surviving messages of the same object*
//! is bounded by μ(η) — a small constant (2, 4, 8, 16 for bundles of 16, 32,
//! 64, 128 threads). The bound determines how many times each thread must
//! attempt the final write into the intermediate table 𝒯, so it directly
//! sets the kernel's cost.
//!
//! This module implements the paper's λ/μ formulas. Its tests hold the
//! reference they are checked against: the underlying *cover* relation
//! (Definition 2 / Lemma 1) and, for small bundles, an exact brute-force
//! computation of the largest *exclusive set* (a set of threads that
//! pairwise do not cover each other), which is the true worst case the
//! formula upper-bounds.

/// `λ(η, i) = i·C(η+1, 2) − Σ_{j=1}^{i} (14−j)(j−1)/2 + i` (Theorem 1).
pub fn lambda(eta: u32, i: u32) -> i64 {
    let pairs = (eta as i64 * (eta as i64 + 1)) / 2; // C(η+1, 2)
    let mut correction = 0i64;
    for j in 1..=i as i64 {
        correction += (14 - j) * (j - 1) / 2;
    }
    i as i64 * pairs - correction + i as i64
}

/// μ(η): the paper's bound on surviving duplicates for a `2^η` bundle.
///
/// Defined by Theorem 1 for η > 3; for small bundles (η ≤ 3) the theorem
/// does not apply and the trivially safe bound `2^η` is returned.
pub fn mu(eta: u32) -> u32 {
    assert!((1..=32).contains(&eta));
    if eta <= 3 {
        return 1 << eta;
    }
    let total = 1i64 << eta;
    // Theorem 1, read as intended: exclusive sets have at most 8 members
    // (Lemma 5), so if some i ≤ 8 already covers the whole bundle
    // (λ(η, i) ≥ 2^η) the bound is the smallest such i; otherwise a full
    // 8-member set leaves 2^η − λ(η, 8) threads uncovered, each of which
    // may contribute one more survivor. (The paper states the first case's
    // guard as λ(η, 8) ≥ 2^η, which only matches its own example values —
    // μ(4..7) = 2, 4, 8, 16 — under this reading, because λ is not
    // monotone in i for η < 6.)
    if let Some(i) = (1..=8).find(|&i| lambda(eta, i) >= total) {
        i
    } else {
        (total - lambda(eta, 8) + 8) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of maximal runs of `1`s in the binary representation of `x` — the
    /// paper's *x-distance* `𝒳(α, β)` applied to `x = α ⊕ β` (Definition 2).
    fn order_of_sequence(mut x: u64) -> u32 {
        let mut runs = 0;
        while x != 0 {
            // Skip to the start of the next run and strip it.
            x >>= x.trailing_zeros();
            x >>= x.trailing_ones();
            runs += 1;
        }
        runs
    }

    /// The x-distance between two thread indexes.
    fn x_distance(alpha: u64, beta: u64) -> u32 {
        order_of_sequence(alpha ^ beta)
    }

    /// Whether thread `alpha` covers thread `beta` in a `2^η` bundle (Lemma 1:
    /// exactly when their xor is a single run of ones).
    fn covers(alpha: u64, beta: u64) -> bool {
        alpha != beta && x_distance(alpha, beta) == 1
    }

    /// Exact size of the largest exclusive set in a `2^η` bundle, by exhaustive
    /// search. Only feasible for η ≤ 4 (16 threads); used to validate that the
    /// closed-form μ(η) really is an upper bound.
    fn max_exclusive_set_brute(eta: u32) -> u32 {
        assert!(eta <= 4, "brute force only for small bundles");
        let n = 1usize << eta;
        // adjacency[i] bit j set ⇔ i and j cover each other (cannot coexist).
        let mut conflict = vec![0u32; n];
        for (a, row) in conflict.iter_mut().enumerate() {
            for b in 0..n {
                if a != b && covers(a as u64, b as u64) {
                    *row |= 1 << b;
                }
            }
        }
        fn dfs(next: usize, chosen_conflicts: u32, count: u32, conflict: &[u32], best: &mut u32) {
            let n = conflict.len();
            if count + (n - next) as u32 <= *best {
                return; // cannot beat best
            }
            if next == n {
                *best = (*best).max(count);
                return;
            }
            // Take `next` if it conflicts with nothing chosen.
            if chosen_conflicts & (1 << next) == 0 {
                dfs(
                    next + 1,
                    chosen_conflicts | conflict[next],
                    count + 1,
                    conflict,
                    best,
                );
            }
            dfs(next + 1, chosen_conflicts, count, conflict, best);
            *best = (*best).max(count);
        }
        let mut best = 0;
        dfs(0, 0, 0, &conflict, &mut best);
        best
    }

    #[test]
    fn order_counts_runs() {
        assert_eq!(order_of_sequence(0), 0);
        assert_eq!(order_of_sequence(0b1), 1);
        assert_eq!(order_of_sequence(0b1110), 1);
        assert_eq!(order_of_sequence(0b1011), 2); // paper's order-2 example
        assert_eq!(order_of_sequence(0b101_0101), 4);
    }

    #[test]
    fn paper_x_distance_example() {
        // Definition 2: 𝒳(10, 1) = 2 because 01010 ⊕ 00001 = 01011.
        assert_eq!(x_distance(10, 1), 2);
    }

    #[test]
    fn covers_iff_single_run() {
        assert!(covers(0b0000, 0b0110)); // xor = 0110, one run
        assert!(!covers(0b0001, 0b0100)); // xor = 0101, two runs
        assert!(!covers(5, 5)); // never covers itself
    }

    #[test]
    fn paper_mu_values() {
        // §IV-D: bundles of 16, 32, 64, 128 threads → μ = 2, 4, 8, 16.
        assert_eq!(mu(4), 2);
        assert_eq!(mu(5), 4);
        assert_eq!(mu(6), 8);
        assert_eq!(mu(7), 16);
    }

    #[test]
    fn mu_small_bundles_safe() {
        assert_eq!(mu(1), 2);
        assert_eq!(mu(2), 4);
        assert_eq!(mu(3), 8);
    }

    #[test]
    fn lambda_monotone_in_i_for_wide_bundles() {
        // The per-member increment C(η+1,2) − 6k + C(k,2) is positive for
        // every k ≤ 7 once η ≥ 6, so λ grows monotonically there.
        for eta in 6..=10 {
            for i in 1..8 {
                assert!(lambda(eta, i + 1) > lambda(eta, i));
            }
        }
    }

    #[test]
    fn cover_set_size_matches_lemma2() {
        // Lemma 2: |C(α)| = C(η+1, 2) for every thread α.
        for eta in [3u32, 4] {
            let n = 1u64 << eta;
            let expected = (eta * (eta + 1) / 2) as usize;
            for alpha in 0..n {
                let size = (0..n).filter(|&b| covers(alpha, b)).count();
                assert_eq!(size, expected, "eta={eta} alpha={alpha}");
            }
        }
    }

    #[test]
    fn pairwise_intersection_matches_lemma3() {
        // Lemma 3: threads at x-distance 2 share exactly 6 covered threads;
        // x-distance > 2 share none. (η > 3.)
        let eta = 4u32;
        let n = 1u64 << eta;
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let shared = (0..n).filter(|&c| covers(a, c) && covers(b, c)).count();
                match x_distance(a, b) {
                    2 => assert_eq!(shared, 6, "a={a} b={b}"),
                    d if d > 2 => assert_eq!(shared, 0, "a={a} b={b}"),
                    _ => {} // x-distance 1: not constrained by the lemma
                }
            }
        }
    }

    #[test]
    fn brute_force_exclusive_set_within_mu() {
        // The exact worst case never exceeds the closed-form bound.
        assert!(max_exclusive_set_brute(4) <= mu(4));
        assert!(max_exclusive_set_brute(3) <= mu(3));
        assert!(max_exclusive_set_brute(2) <= mu(2));
    }
}
