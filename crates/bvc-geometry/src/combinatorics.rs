//! Small combinatorial helpers: combinations, partitions into a fixed number
//! of non-empty blocks, and binomial coefficients.
//!
//! These back the enumeration of the subsets `T ⊆ Y, |T| = |Y| − f` in the
//! safe-area operator `Γ` (equation (1)) and the brute-force search for
//! Tverberg partitions (Theorem 2).

/// All `k`-element subsets of `{0, 1, …, n-1}` in lexicographic order.
///
/// Returns an empty list when `k > n`; returns the single empty subset when
/// `k == 0`.  Callers that do not need every subset at once should prefer the
/// streaming [`Combinations`] iterator, which yields the same sequence
/// without materialising it.
pub fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    let mut result = Vec::with_capacity(binomial(n, k).min(1 << 20) as usize);
    let mut iter = Combinations::new(n, k);
    while let Some(current) = iter.next_ref() {
        result.push(current.to_vec());
    }
    result
}

/// A streaming enumerator of the `k`-element subsets of `{0, …, n-1}` in
/// lexicographic order — the subset stream behind the lazy safe-area
/// operator, which must *not* materialise all `C(n, k)` index lists (or their
/// hulls) up front.
///
/// Yields nothing when `k > n` or `k == 0` (the materialising
/// [`combinations`] keeps its historical "single empty subset" behaviour for
/// `k == 0`).
#[derive(Debug, Clone)]
pub struct Combinations {
    n: usize,
    k: usize,
    current: Vec<usize>,
    started: bool,
    done: bool,
}

impl Combinations {
    /// Creates the enumerator of `k`-subsets of `{0, …, n-1}`.
    pub fn new(n: usize, k: usize) -> Self {
        Self {
            n,
            k,
            current: (0..k).collect(),
            started: false,
            done: k > n || k == 0,
        }
    }

    /// Advances to the next combination and returns it as a borrowed slice
    /// (allocation-free; the slice is invalidated by the next call).
    pub fn next_ref(&mut self) -> Option<&[usize]> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(&self.current);
        }
        // Advance to the next combination in lexicographic order.
        let (n, k) = (self.n, self.k);
        let mut i = k;
        loop {
            if i == 0 {
                self.done = true;
                return None;
            }
            i -= 1;
            if self.current[i] != i + n - k {
                break;
            }
            if i == 0 {
                self.done = true;
                return None;
            }
        }
        self.current[i] += 1;
        for j in i + 1..k {
            self.current[j] = self.current[j - 1] + 1;
        }
        Some(&self.current)
    }
}

impl Iterator for Combinations {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        self.next_ref().map(|s| s.to_vec())
    }
}

/// The binomial coefficient `C(n, k)` computed in `u128` to avoid overflow for
/// the parameter ranges the protocols run at, saturating at `u128::MAX`.
pub fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        result = result.saturating_mul((n - i) as u128) / (i as u128 + 1);
    }
    result
}

/// All partitions of `{0, …, n-1}` into exactly `blocks` non-empty unordered
/// blocks.  Each partition is a `Vec` of blocks, each block a sorted `Vec` of
/// indices; the blocks are ordered by their smallest element, which
/// canonicalises the unordered partition.
///
/// The number of such partitions is the Stirling number of the second kind
/// `S(n, blocks)`; callers are expected to keep `n` small (the Tverberg
/// brute-force search only runs on the multisets of size `(d+1)f + 1` that the
/// tests use).
pub fn partitions_into_blocks(n: usize, blocks: usize) -> Vec<Vec<Vec<usize>>> {
    if blocks == 0 || blocks > n {
        return Vec::new();
    }
    let mut result = Vec::new();
    // assignment[i] = block index of element i; canonical form requires that
    // element 0 is in block 0 and each new block index is introduced in order.
    let mut assignment = vec![0usize; n];
    fn recurse(
        i: usize,
        used_blocks: usize,
        n: usize,
        blocks: usize,
        assignment: &mut Vec<usize>,
        result: &mut Vec<Vec<Vec<usize>>>,
    ) {
        if i == n {
            if used_blocks == blocks {
                let mut parts = vec![Vec::new(); blocks];
                for (elem, &b) in assignment.iter().enumerate() {
                    parts[b].push(elem);
                }
                result.push(parts);
            }
            return;
        }
        // Not enough remaining elements to populate the blocks still unopened.
        if blocks - used_blocks > n - i {
            return;
        }
        for b in 0..used_blocks.min(blocks) {
            assignment[i] = b;
            recurse(i + 1, used_blocks, n, blocks, assignment, result);
        }
        if used_blocks < blocks {
            assignment[i] = used_blocks;
            recurse(i + 1, used_blocks + 1, n, blocks, assignment, result);
        }
    }
    recurse(0, 0, n, blocks, &mut assignment, &mut result);
    result
}

/// The Stirling number of the second kind `S(n, k)`: the number of ways to
/// partition an `n`-element set into `k` non-empty blocks.  Saturates at
/// `u128::MAX`.
pub fn stirling_second(n: usize, k: usize) -> u128 {
    if k == 0 {
        return u128::from(n == 0);
    }
    if k > n {
        return 0;
    }
    // Dynamic programming: S(n, k) = k*S(n-1, k) + S(n-1, k-1).
    let mut row = vec![0u128; k + 1];
    row[0] = 1; // S(0, 0)
    for i in 1..=n {
        let mut next = vec![0u128; k + 1];
        for j in 1..=k.min(i) {
            next[j] = (j as u128)
                .saturating_mul(row[j])
                .saturating_add(row[j - 1]);
        }
        row = next;
        row[0] = 0;
    }
    row[k]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinations_basic_counts() {
        assert_eq!(combinations(4, 2).len(), 6);
        assert_eq!(combinations(5, 5).len(), 1);
        assert_eq!(combinations(5, 0), vec![Vec::<usize>::new()]);
        assert_eq!(combinations(3, 4).len(), 0);
    }

    #[test]
    fn combinations_are_lexicographic_and_distinct() {
        let combos = combinations(5, 3);
        assert_eq!(combos.first().unwrap(), &vec![0, 1, 2]);
        assert_eq!(combos.last().unwrap(), &vec![2, 3, 4]);
        let mut sorted = combos.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), combos.len());
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(7, 2), 21);
        assert_eq!(binomial(10, 5), 252);
        assert_eq!(binomial(4, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(20, 10), 184_756);
        assert_eq!(binomial(30, 15), 155_117_520);
    }

    #[test]
    fn streaming_combinations_match_materialised() {
        for n in 0..=8 {
            for k in 1..=n {
                let streamed: Vec<Vec<usize>> = Combinations::new(n, k).collect();
                assert_eq!(streamed, combinations(n, k), "n={n}, k={k}");
            }
        }
        assert_eq!(Combinations::new(3, 5).count(), 0);
        assert_eq!(Combinations::new(4, 0).count(), 0);
    }

    #[test]
    fn next_ref_streams_without_allocating_new_lists() {
        let mut iter = Combinations::new(4, 2);
        let mut seen = Vec::new();
        while let Some(s) = iter.next_ref() {
            seen.push(s.to_vec());
        }
        assert_eq!(seen.len(), 6);
        assert_eq!(seen.first().unwrap(), &vec![0, 1]);
        assert_eq!(seen.last().unwrap(), &vec![2, 3]);
        // Exhausted iterators stay exhausted.
        assert!(iter.next_ref().is_none());
    }

    #[test]
    fn combination_count_matches_binomial() {
        for n in 1..=8 {
            for k in 1..=n {
                assert_eq!(combinations(n, k).len() as u128, binomial(n, k));
            }
        }
    }

    #[test]
    fn partitions_counts_match_stirling() {
        for n in 1..=7 {
            for k in 1..=n {
                assert_eq!(
                    partitions_into_blocks(n, k).len() as u128,
                    stirling_second(n, k),
                    "S({n},{k})"
                );
            }
        }
    }

    #[test]
    fn stirling_known_values() {
        assert_eq!(stirling_second(7, 3), 301);
        assert_eq!(stirling_second(5, 2), 15);
        assert_eq!(stirling_second(4, 4), 1);
        assert_eq!(stirling_second(0, 0), 1);
        assert_eq!(stirling_second(3, 5), 0);
    }

    #[test]
    fn partitions_blocks_are_nonempty_and_cover() {
        for partition in partitions_into_blocks(6, 3) {
            assert_eq!(partition.len(), 3);
            let mut all: Vec<usize> = partition.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3, 4, 5]);
            assert!(partition.iter().all(|b| !b.is_empty()));
        }
    }

    #[test]
    fn partitions_degenerate_cases() {
        assert!(partitions_into_blocks(3, 0).is_empty());
        assert!(partitions_into_blocks(2, 3).is_empty());
        assert_eq!(partitions_into_blocks(3, 1).len(), 1);
        assert_eq!(partitions_into_blocks(3, 3).len(), 1);
    }
}
