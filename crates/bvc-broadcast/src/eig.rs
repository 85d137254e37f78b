//! Exponential Information Gathering (EIG) Byzantine consensus core.
//!
//! Step 1 of the Exact BVC algorithm (Section 2.2 of the paper) uses a
//! "scalar Byzantine broadcast algorithm (such as [12, 6])" as a black box
//! with the two classical properties: all non-faulty processes decide the same
//! value, and if the sender is non-faulty they decide the sender's value.
//! This module implements the textbook construction behind those citations:
//! the EIG (a.k.a. `OM(f)`) protocol, correct for `n ≥ 3f + 1` in a
//! synchronous complete graph.  The broadcast wrapper (source sends, then
//! everybody runs consensus on what they received) is [`crate::broadcast`].
//!
//! **Layout.** [`EigTree`] is one flat arena, level after level: the node
//! labelled by the distinct ids `(l₀ … l_{k−1})` lives at `start[k] + rank`,
//! where `rank` is the mixed-radix number with digit `l_j − #{i < j : l_i <
//! l_j}` in base `n − j`, most significant first.  That is lexicographic
//! label order, so the `n − k` children of the level-`k` node of rank `p` are
//! the block `start[k + 1] + p·(n − k) ..`.  A slot holds a `u32` id into a
//! table of values interned by `PartialEq` (id 0 is the default), so the
//! bottom-up majority of [`EigTree::decide`] counts integers.  Interning scans
//! the table: `m` distinct values cost `O(m²)` comparisons (honest relays
//! carry a handful).
//!
//! **Wire format.** A round-`r` relay carries values only: position `i` is
//! the value of the sender's `i`-th level-`(r − 1)` node, in that order, whose
//! label omits the sender, and the receiver stores it at `label · sender`.
//! A sender therefore controls exactly the nodes `label · sender`.  A short
//! relay leaves the rest to [`EigTree::fill_defaults`], values past the end
//! are ignored, and the first write to a node wins.

/// Slot of a node no relay has written yet.
const UNSET: u32 = u32::MAX;
/// Id of the default value.
const DEFAULT: u32 = 0;

/// Per-process EIG tree for one Byzantine consensus instance over values of
/// type `V`, which are interned by comparison: no `Ord`/`Hash` is needed (the
/// consensus values in this workspace are vectors of `f64`).
#[derive(Debug, Clone)]
pub struct EigTree<V> {
    n: usize,
    f: usize,
    me: usize,
    /// `start[k]` is the first slot of level `k`; `start[f + 2]` is the length.
    start: Vec<usize>,
    /// Value id of every node, level after level; [`UNSET`] until written.
    slots: Vec<u32>,
    /// Interned values; `table[0]` is the default.
    table: Vec<V>,
}

impl<V: Clone + PartialEq> EigTree<V> {
    /// Creates the tree for a system of `n` processes tolerating `f` faults,
    /// as seen by process `me`, with `default` used for missing/garbled
    /// values.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 3f + 1`, `f ≥ 1` and `me < n`, or if the tree's
    /// `Σ n!/(n−k)!` nodes overflow `usize`.
    pub fn new(n: usize, f: usize, me: usize, default: V) -> Self {
        assert!(f >= 1, "EIG needs f >= 1 (use direct exchange for f = 0)");
        assert!(n > 3 * f, "EIG requires n >= 3f + 1 (n = {n}, f = {f})");
        assert!(me < n, "process index {me} out of range");
        let mut start: Vec<usize> = vec![0, 1];
        for k in 0..=f {
            let size = (start[k + 1] - start[k])
                .checked_mul(n - k)
                .and_then(|size| size.checked_add(start[k + 1]));
            start.push(size.expect("EIG tree too large to index"));
        }
        Self {
            n,
            f,
            me,
            slots: vec![UNSET; start[f + 2]],
            start,
            table: vec![default],
        }
    }

    /// Number of relay rounds the protocol needs: `f + 1`.
    pub fn rounds(&self) -> usize {
        self.f + 1
    }

    /// Sets this process's input (the value stored at the root).
    pub fn set_input(&mut self, value: V) {
        self.slots[0] = intern(&mut self.table, &value);
    }

    /// The values this process relays in round `round` (1-based): those of
    /// its level-`round − 1` nodes whose labels omit it, in wire order, with
    /// the default for a node never written.  The classical protocol has
    /// every process broadcast to itself too, so this also stores each value
    /// at the node `label · me` of this tree (unless already written).
    pub fn relay(&mut self, round: usize) -> Vec<V> {
        self.check_round(round);
        let (parents, children) = (self.start[round - 1], self.start[round]);
        let mut out = Vec::new();
        let (slots, table) = (&mut self.slots, &self.table);
        let mut send = |rank: usize, child: usize| {
            let id = written(slots[parents + rank]);
            out.push(table[id as usize].clone());
            if slots[children + child] == UNSET {
                slots[children + child] = id;
            }
        };
        walk_omitting(&mut vec![false; self.n], round - 1, self.me, 0, &mut send);
        out
    }

    /// Records the round-`round` relay received from `from`: position `i`
    /// of `values` goes to the node `label · from` of the `i`-th
    /// level-`round − 1` label omitting `from`, unless that node already
    /// holds a value.  Extra positions, and a sender out of range, are
    /// ignored.
    pub fn receive(&mut self, round: usize, from: usize, values: &[V]) {
        self.check_round(round);
        if from >= self.n {
            return;
        }
        let children = self.start[round];
        let (slots, table) = (&mut self.slots, &mut self.table);
        let mut values = values.iter();
        let mut store = |_, child: usize| match (values.next(), &mut slots[children + child]) {
            (Some(value), slot) if *slot == UNSET => *slot = intern(table, value),
            _ => {}
        };
        walk_omitting(&mut vec![false; self.n], round - 1, from, 0, &mut store);
    }

    /// Fills every still-missing node of level `round` with the default
    /// value.  Call at the end of round `round` so silent senders are treated
    /// as having sent the default, as the classical protocol prescribes.
    pub fn fill_defaults(&mut self, round: usize) {
        self.check_round(round);
        for slot in &mut self.slots[self.start[round]..self.start[round + 1]] {
            *slot = written(*slot);
        }
    }

    /// Resolves the tree bottom-up by strict majority and returns the
    /// decision value: a node takes the id held by more than half of its
    /// children, or the default if none is.  Call after all `f + 1` rounds
    /// have completed (and defaults have been filled).
    pub fn decide(&self) -> V {
        let leaves = self.rounds();
        let mut ids: Vec<u32> = self.slots[self.start[leaves]..]
            .iter()
            .map(|&id| written(id))
            .collect();
        // Level k's results overwrite the front of level k + 1's: result `p`
        // is written after block `p` (which starts at `p·(n − k) ≥ p`) is read.
        for k in (0..leaves).rev() {
            let width = self.n - k;
            for p in 0..self.start[k + 1] - self.start[k] {
                ids[p] = majority(&ids[p * width..(p + 1) * width]);
            }
        }
        self.table[ids[0] as usize].clone()
    }

    fn check_round(&self, round: usize) {
        assert!(
            round >= 1 && round <= self.rounds(),
            "round {round} out of range"
        );
    }
}

/// A slot's id, reading a node never written as the default.
fn written(id: u32) -> u32 {
    if id == UNSET {
        DEFAULT
    } else {
        id
    }
}

/// The id held by more than half of `ids`, or the default id.
fn majority(ids: &[u32]) -> u32 {
    let count = |c: &u32| ids.iter().filter(|&id| id == c).count();
    let winner = ids.iter().find(|c| 2 * count(c) > ids.len());
    winner.copied().unwrap_or(DEFAULT)
}

/// The id of `value` in `table`, appended if no known value equals it.
fn intern<V: Clone + PartialEq>(table: &mut Vec<V>, value: &V) -> u32 {
    let known = table.iter().position(|known| known == value);
    let id = known.unwrap_or_else(|| {
        table.push(value.clone());
        table.len() - 1
    });
    assert!(id < UNSET as usize, "value ids exhausted");
    id as u32
}

/// Visits, in lexicographic order, every extension to `level` ids of the
/// label whose ids `used` marks and whose rank is `rank`, skipping `sender`;
/// passes each label's rank and the rank of its child `label · sender`.
fn walk_omitting(
    used: &mut [bool],
    level: usize,
    sender: usize,
    rank: usize,
    visit: &mut impl FnMut(usize, usize),
) {
    let (n, depth) = (used.len(), used.iter().filter(|&&u| u).count());
    if depth == level {
        let below = used[..sender].iter().filter(|&&u| u).count();
        return visit(rank, rank * (n - level) + sender - below);
    }
    let mut digit = 0;
    for id in 0..n {
        if !used[id] && id != sender {
            used[id] = true;
            walk_omitting(used, level, sender, rank * (n - depth) + digit, visit);
            used[id] = false;
        }
        digit += usize::from(!used[id]);
    }
}

#[cfg(test)]
impl<V: Clone + PartialEq> EigTree<V> {
    /// The value stored at `label`, if the label is well formed (distinct
    /// ids below `n`, at most `f + 1` of them) and the node was written.
    pub(crate) fn value(&self, label: &[usize]) -> Option<&V> {
        if label.len() > self.rounds() {
            return None;
        }
        let mut rank = 0;
        for (j, &id) in label.iter().enumerate() {
            if id >= self.n || label[..j].contains(&id) {
                return None;
            }
            let below = label[..j].iter().filter(|&&l| l < id).count();
            rank = rank * (self.n - j) + id - below;
        }
        match self.slots[self.start[label.len()] + rank] {
            UNSET => None,
            id => Some(&self.table[id as usize]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const DEFAULT_VALUE: i64 = -1;

    /// Drives a full synchronous execution of one EIG consensus instance with
    /// the given inputs; `byzantine` processes send `garbage(round, from, to)`
    /// instead of honest relays (possibly different values to different
    /// receivers).  Returns the decisions of the honest processes.
    fn run_eig(
        n: usize,
        f: usize,
        inputs: &[i64],
        byzantine: &[usize],
        mut garbage: impl FnMut(usize, usize, usize) -> Vec<i64>,
    ) -> Vec<i64> {
        let mut trees: Vec<EigTree<i64>> = (0..n)
            .map(|i| {
                let mut t = EigTree::new(n, f, i, DEFAULT_VALUE);
                t.set_input(inputs[i]);
                t
            })
            .collect();
        for round in 1..=f + 1 {
            // Every relay applies its sender's own copies (self-delivery).
            let outgoing: Vec<Vec<i64>> = trees.iter_mut().map(|t| t.relay(round)).collect();
            for (to, tree) in trees.iter_mut().enumerate() {
                for (from, out) in outgoing.iter().enumerate() {
                    if from == to {
                        continue;
                    }
                    if byzantine.contains(&from) {
                        tree.receive(round, from, &garbage(round, from, to));
                    } else {
                        tree.receive(round, from, out);
                    }
                }
            }
            for tree in trees.iter_mut() {
                tree.fill_defaults(round);
            }
        }
        (0..n)
            .filter(|i| !byzantine.contains(i))
            .map(|i| trees[i].decide())
            .collect()
    }

    #[test]
    fn all_honest_processes_agree_with_no_faults_present() {
        let decisions = run_eig(4, 1, &[7, 7, 7, 7], &[], |_, _, _| Vec::new());
        assert!(decisions.iter().all(|&d| d == 7));
    }

    #[test]
    fn validity_holds_when_all_honest_inputs_equal() {
        // Byzantine process 3 sends nothing at all; honest inputs are all 5.
        let decisions = run_eig(4, 1, &[5, 5, 5, 99], &[3], |_, _, _| Vec::new());
        assert_eq!(decisions, vec![5, 5, 5]);
    }

    #[test]
    fn agreement_holds_under_equivocation() {
        // Byzantine process 0 relays different values to different receivers:
        // a per-receiver root value in round 1, and per-receiver values for
        // the nodes [1], [2], [3] in round 2.
        let decisions = run_eig(4, 1, &[10, 20, 30, 40], &[0], |round, _from, to| {
            let to = to as i64;
            if round == 1 {
                vec![1000 + to]
            } else {
                vec![2000 + to, 3000 + to, 4000 + to]
            }
        });
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn agreement_holds_with_two_faults_and_seven_processes() {
        // Each Byzantine relay is one value long: it sets the sender's first
        // node and leaves the rest to the defaults.
        let inputs = [1, 1, 1, 1, 1, 9, 9];
        let decisions = run_eig(7, 2, &inputs, &[5, 6], |round, from, to| {
            vec![(round * 100 + from * 10 + to) as i64]
        });
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
        // Honest inputs are all 1, so validity forces the decision to 1.
        assert_eq!(decisions[0], 1);
    }

    #[test]
    fn short_relay_leaves_the_missing_nodes_to_the_defaults() {
        let mut tree = EigTree::new(4, 1, 0, DEFAULT_VALUE);
        // Round 2 from sender 1 addresses [0], [2], [3] in that order; one
        // value reaches [0, 1] only.
        tree.receive(2, 1, &[5]);
        assert_eq!(tree.value(&[0, 1]), Some(&5));
        assert_eq!(tree.value(&[2, 1]), None);
        tree.fill_defaults(2);
        assert_eq!(tree.value(&[2, 1]), Some(&DEFAULT_VALUE));
        assert_eq!(tree.value(&[3, 1]), Some(&DEFAULT_VALUE));
    }

    #[test]
    fn long_relay_extra_values_are_ignored() {
        let mut tree = EigTree::new(4, 1, 0, DEFAULT_VALUE);
        // Round 1 addresses the root alone: only [2] is written.
        tree.receive(1, 2, &[5, 6, 7]);
        assert_eq!(tree.value(&[2]), Some(&5));
        for other in [[0], [1], [3]] {
            assert_eq!(tree.value(&other), None);
        }
        // A sender out of range addresses nothing.
        tree.receive(1, 9, &[8]);
        assert_eq!(tree.table, vec![DEFAULT_VALUE, 5]);
    }

    #[test]
    fn second_relay_from_a_sender_in_a_round_changes_nothing() {
        let mut tree = EigTree::new(4, 1, 0, DEFAULT_VALUE);
        tree.receive(2, 3, &[5, 5, 5]);
        tree.receive(2, 3, &[6, 6, 6]);
        for parent in 0..3 {
            assert_eq!(tree.value(&[parent, 3]), Some(&5));
        }
    }

    #[test]
    fn majority_needs_more_than_half() {
        assert_eq!(majority(&[1, 1, 2]), 1);
        assert_eq!(majority(&[2, 1, 2, 1, 2]), 2);
        assert_eq!(majority(&[1, 2, 3]), DEFAULT);
        assert_eq!(majority(&[2, 1, 2, 1]), DEFAULT);
        assert_eq!(majority(&[]), DEFAULT);
        assert_eq!(majority(&[4]), 4);
    }

    #[test]
    fn arena_holds_every_label_once() {
        // Σ 10!/(10−k)! for k ≤ 4: 1 + 10 + 90 + 720 + 5040.
        let tree = EigTree::new(10, 3, 0, 0i64);
        assert_eq!(tree.slots.len(), 5861);
        assert_eq!(tree.start, vec![0, 1, 11, 101, 821, 5861]);
    }

    #[test]
    fn rounds_is_f_plus_one() {
        let tree = EigTree::new(7, 2, 0, 0i64);
        assert_eq!(tree.rounds(), 3);
    }

    #[test]
    #[should_panic(expected = "n >= 3f + 1")]
    fn too_few_processes_panics() {
        let _ = EigTree::new(3, 1, 0, 0i64);
    }

    #[test]
    fn fill_defaults_populates_missing_level_nodes() {
        let mut tree = EigTree::new(4, 1, 0, -7i64);
        tree.fill_defaults(1);
        // Every level-1 node gets the default, [0] included.
        for label in [[0], [1], [2], [3]] {
            assert_eq!(tree.value(&label), Some(&-7));
        }
    }

    /// The tree as it was stored before the arena: values keyed by label,
    /// relays addressed by position in label order, resolved by recursive
    /// majority over cloned values.
    struct LabelMapTree {
        n: usize,
        f: usize,
        me: usize,
        values: HashMap<Vec<usize>, i64>,
    }

    impl LabelMapTree {
        fn labels(&self, level: usize) -> Vec<Vec<usize>> {
            let mut labels = vec![Vec::new()];
            for _ in 0..level {
                let longer = labels.iter().flat_map(|label: &Vec<usize>| {
                    let fresh = (0..self.n).filter(|p| !label.contains(p));
                    fresh.map(|p| [label.as_slice(), &[p]].concat())
                });
                labels = longer.collect();
            }
            labels
        }

        fn relay(&mut self, round: usize) -> Vec<i64> {
            let addressed = self.labels(round - 1).into_iter();
            let mine = addressed.filter(|label| !label.contains(&self.me));
            let out: Vec<i64> = mine
                .map(|label| self.values.get(&label).copied().unwrap_or(DEFAULT_VALUE))
                .collect();
            self.receive(round, self.me, &out);
            out
        }

        fn receive(&mut self, round: usize, from: usize, values: &[i64]) {
            let addressed = self.labels(round - 1).into_iter();
            let theirs = addressed.filter(|label| !label.contains(&from));
            for (label, &value) in theirs.zip(values) {
                self.values
                    .entry([label, vec![from]].concat())
                    .or_insert(value);
            }
        }

        fn fill_defaults(&mut self, round: usize) {
            for label in self.labels(round) {
                self.values.entry(label).or_insert(DEFAULT_VALUE);
            }
        }

        fn resolve(&self, label: &[usize]) -> i64 {
            if label.len() == self.f + 1 {
                return self.values.get(label).copied().unwrap_or(DEFAULT_VALUE);
            }
            let children: Vec<i64> = (0..self.n)
                .filter(|p| !label.contains(p))
                .map(|p| self.resolve(&[label, &[p]].concat()))
                .collect();
            let count = |c: &i64| children.iter().filter(|v| *v == c).count();
            let winner = children.iter().find(|c| 2 * count(c) > children.len());
            winner.copied().unwrap_or(DEFAULT_VALUE)
        }
    }

    /// splitmix64: a seeded stream for the differential loop.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A Byzantine relay of a round whose honest relay has `len` values:
    /// silent, short, long, or full length, each with values drawn per
    /// receiver (the default among them), so the sender equivocates.
    fn forged(rng: &mut u64, len: usize) -> Vec<i64> {
        let len = match next(rng) % 4 {
            0 => 0,
            1 => (next(rng) as usize) % len.max(1),
            2 => len + 1 + (next(rng) as usize) % 3,
            _ => len,
        };
        (0..len).map(|_| (next(rng) % 4) as i64 - 1).collect()
    }

    #[test]
    fn arena_decides_as_the_label_map_tree() {
        let mut rng = 39;
        for (n, f, runs) in [(4, 1, 40), (7, 2, 20), (10, 2, 8), (10, 3, 2)] {
            for _ in 0..runs {
                let mut byzantine: Vec<usize> = Vec::new();
                while byzantine.len() < f {
                    let id = (next(&mut rng) as usize) % n;
                    if !byzantine.contains(&id) {
                        byzantine.push(id);
                    }
                }
                let (mut trees, mut oracles): (Vec<_>, Vec<_>) = (0..n)
                    .map(|me| {
                        let input = (next(&mut rng) % 3) as i64;
                        let mut tree = EigTree::new(n, f, me, DEFAULT_VALUE);
                        tree.set_input(input);
                        let values = HashMap::from([(Vec::new(), input)]);
                        (tree, LabelMapTree { n, f, me, values })
                    })
                    .unzip();
                for round in 1..=f + 1 {
                    let honest: Vec<Vec<i64>> = trees
                        .iter_mut()
                        .zip(oracles.iter_mut())
                        .map(|(tree, oracle)| {
                            let relay = tree.relay(round);
                            assert_eq!(relay, oracle.relay(round), "n {n} f {f} round {round}");
                            relay
                        })
                        .collect();
                    for to in 0..n {
                        for from in (0..n).filter(|&from| from != to) {
                            let mut relays = vec![honest[from].clone()];
                            if byzantine.contains(&from) {
                                // Forged, and now and then sent twice.
                                let copies = 1 + usize::from(next(&mut rng).is_multiple_of(4));
                                let len = honest[from].len();
                                relays = (0..copies).map(|_| forged(&mut rng, len)).collect();
                            }
                            for relay in &relays {
                                trees[to].receive(round, from, relay);
                                oracles[to].receive(round, from, relay);
                            }
                        }
                    }
                    for (tree, oracle) in trees.iter_mut().zip(oracles.iter_mut()) {
                        tree.fill_defaults(round);
                        oracle.fill_defaults(round);
                    }
                }
                let decisions: Vec<i64> = (0..n)
                    .filter(|i| !byzantine.contains(i))
                    .map(|i| {
                        let decision = trees[i].decide();
                        assert_eq!(decision, oracles[i].resolve(&[]), "n {n} f {f} process {i}");
                        decision
                    })
                    .collect();
                assert!(decisions.windows(2).all(|w| w[0] == w[1]));
            }
        }
    }
}
