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
//! the block `start[k + 1] + p·(n − k) ..`.  Which slots a relay reads and
//! writes depends only on `(n, f)`, its level and its sender, so
//! [`ChildSlots`] lists them once — for each `(level, sender)` the
//! `(parent, child)` slot pairs in wire order — and every tree of a process
//! reads that one table through an `Arc`.  A slot holds a `u32` id into a
//! table of values interned by `PartialEq` (id 0 is the default), so the
//! bottom-up majority of [`EigTree::decide`] counts integers.  Interning scans
//! the table, once per dictionary entry a relay uses (not once per
//! position): with `m` distinct values a relay of `u` used entries costs
//! `O(u·m)` comparisons, and honest relays carry a handful.
//!
//! **Wire format.** A round-`r` relay ([`Relay`]) carries its distinct values
//! once, in a dictionary, and one `u32` per position: position `i` names the
//! dictionary entry holding the value of the sender's `i`-th level-`(r − 1)`
//! node, in that order, whose label omits the sender, and the receiver
//! stores it at `label · sender`.  A sender therefore controls exactly the
//! nodes `label · sender`.  A short relay leaves the rest to
//! [`EigTree::fill_defaults`], positions past the end are ignored, an id past
//! the dictionary ends the relay as a short one does, and the first write to
//! a node wins.

use std::sync::Arc;

/// Slot of a node no relay has written yet.
const UNSET: u32 = u32::MAX;
/// Id of the default value.
const DEFAULT: u32 = 0;

/// The slots every EIG tree of an `(n, f)` system reads and writes when it
/// relays or receives: for each level `k ≤ f` and sender `s`, the pairs
/// `(parent, child)` of arena slots of the level-`k` labels omitting `s`
/// and their children `label · s`, in wire order.
#[derive(Debug)]
pub struct ChildSlots {
    n: usize,
    f: usize,
    /// `start[k]` is the first slot of level `k`; `start[f + 2]` is the length.
    start: Vec<usize>,
    /// Sender `s`'s level-`k` pairs are `pairs[offsets[k·n + s]..offsets[k·n + s + 1]]`.
    offsets: Vec<usize>,
    pairs: Vec<(usize, usize)>,
}

impl ChildSlots {
    /// The table of a system of `n` processes tolerating `f` faults.
    ///
    /// # Panics
    ///
    /// Panics unless `n ≥ 3f + 1` and `f ≥ 1`, or if the tree's
    /// `Σ n!/(n−k)!` nodes overflow `usize`.
    pub fn new(n: usize, f: usize) -> Self {
        assert!(f >= 1, "EIG needs f >= 1 (use direct exchange for f = 0)");
        assert!(n > 3 * f, "EIG requires n >= 3f + 1 (n = {n}, f = {f})");
        let mut start: Vec<usize> = vec![0, 1];
        for k in 0..=f {
            let size = (start[k + 1] - start[k])
                .checked_mul(n - k)
                .and_then(|size| size.checked_add(start[k + 1]));
            start.push(size.expect("EIG tree too large to index"));
        }
        let (mut offsets, mut pairs) = (vec![0], Vec::new());
        for level in 0..=f {
            for sender in 0..n {
                let (parents, children) = (start[level], start[level + 1]);
                walk_omitting(&mut vec![false; n], 0, level, sender, 0, &mut |p, c| {
                    pairs.push((parents + p, children + c));
                });
                offsets.push(pairs.len());
            }
        }
        Self {
            n,
            f,
            start,
            offsets,
            pairs,
        }
    }

    /// Number of processes `n`.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// The `(parent, child)` slot pairs a level-`level` relay from `sender`
    /// addresses, in wire order.
    fn of(&self, level: usize, sender: usize) -> &[(usize, usize)] {
        let at = level * self.n + sender;
        &self.pairs[self.offsets[at]..self.offsets[at + 1]]
    }
}

/// One EIG relay as it travels: the values it carries, each once, and one
/// dictionary index per position (see the module's wire format).
#[derive(Debug, Clone, PartialEq)]
pub struct Relay<V> {
    /// The values the positions name.
    pub dictionary: Vec<V>,
    /// Position `i`'s index into `dictionary`; an index past its end ends
    /// the relay.
    pub ids: Vec<u32>,
}

impl<V> Relay<V> {
    /// A relay of `len` positions that all read `value`.
    pub fn filled(value: V, len: usize) -> Self {
        Self {
            dictionary: vec![value],
            ids: vec![0; len],
        }
    }

    /// The value of each position, in order, up to the first id past the
    /// dictionary.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        let entry = |&id: &u32| self.dictionary.get(id as usize);
        self.ids.iter().map_while(entry)
    }
}

/// Per-process EIG tree for one Byzantine consensus instance over values of
/// type `V`, which are interned by comparison: no `Ord`/`Hash` is needed (the
/// consensus values in this workspace are vectors of `f64`).
#[derive(Debug, Clone)]
pub struct EigTree<V> {
    shape: Arc<ChildSlots>,
    me: usize,
    /// Value id of every node, level after level; [`UNSET`] until written.
    slots: Vec<u32>,
    /// Interned values; `table[0]` is the default.
    table: Vec<V>,
    /// Scratch of one relay or receive: value id → dictionary index, or
    /// dictionary index → value id; [`UNSET`] where not yet assigned.
    remap: Vec<u32>,
}

impl<V: Clone + PartialEq> EigTree<V> {
    /// Creates the tree of process `me` on `shape`'s system, with `default`
    /// used for missing/garbled values.
    ///
    /// # Panics
    ///
    /// Panics unless `me < n`.
    pub fn new(shape: Arc<ChildSlots>, me: usize, default: V) -> Self {
        assert!(me < shape.n, "process index {me} out of range");
        Self {
            slots: vec![UNSET; shape.start[shape.f + 2]],
            shape,
            me,
            table: vec![default],
            remap: Vec::new(),
        }
    }

    /// Number of relay rounds the protocol needs: `f + 1`.
    pub fn rounds(&self) -> usize {
        self.shape.f + 1
    }

    /// Sets this process's input (the value stored at the root).
    pub fn set_input(&mut self, value: V) {
        self.slots[0] = intern(&mut self.table, &value);
    }

    /// The relay this process sends in round `round` (1-based): the values
    /// of its level-`round − 1` nodes whose labels omit it, in wire order,
    /// with the default for a node never written.  The classical protocol has
    /// every process broadcast to itself too, so this also stores each value
    /// at the node `label · me` of this tree (unless already written).
    pub fn relay(&mut self, round: usize) -> Relay<V> {
        self.check_round(round);
        let pairs = self.shape.of(round - 1, self.me);
        let mut relay = Relay {
            dictionary: Vec::new(),
            ids: Vec::with_capacity(pairs.len()),
        };
        self.remap.clear();
        self.remap.resize(self.table.len(), UNSET);
        for &(parent, child) in pairs {
            let id = written(self.slots[parent]);
            let entry = &mut self.remap[id as usize];
            if *entry == UNSET {
                *entry = relay.dictionary.len() as u32;
                relay.dictionary.push(self.table[id as usize].clone());
            }
            relay.ids.push(*entry);
            if self.slots[child] == UNSET {
                self.slots[child] = id;
            }
        }
        relay
    }

    /// Records the round-`round` relay received from `from`: position `i`
    /// goes to the node `label · from` of the `i`-th level-`round − 1` label
    /// omitting `from`, unless that node already holds a value.  Extra
    /// positions, and a sender out of range, are ignored; an id past the
    /// dictionary ends the relay.
    pub fn receive(&mut self, round: usize, from: usize, relay: &Relay<V>) {
        self.check_round(round);
        if from >= self.shape.n {
            return;
        }
        self.remap.clear();
        self.remap.resize(relay.dictionary.len(), UNSET);
        let positions = relay.ids.iter().zip(relay.values());
        for (&(_, child), (&entry, value)) in self.shape.of(round - 1, from).iter().zip(positions) {
            if self.slots[child] == UNSET {
                let id = &mut self.remap[entry as usize];
                if *id == UNSET {
                    *id = intern(&mut self.table, value);
                }
                self.slots[child] = *id;
            }
        }
    }

    /// Fills every still-missing node of level `round` with the default
    /// value.  Call at the end of round `round` so silent senders are treated
    /// as having sent the default, as the classical protocol prescribes.
    pub fn fill_defaults(&mut self, round: usize) {
        self.check_round(round);
        let start = &self.shape.start;
        for slot in &mut self.slots[start[round]..start[round + 1]] {
            *slot = written(*slot);
        }
    }

    /// Resolves the tree bottom-up by strict majority and returns the
    /// decision value: a node takes the id held by more than half of its
    /// children, or the default if none is.  Call after all `f + 1` rounds
    /// have completed (and defaults have been filled).
    pub fn decide(&self) -> V {
        let (leaves, start) = (self.rounds(), &self.shape.start);
        let mut ids: Vec<u32> = self.slots[start[leaves]..]
            .iter()
            .map(|&id| written(id))
            .collect();
        // Level k's results overwrite the front of level k + 1's: result `p`
        // is written after block `p` (which starts at `p·(n − k) ≥ p`) is read.
        for k in (0..leaves).rev() {
            let width = self.shape.n - k;
            for p in 0..start[k + 1] - start[k] {
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
/// label of `depth` ids that `used` marks and whose rank is `rank`, skipping
/// `sender`; passes each label's rank and the rank of its child
/// `label · sender`.  Only [`ChildSlots::new`] walks: trees read its table.
fn walk_omitting(
    used: &mut [bool],
    depth: usize,
    level: usize,
    sender: usize,
    rank: usize,
    visit: &mut impl FnMut(usize, usize),
) {
    let n = used.len();
    if depth == level {
        let below = used[..sender].iter().filter(|&&u| u).count();
        return visit(rank, rank * (n - level) + sender - below);
    }
    let mut digit = 0;
    for id in 0..n {
        if !used[id] && id != sender {
            used[id] = true;
            let child = rank * (n - depth) + digit;
            walk_omitting(used, depth + 1, level, sender, child, visit);
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
        let (n, mut rank) = (self.shape.n, 0);
        for (j, &id) in label.iter().enumerate() {
            if id >= n || label[..j].contains(&id) {
                return None;
            }
            let below = label[..j].iter().filter(|&&l| l < id).count();
            rank = rank * (n - j) + id - below;
        }
        match self.slots[self.shape.start[label.len()] + rank] {
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

    fn tree(n: usize, f: usize, me: usize, default: i64) -> EigTree<i64> {
        EigTree::new(Arc::new(ChildSlots::new(n, f)), me, default)
    }

    /// A relay whose dictionary is `values` itself, position `i` naming
    /// entry `i`.
    fn positional(values: &[i64]) -> Relay<i64> {
        Relay {
            dictionary: values.to_vec(),
            ids: (0..values.len() as u32).collect(),
        }
    }

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
        let shape = Arc::new(ChildSlots::new(n, f));
        let mut trees: Vec<EigTree<i64>> = (0..n)
            .map(|i| {
                let mut t = EigTree::new(Arc::clone(&shape), i, DEFAULT_VALUE);
                t.set_input(inputs[i]);
                t
            })
            .collect();
        for round in 1..=f + 1 {
            // Every relay applies its sender's own copies (self-delivery).
            let outgoing: Vec<Relay<i64>> = trees.iter_mut().map(|t| t.relay(round)).collect();
            for (to, tree) in trees.iter_mut().enumerate() {
                for (from, out) in outgoing.iter().enumerate() {
                    if from == to {
                        continue;
                    }
                    if byzantine.contains(&from) {
                        tree.receive(round, from, &positional(&garbage(round, from, to)));
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
        let mut tree = tree(4, 1, 0, DEFAULT_VALUE);
        // Round 2 from sender 1 addresses [0], [2], [3] in that order; one
        // value reaches [0, 1] only.
        tree.receive(2, 1, &positional(&[5]));
        assert_eq!(tree.value(&[0, 1]), Some(&5));
        assert_eq!(tree.value(&[2, 1]), None);
        tree.fill_defaults(2);
        assert_eq!(tree.value(&[2, 1]), Some(&DEFAULT_VALUE));
        assert_eq!(tree.value(&[3, 1]), Some(&DEFAULT_VALUE));
    }

    #[test]
    fn an_id_past_the_dictionary_ends_the_relay() {
        let mut tree = tree(4, 1, 0, DEFAULT_VALUE);
        // Round 2 from sender 1 addresses [0], [2], [3]; the second id names
        // no entry, so the third position is not read either.
        let relay = Relay {
            dictionary: vec![5],
            ids: vec![0, 1, 0],
        };
        assert_eq!(relay.values().collect::<Vec<_>>(), [&5]);
        tree.receive(2, 1, &relay);
        assert_eq!(tree.value(&[0, 1]), Some(&5));
        assert_eq!(tree.value(&[2, 1]), None);
        assert_eq!(tree.value(&[3, 1]), None);
    }

    #[test]
    fn long_relay_extra_values_are_ignored() {
        let mut tree = tree(4, 1, 0, DEFAULT_VALUE);
        // Round 1 addresses the root alone: only [2] is written, and only
        // the entry it names is interned.
        tree.receive(1, 2, &positional(&[5, 6, 7]));
        assert_eq!(tree.value(&[2]), Some(&5));
        for other in [[0], [1], [3]] {
            assert_eq!(tree.value(&other), None);
        }
        // A sender out of range addresses nothing.
        tree.receive(1, 9, &positional(&[8]));
        assert_eq!(tree.table, vec![DEFAULT_VALUE, 5]);
    }

    #[test]
    fn second_relay_from_a_sender_in_a_round_changes_nothing() {
        let mut tree = tree(4, 1, 0, DEFAULT_VALUE);
        tree.receive(2, 3, &Relay::filled(5, 3));
        tree.receive(2, 3, &Relay::filled(6, 3));
        for parent in 0..3 {
            assert_eq!(tree.value(&[parent, 3]), Some(&5));
        }
        // The second relay wrote nothing, so it interned nothing.
        assert_eq!(tree.table, vec![DEFAULT_VALUE, 5]);
    }

    #[test]
    fn a_relay_names_each_value_once() {
        let mut tree = tree(4, 1, 2, DEFAULT_VALUE);
        tree.set_input(8);
        assert_eq!(tree.relay(1), Relay::filled(8, 1));
        // Round 2 reads [0], [1], [3]: [0] and [3] were written, [1] reads
        // as the default.
        tree.receive(1, 0, &positional(&[4]));
        tree.receive(1, 3, &positional(&[4]));
        let relay = tree.relay(2);
        assert_eq!(relay.dictionary, vec![4, DEFAULT_VALUE]);
        assert_eq!(relay.ids, vec![0, 1, 0]);
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
        let tree = tree(10, 3, 0, 0);
        assert_eq!(tree.slots.len(), 5861);
        assert_eq!(tree.shape.start, vec![0, 1, 11, 101, 821, 5861]);
    }

    #[test]
    fn child_slots_follow_the_walk_order() {
        for (n, f) in [(4, 1), (7, 2), (10, 2), (10, 3)] {
            let shape = ChildSlots::new(n, f);
            let start = &shape.start;
            for level in 0..=f {
                let mut written = vec![0; start[level + 2] - start[level + 1]];
                for sender in 0..n {
                    let mut walked = Vec::new();
                    walk_omitting(&mut vec![false; n], 0, level, sender, 0, &mut |p, c| {
                        walked.push((start[level] + p, start[level + 1] + c));
                    });
                    assert_eq!(shape.of(level, sender), walked, "n {n} f {f} level {level}");
                    for &(_, child) in &walked {
                        written[child - start[level + 1]] += 1;
                    }
                }
                // Each child label ends in one sender: the senders' pairs
                // write every slot of the level once.
                assert!(written.iter().all(|&w| w == 1), "n {n} f {f} level {level}");
            }
        }
    }

    #[test]
    fn rounds_is_f_plus_one() {
        let tree = tree(7, 2, 0, 0);
        assert_eq!(tree.rounds(), 3);
    }

    #[test]
    #[should_panic(expected = "n >= 3f + 1")]
    fn too_few_processes_panics() {
        let _ = ChildSlots::new(3, 1);
    }

    #[test]
    fn fill_defaults_populates_missing_level_nodes() {
        let mut tree = tree(4, 1, 0, -7);
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

    /// A Byzantine relay of a round whose honest relay has `len` positions:
    /// silent, short, long, or full length, over a dictionary of up to four
    /// entries drawn per receiver (the default among them, duplicates and
    /// unused entries allowed), so the sender equivocates.  Now and then an
    /// id points past the dictionary, which ends the relay.
    fn forged(rng: &mut u64, len: usize) -> Relay<i64> {
        let len = match next(rng) % 4 {
            0 => 0,
            1 => (next(rng) as usize) % len.max(1),
            2 => len + 1 + (next(rng) as usize) % 3,
            _ => len,
        };
        let entries = (next(rng) % 5) as u32;
        let dictionary = (0..entries).map(|_| (next(rng) % 4) as i64 - 1).collect();
        let ids = (0..len)
            .map(|_| match next(rng) % 64 {
                0 => entries + (next(rng) % 2) as u32,
                draw => (draw as u32) % entries.max(1),
            })
            .collect();
        Relay { dictionary, ids }
    }

    #[test]
    fn arena_decides_as_the_label_map_tree() {
        let mut rng = 39;
        for (n, f, runs) in [(4, 1, 40), (7, 2, 20), (10, 2, 8), (10, 3, 2)] {
            let shape = Arc::new(ChildSlots::new(n, f));
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
                        let mut tree = EigTree::new(Arc::clone(&shape), me, DEFAULT_VALUE);
                        tree.set_input(input);
                        let values = HashMap::from([(Vec::new(), input)]);
                        (tree, LabelMapTree { n, f, me, values })
                    })
                    .unzip();
                for round in 1..=f + 1 {
                    let honest: Vec<Relay<i64>> = trees
                        .iter_mut()
                        .zip(oracles.iter_mut())
                        .map(|(tree, oracle)| {
                            let relay = tree.relay(round);
                            // Expanded to its positions, the relay is the
                            // oracle's, and it names each value once.
                            let expanded: Vec<i64> = relay.values().copied().collect();
                            assert_eq!(expanded, oracle.relay(round), "n {n} f {f} round {round}");
                            assert_eq!(relay.ids.len(), expanded.len());
                            let entries = &relay.dictionary;
                            for (i, entry) in entries.iter().enumerate() {
                                assert!(!entries[..i].contains(entry), "n {n} f {f}");
                                assert!(relay.ids.contains(&(i as u32)), "n {n} f {f}");
                            }
                            relay
                        })
                        .collect();
                    for to in 0..n {
                        for from in (0..n).filter(|&from| from != to) {
                            let mut relays = vec![honest[from].clone()];
                            if byzantine.contains(&from) {
                                // Forged, and now and then sent twice.
                                let copies = 1 + usize::from(next(&mut rng).is_multiple_of(4));
                                let len = honest[from].ids.len();
                                relays = (0..copies).map(|_| forged(&mut rng, len)).collect();
                            }
                            for relay in &relays {
                                trees[to].receive(round, from, relay);
                                let expanded: Vec<i64> = relay.values().copied().collect();
                                oracles[to].receive(round, from, &expanded);
                            }
                        }
                    }
                    for (tree, oracle) in trees.iter_mut().zip(oracles.iter_mut()) {
                        tree.fill_defaults(round);
                        oracle.fill_defaults(round);
                        for label in oracle.labels(round) {
                            assert_eq!(tree.value(&label), oracle.values.get(&label));
                        }
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
