//! Data-structure support for the pruning tests (Section 3.6).
//!
//! Every time a new state is produced the search must (1) check whether an
//! active state covers it and (2) find the active states it covers.  Only
//! states with equal discrete components (automaton state, child
//! activation, closed flag) are ever comparable; within such a *group*
//! both queries reduce to subset/superset queries over the state's edge
//! signature (see [`edge_signature`]: the `=`-edges of its type), which
//! over-approximate the ≼ tests and cheaply filter the candidates before
//! the exact (max-flow based) comparison runs.
//!
//! The paper uses a Trie for superset queries and inverted lists for subset
//! queries; this implementation answers both kinds of queries from posting
//! lists (an inverted index from edges to states), which has the same
//! filtering power: a stored state is a *subset candidate* when all of its
//! edges occur in the query, and a *superset candidate* when it occurs in
//! the posting list of every query edge.
//!
//! [`CoverageIndex`] is the one structure behind every candidate query:
//! the search's covering and prune tests and the repeated-reachability
//! post-pass.  Its [`CandidateSource`], fixed at construction, decides how
//! far a query narrows the candidates — posting lists, the whole group, or
//! every id ever inserted.  Each source yields a sound superset of the
//! states the exact test accepts, in ascending id order, so a search finds
//! the same coverers in the same order whichever source it runs.
//!
//! The index has no interior mutability: queries take `&self`, so the
//! parallel plan phase of [`crate::search::KarpMillerSearch`] shares one
//! index across all its workers, and updates take `&mut self`, which only
//! the sequential apply phase holds.

use crate::coverage::discrete_key;
use crate::pit::Edge;
use crate::product::StateView;
use std::borrow::Cow;
use std::collections::HashMap;

/// Discrete part of a state; candidates are only comparable within the same
/// group.
type GroupKey = (usize, u64, bool);

/// How a [`CoverageIndex`] finds coverage candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateSource {
    /// Signature posting lists within the state's discrete group (the
    /// "data structure support" optimisation, DSS).
    Postings,
    /// Every live state of the state's discrete group.
    Group,
    /// Every id ever inserted, live or not: the pre-overhaul full linear
    /// scan, kept as a differential oracle and as the denominator of the
    /// `state_layout` benchmark.
    FullScan,
}

impl CandidateSource {
    /// The source selected by the `data_structure_support` and
    /// `reference_layout` flags of [`crate::verifier::VerifierOptions`].
    /// The index wins: the reference layout only takes effect with DSS
    /// off.
    pub fn resolve(data_structure_support: bool, reference_layout: bool) -> Self {
        match (data_structure_support, reference_layout) {
            (true, _) => CandidateSource::Postings,
            (false, false) => CandidateSource::Group,
            (false, true) => CandidateSource::FullScan,
        }
    }
}

/// The edge signature of a state: the `=`-edges of its partial isomorphism
/// type, ascending and duplicate-free (a closed type's edge list is).
///
/// This is the largest signature for which the subset/superset filters are
/// *sound* (they never drop a true coverage candidate), which the
/// repeated-reachability cycle detection depends on — a dropped candidate
/// there would be a missed edge and possibly a missed violation:
///
/// * every coverage order requires `covering.pit ⊑ covered.pit`, i.e. the
///   covering type's closed edge set is a subset of the covered one's, so
///   its `=`-edges are too;
/// * `≠`-edges are excluded for cost, not soundness: a canonically closed
///   type materialises a `≠`-edge against almost every constant of the
///   universe, so `≠`-postings degenerate to nearly the whole group and a
///   query over them costs more than the exact tests it filters;
/// * stored-type edges (of positive counters) are excluded for soundness:
///   a covering state may hold stored tuples the flow mapping leaves as
///   slack, whose types — and edges — appear nowhere in the covered state.
///
/// Because the filter is sound in both directions, a search run with the
/// index enabled is bit-identical to one without it.
pub fn edge_signature<'a>(state: StateView<'a>) -> impl Iterator<Item = Edge> + 'a {
    state.pit.edges().iter().copied().filter(|e| !e.is_neq())
}

/// The states of one discrete group.  Ids are inserted in ascending order,
/// so every list below stays ascending.
#[derive(Debug, Default)]
struct Group {
    /// Live ids.
    live: Vec<u32>,
    /// Posting lists: edge → live ids whose signature contains the edge
    /// ([`CandidateSource::Postings`] only).
    postings: HashMap<Edge, Vec<u32>>,
    /// Signature size per live id (postings only).
    sizes: HashMap<u32, usize>,
    /// Live ids with an empty signature (postings only).
    empty: Vec<u32>,
}

/// The suffix of an ascending id list from `from` on.
fn tail(ids: &[u32], from: u32) -> &[u32] {
    &ids[ids.partition_point(|&id| id < from)..]
}

/// Ordered delete from an ascending id list.
fn delete(ids: &mut Vec<u32>, id: u32) {
    if let Ok(pos) = ids.binary_search(&id) {
        ids.remove(pos);
    }
}

/// The coverage-candidate index over a set of states (the search's active
/// states, or the post-pass's final active set by position).
#[derive(Debug)]
pub struct CoverageIndex {
    source: CandidateSource,
    /// Every id ever inserted, ascending ([`CandidateSource::FullScan`]
    /// only).
    scan: Vec<u32>,
    /// The discrete groups (none under a full scan).
    groups: HashMap<GroupKey, Group>,
}

impl CoverageIndex {
    /// An empty index.
    pub fn new(source: CandidateSource) -> Self {
        CoverageIndex {
            source,
            scan: Vec::new(),
            groups: HashMap::new(),
        }
    }

    /// An index over a fixed set of states, inserted in ascending id
    /// order.
    pub fn over_states<'a, I>(source: CandidateSource, states: I) -> Self
    where
        I: IntoIterator<Item = (u32, StateView<'a>)>,
    {
        let mut index = CoverageIndex::new(source);
        for (id, state) in states {
            index.insert(id, state);
        }
        index
    }

    /// How this index finds candidates.
    pub fn source(&self) -> CandidateSource {
        self.source
    }

    /// Insert a state under an id larger than every id inserted so far.
    pub fn insert(&mut self, id: u32, state: StateView<'_>) {
        if self.source == CandidateSource::FullScan {
            self.scan.push(id);
            return;
        }
        let group = self.groups.entry(discrete_key(state)).or_default();
        group.live.push(id);
        if self.source == CandidateSource::Postings {
            let mut size = 0;
            for edge in edge_signature(state) {
                group.postings.entry(edge).or_default().push(id);
                size += 1;
            }
            if size == 0 {
                group.empty.push(id);
            }
            group.sizes.insert(id, size);
        }
    }

    /// Remove a live state (the same view it was inserted with).  A full
    /// scan keeps yielding the id; its callers filter on liveness.
    pub fn remove(&mut self, id: u32, state: StateView<'_>) {
        let Some(group) = self.groups.get_mut(&discrete_key(state)) else {
            return;
        };
        delete(&mut group.live, id);
        if self.source == CandidateSource::Postings {
            if group.sizes.remove(&id) == Some(0) {
                delete(&mut group.empty, id);
            }
            for edge in edge_signature(state) {
                if let Some(list) = group.postings.get_mut(&edge) {
                    delete(list, id);
                }
            }
        }
    }

    /// Number of live states sharing the state's discrete group (0 under
    /// a full scan, which keeps no groups).
    pub fn group_len(&self, state: StateView<'_>) -> usize {
        self.groups
            .get(&discrete_key(state))
            .map_or(0, |group| group.live.len())
    }

    /// Candidate ids ≥ `from` that may *cover* `state`, ascending.
    ///
    /// From posting lists, these are the group's states whose signature is
    /// a subset of the query's — the only ones less restrictive than it.
    /// A posting query costs the total length of the query edges' posting
    /// lists; when that exceeds `budget`, it answers with the whole group
    /// instead (the same over-approximation, coarser but cheaper to
    /// produce).
    pub fn covering(&self, state: StateView<'_>, from: u32, budget: usize) -> Cow<'_, [u32]> {
        if self.source == CandidateSource::FullScan {
            return Cow::Borrowed(tail(&self.scan, from));
        }
        let Some(group) = self.groups.get(&discrete_key(state)) else {
            return Cow::Borrowed(&[]);
        };
        if self.source == CandidateSource::Group {
            return Cow::Borrowed(tail(&group.live, from));
        }
        let lists: Vec<&[u32]> = edge_signature(state)
            .filter_map(|edge| group.postings.get(&edge).map(Vec::as_slice))
            .collect();
        if lists.iter().map(|list| list.len()).sum::<usize>() > budget {
            return Cow::Borrowed(tail(&group.live, from));
        }
        // A state is a subset candidate when every one of its signature
        // edges is a query edge: when it occurs in as many of the query's
        // posting lists as its signature has edges.
        let mut hits: Vec<u32> = lists
            .iter()
            .flat_map(|list| tail(list, from))
            .copied()
            .collect();
        hits.sort_unstable();
        let mut out = tail(&group.empty, from).to_vec();
        out.extend(
            hits.chunk_by(|a, b| a == b)
                .filter(|run| run.len() == group.sizes[&run[0]])
                .map(|run| run[0]),
        );
        out.sort_unstable();
        Cow::Owned(out)
    }

    /// Candidate ids ≥ `from` that `state` may cover, ascending.
    ///
    /// From posting lists, these are the group's states whose signature is
    /// a superset of the query's: the intersection of the query edges'
    /// posting lists.
    pub fn covered_by(&self, state: StateView<'_>, from: u32) -> Cow<'_, [u32]> {
        if self.source == CandidateSource::FullScan {
            return Cow::Borrowed(tail(&self.scan, from));
        }
        let none = Cow::Borrowed(&[][..]);
        let Some(group) = self.groups.get(&discrete_key(state)) else {
            return none;
        };
        let mut lists: Vec<&[u32]> = Vec::new();
        if self.source == CandidateSource::Postings {
            for edge in edge_signature(state) {
                match group.postings.get(&edge) {
                    Some(list) => lists.push(tail(list, from)),
                    None => return none,
                }
            }
        }
        // A group scan, like an empty signature (every signature is a
        // superset of it), yields the whole group.
        lists.sort_unstable_by_key(|list| list.len());
        let Some((shortest, rest)) = lists.split_first() else {
            return Cow::Borrowed(tail(&group.live, from));
        };
        Cow::Owned(
            shortest
                .iter()
                .copied()
                .filter(|id| rest.iter().all(|list| list.binary_search(id).is_ok()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ExprUniverse;
    use crate::pit::{Pit, PitBuilder};
    use crate::product::ProductState;
    use crate::psi::Psi;
    use std::collections::BTreeSet;
    use verifas_model::schema::attr::data;
    use verifas_model::{
        Condition, DataValue, DatabaseSchema, SpecBuilder, TaskBuilder, VarId, VarRef,
    };

    fn universe() -> ExprUniverse {
        let mut db = DatabaseSchema::new();
        db.add_relation("R", vec![data("a")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        root.data_var("x");
        root.data_var("y");
        root.service_parts("noop", Condition::True, Condition::True, vec![], None);
        let spec = SpecBuilder::new("idx", db, root.build()).build().unwrap();
        ExprUniverse::build(
            &spec,
            spec.root(),
            &[],
            &BTreeSet::from([DataValue::str("a"), DataValue::str("b")]),
        )
    }

    fn state_with(pit: Pit) -> ProductState {
        ProductState {
            psi: Psi::with_pit(pit),
            buchi: 0,
            closed: false,
        }
    }

    fn pit_eq(u: &ExprUniverse, var: u32, c: &str) -> Pit {
        let x = u.var_expr(VarRef::Task(VarId::new(var))).unwrap();
        let k = u.const_expr(&DataValue::str(c)).unwrap();
        let mut b = PitBuilder::new(u);
        b.assert_eq(x, k);
        b.finish().unwrap()
    }

    /// Ids 0, 1, 2: the empty type, `x = a`, and `x = a ∧ y = b`.
    fn chain(u: &ExprUniverse) -> [ProductState; 3] {
        [
            state_with(Pit::empty()),
            state_with(pit_eq(u, 0, "a")),
            state_with(pit_eq(u, 0, "a").conjoin(&pit_eq(u, 1, "b"), u).unwrap()),
        ]
    }

    fn indexed(source: CandidateSource, states: &[ProductState]) -> CoverageIndex {
        CoverageIndex::over_states(
            source,
            states.iter().enumerate().map(|(i, s)| (i as u32, s.view())),
        )
    }

    #[test]
    fn subset_and_superset_candidates() {
        let u = universe();
        let [empty, xa, both] = chain(&u);
        let index = indexed(
            CandidateSource::Postings,
            &[empty.clone(), xa.clone(), both.clone()],
        );
        let covering = |s: &ProductState| index.covering(s.view(), 0, usize::MAX).to_vec();
        let covered_by = |s: &ProductState| index.covered_by(s.view(), 0).to_vec();
        // Subset candidates of `both`: everything with signature ⊆ both.
        assert_eq!(covering(&both), vec![0, 1, 2]);
        // Subset candidates of `xa`: the empty state and itself.
        assert_eq!(covering(&xa), vec![0, 1]);
        // Superset candidates of `xa`: itself and `both`.
        assert_eq!(covered_by(&xa), vec![1, 2]);
        // Superset candidates of the empty state: all.
        assert_eq!(covered_by(&empty), vec![0, 1, 2]);
    }

    #[test]
    fn removed_states_disappear_from_queries() {
        let u = universe();
        let [empty, xa, _] = chain(&u);
        let mut index = CoverageIndex::new(CandidateSource::Postings);
        index.insert(0, xa.view());
        index.insert(1, empty.view());
        index.remove(0, xa.view());
        assert_eq!(index.covering(xa.view(), 0, usize::MAX).to_vec(), vec![1]);
        assert_eq!(index.covered_by(xa.view(), 0).len(), 0);
        assert_eq!(index.group_len(xa.view()), 1);
    }

    #[test]
    fn groups_partition_by_discrete_state() {
        let u = universe();
        let mut a = state_with(pit_eq(&u, 0, "a"));
        let index = indexed(CandidateSource::Postings, std::slice::from_ref(&a));
        a.buchi = 3;
        // Different automaton state: no candidates from the other group.
        assert_eq!(index.covering(a.view(), 0, usize::MAX).len(), 0);
        assert_eq!(index.covered_by(a.view(), 0).len(), 0);
        assert_eq!(index.group_len(a.view()), 0);
    }

    #[test]
    fn concurrent_queries_and_inserts_are_safe() {
        let u = universe();
        let mut index = CoverageIndex::new(CandidateSource::Postings);
        let states: Vec<ProductState> = (0..4)
            .map(|i| {
                let mut s = state_with(pit_eq(&u, 0, "a"));
                s.buchi = i;
                s
            })
            .collect();
        for (i, s) in states.iter().enumerate() {
            index.insert(i as u32, s.view());
        }
        // Inserts need `&mut`; the queries of a plan phase share `&index`.
        std::thread::scope(|scope| {
            for s in &states {
                let index = &index;
                scope.spawn(move || {
                    for _ in 0..50 {
                        let subs = index.covering(s.view(), 0, usize::MAX).to_vec();
                        assert_eq!(subs.len(), 1);
                        assert_eq!(index.covered_by(s.view(), 0).to_vec(), subs);
                    }
                });
            }
        });
    }

    /// Every source yields ascending ids ≥ `from`: posting lists narrow
    /// within the group (falling back to it when the budget is exceeded),
    /// the group spans one discrete key, and a full scan spans every id.
    #[test]
    fn sources_nest_and_respect_from_and_budget() {
        let u = universe();
        let mut states = chain(&u).to_vec();
        let mut other = state_with(Pit::empty());
        other.buchi = 1;
        states.push(other);
        let xa = states[1].clone();
        let query = |source: CandidateSource, from: u32, budget: usize| {
            let index = indexed(source, &states);
            (
                index.covering(xa.view(), from, budget).to_vec(),
                index.covered_by(xa.view(), from).to_vec(),
            )
        };
        assert_eq!(
            query(CandidateSource::Postings, 0, usize::MAX),
            (vec![0, 1], vec![1, 2])
        );
        assert_eq!(
            query(CandidateSource::Postings, 1, usize::MAX),
            (vec![1], vec![1, 2])
        );
        // `xa`'s one edge posts ids 1 and 2: a budget of 1 is exceeded.
        assert_eq!(query(CandidateSource::Postings, 0, 1).0, vec![0, 1, 2]);
        assert_eq!(
            query(CandidateSource::Group, 1, usize::MAX),
            (vec![1, 2], vec![1, 2])
        );
        assert_eq!(
            query(CandidateSource::FullScan, 2, usize::MAX),
            (vec![2, 3], vec![2, 3])
        );
    }

    #[test]
    fn the_index_wins_over_the_reference_layout() {
        use CandidateSource::*;
        assert_eq!(CandidateSource::resolve(true, false), Postings);
        assert_eq!(CandidateSource::resolve(true, true), Postings);
        assert_eq!(CandidateSource::resolve(false, false), Group);
        assert_eq!(CandidateSource::resolve(false, true), FullScan);
    }
}
