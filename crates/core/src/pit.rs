//! Partial isomorphism types (paper Definition 17).
//!
//! A partial isomorphism type is an undirected graph over the expression
//! universe whose edges are labelled `=` or `≠`, such that
//!
//! 1. the equivalence induced by the `=`-edges is closed under foreign-key
//!    navigation (if `e ∼ e'` and both `e.A` and `e'.A` exist, then
//!    `e.A ∼ e'.A`), and
//! 2. `≠`-edges are propagated to whole equivalence classes and never
//!    contradict the `=`-edges.
//!
//! [`Pit`] stores the *canonically closed* edge set (every implied pair is
//! materialised), which makes the implication test of Definition 22
//! (`τ ⊨ τ'` iff `τ' ⊆ τ`) a plain sorted-subset test and gives types a
//! canonical hashable form.  [`PitBuilder`] is the working representation: a
//! union-find plus disequality constraints with congruence closure and
//! consistency checking (conflicting constants, incompatible ID types,
//! `≠` inside a class).

use crate::expr::{ExprId, ExprSort, ExprUniverse};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use verifas_model::AttrId;

/// An edge of a partial isomorphism type: an (in)equality between two
/// expressions, encoded compactly for fast set operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge(u64);

impl Edge {
    /// An `=` edge (order of endpoints is irrelevant).
    pub fn eq(a: ExprId, b: ExprId) -> Edge {
        Edge::encode(a, b, false)
    }

    /// A `≠` edge (order of endpoints is irrelevant).
    pub fn neq(a: ExprId, b: ExprId) -> Edge {
        Edge::encode(a, b, true)
    }

    fn encode(a: ExprId, b: ExprId, neq: bool) -> Edge {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        Edge(((lo as u64) << 33) | ((hi as u64) << 1) | (neq as u64))
    }

    /// `true` iff this is a `≠` edge.
    pub fn is_neq(self) -> bool {
        self.0 & 1 == 1
    }

    /// The two endpoints (smaller id first).
    pub fn endpoints(self) -> (ExprId, ExprId) {
        (
            ((self.0 >> 33) & 0xFFFF_FFFF) as ExprId,
            ((self.0 >> 1) & 0xFFFF_FFFF) as ExprId,
        )
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (a, b) = self.endpoints();
        write!(f, "e{a} {} e{b}", if self.is_neq() { "≠" } else { "=" })
    }
}

/// A canonically closed, consistent partial isomorphism type.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pit {
    edges: Vec<Edge>,
}

impl Pit {
    /// The empty type (no constraints).
    pub fn empty() -> Pit {
        Pit::default()
    }

    /// The (sorted) closed edge set.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of edges of the closed representation.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `true` iff the type imposes no constraint.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Implication of Definition 22: `self ⊨ weaker` iff every edge of
    /// `weaker` is an edge of `self` (both are closed, so syntactic subset
    /// coincides with semantic implication).
    pub fn implies(&self, weaker: &Pit) -> bool {
        // Sorted-merge subset test.
        let mut i = 0;
        for edge in &weaker.edges {
            while i < self.edges.len() && self.edges[i] < *edge {
                i += 1;
            }
            if i >= self.edges.len() || self.edges[i] != *edge {
                return false;
            }
            i += 1;
        }
        true
    }

    /// `true` iff the edge belongs to the type.
    pub fn contains(&self, edge: Edge) -> bool {
        self.edges.binary_search(&edge).is_ok()
    }

    /// Projection: keep only the edges whose two endpoints satisfy the
    /// predicate (paper: "keeps only the expressions headed by variables in
    /// ȳ and their connections").  The result is still closed and
    /// consistent.
    pub fn project(&self, keep: impl Fn(ExprId) -> bool) -> Pit {
        Pit {
            edges: self
                .edges
                .iter()
                .copied()
                .filter(|e| {
                    let (a, b) = e.endpoints();
                    keep(a) && keep(b)
                })
                .collect(),
        }
    }

    /// Remove the given edges (used by the static-analysis optimisation of
    /// Section 3.7 to drop non-violating constraints).
    pub fn without_edges(mut self, remove: &HashSet<Edge>) -> Pit {
        if !remove.is_empty() {
            self.edges.retain(|e| !remove.contains(e));
        }
        self
    }

    /// Rename expressions through `map` (expressions without a mapping are
    /// dropped), re-closing and re-checking consistency.  Used when moving
    /// a tuple type between task variables and artifact-relation slots.
    pub fn rename(&self, universe: &ExprUniverse, map: &HashMap<ExprId, ExprId>) -> Option<Pit> {
        let mut builder = PitBuilder::new(universe);
        for edge in &self.edges {
            let (a, b) = edge.endpoints();
            let (Some(&a2), Some(&b2)) = (map.get(&a), map.get(&b)) else {
                continue;
            };
            if edge.is_neq() {
                builder.assert_neq(a2, b2);
            } else {
                builder.assert_eq(a2, b2);
            }
        }
        builder.finish()
    }

    /// Conjoin two types (union of constraints), re-closing; `None` when
    /// the conjunction is inconsistent.
    pub fn conjoin(&self, other: &Pit, universe: &ExprUniverse) -> Option<Pit> {
        let mut builder = PitBuilder::from_pit(universe, self);
        builder.merge_pit(other);
        builder.finish()
    }
}

/// Working representation of a partial isomorphism type under
/// construction: a union-find with congruence closure plus disequalities.
///
/// Every per-class field is a `Vec` indexed by expression id and read only
/// at class representatives.  A representative's navigation children are
/// an attribute-sorted list that starts as a borrow of the universe's own
/// [`Expr::children`](crate::expr::Expr::children) and is copied on its
/// first write, so [`PitBuilder::new`] copies no per-expression data and a
/// union walks only the dropped class's children.
pub struct PitBuilder<'u> {
    parent: Vec<u32>,
    /// Per-representative navigation children, sorted by attribute.
    children: Vec<Cow<'u, [(AttrId, ExprId)]>>,
    /// Per-representative "strong" sort (ignores `null`).
    sort: Vec<Option<ExprSort>>,
    /// Per-representative constant member (a `DataConst` or `Null` expr).
    constant: Vec<Option<ExprId>>,
    /// Asserted disequalities (by original expression ids).
    neqs: Vec<(ExprId, ExprId)>,
    inconsistent: bool,
}

impl<'u> PitBuilder<'u> {
    /// A builder with no constraints.
    pub fn new(universe: &'u ExprUniverse) -> Self {
        let n = universe.len();
        let mut b = PitBuilder {
            parent: (0..n as u32).collect(),
            children: Vec::with_capacity(n),
            sort: Vec::with_capacity(n),
            constant: Vec::with_capacity(n),
            neqs: Vec::new(),
            inconsistent: false,
        };
        for (id, expr) in universe.iter() {
            let constant = matches!(expr.sort, ExprSort::Null | ExprSort::DataConst);
            b.children.push(Cow::Borrowed(&expr.children[..]));
            b.sort
                .push((expr.sort != ExprSort::Null).then_some(expr.sort));
            b.constant.push(constant.then_some(id));
        }
        b
    }

    /// A builder pre-loaded with the constraints of an existing type.
    pub fn from_pit(universe: &'u ExprUniverse, pit: &Pit) -> Self {
        let mut b = PitBuilder::new(universe);
        b.merge_pit(pit);
        b
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Merge the sorts and constants of two classes; marks the builder
    /// inconsistent on a type clash.
    fn merge_sorts(&mut self, keep: usize, drop: usize) {
        match (self.sort[keep], self.sort[drop].take()) {
            (None, Some(s)) => self.sort[keep] = Some(s),
            (Some(a), Some(b)) if !sorts_compatible(a, b) => self.inconsistent = true,
            (Some(a), Some(b)) => self.sort[keep] = Some(merge_sort(a, b)),
            _ => {}
        }
        match (self.constant[keep], self.constant[drop].take()) {
            (None, Some(c)) => self.constant[keep] = Some(c),
            // Two distinct constant expressions (distinct constants, or
            // null vs a constant) in the same class.
            (Some(a), Some(b)) if a != b => self.inconsistent = true,
            _ => {}
        }
    }

    /// Assert `a = b`, with congruence closure.
    pub fn assert_eq(&mut self, a: ExprId, b: ExprId) {
        if self.inconsistent {
            return;
        }
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // Union by arbitrary orientation (keep ra).
        self.parent[rb as usize] = ra;
        self.merge_sorts(ra as usize, rb as usize);
        if self.inconsistent {
            return;
        }
        // Congruence: merge navigation children attribute-wise.
        let dropped = std::mem::take(&mut self.children[rb as usize]);
        for &(attr, child_b) in dropped.iter() {
            // The recursive merge below can union `ra`'s class under a
            // different root, so the surviving representative must be
            // re-resolved on every iteration.  Keying off the stale `ra`
            // would orphan child entries (and miss existing ones), leaving
            // the congruence closure incomplete in an order-dependent way.
            let keep = self.find(ra) as usize;
            match self.children[keep].binary_search_by_key(&attr, |&(a, _)| a) {
                Ok(i) => {
                    let child_a = self.children[keep][i].1;
                    self.assert_eq(child_a, child_b);
                }
                Err(i) => self.children[keep].to_mut().insert(i, (attr, child_b)),
            }
            if self.inconsistent {
                return;
            }
        }
    }

    /// Assert `a ≠ b`.
    pub fn assert_neq(&mut self, a: ExprId, b: ExprId) {
        if self.inconsistent {
            return;
        }
        self.neqs.push((a, b));
    }

    /// Add a single edge.
    pub fn assert_edge(&mut self, edge: Edge) {
        let (a, b) = edge.endpoints();
        if edge.is_neq() {
            self.assert_neq(a, b);
        } else {
            self.assert_eq(a, b);
        }
    }

    /// Add all the constraints of an existing type.
    pub fn merge_pit(&mut self, pit: &Pit) {
        for edge in pit.edges() {
            self.assert_edge(*edge);
        }
    }

    /// Finish: `None` if the accumulated constraints are inconsistent,
    /// otherwise the canonically closed type.
    pub fn finish(mut self) -> Option<Pit> {
        if self.inconsistent {
            return None;
        }
        // Point every expression straight at its representative.
        let n = self.parent.len();
        for x in 0..n as u32 {
            self.find(x);
        }
        let rep = &self.parent;
        // Disequalities must separate distinct classes.
        let mut neq_classes: Vec<(u32, u32)> = Vec::with_capacity(self.neqs.len());
        for &(a, b) in &self.neqs {
            let (ra, rb) = (rep[a as usize], rep[b as usize]);
            if ra == rb {
                return None;
            }
            neq_classes.push((ra.min(rb), ra.max(rb)));
        }
        neq_classes.sort_unstable();
        neq_classes.dedup();
        // Group expressions by representative with a counting sort: class
        // `r` is `members[start[r]..start[r + 1]]`, in ascending order.
        let mut start = vec![0u32; n + 1];
        for &r in rep {
            start[r as usize + 1] += 1;
        }
        for r in 0..n {
            start[r + 1] += start[r];
        }
        let mut next = start.clone();
        let mut members = vec![0 as ExprId; n];
        for (x, &r) in rep.iter().enumerate() {
            members[next[r as usize] as usize] = x as ExprId;
            next[r as usize] += 1;
        }
        let class = |r: u32| &members[start[r as usize] as usize..start[r as usize + 1] as usize];
        let mut edges: Vec<Edge> = Vec::new();
        for r in 0..n as u32 {
            let c = class(r);
            for (i, &a) in c.iter().enumerate() {
                edges.extend(c[i + 1..].iter().map(|&b| Edge::eq(a, b)));
            }
        }
        // Propagate each asserted disequality to the full classes.
        for &(ra, rb) in &neq_classes {
            for &a in class(ra) {
                edges.extend(class(rb).iter().map(|&b| Edge::neq(a, b)));
            }
        }
        // Distinct pairs of members and distinct pairs of classes give
        // distinct edges, so sorting alone canonicalises.
        edges.sort_unstable();
        Some(Pit { edges })
    }

    /// `true` if an inconsistency has already been detected (the final
    /// verdict still requires [`PitBuilder::finish`], which also checks the
    /// disequalities).
    pub fn is_inconsistent(&self) -> bool {
        self.inconsistent
    }
}

/// Can two class sorts co-exist in one equivalence class?
///
/// Expressions of different domains (an ID of relation `R` and a data
/// value, or IDs of two different relations) *can* still be equal when both
/// are `null`, so such merges are not rejected — rejecting them would make
/// the symbolic search unsound the other way (dropping reachable states).
/// The only impossible combination is an ID-sorted expression equal to a
/// *non-null data constant*, which can never be `null`.
fn sorts_compatible(a: ExprSort, b: ExprSort) -> bool {
    use ExprSort::*;
    !matches!((a, b), (Id(_), DataConst) | (DataConst, Id(_)))
}

fn merge_sort(a: ExprSort, b: ExprSort) -> ExprSort {
    use ExprSort::*;
    match (a, b) {
        (DataConst, _) | (_, DataConst) => DataConst,
        (Id(r), _) | (_, Id(r)) => Id(r),
        (Null, x) | (x, Null) => x,
        _ => Data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use verifas_model::schema::attr::{data, fk};
    use verifas_model::{
        Condition, DataValue, DatabaseSchema, HasSpec, SpecBuilder, TaskBuilder, Term, VarId,
        VarRef,
    };

    /// Schema R(ID, A) with variables x, y, z of type R.ID — the setting of
    /// Example 18 of the paper — plus two constants.
    fn example18() -> (HasSpec, ExprUniverse) {
        let mut db = DatabaseSchema::new();
        let r = db.add_relation("R", vec![data("A")]).unwrap();
        let mut root = TaskBuilder::new("Root");
        let x = root.id_var("x", r);
        root.id_var("y", r);
        root.id_var("z", r);
        root.service_parts(
            "noop",
            Condition::True,
            Condition::neq(Term::var(x), Term::Null),
            vec![],
            None,
        );
        let spec = SpecBuilder::new("ex18", db, root.build()).build().unwrap();
        let consts = BTreeSet::from([DataValue::str("c1"), DataValue::str("c2")]);
        let u = ExprUniverse::build(&spec, spec.root(), &[], &consts);
        (spec, u)
    }

    fn var(u: &ExprUniverse, i: u32) -> ExprId {
        u.var_expr(VarRef::Task(VarId::new(i))).unwrap()
    }

    fn attr_of(u: &ExprUniverse, v: ExprId) -> ExprId {
        u.navigate(v, AttrId::new(0)).unwrap()
    }

    /// Schema S(B), R(A, F → S) with variables x, y of type R.ID and one
    /// constant: ten expressions, navigation two levels deep, and classes
    /// with more than one child.
    fn two_level() -> (HasSpec, ExprUniverse) {
        let mut db = DatabaseSchema::new();
        let s = db.add_relation("S", vec![data("B")]).unwrap();
        let r = db.add_relation("R", vec![data("A"), fk("F", s)]).unwrap();
        let mut root = TaskBuilder::new("Root");
        root.id_var("x", r);
        root.id_var("y", r);
        root.service_parts("noop", Condition::True, Condition::True, vec![], None);
        let spec = SpecBuilder::new("two-level", db, root.build())
            .build()
            .unwrap();
        let consts = BTreeSet::from([DataValue::str("c")]);
        let u = ExprUniverse::build(&spec, spec.root(), &[], &consts);
        (spec, u)
    }

    /// The closed type of Definition 17 computed naively: grow the
    /// equivalence by transitivity and congruence to a fixpoint, check
    /// consistency, then read off every implied edge.
    fn naive_closure(u: &ExprUniverse, asserted: &[Edge]) -> Option<Pit> {
        let n = u.len();
        let mut eq = vec![vec![false; n]; n];
        for (x, row) in eq.iter_mut().enumerate() {
            row[x] = true;
        }
        for e in asserted.iter().filter(|e| !e.is_neq()) {
            let (a, b) = e.endpoints();
            eq[a as usize][b as usize] = true;
            eq[b as usize][a as usize] = true;
        }
        let mut changed = true;
        while changed {
            changed = false;
            for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
                if !eq[a][b] {
                    continue;
                }
                let mut implied: Vec<(usize, usize)> =
                    (0..n).filter(|&c| eq[b][c]).map(|c| (a, c)).collect();
                for &(attr, ca) in &u.expr(a as ExprId).children {
                    if let Some(cb) = u.navigate(b as ExprId, attr) {
                        implied.push((ca as usize, cb as usize));
                    }
                }
                for (p, q) in implied {
                    if !eq[p][q] {
                        (eq[p][q], eq[q][p], changed) = (true, true, true);
                    }
                }
            }
        }
        let sort = |x: usize| u.expr(x as ExprId).sort;
        let constant = |x: usize| matches!(sort(x), ExprSort::Null | ExprSort::DataConst);
        for (a, b) in (0..n).flat_map(|a| (0..n).map(move |b| (a, b))) {
            let clash = matches!((sort(a), sort(b)), (ExprSort::Id(_), ExprSort::DataConst));
            if eq[a][b] && (clash || (a != b && constant(a) && constant(b))) {
                return None;
            }
        }
        let mut edges = Vec::new();
        for e in asserted.iter().filter(|e| e.is_neq()) {
            let (a, b) = (e.endpoints().0 as usize, e.endpoints().1 as usize);
            if eq[a][b] {
                return None;
            }
            for (p, q) in (0..n).flat_map(|p| (0..n).map(move |q| (p, q))) {
                if eq[a][p] && eq[b][q] {
                    edges.push(Edge::neq(p as ExprId, q as ExprId));
                }
            }
        }
        for (a, b) in (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))) {
            if eq[a][b] {
                edges.push(Edge::eq(a as ExprId, b as ExprId));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        Some(Pit { edges })
    }

    #[test]
    fn builder_matches_the_naive_closure_in_every_order() {
        let (_spec, u) = two_level();
        let n = u.len() as ExprId;
        let edges: Vec<Edge> = (0..n)
            .flat_map(|a| (a + 1..n).flat_map(move |b| [Edge::eq(a, b), Edge::neq(a, b)]))
            .collect();
        const ORDERS: [&[&[usize]]; 4] = [
            &[&[]],
            &[&[0]],
            &[&[0, 1], &[1, 0]],
            &[
                &[0, 1, 2],
                &[0, 2, 1],
                &[1, 0, 2],
                &[1, 2, 0],
                &[2, 0, 1],
                &[2, 1, 0],
            ],
        ];
        let (mut closed, mut refused) = (0, 0);
        let mut check = |set: &[Edge]| {
            let expected = naive_closure(&u, set);
            match expected {
                Some(_) => closed += 1,
                None => refused += 1,
            }
            for order in ORDERS[set.len()] {
                let mut b = PitBuilder::new(&u);
                for &k in *order {
                    b.assert_edge(set[k]);
                }
                let got = b.finish();
                assert_eq!(got, expected, "edges {set:?} asserted in order {order:?}");
            }
        };
        check(&[]);
        for (i, &a) in edges.iter().enumerate() {
            check(&[a]);
            for (j, &b) in edges.iter().enumerate().skip(i + 1) {
                check(&[a, b]);
                for &c in &edges[j + 1..] {
                    check(&[a, b, c]);
                }
            }
        }
        // Both outcomes occur, so the comparison is not vacuous.
        assert!(closed > 0 && refused > 0);
    }

    #[test]
    fn edge_encoding_is_symmetric_and_typed() {
        assert_eq!(Edge::eq(3, 5), Edge::eq(5, 3));
        assert_ne!(Edge::eq(3, 5), Edge::neq(3, 5));
        assert_eq!(Edge::eq(3, 5).endpoints(), (3, 5));
        assert!(Edge::neq(1, 2).is_neq());
        assert!(!Edge::eq(1, 2).is_neq());
    }

    #[test]
    fn key_dependency_congruence_is_enforced() {
        // Example 18: x = y forces x.A = y.A.
        let (_spec, u) = example18();
        let (x, y) = (var(&u, 0), var(&u, 1));
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, y);
        let pit = b.finish().unwrap();
        assert!(pit.contains(Edge::eq(x, y)));
        assert!(pit.contains(Edge::eq(attr_of(&u, x), attr_of(&u, y))));
        // z remains unconstrained.
        let z = var(&u, 2);
        assert!(!pit.contains(Edge::eq(attr_of(&u, x), attr_of(&u, z))));
    }

    #[test]
    fn inconsistent_types_are_rejected() {
        let (_spec, u) = example18();
        let (x, y, z) = (var(&u, 0), var(&u, 1), var(&u, 2));
        // x = y, y = z, x ≠ z is inconsistent.
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, y);
        b.assert_eq(y, z);
        b.assert_neq(x, z);
        assert!(b.finish().is_none());
        // Distinct constants cannot be merged.
        let c1 = u.const_expr(&DataValue::str("c1")).unwrap();
        let c2 = u.const_expr(&DataValue::str("c2")).unwrap();
        let mut b = PitBuilder::new(&u);
        b.assert_eq(c1, c2);
        assert!(b.finish().is_none());
        // A constant cannot equal null.
        let mut b = PitBuilder::new(&u);
        b.assert_eq(c1, u.null_expr());
        assert!(b.finish().is_none());
        // An ID variable cannot equal a data constant.
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, c1);
        assert!(b.finish().is_none());
        // ...but x.A (data-sorted) can.
        let mut b = PitBuilder::new(&u);
        b.assert_eq(attr_of(&u, x), c1);
        assert!(b.finish().is_some());
    }

    #[test]
    fn implication_is_subset_of_closed_edges() {
        let (_spec, u) = example18();
        let (x, y, z) = (var(&u, 0), var(&u, 1), var(&u, 2));
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, y);
        b.assert_neq(y, z);
        let strong = b.finish().unwrap();
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, y);
        let weak = b.finish().unwrap();
        assert!(strong.implies(&weak));
        assert!(!weak.implies(&strong));
        assert!(strong.implies(&Pit::empty()));
        assert!(Pit::empty().implies(&Pit::empty()));
        // ≠ propagates to the whole classes: y ≠ z implies x ≠ z since x = y.
        assert!(strong.contains(Edge::neq(x, z)));
    }

    #[test]
    fn canonical_form_is_order_independent() {
        let (_spec, u) = example18();
        let (x, y, z) = (var(&u, 0), var(&u, 1), var(&u, 2));
        let mut b1 = PitBuilder::new(&u);
        b1.assert_eq(x, y);
        b1.assert_eq(y, z);
        let p1 = b1.finish().unwrap();
        let mut b2 = PitBuilder::new(&u);
        b2.assert_eq(z, x);
        b2.assert_eq(x, y);
        let p2 = b2.finish().unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn projection_keeps_only_selected_heads() {
        let (_spec, u) = example18();
        let (x, y, z) = (var(&u, 0), var(&u, 1), var(&u, 2));
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, y);
        b.assert_neq(x, z);
        let pit = b.finish().unwrap();
        // Keep only expressions headed by y and z (and constants/null).
        let keep: Vec<ExprId> = u.headed_by(|h| {
            matches!(h, crate::expr::ExprHead::Var(VarRef::Task(v)) if v.index() >= 1)
                || matches!(
                    h,
                    crate::expr::ExprHead::Null | crate::expr::ExprHead::Const(_)
                )
        });
        let keep_set: std::collections::HashSet<ExprId> = keep.into_iter().collect();
        let projected = pit.project(|e| keep_set.contains(&e));
        assert!(!projected.contains(Edge::eq(x, y)));
        assert!(!projected.contains(Edge::neq(x, z)));
        // The propagated disequality between the kept variables survives
        // (x = y and x ≠ z imply y ≠ z, and both y and z are kept).
        assert!(projected.contains(Edge::neq(y, z)));
        assert_eq!(projected.edge_count(), 1);
    }

    #[test]
    fn conjoin_detects_conflicts() {
        let (_spec, u) = example18();
        let (x, y) = (var(&u, 0), var(&u, 1));
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, y);
        let eq = b.finish().unwrap();
        let mut b = PitBuilder::new(&u);
        b.assert_neq(x, y);
        let neq = b.finish().unwrap();
        assert!(eq.conjoin(&neq, &u).is_none());
        let mut b = PitBuilder::new(&u);
        b.assert_neq(x, var(&u, 2));
        let other = b.finish().unwrap();
        let combined = eq.conjoin(&other, &u).unwrap();
        assert!(combined.contains(Edge::eq(x, y)));
        assert!(combined.contains(Edge::neq(y, var(&u, 2))));
    }

    #[test]
    fn rename_moves_constraints_between_heads() {
        let (_spec, u) = example18();
        let (x, y) = (var(&u, 0), var(&u, 1));
        let c1 = u.const_expr(&DataValue::str("c1")).unwrap();
        let mut b = PitBuilder::new(&u);
        b.assert_eq(attr_of(&u, x), c1);
        let pit = b.finish().unwrap();
        // Rename x -> y (and x.A -> y.A); keep constants fixed.
        let mut map = HashMap::new();
        map.insert(x, y);
        map.insert(attr_of(&u, x), attr_of(&u, y));
        map.insert(c1, c1);
        map.insert(u.null_expr(), u.null_expr());
        let renamed = pit.rename(&u, &map).unwrap();
        assert!(renamed.contains(Edge::eq(attr_of(&u, y), c1)));
        assert!(!renamed.contains(Edge::eq(attr_of(&u, x), c1)));
    }

    #[test]
    fn without_edges_removes_exact_edges() {
        let (_spec, u) = example18();
        let (x, y) = (var(&u, 0), var(&u, 1));
        let mut b = PitBuilder::new(&u);
        b.assert_eq(x, y);
        let pit = b.finish().unwrap();
        let mut remove = HashSet::new();
        remove.insert(Edge::eq(x, y));
        let cleaned = pit.without_edges(&remove);
        assert!(!cleaned.contains(Edge::eq(x, y)));
        // The congruence-derived edge survives.
        assert!(cleaned.contains(Edge::eq(attr_of(&u, x), attr_of(&u, y))));
    }
}
