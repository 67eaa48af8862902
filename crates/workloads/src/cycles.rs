//! Cycle-heavy exhausted-search workloads for the repeated-reachability
//! post-pass.
//!
//! The benchmark scenarios of `ci_bench` historically measured the
//! Karp–Miller search itself; none of them stressed the cycle-detection
//! pass that runs *after* an exhausted search.  [`cycle_torus`] fills
//! that gap: `dims` artifact variables each cycle independently over `k`
//! string values, so the reachable symbolic state space is a `k^dims`
//! torus of states that the search exhausts quickly — and every one of
//! them stays active (no state's type implies another's, so nothing is
//! pruned) and lies on abstract cycles.  Checking the liveness property
//! of [`cycle_grid_liveness`] (`F (v0 = "goal")`, where `"goal"` is never
//! reached) forces the repeated-reachability analysis to build the full
//! abstract transition graph over those active states, which is exactly
//! the regime where the pre-index O(active²) edge construction dominated
//! the whole verification.  `ci_bench` uses the two-dimensional
//! [`cycle_grid`] (wide value cycles keep the signature posting lists
//! short, so the index filter shines).

use verifas_ltl::{Ltl, LtlFoProperty, PropAtom};
use verifas_model::schema::attr::data;
use verifas_model::{
    Condition, DatabaseSchema, HasSpec, SpecBuilder, TaskBuilder, Term, Update, VarId,
};

/// The `i`-th value of a cycling variable.
fn value(prefix: &str, i: usize) -> String {
    format!("{prefix}{i}")
}

/// A `k^dims` torus of symbolic states: `dims` variables each cycle over
/// `k` values through per-step services, so the exhausted search leaves
/// ~`k^dims + 1` active states that are all on cycles of the abstract
/// transition graph.  `dims` and `k` must both be at least 2.
pub fn cycle_torus(dims: usize, k: usize) -> HasSpec {
    assert!(dims >= 2, "a torus needs at least two dimensions");
    assert!(k >= 2, "a cycle needs at least two values");
    let mut db = DatabaseSchema::new();
    db.add_relation("R", vec![data("a")]).unwrap();
    let mut root = TaskBuilder::new("Torus");
    let vars: Vec<_> = (0..dims).map(|d| root.data_var(format!("v{d}"))).collect();
    root.service_parts(
        "enter",
        Condition::and(
            vars.iter()
                .map(|&v| Condition::eq(Term::var(v), Term::Null)),
        ),
        Condition::and(
            vars.iter()
                .enumerate()
                .map(|(d, &v)| Condition::eq(Term::var(v), Term::str(value(&format!("v{d}_"), 0)))),
        ),
        vec![],
        None,
    );
    for (d, &var) in vars.iter().enumerate() {
        let prefix = format!("v{d}_");
        let others: Vec<_> = vars.iter().copied().filter(|&other| other != var).collect();
        for i in 0..k {
            root.service_parts(
                format!("v{d}_step_{i}"),
                Condition::eq(Term::var(var), Term::str(value(&prefix, i))),
                Condition::eq(Term::var(var), Term::str(value(&prefix, (i + 1) % k))),
                // The stepped variable changes; the others keep their
                // values, which is what makes the state space the full
                // torus.
                others.clone(),
                None,
            );
        }
    }
    let mut b = SpecBuilder::new(format!("cycle-torus-{dims}x{k}"), db, root.build());
    b.global_pre(Condition::and(
        vars.iter()
            .map(|&v| Condition::eq(Term::var(v), Term::Null)),
    ));
    b.build().unwrap()
}

/// The two-dimensional [`cycle_torus`]: a `k × k` grid of states.
pub fn cycle_grid(k: usize) -> HasSpec {
    cycle_torus(2, k)
}

/// A counter-heavy cycling workload: `status` cycles over `k` string
/// values forever, and at any point of the first lap a one-shot `stash`
/// service (guarded by the `marked` flag) inserts the *current* `status`
/// into an artifact relation — so the exhausted search's active set holds
/// states carrying a bounded (non-ω) counter of `k` *distinct stored
/// tuple types*, one per possible stash point, all of them on cycles of
/// the abstract transition graph.
///
/// This is the regime the repository's repeated-reachability regression
/// suite uses to pin the soundness of the `CoverageIndex` signature
/// (pit-`=`-edges only): stored-type and `≠` pit edges are exactly what
/// the signature must *not* include (they could filter out true
/// coverers), and a workload without stored types cannot catch that
/// class of bug.  Verifying the never-reached liveness goal of
/// [`cycle_grid_liveness`] against this spec drives the full
/// cycle-detection post-pass over those counter-carrying states, and the
/// result must be bit-identical with the index on or off.
pub fn counter_cycle(k: usize) -> HasSpec {
    assert!(k >= 2, "a cycle needs at least two values");
    let mut db = DatabaseSchema::new();
    db.add_relation("R", vec![data("a")]).unwrap();
    let mut root = TaskBuilder::new("CounterCycle");
    let status = root.data_var("status");
    let marked = root.data_var("marked");
    let pool = root.art_relation_like("POOL", &[status]);
    root.service_parts(
        "enter",
        Condition::eq(Term::var(status), Term::Null),
        Condition::eq(Term::var(status), Term::str(value("s", 0))),
        vec![marked],
        None,
    );
    for i in 0..k {
        root.service_parts(
            format!("step_{i}"),
            Condition::eq(Term::var(status), Term::str(value("s", i))),
            Condition::eq(Term::var(status), Term::str(value("s", (i + 1) % k))),
            vec![marked],
            None,
        );
    }
    // One-shot (guarded by `marked`): stores the value `status` holds at
    // the stash point, so the reachable states carry `k` distinct stored
    // tuple types (but each counter stays at 1 — no ω, so the verdict
    // must come from the cycle-detection post-pass, not the
    // accelerated-counter shortcut).  One service per stash point: a
    // service with an artifact-relation update must propagate exactly the
    // task's input variables (Definition 10) — here none — so `status`
    // is re-pinned by the post-condition instead of being propagated.
    for i in 0..k {
        root.service_parts(
            format!("stash_{i}"),
            Condition::and([
                Condition::eq(Term::var(marked), Term::Null),
                Condition::eq(Term::var(status), Term::str(value("s", i))),
            ]),
            Condition::and([
                Condition::eq(Term::var(marked), Term::str("yes")),
                Condition::eq(Term::var(status), Term::str(value("s", i))),
            ]),
            vec![],
            Some(Update::Insert {
                rel: pool,
                vars: vec![status],
            }),
        );
    }
    let mut b = SpecBuilder::new(format!("counter-cycle-{k}"), db, root.build());
    b.global_pre(Condition::and([
        Condition::eq(Term::var(status), Term::Null),
        Condition::eq(Term::var(marked), Term::Null),
    ]));
    b.build().unwrap()
}

/// A skewed-batch workload: the root task is the `k × k` grid of
/// [`cycle_grid`] (its liveness check exhausts the whole grid and runs
/// the full repeated-reachability post-pass — the *heavy* end of a
/// batch), plus a trivial `Chore` child task whose local runs close after
/// two steps (properties on it verify in a handful of states — the
/// *light* end).  [`skewed_batch_properties`] builds the matching
/// one-heavy-plus-many-light property batch, which is the workload shape
/// the sharded batch scheduler exists for: under a flat pool the heavy
/// straggler holds one core while the rest of the machine idles.
pub fn skewed_grid(k: usize) -> HasSpec {
    let mut db = DatabaseSchema::new();
    db.add_relation("R", vec![data("a")]).unwrap();
    let mut root = TaskBuilder::new("Grid");
    let vars: Vec<_> = (0..2).map(|d| root.data_var(format!("v{d}"))).collect();
    root.service_parts(
        "enter",
        Condition::and(
            vars.iter()
                .map(|&v| Condition::eq(Term::var(v), Term::Null)),
        ),
        Condition::and(
            vars.iter()
                .enumerate()
                .map(|(d, &v)| Condition::eq(Term::var(v), Term::str(value(&format!("v{d}_"), 0)))),
        ),
        vec![],
        None,
    );
    for (d, &var) in vars.iter().enumerate() {
        let prefix = format!("v{d}_");
        let others: Vec<_> = vars.iter().copied().filter(|&other| other != var).collect();
        for i in 0..k {
            root.service_parts(
                format!("v{d}_step_{i}"),
                Condition::eq(Term::var(var), Term::str(value(&prefix, i))),
                Condition::eq(Term::var(var), Term::str(value(&prefix, (i + 1) % k))),
                others.clone(),
                None,
            );
        }
    }
    let mut b = SpecBuilder::new(format!("skewed-grid-{k}"), db, root.build());
    let mut chore = TaskBuilder::new("Chore");
    let step = chore.data_var("step");
    chore.closing_pre(Condition::eq(Term::var(step), Term::str("Done")));
    chore.service_parts(
        "work",
        Condition::eq(Term::var(step), Term::Null),
        Condition::eq(Term::var(step), Term::str("Done")),
        vec![],
        None,
    );
    b.add_child("Grid", chore.build()).unwrap();
    b.global_pre(Condition::and(
        vars.iter()
            .map(|&v| Condition::eq(Term::var(v), Term::Null)),
    ));
    b.build().unwrap()
}

/// The one-heavy-plus-`lights`-light property batch over a
/// [`skewed_grid`] spec: property 0 is the grid-exhausting
/// [`cycle_grid_liveness`] check of the root task, the rest are
/// finitely-violated safety checks of the `Chore` child task (each
/// verified in a handful of states).
pub fn skewed_batch_properties(spec: &HasSpec, lights: usize) -> Vec<LtlFoProperty> {
    let (chore, _) = spec
        .task_by_name("Chore")
        .expect("skewed_grid has a Chore child");
    let mut out = vec![cycle_grid_liveness(spec)];
    for i in 0..lights {
        out.push(LtlFoProperty::new(
            format!("chore-finishes-{i}"),
            chore,
            vec![],
            Ltl::globally(Ltl::not(Ltl::prop(0))),
            vec![PropAtom::Condition(Condition::eq(
                Term::var(VarId::new(0)),
                Term::str("Done"),
            ))],
        ));
    }
    out
}

/// The liveness property `F (x = "goal")` over a [`cycle_grid`] spec
/// (or any spec, like [`counter_cycle`], whose first data variable cycles
/// and never reaches `"goal"`).
///
/// No run ever reaches `"goal"`, so every infinite run violates the
/// property: the violation automaton accepts on every reachable state and
/// the repeated-reachability analysis must find an accepting cycle in the
/// full abstract transition graph (verdict: Violated, by an infinite run).
pub fn cycle_grid_liveness(spec: &HasSpec) -> LtlFoProperty {
    LtlFoProperty::new(
        "eventually-goal",
        spec.root(),
        vec![],
        Ltl::eventually(Ltl::prop(0)),
        vec![PropAtom::Condition(Condition::eq(
            Term::var(VarId::new(0)),
            Term::str("goal"),
        ))],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_spec_builds_and_scales_quadratically() {
        let spec = cycle_grid(4);
        assert_eq!(spec.name, "cycle-torus-2x4");
        // enter + k steps per variable.
        assert_eq!(spec.task(spec.root()).services.len(), 9);
        let property = cycle_grid_liveness(&spec);
        assert_eq!(property.name, "eventually-goal");
    }
}
