//! One rule lowers a program's steps into the skill DAG. A recipe
//! (`Recipe::to_dag`), a session staging the same steps turn by turn, and
//! the lowering a `dc-serve` request's admission plan is made over
//! (`SkillDag::lower`, which `plan_linear` calls) must wire the same calls
//! to the same inputs: a versioned `Use the dataset`, a `Concat` with a
//! stored dataset and a `Join` on a bound name included.

use datachat::collab::{EnvHandle, Session};
use datachat::engine::{Column, Expr, JoinType, Table};
use datachat::gel::Recipe;
use datachat::skills::{plan_linear, Env, ExecPolicy, NodeId, SkillCall, SkillDag, SkillOutput};
use datachat::storage::{CloudDatabase, Pricing};

fn table(xs: &[i64]) -> Table {
    Table::new(vec![
        ("x", Column::from_ints(xs.to_vec())),
        ("y", Column::from_ints(xs.iter().map(|x| 10 * x).collect())),
    ])
    .unwrap()
}

/// A catalog table `db.t` and two stored datasets, `extra` and `fred`.
fn world() -> EnvHandle {
    let mut db = CloudDatabase::new("db", Pricing::default_cloud());
    db.create_table("t", &table(&[1, 2, 3, 4])).unwrap();
    let mut env = Env::new();
    env.catalog.add_database(db).unwrap();
    env.save_table("extra", table(&[9]));
    env.save_table("fred", table(&[3]));
    EnvHandle::new(env)
}

/// Load `t` (bound as `fred`), keep `x > 2` (bound as `fred` again),
/// re-root at `fred`'s first version, concatenate the stored `extra`, join
/// the latest `fred` on `x`, count.
fn steps() -> Vec<SkillCall> {
    vec![
        SkillCall::load_table("db", "t"),
        SkillCall::KeepRows {
            predicate: Expr::col("x").gt(Expr::lit(2i64)),
        },
        SkillCall::UseDataset {
            name: "fred".into(),
            version: Some(1),
        },
        SkillCall::Concat {
            other: "extra".into(),
            remove_duplicates: false,
        },
        SkillCall::Join {
            other: "fred".into(),
            left_on: vec!["x".into()],
            right_on: vec!["x".into()],
            how: JoinType::Inner,
        },
        SkillCall::CountRows,
    ]
}

fn recipe(steps: &[SkillCall], bindings: &[(usize, String)]) -> Recipe {
    let mut recipe = Recipe::from(steps.to_vec());
    for (step, name) in bindings {
        recipe.bind(*step, name.clone()).unwrap();
    }
    recipe
}

/// The steps submitted to a fresh session one at a time, each step's
/// names bound once it has run: the session's DAG, each step's node and
/// the last output.
fn staged(
    steps: &[SkillCall],
    bindings: &[(usize, String)],
) -> (SkillDag, Vec<NodeId>, SkillOutput) {
    let session = Session::new(1, "ann", world(), ExecPolicy::plain());
    let mut node_of_step = Vec::new();
    let mut last = None;
    for (i, call) in steps.iter().enumerate() {
        last = Some(session.submit("ann", call.clone()).unwrap());
        node_of_step.push(session.current_node().unwrap());
        for (_, name) in bindings.iter().filter(|(at, _)| *at == i) {
            session.name_current(name.clone()).unwrap();
        }
    }
    (session.dag_snapshot(), node_of_step, last.unwrap())
}

/// The three lowerings of one program agree node for node, and the
/// session's answer is `count` rows.
fn agree(bindings: &[(usize, String)], count: &str) -> SkillDag {
    let steps = steps();
    let from_recipe = recipe(&steps, bindings).to_dag().unwrap();
    let lowered = SkillDag::lower(&steps, bindings).unwrap();
    let (session_dag, session_steps, out) = staged(&steps, bindings);
    assert_eq!(from_recipe.0.nodes(), lowered.0.nodes());
    assert_eq!(from_recipe.0.nodes(), session_dag.nodes());
    assert_eq!(from_recipe, lowered);
    assert_eq!(from_recipe.0, session_dag);
    assert_eq!(from_recipe.1, lowered.1);
    assert_eq!(from_recipe.1, session_steps);
    assert_eq!(out, SkillOutput::Text(count.into()));
    lowered.0
}

#[test]
fn a_recipe_a_session_and_a_request_plan_lower_a_program_alike() {
    let fred = |step: usize| (step, "fred".to_string());
    let dag = agree(&[fred(0), fred(1)], "2");
    let inputs = |id: NodeId| dag.node(id).unwrap().inputs.clone();
    // Version 1 of `fred` is the load; the stored `extra` is a node of its
    // own, no step's; the join reads the latest `fred`, the filter.
    assert_eq!(inputs(2), vec![0]);
    assert_eq!(
        dag.node(3).unwrap().call,
        SkillCall::UseDataset {
            name: "extra".into(),
            version: None,
        }
    );
    assert_eq!(inputs(4), vec![2, 3]);
    assert_eq!(inputs(5), vec![4, 1]);
    assert_eq!(inputs(6), vec![5]);

    // With no names bound — a `dc-serve` request in a fresh session —
    // every name is a stored dataset.
    let dag = agree(&[], "1");
    assert_eq!(dag.len(), steps().len() + 2);
    assert!(dag.node(2).unwrap().inputs.is_empty());
}

/// The admission plan hands back the request's own steps: the stored
/// datasets the lowering adds for `Concat` and `Join` are not staged.
#[test]
fn the_request_plan_is_the_steps_and_no_more() {
    // Without the re-rooting `Use the dataset`, the load feeds the answer.
    let mut steps = steps();
    steps.remove(2);
    let planned = world()
        .with(|env| plan_linear(&steps, env))
        .expect("the load's filter reaches the scan");
    assert_eq!(planned.len(), steps.len());
    assert!(matches!(
        &planned[0],
        SkillCall::LoadTable {
            predicate: Some(_),
            ..
        }
    ));
    assert_eq!(planned[1..], steps[1..]);
}

/// An out-of-range version of a bound name is an error in every lowering;
/// a `Join` with no dataset to stand on is one too.
#[test]
fn a_bad_version_and_a_join_on_nothing_fail_alike() {
    let use_v3 = SkillCall::UseDataset {
        name: "fred".into(),
        version: Some(3),
    };
    let program = [SkillCall::load_table("db", "t"), use_v3.clone()];
    let bindings = [(0, "fred".to_string())];
    assert!(recipe(&program, &bindings).to_dag().is_err());
    assert!(SkillDag::lower(&program, &bindings).is_err());
    let session = Session::new(1, "ann", world(), ExecPolicy::plain());
    session.submit("ann", program[0].clone()).unwrap();
    session.name_current("fred").unwrap();
    assert!(session.submit("ann", use_v3).is_err());

    let join = steps()[4].clone();
    assert!(SkillDag::lower(std::slice::from_ref(&join), &[]).is_err());
    let fresh = Session::new(2, "ann", world(), ExecPolicy::plain());
    assert!(fresh.submit("ann", join).is_err());
    assert!(fresh.dag_snapshot().is_empty());
}
