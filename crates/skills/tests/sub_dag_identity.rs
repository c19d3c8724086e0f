//! Property: one sub-DAG key is one identity. Over random DAGs with
//! duplicated subtrees, `T(M(p, q))` against `T(M(p), q)` groupings and a
//! source mutation between two keyings, two nodes share a key if and only
//! if an independent recursive comparison says they are equal: the same
//! call, the same source version where the call reads one, and pairwise
//! equal inputs. The structural ids DC0102 and the estimator read are the
//! same rule without versions, numbered densely in first-seen order.

use std::collections::HashMap;

use dc_engine::{Column, Expr, Table};
use dc_skills::{structural_ids, sub_dag_keys, Env, NodeId, SkillCall, SkillDag, SubDagKey};
use dc_storage::{CloudDatabase, Pricing};
use proptest::prelude::*;

fn table(offset: i64) -> Table {
    Table::new(vec![(
        "x",
        Column::from_ints((offset..offset + 8).collect()),
    )])
    .unwrap()
}

fn world() -> Env {
    let mut env = Env::new();
    let mut db = CloudDatabase::new("db", Pricing::default_cloud());
    db.create_table("a", &table(0)).unwrap();
    db.create_table("b", &table(100)).unwrap();
    env.catalog.add_database(db).unwrap();
    env.snapshots
        .create("s", table(5), "db.a", vec![], None)
        .unwrap();
    env.add_file("f.csv", "x\n1\n");
    env
}

/// Between the two keyings: nothing, recreate `a`, drop `a`, refresh `s`.
fn mutate(env: &mut Env, mutation: u8) {
    let db = env.catalog.database_mut("db").unwrap();
    match mutation {
        1 => {
            db.drop_table("a").unwrap();
            db.create_table("a", &table(50)).unwrap();
        }
        2 => db.drop_table("a").unwrap(),
        3 => {
            env.snapshots.refresh("s", table(9)).unwrap();
        }
        _ => {}
    }
}

/// Append a node for `op` over the nodes picked by `a` and `b`.
fn grow(dag: &mut SkillDag, (op, a, b, text): (u8, usize, usize, u8)) {
    let n = dag.len();
    let (i, j) = (a % n.max(1), b % n.max(1));
    let comment = SkillCall::Comment {
        text: ["m", "t"][usize::from(text % 2)].into(),
    };
    let (call, inputs) = match op {
        _ if n == 0 || op == 0 => (SkillCall::load_table("db", "a"), vec![]),
        1 => (SkillCall::load_table("db", "b"), vec![]),
        2 => (SkillCall::UseSnapshot { name: "s".into() }, vec![]),
        3 => (
            SkillCall::LoadFile {
                path: "f.csv".into(),
            },
            vec![],
        ),
        4 => (comment, vec![]),
        5 => (comment, vec![i]),
        6 => (comment, vec![i, j]),
        7 => {
            let predicate = Expr::col("x").ge(Expr::lit(i64::from(text % 2)));
            (SkillCall::KeepRows { predicate }, vec![i])
        }
        8 => {
            let concat = SkillCall::Concat {
                other: "other".into(),
                remove_duplicates: false,
            };
            (concat, vec![i, j])
        }
        _ => {
            copy(dag, i, &mut HashMap::new());
            return;
        }
    };
    dag.add(call, inputs).unwrap();
}

/// Append a copy of `node`'s subtree; returns the copy's id.
fn copy(dag: &mut SkillDag, node: NodeId, done: &mut HashMap<NodeId, NodeId>) -> NodeId {
    if let Some(&id) = done.get(&node) {
        return id;
    }
    let original = dag.node(node).unwrap().clone();
    let inputs = original
        .inputs
        .iter()
        .map(|&i| copy(dag, i, done))
        .collect();
    let id = dag.add(original.call, inputs).unwrap();
    done.insert(node, id);
    id
}

/// The source version each node reads, taken from the storage layer.
fn versions(dag: &SkillDag, env: &Env) -> Vec<Option<u64>> {
    let version = |call: &SkillCall| match call {
        SkillCall::LoadTable {
            database, table, ..
        } => env.catalog.database(database).ok()?.table_version(table),
        SkillCall::UseSnapshot { name } => env.snapshots.snapshot_version(name),
        _ => None,
    };
    dag.nodes().iter().map(|n| version(&n.call)).collect()
}

/// The reference equality: same call text, same version, same inputs in
/// the same order, compared recursively (memoised: subtrees are shared).
fn same(
    dag: &SkillDag,
    (va, vb): (&[Option<u64>], &[Option<u64>]),
    (i, j): (NodeId, NodeId),
    memo: &mut HashMap<(NodeId, NodeId), bool>,
) -> bool {
    if let Some(&known) = memo.get(&(i, j)) {
        return known;
    }
    let (x, y) = (dag.node(i).unwrap(), dag.node(j).unwrap());
    let equal = format!("{:?}", x.call) == format!("{:?}", y.call)
        && va[i] == vb[j]
        && x.inputs.len() == y.inputs.len()
        && (x.inputs.iter().zip(&y.inputs)).all(|(&p, &q)| same(dag, (va, vb), (p, q), memo));
    memo.insert((i, j), equal);
    equal
}

/// Whether each node's result may be shared: every node of its sub-DAG
/// is a load of a source that exists, or a pure call.
fn shareable(dag: &SkillDag, versions: &[Option<u64>]) -> Vec<bool> {
    let mut out: Vec<bool> = Vec::with_capacity(dag.len());
    for n in dag.nodes() {
        let own = match n.call {
            SkillCall::LoadTable { .. } | SkillCall::UseSnapshot { .. } => versions[n.id].is_some(),
            SkillCall::LoadFile { .. } => false,
            _ => true,
        };
        out.push(own && n.inputs.iter().all(|&i| out[i]));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sub_dag_keys_match_an_independent_structural_comparison(
        ops in prop::collection::vec((0u8..10, 0usize..64, 0usize..64, 0u8..4), 1..32),
        mutation in 0u8..4,
    ) {
        let mut dag = SkillDag::new();
        for op in ops {
            grow(&mut dag, op);
        }
        let mut env = world();
        let (before, versions_before) = (sub_dag_keys(&dag, Some(&env)), versions(&dag, &env));
        mutate(&mut env, mutation);
        let (after, versions_after) = (sub_dag_keys(&dag, Some(&env)), versions(&dag, &env));
        let structural = sub_dag_keys(&dag, None);
        let unversioned = vec![None; dag.len()];

        let sides: [(&[SubDagKey], &[Option<u64>]); 3] = [
            (&before, &versions_before),
            (&after, &versions_after),
            (&structural, &unversioned),
        ];
        for (a, b) in [(0, 0), (0, 1), (1, 1), (2, 2)] {
            let ((keys_a, va), (keys_b, vb)) = (sides[a], sides[b]);
            let mut memo = HashMap::new();
            for (i, key_a) in keys_a.iter().enumerate() {
                for (j, key_b) in keys_b.iter().enumerate() {
                    let equal = same(&dag, (va, vb), (i, j), &mut memo);
                    prop_assert_eq!(key_a.hash == key_b.hash, equal,
                        "sides {}/{}, nodes {} and {} of {:?}", a, b, i, j, dag.nodes());
                }
            }
        }
        for (keys, versions) in &sides[..2] {
            let flags: Vec<bool> = keys.iter().map(|k| k.shareable).collect();
            prop_assert_eq!(flags, shareable(&dag, versions));
        }

        // Structural ids: one per unversioned class, 0, 1, 2, ... in the
        // order each class first appears.
        let ids = structural_ids(&dag);
        let mut memo = HashMap::new();
        let mut seen = 0;
        for i in 0..dag.len() {
            let first = (0..i).find(|&j| same(&dag, (&unversioned, &unversioned), (i, j), &mut memo));
            match first {
                Some(j) => prop_assert_eq!(ids[&i], ids[&j]),
                None => {
                    prop_assert_eq!(ids[&i], seen);
                    seen += 1;
                }
            }
        }
    }
}
