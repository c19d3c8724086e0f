//! Sessions and the session-level lock (§2.4).
//!
//! "Actions taken in a session are tracked in the platform itself rather
//! than the client, so multiple users can maintain a synchronized view of
//! the work. A simple session-level lock prevents concurrent skill
//! requests ... requests sent concurrently will fail with a message to
//! the user indicating that another execution was already running."

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dc_skills::resilient::{ExecPolicy, ExecReport};
use dc_skills::{Env, Executor, NodeId, SkillCall, SkillDag, SkillOutput};
use parking_lot::Mutex;

use crate::error::{CollabError, Result};
use crate::sharing::{Permission, Shareable};

/// A collaborative analysis session: a skill DAG, its results, and an
/// access-control list.
#[derive(Debug)]
pub struct Session {
    pub id: u64,
    pub owner: String,
    dag: Mutex<SkillDag>,
    /// Tip of the primary chain (the "current dataset").
    current: AtomicU64,
    has_current: AtomicBool,
    executor: Mutex<Executor>,
    /// The §2.4 lock: set while a request executes.
    executing: AtomicBool,
    acl: Mutex<Shareable>,
    /// Log of executed requests, the synchronized view collaborators see:
    /// who ran which node. The node's GEL sentence is rendered when the log
    /// is read ([`Session::log`]); the DAG already holds the call, so a
    /// finished step leaves no second copy of it behind, and consecutive
    /// entries of one user share the name.
    log: Mutex<Vec<(Arc<str>, NodeId)>>,
    /// The world [`Session::submit`] runs in.
    env: EnvHandle,
    /// The policy [`Session::submit`] runs under (retry, per-node budgets,
    /// the wall-clock deadline `run_budget` carries), fixed at open.
    policy: ExecPolicy,
}

/// Handle type: sessions are shared between collaborators.
pub type SessionRef = Arc<Session>;

/// A claimed §2.4 lock, released when the run ends, by a panic too.
struct Claimed<'a>(&'a AtomicBool);

impl Drop for Claimed<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl Session {
    /// Open a fresh session whose submissions run in `env` under `policy`.
    pub fn new(
        id: u64,
        owner: impl Into<String>,
        env: EnvHandle,
        policy: ExecPolicy,
    ) -> SessionRef {
        let owner = owner.into();
        Arc::new(Session {
            id,
            owner: owner.clone(),
            dag: Mutex::new(SkillDag::new()),
            current: AtomicU64::new(0),
            has_current: AtomicBool::new(false),
            executor: Mutex::new(Executor::new()),
            executing: AtomicBool::new(false),
            acl: Mutex::new(Shareable::owned_by(owner)),
            log: Mutex::new(Vec::new()),
            env,
            policy,
        })
    }

    /// Grant a collaborator access.
    pub fn share_with(&self, user: impl Into<String>, permission: Permission) {
        self.acl.lock().grant(user, permission);
    }

    /// Revoke a collaborator's access.
    pub fn revoke(&self, user: &str) {
        self.acl.lock().revoke(user);
    }

    /// The permission a user holds.
    pub fn permission_of(&self, user: &str) -> Option<Permission> {
        self.acl.lock().permission_of(user)
    }

    /// Submit one skill request on behalf of `user`, run in the session's
    /// world under its policy.
    ///
    /// Fails with [`CollabError::SessionBusy`] when another request is
    /// mid-flight, and with [`CollabError::PermissionDenied`] when the
    /// user cannot act in this session.
    pub fn submit(&self, user: &str, call: SkillCall) -> Result<SkillOutput> {
        let stage = || Ok(self.dag.lock().add_step(call, self.current_node())?);
        let report = self.run_locked(user, stage, None, &self.policy)?;
        Ok(report.into_output()?)
    }

    fn check_can_act(&self, user: &str) -> Result<()> {
        let perm = self
            .permission_of(user)
            .ok_or_else(|| CollabError::PermissionDenied {
                user: user.to_string(),
                needed: "act".into(),
            })?;
        if !perm.can_act() {
            return Err(CollabError::PermissionDenied {
                user: user.to_string(),
                needed: "act".into(),
            });
        }
        Ok(())
    }

    /// Stage one call for later execution: permission check + DAG
    /// insertion on the current dataset ([`SkillDag::add_step`]), no
    /// execution, no session lock. The serving layer stages a job's steps
    /// as they come due, then drives each through
    /// [`Session::execute_staged`] — possibly across several time slices.
    pub fn stage(&self, user: &str, call: SkillCall) -> Result<NodeId> {
        self.check_can_act(user)?;
        Ok(self.dag.lock().add_step(call, self.current_node())?)
    }

    /// Execute a previously staged node in a caller-held environment (a
    /// serving layer holds the world lock for a whole slice) under an
    /// explicit policy, returning the full
    /// [`ExecReport`]. Claims the §2.4 session lock for the duration.
    ///
    /// The session's current dataset and log advance only when the run
    /// produced the target's output — a preempted or failed slice leaves
    /// the session state untouched (completed sub-DAG results stay
    /// checkpointed in the session's executor, so re-running the same
    /// node resumes from the failed frontier).
    pub fn execute_staged(
        &self,
        user: &str,
        node: NodeId,
        env: &mut Env,
        policy: &ExecPolicy,
    ) -> Result<ExecReport> {
        self.run_locked(user, || Ok(node), Some(env), policy)
    }

    /// The one run body: check `user` may act, claim the §2.4 lock, take
    /// the node `step` yields (staging under the lock resolves against a
    /// current dataset no concurrent request can move), run it in `env`
    /// (`None`: the session's world, locked only once the session lock is
    /// held, so a busy session answers without waiting for the world), and
    /// advance the current dataset and the log only when the run produced
    /// the node's output.
    fn run_locked(
        &self,
        user: &str,
        step: impl FnOnce() -> Result<NodeId>,
        env: Option<&mut Env>,
        policy: &ExecPolicy,
    ) -> Result<ExecReport> {
        self.check_can_act(user)?;
        if self.executing.swap(true, Ordering::AcqRel) {
            return Err(CollabError::SessionBusy { session: self.id });
        }
        let _claimed = Claimed(&self.executing);
        let node = step()?;
        let mut ex = self.executor.lock();
        let dag = self.dag.lock();
        let report = match env {
            Some(env) => ex.run_resilient(&dag, node, env, policy),
            None => self
                .env
                .with(|env| ex.run_resilient(&dag, node, env, policy)),
        }?;
        if report.succeeded() {
            self.current.store(node as u64, Ordering::Release);
            self.has_current.store(true, Ordering::Release);
            self.record(user, node);
        }
        Ok(report)
    }

    /// Append "`user` ran `node`" to the log.
    fn record(&self, user: &str, node: NodeId) {
        let mut log = self.log.lock();
        let user = match log.last() {
            Some((last, _)) if **last == *user => Arc::clone(last),
            _ => Arc::from(user),
        };
        log.push((user, node));
    }

    /// The node holding the current dataset.
    pub fn current_node(&self) -> Option<NodeId> {
        self.has_current
            .load(Ordering::Acquire)
            .then(|| self.current.load(Ordering::Acquire) as NodeId)
    }

    /// Make `node` the current dataset again (`None`: no current dataset).
    /// A caller that runs a request of several steps, only the last of
    /// which is its answer, abandons a request that failed part-way by
    /// going back to where the session stood before it; the DAG and the
    /// log keep the steps that ran.
    pub fn rewind_to(&self, node: Option<NodeId>) {
        if let Some(node) = node {
            self.current.store(node as u64, Ordering::Release);
        }
        self.has_current.store(node.is_some(), Ordering::Release);
    }

    /// Bind a dataset name to the current node.
    pub fn name_current(&self, name: impl Into<String>) -> Result<()> {
        let node = self
            .current_node()
            .ok_or_else(|| CollabError::invalid("nothing to name yet"))?;
        self.dag.lock().bind_name(name, node)?;
        Ok(())
    }

    /// Approximate heap bytes of the session executor's checkpointed
    /// results. A serving layer polls this to bound per-session memory.
    pub fn checkpoint_bytes(&self) -> u64 {
        self.executor.lock().cache_bytes()
    }

    /// Drop the session executor's checkpointed results. The DAG and log
    /// are untouched — later requests re-execute evicted sub-DAGs from
    /// their recorded calls, so this trades warmth (and re-charged cloud
    /// scans) for memory, never correctness.
    pub fn clear_checkpoints(&self) {
        self.executor.lock().clear_cache();
    }

    /// Snapshot of the session's DAG (for saving artifacts).
    pub fn dag_snapshot(&self) -> SkillDag {
        self.dag.lock().clone()
    }

    /// The synchronized request log: (user, GEL sentence) per executed
    /// request, rendered from the DAG's calls as it is read.
    pub fn log(&self) -> Vec<(String, String)> {
        let dag = self.dag.lock();
        let log = self.log.lock();
        log.iter()
            .filter_map(|(user, node)| {
                let call = &dag.node(*node).ok()?.call;
                Some((user.to_string(), dc_gel::format_skill(call)))
            })
            .collect()
    }
}

/// A shareable handle on one execution environment: the world state
/// (catalog, snapshots, fixtures, models) behind an `Arc<Mutex>`, so many
/// threads — a platform facade plus a pool of serve workers — can run
/// sessions against the same logical world. The mutex is the
/// "single-writer world lock": skills take `&mut Env`, so execution
/// against one world is serialized here; fairness across tenants is the
/// serving layer's job (time slices bound how long one job may hold it).
#[derive(Debug, Clone)]
pub struct EnvHandle(Arc<Mutex<Env>>);

impl EnvHandle {
    /// Wrap an environment in a shareable handle.
    pub fn new(env: Env) -> EnvHandle {
        EnvHandle(Arc::new(Mutex::new(env)))
    }

    /// Run `f` with exclusive access to the environment. Do not nest —
    /// the lock is not reentrant.
    pub fn with<R>(&self, f: impl FnOnce(&mut Env) -> R) -> R {
        f(&mut self.0.lock())
    }
}

/// Registry of sessions (the platform's server-side tracking). Every
/// session it opens runs in its world under its policy.
#[derive(Debug)]
pub struct SessionRegistry {
    sessions: Mutex<BTreeMap<u64, SessionRef>>,
    next_id: AtomicU64,
    env: EnvHandle,
    policy: ExecPolicy,
}

impl SessionRegistry {
    /// An empty registry whose sessions run in `env` under `policy`.
    pub fn new(env: EnvHandle, policy: ExecPolicy) -> SessionRegistry {
        SessionRegistry {
            sessions: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(0),
            env,
            policy,
        }
    }

    /// Open a session for `owner`.
    pub fn open(&self, owner: impl Into<String>) -> SessionRef {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let s = Session::new(id, owner, self.env.clone(), self.policy.clone());
        self.sessions.lock().insert(id, Arc::clone(&s));
        s
    }

    /// Look up a session.
    pub fn get(&self, id: u64) -> Result<SessionRef> {
        self.sessions
            .lock()
            .get(&id)
            .cloned()
            .ok_or(CollabError::SessionNotFound { id })
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.sessions.lock().len()
    }

    /// Whether no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.sessions.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_engine::Expr;

    fn seed_env() -> EnvHandle {
        let mut env = Env::new();
        env.add_file("d.csv", "x\n1\n2\n3\n4\n");
        EnvHandle::new(env)
    }

    #[test]
    fn linear_session_flow() {
        let s = Session::new(1, "ann", seed_env(), ExecPolicy::plain());
        s.submit(
            "ann",
            SkillCall::LoadFile {
                path: "d.csv".into(),
            },
        )
        .unwrap();
        let out = s
            .submit(
                "ann",
                SkillCall::KeepRows {
                    predicate: Expr::col("x").gt(Expr::lit(1i64)),
                },
            )
            .unwrap();
        assert_eq!(out.as_table().unwrap().num_rows(), 3);
        assert_eq!(s.log().len(), 2);
        assert_eq!(s.log()[1].0, "ann");
    }

    #[test]
    fn unshared_user_denied() {
        let s = Session::new(1, "ann", seed_env(), ExecPolicy::plain());
        let r = s.submit(
            "bob",
            SkillCall::LoadFile {
                path: "d.csv".into(),
            },
        );
        assert!(matches!(r, Err(CollabError::PermissionDenied { .. })));
    }

    #[test]
    fn viewer_cannot_act_editor_can() {
        let s = Session::new(1, "ann", seed_env(), ExecPolicy::plain());
        s.share_with("bob", Permission::View);
        assert!(matches!(
            s.submit(
                "bob",
                SkillCall::LoadFile {
                    path: "d.csv".into()
                }
            ),
            Err(CollabError::PermissionDenied { .. })
        ));
        s.share_with("bob", Permission::Edit);
        assert!(s
            .submit(
                "bob",
                SkillCall::LoadFile {
                    path: "d.csv".into()
                }
            )
            .is_ok());
        s.revoke("bob");
        assert!(s.permission_of("bob").is_none());
    }

    #[test]
    fn concurrent_requests_rejected() {
        use std::sync::atomic::AtomicUsize;
        let s = Session::new(1, "ann", seed_env(), ExecPolicy::plain());
        s.share_with("bob", Permission::Edit);
        s.submit(
            "ann",
            SkillCall::LoadFile {
                path: "d.csv".into(),
            },
        )
        .unwrap();
        // Claim the lock as if a long request were running; a second
        // submission must fail with the paper's message.
        s.executing.store(true, Ordering::Release);
        let busy = AtomicUsize::new(0);
        match s.submit("bob", SkillCall::Limit { n: 1 }) {
            Err(CollabError::SessionBusy { session }) => {
                assert_eq!(session, 1);
                busy.fetch_add(1, Ordering::Relaxed);
            }
            other => panic!("expected SessionBusy, got {other:?}"),
        }
        s.executing.store(false, Ordering::Release);
        assert!(s.submit("bob", SkillCall::Limit { n: 1 }).is_ok());
        assert_eq!(busy.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn named_datasets_enable_two_input_skills() {
        let s = Session::new(1, "ann", seed_env(), ExecPolicy::plain());
        s.submit(
            "ann",
            SkillCall::LoadFile {
                path: "d.csv".into(),
            },
        )
        .unwrap();
        s.name_current("first").unwrap();
        s.submit(
            "ann",
            SkillCall::LoadFile {
                path: "d.csv".into(),
            },
        )
        .unwrap();
        let out = s
            .submit(
                "ann",
                SkillCall::Concat {
                    other: "first".into(),
                    remove_duplicates: false,
                },
            )
            .unwrap();
        assert_eq!(out.as_table().unwrap().num_rows(), 8);
    }

    /// `Use the dataset fred, version 1` re-roots at the first result bound
    /// to `fred`, as in a recipe, not at the latest.
    #[test]
    fn a_versioned_use_reads_that_version() {
        let s = Session::new(1, "ann", seed_env(), ExecPolicy::plain());
        let keep = |above: i64| SkillCall::KeepRows {
            predicate: Expr::col("x").gt(Expr::lit(above)),
        };
        let load = SkillCall::LoadFile {
            path: "d.csv".into(),
        };
        s.submit("ann", load).unwrap();
        s.submit("ann", keep(1)).unwrap();
        s.name_current("fred").unwrap();
        s.submit("ann", keep(3)).unwrap();
        s.name_current("fred").unwrap();
        let use_fred = |version| SkillCall::UseDataset {
            name: "fred".into(),
            version,
        };
        let rows = |out: SkillOutput| out.as_table().unwrap().num_rows();
        assert_eq!(rows(s.submit("ann", use_fred(Some(1))).unwrap()), 3);
        assert_eq!(rows(s.submit("ann", use_fred(None)).unwrap()), 1);
        assert!(s.submit("ann", use_fred(Some(3))).is_err());
    }

    /// A `Concat` with a dataset no name is bound to reads the stored
    /// dataset of that name, as in a recipe.
    #[test]
    fn a_concat_with_an_unbound_name_reads_the_stored_dataset() {
        let world = seed_env();
        world.with(|env| {
            let stored = dc_engine::csv::read_csv("x\n9\n").unwrap();
            env.save_table("extra", stored);
        });
        let s = Session::new(1, "ann", world, ExecPolicy::plain());
        let load = SkillCall::LoadFile {
            path: "d.csv".into(),
        };
        s.submit("ann", load).unwrap();
        let concat = SkillCall::Concat {
            other: "extra".into(),
            remove_duplicates: false,
        };
        let out = s.submit("ann", concat).unwrap();
        assert_eq!(out.as_table().unwrap().num_rows(), 5);
    }

    #[test]
    fn registry_assigns_ids() {
        let reg = SessionRegistry::new(seed_env(), ExecPolicy::plain());
        let a = reg.open("ann");
        let b = reg.open("bob");
        assert_ne!(a.id, b.id);
        assert!(reg.get(a.id).is_ok());
        assert!(reg.get(999).is_err());
        assert_eq!(reg.len(), 2);
    }

    /// A session carries its world: submitted from a thread other than
    /// the one that opened it, it still runs in the registry's world.
    #[test]
    fn a_registry_session_runs_in_the_registry_world_from_another_thread() {
        let reg = SessionRegistry::new(seed_env(), ExecPolicy::plain());
        let s = reg.open("ann");
        let rows = std::thread::spawn(move || {
            let load = SkillCall::LoadFile {
                path: "d.csv".into(),
            };
            s.submit("ann", load)
                .map(|out| out.as_table().unwrap().num_rows())
        })
        .join()
        .unwrap();
        assert_eq!(rows.unwrap(), 4);
    }

    /// A step that fails, submitted or run staged, leaves the current
    /// dataset and the log where they were; the next good step continues
    /// from the old current dataset.
    #[test]
    fn a_failed_step_moves_neither_current_nor_log() {
        let world = seed_env();
        let s = Session::new(1, "ann", world.clone(), ExecPolicy::plain());
        s.submit(
            "ann",
            SkillCall::LoadFile {
                path: "d.csv".into(),
            },
        )
        .unwrap();
        s.submit(
            "ann",
            SkillCall::KeepRows {
                predicate: Expr::col("x").gt(Expr::lit(1i64)),
            },
        )
        .unwrap();
        let (current, log) = (s.current_node(), s.log());
        let bad = || SkillCall::KeepRows {
            predicate: Expr::col("bogus").gt(Expr::lit(1i64)),
        };

        assert!(s.submit("ann", bad()).is_err());
        assert_eq!((s.current_node(), s.log()), (current, log.clone()));

        let node = s.stage("ann", bad()).unwrap();
        let report = world
            .with(|env| s.execute_staged("ann", node, env, &ExecPolicy::plain()))
            .unwrap();
        assert!(!report.succeeded());
        assert_eq!((s.current_node(), s.log()), (current, log.clone()));

        let out = s.submit("ann", SkillCall::Limit { n: 10 }).unwrap();
        assert_eq!(out.as_table().unwrap().num_rows(), 3);
        assert_eq!(s.log().len(), log.len() + 1);
    }

    #[test]
    fn transform_without_load_errors() {
        let s = Session::new(1, "ann", seed_env(), ExecPolicy::plain());
        assert!(s.submit("ann", SkillCall::Limit { n: 1 }).is_err());
    }
}
