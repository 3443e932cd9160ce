//! Bounded systematic exploration of event interleavings.
//!
//! The default scheduler fires events in `(time, seq)` order: one
//! deterministic schedule per seed. That is ideal for reproducible
//! experiments but blind to ordering bugs — a switch protocol can be
//! correct on every sampled schedule and still lose requests when a
//! checkpoint overtakes an invoke. This module turns the same [`World`]
//! into a bounded model checker: starting from a state prepared by a
//! *factory* closure, it enumerates every interleaving of the
//! concurrently-pending message deliveries (plus optional crash
//! injections) up to a depth and schedule budget, checking a caller
//! invariant after every step.
//!
//! # Semantics
//!
//! At each explored state the branch choices are:
//!
//! * the earliest pending event (whatever its kind — timers and control
//!   actions fire in deterministic time order), and
//! * **every** pending `Deliver` event (`crate::event::EventKind`): the
//!   network is asynchronous, so any in-flight message may legally arrive
//!   before anything else. An out-of-order delivery fires at the earliest
//!   pending instant, which keeps virtual time monotone and local timers
//!   punctual while modelling arbitrary network reordering.
//! * a fail-stop crash of any live process named in
//!   [`ExploreConfig::crash_candidates`], while the crash budget lasts —
//!   this is how "a crash injected at every explored point" is expressed.
//!   Crashes are offered even when the event queue has quiesced, so a
//!   crash *after* the protocol settles (and the recovery it triggers) is
//!   part of the bounded space too.
//!
//! Actors are not cloneable (they own `Box<dyn Actor>` state), so the
//! explorer re-executes: each schedule is a recorded [`Choice`] sequence
//! replayed from a fresh factory-built world. Determinism of the world
//! guarantees that a prefix replays to the identical state every time,
//! which also makes any reported [`Violation`] exactly reproducible via
//! [`replay`].
//!
//! # Parallel exploration
//!
//! With [`ExploreConfig::workers`] > 1 the schedule tree is explored by a
//! work-stealing worker fleet: each worker owns a deque of schedule
//! prefixes (depth-first from the back; thieves steal breadth-first from
//! the front, taking the largest untouched subtrees), and the visited-set
//! is sharded behind locks. Worlds never cross threads — every worker
//! replays prefixes on its own factory-built world.
//!
//! The first-violation report stays deterministic: every explored prefix
//! carries its *choice-index path* (which branch was taken at each level),
//! and the violation with the lexicographically smallest path — exactly
//! the one the sequential depth-first order would report first — wins,
//! regardless of which worker found which violation when. Workers drop
//! subtrees that cannot beat the current best, so a found violation also
//! acts as a pruning frontier. (With
//! [`ExploreConfig::prune_equivalent_states`] on, the *set of explored
//! schedules* may differ from a sequential run — digest-set insertion
//! order varies across threads — so exact parity of the first violation
//! is guaranteed for unpruned exploration; pruned runs still only report
//! real, replayable violations.)
//!
//! # Counterexample persistence
//!
//! When [`ExploreConfig::replay_file`] is set, any violation is appended
//! to that file as one JSONL record (label, message, virtual time, and
//! the schedule as compact `e<seq>`/`c<pid>` tokens). CI uploads the file
//! as an artifact; [`load_counterexamples`] + [`replay`] turn a record
//! back into the exact failing state — a one-command repro.
//!
//! # Pruning
//!
//! When every live actor implements [`Actor::state_digest`] and every
//! in-flight payload implements [`Payload::digest`]
//! ([`World::state_digest`] returns `Some`), states already visited under
//! another interleaving are not expanded again. Digests use now-relative
//! times and ignore RNG position, so pruning is a heuristic reduction —
//! sound for every violation it *does* report, but able to skip schedules
//! that differ only in timing. It is opt-in via
//! [`ExploreConfig::prune_equivalent_states`].
//!
//! [`Actor::state_digest`]: crate::actor::Actor::state_digest
//! [`Payload::digest`]: crate::actor::Payload::digest

use std::collections::{BTreeSet, VecDeque};
use std::io::{BufRead, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::time::SimTime;
use crate::topology::ProcessId;
use crate::world::World;

/// FNV-1a 64-bit hasher: the workspace-standard digest for exploration
/// state hashing (deterministic across runs and platforms, unlike
/// `DefaultHasher`).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher in its initial state.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Folds one byte into the digest.
    pub fn write_u8(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Folds a byte slice into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Folds a word into the digest (little-endian).
    pub fn write_u64(&mut self, word: u64) {
        self.write_bytes(&word.to_le_bytes());
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// One scheduling decision in an explored interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// Fire the pending event with this queue sequence number.
    Event {
        /// The sequence number assigned to the event at insertion; stable
        /// across replays of the same prefix because the world is
        /// deterministic.
        seq: u64,
    },
    /// Crash a process (silent fail-stop) before firing anything else.
    Crash {
        /// The process to crash.
        pid: ProcessId,
    },
}

impl Choice {
    /// The compact token form used in persisted counterexamples:
    /// `e<seq>` for events, `c<pid>` for crashes.
    pub fn token(&self) -> String {
        match *self {
            Choice::Event { seq } => format!("e{seq}"),
            Choice::Crash { pid } => format!("c{}", pid.0),
        }
    }

    /// Parses a token produced by [`Choice::token`].
    pub fn from_token(token: &str) -> Option<Choice> {
        let (kind, num) = token.split_at(1.min(token.len()));
        let value: u64 = num.parse().ok()?;
        match kind {
            "e" => Some(Choice::Event { seq: value }),
            "c" => Some(Choice::Crash {
                pid: ProcessId(value),
            }),
            _ => None,
        }
    }
}

/// Bounds and options for one exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum choices per schedule (depth of the exploration tree).
    pub max_depth: usize,
    /// Total budget of schedules (tree nodes) to expand; exploration stops
    /// with [`ExploreReport::truncated`] set once it is exhausted.
    pub max_schedules: u64,
    /// Processes a [`Choice::Crash`] may target.
    pub crash_candidates: Vec<ProcessId>,
    /// How many crashes a single schedule may contain.
    pub max_crashes: usize,
    /// Skip expanding states whose [`World::state_digest`] was already
    /// visited under another interleaving.
    pub prune_equivalent_states: bool,
    /// Worker threads exploring the schedule tree. `1` (the default) is
    /// the plain sequential depth-first search; more spread the tree over
    /// a work-stealing fleet (see the module docs for the determinism
    /// guarantees that survive parallelism).
    pub workers: usize,
    /// When set, any [`Violation`] is appended to this file as a JSONL
    /// counterexample record (see [`load_counterexamples`]).
    pub replay_file: Option<PathBuf>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_depth: 12,
            max_schedules: 10_000,
            crash_candidates: Vec::new(),
            max_crashes: 0,
            prune_equivalent_states: true,
            workers: 1,
            replay_file: None,
        }
    }
}

/// An invariant violation, with the exact schedule that produced it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The choice sequence leading to the violation; feed it to [`replay`]
    /// on a fresh factory-built world to reproduce the failing state.
    pub schedule: Vec<Choice>,
    /// The invariant's error message.
    pub message: String,
    /// Virtual time at which the invariant failed.
    pub time: SimTime,
}

/// Statistics and outcome of one exploration.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Schedules (exploration-tree nodes) expanded.
    pub schedules: u64,
    /// Total choices applied across all replays.
    pub steps: u64,
    /// States skipped because their digest was already visited.
    pub pruned: u64,
    /// Longest schedule reached.
    pub max_depth_reached: usize,
    /// `true` when the schedule budget ran out before the bounded state
    /// space was exhausted.
    pub truncated: bool,
    /// The first invariant violation found, if any. For parallel runs this
    /// is the violation with the lexicographically smallest choice-index
    /// path — the one sequential depth-first order reports first.
    pub violation: Option<Violation>,
}

/// Explores interleavings of the world built by `factory`, checking
/// `invariant` after every applied choice. Stops at the first violation
/// (sequential) or reports the deterministically-first one (parallel).
///
/// `factory` must be deterministic: every call must produce an identically
/// behaving world (same topology, seed, spawns and injections) — that is
/// what makes recorded schedules replayable. Both closures are shared
/// across worker threads, hence the `Sync` bounds; worlds themselves never
/// leave the thread that built them.
pub fn explore<F, I>(factory: F, config: &ExploreConfig, invariant: I) -> ExploreReport
where
    F: Fn() -> World + Sync,
    I: Fn(&World) -> Result<(), String> + Sync,
{
    let report = if config.workers > 1 {
        explore_parallel(&factory, config, &invariant)
    } else {
        explore_sequential(&factory, config, &invariant)
    };
    if let (Some(violation), Some(path)) = (&report.violation, &config.replay_file) {
        // Persisting is optional: a failed write (a read-only filesystem,
        // say) must not mask the violation itself.
        let _ = append_counterexample(path, "explore", violation);
    }
    report
}

fn explore_sequential<F, I>(factory: &F, config: &ExploreConfig, invariant: &I) -> ExploreReport
where
    F: Fn() -> World,
    I: Fn(&World) -> Result<(), String>,
{
    let mut report = ExploreReport::default();
    let mut visited: BTreeSet<u64> = BTreeSet::new();
    // DFS over schedule prefixes; each node re-executes its prefix from a
    // fresh world (actors are not cloneable, re-execution is the snapshot).
    let mut stack: Vec<Vec<Choice>> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        if report.schedules >= config.max_schedules {
            report.truncated = true;
            break;
        }
        report.schedules += 1;
        report.max_depth_reached = report.max_depth_reached.max(prefix.len());

        let mut world = factory();
        let mut crashes = 0usize;
        for (applied, choice) in prefix.iter().enumerate() {
            if !apply_choice(&mut world, choice) {
                report.violation = Some(divergence_violation(&world, &prefix, applied, choice));
                return report;
            }
            report.steps += 1;
            if matches!(choice, Choice::Crash { .. }) {
                crashes += 1;
            }
            if let Err(message) = invariant(&world) {
                report.violation = Some(Violation {
                    schedule: prefix[..=applied].to_vec(),
                    message,
                    time: world.now(),
                });
                return report;
            }
        }

        if config.prune_equivalent_states {
            if let Some(digest) = world.state_digest() {
                if !visited.insert(digest) {
                    report.pruned += 1;
                    continue;
                }
            }
        }
        if prefix.len() >= config.max_depth {
            continue;
        }
        // Reverse so the natural (earliest-first) choice is explored first.
        for choice in enumerate_choices(&world, crashes, config).into_iter().rev() {
            let mut next = Vec::with_capacity(prefix.len() + 1);
            next.extend_from_slice(&prefix);
            next.push(choice);
            stack.push(next);
        }
    }
    report
}

/// One unexplored node of the schedule tree: the choice prefix to replay
/// plus the choice-*index* path that identifies its position in the tree
/// (the lexicographic order of paths equals sequential DFS preorder).
struct WorkItem {
    prefix: Vec<Choice>,
    path: Vec<u32>,
}

/// Lock shards for the visited digest set — enough to keep 4–16 workers
/// off each other's locks without per-insert allocation.
const VISITED_SHARDS: usize = 16;

/// Everything the worker fleet shares. Locks guard coarse structures
/// (deques, digest shards, the best violation); counters are atomics.
struct Fleet {
    deques: Vec<Mutex<VecDeque<WorkItem>>>,
    visited: Vec<Mutex<BTreeSet<u64>>>,
    /// Tree nodes not yet fully processed; 0 means the tree is drained.
    outstanding: AtomicU64,
    schedules: AtomicU64,
    steps: AtomicU64,
    pruned: AtomicU64,
    max_depth_reached: AtomicU64,
    truncated: AtomicBool,
    /// The minimal-path violation found so far.
    best: Mutex<Option<(Vec<u32>, Violation)>>,
}

impl Fleet {
    fn new(workers: usize) -> Self {
        Fleet {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            visited: (0..VISITED_SHARDS)
                .map(|_| Mutex::new(BTreeSet::new()))
                .collect(),
            outstanding: AtomicU64::new(0),
            schedules: AtomicU64::new(0),
            steps: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            max_depth_reached: AtomicU64::new(0),
            truncated: AtomicBool::new(false),
            best: Mutex::new(None),
        }
    }

    /// Records `violation` if its path is lexicographically smaller than
    /// the best known one.
    fn offer_violation(&self, path: Vec<u32>, violation: Violation) {
        let mut best = self.best.lock().expect("violation lock");
        match &*best {
            Some((existing, _)) if *existing <= path => {}
            _ => *best = Some((path, violation)),
        }
    }

    /// Whether a subtree rooted at `path` could still contain a violation
    /// smaller than the best known one.
    fn can_improve(&self, path: &[u32]) -> bool {
        match &*self.best.lock().expect("violation lock") {
            Some((existing, _)) => path < &existing[..],
            None => true,
        }
    }

    /// Claims one schedule from the budget; `false` means the budget is
    /// exhausted (and the run is marked truncated).
    fn claim_schedule(&self, budget: u64) -> bool {
        let claimed = self
            .schedules
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                if n >= budget {
                    None
                } else {
                    Some(n + 1)
                }
            })
            .is_ok();
        if !claimed {
            self.truncated.store(true, Ordering::SeqCst);
        }
        claimed
    }

    fn pop_or_steal(&self, me: usize) -> Option<WorkItem> {
        if let Some(item) = self.deques[me].lock().expect("deque lock").pop_back() {
            return Some(item);
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (me + offset) % n;
            if let Some(item) = self.deques[victim].lock().expect("deque lock").pop_front() {
                return Some(item);
            }
        }
        None
    }
}

fn explore_parallel<F, I>(factory: &F, config: &ExploreConfig, invariant: &I) -> ExploreReport
where
    F: Fn() -> World + Sync,
    I: Fn(&World) -> Result<(), String> + Sync,
{
    let fleet = Fleet::new(config.workers);
    fleet.outstanding.store(1, Ordering::SeqCst);
    fleet.deques[0]
        .lock()
        .expect("deque lock")
        .push_back(WorkItem {
            prefix: Vec::new(),
            path: Vec::new(),
        });

    std::thread::scope(|scope| {
        for me in 0..config.workers {
            let fleet = &fleet;
            scope.spawn(move || loop {
                let Some(item) = fleet.pop_or_steal(me) else {
                    if fleet.outstanding.load(Ordering::SeqCst) == 0 {
                        break;
                    }
                    std::thread::yield_now();
                    continue;
                };
                process_item(fleet, me, item, factory, config, invariant);
                fleet.outstanding.fetch_sub(1, Ordering::SeqCst);
            });
        }
    });

    let (_, violation) = fleet
        .best
        .into_inner()
        .expect("violation lock")
        .map(|(path, v)| (path, Some(v)))
        .unwrap_or((Vec::new(), None));
    ExploreReport {
        schedules: fleet.schedules.load(Ordering::SeqCst),
        steps: fleet.steps.load(Ordering::SeqCst),
        pruned: fleet.pruned.load(Ordering::SeqCst),
        max_depth_reached: fleet.max_depth_reached.load(Ordering::SeqCst) as usize,
        truncated: fleet.truncated.load(Ordering::SeqCst),
        violation,
    }
}

/// Replays one work item on a fresh world, records any violation, and
/// expands its children onto this worker's deque.
fn process_item<F, I>(
    fleet: &Fleet,
    me: usize,
    item: WorkItem,
    factory: &F,
    config: &ExploreConfig,
    invariant: &I,
) where
    F: Fn() -> World,
    I: Fn(&World) -> Result<(), String>,
{
    // A subtree that cannot beat the best violation is dead weight: any
    // violation inside it sits at a path ≥ its root's path.
    if !fleet.can_improve(&item.path) && !item.path.is_empty() {
        return;
    }
    if !fleet.claim_schedule(config.max_schedules) {
        return;
    }
    fleet
        .max_depth_reached
        .fetch_max(item.prefix.len() as u64, Ordering::SeqCst);

    let mut world = factory();
    let mut crashes = 0usize;
    for (applied, choice) in item.prefix.iter().enumerate() {
        if !apply_choice(&mut world, choice) {
            let violation = divergence_violation(&world, &item.prefix, applied, choice);
            fleet.offer_violation(item.path[..=applied].to_vec(), violation);
            return;
        }
        fleet.steps.fetch_add(1, Ordering::Relaxed);
        if matches!(choice, Choice::Crash { .. }) {
            crashes += 1;
        }
        if let Err(message) = invariant(&world) {
            fleet.offer_violation(
                item.path[..=applied].to_vec(),
                Violation {
                    schedule: item.prefix[..=applied].to_vec(),
                    message,
                    time: world.now(),
                },
            );
            return;
        }
    }

    if config.prune_equivalent_states {
        if let Some(digest) = world.state_digest() {
            let shard = (digest as usize) % VISITED_SHARDS;
            if !fleet.visited[shard]
                .lock()
                .expect("visited lock")
                .insert(digest)
            {
                fleet.pruned.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
    if item.prefix.len() >= config.max_depth {
        return;
    }
    let choices = enumerate_choices(&world, crashes, config);
    if choices.is_empty() {
        return;
    }
    fleet
        .outstanding
        .fetch_add(choices.len() as u64, Ordering::SeqCst);
    let mut deque = fleet.deques[me].lock().expect("deque lock");
    // Reversed push keeps the earliest-first child at the back (this
    // worker's next pop), so each worker walks its subtree in sequential
    // DFS order; thieves take from the front — the farthest subtree.
    for (index, choice) in choices.into_iter().enumerate().rev() {
        let mut prefix = Vec::with_capacity(item.prefix.len() + 1);
        prefix.extend_from_slice(&item.prefix);
        prefix.push(choice);
        let mut path = Vec::with_capacity(item.path.len() + 1);
        path.extend_from_slice(&item.path);
        path.push(index as u32);
        deque.push_back(WorkItem { prefix, path });
    }
}

/// A stale seq during replay can only mean the factory is not
/// deterministic; surface it as a violation rather than exploring garbage.
fn divergence_violation(
    world: &World,
    prefix: &[Choice],
    applied: usize,
    choice: &Choice,
) -> Violation {
    Violation {
        schedule: prefix[..=applied].to_vec(),
        message: format!(
            "schedule replay diverged at step {applied} ({choice:?}): \
             the factory world is not deterministic"
        ),
        time: world.now(),
    }
}

/// Replays a recorded schedule on a fresh factory-built world, e.g. to
/// inspect the state a [`Violation`] leads to. Returns how many choices
/// applied cleanly (all of them, if the factory matches the recording).
pub fn replay(world: &mut World, schedule: &[Choice]) -> usize {
    let mut applied = 0;
    for choice in schedule {
        if !apply_choice(world, choice) {
            break;
        }
        applied += 1;
    }
    applied
}

fn apply_choice(world: &mut World, choice: &Choice) -> bool {
    match *choice {
        Choice::Event { seq } => world.step_seq(seq),
        Choice::Crash { pid } => {
            world.crash_process_now(pid);
            true
        }
    }
}

fn enumerate_choices(world: &World, crashes: usize, config: &ExploreConfig) -> Vec<Choice> {
    let pending = world.pending_events();
    let mut choices = Vec::new();
    if let Some(first) = pending.first() {
        choices.push(Choice::Event { seq: first.seq });
        for ev in &pending[1..] {
            if ev.is_deliver {
                choices.push(Choice::Event { seq: ev.seq });
            }
        }
    }
    // Crashes are offered even over an empty queue: a crash after the
    // protocol quiesces (and everything it then triggers) is a reachable —
    // and historically bug-rich — corner of the space.
    if crashes < config.max_crashes {
        for &pid in &config.crash_candidates {
            if world.is_alive(pid) {
                choices.push(Choice::Crash { pid });
            }
        }
    }
    choices
}

// ---- counterexample persistence -------------------------------------------

/// One persisted counterexample, parsed back from a JSONL replay file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedCounterexample {
    /// The harness label the violation was recorded under.
    pub label: String,
    /// The invariant's error message.
    pub message: String,
    /// Virtual time of the violation, µs.
    pub time_us: u64,
    /// The schedule to [`replay`] on a fresh factory-built world.
    pub schedule: Vec<Choice>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let code: String = (&mut chars).take(4).collect();
                if let Some(c) = u32::from_str_radix(&code, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

/// Serializes one violation as a single JSONL record.
pub fn counterexample_record(label: &str, violation: &Violation) -> String {
    let tokens: Vec<String> = violation
        .schedule
        .iter()
        .map(|c| format!("\"{}\"", c.token()))
        .collect();
    format!(
        "{{\"label\":\"{}\",\"message\":\"{}\",\"time_us\":{},\"schedule\":[{}]}}",
        json_escape(label),
        json_escape(&violation.message),
        violation.time.as_micros(),
        tokens.join(",")
    )
}

/// Appends one violation to `path` as a JSONL counterexample record,
/// creating the file (and parent directory) if needed.
pub fn append_counterexample(
    path: &Path,
    label: &str,
    violation: &Violation,
) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{}", counterexample_record(label, violation))
}

/// Extracts the raw (still escaped) value of `"key":"…"` from a JSON line.
fn raw_str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let mut end = 0;
    let bytes = rest.as_bytes();
    while end < bytes.len() {
        match bytes[end] {
            b'\\' => end += 2,
            b'"' => return Some(&rest[..end]),
            _ => end += 1,
        }
    }
    None
}

fn u64_field(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn schedule_field(line: &str) -> Option<Vec<Choice>> {
    let needle = "\"schedule\":[";
    let start = line.find(needle)? + needle.len();
    let end = start + line[start..].find(']')?;
    let mut schedule = Vec::new();
    for token in line[start..end].split(',') {
        let token = token.trim().trim_matches('"');
        if token.is_empty() {
            continue;
        }
        schedule.push(Choice::from_token(token)?);
    }
    Some(schedule)
}

/// Parses a JSONL replay file written via [`append_counterexample`].
/// Malformed lines are skipped (the file may interleave records from
/// several runs).
pub fn load_counterexamples(path: &Path) -> std::io::Result<Vec<RecordedCounterexample>> {
    let file = std::fs::File::open(path)?;
    let mut records = Vec::new();
    for line in std::io::BufReader::new(file).lines() {
        let line = line?;
        let (Some(label), Some(message), Some(time_us), Some(schedule)) = (
            raw_str_field(&line, "label"),
            raw_str_field(&line, "message"),
            u64_field(&line, "time_us"),
            schedule_field(&line),
        ) else {
            continue;
        };
        records.push(RecordedCounterexample {
            label: json_unescape(label),
            message: json_unescape(message),
            time_us,
            schedule,
        });
    }
    Ok(records)
}

impl World {
    /// Systematically explores interleavings of worlds built by `factory`
    /// under `config`, checking `invariant` after every step. See the
    /// [module docs](crate::explore) for semantics.
    pub fn explore<F, I>(factory: F, config: &ExploreConfig, invariant: I) -> ExploreReport
    where
        F: Fn() -> World + Sync,
        I: Fn(&World) -> Result<(), String> + Sync,
    {
        explore(factory, config, invariant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{downcast_payload, Actor, Context, Payload};
    use crate::topology::{NodeId, Topology};

    #[derive(Debug)]
    struct Tag(u64);
    impl Payload for Tag {
        fn wire_size(&self) -> usize {
            8
        }
        fn digest(&self) -> Option<u64> {
            Some(self.0)
        }
    }

    /// Records the order in which tags arrive.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<u64>,
    }
    impl Actor for Recorder {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, p: Box<dyn Payload>) {
            if let Ok(tag) = downcast_payload::<Tag>(p) {
                self.seen.push(tag.0);
            }
        }
    }
    /// Like [`Recorder`], but participates in state-hash pruning.
    #[derive(Default)]
    struct DigestRecorder {
        seen: Vec<u64>,
    }
    impl Actor for DigestRecorder {
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, p: Box<dyn Payload>) {
            if let Ok(tag) = downcast_payload::<Tag>(p) {
                self.seen.push(tag.0);
            }
        }
        fn state_digest(&self) -> Option<u64> {
            let mut h = Fnv64::new();
            for &t in &self.seen {
                h.write_u64(t);
            }
            Some(h.finish())
        }
    }

    fn two_message_world() -> World {
        let mut world = World::new(Topology::full_mesh(1), 7);
        let pid = world.spawn(NodeId(0), Box::new(Recorder::default()));
        world.inject(pid, Tag(1));
        world.inject(pid, Tag(2));
        world
    }

    fn reorder_invariant(w: &World) -> Result<(), String> {
        let rec = w.actor_ref::<Recorder>(ProcessId(0)).expect("recorder");
        if rec.seen == [2, 1] {
            Err("tag 2 arrived before tag 1".into())
        } else {
            Ok(())
        }
    }

    #[test]
    fn explores_both_orders_of_two_concurrent_messages() {
        // The invariant rejects the reordered arrival 2-before-1, which the
        // default schedule never produces — only exploration can find it.
        let config = ExploreConfig {
            max_depth: 4,
            prune_equivalent_states: false,
            ..ExploreConfig::default()
        };
        let report = World::explore(two_message_world, &config, reorder_invariant);
        let violation = report.violation.expect("reordering must be found");
        // The counterexample replays to exactly the reported state.
        let mut world = two_message_world();
        assert_eq!(
            replay(&mut world, &violation.schedule),
            violation.schedule.len()
        );
        assert_eq!(
            world.actor_ref::<Recorder>(ProcessId(0)).unwrap().seen,
            vec![2, 1]
        );
    }

    #[test]
    fn clean_invariant_exhausts_the_bounded_space() {
        let config = ExploreConfig {
            max_depth: 4,
            prune_equivalent_states: false,
            ..ExploreConfig::default()
        };
        let report = World::explore(two_message_world, &config, |_| Ok(()));
        assert!(report.violation.is_none());
        assert!(!report.truncated);
        // Root, two first choices, one second choice each, plus the Start
        // event interleavings around them: at minimum both full orders ran.
        assert!(report.schedules >= 5, "schedules = {}", report.schedules);
    }

    #[test]
    fn pruning_merges_reconverging_interleavings() {
        // Two messages to two *different* actors commute: both orders reach
        // the same final state, which pruning should expand only once.
        let factory = || {
            let mut world = World::new(Topology::full_mesh(1), 7);
            let a = world.spawn(NodeId(0), Box::new(DigestRecorder::default()));
            let b = world.spawn(NodeId(0), Box::new(DigestRecorder::default()));
            world.inject(a, Tag(1));
            world.inject(b, Tag(2));
            world
        };
        let unpruned = ExploreConfig {
            max_depth: 6,
            prune_equivalent_states: false,
            ..ExploreConfig::default()
        };
        let pruned = ExploreConfig {
            prune_equivalent_states: true,
            ..unpruned.clone()
        };
        let full = World::explore(factory, &unpruned, |_| Ok(()));
        let reduced = World::explore(factory, &pruned, |_| Ok(()));
        assert!(full.violation.is_none() && reduced.violation.is_none());
        assert!(reduced.pruned > 0, "{reduced:?}");
        assert!(
            reduced.schedules < full.schedules,
            "pruned {} vs full {}",
            reduced.schedules,
            full.schedules
        );
    }

    #[test]
    fn crash_choices_are_injected_at_every_point() {
        // A crash of the recorder before both tags arrive is only reachable
        // through a Crash choice; the invariant flags the half-delivered
        // crash state.
        let config = ExploreConfig {
            max_depth: 5,
            crash_candidates: vec![ProcessId(0)],
            max_crashes: 1,
            prune_equivalent_states: false,
            ..ExploreConfig::default()
        };
        let report = World::explore(two_message_world, &config, |w| {
            let rec = w.actor_ref::<Recorder>(ProcessId(0)).expect("recorder");
            if !w.is_alive(ProcessId(0)) && rec.seen.len() == 1 {
                Err(format!("crashed after a partial delivery: {:?}", rec.seen))
            } else {
                Ok(())
            }
        });
        let violation = report.violation.expect("crash window must be found");
        assert!(violation
            .schedule
            .iter()
            .any(|c| matches!(c, Choice::Crash { .. })));
    }

    #[test]
    fn crash_after_quiesce_is_reachable() {
        // Regression: crashes used to be offered only while the event queue
        // was non-empty, so "everything delivered, then the process dies"
        // was unreachable. The only way to observe both tags seen AND the
        // recorder dead is a crash after the queue has drained.
        let config = ExploreConfig {
            max_depth: 6,
            crash_candidates: vec![ProcessId(0)],
            max_crashes: 1,
            prune_equivalent_states: false,
            ..ExploreConfig::default()
        };
        let report = World::explore(two_message_world, &config, |w| {
            let rec = w.actor_ref::<Recorder>(ProcessId(0)).expect("recorder");
            if !w.is_alive(ProcessId(0)) && rec.seen == [1, 2] {
                Err("crashed after full quiesce".into())
            } else {
                Ok(())
            }
        });
        let violation = report.violation.expect("crash-after-quiesce reachable");
        assert!(matches!(
            violation.schedule.last(),
            Some(Choice::Crash { .. })
        ));
    }

    #[test]
    fn parallel_reports_the_same_first_violation_as_sequential() {
        let sequential = ExploreConfig {
            max_depth: 4,
            prune_equivalent_states: false,
            ..ExploreConfig::default()
        };
        let parallel = ExploreConfig {
            workers: 4,
            ..sequential.clone()
        };
        let seq = World::explore(two_message_world, &sequential, reorder_invariant);
        let par = World::explore(two_message_world, &parallel, reorder_invariant);
        let sv = seq.violation.expect("sequential finds the reorder");
        let pv = par.violation.expect("parallel finds the reorder");
        assert_eq!(sv.schedule, pv.schedule, "deterministic first violation");
        assert_eq!(sv.message, pv.message);
        assert_eq!(sv.time, pv.time);
    }

    #[test]
    fn parallel_exhausts_the_same_space_when_clean() {
        let sequential = ExploreConfig {
            max_depth: 4,
            prune_equivalent_states: false,
            ..ExploreConfig::default()
        };
        let parallel = ExploreConfig {
            workers: 3,
            ..sequential.clone()
        };
        let seq = World::explore(two_message_world, &sequential, |_| Ok(()));
        let par = World::explore(two_message_world, &parallel, |_| Ok(()));
        assert!(par.violation.is_none());
        assert!(!par.truncated);
        // A clean unpruned run visits exactly the same tree, whatever the
        // worker count.
        assert_eq!(seq.schedules, par.schedules);
        assert_eq!(seq.steps, par.steps);
        assert_eq!(seq.max_depth_reached, par.max_depth_reached);
    }

    #[test]
    fn choice_tokens_round_trip() {
        for choice in [
            Choice::Event { seq: 0 },
            Choice::Event { seq: 918 },
            Choice::Crash { pid: ProcessId(4) },
        ] {
            assert_eq!(Choice::from_token(&choice.token()), Some(choice));
        }
        assert_eq!(Choice::from_token("x9"), None);
        assert_eq!(Choice::from_token(""), None);
        assert_eq!(Choice::from_token("e"), None);
    }

    #[test]
    fn counterexamples_persist_and_replay_from_file() {
        // Unique-enough scratch path without clock or RNG access.
        let dir = std::env::temp_dir().join(format!("vd-explore-test-{}", std::process::id()));
        let path = dir.join("counterexamples.jsonl");
        let _ = std::fs::remove_file(&path);
        let config = ExploreConfig {
            max_depth: 4,
            prune_equivalent_states: false,
            replay_file: Some(path.clone()),
            ..ExploreConfig::default()
        };
        let report = World::explore(two_message_world, &config, reorder_invariant);
        let violation = report.violation.expect("violation found");

        let records = load_counterexamples(&path).expect("replay file written");
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].label, "explore");
        assert_eq!(records[0].message, violation.message);
        assert_eq!(records[0].schedule, violation.schedule);
        assert_eq!(records[0].time_us, violation.time.as_micros());

        // The persisted schedule replays to the exact failing state.
        let mut world = two_message_world();
        assert_eq!(
            replay(&mut world, &records[0].schedule),
            records[0].schedule.len()
        );
        assert_eq!(
            world.actor_ref::<Recorder>(ProcessId(0)).unwrap().seen,
            vec![2, 1]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn record_escaping_round_trips() {
        let violation = Violation {
            schedule: vec![
                Choice::Event { seq: 3 },
                Choice::Crash { pid: ProcessId(1) },
            ],
            message: "lost \"op\"\n\tback\\slash".into(),
            time: SimTime::from_micros(42),
        };
        let line = counterexample_record("double-fault", &violation);
        let file = std::env::temp_dir().join(format!("vd-explore-esc-{}", std::process::id()));
        std::fs::write(&file, format!("{line}\ngarbage not json\n")).unwrap();
        let records = load_counterexamples(&file).unwrap();
        assert_eq!(records.len(), 1, "malformed lines are skipped");
        assert_eq!(records[0].label, "double-fault");
        assert_eq!(records[0].message, violation.message);
        assert_eq!(records[0].schedule, violation.schedule);
        let _ = std::fs::remove_file(&file);
    }
}
