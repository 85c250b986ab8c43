//! The sanitizer's global state: per-thread vector clocks, the lock-order
//! graph, per-cell access histories, channel liveness counters, and the
//! event log. Only compiled with the `sanitize` feature; every entry point
//! is a no-op unless [`crate::enable`] has been called.
//!
//! **Happens-before model.** Each thread carries a vector clock. Tracked
//! locks join the releaser's clock into the next acquirer; tracked channel
//! messages carry the sender's clock to the receiver; tracked barriers
//! join all participants. Thread-creation edges are approximated: a
//! thread's clock starts at the join of every clock live at its first
//! tracked operation (the stack spawns workers from a coordinating thread,
//! so this matches the real spawn edge in practice).

use crate::report::{Diagnostic, Event, Report, Severity};
use crate::report::{
    S_DATA_RACE, S_LOCK_CYCLE, S_LOST_MESSAGES, S_RECV_STUCK, S_SEND_DISCONNECTED,
    W_QUEUE_WATERMARK,
};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// A vector clock, indexed by sanitizer thread id.
pub(crate) type Vc = Vec<u32>;

fn join(a: &mut Vc, b: &Vc) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    for (i, &v) in b.iter().enumerate() {
        if a[i] < v {
            a[i] = v;
        }
    }
}

/// `true` iff the event at `(thread, clock)` happened-before the owner of
/// `vc` (or is the owner's own past).
fn ordered(vc: &Vc, thread: usize, clock: u32) -> bool {
    vc.get(thread).copied().unwrap_or(0) >= clock
}

/// Default unbounded-queue high-watermark (see `W201`).
pub(crate) const DEFAULT_WATERMARK: u64 = 8192;
const MAX_EVENTS: usize = 65536;

/// How a tracked lock is being taken, for reentrancy checks.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum LockMode {
    Excl,
    Read,
}

/// How a [`crate::SharedCell`] is being touched.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum CellAccess {
    /// `read_with`/`get`: must be ordered after every write.
    Read,
    /// `update`: a combining write — unordered with other updates by
    /// design, but must be ordered with reads and exclusive writes.
    Update,
    /// `set`: an exclusive write — must be ordered after everything.
    Set,
}

struct ThreadInfo {
    vc: Vc,
    /// Lock ids currently held (with the mode they were taken in).
    held: Vec<(usize, LockMode)>,
}

struct LockInfo {
    label: &'static str,
    release_vc: Vc,
}

struct CellInfo {
    label: &'static str,
    /// Last exclusive write, as `(thread, clock)`.
    excl: Option<(usize, u32)>,
    /// Last combining write per thread.
    writes: HashMap<usize, u32>,
    /// Last read per thread.
    reads: HashMap<usize, u32>,
}

/// Liveness counters shared between a channel's handles and the global
/// state (via a weak registration, so dropped channels disappear).
pub(crate) struct ChanInfo {
    pub(crate) label: &'static str,
    pub(crate) bounded: Option<usize>,
    /// Messages currently queued (tracked by the wrappers; the underlying
    /// channel is not consulted so tracking never perturbs it).
    pub(crate) len: AtomicI64,
    /// Highest queue length ever observed at a send.
    pub(crate) hwm: AtomicU64,
    /// Live tracked receivers.
    pub(crate) receivers: AtomicUsize,
    /// Receivers currently blocked inside `recv()`.
    pub(crate) receiving: AtomicUsize,
}

#[derive(Default)]
struct State {
    threads: Vec<ThreadInfo>,
    locks: Vec<LockInfo>,
    cells: Vec<CellInfo>,
    /// Lock-order edges `(held label, acquired label)` → first witness.
    order: HashMap<(&'static str, &'static str), String>,
    channels: Vec<Weak<ChanInfo>>,
    diagnostics: Vec<Diagnostic>,
    /// Dedup keys for event-driven diagnostics (one finding per site/kind).
    emitted: HashSet<String>,
    events: Vec<Event>,
    events_dropped: u64,
    seq: u64,
    watermark: u64,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(State {
            watermark: DEFAULT_WATERMARK,
            ..State::default()
        })
    })
}

thread_local! {
    static TID: std::cell::Cell<u32> = const { std::cell::Cell::new(u32::MAX) };
}

/// This thread's dense id, registering it on first use. A new thread's
/// clock starts at the join of all live clocks (approximate spawn edge).
fn tid(st: &mut State) -> usize {
    let cached = TID.with(|c| c.get());
    if cached != u32::MAX {
        return cached as usize;
    }
    let mut vc = Vc::new();
    for th in &st.threads {
        join(&mut vc, &th.vc);
    }
    let id = st.threads.len();
    if vc.len() <= id {
        vc.resize(id + 1, 0);
    }
    vc[id] = 1;
    st.threads.push(ThreadInfo {
        vc,
        held: Vec::new(),
    });
    TID.with(|c| c.set(id as u32));
    id
}

fn record_event(st: &mut State, thread: usize, kind: &'static str, site: &'static str) {
    st.seq += 1;
    if st.events.len() >= MAX_EVENTS {
        st.events_dropped += 1;
        return;
    }
    let seq = st.seq;
    st.events.push(Event {
        seq,
        thread: thread as u32,
        kind,
        site,
    });
}

fn push_diag(
    st: &mut State,
    code: &'static str,
    severity: Severity,
    sites: Vec<String>,
    message: String,
) {
    let key = format!("{code}:{}:{message}", sites.join("|"));
    if st.emitted.insert(key) {
        st.diagnostics.push(Diagnostic {
            code,
            severity,
            sites,
            message,
        });
    }
}

// ---------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------

pub(crate) fn register_lock(label: &'static str) -> usize {
    let mut st = state().lock();
    st.locks.push(LockInfo {
        label,
        release_vc: Vc::new(),
    });
    st.locks.len() - 1
}

/// Called before blocking on the underlying lock: records the event,
/// extends the lock-order graph with `held → acquired` edges, and flags
/// same-instance reentrancy (an immediate self-deadlock).
pub(crate) fn before_acquire(lock_id: usize, label: &'static str, mode: LockMode) {
    if !crate::enabled() {
        return;
    }
    let mut st = state().lock();
    let t = tid(&mut st);
    record_event(&mut st, t, "acquire", label);
    let held = st.threads[t].held.clone();
    for &(h, hmode) in &held {
        if h == lock_id && (mode == LockMode::Excl || hmode == LockMode::Excl) {
            let msg = format!(
                "thread t{t} re-acquires `{label}` while already holding it \
                 (self-deadlock on a non-reentrant lock)"
            );
            push_diag(
                &mut st,
                S_LOCK_CYCLE,
                Severity::Error,
                vec![label.to_string(), label.to_string()],
                msg,
            );
        }
        let from = st.locks[h].label;
        st.order
            .entry((from, label))
            .or_insert_with(|| format!("thread t{t} acquired `{label}` while holding `{from}`"));
    }
    st.threads[t].held.push((lock_id, mode));
}

/// Called once the underlying lock is held: joins the last release's clock
/// into the acquirer (the happens-before edge a lock provides).
pub(crate) fn after_acquire(lock_id: usize) {
    if !crate::enabled() {
        return;
    }
    let mut st = state().lock();
    let t = tid(&mut st);
    let rvc = st.locks[lock_id].release_vc.clone();
    join(&mut st.threads[t].vc, &rvc);
}

/// Called from guard drop, just before the underlying unlock.
pub(crate) fn on_release(lock_id: usize, label: &'static str) {
    if !crate::enabled() {
        return;
    }
    let mut st = state().lock();
    let t = tid(&mut st);
    record_event(&mut st, t, "release", label);
    if let Some(pos) = st.threads[t]
        .held
        .iter()
        .rposition(|&(id, _)| id == lock_id)
    {
        st.threads[t].held.remove(pos);
    }
    let tvc = st.threads[t].vc.clone();
    join(&mut st.locks[lock_id].release_vc, &tvc);
    st.threads[t].vc[t] += 1;
}

// ---------------------------------------------------------------------
// Barriers
// ---------------------------------------------------------------------

/// Called before the underlying `Barrier::wait`: contributes this thread's
/// clock to the round's gather slot. Returns the round to join after the
/// wait completes.
pub(crate) fn barrier_arrive(
    bar: &Mutex<BarrierRounds>,
    n: usize,
    label: &'static str,
) -> Option<u64> {
    if !crate::enabled() {
        return None;
    }
    let my_vc = {
        let mut st = state().lock();
        let t = tid(&mut st);
        record_event(&mut st, t, "barrier", label);
        st.threads[t].vc.clone()
    };
    let mut b = bar.lock();
    let round = b.round;
    let entry = b.gather.entry(round).or_insert_with(|| (0, Vc::new()));
    join(&mut entry.1, &my_vc);
    b.arrived += 1;
    if b.arrived == n {
        b.arrived = 0;
        b.round += 1;
    }
    Some(round)
}

/// Called after the underlying wait: joins the round's gathered clock into
/// this thread (every participant happens-before everyone's continuation).
pub(crate) fn barrier_depart(bar: &Mutex<BarrierRounds>, n: usize, round: u64) {
    let joined = {
        let mut b = bar.lock();
        let Some(entry) = b.gather.get_mut(&round) else {
            return;
        };
        entry.0 += 1;
        let vc = entry.1.clone();
        if entry.0 == n {
            b.gather.remove(&round);
        }
        vc
    };
    let mut st = state().lock();
    let t = tid(&mut st);
    join(&mut st.threads[t].vc, &joined);
    st.threads[t].vc[t] += 1;
}

/// Per-barrier gather state: round number → (departures so far, joined
/// clock). Kept per round so a fast thread racing two rounds ahead cannot
/// clobber a slot a slow thread has not read yet.
#[derive(Default)]
pub(crate) struct BarrierRounds {
    round: u64,
    arrived: usize,
    gather: HashMap<u64, (usize, Vc)>,
}

// ---------------------------------------------------------------------
// Channels
// ---------------------------------------------------------------------

/// Tracks a channel created while the sanitizer records; a channel made
/// outside any window is never reported, so its parked receivers cannot
/// surface in a later window. Channels dropped since are pruned here.
pub(crate) fn register_channel(info: &Arc<ChanInfo>) {
    if !crate::enabled() {
        return;
    }
    let mut st = state().lock();
    st.channels.retain(|w| w.strong_count() > 0);
    st.channels.push(Arc::downgrade(info));
}

/// Records a send and returns the clock snapshot to ship with the message.
pub(crate) fn on_send(site: &'static str) -> Vc {
    if !crate::enabled() {
        return Vc::new();
    }
    let mut st = state().lock();
    let t = tid(&mut st);
    record_event(&mut st, t, "send", site);
    let vc = st.threads[t].vc.clone();
    st.threads[t].vc[t] += 1;
    vc
}

pub(crate) fn on_send_disconnected(site: &'static str) {
    if !crate::enabled() {
        return;
    }
    let mut st = state().lock();
    let t = tid(&mut st);
    let msg = format!("thread t{t} sent on `{site}` after every receiver was dropped");
    push_diag(
        &mut st,
        S_SEND_DISCONNECTED,
        Severity::Error,
        vec![site.to_string()],
        msg,
    );
}

/// Records a successful receive, joining the sender's clock.
pub(crate) fn on_recv(msg_vc: &Vc, site: &'static str) {
    if !crate::enabled() {
        return;
    }
    let mut st = state().lock();
    let t = tid(&mut st);
    record_event(&mut st, t, "recv", site);
    join(&mut st.threads[t].vc, msg_vc);
}

/// Called when a channel's last receiver drops: queued messages are lost
/// (`S005`), and this is also the last chance to judge an unbounded
/// queue's high-watermark (`W201`) — the channel will be gone by report
/// time.
pub(crate) fn on_receiver_gone(site: &'static str, queued: i64, hwm: u64, bounded: bool) {
    if !crate::enabled() {
        return;
    }
    let mut st = state().lock();
    if queued > 0 {
        let msg =
            format!("last receiver of `{site}` dropped with {queued} message(s) still queued");
        push_diag(
            &mut st,
            S_LOST_MESSAGES,
            Severity::Error,
            vec![site.to_string()],
            msg,
        );
    }
    let watermark = st.watermark;
    if !bounded && hwm >= watermark {
        let msg = format!(
            "unbounded channel `{site}` reached a queue high-watermark of {hwm} \
             (threshold {watermark}); producers outpace consumers"
        );
        push_diag(
            &mut st,
            W_QUEUE_WATERMARK,
            Severity::Warning,
            vec![site.to_string()],
            msg,
        );
    }
}

// ---------------------------------------------------------------------
// Shared cells
// ---------------------------------------------------------------------

pub(crate) fn register_cell(label: &'static str) -> usize {
    let mut st = state().lock();
    st.cells.push(CellInfo {
        label,
        excl: None,
        writes: HashMap::new(),
        reads: HashMap::new(),
    });
    st.cells.len() - 1
}

pub(crate) fn on_cell_access(cell_id: usize, access: CellAccess) {
    if !crate::enabled() {
        return;
    }
    let mut st = state().lock();
    let t = tid(&mut st);
    let my_vc = st.threads[t].vc.clone();
    let my_clk = my_vc[t];
    let label = st.cells[cell_id].label;
    let kind = match access {
        CellAccess::Read => "cell.read",
        CellAccess::Update => "cell.update",
        CellAccess::Set => "cell.set",
    };
    record_event(&mut st, t, kind, label);

    // Gather conflicts before mutating the history.
    let mut conflicts: Vec<(usize, &'static str)> = Vec::new();
    {
        let cell = &st.cells[cell_id];
        if let Some((wt, wc)) = cell.excl {
            if wt != t && !ordered(&my_vc, wt, wc) {
                conflicts.push((wt, "exclusive write"));
            }
        }
        if access != CellAccess::Update {
            // reads and exclusive writes must be ordered after updates
            for (&wt, &wc) in &cell.writes {
                if wt != t && !ordered(&my_vc, wt, wc) {
                    conflicts.push((wt, "write"));
                }
            }
        }
        if access != CellAccess::Read {
            // any write must be ordered after every read
            for (&rt, &rc) in &cell.reads {
                if rt != t && !ordered(&my_vc, rt, rc) {
                    conflicts.push((rt, "read"));
                }
            }
        }
    }
    for (other, what) in conflicts {
        let verb = match access {
            CellAccess::Read => "read",
            CellAccess::Update => "update",
            CellAccess::Set => "set",
        };
        let msg = format!(
            "unordered access on `{label}`: thread t{t} {verb} races a prior {what} \
             by thread t{other} (no happens-before edge between them)"
        );
        push_diag(
            &mut st,
            S_DATA_RACE,
            Severity::Error,
            vec![label.to_string()],
            msg,
        );
    }

    let cell = &mut st.cells[cell_id];
    match access {
        CellAccess::Read => {
            cell.reads.insert(t, my_clk);
        }
        CellAccess::Update => {
            cell.writes.insert(t, my_clk);
        }
        CellAccess::Set => {
            cell.excl = Some((t, my_clk));
            cell.writes.clear();
            cell.reads.clear();
        }
    }
}

// ---------------------------------------------------------------------
// Report generation
// ---------------------------------------------------------------------

/// Finds lock-order cycles: for every edge `a → b`, if `b` reaches `a`
/// the edge closes a cycle; each distinct node set is reported once.
fn lock_cycles(order: &HashMap<(&'static str, &'static str), String>) -> Vec<Diagnostic> {
    let mut adj: HashMap<&str, Vec<&str>> = HashMap::new();
    for &(a, b) in order.keys() {
        adj.entry(a).or_default().push(b);
    }
    let mut seen: HashSet<BTreeSet<&str>> = HashSet::new();
    let mut out = Vec::new();
    for &(a, b) in order.keys() {
        // BFS from b looking for a, tracking parents to rebuild the path
        let mut parent: HashMap<&str, &str> = HashMap::new();
        let mut q = VecDeque::from([b]);
        let mut found = a == b;
        while let Some(n) = q.pop_front() {
            if found {
                break;
            }
            for &m in adj.get(n).into_iter().flatten() {
                if m == a {
                    parent.insert(m, n);
                    found = true;
                    break;
                }
                if !parent.contains_key(m) && m != b {
                    parent.insert(m, n);
                    q.push_back(m);
                }
            }
        }
        if !found {
            continue;
        }
        // path: a -> b -> ... -> a
        let mut cycle = vec![a, b];
        if a != b {
            let mut cur = a;
            let mut back = Vec::new();
            while let Some(&p) = parent.get(cur) {
                if p == b {
                    break;
                }
                back.push(p);
                cur = p;
            }
            back.reverse();
            cycle.extend(back);
            cycle.push(a);
        }
        let key: BTreeSet<&str> = cycle.iter().copied().collect();
        if !seen.insert(key) {
            continue;
        }
        let mut witnesses = Vec::new();
        for w in cycle.windows(2) {
            if let Some(msg) = order.get(&(w[0], w[1])) {
                witnesses.push(msg.clone());
            }
        }
        out.push(Diagnostic {
            code: S_LOCK_CYCLE,
            severity: Severity::Error,
            sites: cycle.iter().map(|s| s.to_string()).collect(),
            message: format!(
                "potential deadlock: lock-order cycle {}; {}",
                cycle
                    .iter()
                    .map(|s| format!("`{s}`"))
                    .collect::<Vec<_>>()
                    .join(" \u{2192} "),
                witnesses.join("; ")
            ),
        });
    }
    out
}

/// Drains all findings and resets the per-run analysis state (lock-order
/// edges, cell histories, watermarks, event log). Thread registrations and
/// clocks survive, so long-lived threads stay consistent across runs.
pub(crate) fn take_report() -> Report {
    let mut st = state().lock();
    let mut diagnostics = std::mem::take(&mut st.diagnostics);
    diagnostics.extend(lock_cycles(&st.order));

    let live: Vec<Arc<ChanInfo>> = st.channels.iter().filter_map(Weak::upgrade).collect();
    let watermark = st.watermark;
    for c in &live {
        let blocked = c.receiving.load(Ordering::SeqCst);
        if blocked > 0 {
            diagnostics.push(Diagnostic {
                code: S_RECV_STUCK,
                severity: Severity::Error,
                sites: vec![c.label.to_string()],
                message: format!(
                    "{blocked} receiver(s) of `{}` still blocked in recv() at report time",
                    c.label
                ),
            });
        }
        let hwm = c.hwm.load(Ordering::SeqCst);
        if c.bounded.is_none() && hwm >= watermark {
            diagnostics.push(Diagnostic {
                code: W_QUEUE_WATERMARK,
                severity: Severity::Warning,
                sites: vec![c.label.to_string()],
                message: format!(
                    "unbounded channel `{}` reached a queue high-watermark of {hwm} \
                     (threshold {watermark}); producers outpace consumers",
                    c.label
                ),
            });
        }
        c.hwm
            .store(c.len.load(Ordering::SeqCst).max(0) as u64, Ordering::SeqCst);
    }
    st.channels.retain(|w| w.strong_count() > 0);

    st.order.clear();
    st.emitted.clear();
    for th in &mut st.threads {
        th.held.clear();
    }
    for cell in &mut st.cells {
        cell.excl = None;
        cell.writes.clear();
        cell.reads.clear();
    }
    st.events.clear();
    st.events_dropped = 0;
    st.watermark = DEFAULT_WATERMARK;
    Report { diagnostics }
}

/// Copies out the event log without resetting analysis state.
pub(crate) fn events() -> (Vec<Event>, u64) {
    let st = state().lock();
    (st.events.clone(), st.events_dropped)
}

pub(crate) fn set_watermark(n: u64) {
    state().lock().watermark = n.max(1);
}

/// Receivers currently blocked in `recv()` across all live channels.
pub(crate) fn blocked_receivers() -> usize {
    let st = state().lock();
    st.channels
        .iter()
        .filter_map(Weak::upgrade)
        .map(|c| c.receiving.load(Ordering::SeqCst))
        .sum()
}
