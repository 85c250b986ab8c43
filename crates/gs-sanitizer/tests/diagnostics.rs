//! Seeded negative tests: deliberately broken concurrency fixtures that
//! must trip each diagnostic code, plus clean-protocol controls that must
//! not. Only meaningful with the instrumentation compiled in.
#![cfg(feature = "sanitize")]

use gs_sanitizer::channel;
use gs_sanitizer::{
    with_sanitizer, SharedCell, TrackedBarrier, TrackedMutex, S_DATA_RACE, S_LOCK_CYCLE,
    S_LOST_MESSAGES, S_RECV_STUCK, S_SEND_DISCONNECTED, W_QUEUE_WATERMARK,
};

// ---------------------------------------------------------------------
// S001 — lock-order cycles
// ---------------------------------------------------------------------

#[test]
fn s001_lock_order_cycle_reported() {
    // A → B in one region, B → A in another. Sequential in one thread, so
    // nothing actually deadlocks — exactly the "latent deadlock" the
    // lock-order graph exists to catch before two threads hit it at once.
    let (_, report) = with_sanitizer(1, || {
        let a = TrackedMutex::new("fixture.lock.a", ());
        let b = TrackedMutex::new("fixture.lock.b", ());
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _ga = a.lock();
        }
    });
    assert!(report.has_code(S_LOCK_CYCLE), "{}", report.render());
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == S_LOCK_CYCLE)
        .unwrap();
    // both sites attributed
    assert!(diag.sites.contains(&"fixture.lock.a".to_string()));
    assert!(diag.sites.contains(&"fixture.lock.b".to_string()));
    assert!(diag.message.contains("potential deadlock"), "{diag}");
}

#[test]
fn s001_three_lock_cycle_reported() {
    // a → b → c → a, each edge from a different nesting
    let (_, report) = with_sanitizer(2, || {
        let a = TrackedMutex::new("fixture.tri.a", ());
        let b = TrackedMutex::new("fixture.tri.b", ());
        let c = TrackedMutex::new("fixture.tri.c", ());
        {
            let _x = a.lock();
            let _y = b.lock();
        }
        {
            let _x = b.lock();
            let _y = c.lock();
        }
        {
            let _x = c.lock();
            let _y = a.lock();
        }
    });
    assert!(report.has_code(S_LOCK_CYCLE), "{}", report.render());
}

#[test]
fn consistent_lock_order_is_clean() {
    let (_, report) = with_sanitizer(3, || {
        let a = TrackedMutex::new("fixture.ordered.a", ());
        let b = TrackedMutex::new("fixture.ordered.b", ());
        for _ in 0..4 {
            let _ga = a.lock();
            let _gb = b.lock();
        }
    });
    assert!(report.is_clean(), "{}", report.render());
}

// ---------------------------------------------------------------------
// S002 — happens-before races on SharedCell
// ---------------------------------------------------------------------

/// Each thread must perform a tracked warm-up op before the racy access:
/// a thread's clock is initialised at its first tracked operation by
/// joining everything live (the approximate spawn edge), so an access at
/// first sight would be spuriously ordered. The post-gate bump advances
/// each thread's own clock past anything that join could have seen.
fn warmed_up(label: &'static str, gate: &std::sync::Barrier) -> TrackedMutex<()> {
    let warm = TrackedMutex::new(label, ());
    drop(warm.lock()); // register this thread with the sanitizer
    gate.wait(); // untracked: deliberately NOT a happens-before edge
    drop(warm.lock()); // bump own clock past any registration join
    warm
}

#[test]
fn s002_unordered_update_vs_read_reported() {
    let (_, report) = with_sanitizer(4, || {
        let cell = SharedCell::new("fixture.racy", 0u64);
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = warmed_up("fixture.warm.a", &gate);
                cell.update(|v| *v += 1);
            });
            s.spawn(|| {
                let _w = warmed_up("fixture.warm.b", &gate);
                let _ = cell.get();
            });
        });
    });
    assert!(report.has_code(S_DATA_RACE), "{}", report.render());
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == S_DATA_RACE)
        .unwrap();
    assert_eq!(diag.sites, vec!["fixture.racy".to_string()]);
}

#[test]
fn s002_unordered_set_vs_update_reported() {
    // the GRAPE aggregator bug this was built for: a reset (`set`) racing
    // a contribution (`update`) with no barrier between them
    let (_, report) = with_sanitizer(5, || {
        let cell = SharedCell::new("fixture.reset_race", 0u64);
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = warmed_up("fixture.warm.c", &gate);
                cell.update(|v| *v += 7);
            });
            s.spawn(|| {
                let _w = warmed_up("fixture.warm.d", &gate);
                cell.set(0);
            });
        });
    });
    assert!(report.has_code(S_DATA_RACE), "{}", report.render());
}

#[test]
fn concurrent_updates_alone_are_clean() {
    // combining writes are unordered by design (fetch_add-style)
    let (_, report) = with_sanitizer(6, || {
        let cell = SharedCell::new("fixture.combining", 0u64);
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for label in ["fixture.warm.e", "fixture.warm.f"] {
                s.spawn(|| {
                    let _w = warmed_up(label, &gate);
                    for _ in 0..100 {
                        cell.update(|v| *v += 1);
                    }
                });
            }
        });
        assert_eq!(cell.get(), 200);
    });
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn barrier_ordered_reset_is_clean() {
    // the correct double-buffer protocol: update → barrier → read →
    // barrier → leader reset; the TrackedBarrier provides the edges
    let (_, report) = with_sanitizer(7, || {
        let cell = SharedCell::new("fixture.protocol", 0u64);
        let barrier = TrackedBarrier::new("fixture.protocol.barrier", 2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..5 {
                        cell.update(|v| *v += 1);
                        barrier.wait();
                        assert_eq!(cell.get() % 2, 0);
                        if barrier.wait().is_leader() {
                            cell.set(0);
                        }
                        barrier.wait();
                    }
                });
            }
        });
    });
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn channel_ordered_read_is_clean() {
    // a tracked message carries the sender's clock: write → send → recv →
    // read is ordered
    let (_, report) = with_sanitizer(8, || {
        let cell = SharedCell::new("fixture.piped", 0u64);
        let (tx, rx) = channel::unbounded::<()>("fixture.pipe");
        std::thread::scope(|s| {
            s.spawn(|| {
                cell.update(|v| *v = 41);
                tx.send(()).unwrap();
            });
            s.spawn(|| {
                rx.recv().unwrap();
                assert_eq!(cell.get(), 41);
            });
        });
    });
    assert!(report.is_clean(), "{}", report.render());
}

// ---------------------------------------------------------------------
// S003 / S004 / S005 / W201 — channel liveness
// ---------------------------------------------------------------------

#[test]
fn s003_send_on_disconnected_reported() {
    let (send_result, report) = with_sanitizer(9, || {
        let (tx, rx) = channel::unbounded::<u64>("fixture.disconnected");
        drop(rx);
        tx.send(42)
    });
    assert!(send_result.is_err(), "send must surface the error too");
    assert_eq!(send_result.unwrap_err().0, 42, "payload is recoverable");
    assert!(report.has_code(S_SEND_DISCONNECTED), "{}", report.render());
}

#[test]
fn s004_receiver_blocked_at_report_time_reported() {
    let (report, _) = with_sanitizer(10, || {
        let (tx, rx) = channel::unbounded::<u64>("fixture.stuck");
        let handle = std::thread::spawn(move || rx.recv());
        // wait until the fixture thread is actually parked in recv()
        while gs_sanitizer::blocked_receivers() == 0 {
            std::thread::yield_now();
        }
        let report = gs_sanitizer::take_report();
        // unblock and reap the fixture thread inside the window, so no
        // later test's window sees a receiver still parked
        drop(tx);
        assert!(handle.join().unwrap().is_err());
        report
    });
    assert!(report.has_code(S_RECV_STUCK), "{}", report.render());
}

/// A channel created while no window records is not tracked, so a
/// receiver parked on it is not some later window's finding.
#[test]
fn receiver_parked_on_a_channel_made_outside_any_window_is_not_reported() {
    let (tx, rx) = {
        // no window records while the gate is held
        let _gate = gs_sanitizer::exclusive();
        channel::unbounded::<u64>("fixture.outside")
    };
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        ready_tx.send(()).unwrap();
        rx.recv()
    });
    ready_rx.recv().unwrap();
    // let the fixture thread get from the handshake into recv()
    std::thread::sleep(std::time::Duration::from_millis(50));
    let (_, report) = with_sanitizer(13, || {
        let (itx, irx) = channel::unbounded::<u64>("fixture.inside");
        itx.send(1).unwrap();
        irx.recv().unwrap()
    });
    drop(tx);
    assert!(handle.join().unwrap().is_err());
    assert!(!report.has_code(S_RECV_STUCK), "{}", report.render());
}

#[test]
fn s005_last_receiver_dropped_with_queue_reported() {
    let (_, report) = with_sanitizer(11, || {
        let (tx, rx) = channel::unbounded::<u64>("fixture.lost");
        for i in 0..3 {
            tx.send(i).unwrap();
        }
        drop(rx); // sender still alive: three messages silently discarded
        tx
    });
    assert!(report.has_code(S_LOST_MESSAGES), "{}", report.render());
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == S_LOST_MESSAGES)
        .unwrap();
    assert!(diag.message.contains("3 message(s)"), "{diag}");
}

#[test]
fn w201_unbounded_high_watermark_reported() {
    let (_, report) = with_sanitizer(12, || {
        gs_sanitizer::set_unbounded_watermark(8);
        let (tx, rx) = channel::unbounded::<u64>("fixture.flood");
        for i in 0..20 {
            tx.send(i).unwrap();
        }
        for _ in 0..20 {
            rx.recv().unwrap();
        }
    });
    assert!(report.has_code(W_QUEUE_WATERMARK), "{}", report.render());
    assert_eq!(report.error_count(), 0, "{}", report.render());
    assert_eq!(report.warning_count(), 1);
}

#[test]
fn bounded_channel_never_trips_w201() {
    let (_, report) = with_sanitizer(13, || {
        gs_sanitizer::set_unbounded_watermark(2);
        let (tx, rx) = channel::bounded::<u64>("fixture.backpressure", 64);
        for i in 0..40 {
            tx.send(i).unwrap();
        }
        for _ in 0..40 {
            rx.recv().unwrap();
        }
    });
    assert!(report.is_clean(), "{}", report.render());
}

// ---------------------------------------------------------------------
// Event log
// ---------------------------------------------------------------------

#[test]
fn events_record_thread_and_site() {
    let ((), report) = with_sanitizer(14, || {
        let m = TrackedMutex::new("fixture.events.lock", 0u64);
        *m.lock() += 1;
        let (tx, rx) = channel::unbounded::<u64>("fixture.events.chan");
        tx.send(9).unwrap();
        rx.recv().unwrap();
        let (events, dropped) = gs_sanitizer::take_events();
        assert_eq!(dropped, 0);
        let kinds: Vec<&str> = events
            .iter()
            .filter(|e| e.site.starts_with("fixture.events."))
            .map(|e| e.kind)
            .collect();
        assert_eq!(kinds, vec!["acquire", "release", "send", "recv"]);
        // seq is a total order
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    });
    assert!(report.is_clean(), "{}", report.render());
}
