//! The wrappers must behave exactly like the primitives they wrap in both
//! feature configurations, and a run that never enabled the sanitizer must
//! report nothing. These tests compile with and without `sanitize`.
//!
//! A report names every receiver blocked on a channel created inside a
//! recording window, anywhere in the process; so each test that receives
//! on a tracked channel, or takes a report, holds the
//! [`gs_sanitizer::exclusive`] gate, keeping its channels out of other
//! tests' windows.

use gs_sanitizer::channel;
use gs_sanitizer::{SharedCell, TrackedBarrier, TrackedMutex, TrackedRwLock};

#[test]
fn compiled_flag_matches_build() {
    assert_eq!(gs_sanitizer::COMPILED, cfg!(feature = "sanitize"));
}

#[test]
fn mutex_behaves_like_a_mutex() {
    let m = TrackedMutex::new("pt.mutex", 0u64);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..1000 {
                    *m.lock() += 1;
                }
            });
        }
    });
    assert_eq!(m.into_inner(), 4000);
}

#[test]
fn rwlock_behaves_like_an_rwlock() {
    let l = TrackedRwLock::new("pt.rwlock", vec![1, 2, 3]);
    assert_eq!(l.read().len(), 3);
    l.write().push(4);
    assert_eq!(*l.read(), vec![1, 2, 3, 4]);
    assert_eq!(l.into_inner().len(), 4);
}

#[test]
fn barrier_elects_one_leader_per_round() {
    let b = TrackedBarrier::new("pt.barrier", 4);
    let leaders = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..10 {
                    if b.wait().is_leader() {
                        leaders.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(leaders.into_inner(), 10);
}

#[test]
fn channels_deliver_in_order_and_disconnect() {
    let _gate = gs_sanitizer::exclusive();
    let (tx, rx) = channel::unbounded::<u64>("pt.chan");
    for i in 0..100 {
        tx.send(i).unwrap();
    }
    assert_eq!(rx.len(), 100);
    assert!(!rx.is_empty());
    let got: Vec<u64> = (0..100).map(|_| rx.recv().unwrap()).collect();
    assert_eq!(got, (0..100).collect::<Vec<_>>());
    assert!(rx.try_recv().is_err());
    drop(tx);
    assert!(rx.recv().is_err(), "disconnect surfaces as RecvError");
}

#[test]
fn bounded_channel_iterates_until_disconnect() {
    let _gate = gs_sanitizer::exclusive();
    let (tx, rx) = channel::bounded::<u64>("pt.bounded", 8);
    let h = std::thread::spawn(move || {
        for i in 0..32 {
            tx.send(i).unwrap();
        }
    });
    let sum: u64 = rx.iter().sum();
    h.join().unwrap();
    assert_eq!(sum, (0..32).sum());
}

#[test]
fn shared_cell_round_trips() {
    let c = SharedCell::new("pt.cell", 5u64);
    assert_eq!(c.get(), 5);
    c.update(|v| *v *= 3);
    assert_eq!(c.read_with(|v| *v + 1), 16);
    c.set(0);
    assert_eq!(c.into_inner(), 0);
}

#[test]
fn no_enable_means_empty_report() {
    let _gate = gs_sanitizer::exclusive();
    // tracked ops without `enable` must leave no trace in either build
    let m = TrackedMutex::new("pt.silent", ());
    drop(m.lock());
    let (tx, rx) = channel::unbounded::<u64>("pt.silent.chan");
    tx.send(1).unwrap();
    rx.recv().unwrap();
    let report = gs_sanitizer::take_report();
    assert!(report.is_clean(), "{}", report.render());
    let (events, dropped) = gs_sanitizer::take_events();
    assert!(events.is_empty());
    assert_eq!(dropped, 0);
    assert!(!gs_sanitizer::enabled());
}
