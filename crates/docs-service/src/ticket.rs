//! One-shot completion handles for the submission/completion service API.
//!
//! A [`Ticket`] is the client half of one in-flight operation: submitting a
//! request enqueues it on the owning shard and returns immediately with a
//! ticket; the shard's [`Completion`] lands in the ticket's slot whenever
//! the shard gets to it. A client that holds many tickets has that many
//! requests pipelined on the wire — the shard serves them strictly in
//! arrival order, so per-client ordering is exactly what a blocking caller
//! would have seen, minus the idle round-trip gaps.
//!
//! The slot is one allocation per operation: an `Arc` holding a `Mutex`
//! over pending (with the waiter's `Thread` once the client parks), ready
//! (the [`Completion`]) or closed. The shard half ([`Completer`]) rides
//! the request; filling it stores the completion and, after unlocking,
//! unparks the client only if it is parked. A blocking wait polls the slot
//! for up to [`SPIN_BUDGET`] before it parks, so a completion that lands
//! within that window costs no park/unpark round trip. A completer dropped
//! unsent — a crash discarding withheld acks, a queue dropped with
//! requests still in it — closes the slot, and the ticket reports
//! [`ServiceError::Disconnected`].
//!
//! Tickets are consumed by value: [`Ticket::wait`] blocks until the
//! completion arrives, while [`Ticket::wait_timeout`] and
//! [`Ticket::try_take`] return a [`TicketWait`] that either carries the
//! decoded result or hands the still-pending ticket back. No method
//! panics, no completion can be taken twice, and dropping a pending ticket
//! is a clean fire-and-forget (the shard's completion is simply dropped
//! with the slot).

use crate::message::{Completion, CorrelationId, Response};
use crate::metrics::ServiceMetrics;
use crate::server::ServiceError;
use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long a blocking waiter polls before it parks, on both ends of the
/// request hop: the client in [`Ticket::wait`] and the shard thread on an
/// empty ingress queue (`shard_loop`). It covers a client's think time
/// between calls and a short call such as an OTA request (~40 µs), so a
/// closed-loop client and its shard hand each request and completion
/// across without a futex wake; it stays far below a full inference run
/// (~1 ms), after which the waiter parks instead of burning its core.
/// 25, 50, 100 and 200 µs were each run once on `paper_qa_mem`,
/// `tenants_mem` and `tenants_replicated` on a 2-core box: all four lifted
/// `paper_qa_mem` answers/s by 17–25 % over parking at once, and no budget
/// beat another by more than one run's noise on any of the three.
/// 100 µs keeps a 2.5× margin over an OTA request, which 25 µs is shorter
/// than, and idles a core for half as long as 200 µs after the last call.
pub(crate) const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Polls `poll` until it returns `Some` or `budget` has elapsed, and
/// returns what it found (`None`: the budget ran out, park now). The first
/// poll happens before the clock is read, so a zero budget polls once.
///
/// Every empty poll yields the thread rather than issuing a pause hint: on
/// a box with more runnable threads than cores, a pause-spinner holds a
/// core that a shard, the replication hub or a follower needs, while a
/// yield hands it to any thread that can run and costs nothing when none
/// can.
pub(crate) fn spin<T>(budget: Duration, mut poll: impl FnMut() -> Option<T>) -> Option<T> {
    let start = Instant::now();
    loop {
        if let Some(ready) = poll() {
            return Some(ready);
        }
        if start.elapsed() >= budget {
            return None;
        }
        thread::yield_now();
    }
}

/// What a completion slot holds.
enum SlotState {
    /// Not yet completed; `Some` once the client parks on it.
    Pending(Option<Thread>),
    /// The shard's completion, not yet taken.
    Ready(Completion),
    /// The completer was dropped unsent, or the completion was taken.
    Closed,
}

/// The shared one-shot slot between a [`Completer`] and its [`Ticket`].
struct Slot(Mutex<SlotState>);

impl Slot {
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        // Nothing panics while holding the lock; a poisoned slot still
        // holds a consistent state.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Settles a pending slot with `outcome` and wakes a parked client
    /// after unlocking. A settled slot stays as it is.
    fn settle(&self, outcome: SlotState) {
        let mut state = self.lock();
        let SlotState::Pending(waiter) = &mut *state else {
            return;
        };
        let waiter = waiter.take();
        *state = outcome;
        drop(state);
        if let Some(thread) = waiter {
            thread.unpark();
        }
    }
}

/// The shard half of a completion slot: rides the request to the shard,
/// which fills it once. Dropping it unsent closes the slot.
pub(crate) struct Completer(Arc<Slot>);

impl Completer {
    /// Delivers the completion and wakes the client if it is parked.
    pub(crate) fn complete(self, completion: Completion) {
        self.0.settle(SlotState::Ready(completion));
    }
}

impl Drop for Completer {
    fn drop(&mut self) {
        // A no-op after `complete`: only a pending slot is settled.
        self.0.settle(SlotState::Closed);
    }
}

/// A fresh completion slot: the shard half and the client half.
pub(crate) fn completion_slot() -> (Completer, CompletionSlot) {
    let slot = Arc::new(Slot(Mutex::new(SlotState::Pending(None))));
    (Completer(Arc::clone(&slot)), CompletionSlot(slot))
}

/// The client half of a completion slot.
pub(crate) struct CompletionSlot(Arc<Slot>);

impl CompletionSlot {
    /// Takes the completion if the slot is settled: `Some(Ok)` for a
    /// delivered completion, `Some(Err)` for a closed slot. A pending slot
    /// answers `None` and records `waiter` as the thread to unpark (`None`
    /// when the caller is not about to park).
    fn take(&self, waiter: Option<Thread>) -> Option<Result<Completion, ServiceError>> {
        let mut state = self.0.lock();
        match std::mem::replace(&mut *state, SlotState::Pending(waiter)) {
            SlotState::Ready(completion) => {
                *state = SlotState::Closed;
                Some(Ok(completion))
            }
            SlotState::Closed => {
                *state = SlotState::Closed;
                Some(Err(ServiceError::Disconnected))
            }
            SlotState::Pending(_) => None,
        }
    }

    /// Polls for up to [`SPIN_BUDGET`], then parks until the slot is
    /// settled.
    pub(crate) fn wait(&self) -> Result<Completion, ServiceError> {
        self.wait_spinning(SPIN_BUDGET)
    }

    /// [`CompletionSlot::wait`] with the spin bounded by `budget`: no
    /// waiter is registered until the budget runs out.
    fn wait_spinning(&self, budget: Duration) -> Result<Completion, ServiceError> {
        if let Some(settled) = spin(budget, || self.take(None)) {
            return settled;
        }
        loop {
            if let Some(settled) = self.take(Some(thread::current())) {
                return settled;
            }
            thread::park();
        }
    }

    /// Parks until the slot is settled or `timeout` elapses; a timed-out
    /// wait leaves the slot pending with no waiter registered.
    pub(crate) fn wait_timeout(
        &self,
        timeout: Duration,
    ) -> Option<Result<Completion, ServiceError>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(settled) = self.take(Some(thread::current())) {
                return Some(settled);
            }
            let now = Instant::now();
            if now >= deadline {
                // Unregisters the waiter: a later completion must not
                // unpark a thread that stopped waiting on this slot.
                return self.take(None);
            }
            thread::park_timeout(deadline - now);
        }
    }

    /// Takes the completion without blocking.
    pub(crate) fn try_take(&self) -> Option<Result<Completion, ServiceError>> {
        self.take(None)
    }
}

/// Decrements the per-shard in-flight gauge exactly once, however the
/// ticket resolves (taken, timed out forever, or dropped unresolved).
///
/// Resolution is **idempotent**: the decode path resolves the gauge the
/// moment a completion is taken, and the drop is a backstop for tickets
/// that never see one. Without the `resolved` latch, a completion taken on
/// the `wait_timeout`/`try_take` path *and* the guard's drop would each
/// decrement — and because the gauge saturates at zero, the stray second
/// decrement would silently steal the slot of some *other* still-pending
/// ticket instead of underflowing visibly.
struct InFlightGuard {
    metrics: ServiceMetrics,
    shard: usize,
    resolved: Cell<bool>,
}

impl InFlightGuard {
    /// Resolves the gauge; every call after the first is a no-op.
    fn resolve(&self) {
        if !self.resolved.replace(true) {
            self.metrics.ticket_resolved(self.shard);
        }
    }
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.resolve();
    }
}

/// A one-shot handle to one submitted operation's completion.
///
/// `T` is the operation's typed result (`WorkRequest` for an assignment,
/// `BatchOutcome` for a batch submission, …); the rejection side is always
/// [`ServiceError`], so `ticket.wait()` returns exactly what the blocking
/// method for the same operation returns.
pub struct Ticket<T> {
    slot: CompletionSlot,
    correlation: CorrelationId,
    shard: usize,
    decode: fn(Response) -> Result<T, ServiceError>,
    _gauge: InFlightGuard,
}

/// Outcome of a non-blocking completion poll: either the operation's
/// decoded result, or the still-pending ticket handed back to the caller.
pub enum TicketWait<T> {
    /// The completion arrived (or the shard is gone); the ticket is spent.
    Ready(Result<T, ServiceError>),
    /// Nothing yet — keep the ticket and poll or wait again.
    Pending(Ticket<T>),
}

impl<T> TicketWait<T> {
    /// The result, if the completion had arrived; `None` discards a
    /// pending ticket (fire-and-forget).
    pub fn ready(self) -> Option<Result<T, ServiceError>> {
        match self {
            TicketWait::Ready(result) => Some(result),
            TicketWait::Pending(_) => None,
        }
    }
}

impl<T> Ticket<T> {
    pub(crate) fn new(
        slot: CompletionSlot,
        correlation: CorrelationId,
        shard: usize,
        decode: fn(Response) -> Result<T, ServiceError>,
        metrics: ServiceMetrics,
    ) -> Self {
        Ticket {
            slot,
            correlation,
            shard,
            decode,
            _gauge: InFlightGuard {
                metrics,
                shard,
                resolved: Cell::new(false),
            },
        }
    }

    /// The correlation id the shard will echo in this ticket's completion.
    pub fn correlation(&self) -> CorrelationId {
        self.correlation
    }

    /// The shard the operation was submitted to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    fn decode(&self, completion: Completion) -> Result<T, ServiceError> {
        debug_assert_eq!(
            completion.correlation, self.correlation,
            "completion correlation mismatch: per-ticket slots are one-shot"
        );
        // The operation left flight the moment its completion was taken;
        // the guard's drop is an idempotent backstop from here on.
        self._gauge.resolve();
        (self.decode)(completion.response)
    }

    /// Blocks until the completion arrives and returns the decoded result —
    /// the rendezvous the blocking API methods are thin wrappers over.
    pub fn wait(self) -> Result<T, ServiceError> {
        self.slot
            .wait()
            .and_then(|completion| self.decode(completion))
    }

    /// Waits at most `timeout` for the completion. On timeout the ticket
    /// comes back untouched in [`TicketWait::Pending`] — the operation is
    /// still in flight and can be waited on again.
    pub fn wait_timeout(self, timeout: Duration) -> TicketWait<T> {
        match self.slot.wait_timeout(timeout) {
            Some(settled) => TicketWait::Ready(settled.and_then(|c| self.decode(c))),
            None => TicketWait::Pending(self),
        }
    }

    /// Non-blocking completion poll.
    pub fn try_take(self) -> TicketWait<T> {
        match self.slot.try_take() {
            Some(settled) => TicketWait::Ready(settled.and_then(|c| self.decode(c))),
            None => TicketWait::Pending(self),
        }
    }
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("correlation", &self.correlation)
            .field("shard", &self.shard)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use docs_system::WorkRequest;

    fn decode_work(response: Response) -> Result<WorkRequest, ServiceError> {
        match response {
            Response::Work(w) => Ok(w),
            Response::Rejected(reason) => Err(ServiceError::Rejected(reason)),
            other => unreachable!("protocol violation: {other:?}"),
        }
    }

    fn issue(
        metrics: &ServiceMetrics,
        correlation: CorrelationId,
    ) -> (Ticket<WorkRequest>, Completer) {
        let (completer, slot) = completion_slot();
        metrics.ticket_issued(0);
        let ticket = Ticket::new(slot, correlation, 0, decode_work, metrics.clone());
        (ticket, completer)
    }

    fn complete(completer: Completer, correlation: CorrelationId) {
        completer.complete(Completion {
            correlation,
            response: Response::Work(WorkRequest::Done),
        });
    }

    /// Regression: a completion taken through `wait_timeout`/`try_take`
    /// resolves the gauge *and* the guard still drops afterwards — before
    /// gauge updates were idempotent, that pair of decrements silently
    /// stole the in-flight slot of another still-pending ticket (the
    /// saturating gauge hides the underflow).
    #[test]
    fn timeout_then_resolve_decrements_the_gauge_exactly_once() {
        let metrics = ServiceMetrics::new(1);
        let (a, tx_a) = issue(&metrics, 1);
        let (b, tx_b) = issue(&metrics, 2);
        assert_eq!(metrics.shard(0).in_flight, 2);

        // A timeout hands the pending ticket back without touching the
        // gauge; the completion then arrives and is taken via try_take.
        let a = match a.wait_timeout(Duration::from_millis(5)) {
            TicketWait::Pending(t) => t,
            TicketWait::Ready(r) => panic!("unserved ticket completed: {r:?}"),
        };
        assert_eq!(metrics.shard(0).in_flight, 2, "timeout resolves nothing");
        complete(tx_a, 1);
        match a.try_take() {
            TicketWait::Ready(Ok(WorkRequest::Done)) => {}
            other => panic!("completion not taken: {:?}", other.ready()),
        }
        // Exactly one decrement for A: B's slot must survive.
        assert_eq!(
            metrics.shard(0).in_flight,
            1,
            "double decrement stole the other ticket's in-flight slot"
        );

        // The same invariant on the blocking rendezvous.
        complete(tx_b, 2);
        assert_eq!(b.wait().unwrap(), WorkRequest::Done);
        assert_eq!(metrics.shard(0).in_flight, 0);

        // Dropping an unresolved ticket still resolves it (backstop path).
        let (c, tx_c) = issue(&metrics, 3);
        assert_eq!(metrics.shard(0).in_flight, 1);
        drop(c);
        drop(tx_c);
        assert_eq!(metrics.shard(0).in_flight, 0);
    }

    #[test]
    fn a_completion_that_lands_before_the_wait_is_taken_at_once() {
        let metrics = ServiceMetrics::new(1);
        let (ticket, completer) = issue(&metrics, 7);
        complete(completer, 7);
        assert_eq!(ticket.wait().unwrap(), WorkRequest::Done);
        assert_eq!(metrics.shard(0).in_flight, 0);
    }

    #[test]
    fn wait_timeout_is_pending_then_ready() {
        let metrics = ServiceMetrics::new(1);
        let (ticket, completer) = issue(&metrics, 1);
        let ticket = match ticket.wait_timeout(Duration::from_millis(2)) {
            TicketWait::Pending(t) => t,
            TicketWait::Ready(r) => panic!("unserved ticket completed: {r:?}"),
        };
        // Completed from another thread while the client waits.
        let server = thread::spawn(move || {
            thread::sleep(Duration::from_millis(5));
            complete(completer, 1);
        });
        match ticket.wait_timeout(Duration::from_secs(30)) {
            TicketWait::Ready(Ok(WorkRequest::Done)) => {}
            other => panic!("completion not delivered: {:?}", other.ready()),
        }
        server.join().unwrap();
        assert_eq!(metrics.shard(0).in_flight, 0);
    }

    #[test]
    fn try_take_is_pending_until_completed_and_takes_once() {
        let metrics = ServiceMetrics::new(1);
        let (ticket, completer) = issue(&metrics, 4);
        let ticket = match ticket.try_take() {
            TicketWait::Pending(t) => t,
            TicketWait::Ready(r) => panic!("unserved ticket completed: {r:?}"),
        };
        assert_eq!(ticket.correlation(), 4);
        complete(completer, 4);
        assert!(matches!(
            ticket.try_take(),
            TicketWait::Ready(Ok(WorkRequest::Done))
        ));
        assert_eq!(metrics.shard(0).in_flight, 0);
    }

    #[test]
    fn a_ticket_dropped_before_its_completion_is_fire_and_forget() {
        let metrics = ServiceMetrics::new(1);
        let (ticket, completer) = issue(&metrics, 5);
        drop(ticket);
        assert_eq!(metrics.shard(0).in_flight, 0);
        // The late completion lands in a slot nobody reads.
        complete(completer, 5);
        assert_eq!(metrics.shard(0).in_flight, 0);
    }

    #[test]
    fn a_completer_dropped_unsent_disconnects_every_way_of_waiting() {
        let metrics = ServiceMetrics::new(1);
        let (parked, completer) = issue(&metrics, 1);
        let server = thread::spawn(move || {
            thread::sleep(Duration::from_millis(5));
            drop(completer);
        });
        assert_eq!(parked.wait().unwrap_err(), ServiceError::Disconnected);
        server.join().unwrap();
        for poll in [true, false] {
            let (ticket, completer) = issue(&metrics, 2);
            drop(completer);
            let settled = if poll {
                ticket.try_take()
            } else {
                ticket.wait_timeout(Duration::from_secs(30))
            };
            assert!(matches!(
                settled,
                TicketWait::Ready(Err(ServiceError::Disconnected))
            ));
        }
        assert_eq!(metrics.shard(0).in_flight, 0);
    }

    /// Whether a client has registered itself as the slot's waiter.
    fn parked_on(completer: &Completer) -> bool {
        matches!(*completer.0.lock(), SlotState::Pending(Some(_)))
    }

    /// Starts `slot.wait_spinning(budget)` on a client thread and returns
    /// once that thread is about to wait.
    fn spawn_waiter(
        slot: CompletionSlot,
        budget: Duration,
    ) -> thread::JoinHandle<Result<Completion, ServiceError>> {
        let started = Arc::new(std::sync::Barrier::new(2));
        let client = {
            let started = Arc::clone(&started);
            thread::spawn(move || {
                started.wait();
                slot.wait_spinning(budget)
            })
        };
        started.wait();
        client
    }

    #[test]
    fn spin_polls_until_ready_and_a_zero_budget_polls_once() {
        let mut polls = 0;
        let found = spin(Duration::from_secs(60), || {
            polls += 1;
            (polls == 3).then_some(polls)
        });
        assert_eq!(found, Some(3));
        let mut polls = 0;
        let found = spin(Duration::ZERO, || {
            polls += 1;
            None::<()>
        });
        assert_eq!((found, polls), (None, 1));
    }

    /// A completion that lands while the client is still inside its spin
    /// budget is taken by a poll: the client never registers itself, so
    /// there is no one to unpark. (The budget here is a minute, so the
    /// client cannot run out of it first; the short sleep only makes it
    /// likely that the completion lands mid-spin rather than before the
    /// first poll, and the assertions hold either way.)
    #[test]
    fn a_completion_settled_inside_the_budget_is_taken_without_a_park() {
        let (completer, slot) = completion_slot();
        let client = spawn_waiter(slot, Duration::from_secs(60));
        thread::sleep(Duration::from_millis(2));
        assert!(
            !parked_on(&completer),
            "a client inside its spin budget registered as a waiter"
        );
        complete(completer, 1);
        assert_eq!(client.join().unwrap().unwrap().correlation, 1);
    }

    /// A completion that lands after the client's spin budget ran out
    /// reaches it through `unpark`: the client has registered itself as
    /// the waiter before the completer settles the slot.
    #[test]
    fn a_completion_settled_after_the_budget_is_delivered_by_unpark() {
        let (completer, slot) = completion_slot();
        let client = spawn_waiter(slot, SPIN_BUDGET);
        while !parked_on(&completer) {
            thread::yield_now();
        }
        complete(completer, 2);
        assert_eq!(client.join().unwrap().unwrap().correlation, 2);
    }

    /// A completer dropped unsent while the client spins closes the slot,
    /// and the spinning client reads `Disconnected` without parking.
    #[test]
    fn a_slot_closed_while_the_client_spins_reads_disconnected() {
        let (completer, slot) = completion_slot();
        let client = spawn_waiter(slot, Duration::from_secs(60));
        thread::sleep(Duration::from_millis(2));
        assert!(
            !parked_on(&completer),
            "a client inside its spin budget registered as a waiter"
        );
        drop(completer);
        assert_eq!(
            client.join().unwrap().unwrap_err(),
            ServiceError::Disconnected
        );
    }

    /// Two threads hand 100 000 completions across as fast as they can:
    /// the client waits on each ticket (parking or finding it settled) and
    /// the server completes them in order. A lost wake-up hangs the test.
    #[test]
    fn no_wake_up_is_lost_across_a_hundred_thousand_tickets() {
        const TICKETS: u64 = 100_000;
        let metrics = ServiceMetrics::new(1);
        let (to_server, completers) = std::sync::mpsc::sync_channel::<Completer>(64);
        let server = thread::spawn(move || {
            for (correlation, completer) in (0..TICKETS).zip(completers) {
                complete(completer, correlation);
            }
        });
        for correlation in 0..TICKETS {
            let (ticket, completer) = issue(&metrics, correlation);
            to_server.send(completer).unwrap();
            assert_eq!(ticket.wait().unwrap(), WorkRequest::Done);
        }
        server.join().unwrap();
        assert_eq!(metrics.shard(0).in_flight, 0);
    }
}
