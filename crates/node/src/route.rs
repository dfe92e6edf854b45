//! Crash-window routing: where an RPC addressed to an OST actually lands.
//!
//! Both executors route displaced RPCs through one [`Routing`], a pure
//! function of the fault plan and the wiring. Whether an OST is down is a
//! function of `(ost, t)` on the immutable plan, so a sender and a
//! receiver compute the same answer with no shared "crashed" flag. The
//! simulator relies on this to pick a message's destination shard at push
//! time; the live runtime relies on it so the crashed OST thread and its
//! peers agree without talking.

use crate::report::FaultStats;
use adaptbf_model::{Rpc, SimTime};
use adaptbf_workload::{CrashSpec, FaultPlan};

/// What happens to an RPC arriving at its addressed OST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The addressed OST is up and takes it.
    Local,
    /// The addressed OST is down; this surviving OST takes it now.
    Reroute(usize),
    /// The addressed OST is down and no member of the stripe set
    /// survives: the RPC waits for the crash window to close.
    Park,
}

/// The crash window of a run plus the wiring its re-routes walk.
#[derive(Debug, Clone, Copy)]
pub struct Routing {
    crash: Option<CrashSpec>,
    n_osts: usize,
    stripe_count: usize,
}

impl Routing {
    /// Routing for `faults` over `n_osts` OSTs, each process striping its
    /// RPCs over `stripe_count` of them.
    pub fn new(faults: &FaultPlan, n_osts: usize, stripe_count: usize) -> Self {
        Routing {
            crash: faults.ost_crash,
            n_osts,
            stripe_count,
        }
    }

    /// The plan's crash window, if any.
    pub fn crash(&self) -> Option<CrashSpec> {
        self.crash
    }

    /// Whether `ost` is inside its crash window at `at`. The window is
    /// half-open: down at `from`, up again at `recovery_at`.
    #[inline]
    pub fn crashed_at(&self, ost: usize, at: SimTime) -> bool {
        match self.crash {
            Some(c) => c.ost == ost && at >= c.from && at < c.recovery_at(),
            None => false,
        }
    }

    /// The surviving OST that takes over an RPC displaced from `ost`: the
    /// next member of the issuing process's *stripe set*, in stripe order
    /// after `ost`, that is up at `at`. The set is derived from the RPC's
    /// process id exactly as the issue path places it (base
    /// `proc % n_osts`, width `stripe_count`), so record and replay agree
    /// without any client state. An RPC addressed outside its stripe set
    /// (hand-authored traces) falls back to ring order over all OSTs. For
    /// fully striped wirings (`stripe_count == n_osts`) both walks visit
    /// the same candidates in the same order. `None` when no candidate is
    /// up.
    pub fn surviving_ost(&self, ost: usize, rpc: &Rpc, at: SimTime) -> Option<usize> {
        let n = self.n_osts;
        let width = self.stripe_count;
        let base = rpc.proc_id.raw() as usize % n;
        let offset = (ost + n - base) % n;
        let alive = |candidate: &usize| !self.crashed_at(*candidate, at);
        if offset < width {
            (1..width)
                .map(|k| (base + (offset + k) % width) % n)
                .find(alive)
        } else {
            (1..n).map(|k| (ost + k) % n).find(alive)
        }
    }

    /// Where an RPC addressed to `ost` at `at` goes.
    #[inline]
    pub fn route(&self, ost: usize, rpc: &Rpc, at: SimTime) -> Route {
        if !self.crashed_at(ost, at) {
            return Route::Local;
        }
        match self.surviving_ost(ost, rpc, at) {
            Some(survivor) => Route::Reroute(survivor),
            None => Route::Park,
        }
    }

    /// [`Routing::route`] for a first-hand (client-originated) arrival,
    /// counting a displacement as `rerouted` or `parked`. Resends and
    /// redeliveries route with plain [`Routing::route`]: they were
    /// counted when first displaced, so every displaced RPC lands in
    /// exactly one [`FaultStats`] category.
    #[inline]
    pub fn route_arrival(
        &self,
        ost: usize,
        rpc: &Rpc,
        at: SimTime,
        stats: &mut FaultStats,
    ) -> Route {
        let route = self.route(ost, rpc, at);
        match route {
            Route::Local => {}
            Route::Reroute(_) => stats.rerouted += 1,
            Route::Park => stats.parked += 1,
        }
        route
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptbf_model::{ClientId, JobId, ProcId, RpcId, SimDuration};

    fn plan(ost: usize) -> FaultPlan {
        FaultPlan {
            ost_crash: Some(CrashSpec {
                ost,
                from: SimTime::from_millis(100),
                for_: SimDuration::from_millis(50),
                resend_after: SimDuration::from_millis(10),
            }),
            ..FaultPlan::none()
        }
    }

    fn rpc_of(proc: u32) -> Rpc {
        Rpc::new(RpcId(1), JobId(1), ClientId(0), ProcId(proc), SimTime::ZERO)
    }

    #[test]
    fn crash_window_is_half_open() {
        let r = Routing::new(&plan(1), 4, 2);
        let ms = SimTime::from_millis;
        assert!(!r.crashed_at(1, ms(99)));
        assert!(r.crashed_at(1, ms(100)), "`from` is inside the window");
        assert!(r.crashed_at(1, ms(149)));
        assert!(!r.crashed_at(1, ms(150)), "`recovery_at` is outside");
        assert!(!r.crashed_at(0, ms(120)), "only the target OST is down");
        let healthy = Routing::new(&FaultPlan::none(), 4, 2);
        assert!(!healthy.crashed_at(1, ms(120)));
        assert_eq!(healthy.route(1, &rpc_of(0), ms(120)), Route::Local);
    }

    #[test]
    fn survivors_follow_stripe_order() {
        // Process 1 stripes over {1, 2, 3} of 4 OSTs. OST 2 is down: the
        // next stripe member after it is 3, and after the last member the
        // walk wraps to the stripe base, not to OST 0.
        let at = SimTime::from_millis(120);
        let r = Routing::new(&plan(2), 4, 3);
        assert_eq!(r.route(2, &rpc_of(1), at), Route::Reroute(3));
        let r = Routing::new(&plan(3), 4, 3);
        assert_eq!(r.route(3, &rpc_of(1), at), Route::Reroute(1));
        // An RPC addressed to a healthy OST stays put.
        assert_eq!(r.route(2, &rpc_of(1), at), Route::Local);
    }

    #[test]
    fn no_survivor_parks() {
        // Stripe width 1: the crashed OST is the whole stripe set.
        let at = SimTime::from_millis(120);
        let r = Routing::new(&plan(0), 2, 1);
        assert_eq!(r.surviving_ost(0, &rpc_of(0), at), None);
        assert_eq!(r.route(0, &rpc_of(0), at), Route::Park);
        // …until the window closes.
        assert_eq!(
            r.route(0, &rpc_of(0), SimTime::from_millis(150)),
            Route::Local
        );
    }

    #[test]
    fn rpc_outside_its_stripe_set_falls_back_to_ring_order() {
        // Process 0 stripes over {0, 1} of 4 OSTs, but this RPC was
        // addressed to OST 2 (a hand-authored trace). OST 2 is down: the
        // ring walk from 2 takes OST 3, which is outside the stripe set.
        let at = SimTime::from_millis(120);
        let r = Routing::new(&plan(2), 4, 2);
        assert_eq!(r.surviving_ost(2, &rpc_of(0), at), Some(3));
        // A full-width stripe walks the same candidates as the ring.
        let full = Routing::new(&plan(2), 4, 4);
        assert_eq!(full.surviving_ost(2, &rpc_of(0), at), Some(3));
    }

    #[test]
    fn only_first_hand_arrivals_count_displacements() {
        let at = SimTime::from_millis(120);
        let mut stats = FaultStats::default();
        let r = Routing::new(&plan(0), 2, 2);
        assert_eq!(
            r.route_arrival(0, &rpc_of(0), at, &mut stats),
            Route::Reroute(1)
        );
        assert_eq!(r.route_arrival(1, &rpc_of(0), at, &mut stats), Route::Local);
        let r = Routing::new(&plan(0), 2, 1);
        assert_eq!(r.route_arrival(0, &rpc_of(0), at, &mut stats), Route::Park);
        assert_eq!((stats.rerouted, stats.parked), (1, 1));
        // A resend routes without counting again.
        r.route(0, &rpc_of(0), at);
        assert_eq!((stats.rerouted, stats.parked), (1, 1));
    }
}
